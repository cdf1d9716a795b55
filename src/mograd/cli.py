"""Config-driven experiment runner.

Subcommands::

    mograd direction GRADIENTS_FILE --method edm   one-shot direction report
    mograd solve       descent on an analytic benchmark, trace + summary
    mograd imbalanced  per-class training study on imbalanced data
    mograd multitask   shared-trunk two-task study with loss scaling

Every run writes one trace CSV and one summary JSON per seed, plus one
aggregate JSON across seeds. Flags override values from --config (a JSON
file with flat keys named like the flags, each value read as its flag's
text would be). Exit codes: 0 success, 1 usage or config error, 2 data
error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from .data import (
    BatchPlan,
    Dataset,
    accuracy_per_class,
    class_batches,
    load_csv,
    stratified_split,
    synth_imbalanced,
    synth_two_task,
)
from . import optimize
from .direction import GradientSet
from .exceptions import DataError, NumericalError
from .minnorm import FwConfig
from .neural import (
    ClassLossSpec,
    MlpParams,
    _class_plan,
    _grouped_losses,
    init_mlp,
    init_two_head_mlp,
    predict_two_task,
)
from .optimize import METHODS, OptimizerConfig, RunResult, run_multitask
from .problems import MultiLossProblem, QuadraticPair, pareto_set_distance

# a direction this short counts as a stationarity certificate in reports
_STATIONARY_EPS = 1e-9


# ---------------------------------------------------------------------------
# output files


def _fmt(value) -> str:
    return repr(float(value))


def _write_trace(path: Path, trace, n_losses: int) -> None:
    """Trace CSV: iter, losses, direction norm, gamma (blank when absent),
    combination weights, step norm. Full-precision floats (``repr`` of each
    value as a Python float) for reproducible byte-identical reruns."""
    header = (
        ["iter"]
        + [f"loss_{i}" for i in range(n_losses)]
        + ["dir_norm", "gamma"]
        + [f"beta_{i}" for i in range(n_losses)]
        + ["step_norm"]
    )
    lines = [",".join(header)]
    for t in trace:
        lines.append(",".join([
            str(t.iteration),
            *map(repr, t.losses.tolist()),
            _fmt(t.direction_norm),
            "" if t.gamma is None else _fmt(t.gamma),
            *map(repr, t.weights.tolist()),
            _fmt(t.step_norm),
        ]))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _summary(method: str, seed: int, result: RunResult, wall_ms: float, **extra) -> dict:
    payload = {
        "method": method,
        "seed": seed,
        "iterations": result.iterations_used,
        "converged": result.converged,
        "final_losses": [float(v) for v in result.trace[-1].losses] if result.trace else [],
        "stationarity_residual": result.stationarity,
        "wall_time_ms": wall_ms,
    }
    payload.update(extra)
    return payload


def _aggregate(path: Path, name: str, summaries: list[dict], accuracy_key: str) -> None:
    accs = np.array([s[accuracy_key] for s in summaries], dtype=float)
    _write_json(
        path,
        {
            "experiment": name,
            "seeds": [s["seed"] for s in summaries],
            "mean_accuracy": [float(v) for v in accs.mean(axis=0)],
            "std_accuracy": [float(v) for v in accs.std(axis=0)],
        },
    )


# ---------------------------------------------------------------------------
# experiment cores (also used by the demo scripts and the acceptance suite)


def _run_flat(problem: MultiLossProblem, theta0, cfg: OptimizerConfig) -> RunResult:
    """The flat loop of ``cfg.method``, looked up on ``mograd.optimize`` at call time
    so that wrappers installed there (the benchmark's tracer) see the call."""
    return getattr(optimize, f"run_{cfg.method}")(problem, theta0, cfg)


def _epoch_batch_oracle(net, spec, ds: Dataset, plan, epochs):
    """Stateful problem oracle: each call evaluates the next per-class batch.

    Writes ``theta`` into ``net``'s buffer in place. Single-consumer (the
    descent loop). The batches are those of ``class_batches`` for
    ``epochs + 1`` epochs: the loop evaluates the oracle once more at the
    final point, and that call reads the first batch of the spare epoch.

    Every batch holds the same number of rows of each class, in class
    order, so its labels and class segments are fixed for the run, and one
    per-class plan (label picks, segments, gradient buffer and its layer
    views) serves every step. Each call returns that same gradient buffer,
    valid until the next call, as the descent loops allow. Each epoch's
    schedule is one ``(batches_per_epoch, rows)`` index array, checked
    against ``ds.labels`` once when it is drawn; a step then only runs the
    forward pass, the loss and the backward pass.
    """
    X = ds.features
    sizes = [idx.size // plan.batches_per_epoch for idx in ds.class_index_sets]
    if len(sizes) > spec.n_classes:
        raise ValueError(f"labels must lie in [0, {spec.n_classes})")
    labels = np.repeat(np.arange(len(sizes)), sizes)
    class_plan = _class_plan(net, labels, spec.n_classes)
    epochs_iter = class_batches(ds, plan, epochs=epochs + 1)
    schedule, step = None, plan.batches_per_epoch

    def problem(theta):
        nonlocal schedule, step
        if step == plan.batches_per_epoch:
            schedule = np.array([np.concatenate(batch) for batch in next(epochs_iter)])
            if not (ds.labels[schedule] == labels).all():
                raise ValueError("a batch's rows are not grouped by class")
            step = 0
        net.flat[:] = theta
        rows = schedule[step]
        step += 1
        return _grouped_losses(net, X[rows], class_plan)

    return problem


def _imbalanced_method(method: str) -> str:
    """The registry method behind an imbalanced-study ``method``: ``edm``,
    ``mgda``, or ``sgd``, the class-weighted sum (``weighted_sum`` itself
    is not accepted)."""
    if method not in ("edm", "mgda", "sgd"):
        raise ValueError(f"method must be edm, mgda, or sgd, got {method!r}")
    return "weighted_sum" if method == "sgd" else method


def train_imbalanced(
    train_ds: Dataset,
    method: str,
    mu: float,
    lr: float,
    epochs: int,
    batches_per_epoch: int,
    seed: int,
    hidden: int = 100,
    fw: FwConfig = FwConfig(),
) -> tuple[MlpParams, RunResult]:
    """Train the two-layer classifier on per-class batch losses.

    ``method`` is ``edm``, ``mgda``, or ``sgd`` (gradient descent on the
    class-weighted total loss with minor-class weight ``mu``). Returns the
    trained network, whose ``flat`` is the run's ``final_point``.
    """
    run_method = _imbalanced_method(method)
    n_classes = train_ds.n_classes
    net = init_mlp([train_ds.n_features, hidden, n_classes], seed)
    spec = ClassLossSpec(np.array([1.0] + [float(mu)] * (n_classes - 1)))
    plan = BatchPlan(batches_per_epoch=batches_per_epoch, seed=seed + 1)
    problem = _epoch_batch_oracle(net, spec, train_ds, plan, epochs)
    cfg = OptimizerConfig(
        method=run_method,
        learning_rate=lr,
        max_iters=epochs * batches_per_epoch,
        stop_tolerance=1e-300,
        weights=spec.class_weights,
        fw=fw,
        seed=seed,
    )
    # The loop's last oracle call writes final_point into net.flat.
    result = _run_flat(problem, net.flat, cfg)
    return net, result


def two_task_accuracy(model, ds: Dataset) -> list[float]:
    """Test accuracy of each head on its own task."""
    logits1, logits2 = predict_two_task(model, ds.features)
    return [
        float(np.mean(np.argmax(logits1, axis=1) == ds.labels)),
        float(np.mean(np.argmax(logits2, axis=1) == ds.labels2)),
    ]


# ---------------------------------------------------------------------------
# subcommands


def _read_gradients(path: Path) -> np.ndarray:
    if not path.exists():
        raise DataError(f"no such file: {path}")
    rows = []
    lines = [line for line in path.read_text(encoding="utf-8").splitlines() if line.strip()]
    if not lines:
        raise DataError(f"empty gradients file: {path}")
    for r, line in enumerate(lines, start=1):
        try:
            rows.append([float(cell) for cell in line.split(",")])
        except ValueError as exc:
            raise DataError(f"non-numeric value in gradients file at row {r}") from exc
        if len(rows[-1]) != len(rows[0]):
            raise DataError(f"row {r} has {len(rows[-1])} entries, row 1 has {len(rows[0])}")
    return np.asarray(rows)


def _fw_config(opts: dict) -> FwConfig:
    return FwConfig(tolerance=opts["fw_tol"], max_iters=opts["fw_max_iters"])


def cmd_direction(opts: dict) -> int:
    gradients = _read_gradients(Path(opts["gradients_file"]))
    # No weights are read here, so the registry rejects weighted_sum.
    cfg = OptimizerConfig(method=opts["method"], fw=_fw_config(opts))
    gs = GradientSet.from_gradients(gradients)
    res = METHODS[cfg.method](gs, cfg)

    d = res.raw_direction
    norm_sq = float(d @ d)
    residuals = []
    for i in range(gs.n_objectives):
        g = gs.gradients[i]
        if opts["method"] == "edm":
            residuals.append(float(d @ g - norm_sq * gs.norms[i]))
        else:
            residuals.append(float(d @ g - norm_sq))
    stepped = res.normalized_direction
    report = {
        "method": opts["method"],
        "weights": [float(v) for v in res.weights],
        "raw_direction": [float(v) for v in d],
        "gamma": res.gamma,
        "normalized_direction": [float(v) for v in stepped],
        "direction_norm": res.direction_norm,
        "support": [int(i) for i in res.support],
        "equiangular_residuals": residuals,
        "stationary": bool(float(np.linalg.norm(stepped)) <= _STATIONARY_EPS),
    }
    print(json.dumps(report, indent=2, sort_keys=True))
    out_dir = Path(opts["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(out_dir / "direction_report.json", report)
    return 0


_PROBLEMS = {
    "quadratic2": lambda: QuadraticPair(np.array([-1.0, 0.0]), np.array([1.0, 0.0])),
    "quadratic10": lambda: QuadraticPair(
        -np.ones(10) / np.sqrt(10.0), np.ones(10) / np.sqrt(10.0)
    ),
}


def cmd_solve(opts: dict) -> int:
    if opts["problem"] not in _PROBLEMS:
        raise ValueError(
            f"unknown problem {opts['problem']!r}; choose from {sorted(_PROBLEMS)}"
        )
    pair = _PROBLEMS[opts["problem"]]()
    method = opts["method"]
    weights = None
    if method == "weighted_sum":
        weights = np.array([float(v) for v in str(opts["weights"]).split(",")])
    base = OptimizerConfig(
        method=method,
        learning_rate=opts["lr"],
        max_iters=opts["iters"],
        stop_tolerance=opts["eps"],
        weights=weights,
        fw=_fw_config(opts),
    )
    out_dir = Path(opts["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)

    summaries = []
    for repeat in range(opts["repeats"]):
        seed = opts["seed"] + repeat
        rng = np.random.default_rng(seed)
        theta0 = rng.uniform(-2.0, 2.0, size=pair.dim)
        t0 = time.perf_counter()
        result = _run_flat(pair, theta0, replace(base, seed=seed))
        wall_ms = 1000.0 * (time.perf_counter() - t0)
        name = f"{opts['problem']}_{method}"
        _write_trace(out_dir / f"trace_{name}_{seed}.csv", result.trace, 2)
        summary = _summary(
            method,
            seed,
            result,
            wall_ms,
            problem=opts["problem"],
            final_point=[float(v) for v in result.final_point],
            segment_distance=pareto_set_distance(pair, result.final_point),
        )
        _write_json(out_dir / f"summary_{name}_{seed}.json", summary)
        summaries.append(summary)
        print(
            f"seed {seed}: converged={summary['converged']} "
            f"iterations={summary['iterations']} "
            f"segment_distance={summary['segment_distance']:.2e}"
        )
    _write_json(
        out_dir / f"aggregate_{opts['problem']}_{method}.json",
        {
            "experiment": f"solve_{opts['problem']}_{method}",
            "seeds": [s["seed"] for s in summaries],
            "converged": [s["converged"] for s in summaries],
            "mean_segment_distance": float(
                np.mean([s["segment_distance"] for s in summaries])
            ),
        },
    )
    return 0


def _imbalanced_dataset(opts: dict, seed: int) -> Dataset:
    if opts["csv"]:
        return load_csv(
            opts["csv"],
            label_column=opts["label_column"],
        )
    try:
        n_major, n_minor, m, separation = (
            float(v) for v in str(opts["synthetic"]).split(",")
        )
    except ValueError as exc:
        raise ValueError(
            "--synthetic expects 'n_major,n_minor,n_features,separation'"
        ) from exc
    return synth_imbalanced(int(n_major), int(n_minor), int(m), separation, seed=seed)


def cmd_imbalanced(opts: dict) -> int:
    _imbalanced_method(opts["method"])
    if not (0 < opts["mu"] < math.inf):
        raise ValueError(f"mu must be positive and finite, got {opts['mu']}")
    out_dir = Path(opts["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    fw = _fw_config(opts)

    summaries = []
    for repeat in range(opts["repeats"]):
        seed = opts["seed"] + repeat
        ds = _imbalanced_dataset(opts, seed)
        train_ds, test_ds = stratified_split(ds, opts["test_fraction"], seed=seed)
        t0 = time.perf_counter()
        net, result = train_imbalanced(
            train_ds,
            opts["method"],
            opts["mu"],
            opts["lr"],
            opts["epochs"],
            opts["batches_per_epoch"],
            seed,
            hidden=opts["hidden"],
            fw=fw,
        )
        wall_ms = 1000.0 * (time.perf_counter() - t0)
        accuracy = accuracy_per_class(net, test_ds)
        name = f"imbalanced_{opts['method']}"
        _write_trace(out_dir / f"trace_{name}_{seed}.csv", result.trace, ds.n_classes)
        summary = _summary(
            opts["method"],
            seed,
            result,
            wall_ms,
            mu=opts["mu"],
            per_class_accuracy=accuracy,
        )
        _write_json(out_dir / f"summary_{name}_{seed}.json", summary)
        summaries.append(summary)
        print(f"seed {seed}: per-class accuracy {accuracy}")
    _aggregate(out_dir / f"aggregate_{name}.json", name, summaries, "per_class_accuracy")
    return 0


def cmd_multitask(opts: dict) -> int:
    if not (1 <= opts["kappa"] < math.inf):
        raise ValueError(f"kappa must be >= 1 and finite, got {opts['kappa']}")
    base = OptimizerConfig(
        method=opts["method"],
        learning_rate=opts["lr"],
        max_iters=opts["epochs"],
        stop_tolerance=1e-300,
        weights=np.ones(2),
        fw=_fw_config(opts),
    )
    out_dir = Path(opts["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)

    data = synth_two_task(opts["n"], opts["m"], seed=opts["seed"])
    train_ds, test_ds = stratified_split(data, opts["test_fraction"], seed=opts["seed"])
    summaries = []
    for repeat in range(opts["repeats"]):
        seed = opts["seed"] + repeat
        model = init_two_head_mlp(
            opts["m"], trunk_hidden=(32, 16), head_classes=(2, 2), seed=seed
        )
        cfg = replace(base, seed=seed + 10_000)
        t0 = time.perf_counter()
        trained, result = run_multitask(
            model, train_ds, cfg, kappa=opts["kappa"], batch_size=opts["batch_size"]
        )
        wall_ms = 1000.0 * (time.perf_counter() - t0)
        accuracy = two_task_accuracy(trained, test_ds)
        name = f"multitask_{opts['method']}_k{opts['kappa']:g}"
        _write_trace(out_dir / f"trace_{name}_{seed}.csv", result.trace, 2)
        summary = _summary(
            opts["method"],
            seed,
            result,
            wall_ms,
            kappa=opts["kappa"],
            per_class_accuracy=accuracy,
        )
        _write_json(out_dir / f"summary_{name}_{seed}.json", summary)
        summaries.append(summary)
        print(f"seed {seed}: per-task accuracy {accuracy}")
    _aggregate(out_dir / f"aggregate_{name}.json", name, summaries, "per_class_accuracy")
    return 0


# ---------------------------------------------------------------------------
# argument plumbing

# Every option once: key -> (type, help). Key ``foo_bar`` is flag ``--foo-bar``.
_OPTIONS = {
    "method": (str, "step method, one of those named above"),
    "lr": (float, "learning rate"),
    "eps": (float, "stopping tolerance on the direction norm"),
    "fw_tol": (float, "relative duality-gap tolerance of the simplex solver"),
    "fw_max_iters": (int, "simplex solver major-cycle cap"),
    "seed": (int, "seed of the first repeat"),
    "repeats": (int, "number of seeds to run"),
    "out_dir": (str, "output directory"),
    "problem": (str, "quadratic2 | quadratic10"),
    "iters": (int, "iteration budget"),
    "weights": (str, "comma-separated loss weights of weighted_sum"),
    "mu": (float, "minor-class loss weight of sgd"),
    "csv": (str, "dataset CSV path (default: synthetic data)"),
    "label_column": (str, "label column name"),
    "synthetic": (str, "'n_major,n_minor,n_features,separation'"),
    "test_fraction": (float, "share of the data held out for testing"),
    "batches_per_epoch": (int, "per-class batches per epoch"),
    "hidden": (int, "hidden layer width"),
    "epochs": (int, "training epochs"),
    "kappa": (float, "multiplier on the second task loss"),
    "n": (int, "dataset size"),
    "m": (int, "feature count"),
    "batch_size": (int, "rows per batch"),
}

# The options every subcommand reads, with their defaults.
_SHARED = {"method": "edm", "fw_tol": FwConfig().tolerance,
           "fw_max_iters": FwConfig().max_iters, "out_dir": "runs"}

# Per subcommand: its help line and the defaults of exactly the options it reads.
_SUBCOMMANDS = {
    "direction": ("one-shot direction report from a gradients file; methods edm, mgda",
                  _SHARED),
    "solve": ("descent on an analytic benchmark; methods edm, mgda, weighted_sum",
              {**_SHARED, "lr": 0.1, "eps": 1e-6, "seed": 0, "repeats": 1,
               "problem": "quadratic2", "iters": 5000, "weights": "1,1"}),
    "imbalanced": ("imbalanced classification study; methods edm, mgda, sgd "
                   "(the class-weighted sum)",
                   {**_SHARED, "lr": 0.001, "seed": 0, "repeats": 1, "mu": 1.0,
                    "csv": None, "label_column": "label", "synthetic": "1000,50,8,3.5",
                    "test_fraction": 0.2, "batches_per_epoch": 40, "hidden": 100,
                    "epochs": 30}),
    "multitask": ("two-task loss-scaling study; methods edm, mgda, weighted_sum",
                  {**_SHARED, "lr": 0.01, "seed": 0, "repeats": 1, "kappa": 1.0,
                   "epochs": 15, "n": 2000, "m": 8, "test_fraction": 0.25,
                   "batch_size": 64}),
}

_COMMANDS = {
    "direction": cmd_direction,
    "solve": cmd_solve,
    "imbalanced": cmd_imbalanced,
    "multitask": cmd_multitask,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems map to exit code 1
        raise ValueError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="mograd", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (text, defaults) in _SUBCOMMANDS.items():
        # An option left unset is absent from the namespace, so it cannot
        # override the config file.
        p = sub.add_parser(command, help=text, description=text,
                           argument_default=argparse.SUPPRESS)
        if command == "direction":
            p.add_argument("gradients_file",
                           help="text file, one comma-separated gradient per line")
        for key, default in defaults.items():
            kind, help_text = _OPTIONS[key]
            if default is not None:
                help_text += f" (default {default})"
            p.add_argument(f"--{key.replace('_', '-')}", type=kind, help=help_text)
        p.add_argument("--config", help="JSON file with flat keys; flags override it")
    return parser


def _read_config(path: Path, command: str) -> dict:
    """The config file's settings, each value coerced as its flag's text would be."""
    if not path.exists():
        raise ValueError(f"config file not found: {path}")
    try:
        loaded = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(loaded, dict):
        raise ValueError("config file must hold a JSON object with flat keys")
    settings = {}
    for key, value in loaded.items():
        if key not in _SUBCOMMANDS[command][1]:
            raise ValueError(f"unknown config field {key!r} for {command}")
        if value is None:  # null leaves the default
            continue
        try:
            settings[key] = _OPTIONS[key][0](str(value))
        except ValueError as exc:
            raise ValueError(f"config field {key!r} has invalid value {value!r}") from exc
    return settings


def _merge_options(args: argparse.Namespace) -> dict:
    """Defaults, then the config file, then the flags given; at least one repeat."""
    flags = dict(vars(args))
    command = flags.pop("command")
    config = flags.pop("config", None)
    merged = dict(_SUBCOMMANDS[command][1])
    if config:
        merged.update(_read_config(Path(config), command))
    merged.update(flags)
    if merged.get("repeats", 1) < 1:
        raise ValueError(f"repeats must be >= 1, got {merged['repeats']}")
    return merged


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        opts = _merge_options(args)
        return _COMMANDS[args.command](opts)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
