"""Argument plumbing and output files of the ``mograd`` command (its help
text is ``_DESCRIPTION``). The study cores live in ``mograd.optimize``
and ``mograd.data``; every study writes its files through ``_study``."""

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
    Dataset,
    accuracy_per_class,
    load_csv,
    stratified_split,
    synth_imbalanced,
    synth_two_task,
    two_task_accuracy,
)
from .direction import GradientSet
from .exceptions import DataError, NumericalError
from .minnorm import FwConfig
from .neural import init_two_head_mlp
from .optimize import (
    METHODS,
    OptimizerConfig,
    _imbalanced_method,
    _run_flat,
    run_multitask,
    train_imbalanced,
)
from .problems import QuadraticPair, pareto_set_distance

# a direction this short counts as a stationarity certificate in reports
_STATIONARY_EPS = 1e-9


# ---------------------------------------------------------------------------
# output files and the per-seed frame of the studies


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


class _Clock:
    """Times the ``with`` block it guards, in milliseconds."""

    def __enter__(self):
        self._start = time.perf_counter()

    def __exit__(self, *exc):
        self.ms = 1000.0 * (time.perf_counter() - self._start)


def _study(opts: dict, name: str, run_seed, aggregate) -> int:
    """Run one study's seeds and write its files; the frame of every study.

    ``run_seed(seed, clock)`` runs one seed, with its training call alone
    inside ``with clock:``, and returns the ``RunResult``, the number of
    losses, the extra summary fields and the line to print. Each seed
    writes ``trace_{name}_{seed}.csv`` and ``summary_{name}_{seed}.json``;
    after the last, ``aggregate(name, summaries)`` plus the seeds goes to
    ``aggregate_{name}.json``. The output directory is made with the first
    file, so a run that fails before then leaves none.
    """
    out_dir = Path(opts["out_dir"])
    summaries = []
    for repeat in range(opts["repeats"]):
        seed = opts["seed"] + repeat
        clock = _Clock()
        result, n_losses, extra, line = run_seed(seed, clock)
        out_dir.mkdir(parents=True, exist_ok=True)
        _write_trace(out_dir / f"trace_{name}_{seed}.csv", result.trace, n_losses)
        summary = {
            "method": opts["method"],
            "seed": seed,
            "iterations": result.iterations_used,
            "converged": result.converged,
            "final_losses": [float(v) for v in result.trace[-1].losses] if result.trace else [],
            "stationarity_residual": result.stationarity,
            "wall_time_ms": clock.ms,
            **extra,
        }
        _write_json(out_dir / f"summary_{name}_{seed}.json", summary)
        summaries.append(summary)
        print(f"seed {seed}: {line}")
    payload = {"seeds": [s["seed"] for s in summaries], **aggregate(name, summaries)}
    _write_json(out_dir / f"aggregate_{name}.json", payload)
    return 0


def _accuracy_aggregate(name: str, summaries: list[dict]) -> dict:
    accs = np.array([s["per_class_accuracy"] for s in summaries], dtype=float)
    return {
        "experiment": name,
        "mean_accuracy": [float(v) for v in accs.mean(axis=0)],
        "std_accuracy": [float(v) for v in accs.std(axis=0)],
    }


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

    def run_seed(seed, clock):
        theta0 = np.random.default_rng(seed).uniform(-2.0, 2.0, size=pair.dim)
        with clock:
            result = _run_flat(pair, theta0, replace(base, seed=seed))
        distance = pareto_set_distance(pair, result.final_point)
        extra = {
            "problem": opts["problem"],
            "final_point": [float(v) for v in result.final_point],
            "segment_distance": distance,
        }
        line = (f"converged={result.converged} iterations={result.iterations_used} "
                f"segment_distance={distance:.2e}")
        return result, 2, extra, line

    def aggregate(name, summaries):
        return {
            "experiment": f"solve_{name}",
            "converged": [s["converged"] for s in summaries],
            "mean_segment_distance": float(np.mean([s["segment_distance"] for s in summaries])),
        }

    return _study(opts, f"{opts['problem']}_{method}", run_seed, aggregate)


def _imbalanced_dataset(opts: dict, seed: int) -> Dataset:
    if opts["csv"]:
        return load_csv(opts["csv"], label_column=opts["label_column"])
    try:
        n_major, n_minor, m, separation = (
            float(v) for v in str(opts["synthetic"]).split(",")
        )
    except ValueError as exc:
        raise ValueError(
            "--synthetic expects 'n_major,n_minor,n_features,separation'"
        ) from exc
    if not all(v.is_integer() for v in (n_major, n_minor, m)):
        raise ValueError(f"--synthetic counts must be integers, got {opts['synthetic']!r}")
    return synth_imbalanced(int(n_major), int(n_minor), int(m), separation, seed=seed)


def cmd_imbalanced(opts: dict) -> int:
    _imbalanced_method(opts["method"])  # a usage error before any data is read
    if not (0 < opts["mu"] < math.inf):
        raise ValueError(f"mu must be positive and finite, got {opts['mu']}")
    fw = _fw_config(opts)

    def run_seed(seed, clock):
        ds = _imbalanced_dataset(opts, seed)
        train_ds, test_ds = stratified_split(ds, opts["test_fraction"], seed=seed)
        with clock:
            net, result = train_imbalanced(
                train_ds, opts["method"], opts["mu"], opts["lr"], opts["epochs"],
                opts["batches_per_epoch"], seed, hidden=opts["hidden"], fw=fw,
            )
        accuracy = accuracy_per_class(net, test_ds)
        extra = {"mu": opts["mu"], "per_class_accuracy": accuracy}
        return result, ds.n_classes, extra, f"per-class accuracy {accuracy}"

    return _study(opts, f"imbalanced_{opts['method']}", run_seed, _accuracy_aggregate)


def cmd_multitask(opts: dict) -> int:
    base = OptimizerConfig(
        method=opts["method"],
        learning_rate=opts["lr"],
        max_iters=opts["epochs"],
        stop_tolerance=1e-300,
        weights=np.ones(2),
        fw=_fw_config(opts),
    )
    data = synth_two_task(opts["n"], opts["m"], seed=opts["seed"])
    train_ds, test_ds = stratified_split(data, opts["test_fraction"], seed=opts["seed"])

    def run_seed(seed, clock):
        model = init_two_head_mlp(
            opts["m"], trunk_hidden=(32, 16), head_classes=(2, 2), seed=seed
        )
        cfg = replace(base, seed=seed + 10_000)
        with clock:
            trained, result = run_multitask(
                model, train_ds, cfg, kappa=opts["kappa"], batch_size=opts["batch_size"]
            )
        accuracy = two_task_accuracy(trained, test_ds)
        extra = {"kappa": opts["kappa"], "per_class_accuracy": accuracy}
        return result, 2, extra, f"per-task accuracy {accuracy}"

    name = f"multitask_{opts['method']}_k{opts['kappa']:g}"
    return _study(opts, name, run_seed, _accuracy_aggregate)


# ---------------------------------------------------------------------------
# argument plumbing

_DESCRIPTION = """Config-driven experiment runner.

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
    parser = _Parser(prog="mograd", description=_DESCRIPTION,
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
