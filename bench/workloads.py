"""The benchmark's workloads: what each one runs, checks and counts.

A workload runs in rounds. A training round runs every leg of one study
through ``mograd.cli.main`` in-process; a direction round solves one
block of gradient sets with ``mograd.edm_direction`` and then
``mograd.mgda_direction``. Rounds repeat: training rounds cycle over
``STUDIES`` studies of the seed, and direction rounds over a fixed pool
of blocks, so each timed call is made several times with the same input. A *step* is
one descent update (training) or one direction call (directions). Only
the calls into mograd are timed; input generation, output checks and
bookkeeping are not.

Every entry point is looked up on its module at call time, so the
traced run's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import gradsets
from spans import relative_gap

# Bookkeeping only, bound here so that the traced run's wrappers never see it.
from mograd.data import stratified_split as _stratified_split
from mograd.data import synth_two_task as _synth_two_task

# A direction's weights must sum to one this tightly.
WEIGHT_SUM_TOL = 1e-12
# Gross-error bound on the relative Frank-Wolfe gap; the strict 1e-12
# certificate is only reported, as minnorm.uncertified_frac.
GROSS_GAP_TOL = 1e-6
# Equiangular identity on the support, as in acceptance criterion 1.
EQUIANGULAR_TOL = 1e-5
# The returned direction against the benchmark's own recombination of the
# rows, relative to the largest row norm.
COMBINATION_TOL = 1e-9
SUPPORT_THRESHOLD = 1e-9
# L2 per core of the host the benchmark was built on
L2_BYTES = 4 << 20


@dataclass
class Tally:
    """One round's timed calls, by step key, and the failures among them.

    A key names one call that every round repeats with the same input: a
    training leg, or one (set, method) pair of a direction block. Its first
    element is the method.
    """

    starts: dict[tuple, float] = field(default_factory=dict)
    seconds: dict[tuple, float] = field(default_factory=dict)
    steps: dict[tuple, int] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def add(self, key: tuple, steps: int, start: float, seconds: float, failed: int,
            attempted: int) -> None:
        self.starts[key] = start
        self.seconds[key] = seconds
        self.steps[key] = steps
        self.attempted += attempted
        self.failed += failed


# ---------------------------------------------------------------------------
# training studies through the CLI

# A training run cycles over this many studies, each a CLI seed of its own,
# so that one study's data and solver path do not set the run's figures.
STUDIES = 4


def study_seed(seed: int, index: int) -> int:
    """The CLI seed of round ``index`` of the workload seed ``seed``."""
    return seed * STUDIES + index % STUDIES


@dataclass(frozen=True)
class Leg:
    method: str
    kappa: float | None = None
    # lowest acceptable test accuracy, per class or per task
    floors: tuple[float, ...] = ()


@dataclass(frozen=True)
class TrainingWorkload:
    """One CLI study: the same flags for every leg, then per-leg method flags.

    ``size`` pins every flag that sets the amount of work, so a later
    change of the CLI defaults does not change the workload.
    """

    name: str
    command: str
    legs: tuple[Leg, ...]
    size: dict
    # the pace kernel like this workload's steps (pace.py)
    pace = "loop"

    def _flags(self) -> list[str]:
        return [f for k, v in self.size.items() for f in (f"--{k.replace('_', '-')}", str(v))]

    def setup(self, seed: int) -> None:
        """What a CLI run does before its first step: imports, data and model."""
        import mograd.cli  # noqa: F401
        from mograd import data, neural

        seed = study_seed(seed, 0)
        s = self.size
        if self.command == "imbalanced":
            n_major, n_minor, m, sep = (float(v) for v in s["synthetic"].split(","))
            ds = data.synth_imbalanced(int(n_major), int(n_minor), int(m), sep, seed=seed)
            train, _ = data.stratified_split(ds, s["test_fraction"], seed=seed)
            neural.init_mlp([train.n_features, s["hidden"], train.n_classes], seed)
        else:
            ds = data.synth_two_task(s["n"], s["m"], seed=seed)
            data.stratified_split(ds, s["test_fraction"], seed=seed)
            neural.init_two_head_mlp(s["m"], trunk_hidden=(32, 16), head_classes=(2, 2), seed=seed)

    def _updates_per_leg(self, seed: int) -> int:
        s = self.size
        if self.command == "imbalanced":
            return s["epochs"] * s["batches_per_epoch"]
        ds = _synth_two_task(s["n"], s["m"], seed=seed)
        train, _ = _stratified_split(ds, s["test_fraction"], seed=seed)
        return s["epochs"] * math.ceil(train.n_samples / s["batch_size"])

    def run_round(self, seed: int, index: int, out_dir: Path) -> Tally:
        """Run every leg of study ``index % STUDIES`` of the seed: rounds cycle over them."""
        import mograd.cli

        seed = study_seed(seed, index)
        expected = self._updates_per_leg(seed)
        tally = Tally()
        for n, leg in enumerate(self.legs):
            args = [self.command, "--method", leg.method, "--seed", str(seed),
                    "--out-dir", str(out_dir), *self._flags()]
            if leg.kappa is not None:
                args += ["--kappa", repr(leg.kappa)]
            sink = io.StringIO()
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    rc = mograd.cli.main(args)
            except Exception as exc:  # a raised error is a failed leg, not a crashed benchmark
                rc = f"none, raised {exc!r}"
            seconds = time.perf_counter() - t0
            problem = f"exit code {rc}" if rc != 0 else self._check(leg, seed, out_dir)
            key = (leg.method, n, seed)
            if problem:
                tally.add(key, 0, t0, seconds, failed=expected, attempted=expected)
                tally.problems.append(f"{leg.method} kappa={leg.kappa} seed {seed}: {problem}")
            else:
                tally.add(key, expected, t0, seconds, failed=0, attempted=expected)
        return tally

    def _check(self, leg: Leg, seed: int, out_dir: Path) -> str:
        """The first check a finished leg fails, or "".

        Training loss is compared as the mean over the first and over the
        last epoch of the losses the trace records. The weighted-sum legs
        must lower their scalarized total. The edm and mgda legs must lower
        at least one objective: neither promises to lower the sum, and at
        the seed code mgda raises the per-class sum on most imbalanced seeds
        and the kappa=50 sum on some multitask seeds.
        """
        if self.command == "imbalanced":
            name = f"imbalanced_{leg.method}"
            window = self.size["batches_per_epoch"]
            records = self.size["epochs"] * window
        else:
            name = f"multitask_{leg.method}_k{leg.kappa:g}"
            window = 1
            records = self.size["epochs"]
        try:
            summary = json.loads((out_dir / f"summary_{name}_{seed}.json").read_text())
            with open(out_dir / f"trace_{name}_{seed}.csv", newline="") as fh:
                rows = list(csv.reader(fh))
            loss_cols = [i for i, h in enumerate(rows[0]) if h.startswith("loss_")]
            losses = np.array([[float(r[i]) for i in loss_cols] for r in rows[1:]])
        except (OSError, ValueError, IndexError):
            return "missing or malformed output files"
        if len(losses) != records or summary["iterations"] != records:
            return f"{len(losses)} trace rows, {summary['iterations']} iterations, {records} expected"
        if not (np.all(np.isfinite(losses)) and np.all(np.isfinite(summary["final_losses"]))):
            return "non-finite loss"
        first = losses[:window].mean(axis=0)
        last = losses[-window:].mean(axis=0)
        if leg.method in ("sgd", "weighted_sum"):
            first, last = first.sum(), last.sum()
        if not np.any(last < first):
            return "training loss did not fall"
        accuracy = summary["per_class_accuracy"]
        if len(accuracy) < len(leg.floors) or any(
            a is None or not a >= f for a, f in zip(accuracy, leg.floors)
        ):
            return f"test accuracy {accuracy} below floors {leg.floors}"
        return ""


# ---------------------------------------------------------------------------
# direction streams


@dataclass(frozen=True)
class DirectionWorkload:
    name: str
    Ts: tuple[int, ...]
    families: tuple[str, ...]
    d: int
    blocks: int

    @property
    def pace(self) -> str:
        """The pace kernel like this workload's steps (pace.py).

        Calls on rows larger than a core's L2 stream them through memory;
        calls on smaller rows are bound by the solver's Python loop.
        """
        return "stream" if 8 * self.d > L2_BYTES else "loop"

    def setup(self, seed: int) -> None:
        """Imports and the first step's input."""
        import mograd  # noqa: F401

        next(gradsets.block(seed, 0, self.Ts, self.families, self.d))

    def run_round(self, seed: int, index: int, out_dir: Path) -> Tally:
        """Solve block ``index % blocks`` of the seed's stream: rounds cycle over a pool."""
        import mograd

        tally = Tally()
        index %= self.blocks
        for T, family, G in gradsets.block(seed, index, self.Ts, self.families, self.d):
            for method in ("edm", "mgda"):
                fn = getattr(mograd, f"{method}_direction")
                fresh = G.copy()  # a newly written array, as backprop delivers it
                t0 = time.perf_counter()
                try:
                    res = fn(fresh)
                except Exception as exc:  # a raised error is a failed step
                    res, problem = None, f"raised {exc!r}"
                seconds = time.perf_counter() - t0
                del fresh
                if res is not None:
                    problem = check_direction(method, G, res)
                del res
                tally.add((method, index, T, family), int(not problem), t0, seconds,
                          failed=int(bool(problem)), attempted=1)
                if problem:
                    tally.problems.append(f"{method} T={T} {family} block {index}: {problem}")
        return tally


def check_direction(method: str, G: np.ndarray, res) -> str:
    """The first check a direction result fails for the rows G, or "".

    Checks finiteness, simplex weights, the direction against the
    benchmark's own combination of the rows, the equiangular identity on
    the support (edm), and a gross bound on the Frank-Wolfe duality gap
    computed from the benchmark's own Gram matrix.
    """
    w = np.asarray(res.weights, dtype=float)
    raw = np.asarray(res.raw_direction, dtype=float)
    stepped = np.asarray(res.normalized_direction, dtype=float)
    if w.shape != (G.shape[0],) or raw.shape != (G.shape[1],) or stepped.shape != raw.shape:
        return "shape"
    if not (np.all(np.isfinite(w)) and np.all(np.isfinite(raw)) and np.all(np.isfinite(stepped))):
        return "finite"
    if np.any(w < 0) or abs(float(w.sum()) - 1.0) > WEIGHT_SUM_TOL:
        return "simplex"
    gram = G @ G.T
    norms = np.sqrt(np.diag(gram))
    if method == "edm":
        coef = w / norms
        M = gram / np.outer(norms, norms)
        scale = 1.0
        gamma = 1.0 / float(np.sum(w[w > 0] / norms[w > 0]))
        if res.gamma is None or not math.isclose(res.gamma, gamma, rel_tol=1e-9):
            return "gamma"
        expected_step = res.gamma * raw
    else:
        coef = w
        M = gram
        scale = float(norms.max())
        expected_step = raw
    if np.linalg.norm(coef @ G - raw) > COMBINATION_TOL * scale:
        return "combination"
    step_scale = max(1.0, float(np.linalg.norm(stepped)))
    if np.linalg.norm(stepped - expected_step) > COMBINATION_TOL * step_scale:
        return "step"
    if method == "edm":
        norm_sq = float(raw @ raw)
        along = G @ raw
        for i in np.flatnonzero(w > SUPPORT_THRESHOLD):
            if abs(along[i] - norm_sq * norms[i]) > EQUIANGULAR_TOL * max(1.0, norms[i]):
                return "equiangular"
    if relative_gap(M, w) > GROSS_GAP_TOL:
        return "gap"
    return ""


# ---------------------------------------------------------------------------
# the registry

IMBALANCED_SIZE = {"synthetic": "1000,50,8,3.5", "test_fraction": 0.2, "hidden": 100,
                   "epochs": 30, "batches_per_epoch": 40, "lr": 0.001}
MULTITASK_SIZE = {"n": 2000, "m": 8, "test_fraction": 0.25, "batch_size": 64,
                  "epochs": 15, "lr": 0.01}

# Accuracy floors are gross-error checks, set well below the lowest test
# accuracy the seed code reached over 125 CLI seeds per leg. mgda on the
# per-class sums starves the major class (0.065 at worst), so that class
# has no floor there.
IMBALANCED_LEGS = (Leg("edm", floors=(0.5, 0.1)), Leg("mgda", floors=(0.0, 0.5)),
                   Leg("sgd", floors=(0.9, 0.1)))
MULTITASK_LEGS = (Leg("edm", 1.0, (0.85, 0.85)), Leg("mgda", 1.0, (0.85, 0.85)),
                  Leg("weighted_sum", 1.0, (0.85, 0.85)),
                  Leg("edm", 50.0, (0.85, 0.8)), Leg("mgda", 50.0, (0.85, 0.6)))

WORKLOADS = {
    "imbalanced": TrainingWorkload("imbalanced", "imbalanced", IMBALANCED_LEGS, IMBALANCED_SIZE),
    "multitask": TrainingWorkload("multitask", "multitask", MULTITASK_LEGS, MULTITASK_SIZE),
    "many_objective": DirectionWorkload(
        "many_objective", Ts=(4, 8, 16, 32), families=gradsets.FAMILIES, d=1000, blocks=8),
    "wide_gradients": DirectionWorkload(
        "wide_gradients", Ts=(2, 4, 8), families=("generic",), d=1_000_000, blocks=2),
}

# The same workloads at sizes that run in well under a second, without
# accuracy floors.
TINY = {
    "imbalanced": TrainingWorkload(
        "imbalanced", "imbalanced", tuple(Leg(leg.method) for leg in IMBALANCED_LEGS),
        {**IMBALANCED_SIZE, "synthetic": "200,20,4,3.5", "hidden": 8, "epochs": 3,
         "batches_per_epoch": 4}),
    "multitask": TrainingWorkload(
        "multitask", "multitask", tuple(Leg(leg.method, leg.kappa) for leg in MULTITASK_LEGS),
        {**MULTITASK_SIZE, "n": 240, "m": 4, "epochs": 3}),
    "many_objective": DirectionWorkload(
        "many_objective", Ts=(4, 8), families=gradsets.FAMILIES, d=50, blocks=2),
    "wide_gradients": DirectionWorkload(
        "wide_gradients", Ts=(2, 4), families=("generic",), d=2000, blocks=2),
}
