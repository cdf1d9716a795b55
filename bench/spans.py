"""Spans for the traced run, and the wrappers that record them.

``installed(recorder)`` wraps the public mograd functions listed in
``LAYERS`` at every place a ``mograd.*`` module namespace binds them: the
module attribute, re-exports in other modules and the package, and
module-level registries such as ``cli._RUNNERS``. Class methods are
wrapped on the class. Everything is put back when the block exits.

A span is ``(name, start_ns, end_ns, parent)``; ``parent`` is the index of
the enclosing span or -1. Spans stay in memory until ``write`` dumps them.
Time the benchmark spends on its own bookkeeping inside a traced call
(the solver certificate) is recorded as ``bench.*`` spans, so it can be
taken out of every self time and share.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import sys
import time

import numpy as np

# (module, attribute path, span name)
LAYERS = (
    ("mograd.minnorm", "gram_matrix", "minnorm.gram"),
    ("mograd.minnorm", "frank_wolfe_min_norm", "minnorm.solve"),
    ("mograd.direction", "GradientSet.from_gradients", "direction.gradset"),
    ("mograd.direction", "edm_direction", "direction.edm"),
    ("mograd.direction", "mgda_direction", "direction.mgda"),
    ("mograd.neural", "per_class_losses", "neural.per_class_losses"),
    ("mograd.neural", "two_task_gradients", "neural.two_task_gradients"),
    ("mograd.neural", "MlpParams.from_flat", "neural.param_copy"),
    ("mograd.neural", "MlpParams.flatten", "neural.param_copy"),
    ("mograd.optimize", "run_edm", "optimize.loop"),
    ("mograd.optimize", "run_mgda", "optimize.loop"),
    ("mograd.optimize", "run_weighted_sum", "optimize.loop"),
    ("mograd.optimize", "run_multitask", "optimize.loop"),
    ("mograd.data", "synth_imbalanced", "data.prep"),
    ("mograd.data", "synth_two_task", "data.prep"),
    ("mograd.data", "stratified_split", "data.prep"),
    ("mograd.cli", "main", "cli.main"),
)

CERTIFICATE = "bench.certificate"


def relative_gap(M: np.ndarray, beta: np.ndarray) -> float:
    """Frank-Wolfe duality gap ``b'Mb - min(Mb)`` over the largest diagonal entry."""
    Mb = M @ beta
    scale = float(np.max(np.diag(M)))
    if scale <= 0.0:
        return 0.0
    return max(float(beta @ Mb - Mb.min()), 0.0) / scale


class Recorder:
    """In-memory span log for one traced phase, plus per-solve facts."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.info: dict[int, dict] = {}
        self._stack: list[int] = []
        self._gram_vectors = None

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter_ns()
        self._stack.pop()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, name in enumerate(self.names):
                row = [i, name, self.starts[i], self.ends[i], self.parents[i]]
                if i in self.info:
                    row.append(self.info[i])
                fh.write(json.dumps(row) + "\n")

    # hooks run after a wrapped call returns, outside its span

    def after_gram(self, idx, args, kwargs, result) -> None:
        vectors = args[0] if args else kwargs["vectors"]
        self._gram_vectors = vectors
        T, d = np.shape(vectors)
        self.info[idx] = {"T": T, "d": d}

    def after_solve(self, idx, args, kwargs, result, max_iters) -> None:
        cfg = args[1] if len(args) > 1 else kwargs.get("cfg")
        cap = cfg.max_iters if cfg is not None else max_iters
        info = {"iters": result.iterations, "cap_hit": result.iterations >= cap}
        vectors, self._gram_vectors = self._gram_vectors, None
        M = args[0] if args else kwargs["M"]
        if vectors is not None and np.shape(vectors)[0] == np.shape(M)[0]:
            cert = self.open(CERTIFICATE)
            V = np.asarray(vectors, dtype=float)
            info["gap"] = relative_gap(V @ V.T, result.weights)
            self.close(cert)
        self.info[idx] = info

    def after_gradset(self, idx, args, kwargs, result) -> None:
        T, d = result.gradients.shape
        self.info[idx] = {"T": T, "d": d}


def _wrap(fn, name: str, rec: Recorder, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        if after is not None:
            after(idx, args, kwargs, result)
        return result

    return wrapper


def _hook(rec: Recorder, span: str, fn):
    if span == "minnorm.gram":
        return rec.after_gram
    if span == "minnorm.solve":
        default_cap = inspect.signature(fn).parameters["cfg"].default.max_iters
        return functools.partial(rec.after_solve, max_iters=default_cap)
    if span == "direction.gradset":
        return rec.after_gradset
    return None


def _mograd_modules():
    return [m for n, m in list(sys.modules.items()) if n == "mograd" or n.startswith("mograd.")]


def _set(owner, key, value) -> None:
    if isinstance(owner, dict):
        owner[key] = value
    else:
        setattr(owner, key, value)


def _get(owner, key):
    return owner[key] if isinstance(owner, dict) else owner.__dict__[key]


def install(rec: Recorder) -> list[tuple]:
    """Wrap every binding of every layer function; return the patches made."""
    patches = []
    for module_name, path, span in LAYERS:
        module = importlib.import_module(module_name)
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                fn = raw.__func__
                wrapped = classmethod(_wrap(fn, span, rec, _hook(rec, span, fn)))
            else:
                wrapped = _wrap(raw, span, rec, _hook(rec, span, raw))
            patches.append((cls, attr, raw))
            setattr(cls, attr, wrapped)
            continue
        fn = getattr(module, path)
        wrapped = _wrap(fn, span, rec, _hook(rec, span, fn))
        for mod in _mograd_modules():
            for key, value in list(vars(mod).items()):
                if value is fn:
                    patches.append((mod, key, fn))
                    setattr(mod, key, wrapped)
                elif isinstance(value, dict):
                    for k2, v2 in list(value.items()):
                        if v2 is fn:
                            patches.append((value, k2, fn))
                            value[k2] = wrapped
    return patches


def restore(patches) -> None:
    for owner, key, original in reversed(patches):
        _set(owner, key, original)


def all_restored(patches) -> bool:
    return all(_get(owner, key) is original for owner, key, original in patches)


@contextlib.contextmanager
def installed(rec: Recorder):
    patches = install(rec)
    try:
        yield patches
    finally:
        restore(patches)


# ---------------------------------------------------------------------------
# per-layer metrics

ORACLES = ("neural.per_class_losses", "neural.two_task_gradients")
UNCERTIFIED_GAP = 1e-12

# name -> unit, in the order they are reported
PER_LAYER_UNITS = {
    "minnorm.solve_p50_us": "us",
    "minnorm.solve_p99_us": "us",
    "minnorm.solve_share": "frac",
    "minnorm.fw_iters_mean": "count",
    "minnorm.cap_hit_frac": "frac",
    "minnorm.uncertified_frac": "frac",
    "minnorm.gram_p50_us": "us",
    "minnorm.gram_share": "frac",
    "minnorm.gram_gflops": "GFLOP/s",
    "direction.gradset_p50_us": "us",
    "direction.gradset_share": "frac",
    "direction.gradset_gbps": "GB/s",
    "direction.edm_self_p50_us": "us",
    "direction.mgda_self_p50_us": "us",
    "direction.solves_per_step": "count",
    "neural.per_class_losses_p50_us": "us",
    "neural.per_class_losses_share": "frac",
    "neural.two_task_gradients_p50_us": "us",
    "neural.two_task_gradients_share": "frac",
    "neural.param_copies_per_step": "count",
    "neural.param_copy_share": "frac",
    "optimize.step_p50_us": "us",
    "optimize.step_p99_us": "us",
    "optimize.loop_self_share": "frac",
    "data.prep_ms": "ms",
    "cli.self_share": "frac",
    "trace.overhead_frac": "frac",
}


def _pct(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def _ratio(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0


def _nearest(parents: np.ndarray, names: np.ndarray, idx: int, name: str) -> int:
    p = parents[idx]
    while p >= 0 and names[p] != name:
        p = parents[p]
    return int(p)


def layer_metrics(rec: Recorder, steps: int) -> dict[str, tuple[float, int]]:
    """Every per-layer metric except the tracing overhead, as ``(value, samples)``.

    Shares are self time over program time: the summed duration of the
    root spans less the benchmark's own ``bench.*`` spans inside them.
    """
    names = np.array(rec.names, dtype=object)
    parents = np.array(rec.parents, dtype=np.int64)
    dur = np.array(rec.ends, dtype=np.int64) - np.array(rec.starts, dtype=np.int64)
    covered = np.zeros_like(dur)
    nested = parents >= 0
    np.add.at(covered, parents[nested], dur[nested])
    self_ns = dur - covered
    bench = np.array([str(n).startswith("bench.") for n in names], dtype=bool)
    program_ns = float(dur[(parents < 0) & ~bench].sum() - dur[bench & nested].sum())

    def idx(*wanted):
        return np.flatnonzero(np.isin(names, wanted))

    def us(ix):
        return self_ns[ix] / 1e3

    def share(ix):
        return (_ratio(self_ns[ix].sum(), program_ns), len(ix))

    out: dict[str, tuple[float, int]] = {}

    solve = idx("minnorm.solve")
    facts = [rec.info[i] for i in solve if i in rec.info]
    gaps = [f["gap"] for f in facts if "gap" in f]
    out["minnorm.solve_p50_us"] = (_pct(us(solve), 50), len(solve))
    out["minnorm.solve_p99_us"] = (_pct(us(solve), 99), len(solve))
    out["minnorm.solve_share"] = share(solve)
    out["minnorm.fw_iters_mean"] = (
        float(np.mean([f["iters"] for f in facts])) if facts else 0.0, len(facts))
    out["minnorm.cap_hit_frac"] = (
        float(np.mean([f["cap_hit"] for f in facts])) if facts else 0.0, len(facts))
    out["minnorm.uncertified_frac"] = (
        float(np.mean(np.array(gaps) > UNCERTIFIED_GAP)) if gaps else 0.0, len(gaps))

    gram = idx("minnorm.gram")
    flops = sum(rec.info[i]["T"] * (rec.info[i]["T"] + 1) * rec.info[i]["d"] for i in gram)
    out["minnorm.gram_p50_us"] = (_pct(us(gram), 50), len(gram))
    out["minnorm.gram_share"] = share(gram)
    out["minnorm.gram_gflops"] = (_ratio(flops, self_ns[gram].sum()), len(gram))

    gradset = idx("direction.gradset")
    moved = sum(3 * 8 * rec.info[i]["T"] * rec.info[i]["d"] for i in gradset)
    out["direction.gradset_p50_us"] = (_pct(us(gradset), 50), len(gradset))
    out["direction.gradset_share"] = share(gradset)
    out["direction.gradset_gbps"] = (_ratio(moved, self_ns[gradset].sum()), len(gradset))

    for method in ("edm", "mgda"):
        ix = idx(f"direction.{method}")
        out[f"direction.{method}_self_p50_us"] = (_pct(us(ix), 50), len(ix))
    out["direction.solves_per_step"] = (_ratio(len(solve), steps), steps)

    for oracle in ORACLES:
        ix = idx(oracle)
        out[f"{oracle}_p50_us"] = (_pct(us(ix), 50), len(ix))
        out[f"{oracle}_share"] = share(ix)

    copies = idx("neural.param_copy")
    out["neural.param_copies_per_step"] = (_ratio(len(copies), steps), steps)
    out["neural.param_copy_share"] = share(copies)

    intervals = []
    last_start: dict[int, int] = {}
    for i in idx(*ORACLES):
        loop = _nearest(parents, names, i, "optimize.loop")
        if loop >= 0 and loop in last_start:
            intervals.append((rec.starts[i] - last_start[loop]) / 1e3)
        last_start[loop] = rec.starts[i]
    loops = idx("optimize.loop")
    out["optimize.step_p50_us"] = (_pct(intervals, 50), len(intervals))
    out["optimize.step_p99_us"] = (_pct(intervals, 99), len(intervals))
    out["optimize.loop_self_share"] = share(loops)

    mains = idx("cli.main")
    prep_ns = dict.fromkeys(mains.tolist(), 0)
    for i in idx("data.prep"):
        owner = _nearest(parents, names, i, "cli.main")
        if owner >= 0 and names[parents[i]] != "data.prep":
            prep_ns[owner] += int(dur[i])
    out["data.prep_ms"] = (_pct([v / 1e6 for v in prep_ns.values()], 50), len(prep_ns))
    out["cli.self_share"] = share(mains)
    return out
