"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest bench/test_smoke.py -q

Checks that every metric BENCHMARK.json names is emitted with its unit
and sample count, that the gradient-set generator is bitwise
deterministic for a seed, that the traced run puts back every mograd
function it wrapped, that a raising call counts as a failed step, how
throughput counts repeated calls, and how the pace rescales a call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import gradsets  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload: str, trace: int) -> tuple[dict, dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "7", "--seconds", "0.2",
                         "--trace", str(trace), "--size", "tiny"])
    assert code == 0
    detail, result = (json.loads(line) for line in out.getvalue().splitlines()[-2:])
    return detail, result


def _bindings() -> dict:
    """Every module attribute, registry entry and class attribute of mograd."""
    import mograd.cli  # noqa: F401

    seen = {}
    for name, module in list(sys.modules.items()):
        if name != "mograd" and not name.startswith("mograd."):
            continue
        for key, value in vars(module).items():
            seen[(name, key)] = value
            if isinstance(value, dict):
                for k2, v2 in value.items():
                    seen[(name, key, k2)] = v2
            if isinstance(value, type) and value.__module__.startswith("mograd"):
                for k2, v2 in vars(value).items():
                    seen[(name, key, "class", k2)] = v2
    return seen


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted(workload):
    for trace, spec_key in ((0, "end_to_end"), (1, "per_layer")):
        detail, result = _run(workload, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        wanted = {m["name"]: m["unit"] for m in SPEC[spec_key]}
        assert set(result["metrics"]) == set(wanted)
        for name, unit in wanted.items():
            metric = result["metrics"][name]
            assert metric["unit"] == unit
            assert math.isfinite(metric["value"])
            assert detail["metrics"][name]["samples"] >= 0
        env = detail["environment"]
        for key in ("host", "nproc", "python", "numpy", "blas", "thread_env", "git_sha", "seed"):
            assert key in env
        assert env["thread_env"]["OPENBLAS_NUM_THREADS"] == "1"


def test_end_to_end_metrics_are_never_zero():
    _, result = _run("many_objective", 0)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_generator_is_bitwise_deterministic():
    def draw(seed, index):
        return [G.tobytes() for _, _, G in gradsets.block(seed, index, (4, 8), gradsets.FAMILIES, 64)]

    assert draw(5, 2) == draw(5, 2)
    assert draw(5, 2) != draw(6, 2)
    assert draw(5, 2) != draw(5, 3)


def test_families_have_their_shape():
    rng = np.random.default_rng(0)
    G = gradsets.gradient_set(rng, "rank_deficient", 16, 200)
    assert np.linalg.matrix_rank(G) == gradsets.RANK
    G = gradsets.gradient_set(rng, "duplicate", 8, 200)
    unit = G / np.linalg.norm(G, axis=1, keepdims=True)
    assert np.linalg.matrix_rank(unit, tol=1e-8) <= 4


def test_traced_run_restores_every_wrapped_function():
    before = _bindings()
    _run("imbalanced", 1)
    _run("many_objective", 1)
    after = _bindings()
    changed = [key for key, value in before.items() if after.get(key) is not value]
    assert changed == []


def test_throughput_counts_each_call_at_its_median_repeat():
    import workloads
    from pace import Pace

    with Pace(interval=60.0) as idle:  # no samples: every call at its plain time
        pass
    rounds = []
    for edm, sgd in ((2.0, 1.0), (1.0, 3.0), (3.0, 2.0)):
        tally = workloads.Tally()
        tally.add(("edm", 0), steps=10, start=0.0, seconds=edm, failed=0, attempted=10)
        tally.add(("sgd", 1), steps=10, start=0.0, seconds=sgd, failed=0, attempted=10)
        rounds.append(tally)
    assert run._throughput(rounds, idle) == (5.0, 6)
    assert run._throughput(rounds, idle, ("edm",)) == (5.0, 3)


def test_pace_rescales_a_call_and_drops_its_samples():
    import pace

    with pace.Pace(interval=60.0) as slow:  # samples written by hand: a host at half speed
        for i in range(100):
            slow.starts.append(0.01 * i)
            slow.seconds.append(1e-4)
            slow.kernel_seconds.append(2 * slow.reference)
    assert slow.factor(0.195, 0.495) == pytest.approx(0.5)
    # 0.3 s holding 30 samples of 0.1 ms, at half the reference pace
    assert slow.normalized(0.195, 0.3) == pytest.approx(0.5 * 0.297)


def test_a_raising_call_is_a_failed_step(monkeypatch, tmp_path):
    import mograd
    import workloads

    def broken(grads):
        raise FloatingPointError("boom")

    monkeypatch.setattr(mograd, "edm_direction", broken)
    tally = workloads.TINY["many_objective"].run_round(7, 0, tmp_path)
    sets = 2 * len(gradsets.FAMILIES)
    assert (tally.attempted, tally.failed) == (2 * sets, sets)
    assert all("raised FloatingPointError" in p for p in tally.problems)
