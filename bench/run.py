"""Runs the mograd benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload for S seconds in this one process, one call at a time
(a closed loop with a single caller), checks every output, and prints as
its last line one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` the run measures S/2 seconds untraced, then S/2 seconds with
every mograd layer wrapped, and the metrics are the per-layer ones. The
line before it holds the same metrics with their sample counts and the
run environment, which also go to ``bench/out/``.

Timed calls are rescaled to a reference pace of the host, which this
process samples on a timer signal while it measures (``pace.py``). BLAS
and OpenMP are pinned to one thread through this process's environment,
before numpy loads. ``--size tiny`` shrinks every workload for the smoke
test.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_PROBES = 9
# failures listed by name in the detail line; all are counted
MAX_PROBLEMS = 50

END_TO_END_UNITS = {
    "setup_s": "s",
    "steps_per_s": "1/s",
    "edm_steps_per_s": "1/s",
    "mgda_steps_per_s": "1/s",
    "peak_rss_mb": "MB",
    "pass_frac": "frac",
}


def _throughput(rounds, pace, methods=None) -> tuple[float, int]:
    """Steps per second at the reference pace; and the calls seen.

    Each call's time is taken without the pace samples inside it and
    rescaled to the reference pace (``pace.py``). A call that rounds
    repeat is counted at the median of its repeats.
    """
    times: dict[tuple, list[float]] = {}
    steps: dict[tuple, int] = {}
    calls = 0
    for tally in rounds:
        for key, seconds in tally.seconds.items():
            if methods is not None and key[0] not in methods:
                continue
            calls += 1
            times.setdefault(key, []).append(pace.normalized(tally.starts[key], seconds))
            steps[key] = tally.steps[key]
    seconds = sum(statistics.median(t) for t in times.values())
    return (sum(steps.values()) / seconds if seconds > 0 else 0.0), calls


def _wall_throughput(rounds) -> float:
    """Steps per second of plain timed wall time, for the detail line."""
    seconds = sum(sum(t.seconds.values()) for t in rounds)
    return sum(sum(t.steps.values()) for t in rounds) / seconds if seconds > 0 else 0.0


def measure(workload, seed: int, seconds: float, out_dir: Path, probe=None) -> tuple[list, list]:
    """Rounds of the workload for about ``seconds``, at least one; and set-up times.

    A round is not started when the mean round so far says it would end
    past the deadline. With ``probe`` (a workload name and size), a fresh
    set-up process is timed before the round that crosses each
    ``1/SETUP_PROBES`` of the time, so the probes sample the whole run.
    """
    rounds, setups = [], []
    start = time.perf_counter()
    elapsed = 0.0
    while True:
        due = len(setups) < SETUP_PROBES and elapsed >= len(setups) * seconds / SETUP_PROBES
        if probe is not None and due:
            setups.append(setup_seconds(*probe, seed))
        rounds.append(workload.run_round(seed, len(rounds), out_dir))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(rounds) > seconds:
            break
    while probe is not None and len(setups) < SETUP_PROBES:
        setups.append(setup_seconds(*probe, seed))
    return rounds, setups


def setup_seconds(workload: str, size: str, seed: int) -> float:
    """Set-up time of a fresh process, from spawn to its first step's start.

    At the reference pace that the fresh process samples itself.
    """
    t0 = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(BENCH / "probe.py"), workload, str(seed), size],
        capture_output=True, text=True, timeout=120, check=True,
    )
    end, inside, factor = (float(v) for v in done.stdout.split()[-3:])
    return max(end - t0 - inside, 0.0) * factor


def _git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    keys = ("THREAD", "OMP_", "MKL_", "OPENBLAS", "BLIS", "VECLIB", "NUMEXPR", "GOTO")
    return {
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if any(s in k for s in keys)},
        "git_sha": _git_sha(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds positive")
    if not (ROOT / "src" / "mograd" / "__init__.py").is_file():
        print(f"mograd sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import spans
    import workloads
    from pace import Pace

    table = workloads.TINY if args.size == "tiny" else workloads.WORKLOADS
    if args.workload not in table:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(table)}")
    workload = table[args.workload]
    cli_out = OUT / f"cli-{args.workload}"  # the CLI's trace and summary files
    shutil.rmtree(cli_out, ignore_errors=True)
    cli_out.mkdir(parents=True)

    report: dict[str, dict] = {}
    if args.trace == 0:
        with Pace(workload.pace) as pace:
            rounds, setups = measure(workload, args.seed, args.seconds, cli_out,
                                     probe=(args.workload, args.size))
        values = {
            "setup_s": (statistics.median(setups), len(setups)),
            "steps_per_s": _throughput(rounds, pace),
            "edm_steps_per_s": _throughput(rounds, pace, ("edm",)),
            "mgda_steps_per_s": _throughput(rounds, pace, ("mgda",)),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
        }
        units = END_TO_END_UNITS
    else:
        rec = spans.Recorder()
        with Pace(workload.pace) as pace:
            plain, _ = measure(workload, args.seed, args.seconds / 2, cli_out)
            with spans.installed(rec) as patches:
                traced, _ = measure(workload, args.seed, args.seconds / 2, cli_out)
        if not spans.all_restored(patches):
            print("traced run left a mograd function wrapped", file=sys.stderr)
            return 3
        rounds = plain + traced
        values = spans.layer_metrics(rec, sum(t.attempted for t in traced))
        untraced_rate, n_plain = _throughput(plain, pace)
        traced_rate, n_traced = _throughput(traced, pace)
        overhead = 1.0 - traced_rate / untraced_rate if untraced_rate else 0.0
        values["trace.overhead_frac"] = (overhead, min(n_plain, n_traced))
        units = spans.PER_LAYER_UNITS
        rec.write(OUT / f"spans-{args.workload}-{args.seed}.jsonl")
    shutil.rmtree(cli_out)

    attempted = sum(t.attempted for t in rounds)
    failed = sum(t.failed for t in rounds)
    if args.trace == 0:
        values["pass_frac"] = (1.0 - failed / attempted if attempted else 0.0, attempted)
    for name, unit in units.items():
        value, samples = values[name]
        report[name] = {"value": float(value), "unit": unit, "samples": int(samples)}

    problems = [p for t in rounds for p in t.problems]
    detail = {"environment": environment(args), "metrics": report,
              "failed_frac": failed / attempted if attempted else 1.0,
              "wall_steps_per_s": _wall_throughput(rounds),
              "pace_samples": len(pace.seconds),
              "problems": problems[:MAX_PROBLEMS], "problem_count": len(problems)}
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=2, sort_keys=True) + "\n")
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in report.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
