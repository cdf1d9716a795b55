"""Set-up probe: a fresh process that does one workload's set-up and exits.

    python3 bench/probe.py WORKLOAD SEED SIZE

Imports what the workload's entry point needs, builds the data, model or
first gradient set, and prints the monotonic clock at that moment (the
time its first step could start), the time the pace samples took and the
factor that rescales this process's time to the reference pace of the
``loop`` kernel (``pace.py``): set-up is imports and small work, whatever
the workload. ``run.py`` subtracts the clock reading it took just before
starting this process.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from pace import Pace  # noqa: E402


def main() -> None:
    name, seed, size = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    born = time.perf_counter()
    with Pace() as pace:
        import workloads

        table = workloads.TINY if size == "tiny" else workloads.WORKLOADS
        table[name].setup(seed)
        end = time.perf_counter()
    print(end, sum(pace.seconds), pace.factor(born, end))


if __name__ == "__main__":
    main()
