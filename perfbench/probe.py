"""Set-up probe: one fresh interpreter from start to the first tick.

Run by ``run.py`` as ``python3 perfbench/probe.py <workload> <seed> <dir>``.
It pays what a user of ``zerosum-sim`` pays before anything is simulated or
sampled — ``import repro.cli``, the machine topology, and ``launch_job`` or
``LiveZeroSum(...)`` plus ``start()`` — then prints ``time.perf_counter()``
(the system-wide monotonic clock, so the parent can subtract the instant it
spawned this process) and tears the world down again.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import repro.cli  # noqa: E402,F401  (the import every CLI invocation pays)
import workloads  # noqa: E402


def main() -> int:
    name, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    workload = workloads.WORKLOADS[name](seed, workdir)
    workload.setup()
    ready = time.perf_counter()
    workload.teardown()
    workload.close()
    print(repr(ready), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
