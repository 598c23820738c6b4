"""Reference figures for the benchmark README, measured on the host at hand.

Usage (from the repository root)::

    python3 perfbench/reference.py [--repeat 3]

Times the configurations next to each workload that explain its numbers:
``listing2_journal`` at 150 blocks with the journal fsynced, unfsynced and
off; ``pic64_sharded`` at 150 steps on 2 self-healing workers, serially and
on 2 workers without self-healing; ``live32_journal``'s slowest sample and
journal size as the run grows; and the import breakdown of ``repro.cli``.
Each configuration is the workload's own, built by its class in
``workloads.py`` with one setting changed; each timing is the median of
``--repeat`` runs, from ``launch_job`` to the last report, findings and
advice rendered.
"""

from __future__ import annotations

import argparse
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run as bench  # noqa: E402
import workloads  # noqa: E402


def _timed(fn, repeat: int) -> float:
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def listing2(workdir: Path, journal: str) -> None:
    """The ``listing2_journal`` round at 150 blocks, fsync on or off, or
    without a journal."""
    overrides = {
        "fsync": {},
        "nofsync": {"journal_fsync": False},
        "off": {"journal_path": None},
    }[journal]
    workload = workloads.Listing2Journal(seed=1, workdir=workdir, blocks=150,
                                         **overrides)
    workload.results(workload.launch(None, workload.fresh_dir("listing2")))


def pic64(workdir: Path, workers: int, self_heal: bool) -> None:
    """The ``pic64_sharded`` round at 150 steps on ``workers`` workers."""
    workload = workloads.Pic64Sharded(seed=1, workdir=workdir, steps=150,
                                      workers=workers, self_heal=self_heal)
    step = workload.launch()
    try:
        workload.results(step)
    finally:
        if workers > 1:  # the serial step has no worker pool to shut down
            step.close()


def live_growth(workdir: Path, checkpoints=(1000, 2000, 4000)) -> None:
    from repro.live import LiveZeroSum

    live = workloads.Live32Journal(seed=1, workdir=workdir, samples=0)
    path = live.fresh_dir("growth") / "live.zsj"
    monitor = LiveZeroSum(live.monitor_config(path))
    monitor.start()
    slowest, taken = 0.0, 0
    try:
        for upto in checkpoints:
            start = time.perf_counter()
            stretch = upto - taken
            while taken < upto:
                t0 = time.perf_counter()
                monitor.sample_once()
                slowest = max(slowest, time.perf_counter() - t0)
                taken += 1
            rate = stretch / (time.perf_counter() - start)
            print(f"  live32_journal {upto:5d} samples: slowest sample "
                  f"{slowest * 1e3:6.1f} ms, journal "
                  f"{os.path.getsize(path) / 1e6:5.1f} MB, "
                  f"{rate:5.1f} samples/s since the previous line", flush=True)
    finally:
        monitor.stop()
        live.close()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args(argv)
    workdir = ROOT / ".perfbench_work" / f"reference-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        print("import repro.cli:", {
            k: round(v, 3) for k, v in bench.import_breakdown().items()
        }, flush=True)
        for journal in ("fsync", "nofsync", "off"):
            seconds = _timed(lambda: listing2(workdir, journal), args.repeat)
            print(f"  listing2_journal 150 blocks, journal {journal:7s}: "
                  f"{seconds:5.2f} s", flush=True)
        for label, workers, heal in (("2 workers, self-healing", 2, True),
                                     ("serial", 1, False),
                                     ("2 workers, no self-healing", 2, False)):
            seconds = _timed(lambda: pic64(workdir, workers, heal),
                             args.repeat)
            print(f"  pic64_sharded 150 steps, {label:26s}: {seconds:5.2f} s",
                  flush=True)
        live_growth(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
