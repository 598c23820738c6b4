"""End-to-end benchmark of the ZeroSum reproduction, split by pipeline layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload listing2_journal --seed 1 \
        --seconds 20 --trace 0

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` prints every per-layer metric, from rounds run with timing
wrappers around the program's layer entry points, alternated with untraced
rounds to measure the wrappers' own cost.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: set-up probes (fresh interpreters) per untraced run; the median is kept
SETUP_PROBES = 3
#: sampling period the §4.1 overhead check divides by
PERIOD_S = 1.0


def _median(values):
    return statistics.median(values)


def _p99(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[98]


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def measure_setup(name: str, seed: int, workdir: Path) -> float:
    """Median wall time from spawning a fresh interpreter to its first tick."""
    times = []
    for i in range(SETUP_PROBES):
        probe_dir = workdir / f"probe{i}"
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("probe.py")),
             name, str(seed), str(probe_dir)],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
        times.append(float(done.stdout.split()[-1]) - start)
        shutil.rmtree(probe_dir, ignore_errors=True)
    return _median(times)


def import_breakdown() -> dict[str, float]:
    """``-X importtime`` of ``import repro.cli``, grouped by top package."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import repro.cli"],
        capture_output=True, text=True, timeout=120, cwd=ROOT, env=env,
    )
    if done.returncode != 0:
        raise RuntimeError(f"import probe failed:\n{done.stderr}")
    per_package: dict[str, float] = defaultdict(float)
    for line in done.stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, _cumulative, package = line[len("import time:"):].split("|")
        per_package[package.strip().split(".")[0]] += float(self_us) / 1e6
    return {
        "import.total_s": sum(per_package.values()),
        "import.scipy_s": per_package["scipy"],
        "import.numpy_s": per_package["numpy"],
        "import.repro_s": per_package["repro"],
    }


def run_rounds(workload, timer, seconds: float, tracer=None, traced_every=0):
    """Whole rounds until ``seconds`` have passed; returns (round, traced)."""
    rounds = []
    deadline = time.perf_counter() + seconds
    while not rounds or time.perf_counter() < deadline or (
        traced_every and len(rounds) < 2
    ):
        traced = bool(traced_every) and len(rounds) % traced_every == 1
        # each round starts from a clean heap, as a one-job process does:
        # the previous round's garbage is not collected on its clock
        gc.collect()
        if traced:
            tracer.install()
        try:
            result = workload.round(tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        wall, cpu = timer.take()
        if wall:  # simulated monitors, timed by the SampleTimer
            result.sample_wall, result.sample_cpu = wall, cpu
        rounds.append((result, traced))
    return rounds


def end_to_end(rounds, setup_s: float) -> dict[str, float]:
    """Per-round figures averaged over the run, the first round excepted.

    The first round pays one-off costs (lazy imports, first page faults)
    that the rounds after it do not; it is checked and counted, not timed.
    Means over rounds rather than medians: the host drifts in phases of
    seconds, and the mean of a run's rounds spreads less between runs.
    """
    timed = [r for r, _ in rounds[1:]] or [rounds[0][0]]
    wall = [w for r in timed for w in r.sample_wall]
    cpu = [c for r in timed for c in r.sample_cpu]
    return {
        "setup_s": setup_s,
        "run_s": statistics.fmean(r.run_s for r in timed),
        "cpu_s": statistics.fmean(r.cpu_s for r in timed),
        "peak_rss_mb": _peak_rss_mb(),
        "samples_per_s": (
            sum(len(r.sample_wall) for r in timed)
            / sum(r.sampling_s for r in timed)
        ),
        "sample_p50_ms": _median(wall) * 1e3,
        "overhead_pct_1hz": sum(cpu) / len(cpu) / PERIOD_S * 100.0,
    }


def per_layer(rounds, tracer, imports: dict[str, float]) -> dict[str, float]:
    traced = [r for r, t in rounds if t]
    plain = [r for r, t in rounds if not t]
    n = len(traced)
    own, total, calls, counts = (
        tracer.self_s, tracer.total_s, tracer.calls, tracer.counts
    )
    layer: dict[str, float] = defaultdict(float)
    for r in traced:
        for key, value in r.layer.items():
            layer[key] += value / n
    epochs = layer["sharded.epochs"]
    metrics = dict(imports)
    metrics.update({
        # the tail of the untraced rounds' samples: journal checkpoints
        # (and on a shared host, fsync and preemption) land here
        "monitor.sample_p99_ms": _p99(
            [w for r in plain for w in r.sample_wall]
        ) * 1e3,
        "topology.build_s": own["topology"] / n,
        "launch.world_s": own["launch"] / n,
        "kernel.self_s": own["kernel"] / n,
        "kernel.ticks": layer["kernel.ticks"],
        "kernel.ticks_per_s": (
            layer["kernel.ticks"] * n / own["kernel"] if own["kernel"] else 0.0
        ),
        "monitor.self_s": own["monitor"] / n,
        "procfs.read_s": own["procfs"] / n,
        "procfs.reads": calls["procfs"] / n,
        "collect.sample_self_s": own["collect.sample"] / n,
        "collect.commit_self_s": own["collect.commit"] / n,
        "collect.samples": calls["collect.sample"] / n,
        "collect.lwp_rows": counts["collect.lwp_rows"] / n,
        "collect.hwt_rows": counts["collect.hwt_rows"] / n,
        "gpu.collect_s": own["gpu"] / n,
        "detect.observe_s": own["detect"] / n,
        "detect.alerts": counts["detect.alerts"] / n,
        "journal.period_s": own["journal.append"] / n,
        "journal.checkpoint_s": own["journal.checkpoint"] / n,
        "journal.checkpoints": calls["journal.checkpoint"] / n,
        "journal.bytes": counts["journal.bytes"] / n,
        "recover.read_s": own["recover.read"] / n,
        "recover.replay_s": own["recover.replay"] / n,
        "recover.report_s": own["recover.report"] / n,
        "report.build_s": own["report.build"] / n,
        "report.analyze_s": own["report.analyze"] / n,
        "report.advise_s": own["report.advise"] / n,
        "sharded.run_s": total["sharded.run"] / n,
        "sharded.results_s": total["sharded.results"] / n,
        "sharded.parent_cpu_s": layer["sharded.parent_cpu_s"],
        "sharded.workers_cpu_s": layer["sharded.workers_cpu_s"],
        "sharded.epochs": epochs,
        "sharded.epoch_ms": (
            total["sharded.run"] / n / epochs * 1e3 if epochs else 0.0
        ),
        "mpi.messages": layer["mpi.messages"],
        "mpi.bytes": layer["mpi.bytes"],
        "live.start_s": total["live.start"] / n,
        "live.stop_s": total["live.stop"] / n,
        "trace.overhead_pct": (
            _median([r.run_s for r in traced])
            / _median([r.run_s for r in plain]) - 1.0
        ) * 100.0,
    })
    return metrics


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run(args, workdir: Path) -> dict:
    import repro.cli  # noqa: F401  (what every zerosum-sim invocation pays)
    import spans as tracing
    import workloads

    spec = benchmark_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    names = {w["name"] for w in spec["workloads"]}
    if args.workload not in names:
        raise SystemExit(f"unknown workload {args.workload!r}; one of {sorted(names)}")

    timer = tracing.SampleTimer(workdir)
    timer.install()
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    try:
        if args.trace:
            imports = import_breakdown()
            tracer = tracing.Tracer()
            rounds = run_rounds(workload, timer, args.seconds, tracer, 2)
            metrics = per_layer(rounds, tracer, imports)
            out = ROOT / ".perfbench_out"
            out.mkdir(exist_ok=True)
            tracing.write_spans(out / f"spans-{args.workload}.csv", tracer.spans)
            wanted = spec["per_layer"]
            print(f"tracing overhead: {metrics['trace.overhead_pct']:+.1f} % "
                  f"on run_s (median of traced vs untraced rounds)")
        else:
            setup_s = measure_setup(args.workload, args.seed, workdir)
            rounds = run_rounds(workload, timer, args.seconds)
            metrics = end_to_end(rounds, setup_s)
            wanted = spec["end_to_end"]
    finally:
        workload.close()
        timer.uninstall()

    errors = [e for r, _ in rounds for e in r.errors]
    for error in errors:
        print(f"CHECK FAILED: {error}")
    print(f"{len(rounds)} rounds, {sum(len(r.sample_wall) for r, _ in rounds)} "
          f"samples")
    return {
        "correct": not errors,
        "attempted": sum(r.attempted for r, _ in rounds),
        "failed": sum(r.failed for r, _ in rounds),
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in wanted
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        result = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
