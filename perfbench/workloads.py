"""The benchmark's three workloads, driven through the program's public API.

Each workload builds its inputs from ``--seed``, runs whole rounds of the
same operations, and checks every round's outputs against values computed
here, apart from the program (placement rules, message counts, a second
rendering of the same report), never against a stored copy of its output.

* ``listing2_journal`` — the paper's Listing 2 run (miniQMC with GPU
  offload, 8 ranks on one Frontier node) on the serial kernel, with every
  collector, online detection and one spill journal path shared by all
  ranks, as a user sets it in one config.  Operations: "recover rank r"
  for r in 0..7.
* ``pic64_sharded`` — the Figure 5 PIC proxy, 64 ranks over four 16-core
  nodes, point-to-point only, on two self-healing kernel workers.
  Operations: one completion per rank.
* ``live32_journal`` — the live monitor over this process's own ``/proc``
  with 32 parked threads, detection and a journal, driven by a closed loop
  of ``sample_once()`` calls.  Operations: one per call.
"""

from __future__ import annotations

import os
import resource
import shutil
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

_clock = time.perf_counter

LISTING2_CMD = (
    "OMP_PROC_BIND=spread OMP_PLACES=cores OMP_NUM_THREADS=4 "
    "srun -n8 --gpus-per-task=1 --cpus-per-task=7 --gpu-bind=closest "
    "--threads-per-core=1 zerosum-mpi miniqmc"
)
#: contention findings that 4 threads on 7 disjoint cores per rank must
#: never raise, post hoc or online
FORBIDDEN_FINDINGS = ("oversubscription", "time-slicing", "affinity-overlap")


def _cpu_split() -> tuple[float, float]:
    """User + system CPU of this process, and of its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime, kids.ru_utime + kids.ru_stime


def cpu_now() -> float:
    return sum(_cpu_split())


@dataclass
class RoundResult:
    """What one round measured and what its checks found."""

    run_s: float
    cpu_s: float
    #: wall seconds in which the round's monitoring periods were taken
    sampling_s: float
    attempted: int
    failed: int
    errors: list[str] = field(default_factory=list)
    #: per-sample (wall, thread CPU) seconds, when the workload times
    #: samples itself rather than through the SampleTimer
    sample_wall: list[float] = field(default_factory=list)
    sample_cpu: list[float] = field(default_factory=list)
    #: per-layer quantities the round knows directly (counts, rusage)
    layer: dict[str, float] = field(default_factory=dict)


class Workload:
    """Common plumbing: a scratch directory and an optional tracer."""

    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = Path(workdir)

    def fresh_dir(self, leaf: str) -> Path:
        path = self.workdir / leaf
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path

    @staticmethod
    def span(tracer, name: str):
        return tracer.span(name) if tracer is not None else nullcontext()

    # the set-up probe runs in a fresh interpreter: build everything up
    # to the first tick (or first sample), then tear it down again
    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        raise NotImplementedError

    def round(self, tracer=None) -> RoundResult:
        raise NotImplementedError

    def close(self) -> None:
        """Release what the workload holds across rounds."""


# ---------------------------------------------------------------------------
# listing2_journal
# ---------------------------------------------------------------------------
def spread_cores(allowed: list[int], threads: int) -> list[int]:
    """OpenMP ``spread`` over ``cores`` places: thread i's core.

    The places are split into ``threads`` consecutive sub-partitions whose
    sizes differ by at most one (the larger ones first); each thread sits on
    the first place of its own sub-partition.
    """
    places = sorted(allowed)
    base, extra = divmod(len(places), threads)
    cores, start = [], 0
    for i in range(threads):
        cores.append(places[start])
        start += base + (1 if i < extra else 0)
    return cores


def frontier_rank_cores(rank: int, cpus_per_task: int = 7) -> list[int]:
    """Cores of one rank on a low-noise Frontier node: core 0 of every
    8-core L3 region is reserved, one region per rank."""
    return [8 * rank + 1 + i for i in range(cpus_per_task)]


def check_listing2(reports, findings, alert_codes, expect) -> list[str]:
    """Rank 0's placement, idle cores and GPU range; clean contention.

    ``reports``/``findings`` are per-rank report and findings objects,
    ``alert_codes`` per-rank sets of online alert codes, ``expect`` a dict
    with ``allowed``, ``main``, ``omp`` and ``idle`` for rank 0.
    """
    errors = []
    r0 = reports[0]
    if sorted(r0.cpus_allowed) != expect["allowed"]:
        errors.append(f"rank 0 allowed {r0.cpus_allowed} != {expect['allowed']}")
    kinds = [(row.kind.split(", "), row) for row in r0.lwp_rows]
    main = [list(row.cpus) for kind, row in kinds if "Main" in kind]
    if main != [[expect["main"]]]:
        errors.append(f"rank 0 Main on {main}, expected [[{expect['main']}]]")
    omp = sorted(
        core for kind, row in kinds if kind == ["OpenMP"] for core in row.cpus
    )
    if omp != expect["omp"]:
        errors.append(f"rank 0 OpenMP on {omp}, expected {expect['omp']}")
    idle = {row.cpu: row.idle_pct for row in r0.hwt_rows}
    for core in expect["idle"]:
        if not idle.get(core, 0.0) > 95.0:
            errors.append(f"rank 0 core {core} idle {idle.get(core)} <= 95 %")
    busy = [s for s in r0.gpu_stats.get(0, []) if s.label == "Device Busy %"]
    if not busy or not (busy[0].minimum < 5.0 and busy[0].maximum > 20.0):
        errors.append(f"rank 0 GPU Device Busy % out of range: {busy}")
    for rank, (found, alerts) in enumerate(zip(findings, alert_codes)):
        bad = {f.code for f in found.findings} | set(alerts)
        bad &= set(FORBIDDEN_FINDINGS)
        if bad:
            errors.append(f"rank {rank} raised {sorted(bad)}")
    return errors


def recovered_ranks(rank_renders: list[str], recovered: list[str]) -> list[int]:
    """Ranks whose report one of the recovered journals renders exactly."""
    return [r for r, text in enumerate(rank_renders) if text in recovered]


class Listing2Journal(Workload):
    name = "listing2_journal"
    ranks = 8

    def __init__(self, seed: int, workdir: Path, blocks: int = 60, **overrides):
        super().__init__(seed, workdir)
        self.blocks = blocks
        #: ``ZeroSumConfig`` fields set over the benchmark's own (the
        #: reference runs turn the journal's fsync, or the journal, off)
        self.overrides = overrides
        allowed = frontier_rank_cores(0)
        cores = spread_cores(allowed, 4)
        self.expect = {
            "allowed": allowed,
            "main": cores[0],
            "omp": sorted(cores[1:]),
            "idle": sorted(set(allowed) - set(cores)),
        }

    def launch(self, tracer, journal_dir: Path):
        from repro.apps import MiniQmcConfig, miniqmc_app
        from repro.core import ZeroSumConfig, zerosum_mpi
        from repro.launch import SrunOptions, launch_job
        from repro.topology import frontier_node

        with self.span(tracer, "topology"):
            machines = [frontier_node()]
        config = ZeroSumConfig(**{
            "detect_online": True,
            "journal_path": str(journal_dir / "listing2.zsj"),
            **self.overrides,
        })
        app = miniqmc_app(
            MiniQmcConfig(
                blocks=self.blocks,
                block_jiffies=100.0,
                jitter=0.01,
                seed=self.seed,
                offload=True,
            )
        )
        with self.span(tracer, "launch"):
            return launch_job(
                machines,
                SrunOptions.parse(LISTING2_CMD),
                app,
                monitor_factory=zerosum_mpi(config),
            )

    def setup(self) -> None:
        self._step = self.launch(None, self.fresh_dir("probe-listing2"))

    def teardown(self) -> None:
        self._step = None

    def results(self, step):
        """Run a launched step to its end and render every rank's report,
        findings and advice; returns the end of sampling, the reports,
        their renders and the findings."""
        step.run(max_ticks=50_000_000)
        step.finalize()
        sampled = _clock()
        reports = [step.report(r) for r in range(self.ranks)]
        renders = [rep.render() for rep in reports]
        findings = [step.findings(r) for r in range(self.ranks)]
        for found in findings:
            found.render()
        for r in range(self.ranks):
            step.advice(r).render()
        return sampled, reports, renders, findings

    def round(self, tracer=None) -> RoundResult:
        import repro.collect as collect

        journal_dir = self.fresh_dir("listing2")
        step = self.launch(tracer, journal_dir)
        cpu0 = cpu_now()
        t0 = _clock()
        t1, reports, renders, findings = self.results(step)
        t2 = _clock()
        # "recover rank r": every journal the run left behind is recovered
        # and rendered; rank r succeeds if one of them is its report
        recovered = []
        for path in sorted(journal_dir.iterdir()):
            run = collect.recover_journal(path)
            with self.span(tracer, "recover.report"):
                recovered.append(run.report().render())
        cpu1 = cpu_now()
        ok = recovered_ranks(renders, recovered)
        matrix = step.comm_matrix()
        self.observed = {
            "reports": reports,
            "findings": findings,
            "alert_codes": [
                set(m.store.alerts.counts) if m.store.alerts is not None
                else set()
                for m in step.monitors
            ],
            "expect": self.expect,
        }
        return RoundResult(
            run_s=t2 - t0,
            cpu_s=cpu1 - cpu0,
            sampling_s=t1 - t0,
            attempted=self.ranks,
            failed=self.ranks - len(ok),
            errors=check_listing2(**self.observed),
            layer={
                "kernel.ticks": float(step.ticks_run),
                "mpi.messages": float(matrix.messages.sum()),
                "mpi.bytes": float(matrix.bytes.sum()),
            },
        )


# ---------------------------------------------------------------------------
# pic64_sharded
# ---------------------------------------------------------------------------
def expected_p2p(config, size: int):
    """P2P bytes and message matrices implied by a ``PicConfig``.

    Every step sends ``halo_bytes`` to both ring neighbours; every
    ``shift_every``-th step sends ``shift_bytes`` to rank + distance.
    """
    import numpy as np

    nbytes = np.zeros((size, size))
    messages = np.zeros((size, size))
    shifts = config.steps // config.shift_every if config.shift_every else 0
    for rank in range(size):
        for peer in ((rank + 1) % size, (rank - 1) % size):
            nbytes[rank, peer] += config.steps * config.halo_bytes
            messages[rank, peer] += config.steps
        far = (rank + config.shift_distance) % size
        if shifts and far != rank:
            nbytes[rank, far] += shifts * config.shift_bytes
            messages[rank, far] += shifts
    return nbytes, messages


def check_pic(matrix, expected, degradations, ticks_run, main_cpu, min_ticks):
    """Exact P2P matrices, no worker loss, and a run that reached its end.

    ``main_cpu`` maps rank to its main thread's utime + stime in ticks.
    """
    import numpy as np

    errors = []
    nbytes, messages = expected
    if not np.array_equal(matrix.bytes, nbytes):
        bad = np.argwhere(matrix.bytes != nbytes)
        errors.append(f"P2P bytes differ at {len(bad)} cells, first {bad[0]}")
    if not np.array_equal(matrix.messages, messages):
        bad = np.argwhere(matrix.messages != messages)
        errors.append(f"P2P messages differ at {len(bad)} cells, first {bad[0]}")
    if degradations:
        errors.append(f"degradations: {[str(e) for e in degradations]}")
    if ticks_run < min_ticks:
        errors.append(f"ticks_run {ticks_run} < {min_ticks}")
    short = {r: c for r, c in main_cpu.items() if c < min_ticks}
    if short:
        errors.append(f"main threads short of {min_ticks} ticks: {short}")
    return errors


class Pic64Sharded(Workload):
    name = "pic64_sharded"
    world = 64
    nodes = 4

    def __init__(self, seed: int, workdir: Path, steps: int = 60,
                 workers: int = 2, self_heal: bool = True):
        super().__init__(seed, workdir)
        from repro.apps import PicConfig

        # the reference runs also time the serial kernel and no self-healing
        self.workers = workers
        self.recovery = {} if self_heal else {"recovery": None}

        # the seed moves the particle-shift band; the byte total is fixed
        self.config = PicConfig(
            steps=steps,
            shift_distance=6 + seed % 5,
            reduce_every=0,
            step_jiffies=100.0,
        )
        self.expected = expected_p2p(self.config, self.world)

    def launch(self, tracer=None):
        from repro.apps import pic_app
        from repro.core import ZeroSumConfig, zerosum_mpi
        from repro.launch import SrunOptions, launch_job
        from repro.mpi import Fabric
        from repro.topology import generic_node

        with self.span(tracer, "topology"):
            machines = [
                generic_node(cores=16, name=f"node{i:02d}")
                for i in range(self.nodes)
            ]
        with self.span(tracer, "launch"):
            return launch_job(
                machines,
                SrunOptions(ntasks=self.world, command="pic"),
                pic_app(self.config),
                monitor_factory=zerosum_mpi(
                    ZeroSumConfig(collect_hwt=False, collect_gpu=False)
                ),
                # a long lookahead keeps epochs long and barriers cheap
                fabric=Fabric(remote_latency=128),
                workers=self.workers,
                **self.recovery,
            )

    def setup(self) -> None:
        self._step = self.launch()

    def teardown(self) -> None:
        self._step.close()

    def results(self, step, tracer=None):
        """Run a launched step to its end, then read every rank's report,
        findings and advice and the P2P matrix; returns the end of
        sampling and the matrix."""
        step.run(max_ticks=5_000_000)
        step.finalize()
        sampled = _clock()
        with self.span(tracer, "sharded.results"):
            for r in range(self.world):
                step.report(r).render()
                step.findings(r).render()
                step.advice(r).render()
            matrix = step.comm_matrix()
        return sampled, matrix

    def round(self, tracer=None) -> RoundResult:
        self_cpu0, kids_cpu0 = _cpu_split()
        step = self.launch(tracer)
        try:
            cpu0 = cpu_now()
            t0 = _clock()
            t1, matrix = self.results(step, tracer)
            t2 = _clock()
            cpu1 = cpu_now()
        finally:
            step.close()
        self_cpu1, kids_cpu1 = _cpu_split()
        main_cpu = {}
        for r, result in step.rank_results.items():
            series = result.store.lwp_series[result.pid]
            main_cpu[r] = series.last("utime") + series.last("stime")
        self.observed = {
            "matrix": matrix,
            "expected": self.expected,
            "degradations": step.degradations,
            "ticks_run": step.ticks_run,
            "main_cpu": main_cpu,
            "min_ticks": self.config.steps * self.config.step_jiffies,
        }
        return RoundResult(
            run_s=t2 - t0,
            cpu_s=cpu1 - cpu0,
            sampling_s=t1 - t0,
            attempted=self.world,
            failed=min(self.world, len(step.degradations)),
            errors=check_pic(**self.observed),
            layer={
                "sharded.epochs": float(step.epochs_run),
                "sharded.parent_cpu_s": self_cpu1 - self_cpu0,
                "sharded.workers_cpu_s": kids_cpu1 - kids_cpu0,
                "mpi.messages": float(matrix.messages.sum()),
                "mpi.bytes": float(matrix.bytes.sum()),
            },
        )


# ---------------------------------------------------------------------------
# live32_journal
# ---------------------------------------------------------------------------
def check_live(live_render, recovered_render, max_sample_s, table_tids,
               tids_at_stop, samples_taken, calls) -> list[str]:
    """Recovered report == live report; every thread seen; no lost sample."""
    errors = []
    live_lines = live_render.splitlines()
    rec_lines = recovered_render.splitlines()
    if len(live_lines) != len(rec_lines):
        errors.append(
            f"recovered report has {len(rec_lines)} lines, live {len(live_lines)}"
        )
    for live, rec in zip(live_lines, rec_lines):
        if live == rec:
            continue
        prefix = "Duration of execution:"
        if live.startswith(prefix) and rec.startswith(prefix):
            a = float(live[len(prefix):].split()[0])
            b = float(rec[len(prefix):].split()[0])
            if abs(a - b) <= max_sample_s + 0.0005:  # rendered to 1 ms
                continue
        errors.append(f"recovered line {rec!r} != live {live!r}")
    missing = sorted(set(tids_at_stop) - set(table_tids))
    if missing:
        errors.append(f"threads missing from the LWP table: {missing}")
    if samples_taken != calls + 1:
        errors.append(f"samples_taken {samples_taken} != {calls} calls + 1")
    return errors


class Live32Journal(Workload):
    name = "live32_journal"
    parked = 32

    def __init__(self, seed: int, workdir: Path, samples: int = 1000):
        super().__init__(seed, workdir)
        self.samples = samples
        # the application: threads that never run, parked on one event;
        # the seed only names them
        self._release = threading.Event()
        self._threads = [
            threading.Thread(
                target=self._release.wait,
                name=f"parked-{seed}-{i}",
                daemon=True,
            )
            for i in range(self.parked)
        ]
        for thread in self._threads:
            thread.start()

    def monitor_config(self, path: Path):
        from repro.core import ZeroSumConfig

        # a period far longer than a round: only sample_once() samples
        return ZeroSumConfig(
            period_seconds=3600.0, detect_online=True, journal_path=str(path)
        )

    def setup(self) -> None:
        from repro.live import LiveZeroSum

        path = self.fresh_dir("probe-live") / "live.zsj"
        self._monitor = LiveZeroSum(self.monitor_config(path))
        self._monitor.start()

    def teardown(self) -> None:
        self._monitor.stop()

    def round(self, tracer=None) -> RoundResult:
        import repro.collect as collect
        from repro.live import LiveZeroSum

        path = self.fresh_dir("live") / "live.zsj"
        with self.span(tracer, "live.start"):
            monitor = LiveZeroSum(self.monitor_config(path))
            monitor.start()
        stopped = False
        try:
            wall, cpu = [], []
            thread_time = time.thread_time
            cpu0 = cpu_now()
            t0 = _clock()
            for _ in range(self.samples):
                c = thread_time()
                s = _clock()
                monitor.sample_once()
                e = _clock()
                cpu.append(thread_time() - c)
                wall.append(e - s)
            t1 = _clock()
            with self.span(tracer, "live.stop"):
                monitor.stop()
            stopped = True
            with self.span(tracer, "report.build"):
                live_report = monitor.report()
                live_render = live_report.render()
            t2 = _clock()
            tids_at_stop = [int(t) for t in os.listdir("/proc/self/task")]
            run = collect.recover_journal(path)
            with self.span(tracer, "recover.report"):
                recovered_render = run.report().render()
            cpu1 = cpu_now()
        finally:
            if not stopped:
                monitor.stop()
        ledger = monitor.store.ledger
        self.observed = {
            "live_render": live_render,
            "recovered_render": recovered_render,
            "max_sample_s": max(wall),
            "table_tids": [row.tid for row in live_report.lwp_rows],
            "tids_at_stop": tids_at_stop,
            "samples_taken": monitor.samples_taken,
            "calls": self.samples,
        }
        errors = check_live(**self.observed)
        if run.torn_records:
            errors.append(f"recovery found {run.torn_records} torn records")
        return RoundResult(
            run_s=t2 - t0,
            cpu_s=cpu1 - cpu0,
            sampling_s=t1 - t0,
            attempted=self.samples,
            failed=min(self.samples, sum(ledger.failed_periods.values())),
            errors=errors,
            sample_wall=wall,
            sample_cpu=cpu,
        )

    def close(self) -> None:
        self._release.set()
        for thread in self._threads:
            thread.join(timeout=5.0)


WORKLOADS = {
    cls.name: cls for cls in (Listing2Journal, Pic64Sharded, Live32Journal)
}
