"""Timing wrappers the benchmark installs around the program's public calls.

Two recorders live here:

* :class:`SampleTimer` times every monitoring period (``ZeroSum.take_sample``)
  for the end-to-end per-sample metrics.  It is the only wrapper present in
  an untraced run.  Sharded jobs sample inside forked kernel workers, so a
  worker appends its timings to a per-process file that the orchestrating
  process reads back after the run.
* :class:`Tracer` records a span per call into each pipeline layer (name,
  start, end, parent) for the traced run.  Spans are attributed to their
  layer by *self time*: a span's duration minus the time its child spans
  cover.  Calls made inside forked workers are passed straight through.

Both patch functions and methods in place and restore them on ``uninstall``.
"""

from __future__ import annotations

import array
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

_clock = time.perf_counter
_thread_clock = time.thread_time


def _bindings(fn):
    """Every (namespace, attribute) in the ``repro`` package bound to ``fn``.

    A function re-exported by a package ``__init__`` or imported by name
    into another module has one binding per importer; all are patched so
    that every caller goes through the wrapper.
    """
    found = []
    for modname, module in list(sys.modules.items()):
        if module is None or not modname.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is fn:
                found.append((module, attr))
    return found


class _Patches:
    """Installed wrappers, restorable in reverse order."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def method(self, cls, attr: str, make) -> None:
        original = cls.__dict__[attr]
        setattr(cls, attr, make(original))
        self._undo.append((cls, attr, original))

    def function(self, fn, make) -> None:
        wrapped = make(fn)
        for owner, attr in _bindings(fn):
            setattr(owner, attr, wrapped)
            self._undo.append((owner, attr, fn))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


class SampleTimer:
    """Wall and thread-CPU time of every ``ZeroSum.take_sample`` call."""

    def __init__(self, spool_dir: Path):
        self.spool_dir = Path(spool_dir)
        self.pid = os.getpid()
        self.wall = array.array("d")
        self.cpu = array.array("d")
        self._fds: dict[int, int] = {}
        self._patches = _Patches()

    def install(self) -> None:
        from repro.core.monitor import ZeroSum

        timer = self

        def make(original):
            def take_sample(monitor):
                c0 = _thread_clock()
                t0 = _clock()
                original(monitor)
                timer._record(_clock() - t0, _thread_clock() - c0)

            return take_sample

        self._patches.method(ZeroSum, "take_sample", make)

    def uninstall(self) -> None:
        self._patches.restore()

    def _record(self, wall: float, cpu: float) -> None:
        pid = os.getpid()
        if pid == self.pid:
            self.wall.append(wall)
            self.cpu.append(cpu)
            return
        # inside a forked worker: one 16-byte O_APPEND write per sample
        fd = self._fds.get(pid)
        if fd is None:
            fd = os.open(
                self.spool_dir / f"samples-{pid}.bin",
                os.O_WRONLY | os.O_CREAT | os.O_APPEND,
                0o644,
            )
            self._fds[pid] = fd
        os.write(fd, array.array("d", (wall, cpu)).tobytes())

    def collect_spool(self) -> None:
        """Fold the timings written by finished workers into this process."""
        for path in sorted(self.spool_dir.glob("samples-*.bin")):
            pairs = array.array("d")
            pairs.frombytes(path.read_bytes())
            self.wall.extend(pairs[0::2])
            self.cpu.extend(pairs[1::2])
            path.unlink()

    def take(self) -> tuple[list[float], list[float]]:
        """Timings recorded since the last call, then reset."""
        self.collect_spool()
        wall, cpu = list(self.wall), list(self.cpu)
        self.wall = array.array("d")
        self.cpu = array.array("d")
        return wall, cpu


class Tracer:
    """In-memory span recorder over the program's layer entry points."""

    def __init__(self):
        self.pid = os.getpid()
        self._patches = _Patches()
        self._stack: list[list] = []  # [span id, child time]
        self._next_id = 0
        #: spans of the latest traced round: (id, parent, name, start, end)
        self.spans: list[tuple[int, int, str, float, float]] = []
        #: per-name totals over every traced round
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)

    # -- recording ------------------------------------------------------
    def _enter(self) -> int:
        span_id = self._next_id
        self._next_id += 1
        self._stack.append([span_id, 0.0])
        return span_id

    def _exit(self, name: str, start: float, end: float) -> None:
        span_id, child = self._stack.pop()
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[1] += duration
        self.spans.append(
            (span_id, parent[0] if parent else -1, name, start, end)
        )
        self.self_s[name] += duration - child
        self.total_s[name] += duration
        self.calls[name] += 1

    @contextmanager
    def span(self, name: str):
        """A span around the benchmark's own call into a layer."""
        self._enter()
        start = _clock()
        try:
            yield
        finally:
            self._exit(name, start, _clock())

    def _wrap(self, name: str, count=None):
        tracer = self

        def make(original):
            def traced(*args, **kwargs):
                if os.getpid() != tracer.pid:
                    return original(*args, **kwargs)
                tracer._enter()
                start = _clock()
                try:
                    result = original(*args, **kwargs)
                finally:
                    tracer._exit(name, start, _clock())
                if count is not None:
                    tracer.counts[count] += len(result)
                return result

            return traced

        return make

    def _count_calls(self, counter: str):
        """A counter without a span, for calls too small to time."""
        tracer = self

        def make(original):
            def counted(*args, **kwargs):
                if os.getpid() == tracer.pid:
                    tracer.counts[counter] += 1
                return original(*args, **kwargs)

            return counted

        return make

    def _journal(self, checkpointing: bool | None):
        """``JournalWriter`` entry point, named after what it wrote.

        ``checkpointing=None`` (``record_period``) decides per call, by
        whether ``checkpoints_written`` advanced.  A checkpoint counts the
        file's whole size as bytes written, an append its growth.
        """
        tracer = self

        def make(original):
            def traced(writer, *args, **kwargs):
                if os.getpid() != tracer.pid:
                    return original(writer, *args, **kwargs)
                before_ckpt = writer.checkpoints_written
                before_size = _size(writer.path)
                tracer._enter()
                start = _clock()
                try:
                    return original(writer, *args, **kwargs)
                finally:
                    end = _clock()
                    wrote_ckpt = (
                        writer.checkpoints_written > before_ckpt
                        if checkpointing is None
                        else checkpointing
                    )
                    name = "journal.checkpoint" if wrote_ckpt else "journal.append"
                    tracer._exit(name, start, end)
                    size = _size(writer.path)
                    tracer.counts["journal.bytes"] += (
                        size if wrote_ckpt else max(0, size - before_size)
                    )

            return traced

        return make

    # -- installation ---------------------------------------------------
    def install(self) -> None:
        from repro.collect import (
            CollectionEngine,
            GpuCollector,
            JournalWriter,
            RealProc,
            SampleStore,
        )
        from repro.collect import journal as journal_mod
        from repro.core import advisor, contention, reports
        from repro.detect import OnlineDetector
        from repro.launch import slurm
        from repro.launch.job import JobStep
        from repro.launch.sharded import ShardedJobStep
        from repro.procfs import ProcFS

        from repro.core.monitor import ZeroSum

        self.spans = []
        p = self._patches
        p.method(ZeroSum, "take_sample", self._wrap("monitor"))
        p.function(slurm.assign_tasks, self._wrap("topology"))
        p.method(JobStep, "run", self._wrap("kernel"))
        p.method(ShardedJobStep, "run", self._wrap("sharded.run"))
        for attr in ("read", "read_tasks_raw", "read_cpu_times_raw", "listdir"):
            p.method(ProcFS, attr, self._wrap("procfs"))
        for attr in ("read", "listdir"):
            p.method(RealProc, attr, self._wrap("procfs"))
        p.method(CollectionEngine, "sample", self._wrap("collect.sample"))
        p.method(CollectionEngine, "commit", self._wrap("collect.commit"))
        p.method(SampleStore, "add_lwp_row", self._count_calls("collect.lwp_rows"))
        p.method(SampleStore, "add_hwt_row", self._count_calls("collect.hwt_rows"))
        p.method(GpuCollector, "collect", self._wrap("gpu"))
        p.method(OnlineDetector, "observe", self._wrap("detect", "detect.alerts"))
        p.method(JournalWriter, "record_period", self._journal(None))
        for attr in ("open", "close"):
            p.method(JournalWriter, attr, self._journal(True))
        for attr in ("alert", "note", "update_meta"):
            p.method(JournalWriter, attr, self._journal(False))
        p.function(journal_mod.read_journal, self._wrap("recover.read"))
        p.function(journal_mod.recover_journal, self._wrap("recover.replay"))
        p.function(reports.build_report, self._wrap("report.build"))
        p.function(contention.analyze, self._wrap("report.analyze"))
        p.function(advisor.advise, self._wrap("report.advise"))

    def uninstall(self) -> None:
        """Restore the program; ``spans`` keeps the round just traced."""
        self._patches.restore()


def _size(path: Path) -> int:
    try:
        return os.stat(path).st_size
    except FileNotFoundError:
        return 0


def write_spans(path: Path, spans) -> None:
    """One ``id,parent,name,start,end`` line per span."""
    with open(path, "w") as out:
        out.write("id,parent,name,start_s,end_s\n")
        for span_id, parent, name, start, end in spans:
            out.write(f"{span_id},{parent},{name},{start:.9f},{end:.9f}\n")
