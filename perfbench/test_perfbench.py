"""Self-test of the benchmark at tiny sizes.

Run from the repository root with ``python3 -m pytest perfbench -q``.
Every workload runs one small round to its end with its checks passing,
every check rejects a deliberately wrong expected value, the command prints
the result line it promises, and ``BENCHMARK.json`` is well formed.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("perfbench")


@pytest.fixture(scope="module")
def listing2(workdir):
    workload = workloads.Listing2Journal(seed=3, workdir=workdir, blocks=4)
    result = workload.round()
    return workload, result


@pytest.fixture(scope="module")
def pic(workdir):
    workload = workloads.Pic64Sharded(seed=3, workdir=workdir, steps=4)
    result = workload.round()
    return workload, result


@pytest.fixture(scope="module")
def live(workdir):
    workload = workloads.Live32Journal(seed=3, workdir=workdir, samples=20)
    try:
        result = workload.round()
    finally:
        workload.close()
    return workload, result


# -- each workload runs to its end -------------------------------------------
def test_listing2_round(listing2):
    _, result = listing2
    assert result.errors == []
    # the shared journal path keeps only the last rank's journal
    assert (result.attempted, result.failed) == (8, 7)


def test_pic_round(pic):
    _, result = pic
    assert result.errors == []
    assert (result.attempted, result.failed) == (64, 0)


@pytest.mark.xfail(strict=True, reason=(
    "a rank whose process exits between two periodic samples loses the "
    "CPU it used since the last one: finalize() samples after the exit"
))
def test_pic_short_run_reports_all_main_thread_cpu(workdir):
    # at 3 steps the last periodic sample of 24 ranks lands before their
    # final compute ends; at 4 and at 60 steps it lands after it
    result = workloads.Pic64Sharded(seed=2, workdir=workdir, steps=3).round()
    assert result.errors == []


def test_live_round(live):
    _, result = live
    assert result.errors == []
    assert (result.attempted, result.failed) == (20, 0)
    assert len(result.sample_wall) == 20


# -- independent expectations --------------------------------------------------
def test_spread_places_four_threads_over_seven_cores():
    assert workloads.spread_cores([1, 2, 3, 4, 5, 6, 7], 4) == [1, 3, 5, 7]
    assert workloads.spread_cores(list(range(8)), 4) == [0, 2, 4, 6]


def test_pic_expected_total_at_150_steps():
    from repro.apps import PicConfig

    config = PicConfig(steps=150, shift_distance=8, reduce_every=0)
    nbytes, _ = workloads.expected_p2p(config, 64)
    assert nbytes.sum() == 80_845_209_600


# -- every check rejects a wrong expected value -------------------------------
def _fails(check, observed, **wrong):
    return check(**{**observed, **wrong}) != []


def test_listing2_checks_reject_wrong_values(listing2):
    workload, _ = listing2
    obs = workload.observed
    check = workloads.check_listing2
    assert check(**obs) == []
    expect = obs["expect"]
    assert _fails(check, obs, expect={**expect, "main": 2})
    assert _fails(check, obs, expect={**expect, "omp": [2, 4, 6]})
    assert _fails(check, obs, expect={**expect, "idle": [3]})
    assert _fails(check, obs, expect={**expect, "allowed": list(range(8))})
    alerts = [set() for _ in obs["alert_codes"]]
    alerts[5] = {"time-slicing"}
    assert _fails(check, obs, alert_codes=alerts)
    report = obs["reports"][0]
    flat_gpu = {0: [replace(s, maximum=10.0) for s in report.gpu_stats[0]]}
    reports = [replace(report, gpu_stats=flat_gpu)] + obs["reports"][1:]
    assert _fails(check, obs, reports=reports)


def test_listing2_recovery_matches_exact_render():
    renders = ["rank0 report", "rank1 report"]
    assert workloads.recovered_ranks(renders, ["rank1 report"]) == [1]
    assert workloads.recovered_ranks(renders, ["rank1 report "]) == []


def test_pic_checks_reject_wrong_values(pic):
    workload, _ = pic
    obs = workload.observed
    check = workloads.check_pic
    assert check(**obs) == []
    nbytes, messages = obs["expected"]
    # the particle-shift band moved one rank further out
    shifted = nbytes.copy()
    far = workload.config.shift_distance
    for rank in range(64):
        value = shifted[rank, (rank + far) % 64]
        shifted[rank, (rank + far) % 64] = 0
        shifted[rank, (rank + far + 1) % 64] += value
    assert _fails(check, obs, expected=(shifted, messages))
    assert _fails(check, obs, expected=(nbytes, messages + np.eye(64)))
    assert _fails(check, obs, degradations=["worker 1 lost"])
    assert _fails(check, obs, min_ticks=obs["ticks_run"] + 1)
    short = {**obs["main_cpu"], 7: obs["min_ticks"] - 1}
    assert _fails(check, obs, main_cpu=short)


def test_live_checks_reject_wrong_values(live):
    workload, _ = live
    obs = workload.observed
    check = workloads.check_live
    assert check(**obs) == []
    lines = obs["recovered_render"].splitlines()
    lwp = next(i for i, line in enumerate(lines) if "utime: " in line)
    tampered = lines.copy()
    tampered[lwp] = tampered[lwp].replace("utime: ", "utime: 9", 1)
    assert _fails(check, obs, recovered_render="\n".join(tampered))
    late = [
        "Duration of execution: 99.000 s"
        if line.startswith("Duration of execution:") else line
        for line in lines
    ]
    assert _fails(check, obs, recovered_render="\n".join(late))
    assert _fails(check, obs, recovered_render="\n".join(lines[:-1]))
    assert _fails(check, obs, tids_at_stop=obs["tids_at_stop"] + [1])
    assert _fails(check, obs, samples_taken=obs["calls"])


# -- the command and its declaration ------------------------------------------
def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_is_well_formed():
    spec = _spec()
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    names = [w["name"] for w in spec["workloads"]]
    assert sorted(names) == sorted(workloads.WORKLOADS)
    metrics = spec["end_to_end"] + spec["per_layer"]
    all_names = names + [m["name"] for m in metrics]
    assert len(all_names) == len(set(all_names))
    assert all(NAME.match(name) for name in all_names)
    assert all(UNIT.match(m["unit"]) for m in metrics)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in spec["end_to_end"])}]


@pytest.mark.parametrize("trace", [0, 1])
def test_command_prints_every_metric(trace):
    spec = _spec()
    done = subprocess.run(
        [sys.executable, *spec["command"][1:], "--workload", "pic64_sharded",
         "--seed", "2", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 64 and result["failed"] == 0
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: value["unit"] for name, value in result["metrics"].items()
    }
