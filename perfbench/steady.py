"""Steadiness check: do two sets of runs of one commit agree within bounds?

Usage (from the repository root)::

    python3 perfbench/steady.py --runs 10 [--sets 2] [--workload NAME ...]
        [--seconds S] [--first-seed N]

Runs ``perfbench/run.py`` as a comparison of two commits would: one fresh
process per run and a new ``--seed`` for every run (set *k*'s run *i* uses
seed ``first_seed + k * runs + i``).  The sets and the workloads are
alternated run by run — pass *i* runs every workload once per set, the
workload order rotating every pass and the set order flipping — so slow
drift of the host lands on every set and workload alike.

For every set, workload and end-to-end metric it prints the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread
(interquartile distance over the median).  A spread is flagged when it
exceeds a third of the metric's bound in ``BENCHMARK.json``; ``setup_s``'s
spread only past its full bound, since set-up is held by its median.  With
two or more sets, every later set's median is compared with the first's:
it is flagged when it is worse by more than the bound, and the failed
share of every set must equal the first's exactly.  The exit code is 1
when anything is flagged.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int, trace: int = 0) -> dict:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=600,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(
            f"{workload} seed {seed} exited {done.returncode}:\n"
            f"{done.stdout[-2000:]}\n{done.stderr[-2000:]}"
        )
    return json.loads(lines[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """Median, first and third quartile, and their distance over the median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def worse_by(first: float, later: float, better: str) -> float:
    """How much worse ``later`` is than ``first``, as a share of ``first``."""
    change = (later - first) / first
    return change if better == "lower" else -change


def report(spec: dict, names: list[str], sets: list[dict]) -> int:
    """Print each set's spreads and the sets' median drift; count flags."""
    flagged = 0
    for name in names:
        print(f"\n{name}")
        for k, results in enumerate(sets):
            runs = results[name]
            shares = sorted({r["failed"] / r["attempted"] for r in runs})
            print(f"  set {k + 1}: {len(runs)} runs, failed share {shares}, "
                  f"all correct: {all(r['correct'] for r in runs)}")
            if len(shares) != 1 or not all(r["correct"] for r in runs):
                print("    <-- failed share varies or a run is incorrect")
                flagged += 1
            elif k and shares != sorted({
                r["failed"] / r["attempted"] for r in sets[0][name]
            }):
                print("    <-- failed share differs from set 1")
                flagged += 1
        print(f"  {'metric':18s} {'set':>3s} {'median':>12s} {'q1':>12s} "
              f"{'q3':>12s} {'spread':>7s} {'worse':>7s} {'bound':>6s}")
        for metric in spec["end_to_end"]:
            bound = metric["bound"]
            limit = bound if metric["name"] == "setup_s" else bound / 3
            first = None
            for k, results in enumerate(sets):
                values = [
                    r["metrics"][metric["name"]]["value"] for r in results[name]
                ]
                med, q1, q3, share = spread(values)
                notes = []
                if share > limit:
                    notes.append("spread above limit")
                if first is None:
                    first, drift = med, ""
                else:
                    worse = worse_by(first, med, metric["better"])
                    drift = f"{worse:+7.3f}"
                    if worse > bound:
                        notes.append("median worse than set 1 past bound")
                flagged += len(notes)
                label = metric["name"] if k == 0 else ""
                print(f"  {label:18s} {k + 1:3d} {med:12.5g} {q1:12.5g} "
                      f"{q3:12.5g} {share:7.3f} {drift:>7s} {bound:6.2f}"
                      + "".join(f"  <-- {n}" for n in notes))
    return flagged


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10,
                        help="runs per workload in each set")
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--workload", action="append",
                        help="restrict to these workloads (repeatable)")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    names = args.workload or [w["name"] for w in spec["workloads"]]
    sets: list[dict[str, list[dict]]] = [
        {name: [] for name in names} for _ in range(args.sets)
    ]
    for i in range(args.runs):
        order = names[i % len(names):] + names[:i % len(names)]
        set_order = list(range(args.sets))
        if i % 2:
            set_order.reverse()
        for name in order:
            for k in set_order:
                seed = args.first_seed + k * args.runs + i
                result = run_once(name, seed, args.seconds)
                sets[k][name].append(result)
                print(f"run {i + 1}/{args.runs} set {k + 1} {name} seed "
                      f"{seed}: attempted {result['attempted']} failed "
                      f"{result['failed']} correct {result['correct']}",
                      flush=True)
    flagged = report(spec, names, sets)
    print(f"\n{flagged} flagged")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
