"""Run the benchmark several times and print every metric by name.

    python3 perfbench/summary.py --runs 10 --seed 1 --save set1.json
    python3 perfbench/summary.py --runs 1 --trace 1
    python3 perfbench/summary.py --compare set1.json set2.json

Runs go round-robin across the workloads, run i of each workload with seed
`--seed + i`, each for BENCHMARK.json's `run_seconds`.  For each workload and
metric the table shows the unit, median, quartiles, the quartile spread as a
share of the median, the sample count, and attempted and failed operations.
`--compare` prints, for each workload and end-to-end metric, how far the
second set's median sits from the first's, against the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200, check=True)
    lines = done.stdout.strip().splitlines()
    return {"workload": workload, "seed": seed, "trace": trace,
            "environment": json.loads(lines[-2])["environment"], "result": json.loads(lines[-1])}


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def table(runs: list) -> None:
    by_workload: dict = {}
    for r in runs:
        by_workload.setdefault(r["workload"], []).append(r)
    print(f"{'workload':14s} {'metric':34s} {'unit':6s} {'median':>14s} {'q1':>14s} {'q3':>14s} {'iqr/med':>8s} {'n':>3s}")
    for workload, rs in by_workload.items():
        names = list(rs[0]["result"]["metrics"])
        for name in names:
            vals = [r["result"]["metrics"][name]["value"] for r in rs]
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / med if med else float("nan")
            unit = rs[0]["result"]["metrics"][name]["unit"]
            print(f"{workload:14s} {name:34s} {unit:6s} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.2%} {len(vals):3d}")
        att = sum(r["result"]["attempted"] for r in rs)
        fail = sum(r["result"]["failed"] for r in rs)
        ok = all(r["result"]["correct"] for r in rs)
        print(f"{workload:14s} operations: attempted {att}, failed {fail}; all runs correct: {ok}")


def compare(first: list, second: list) -> bool:
    """Second set's median against the first's, per workload and metric."""
    ok = True
    print(f"{'workload':14s} {'metric':12s} {'median 1':>12s} {'median 2':>12s} {'change':>8s} {'bound':>6s}")
    for metric in spec()["end_to_end"]:
        for workload in dict.fromkeys(r["workload"] for r in first):
            a = statistics.median(r["result"]["metrics"][metric["name"]]["value"] for r in first if r["workload"] == workload)
            b = statistics.median(r["result"]["metrics"][metric["name"]]["value"] for r in second if r["workload"] == workload)
            change = b / a - 1
            within = abs(change) <= metric["bound"]
            ok = ok and within
            print(f"{workload:14s} {metric['name']:12s} {a:12.6g} {b:12.6g} {change:+8.2%} {metric['bound']:6.2f}"
                  f"{'' if within else '  OUTSIDE BOUND'}")
    return ok


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--runs", type=int, default=1)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--save", help="write every run's result to this JSON file")
    p.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = p.parse_args(argv)

    if args.compare:
        first, second = (json.loads(Path(f).read_text()) for f in args.compare)
        return 0 if compare(first, second) else 1
    bench = spec()
    runs = []
    for i in range(args.runs):
        for workload in (w["name"] for w in bench["workloads"]):
            runs.append(one_run(workload, args.seed + i, bench["run_seconds"], args.trace))
            print(f"run {i + 1}/{args.runs} {workload}: {json.dumps(runs[-1]['result']['metrics'])[:160]}",
                  file=sys.stderr, flush=True)
    if args.save:
        Path(args.save).write_text(json.dumps(runs, indent=1) + "\n")
    table(runs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
