"""Benchmark entry point: one run of one workload.

    python3 perfbench/run.py --workload verify-tall --seed 1 --seconds 40 --trace 0

Run from the root of a checkout of the repository.  Starts worker.py in a
single-threaded child process that runs the workload's checks, and measures
the set-up time of `mvpp` (process start until `mvpp` and `mvpp.cli` are
imported) several times before and after that run; it reports the median.
With `--trace 0` the last line of standard output is a JSON object holding
the end-to-end metrics of BENCHMARK.json; with `--trace 1` it holds the
per-layer metrics.  The line before it records the machine and environment
of the run.

Exits non-zero without printing a result when the checkout holds no `src/mvpp`
or a run fails to finish.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5  # before the run, and again after it
DEADLINE_S = 170.0

sys.path.insert(0, str(HERE))
from probe import PROBE_REF_S, SNIPPET_SOURCE  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def child_env() -> dict:
    """Environment of every child: `src` importable, one thread per run."""
    env = dict(os.environ)
    env.pop("MVPP_THREADS", None)
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def cache_sizes() -> dict:
    """L2 and L3 sizes of cpu0 as the kernel reports them (read only)."""
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if level in ("2", "3"):
            out[f"L{level}"] = size
    return out


def machine() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "caches": cache_sizes(),
        "loadavg_before": os.getloadavg(),
    }


# Set-up child: time probe.snippet just before and just after the imports, so
# each set-up time can be rescaled by the speed its CPU had at that moment; the
# first probe's own time is subtracted.
SETUP_CODE = SNIPPET_SOURCE + """
import time
pc = time.perf_counter
def probe(n=20):
    took = []
    for _ in range(n):
        t = pc()
        snippet()
        took.append(pc() - t)
    return took
a = pc()
before = probe()
b = pc()
import mvpp, mvpp.cli
ready = time.monotonic()
took = sorted(before + probe())
print(repr(ready), repr(b - a), repr(took[len(took) // 2]))
"""


def setup_seconds(env: dict, repeats: int, warm_up: bool) -> list:
    """(raw, rescaled) times from process start until `mvpp` and `mvpp.cli`
    are imported.  A warm-up start fills caches and is not counted."""
    times = []
    for i in range(repeats + warm_up):
        t0 = time.monotonic()
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT, capture_output=True, text=True, timeout=60,
            check=True,
        )
        if i or not warm_up:
            ready, probing, probe = (float(v) for v in done.stdout.split())
            raw = ready - t0 - probing
            times.append((raw, raw * PROBE_REF_S / probe))
    return times


def steal_seconds() -> float:
    """CPU time the hypervisor gave to other guests, summed over all CPUs."""
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return float("nan")


def src_lines() -> dict:
    """Non-blank, non-comment lines of each module in src/mvpp."""
    out = {}
    for path in sorted((ROOT / "src" / "mvpp").glob("*.py")):
        lines = [ln.strip() for ln in path.read_text().splitlines()]
        out[f"src_lines.{path.stem}"] = sum(1 for ln in lines if ln and not ln.startswith("#"))
    out["src_lines.total"] = sum(out.values())
    return out


def run_worker(args, env: dict, deadline: float) -> dict:
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if args.trace:
        cmd += ["--spans", str(ROOT / ".perfbench_out" / f"spans-{args.workload}.csv")]
    # a process group of its own, so that a worker past the deadline is killed with its speed probe
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"perfbench: {args.workload} did not finish within {DEADLINE_S:.0f} s")
    if proc.returncode != 0 or not stdout.strip():
        raise SystemExit(f"perfbench: worker exited with code {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    started = time.monotonic()
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "mvpp" / "__init__.py").is_file():
        print(f"perfbench: no src/mvpp package under {ROOT}", file=sys.stderr)
        return 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    env = child_env()
    record = machine()
    steal = steal_seconds()
    setup = [] if args.trace else setup_seconds(env, SETUP_REPEATS, warm_up=True)
    result = run_worker(args, env, started + DEADLINE_S)
    if not args.trace:
        # set-up samples on both sides of the run see the same drift of the machine
        setup += setup_seconds(env, SETUP_REPEATS, warm_up=False)
    record["loadavg_after"] = os.getloadavg()
    record["steal_s"] = steal_seconds() - steal
    record["setup_seconds"] = [raw for raw, _ in setup]
    record["numpy"] = result["numpy"]
    record["passes"] = len(result["passes"])
    record["pass_seconds"] = [p["seconds"] for p in result["passes"]]
    record["pass_probe_s"] = [p.get("probe_s") for p in result["passes"]]
    record["check_seconds"] = [p["check_seconds"] for p in result["passes"]]
    record["wall_s"] = result["wall_s"]
    record["speed_probes"] = result.get("probes")
    record["failed_checks"] = {p["root_seed"]: p["errors"] for p in result["passes"] if p["errors"]}
    record["env"] = {k: env.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MVPP_THREADS")}

    correct = (
        result["failed"] == 0
        and not result["partition_errors"]
        and not result["report_errors"]
        and result["seed_reaches_program"]
    )
    if args.trace:
        metrics = result["per_layer"] | src_lines()
        # outputs of the traced pass must match the untraced one, and every
        # span must be closed and nested inside its parent and the pass
        correct = correct and result["same_seed_same_digests"] and not result["span_errors"]
        record["span_errors"] = result["span_errors"]
        wanted = spec["per_layer"]
    else:
        metrics = {
            "run_s": result["run_s"],
            "setup_s": statistics.median(rescaled for _, rescaled in setup),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"perfbench: no value for {missing}", file=sys.stderr)
        return 1
    print(json.dumps({"environment": record}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": bool(correct),
                "attempted": int(result["attempted"]),
                "failed": int(result["failed"]),
                "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
