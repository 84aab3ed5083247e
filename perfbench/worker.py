"""One benchmark run of one workload, in its own single-threaded process.

Started by run.py with `src` on PYTHONPATH.  An untraced run repeats passes
over the workload's checks, each pass at its own root seed derived from the
workload seed, until the next pass would end after `--seconds`; it always
makes at least one pass.  A traced run makes one untraced and one traced
pass at the same root seed, so their outputs must agree and their
difference is the tracing overhead.

An untraced run pins itself to one CPU and starts a speed probe
(probe.py), a process of its own on that CPU that times a fixed pure-Python
snippet about 50 times a second.  Each pass time is rescaled by how slow that
snippet ran during the pass, so that `run_s` follows the program and not the
speed its CPU was given at the time (README.md, "Steadiness").

Prints one JSON object as its last line of standard output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np

import mvpp
import mvpp.cli as cli
import mvpp.verify as verify

from probe import PROBE_REF_S, SpeedProbe
from tracer import LAYERS, Tracer
from workloads import WORKLOADS, all_check_names, metric_name

MVPP_MODULES = ("cli", "kernels", "measures", "oracle", "process", "randomness", "stats", "trees", "verify")


def pin_to_current_cpu() -> None:
    """Keep the checks, and the speed probe started after this, on one CPU."""
    try:
        cpu = int(Path("/proc/self/stat").read_text().rsplit(")", 1)[1].split()[36])
        os.sched_setaffinity(0, {cpu})
    except (OSError, IndexError, ValueError):
        pass


def pass_seed(seed: int, index: int) -> int:
    """Root seed of pass `index` of a run with workload seed `seed`."""
    digest = hashlib.sha256(f"perfbench:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def uncovered_checks() -> list:
    """Checks of `verify.SUITES` that no workload runs, or that two run."""
    names = all_check_names()
    suite = [fn.__name__ for fns in verify.SUITES.values() for fn in fns]
    return sorted(n for n in set(suite) if names.count(n) != 1)


def run_pass(workload: str, root_seed: int, schema: dict, tracer: Tracer | None = None) -> dict:
    """Run the workload's checks at one root seed, assemble the report the
    way `mvpp verify` does (schema validation, then sorted, indented JSON)
    and time it.  A check that is missing, raises, or returns a result the
    report schema rejects is a failed operation."""
    if tracer is None:
        region = lambda name, layer: nullcontext()  # noqa: E731
    else:
        region = tracer.region
    results, errors, check_seconds = {}, {}, {}
    t0 = time.monotonic()  # one clock in every process: the probe's too
    with region("verify.run", "verify"):
        for name in WORKLOADS[workload]:
            fn = getattr(verify, name, None)
            if fn is None:
                errors[name] = "missing from mvpp.verify"
                continue
            c0 = time.monotonic()
            try:
                with region(f"verify.{name}", "verify"):
                    results[name] = fn(root_seed)
            except Exception as e:  # a raising check is a failed operation
                errors[name] = f"{type(e).__name__}: {e}"
            check_seconds[name] = time.monotonic() - c0
        with region("cli.report", "cli"):
            try:
                report = {
                    "suite": workload,
                    "root_seed": int(root_seed),
                    "checks": sorted(results.values(), key=lambda r: str(r.get("test_name"))),
                    "all_pass": all(r.get("pass") for r in results.values()),
                }
                cli.validate_report(report, schema)
                json.dumps(report, indent=2, sort_keys=True)
            except (ValueError, TypeError, AttributeError) as e:
                errors["report"] = f"{type(e).__name__}: {e}"
    t1 = time.monotonic()

    digests = {}
    for name, r in results.items():
        try:
            cli.validate_report(
                {"suite": workload, "root_seed": int(root_seed), "checks": [r], "all_pass": bool(r["pass"])},
                schema,
            )
            digests[name] = hashlib.sha256(json.dumps(r, indent=2, sort_keys=True).encode()).hexdigest()
        except (ValueError, TypeError, KeyError) as e:
            errors[name] = f"schema: {e}"
    return {
        "root_seed": root_seed,
        "seconds": t1 - t0,
        "check_seconds": check_seconds,
        "window": (t0, t1),
        "attempted": len(WORKLOADS[workload]),
        "failed": sorted(n for n in errors if n != "report"),
        "errors": errors,
        "digests": digests,
        "green": sum(1 for n, r in results.items() if n in digests and r["pass"]),
    }


def traced_metrics(tracer: Tracer, traced: dict, untraced: dict) -> dict:
    """Per-layer metrics of one traced pass."""
    busy = tracer.layer_self_times()
    c = tracer.counts
    run_s = tracer.span_seconds("verify.run")

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    m = {f"{layer}.busy_s": busy[layer] for layer in LAYERS if layer != "verify"}
    m["verify.self_s"] = busy["verify"]
    m["trace.wrapper_s"] = tracer.wrapper_seconds()
    for key in (
        "process.batch.steps",
        "process.scalar.steps",
        "trees.nodes",
        "trees.lca_calls",
        "stats.ks_calls",
        "stats.cdf_evals",
        "randomness.streams",
        "randomness.scalar_calls",
        "kernels.sample_calls",
        "oracle.outcomes",
    ):
        m[key] = c[key]
    m["randomness.draw_blocks"] = tracer.draw_blocks()
    m["process.batch.steps_per_s"] = rate(c["process.batch.steps"], busy["process.batch"])
    m["process.scalar.steps_per_s"] = rate(c["process.scalar.steps"], busy["process.scalar"])
    m["trees.nodes_per_s"] = rate(c["trees.nodes"], busy["trees"])
    m["stats.cdf_evals_per_s"] = rate(c["stats.cdf_evals"], tracer.span_seconds("stats.ks_statistic"))
    for name in all_check_names():
        m[metric_name(name)] = tracer.span_seconds(f"verify.{name}")
    m["verify.checks_green"] = traced["green"]
    m["trace.run_s"] = run_s
    m["trace.overhead_s"] = traced["seconds"] - untraced["seconds"]
    m["trace.spans"] = len(tracer.name_id)
    return m


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spans", default=None, help="CSV file for the traced pass's spans")
    args = p.parse_args(argv)

    schema = json.loads(cli.SCHEMA_PATH.read_text())
    bad_partition = uncovered_checks()
    passes = []
    out = {"workload": args.workload, "seed": args.seed, "numpy": np.__version__, "mvpp": mvpp.__version__}
    start = time.monotonic()
    if args.trace:
        root = pass_seed(args.seed, 0)
        untraced = run_pass(args.workload, root, schema)
        tracer = Tracer(run_id=f"{args.workload}:{args.seed}")
        tracer.install([sys.modules[f"mvpp.{m}"] for m in MVPP_MODULES])
        try:
            traced = run_pass(args.workload, root, schema, tracer)
        finally:
            tracer.uninstall()
        passes = [untraced, traced]
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        out["per_layer"] = traced_metrics(tracer, traced, untraced)
        out["same_seed_same_digests"] = untraced["digests"] == traced["digests"]
        out["span_errors"] = tracer.span_errors(traced["window"])
        if args.spans:
            Path(args.spans).parent.mkdir(parents=True, exist_ok=True)
            tracer.write_spans(args.spans)
    else:
        pin_to_current_cpu()
        with SpeedProbe() as probe:
            while True:
                passes.append(run_pass(args.workload, pass_seed(args.seed, len(passes)), schema))
                if len(passes) == 1:  # high-water mark of one pass, whatever the pass count
                    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                elapsed = time.monotonic() - start
                if elapsed + statistics.median(p["seconds"] for p in passes) > args.seconds:
                    break
        for p in passes:
            p["probe_s"] = probe.mean_between(*p["window"])
            p["normalised_s"] = p["seconds"] * PROBE_REF_S / p["probe_s"]
        out["run_s"] = statistics.median(p["normalised_s"] for p in passes)
        out["probes"] = len(probe.at)
    out["passes"] = passes
    out["wall_s"] = statistics.median(p["seconds"] for p in passes)
    out["attempted"] = sum(p["attempted"] for p in passes) + len(bad_partition)
    out["failed"] = sum(len(p["failed"]) for p in passes) + len(bad_partition)
    out["partition_errors"] = bad_partition
    out["report_errors"] = [p["errors"]["report"] for p in passes if "report" in p["errors"]]
    # a different root seed must change at least one check's output
    out["seed_reaches_program"] = all(
        a["digests"] != b["digests"] for a, b in zip(passes, passes[1:]) if a["root_seed"] != b["root_seed"]
    )
    out["peak_rss_mb"] = peak_kib / 1024.0
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
