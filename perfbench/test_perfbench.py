"""Tests of the benchmark itself (not part of the tier-1 suite).

    python3 -m pytest -q perfbench/test_perfbench.py

The traced-run tests grow every workload twice and take a few minutes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import worker  # noqa: E402
from mvpp import verify  # noqa: E402
from probe import SpeedProbe  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, all_check_names, metric_name  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def traced(workload: str, seed: int) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "0", "--trace", "1"]
    done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=300, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_workloads_partition_the_suites():
    suite = sorted(fn.__name__ for fns in verify.SUITES.values() for fn in fns)
    assert sorted(all_check_names()) == suite
    assert worker.uncovered_checks() == []
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_every_check_has_a_per_layer_metric():
    names = {m["name"] for m in SPEC["per_layer"]}
    assert {metric_name(c) for c in all_check_names()} <= names


def test_missing_or_raising_check_is_a_failed_operation(monkeypatch):
    def check_boom(root_seed):
        raise RuntimeError("boom")

    monkeypatch.setattr(verify, "check_boom", check_boom, raising=False)
    monkeypatch.setitem(
        worker.WORKLOADS, "tiny", ("check_coupling_exact", "check_no_such_check", "check_boom")
    )
    schema = json.loads(worker.cli.SCHEMA_PATH.read_text())
    out = worker.run_pass("tiny", 5, schema)
    assert out["attempted"] == 3
    assert out["failed"] == ["check_boom", "check_no_such_check"]
    assert list(out["digests"]) == ["check_coupling_exact"]


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_counts_and_outputs_repeat_for_one_seed(workload):
    a, b = traced(workload, 11), traced(workload, 11)
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
    assert {k: a["per_layer"][k] for k in counts} == {k: b["per_layer"][k] for k in counts}
    assert a["passes"][1]["digests"] == b["passes"][1]["digests"]
    assert a["same_seed_same_digests"] and a["failed"] == 0 and a["span_errors"] == []
    m = a["per_layer"]
    busy = sum(v for k, v in m.items() if k.endswith(".busy_s")) + m["verify.self_s"] + m["trace.wrapper_s"]
    assert busy == pytest.approx(m["trace.run_s"], rel=1e-9)
    assert 0 < m["trace.wrapper_s"] < m["trace.run_s"]


def test_span_errors_finds_open_and_misnested_spans():
    t = Tracer("test")
    with t.region("verify.run", "verify"):
        with t.region("verify.inner", "verify"):
            pass
    window = (t.start[0] - 1.0, t.end[0] + 1.0)
    assert t.span_errors(window) == []
    assert len(t.span_errors((t.start[0] + 1e-9, t.end[0]))) == 1  # root outside the pass
    t.end[1] = t.end[0] + 1.0  # child ends after its parent
    assert len(t.span_errors(window)) == 1
    t._open(t._intern("verify.never_closed", "verify"))
    assert len(t.span_errors(window)) == 3  # still open, and start = end = 0


def test_speed_probe_runs_beside_the_program():
    import time

    with SpeedProbe() as probe:
        t0 = time.monotonic()
        time.sleep(0.3)
        t1 = time.monotonic()
    assert len(probe.at) >= 5
    assert 0 < probe.mean_between(t0, t1) < 0.05
    with pytest.raises(RuntimeError):
        probe.mean_between(t1 + 1, t1 + 2)


def test_another_seed_changes_some_output():
    a, b = traced("verify-wide", 11), traced("verify-wide", 12)
    assert a["passes"][0]["digests"] != b["passes"][0]["digests"]


def test_run_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-wide", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
