import csv
import json
import subprocess
import sys

import pytest

from mvpp import cli

CONFIG = """\
[experiment]
name = demo
seed = 5
replicas = 200
n_grid = 200,400
emit_svg = {svg}

[kernel]
variant = random_walk
increment = rademacher

[m0]
atoms = 0:1

[plan]
preset = brw
"""


def write_config(tmp_path, svg="false", drop_section=None):
    text = CONFIG.format(svg=svg)
    if drop_section:
        lines = []
        skip = False
        for line in text.splitlines():
            if line.strip() == f"[{drop_section}]":
                skip = True
                continue
            if skip and line.startswith("["):
                skip = False
            if not skip:
                lines.append(line)
        text = "\n".join(lines)
    path = tmp_path / "exp.ini"
    path.write_text(text)
    return path


def test_simulate_writes_artifacts_and_is_deterministic(tmp_path):
    cfg = write_config(tmp_path)
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    assert cli.run_simulate(cfg, out1) == 0
    assert cli.run_simulate(cfg, out2) == 0
    for fname in ("demo_n200_samples.csv", "demo_n400_samples.csv", "demo_report.json"):
        assert (out1 / fname).exists()
    # byte-identical CSVs across runs with the same seed
    a = (out1 / "demo_n200_samples.csv").read_bytes()
    b = (out2 / "demo_n200_samples.csv").read_bytes()
    assert a == b
    report = json.loads((out1 / "demo_report.json").read_text())
    assert report["experiment"] == "demo"
    assert len(report["results"]) == 2
    assert "runtime_seconds" in report
    # sample CSV has one value per tree node
    assert len(a.decode().strip().splitlines()) == 201 + 0 + 1  # header + n+1 labels


def test_simulate_sample_rows_parse_as_floats(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    assert cli.run_simulate(cfg, out) == 0
    dumps = sorted(out.glob("*_samples.csv"))
    assert [p.name for p in dumps] == ["demo_n200_samples.csv", "demo_n400_samples.csv"]
    for path in dumps:
        with open(path, newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["rescaled_colour"]
        values = [float(row[0]) for row in rows[1:]]
        assert all(len(row) == 1 for row in rows[1:])
        assert len(values) == int(path.name.split("_n")[1].split("_")[0]) + 1


def test_sample_dump_streams_distinct_per_grid_point(tmp_path, monkeypatch):
    # 1000 and 1997 are congruent modulo 997.  The queue's dump is its drawn
    # colours, unrescaled, so a shared stream would repeat the first rows.
    text = (
        CONFIG.format(svg="false")
        .replace("n_grid = 200,400", "n_grid = 1,997,1000,1997,2994")
        .replace("variant = random_walk\nincrement = rademacher", "variant = mminf")
        .replace("preset = brw", "preset = ergodic")
    )
    path = tmp_path / "collide.ini"
    path.write_text(text)
    used = []
    real = cli.derive_stream
    monkeypatch.setattr(cli, "derive_stream", lambda seed, sid: used.append(sid) or real(seed, sid))
    out = tmp_path / "run"
    assert cli.run_simulate(path, out) == 0
    assert len(used) == 6 and len(set(used)) == 6  # the report's stream and one per grid point
    head_1000 = (out / "demo_n1000_samples.csv").read_text().splitlines()[1:1001]
    head_1997 = (out / "demo_n1997_samples.csv").read_text().splitlines()[1:1001]
    assert head_1000 != head_1997


def test_simulate_missing_kernel_section_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, drop_section="kernel")
    code = cli.run_simulate(cfg, tmp_path / "out")
    assert code == 2
    assert "kernel" in capsys.readouterr().err


def test_simulate_rejects_bad_grid(tmp_path, capsys):
    text = CONFIG.format(svg="false").replace("n_grid = 200,400", "n_grid = 400,200")
    path = tmp_path / "bad.ini"
    path.write_text(text)
    assert cli.run_simulate(path, tmp_path / "out") == 2
    assert "n_grid" in capsys.readouterr().err


def test_simulate_emits_svg(tmp_path):
    cfg = write_config(tmp_path, svg="true")
    out = tmp_path / "svg_run"
    assert cli.run_simulate(cfg, out) == 0
    svg = (out / "demo_n200.svg").read_text()
    assert svg.startswith("<svg")
    assert "rescaled colour" in svg and "density" in svg
    assert "polyline" in svg  # reference curve overlay


def test_oracle_subcommand_matches_enumeration(tmp_path):
    out = tmp_path / "law.csv"
    assert cli.run_oracle("urn-identity", 2, 2, out) == 0
    rows = out.read_text().strip().splitlines()
    assert rows[0] == "outcome,probability"
    assert len(rows) == 4  # three count vectors
    for row in rows[1:]:
        assert abs(float(row.rsplit(",", 1)[1]) - 1 / 3) < 1e-12


def test_oracle_subcommand_kary(tmp_path):
    out = tmp_path / "kary.csv"
    assert cli.run_oracle("kary-closed-form", 3, 2, out) == 0
    assert len(out.read_text().strip().splitlines()) == 4


def test_oracle_unknown_name(capsys):
    assert cli.run_oracle("nope", 2, 2, None) == 2


def test_profile_subcommand(tmp_path):
    assert cli.run_profile(10, 3, tmp_path) == 0
    tree_rows = (tmp_path / "rrt_n10_tree.csv").read_text().strip().splitlines()
    assert tree_rows[0] == "node_id,parent_id,slot,depth"
    assert len(tree_rows) == 12  # header + 11 nodes
    prof_rows = (tmp_path / "rrt_n10_profile.csv").read_text().strip().splitlines()
    assert prof_rows[0] == "colour_component_1,weight"


def test_verify_cli_runs_a_suite(tmp_path, capsys):
    code = cli.run_verify("kdiscrete", tmp_path, seed=1)
    assert code == 0
    report = json.loads((tmp_path / "verify_kdiscrete.json").read_text())
    cli.validate_report(report)
    assert report["all_pass"] is True
    out = capsys.readouterr().out
    assert "PASS" in out


def test_verify_unknown_suite(capsys):
    assert cli.run_verify("bogus") == 2


def test_schema_validation_rejects_malformed():
    good = {"suite": "x", "root_seed": 1, "all_pass": True, "checks": []}
    cli.validate_report(good)
    with pytest.raises(ValueError, match="missing required"):
        cli.validate_report({"suite": "x"})
    with pytest.raises(ValueError, match="expected integer"):
        cli.validate_report({"suite": "x", "root_seed": True, "all_pass": True, "checks": []})
    with pytest.raises(ValueError):
        cli.validate_report(
            {"suite": "x", "root_seed": 1, "all_pass": True, "checks": [{"test_name": "t"}]}
        )


def test_verify_threads_env_does_not_change_report(tmp_path, monkeypatch):
    from mvpp import verify

    seq = verify.run_suite("martingale", root_seed=3)
    monkeypatch.setenv("MVPP_THREADS", "4")
    par = verify.run_suite("martingale", root_seed=3)
    assert json.dumps(seq, sort_keys=True) == json.dumps(par, sort_keys=True)


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "mvpp.cli", "oracle", "--name", "urn-identity", "--n", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "outcome,probability" in proc.stdout
