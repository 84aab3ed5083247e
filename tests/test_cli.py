import csv
import json
import subprocess
import sys

import pytest

import numpy as np

from mvpp import cli, stats
from mvpp.kernels import leading_eigenpair
from mvpp.process import UrnTrace, composite_reference

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
    # sample CSV holds the scored pairs: 200 // 16 = 12 from each of 16 urns, a's and b's
    assert len(a.decode().strip().splitlines()) == 1 + 2 * 16 * 12


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
        assert len(values) == 2 * 16 * 12


def read_samples(path):
    with open(path, newline="") as f:
        return [float(row[0]) for row in list(csv.reader(f))[1:]]


def variant_config(tmp_path, kernel, preset, grid="200,400"):
    text = (
        CONFIG.format(svg="false")
        .replace("n_grid = 200,400", f"n_grid = {grid}")
        .replace("variant = random_walk\nincrement = rademacher", kernel)
        .replace("preset = brw", f"preset = {preset}")
    )
    path = tmp_path / "variant.ini"
    path.write_text(text)
    return path


def test_sample_dump_is_what_was_scored(tmp_path, monkeypatch):
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    assert cli.run_simulate(cfg, out) == 0
    report = json.loads((out / "demo_report.json").read_text())
    assert "samples" not in report
    ref = composite_reference(cli.load_config(cfg)["plan"])
    for entry in report["results"]:
        values = read_samples(out / f"demo_n{entry['n']}_samples.csv")
        assert stats.ks_statistic(values, ref) == entry["ks"]

    # the queue dumps the scored urn's drawn colours; one stream for the whole grid
    path = variant_config(tmp_path, "variant = mminf", "ergodic", grid="1,997,1000,1997,2994")
    used = []
    real = cli.derive_stream
    monkeypatch.setattr(cli, "derive_stream", lambda seed, sid: used.append(sid) or real(seed, sid))
    out = tmp_path / "queue"
    assert cli.run_simulate(path, out) == 0
    assert used == [0]
    report = json.loads((out / "demo_report.json").read_text())
    parsed = cli.load_config(path)
    for entry in report["results"]:
        drawn = [int(v) for v in read_samples(out / f"demo_n{entry['n']}_samples.csv")]
        assert len(drawn) == entry["n"]
        mat = UrnTrace(parsed["m0"], parsed["kernel"], drawn).materialize()
        pmf = {int(c): w / mat.total_mass for c, w in mat.atoms()}
        law = parsed["plan"].gamma_reference.pmf_dict(max(pmf) + 10)
        assert stats.total_variation(pmf, law) == entry["tv"]
    head_1000 = (out / "demo_n1000_samples.csv").read_text().splitlines()[1:1001]
    head_1997 = (out / "demo_n1997_samples.csv").read_text().splitlines()[1:1001]
    assert head_1000 != head_1997


def test_simulate_dcolour_ergodic_scores_the_perron_limit(tmp_path):
    path = variant_config(tmp_path, "variant = dcolour\nrows = 0.6 0.4; 0.3 0.7", "ergodic")
    out = tmp_path / "run"
    assert cli.run_simulate(path, out) == 0
    report = json.loads((out / "demo_report.json").read_text())
    assert report["plan"] == "ergodic" and report["claimed"] is True
    parsed = cli.load_config(path)
    lam, v1 = leading_eigenpair(parsed["kernel"].rows)
    for entry in report["results"]:
        drawn = [int(v) for v in read_samples(out / f"demo_n{entry['n']}_samples.csv")]
        assert len(drawn) == entry["n"] and set(drawn) <= {0, 1}
        mat = UrnTrace(parsed["m0"], parsed["kernel"], drawn).materialize()
        comp = np.array([mat.weight(0), mat.weight(1)]) / entry["n"]
        assert float(np.abs(comp - lam * v1).sum()) == entry["l1"]


@pytest.mark.parametrize(
    "kernel,preset",
    [
        ("variant = mminf", "brw"),
        ("variant = random_walk\nincrement = normal", "stable"),
        ("variant = stable\nalpha = 1.5", "brw"),
        ("variant = kdiscrete\noffsets = 1,1", "ergodic"),
        ("variant = random_walk\nincrement = constant", "kdiscrete-shift"),
    ],
)
def test_simulate_rejects_a_preset_that_does_not_fit_the_kernel(tmp_path, capsys, kernel, preset):
    path = variant_config(tmp_path, kernel, preset)
    assert cli.run_simulate(path, tmp_path / "out") == 2
    assert "does not fit" in capsys.readouterr().err


def test_simulate_missing_kernel_section_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, drop_section="kernel")
    code = cli.run_simulate(cfg, tmp_path / "out")
    assert code == 2
    assert "kernel" in capsys.readouterr().err


def test_simulate_rejects_bad_grid(tmp_path, capsys):
    # a decreasing grid, n = 1, where the walk's scale a(log 1) is 0, and n < 1
    for grid in ("400,200", "1,10", "0,10", "-5,10"):
        text = CONFIG.format(svg="false").replace("n_grid = 200,400", f"n_grid = {grid}")
        path = tmp_path / "bad.ini"
        path.write_text(text)
        assert cli.run_simulate(path, tmp_path / "out") == 2
        assert "n_grid" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("atoms", ["0:0", "inf:1", "0:nan"])
def test_simulate_rejects_a_bad_atom(tmp_path, capsys, atoms):
    path = tmp_path / "bad.ini"
    path.write_text(CONFIG.format(svg="false").replace("atoms = 0:1", f"atoms = {atoms}"))
    assert cli.run_simulate(path, tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and "atoms" in err
    assert not (tmp_path / "out").exists()


def test_simulate_rejects_a_walk_m0_without_unit_mass(tmp_path, capsys):
    for kernel, preset in (("variant = random_walk\nincrement = rademacher", "brw"), ("variant = stable", "stable")):
        path = variant_config(tmp_path, kernel, preset)
        path.write_text(path.read_text().replace("atoms = 0:1", "atoms = 0:2"))
        assert cli.run_simulate(path, tmp_path / "out") == 2
        assert "mass 1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_simulate_gates_a_stable_run_by_the_hill_band(tmp_path):
    path = variant_config(tmp_path, "variant = stable\nalpha = 1.3", "stable", grid="50,400,1000")
    path.write_text(path.read_text().replace("replicas = 200", "replicas = 300"))
    out = tmp_path / "run"
    assert cli.run_simulate(path, out, seed=7) == 0
    report = json.loads((out / "demo_report.json").read_text())
    for entry in report["results"]:
        values = read_samples(out / f"demo_n{entry['n']}_samples.csv")
        assert stats.hill_tail_exponent(values, max(len(values) // 40, 10)) == entry["hill"]
        assert entry["pass"] == (abs(entry["hill"] - 1.3) <= 0.4)
    n400 = [e for e in report["results"] if e["n"] == 400][0]
    assert n400["hill"] > 1.7 and not n400["pass"]
    assert report["pass"] is False


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


def test_oracle_subcommand_at_the_budget(tmp_path):
    out = tmp_path / "bst8.csv"
    assert cli.main(["oracle", "--name", "bst-joint-depths", "--n", "8", "--out", str(out)]) == 0
    probs = [float(row.rsplit(",", 1)[1]) for row in out.read_text().strip().splitlines()[1:]]
    assert abs(sum(probs) - 1.0) <= 1e-12


def test_oracle_unknown_name(capsys):
    assert cli.run_oracle("nope", 2, 2, None) == 2


@pytest.mark.parametrize("name,n", [("rrt-joint-depths", 9), ("kary-subtree", 0)])
def test_oracle_rejects_an_n_outside_its_range(tmp_path, capsys, name, n):
    out = tmp_path / "law.csv"
    assert cli.main(["oracle", "--name", name, "--n", str(n), "--out", str(out)]) == 2
    assert "--n" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("n", [0, -3])
def test_profile_rejects_an_n_below_one(tmp_path, capsys, n):
    out = tmp_path / "out"
    assert cli.main(["profile", "--n", str(n), "--out", str(out)]) == 2
    assert "--n" in capsys.readouterr().err
    assert not out.exists()


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


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "mvpp.cli", "oracle", "--name", "urn-identity", "--n", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "outcome,probability" in proc.stdout
