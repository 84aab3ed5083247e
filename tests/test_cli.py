import csv
import json
import subprocess
import sys
import tracemalloc

import pytest

import numpy as np

from mvpp import cli, stats
from mvpp.kernels import leading_eigenpair
from mvpp.process import UrnTrace

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


def variant_config(tmp_path, kernel, grid="200,400"):
    text = (
        CONFIG.format(svg="false")
        .replace("n_grid = 200,400", f"n_grid = {grid}")
        .replace("variant = random_walk\nincrement = rademacher", kernel)
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
    for entry in report["results"]:  # a fair coin's walk: mean 0, variance 1
        values = read_samples(out / f"demo_n{entry['n']}_samples.csv")
        assert stats.ks_statistic(values, stats.Normal(0.0, 1.0)) == entry["ks"]

    # the queue dumps the scored urn's drawn colours; one stream for the whole grid
    path = variant_config(tmp_path, "variant = mminf", grid="1,997,1000,1997,2994")
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
        law = stats.MMInfJumpChain(parsed["kernel"].lam, parsed["kernel"].mu).pmf_dict(max(pmf) + 10)
        assert stats.total_variation(pmf, law) == entry["tv"]
    head_1000 = (out / "demo_n1000_samples.csv").read_text().splitlines()[1:1001]
    head_1997 = (out / "demo_n1997_samples.csv").read_text().splitlines()[1:1001]
    assert head_1000 != head_1997


def test_simulate_reaches_n_1e12_on_a_walk_grid(tmp_path):
    # the walk route reads each pair off its nodes' ancestor chains, about
    # log n links each, so n = 1e12 runs and allocates nothing of size n
    path = variant_config(tmp_path, "variant = random_walk\nincrement = rademacher", "10,100000,100000000,1000000000000")
    path.write_text(path.read_text().replace("replicas = 200", "replicas = 2000"))
    out = tmp_path / "run"
    tracemalloc.start()
    try:
        assert cli.run_simulate(path, out) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20e6
    report = json.loads((out / "demo_report.json").read_text())
    assert [entry["n"] for entry in report["results"]] == [10, 10**5, 10**8, 10**12]
    for entry in report["results"]:
        values = read_samples(out / f"demo_n{entry['n']}_samples.csv")
        assert len(values) == 2 * 2000 and stats.ks_statistic(values, stats.Normal(0.0, 1.0)) == entry["ks"]
    assert report["results"][-1]["ks"] < 0.1


def test_simulate_dcolour_ergodic_scores_the_perron_limit(tmp_path):
    path = variant_config(tmp_path, "variant = dcolour\nrows = 0.6 0.4; 0.3 0.7")
    out = tmp_path / "run"
    assert cli.run_simulate(path, out) == 0
    report = json.loads((out / "demo_report.json").read_text())
    assert report["plan"] == "ergodic" and "claimed" not in report
    parsed = cli.load_config(path)
    lam, v1 = leading_eigenpair(parsed["kernel"].rows)
    for entry in report["results"]:
        drawn = [int(v) for v in read_samples(out / f"demo_n{entry['n']}_samples.csv")]
        assert len(drawn) == entry["n"] and set(drawn) <= {0, 1}
        mat = UrnTrace(parsed["m0"], parsed["kernel"], drawn).materialize()
        comp = np.array([mat.weight(0), mat.weight(1)]) / mat.total_mass
        assert float(np.abs(comp - lam * v1).sum()) == entry["l1"]


def test_simulate_scores_a_periodic_palette(tmp_path):
    # irreducible with period 2: the Perron limit (1/2, 1/2) exists, though
    # power iteration on R itself oscillates and once made simulate exit 2
    path = variant_config(tmp_path, "variant = dcolour\nrows = 0 1; 1 0")
    out = tmp_path / "run"
    assert cli.run_simulate(path, out) == 0
    report = json.loads((out / "demo_report.json").read_text())
    parsed = cli.load_config(path)
    for entry in report["results"]:
        drawn = [int(v) for v in read_samples(out / f"demo_n{entry['n']}_samples.csv")]
        mat = UrnTrace(parsed["m0"], parsed["kernel"], drawn).materialize()
        comp = np.array([mat.weight(0), mat.weight(1)]) / mat.total_mass
        assert entry["l1"] == float(np.abs(comp - 0.5).sum())


def test_simulate_missing_kernel_section_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, drop_section="kernel")
    code = cli.run_simulate(cfg, tmp_path / "out")
    assert code == 2
    assert "kernel" in capsys.readouterr().err


def test_simulate_rejects_bad_grid(tmp_path, capsys):
    # a decreasing grid, n = 1, where t = log 1 = 0 leaves the walk no scale, and n < 1
    for grid in ("400,200", "1,10", "0,10", "-5,10"):
        text = CONFIG.format(svg="false").replace("n_grid = 200,400", f"n_grid = {grid}")
        path = tmp_path / "bad.ini"
        path.write_text(text)
        assert cli.run_simulate(path, tmp_path / "out") == 2
        assert "n_grid" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_simulate_rejects_n_one_on_a_rescaled_route(tmp_path, capsys):
    # t = log 1 = 0 leaves no scale on the kappa and stable routes, as on the walk's
    for kernel, atoms in (("variant = kdiscrete\noffsets = 1,1", "0:1/2"), ("variant = stable\nalpha = 1.5", "0:1")):
        path = variant_config(tmp_path, kernel, grid="1,10")
        path.write_text(path.read_text().replace("atoms = 0:1", f"atoms = {atoms}"))
        assert cli.run_simulate(path, tmp_path / "out") == 2
        assert "n_grid point n=1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_simulate_rejects_a_stable_alpha_of_two(tmp_path, capsys):
    # alpha = 2 is a Gaussian increment: no heavy tail for the Hill exponent to score
    path = variant_config(tmp_path, "variant = stable\nalpha = 2")
    assert cli.run_simulate(path, tmp_path / "out") == 2
    assert "alpha must be in (0, 2)" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_simulate_ignores_a_stale_plan_section(tmp_path):
    # a config written when [plan] named a preset runs, and writes the same bytes
    runs = []
    for i, stale in enumerate(("", "\n[plan]\npreset = brw\n")):
        path = tmp_path / f"exp{i}.ini"
        path.write_text(CONFIG.format(svg="false") + stale)
        assert cli.run_simulate(path, tmp_path / f"run{i}") == 0
        report = json.loads((tmp_path / f"run{i}" / "demo_report.json").read_text())
        report.pop("runtime_seconds")
        csvs = [(tmp_path / f"run{i}" / f"demo_n{n}_samples.csv").read_bytes() for n in (200, 400)]
        runs.append((report, csvs))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("atoms", ["0:0", "inf:1", "0:nan", "0:1/0", "0:a/b"])
def test_simulate_rejects_a_bad_atom(tmp_path, capsys, atoms):
    path = tmp_path / "bad.ini"
    path.write_text(CONFIG.format(svg="false").replace("atoms = 0:1", f"atoms = {atoms}"))
    assert cli.run_simulate(path, tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and "atoms" in err
    assert not (tmp_path / "out").exists()


def test_simulate_rejects_a_walk_m0_without_unit_mass(tmp_path, capsys):
    for kernel in ("variant = random_walk\nincrement = rademacher", "variant = stable"):
        path = variant_config(tmp_path, kernel)
        path.write_text(path.read_text().replace("atoms = 0:1", "atoms = 0:2"))
        assert cli.run_simulate(path, tmp_path / "out") == 2
        assert "mass 1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "kernel",
    [
        "variant = kdiscrete\noffsets = 1",
        "variant = kdiscrete\noffsets = a,b",
        "variant = mminf\nlam = -1",
        "variant = stable\nalpha = 3",
        "variant = random_walk\nincrement = normal\nvar = -1",
    ],
)
def test_simulate_rejects_a_kernel_value_the_kernel_rejects(tmp_path, capsys, kernel):
    path = variant_config(tmp_path, kernel)
    assert cli.run_simulate(path, tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and "[kernel]" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "kernel,atoms,message",
    [
        ("variant = dcolour\nrows = 0.6 0.4; 0.3 0.7", "5:1", "colour 5 outside palette of size 2"),
        ("variant = dcolour\nrows = 0.6 0.4; 0.3 0.7", "0.5:1", "colour 0.5 outside palette of size 2"),
        ("variant = mminf", "-1:1", "queue length must be a non-negative integer, got -1"),
        ("variant = mminf", "0.5:1", "queue length must be a non-negative integer, got 0.5"),
    ],
)
def test_simulate_rejects_an_m0_colour_the_kernel_rejects(tmp_path, capsys, kernel, atoms, message):
    path = variant_config(tmp_path, kernel)
    path.write_text(path.read_text().replace("atoms = 0:1", f"atoms = {atoms}"))
    assert cli.run_simulate(path, tmp_path / "out") == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_simulate_rejects_a_kdiscrete_m0_of_several_balls(tmp_path, capsys):
    # 0:1 is two balls of weight 1/2; the urn grows from one
    path = variant_config(tmp_path, "variant = kdiscrete\noffsets = 1,1")
    assert cli.run_simulate(path, tmp_path / "out") == 2
    assert "one ball" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_simulate_reads_an_exact_fraction_weight(tmp_path):
    # one ball of weight 1/3, written exactly rather than to ten decimal digits
    path = variant_config(tmp_path, "variant = kdiscrete\noffsets = -1,0,1")
    path.write_text(path.read_text().replace("atoms = 0:1", "atoms = 0:1/3"))
    assert cli.load_config(path)["m0"].atoms() == [(0, 1 / 3)]
    out = tmp_path / "run"
    assert cli.run_simulate(path, out, seed=7) == 0
    report = json.loads((out / "demo_report.json").read_text())
    assert [entry["n"] for entry in report["results"]] == [200, 400]
    assert all(0.0 <= entry["ks"] <= 1.0 for entry in report["results"])


@pytest.mark.parametrize("offsets", ["-1,0,1", "2,2,2"])
def test_simulate_scores_a_kdiscrete_run_against_its_own_offsets(tmp_path, offsets):
    # an all-+1 reference read KS 0.962 and 0.966 for -1,0,1 and 0.869 and
    # 0.905 for 2,2,2 here
    path = variant_config(tmp_path, f"variant = kdiscrete\noffsets = {offsets}", "1000,10000")
    text = path.read_text().replace("replicas = 200", "replicas = 2000")
    path.write_text(text.replace("atoms = 0:1", "atoms = 0:0.3333333333"))  # one ball of weight 1/3
    out = tmp_path / "run"
    assert cli.run_simulate(path, out, seed=7) == 0
    report = json.loads((out / "demo_report.json").read_text())
    assert report["plan"] == "brw"
    kern = cli.load_config(path)["kernel"]
    ref = stats.Normal(0.0, kern.cov + kern.mean**2)  # the offsets' variance plus their squared mean
    for entry in report["results"]:
        assert entry["ks"] <= 0.25
        assert stats.ks_statistic(read_samples(out / f"demo_n{entry['n']}_samples.csv"), ref) == entry["ks"]


def test_simulate_gates_a_stable_run_by_the_hill_band(tmp_path):
    path = variant_config(tmp_path, "variant = stable\nalpha = 1.3", grid="50,400,1000")
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
    out = tmp_path / "law.csv"
    for args in (["bst-joint-depths", "--n", "8"], ["kary-subtree", "--n", "12", "--kappa", "2"]):
        assert cli.main(["oracle", "--name", *args, "--out", str(out)]) == 0
        probs = [float(row.rsplit(",", 1)[1]) for row in out.read_text().strip().splitlines()[1:]]
        assert abs(sum(probs) - 1.0) <= 1e-12


def test_oracle_unknown_name(capsys):
    assert cli.run_oracle("nope", 2, 2, None) == 2


@pytest.mark.parametrize("name,n", [("rrt-joint-depths", 9), ("kary-subtree", 0), ("coupling", -1)])
def test_oracle_rejects_an_n_outside_its_range(tmp_path, capsys, name, n):
    out = tmp_path / "law.csv"
    assert cli.main(["oracle", "--name", name, "--n", str(n), "--out", str(out)]) == 2
    assert "--n" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kappa", [0, 1, -2])
@pytest.mark.parametrize("name", ["kary-closed-form", "kary-subtree"])
def test_oracle_rejects_a_kappa_below_two(tmp_path, capsys, name, kappa):
    out = tmp_path / "law.csv"
    assert cli.main(["oracle", "--name", name, "--n", "3", "--kappa", str(kappa), "--out", str(out)]) == 2
    assert "--kappa" in capsys.readouterr().err
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
