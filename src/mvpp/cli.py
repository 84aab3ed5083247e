"""Config-driven experiment runner.

Subcommands: `simulate` runs a rescaled-urn experiment from a flat INI
config and writes per-n sample CSVs plus a JSON summary; `verify` runs a
named acceptance suite and exits non-zero on failure; `oracle` dumps an
exact small-n law as CSV; `profile` dumps one grown recursive tree and its
depth profile.  Identical (config, seed, release) inputs produce
byte-identical outputs; verify reports carry no timing fields for exactly
that reason (simulate summaries do, under a separate key).
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import oracle, stats, verify
from .kernels import (
    DColourKernel,
    KDiscreteKernel,
    MMInfQueueKernel,
    RandomWalkKernel,
    StableIncrement,
    plan_brw,
    plan_ergodic,
    plan_kdiscrete_shift,
    plan_stable,
    walk_kernel_constant,
    walk_kernel_normal,
    walk_kernel_rademacher,
    walk_kernel_stable,
)
from .measures import AtomicMeasure, measure_to_csv_lines
from .process import verify_main_theorem
from .randomness import derive_stream
from .trees import grow_rrt, profile as tree_profile

SCHEMA_PATH = Path(__file__).parent / "data" / "report_schema.json"


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


def load_config(path) -> dict:
    cp = configparser.ConfigParser()
    read = cp.read(path)
    if not read:
        raise ConfigError(f"config file {path} not found or unreadable")
    for section in ("experiment", "kernel", "m0", "plan"):
        if section not in cp:
            raise ConfigError(f"missing [{section}] section in {path}")
    exp = cp["experiment"]
    try:
        cfg = {
            "name": exp.get("name", "experiment"),
            "seed": exp.getint("seed", fallback=1),
            "replicas": exp.getint("replicas", fallback=1000),
            "n_grid": [int(v) for v in exp.get("n_grid", "1000").split(",")],
            "emit_svg": exp.getboolean("emit_svg", fallback=False),
        }
    except ValueError as e:
        raise ConfigError(f"bad [experiment] value: {e}")
    if cfg["replicas"] < 1:
        raise ConfigError("replicas must be >= 1")
    if min(cfg["n_grid"]) < 1:
        raise ConfigError("n_grid values must be >= 1")
    if any(b <= a for a, b in zip(cfg["n_grid"], cfg["n_grid"][1:])):
        raise ConfigError("n_grid must be strictly increasing")
    cfg["kernel"] = _parse_kernel(cp["kernel"])
    cfg["m0"] = _parse_m0(cp["m0"])
    cfg["plan"] = _parse_plan(cp["plan"], cfg["kernel"])
    return cfg


def _parse_kernel(sec):
    variant = sec.get("variant", "")
    if variant == "random_walk":
        inc_name = sec.get("increment", "constant")
        if inc_name == "constant":
            return walk_kernel_constant(sec.getfloat("value", fallback=1.0))
        if inc_name == "rademacher":
            return walk_kernel_rademacher()
        if inc_name == "normal":
            return walk_kernel_normal(sec.getfloat("mean", fallback=0.0), sec.getfloat("var", fallback=1.0))
        raise ConfigError(f"unknown increment {inc_name!r} in [kernel]")
    if variant == "stable":
        return walk_kernel_stable(sec.getfloat("alpha", fallback=1.5), sec.getfloat("skew", fallback=0.0))
    if variant == "mminf":
        return MMInfQueueKernel(sec.getfloat("lam", fallback=1.0), sec.getfloat("mu", fallback=1.0))
    if variant == "dcolour":
        try:
            rows = [
                [float(v) for v in row.split()]
                for row in sec.get("rows", "").split(";")
            ]
            return DColourKernel(rows)
        except (ValueError, TypeError) as e:
            raise ConfigError(f"bad dcolour rows in [kernel]: {e}")
    if variant == "kdiscrete":
        offs = [int(v) for v in sec.get("offsets", "1,1").split(",")]
        return KDiscreteKernel.from_offsets(offs)
    raise ConfigError(f"unknown kernel variant {variant!r} in [kernel]")


def _parse_m0(sec) -> AtomicMeasure:
    raw = sec.get("atoms", "")
    if not raw:
        raise ConfigError("missing atoms in [m0]")
    atoms = []
    for part in raw.split(","):
        try:
            c, w = (float(v) for v in part.split(":"))
            if not (math.isfinite(c) and math.isfinite(w) and w > 0):
                raise ValueError
        except ValueError:
            raise ConfigError(f"bad atom {part!r} in [m0] atoms; expected finite colour:weight with weight > 0")
        atoms.append((int(c) if c == int(c) else c, w))
    return AtomicMeasure(atoms)


def _parse_plan(sec, kernel):
    """The plan preset, with its parameters read off the parsed kernel."""
    preset = sec.get("preset", "")
    walk = isinstance(kernel, RandomWalkKernel)
    stable = walk and isinstance(kernel.increment, StableIncrement)
    if preset == "brw" and walk and not stable:
        return plan_brw(mean=kernel.mean, var=kernel.cov)
    if preset == "ergodic" and isinstance(kernel, MMInfQueueKernel):
        return plan_ergodic(stats.MMInfJumpChain(kernel.lam, kernel.mu), claimed=True)
    if preset == "ergodic" and isinstance(kernel, DColourKernel):
        return plan_ergodic(None, claimed=True)  # the palette route scores the Perron limit
    if preset == "stable" and stable:
        return plan_stable(kernel.increment.alpha)
    if preset == "kdiscrete-shift" and isinstance(kernel, KDiscreteKernel):
        return plan_kdiscrete_shift()
    if preset in ("brw", "ergodic", "stable", "kdiscrete-shift"):
        raise ConfigError(f"plan preset {preset!r} does not fit the {type(kernel).__name__} in [kernel]")
    raise ConfigError(f"unknown plan preset {preset!r} in [plan]")


# ---------------------------------------------------------------------------
# report schema validation (minimal, dependency-free)
# ---------------------------------------------------------------------------


def validate_report(obj, schema=None) -> None:
    """Validate a report against the shipped schema; raises on mismatch."""
    if schema is None:
        schema = json.loads(SCHEMA_PATH.read_text())
    _validate(obj, schema, "$")


def _validate(obj, schema, path):
    typ = schema.get("type")
    checkers = {
        "object": dict,
        "array": list,
        "string": str,
        "boolean": bool,
        "integer": int,
        "number": (int, float),
    }
    if typ is not None:
        want = checkers[typ]
        if typ == "integer" and isinstance(obj, bool):
            raise ValueError(f"{path}: expected integer, got bool")
        if not isinstance(obj, want):
            raise ValueError(f"{path}: expected {typ}, got {type(obj).__name__}")
    for key in schema.get("required", []):
        if key not in obj:
            raise ValueError(f"{path}: missing required key {key!r}")
    for key, sub in schema.get("properties", {}).items():
        if isinstance(obj, dict) and key in obj:
            _validate(obj[key], sub, f"{path}.{key}")
    if "items" in schema and isinstance(obj, list):
        for i, item in enumerate(obj):
            _validate(item, schema["items"], f"{path}[{i}]")


# ---------------------------------------------------------------------------
# svg histogram (hand rolled; plots are a convenience, not acceptance)
# ---------------------------------------------------------------------------


def svg_histogram(samples, path, title="rescaled samples") -> None:
    bins, span = 41, 4.0  # the histogram's bins over [-span, span]
    samples = np.asarray(samples, dtype=float)
    edges = np.linspace(-span, span, bins + 1)
    counts, _ = np.histogram(samples, bins=edges, density=True)
    w, h, mx, my = 640, 400, 60, 40
    ymax = max(float(counts.max()), stats.normal_pdf(0.0)) * 1.15

    def sx(x):
        return mx + (x + span) / (2 * span) * (w - 2 * mx)

    def sy(y):
        return h - my - y / ymax * (h - 2 * my)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}">',
        f'<rect width="{w}" height="{h}" fill="white"/>',
        f'<text x="{w/2:.0f}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        f'<line x1="{mx}" y1="{h-my}" x2="{w-mx}" y2="{h-my}" stroke="black"/>',
        f'<line x1="{mx}" y1="{my}" x2="{mx}" y2="{h-my}" stroke="black"/>',
        f'<text x="{w/2:.0f}" y="{h-8}" text-anchor="middle" font-size="12">rescaled colour</text>',
        f'<text x="14" y="{h/2:.0f}" font-size="12" transform="rotate(-90 14 {h/2:.0f})">density</text>',
    ]
    for i, c in enumerate(counts):
        x0, x1 = sx(edges[i]), sx(edges[i + 1])
        y = sy(float(c))
        parts.append(
            f'<rect x="{x0:.1f}" y="{y:.1f}" width="{x1-x0:.1f}" height="{h-my-y:.1f}" '
            f'fill="steelblue" fill-opacity="0.6"/>'
        )
    xs = np.linspace(-span, span, 161)
    pts = " ".join(f"{sx(x):.1f},{sy(stats.normal_pdf(x)):.1f}" for x in xs)
    parts.append(f'<polyline points="{pts}" fill="none" stroke="crimson" stroke-width="1.5"/>')
    for x in range(-int(span), int(span) + 1):
        parts.append(
            f'<text x="{sx(x):.0f}" y="{h-my+16}" text-anchor="middle" font-size="10">{x}</text>'
        )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def run_simulate(config_path, out_dir, seed=None) -> int:
    try:
        cfg = load_config(config_path)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    if seed is not None:
        cfg["seed"] = seed
    t0 = time.monotonic()
    s = derive_stream(cfg["seed"], 0)
    try:
        report = verify_main_theorem(
            cfg["kernel"], cfg["plan"], cfg["m0"], cfg["n_grid"], cfg["replicas"], s
        )
    except ValueError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    report.pop("measures")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    # per-n dumps of the rescaled samples each grid point scored
    for entry, samples in zip(report["results"], report.pop("samples")):
        n = entry["n"]
        csv_path = out / f"{cfg['name']}_n{n}_samples.csv"
        with open(csv_path, "w", newline="") as f:
            f.write("rescaled_colour\n")
            for v in samples:
                f.write(f"{float(v)!r}\n")
        if cfg["emit_svg"]:
            svg_histogram(samples, out / f"{cfg['name']}_n{n}.svg", title=f"{cfg['name']} n={n}")
    report["experiment"] = cfg["name"]
    report["seed"] = cfg["seed"]
    report["runtime_seconds"] = round(time.monotonic() - t0, 3)
    (out / f"{cfg['name']}_report.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"wrote {cfg['name']}_report.json (pass={report['pass']})")
    return 0


def run_verify(suite, out_dir=None, seed: int = 1) -> int:
    try:
        report = verify.run_suite(suite, root_seed=seed)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    validate_report(report)
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / f"verify_{suite}.json").write_text(text)
    for check in report["checks"]:
        print(f"{'PASS' if check['pass'] else 'FAIL'}  {check['test_name']}")
    print(f"suite {suite}: {'PASS' if report['all_pass'] else 'FAIL'}")
    return 0 if report["all_pass"] else 1


ORACLE_NAMES = (
    "urn-identity",
    "rrt-joint-depths",
    "bst-joint-depths",
    "kary-subtree",
    "kary-closed-form",
    "coupling",
)


def run_oracle(name, n, kappa, out_path) -> int:
    try:
        if name == "urn-identity":
            kern = DColourKernel([[1.0, 0.0], [0.0, 1.0]])
            law = oracle.exact_urn_law(AtomicMeasure([(0, 1.0), (1, 1.0)]), kern, n)
        elif name == "rrt-joint-depths":
            law = oracle.exact_rrt_joint_depths(n)
        elif name == "bst-joint-depths":
            law = oracle.exact_bst_joint_depths(n)[0]
        elif name == "kary-subtree":
            law = oracle.exact_kary_subtree_law(n, kappa)
        elif name == "kary-closed-form":
            law = oracle.closed_form_kary(n, kappa)
        elif name == "coupling":
            m0 = AtomicMeasure([(0, 0.5), (1, 0.5)])
            law = oracle.exact_coupling_law(m0, DColourKernel([[0.5, 0.5], [0.25, 0.75]]), n)["direct"]
        else:
            print(f"unknown oracle {name!r}; choose from {ORACLE_NAMES}", file=sys.stderr)
            return 2
    except ValueError as e:  # a BudgetError too; nothing is written
        print(f"error: oracle {name!r} at --n {n}: {e}", file=sys.stderr)
        return 2
    lines = ["outcome,probability"]
    for outcome, p in sorted(law.probs.items(), key=lambda kv: str(kv[0])):
        lines.append(f"\"{outcome}\",{p!r}")
    text = "\n".join(lines) + "\n"
    if out_path:
        Path(out_path).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def run_profile(n, seed, out_dir, stream_id: int = 0) -> int:
    if n < 1:  # the profile divides by the n growth steps
        print(f"error: --n must be >= 1, got {n}", file=sys.stderr)
        return 2
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    s = derive_stream(seed, stream_id)
    t = grow_rrt(n, s)
    with open(out / f"rrt_n{n}_tree.csv", "w", newline="") as f:
        f.write("node_id,parent_id,slot,depth\n")
        for u in range(t.n_nodes):
            f.write(f"{u},{t.parent[u]},{t.slot[u]},{t.depth[u]}\n")
    prof = tree_profile(t)
    (out / f"rrt_n{n}_profile.csv").write_text("\n".join(measure_to_csv_lines(prof)) + "\n")
    print(f"wrote rrt_n{n}_tree.csv ({t.n_nodes} rows) and rrt_n{n}_profile.csv")
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="mvpp", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run a config-driven experiment")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--out", default="out")
    p_sim.add_argument("--seed", type=int, default=None)

    p_ver = sub.add_parser("verify", help="run an acceptance suite")
    p_ver.add_argument("--suite", required=True, choices=verify.suite_names())
    p_ver.add_argument("--out", default=None)
    p_ver.add_argument("--seed", type=int, default=1)

    p_or = sub.add_parser("oracle", help="dump an exact small-n law as CSV")
    p_or.add_argument("--name", required=True, choices=ORACLE_NAMES)
    p_or.add_argument("--n", type=int, default=2)
    p_or.add_argument("--kappa", type=int, default=2)
    p_or.add_argument("--out", default=None)

    p_prof = sub.add_parser("profile", help="grow one recursive tree and dump it")
    p_prof.add_argument("--n", type=int, required=True)
    p_prof.add_argument("--seed", type=int, default=1)
    p_prof.add_argument("--stream-id", type=int, default=0)
    p_prof.add_argument("--out", default="out")

    args = p.parse_args(argv)
    if args.command == "simulate":
        return run_simulate(args.config, args.out, args.seed)
    if args.command == "verify":
        return run_verify(args.suite, args.out, args.seed)
    if args.command == "oracle":
        return run_oracle(args.name, args.n, args.kappa, args.out)
    if args.command == "profile":
        return run_profile(args.n, args.seed, args.out, args.stream_id)
    return 2


if __name__ == "__main__":
    sys.exit(main())
