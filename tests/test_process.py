import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from mvpp import oracle, stats
from mvpp.kernels import (
    ConstantIncrement,
    DColourKernel,
    KDiscreteKernel,
    MMInfQueueKernel,
    NormalIncrement,
    RademacherIncrement,
    plan_brw,
    plan_ergodic,
    plan_kdiscrete_shift,
    plan_stable,
    walk_kernel_constant,
    walk_kernel_normal,
    walk_kernel_rademacher,
    walk_kernel_stable,
)
from mvpp.measures import AtomicMeasure
from mvpp.process import (
    KS_GATE,
    TV_GATE,
    WINDOW_RATIO,
    _attach_path_sums,
    batch_bmc_walk_labels,
    batch_bst_walk_leaf_colours,
    batch_direct_walk_colours,
    batch_exact_colour_samples,
    batch_kary_shift_leaf_labels,
    batch_rrt_depths,
    batch_rrt_walk_labels,
    composite_reference,
    mvpp_direct,
    mvpp_forest,
    mvpp_kdiscrete,
    mvpp_via_bst,
    mvpp_via_rrt,
    sample_colour,
    sample_pair,
    verify_main_theorem,
)
from mvpp.randomness import derive_stream
from mvpp.verify import _ComplexNormalIncrement, _tv_threshold

M0_HALF = AtomicMeasure([(0, 0.5), (1, 0.5)])
KERN2 = DColourKernel([[0.5, 0.5], [0.25, 0.75]])
DELTA0 = AtomicMeasure([(0.0, 1.0)])


def counts_of(colours):
    c = [0, 0]
    for x in colours:
        c[x] += 1
    return tuple(c)


# ---------------------------------------------------------------------------
# direct simulation
# ---------------------------------------------------------------------------


def test_direct_empty_and_mass():
    s = derive_stream(30, 0)
    tr = mvpp_direct(M0_HALF, KERN2, 0, s)
    assert tr.drawn == [] and tr.n == 0
    tr = mvpp_direct(M0_HALF, KERN2, 25, s)
    assert tr.total_mass == pytest.approx(M0_HALF.total_mass + 25)
    assert tr.materialize().total_mass == pytest.approx(tr.total_mass, abs=1e-9)


def test_direct_identity_urn_matches_enumeration():
    m0 = AtomicMeasure([(0, 1.0), (1, 1.0)])
    ident = DColourKernel([[1.0, 0.0], [0.0, 1.0]])
    ref = oracle.exact_urn_law(m0, ident, 2).probs
    s = derive_stream(30, 1)
    reps = 60_000
    counts = Counter(counts_of(mvpp_direct(m0, ident, 2, s).drawn) for _ in range(reps))
    for k, p in ref.items():
        assert abs(counts[k] / reps - p) <= 3 * math.sqrt(p * (1 - p) / reps)


def test_direct_profile_identity_pathwise():
    # +1 walk from a point mass: the urn equals the depth histogram of the
    # recursive tree grown from the same decisions, node for node
    from mvpp.trees import grow_rrt

    kern = walk_kernel_constant(1.0)
    for seed in range(5):
        s1 = derive_stream(31, seed)
        s2 = derive_stream(31, seed)
        tr = mvpp_direct(DELTA0, kern, 150, s1)
        t = grow_rrt(150, s2)
        depth_counts = Counter(t.depth)
        mat = tr.materialize()
        assert mat.total_mass == pytest.approx(151.0)
        for d, c in depth_counts.items():
            assert mat.weight(float(d)) == pytest.approx(float(c), abs=1e-9)


def test_direct_rejects_bad_inputs():
    s = derive_stream(30, 2)
    with pytest.raises(ValueError):
        mvpp_direct(M0_HALF, KERN2, -1, s)


# ---------------------------------------------------------------------------
# tree couplings
# ---------------------------------------------------------------------------


def test_rrt_coupling_structure():
    s = derive_stream(30, 3)
    rep = mvpp_via_rrt(M0_HALF, KERN2, 10, s)
    assert rep.tree.n_nodes == 11 and len(rep.labels) == 11
    assert rep.total_mass == pytest.approx(11.0)
    assert rep.represented_measure().total_mass == pytest.approx(11.0, abs=1e-9)
    with pytest.raises(ValueError):
        mvpp_via_rrt(AtomicMeasure([(0, 2.0)]), KERN2, 2, s)


def test_rrt_coupling_law_matches_oracle():
    ref = oracle.exact_coupling_law(M0_HALF, KERN2, 2)["direct"].probs
    s = derive_stream(30, 4)
    reps = 60_000
    counts = Counter(
        counts_of(mvpp_via_rrt(M0_HALF, KERN2, 2, s).labels[1:]) for _ in range(reps)
    )
    for k, p in ref.items():
        assert abs(counts[k] / reps - p) <= 3 * math.sqrt(p * (1 - p) / reps) + 1e-9


def test_bst_coupling_law_matches_oracle():
    ref = oracle.exact_coupling_law(M0_HALF, KERN2, 2)["direct"].probs
    s = derive_stream(30, 5)
    reps = 60_000
    counts = Counter()
    for _ in range(reps):
        rep = mvpp_via_bst(M0_HALF, KERN2, 2, s)
        colours = [rep.labels[u] for u in rep.tree.leaf_list if not rep.m0_flags[u]]
        counts[counts_of(colours)] += 1
    for k, p in ref.items():
        assert abs(counts[k] / reps - p) <= 3 * math.sqrt(p * (1 - p) / reps) + 1e-9


def test_bst_coupling_one_m0_packet_always():
    s = derive_stream(30, 6)
    for n in (1, 2, 7):
        rep = mvpp_via_bst(M0_HALF, KERN2, n, s)
        flags = [rep.m0_flags[u] for u in rep.tree.leaf_list]
        assert sum(flags) == 1
        assert len(flags) == n + 1


def test_bst_one_step_sides_equiprobable():
    s = derive_stream(30, 7)
    keep0 = 0
    reps = 20_000
    for _ in range(reps):
        rep = mvpp_via_bst(DELTA0, walk_kernel_constant(1.0), 1, s)
        kids = rep.tree.children[0]
        keep0 += rep.m0_flags[kids[0]]
    assert abs(keep0 / reps - 0.5) < 0.015


# ---------------------------------------------------------------------------
# forest
# ---------------------------------------------------------------------------


def test_forest_unit_mass_single_tree():
    s = derive_stream(30, 8)
    f = mvpp_forest(DELTA0, walk_kernel_rademacher(), 50, s)
    assert len(f.trees) == 1 and f.trees[0].n_nodes == 51


def test_forest_mass_two_sizes():
    s = derive_stream(30, 9)
    f = mvpp_forest(AtomicMeasure([(0.0, 2.0)]), walk_kernel_rademacher(), 500, s)
    assert len(f.trees) == 2
    assert sum(f.sizes()) == 502


def test_forest_fractional_three_trees():
    s = derive_stream(30, 10)
    f = mvpp_forest(AtomicMeasure([(0.0, 2.5)]), walk_kernel_rademacher(), 200, s)
    assert len(f.trees) == 3
    assert f.root_weights == [1.0, 1.0, 0.5]
    assert sum(f.sizes()) == 203


def test_forest_zero_mass_rejected():
    s = derive_stream(30, 11)
    bad = AtomicMeasure([(0.0, 1.0)])
    bad._atoms.clear()
    bad.total_mass = 0.0
    with pytest.raises(ValueError):
        mvpp_forest(bad, walk_kernel_rademacher(), 5, s)


# ---------------------------------------------------------------------------
# kappa-discrete
# ---------------------------------------------------------------------------


def test_kdiscrete_leaf_counts_and_mass():
    kern = KDiscreteKernel.from_offsets((0, 1, 1))
    s = derive_stream(30, 12)
    for n in (0, 1, 5):
        rep = mvpp_kdiscrete(AtomicMeasure([(0, 1 / 3)]), kern, n, s)
        assert len(rep.tree.leaf_list) == 1 + 2 * n
        assert rep.total_mass == pytest.approx((1 + 2 * n) / 3)
        mat = rep.represented_measure()
        assert mat.total_mass == pytest.approx((1 + 2 * n) / 3, abs=1e-12)


def test_kdiscrete_exact_law_n2():
    kern = KDiscreteKernel.from_offsets((0, 1))
    ref = oracle.exact_kdiscrete_leaf_law(kern, 2, 0).probs
    s = derive_stream(30, 13)
    reps = 40_000
    counts = Counter()
    for _ in range(reps):
        rep = mvpp_kdiscrete(AtomicMeasure([(0, 0.5)]), kern, 2, s)
        counts[tuple(sorted(rep.labels[u] for u in rep.tree.leaf_list))] += 1
    for k, p in ref.items():
        assert abs(counts[k] / reps - p) <= 3 * math.sqrt(p * (1 - p) / reps)


def test_kdiscrete_weight_granularity():
    kern = KDiscreteKernel.from_offsets((0, 1))
    s = derive_stream(30, 14)
    with pytest.raises(ValueError, match="multiple"):
        mvpp_kdiscrete(AtomicMeasure([(0, 0.3)]), kern, 1, s)


def test_kdiscrete_branch_labels_are_markov():
    # along any branch the labels follow the kernel: label jumps by an atom
    kern = KDiscreteKernel.from_offsets((1, 1, 2))
    s = derive_stream(30, 15)
    rep = mvpp_kdiscrete(AtomicMeasure([(0, 1 / 3)]), kern, 50, s)
    t = rep.tree
    for u in range(1, t.n_nodes):
        assert rep.labels[u] - rep.labels[t.parent[u]] in (1, 2)


# ---------------------------------------------------------------------------
# sampling from the urn
# ---------------------------------------------------------------------------


def test_sample_pair_requires_steps():
    s = derive_stream(30, 16)
    rep = mvpp_via_rrt(DELTA0, walk_kernel_constant(1.0), 0, s)
    with pytest.raises(ValueError):
        sample_pair(rep, s)


def test_sample_pair_deterministic_kernel_n1():
    # marginal = uniform over the two packets pushed through the +1 kernel
    kern = walk_kernel_constant(1.0)
    s = derive_stream(30, 17)
    rep = mvpp_via_rrt(DELTA0, kern, 1, s)
    expected = sorted([rep.labels[0] + 1.0, rep.labels[1] + 1.0])
    counts = Counter()
    for _ in range(20_000):
        a, b = sample_pair(rep, s)
        counts[a] += 1
        counts[b] += 1
    support = sorted(counts)
    assert support == sorted(set(expected))
    if len(support) == 2:
        assert abs(counts[support[0]] / 40_000 - 0.5) < 0.01


def test_sample_pair_exchangeable():
    s = derive_stream(30, 18)
    rep = mvpp_via_rrt(M0_HALF, KERN2, 30, s)
    fwd = Counter()
    rev = Counter()
    for _ in range(30_000):
        a, b = sample_pair(rep, s)
        fwd[(a, b)] += 1
        rev[(b, a)] += 1
    _, _, p = stats.chi_square_two_sample(fwd, rev)
    assert p > 0.01


@pytest.mark.parametrize("form", ["direct", "rrt", "bst"])
def test_sample_pair_law_is_the_same_in_every_form(form):
    # +1 walk from delta_0, n = 2: the packets are m0, R_0 = delta_1 and R_c
    # with c uniform on {0, 1}, so a pair draw reads 2 with probability 1/6
    build = {"direct": mvpp_direct, "rrt": mvpp_via_rrt, "bst": mvpp_via_bst}[form]
    kern = walk_kernel_constant(1.0)
    s = derive_stream(32, ("direct", "rrt", "bst").index(form))
    reps = 40_000
    twos = 0
    for _ in range(reps):
        a, b = sample_pair(build(DELTA0, kern, 2, s), s)
        assert {a, b} <= {1.0, 2.0}
        twos += (a == 2.0) + (b == 2.0)
    # a and b share an urn, so the tolerance counts urns, not draws
    assert abs(twos / (2 * reps) - 1 / 6) <= 4 * math.sqrt(1 / 6 * 5 / 6 / reps)


def test_sample_colour_matches_direct_law():
    # exact draws from tree urns agree with the trace form (two-sample KS)
    inc = RademacherIncrement()
    n, reps = 100, 4000
    s = derive_stream(30, 19)
    scalar = []
    for _ in range(reps):
        rep = mvpp_via_rrt(DELTA0, walk_kernel_rademacher(), n, s)
        scalar.append(sample_colour(rep, s))
    lab = batch_rrt_walk_labels(n, reps, inc, s)
    flags = np.zeros(lab.shape, dtype=bool)
    flags[:, 0] = True
    batch = batch_exact_colour_samples(lab, flags, inc, s)
    crit = stats.ks_two_sample_critical(0.01, reps, reps)
    assert stats.ks_two_sample(np.array(scalar), batch) < crit


def test_sample_colour_trace_and_kary():
    s = derive_stream(30, 20)
    trace = mvpp_direct(M0_HALF, KERN2, 20, s)
    draws = Counter(sample_colour(trace, s) for _ in range(2000))
    assert set(draws) <= {0, 1}
    kern = KDiscreteKernel.from_offsets((0, 1))
    rep = mvpp_kdiscrete(AtomicMeasure([(0, 0.5)]), kern, 10, s)
    leaf_labels = {rep.labels[u] for u in rep.tree.leaf_list}
    assert all(sample_colour(rep, s) in leaf_labels for _ in range(50))


def test_pair_decorrelation_across_urns():
    # one pair per independent urn; bounded test function correlation small
    inc = RademacherIncrement()
    n, reps = 10_000, 10_000
    s = derive_stream(30, 21)
    a_vals = np.empty(reps)
    b_vals = np.empty(reps)
    done = 0
    while done < reps:
        take = min(1000, reps - done)
        lab = batch_rrt_walk_labels(n, take, inc, s)
        rows = np.arange(take)
        iu = s.integers(0, n + 1, take)
        iv = s.integers(0, n + 1, take)
        a_vals[done : done + take] = lab[rows, iu] + inc.draw_many(s, take)
        b_vals[done : done + take] = lab[rows, iv] + inc.draw_many(s, take)
        done += take
    scale = math.sqrt(math.log(n))
    corr = np.corrcoef(np.cos(a_vals / scale), np.cos(b_vals / scale))[0, 1]
    assert abs(corr) <= 0.05


# ---------------------------------------------------------------------------
# batch helpers against scalar law
# ---------------------------------------------------------------------------


def test_batch_direct_matches_scalar_direct():
    inc = RademacherIncrement()
    n, reps = 60, 4000
    s = derive_stream(30, 22)
    scalar = np.array(
        [mvpp_direct(DELTA0, walk_kernel_rademacher(), n, s).drawn[-1] for _ in range(reps)]
    )
    batch = batch_direct_walk_colours(n, reps, inc, s)[:, -1]
    crit = stats.ks_two_sample_critical(0.01, reps, reps)
    assert stats.ks_two_sample(scalar, batch) < crit


def test_batch_bst_matches_scalar_bst():
    inc = RademacherIncrement()
    n, reps = 60, 4000
    s = derive_stream(30, 23)
    scalar = []
    for _ in range(reps):
        rep = mvpp_via_bst(DELTA0, walk_kernel_rademacher(), n, s)
        colours = sorted(rep.labels[u] for u in rep.tree.leaf_list if not rep.m0_flags[u])
        scalar.append(colours[len(colours) // 2])
    bcol, bflags = batch_bst_walk_leaf_colours(n, reps, inc, s)
    batch = np.sort(np.where(bflags, np.nan, bcol), axis=1)  # m0 leaf sorts last
    batch_med = batch[:, n // 2]
    crit = stats.ks_two_sample_critical(0.01, reps, reps)
    assert stats.ks_two_sample(np.array(scalar), batch_med) < crit


def test_batch_kary_shift_depth_mean():
    s = derive_stream(30, 24)
    lab = batch_kary_shift_leaf_labels(200, 50, 3, s)
    # mean leaf depth grows like beta log n with beta = 1.5
    assert 1.1 <= lab.mean() / math.log(200) <= 1.9


def _kary_split_loop(n, reps, kappa, s):
    """Split by split: one uniform slot per replica gains 1, and kappa-1 new
    slots take its new label."""
    labels = np.zeros((reps, 1 + n * (kappa - 1)), dtype=np.int32)
    rows = np.arange(reps)
    for k in range(n):
        size = 1 + k * (kappa - 1)
        idx = s.integers(0, size, reps)
        v = labels[rows, idx] + 1
        labels[rows, idx] = v
        labels[:, size : size + kappa - 1] = v[:, None]
    return labels


@pytest.mark.parametrize(
    "kappa, n, reps",
    [(kappa, n, 5) for kappa in (2, 3, 5) for n in (0, 1, 2, 7, 1000)] + [(3, 100_000, 4)],
)
def test_kary_event_tree_equals_the_split_by_split_loop(kappa, n, reps):
    s, ref_s = derive_stream(32, n + kappa), derive_stream(32, n + kappa)
    lab = batch_kary_shift_leaf_labels(n, reps, kappa, s)
    ref = _kary_split_loop(n, reps, kappa, ref_s)
    assert lab.dtype == ref.dtype
    assert np.array_equal(lab, ref)
    assert np.array_equal(s.uniforms(4), ref_s.uniforms(4))  # the same draws consumed


def test_batch_kary_labels_peak_memory_near_output():
    s = derive_stream(32, 1)
    tracemalloc.start()
    try:
        lab = batch_kary_shift_leaf_labels(100_000, 4, 3, s)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * lab.nbytes


def test_batch_bmc_differs_from_coupling_at_root_children():
    inc = RademacherIncrement()
    s = derive_stream(30, 25)
    bmc = batch_bmc_walk_labels(1, 2000, inc, s)
    coup = batch_rrt_walk_labels(1, 2000, inc, s)
    # the single child of the root: a kernel step in the walk, a fresh
    # initial draw (always 0 here) in the urn coupling
    assert set(np.unique(np.abs(bmc[:, 1]))) == {1.0}
    assert set(np.unique(coup[:, 1])) == {0.0}


# ---------------------------------------------------------------------------
# windowed uniform-attachment engine
# ---------------------------------------------------------------------------


class _RecordingStream:
    """A real stream that logs a copy of every uniform block it hands out."""

    def __init__(self, s):
        self.s = s
        self.log = []

    def uniforms(self, size):
        u = self.s.uniforms(size)
        self.log.append(("uniforms", u.copy()))  # the engine scales it in place
        return u


class _RecordingIncrement:
    """An increment whose draws come from the recorded stream's real stream
    and are logged in the same order."""

    def __init__(self, inc):
        self.inc = inc

    def draw_many(self, s, size):
        v = self.inc.draw_many(s.s, size)
        s.log.append(("own", v))
        return v


def _windows(n):
    lo, out = 1, []
    while lo <= n:
        hi = min(max(int(WINDOW_RATIO * lo), lo + 1), n + 1)
        out.append((lo, hi))
        lo = hi
    return out


def _naive_path_sums(out, log, m0_atom_of=None):
    """Node-by-node recursion fed the logged draws: out[:, k] = own[:, k] +
    out[:, parent], or a fresh initial draw at the root's children."""
    reps, n1 = out.shape
    rows = np.arange(reps)
    events = iter(log)
    for lo, hi in _windows(n1 - 1):
        w = hi - lo
        kind, u = next(events)
        assert kind == "uniforms" and u.size == reps * w
        par = (u.reshape(reps, w) * np.arange(lo, hi)).astype(np.int64)
        kind, v = next(events)
        assert kind == "own"
        own = v.reshape(reps, w)
        fresh = np.zeros((reps, w))
        if m0_atom_of is not None and (par == 0).any():
            kind, v = next(events)
            assert kind == "uniforms" and v.size == (par == 0).sum()
            fresh[par == 0] = m0_atom_of(v)
        for j in range(w):
            new = own[:, j] + out[rows, par[:, j]]
            if m0_atom_of is not None:
                at_root = par[:, j] == 0
                new[at_root] = fresh[at_root, j]
            out[:, lo + j] = new
    assert next(events, None) is None
    return out


@pytest.mark.parametrize("kind", ["float", "complex", "int32"])
@pytest.mark.parametrize("n, reps", [(100_000, 16), (1000, 3000), (0, 5), (1, 5), (2, 5)])
def test_path_sums_equal_the_node_by_node_recursion(kind, n, reps):
    s = _RecordingStream(derive_stream(31, n + reps))
    dtype, inc = {
        "float": (float, NormalIncrement(0.5, 2.0)),
        "complex": (complex, _ComplexNormalIncrement()),
        "int32": (np.int32, ConstantIncrement(1)),  # depths: path sums of +1
    }[kind]
    out = np.zeros((reps, n + 1), dtype=dtype)
    out[:, 0] = np.arange(reps)  # distinct roots
    start = out.copy()
    _attach_path_sums(out, s, _RecordingIncrement(inc))
    ref = _naive_path_sums(start, s.log)
    assert out.dtype == ref.dtype
    assert np.array_equal(out, ref)


def test_urn_labels_equal_the_recursion_with_fresh_root_children():
    # two-atom initial measure: the root and every root child take a fresh
    # uniform draw, atom 0 below 1/2 and atom 1 above
    n, reps = 3000, 40
    s = _RecordingStream(derive_stream(31, 1))
    lab = batch_rrt_walk_labels(n, reps, _RecordingIncrement(RademacherIncrement()), s, m0=M0_HALF)
    kind, u_root = s.log[0]
    assert kind == "uniforms" and u_root.size == reps
    atom_of = lambda u: (u >= 0.5).astype(float)
    start = np.zeros((reps, n + 1))
    start[:, 0] = atom_of(u_root)
    ref = _naive_path_sums(start, s.log[1:], m0_atom_of=atom_of)
    assert np.array_equal(lab, ref)
    assert (lab[:, 1] == lab[:, 1].astype(int)).all()  # node 1 is always a root child


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_batch_depths_match_exact_law(n):
    reps = 100_000
    ref = oracle.exact_rrt_joint_depths(n).marginal(lambda o: o[0]).probs
    s = derive_stream(31, 100 + n)
    dep = batch_rrt_depths(n, reps, s)
    picked = dep[np.arange(reps), s.integers(0, n + 1, reps)]
    tv = stats.total_variation(stats.counts_to_pmf(Counter(picked.tolist())), ref)
    assert tv <= _tv_threshold(ref, reps)


def test_batch_walk_labels_match_scalar_rrt():
    n, reps = 200, 2000
    s = derive_stream(31, 200)
    scalar = [mvpp_via_rrt(DELTA0, walk_kernel_normal(), n, s).labels for _ in range(reps)]
    batch = batch_rrt_walk_labels(n, reps, NormalIncrement(0.0, 1.0), s, m0=DELTA0)
    crit = stats.ks_two_sample_critical(0.01, reps, reps)
    assert stats.ks_two_sample(np.array([lab[-1] for lab in scalar]), batch[:, -1]) < crit
    # the tree maximum depends on the joint law of all labels
    assert stats.ks_two_sample(np.array([max(lab) for lab in scalar]), batch.max(axis=1)) < crit


def test_batch_walk_labels_peak_memory_near_output():
    s = derive_stream(31, 300)
    tracemalloc.start()
    try:
        lab = batch_rrt_walk_labels(100_000, 16, NormalIncrement(0.0, 1.0), s)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * lab.nbytes


# ---------------------------------------------------------------------------
# theorem pipeline
# ---------------------------------------------------------------------------


def test_composite_reference_reductions():
    assert composite_reference(plan_brw(0.0, 1.0)).var == pytest.approx(1.0)
    # deterministic +1 walk: reference is standard normal (profile case)
    ref = composite_reference(plan_brw(1.0, 0.0))
    assert isinstance(ref, stats.Normal) and ref.var == pytest.approx(1.0)
    # mean 1, var 1: G + f(L) = G + L ~ N(0, 2)
    assert composite_reference(plan_brw(1.0, 1.0)).var == pytest.approx(2.0)


def test_verify_main_theorem_walk_smoke():
    s = derive_stream(30, 26)
    rep = verify_main_theorem(
        walk_kernel_rademacher(), plan_brw(0.0, 1.0), DELTA0, [2000], 800, s, urns=8,
    )
    entry = rep["results"][0]
    assert entry["n"] == 2000
    assert entry["ks"] is not None and entry["ks"] < 0.2
    assert abs(entry["decorrelation"]) < 0.2
    assert entry["pass"] == (entry["ks"] <= KS_GATE)


def test_verify_main_theorem_mminf_branch():
    s = derive_stream(30, 27)
    rep = verify_main_theorem(
        MMInfQueueKernel(1.0, 1.0),
        plan_ergodic(stats.Poisson(1.0)),
        AtomicMeasure([(0, 1.0)]),
        [500],
        100,
        s,
    )
    entry = rep["results"][0]
    assert entry["tv"] is not None and entry["tv"] <= 0.5
    assert entry["pass"] == (entry["tv"] <= TV_GATE)


def test_verify_main_theorem_kdiscrete_branch():
    s = derive_stream(30, 28)
    rep = verify_main_theorem(
        KDiscreteKernel.from_offsets((1, 1)),
        plan_kdiscrete_shift(),
        AtomicMeasure([(0, 0.5)]),
        [500],
        400,
        s,
    )
    entry = rep["results"][0]
    assert entry["ks"] is not None and entry["ks"] <= 0.25
    assert entry["pass"] == (entry["ks"] <= KS_GATE)


def test_verify_main_theorem_rejects_a_zero_scale():
    s = derive_stream(30, 29)
    walks = (
        (walk_kernel_rademacher(), plan_brw(0.0, 1.0), DELTA0),
        (walk_kernel_stable(1.5), plan_stable(1.5), DELTA0),
        (KDiscreteKernel.from_offsets((1, 1)), plan_kdiscrete_shift(), AtomicMeasure([(0, 0.5)])),
    )
    for kernel, plan, m0 in walks:  # a(log 1) = 0: every rescaled sample would be infinite
        with pytest.raises(ValueError, match="n_grid point n=1"):
            verify_main_theorem(kernel, plan, m0, [1, 10], 100, s)
    # the ergodic plan does not rescale, so n = 1 is a valid grid point
    queue = MMInfQueueKernel(1.0, 1.0)
    rep = verify_main_theorem(queue, plan_ergodic(stats.Poisson(1.0)), AtomicMeasure([(0, 1.0)]), [1, 10], 1, s)
    assert [e["n"] for e in rep["results"]] == [1, 10]


@pytest.mark.parametrize("mass", [0.5, 2.0])
def test_verify_main_theorem_walk_routes_need_unit_mass(mass):
    # the walk and stable routes grow recursive trees, which carry an initial
    # packet of mass 1; any other mass would simulate a different urn
    s = derive_stream(30, 30)
    m0 = AtomicMeasure([(0.0, mass)])
    for kernel, plan in ((walk_kernel_rademacher(), plan_brw(0.0, 1.0)), (walk_kernel_stable(1.5), plan_stable(1.5))):
        with pytest.raises(ValueError, match="mass 1"):
            verify_main_theorem(kernel, plan, m0, [10], 100, s)
