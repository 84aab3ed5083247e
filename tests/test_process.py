import hashlib
import json
import math
import tracemalloc
from collections import Counter
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvpp import oracle, stats
from mvpp.kernels import (
    ConstantIncrement,
    DColourKernel,
    KDiscreteKernel,
    MMInfQueueKernel,
    NormalIncrement,
    RademacherIncrement,
    RandomWalkKernel,
    walk_kernel_constant,
    walk_kernel_normal,
    walk_kernel_rademacher,
    walk_kernel_stable,
)
from mvpp.measures import AtomicMeasure, normalize, sample_atom
from mvpp.process import (
    KS_GATE,
    TV_GATE,
    WINDOW_RATIO,
    _attach_path_sums,
    _bernoulli_places,
    batch_bmc_walk_labels,
    batch_bst_walk_genealogy,
    batch_direct_trace,
    batch_direct_walk_genealogy,
    batch_exact_colour_samples,
    batch_kary_leaf_labels,
    batch_rrt_depths,
    batch_rrt_walk_labels,
    batch_walk_pairs,
    draw_walk_pairs,
    genealogy_labels,
    mvpp_direct,
    mvpp_forest,
    mvpp_kdiscrete,
    mvpp_via_bst,
    mvpp_via_rrt,
    _generations,
    _m0_sampler_np,
    sample_colour,
    sample_pair,
    sample_tree_nodes,
    verify_main_theorem,
    UrnTrace,
)
from mvpp.randomness import RngStream, derive_stream
from mvpp.trees import parent_depths, rrt_parents
from mvpp.verify import _ComplexNormalIncrement, _coupling_samples, _forest_sizes, _lattice_dtype, _tv_threshold
from mvpp.verify import M0_POINT

M0_HALF = AtomicMeasure([(0, 0.5), (1, 0.5)])
KERN2 = DColourKernel([[0.5, 0.5], [0.25, 0.75]])
DELTA0 = AtomicMeasure([(0.0, 1.0)])


def _flat_state(state):
    return {k: _flat_state(v) if isinstance(v, dict) else np.asarray(v).tolist() for k, v in state.items()}


def _assert_same_state(s, ref_s):
    """Both streams are at the same place: the whole Philox state, with the
    32-bit half-word that integers() keeps buffered (has_uint32, uinteger),
    which uniforms() skips and so cannot tell apart."""
    assert _flat_state(s._gen.bit_generator.state) == _flat_state(ref_s._gen.bit_generator.state)


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
        assert rep.n == n
        assert rep.represented_measure().total_mass == pytest.approx(rep.total_mass, abs=1e-9)


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


@pytest.mark.parametrize("weights", [[1.0, 1.0], [1.0, 1.0, 0.5]])
def test_batched_forest_sizes_follow_the_forest_coupling(weights):
    # criterion 9 scores the size-only model verify._forest_sizes: each
    # tree's node count must follow the forest coupling's (the constant walk
    # kernel draws nothing)
    n, reps = 100, 1000
    s = derive_stream(34, len(weights))
    m0 = AtomicMeasure([(0.0, sum(weights))])
    scalar = np.array([[t.n_nodes for t in mvpp_forest(m0, walk_kernel_constant(1.0), n, s).trees] for _ in range(reps)])
    batched = _forest_sizes(weights, n, reps, s) - np.array(weights) + 1
    crit = stats.ks_two_sample_critical(0.01, reps, reps)
    for tree in range(len(weights)):
        assert stats.ks_two_sample(scalar[:, tree], batched[:, tree]) < crit


def _forest_sizes_step_by_step(weights, n, reps, s):
    """The one-uniforms-call-per-step loop that verify._forest_sizes settles a
    window at a time."""
    w = np.tile(np.asarray(weights, dtype=float), (reps, 1))
    rows, mass = np.arange(reps), float(sum(weights))
    for k in range(n):
        u = s.uniforms(reps) * (mass + k)
        tree = (u[:, None] >= np.cumsum(w[:, :-1], axis=1)).sum(axis=1)
        w[rows, tree] += 1
    return w


@pytest.mark.parametrize("weights", [[1.0], [0.5], [1.0, 1.0], [1.0, 1.0, 0.5], [1.0, 1.0, 1.0, 0.25], [0.3, 0.7]])
@pytest.mark.parametrize("n", [0, 1, 2, 15, 16, 17, 40, 3000])
def test_windowed_forest_sizes_equal_the_step_loop(weights, n):
    # the same draws in the same order, the same float64 sizes, bit for bit,
    # and the stream left at the same place
    for reps in (1, 7, 300):
        a, b = derive_stream(35, n + reps), derive_stream(35, n + reps)
        assert np.array_equal(_forest_sizes(weights, n, reps, a), _forest_sizes_step_by_step(weights, n, reps, b))
        assert np.array_equal(a.uniforms(3), b.uniforms(3))


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
    kern = KDiscreteKernel((0, 1, 1))
    s = derive_stream(30, 12)
    for n in (0, 1, 5):
        rep = mvpp_kdiscrete(AtomicMeasure([(0, 1 / 3)]), kern, n, s)
        assert rep.n == n
        assert len(rep.tree.leaf_list) == 1 + 2 * n
        assert rep.total_mass == pytest.approx((1 + 2 * n) / 3)
        mat = rep.represented_measure()
        assert mat.total_mass == pytest.approx((1 + 2 * n) / 3, abs=1e-12)


def test_kdiscrete_exact_law_n2():
    kern = KDiscreteKernel((0, 1))
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
    kern = KDiscreteKernel((0, 1))
    s = derive_stream(30, 14)
    with pytest.raises(ValueError, match="one atom of weight 1/2"):
        mvpp_kdiscrete(AtomicMeasure([(0, 0.3)]), kern, 1, s)


@pytest.mark.parametrize("atoms", [[(0, 1.0)], [(0, 0.5), (5, 0.5)]])
def test_kdiscrete_urn_grows_from_one_ball(atoms):
    # the urn grows one tree from one ball; from 0:1 it used to return leaves
    # [1, 1] where exact_urn_law keeps both balls: {(0, 1), (1, 2)}
    kern, m0, s = KDiscreteKernel((1, 1)), AtomicMeasure(atoms), derive_stream(30, 31)
    with pytest.raises(ValueError, match="one ball"):
        mvpp_kdiscrete(m0, kern, 1, s)
    with pytest.raises(ValueError, match="one ball"):
        verify_main_theorem(kern, m0, [10], 100, s)


def test_kdiscrete_branch_labels_are_markov():
    # along any branch the labels follow the kernel: label jumps by an atom
    kern = KDiscreteKernel((1, 1, 2))
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
    n, reps = 100, 4000
    s = derive_stream(30, 19)
    scalar = []
    for _ in range(reps):
        rep = mvpp_via_rrt(DELTA0, walk_kernel_rademacher(), n, s)
        scalar.append(sample_colour(rep, s))
    _, batch, _ = _coupling_samples(n, reps, s)  # the recursive-tree leg
    crit = stats.ks_two_sample_critical(0.01, reps, reps)
    assert stats.ks_two_sample(np.array(scalar), batch) < crit


def test_sample_colour_trace_and_kary():
    s = derive_stream(30, 20)
    trace = mvpp_direct(M0_HALF, KERN2, 20, s)
    draws = Counter(sample_colour(trace, s) for _ in range(2000))
    assert set(draws) <= {0, 1}
    kern = KDiscreteKernel((0, 1))
    rep = mvpp_kdiscrete(AtomicMeasure([(0, 0.5)]), kern, 10, s)
    leaf_labels = {rep.labels[u] for u in rep.tree.leaf_list}
    assert all(sample_colour(rep, s) in leaf_labels for _ in range(50))


def test_pair_decorrelation_across_urns():
    # one pair per independent urn; bounded test function correlation small.
    # Each urn's two labels are read off their ancestor chains by the sampler
    inc = RademacherIncrement()
    n, reps = 10_000, 10_000
    s = derive_stream(30, 21)
    a_vals, b_vals = np.split(draw_walk_pairs(reps, n + 1, reps, inc, s, lambda idx: sample_tree_nodes(n, idx, inc, s)), 2)
    scale = math.sqrt(math.log(n))
    corr = np.corrcoef(np.cos(a_vals / scale), np.cos(b_vals / scale))[0, 1]
    assert abs(corr) <= 0.05


# ---------------------------------------------------------------------------
# ancestor-chain sampler
# ---------------------------------------------------------------------------


def _chain_walk_reference(n, nodes, increment, s, m0=None):
    """sample_tree_nodes one key at a time: the same draws in the same order
    (picked roots' m0 draws; per round the open keys' parents, increments and
    root children's m0 draws), then labels in ascending key order, where every
    parent comes before its children."""
    m0_draw = _m0_sampler_np(m0)
    keys = sorted({(r, int(v)) for r, row in enumerate(nodes) for v in row})
    roots = [k for k in keys if k[1] == 0]
    label = dict(zip(roots, m0_draw(s, len(roots)).tolist() if roots else []))
    parent, own = {}, {}
    live, seen = [k for k in keys if k[1] > 0], set(keys)
    while live:
        par = s.integers(0, [v for _, v in live], len(live)).tolist()
        steps = np.asarray(increment.draw_many(s, len(live)), dtype=float).tolist()
        fresh = iter(m0_draw(s, par.count(0)).tolist() if 0 in par else [])
        for (r, v), p, step in zip(live, par, steps):
            parent[r, v], own[r, v] = (r, p), next(fresh) if p == 0 else step
        live = sorted({(r, p) for (r, _), p in zip(live, par) if p > 0} - seen)
        seen.update(live)
    for k in sorted(parent):
        label[k] = own[k] if parent[k][1] == 0 else own[k] + label[parent[k]]
    return np.array([[label[r, int(v)] for v in row] for r, row in enumerate(nodes)]).reshape(np.shape(nodes))


M0_TWO = AtomicMeasure([(-1.0, 0.5), (2.0, 0.5)])


@pytest.mark.parametrize("n, urns, k", [(0, 3, 2), (1, 4, 3), (2, 5, 1), (30, 50, 6), (10**12, 7, 4)])
@pytest.mark.parametrize("m0", [None, M0_TWO])
def test_chain_sampler_makes_the_reference_draws(n, urns, k, m0):
    s, ref_s = derive_stream(35, n + k), derive_stream(35, n + k)
    nodes = s.integers(0, n + 1, (urns, k))
    nodes[:, -1] = nodes[:, 0]  # a node picked twice
    nodes[0, 0] = 0  # and a picked root
    ref_nodes = ref_s.integers(0, n + 1, (urns, k))
    ref_nodes[:, -1], ref_nodes[0, 0] = ref_nodes[:, 0], 0
    inc = NormalIncrement(0.5, 2.0)
    got = sample_tree_nodes(n, nodes, inc, s, m0=m0)
    ref = _chain_walk_reference(n, ref_nodes, inc, ref_s, m0=m0)
    assert got.shape == (urns, k) and got.dtype == np.float64
    assert np.array_equal(got, ref)
    _assert_same_state(s, ref_s)  # the stream ends where the reference's does


def _sample_tree_nodes_sorted(n, nodes, increment, s, m0=None, dtype=float):
    """sample_tree_nodes by keys, not slots: every key drawn for is argsorted
    at the end, and each parent and each picked node is found by a binary
    search among them.  The same draws in the same order."""

    def distinct(keys):
        keys = np.sort(keys, axis=None)
        return keys[np.diff(keys, prepend=-1) != 0]

    nodes = np.asarray(nodes, dtype=np.int64)
    urns = nodes.shape[0]
    m0_draw = _m0_sampler_np(m0)
    want = nodes + (n + 1) * np.arange(urns)[:, None]
    seen = distinct(want)
    live = seen[seen % (n + 1) != 0]
    roots = seen[seen % (n + 1) == 0]
    rounds = [(roots, roots, m0_draw(s, roots.size) if roots.size else np.empty(0))]
    while live.size:
        node = live % (n + 1)
        par = s.integers(0, node, live.size)
        own = np.empty(live.size, dtype=dtype)
        own[...] = increment.draw_many(s, live.size)
        at_root = par == 0
        if at_root.any():
            own[at_root] = m0_draw(s, int(at_root.sum()))
        par += live - node
        rounds.append((live, np.where(at_root, live, par), own))
        live = distinct(par[~at_root])
        at = np.minimum(np.searchsorted(seen, live), seen.size - 1)
        live = live[seen[at] != live]
        seen = np.sort(np.concatenate([seen, live]), kind="stable")
    key, par, own = (np.concatenate(x) for x in zip(*rounds))
    order = np.argsort(key)
    key, own = key[order], own[order].astype(dtype, copy=False)
    par = np.searchsorted(key, par[order])
    label = own.copy()
    for at in _generations(parent_depths(par[None])[0])[1:]:
        label[at] += label[par[at]]
    return label[np.searchsorted(key, want)]


@pytest.mark.parametrize(
    "n, urns, k, inc, m0, dtype",
    [
        (10**5, 16, 1250, NormalIncrement(0.0, 1.0), M0_POINT, float),  # the walk route's shape
        (1000, 10_000, 1, RademacherIncrement(), None, np.int16),  # the recursive-tree coupling leg's
        (10**12, 1, 20_000, ConstantIncrement(1), AtomicMeasure([(1, 1.0)]), np.int64),  # one tree's depths
        (3000, 4, 2000, NormalIncrement(0.0, 1.0), M0_POINT, float),  # most chains meet earlier ones
    ],
    ids=["walk-route", "coupling-leg", "one-tree-1e12", "meeting-chains"],
)
def test_chain_sampler_equals_the_key_sorted_form(n, urns, k, inc, m0, dtype):
    # the slot bookkeeping gives the same bits and leaves the stream where
    # sorting every key and searching among them does
    s, ref_s = derive_stream(36, urns), derive_stream(36, urns)
    nodes = s.integers(0, n + 1, (urns, k))
    assert np.array_equal(nodes, ref_s.integers(0, n + 1, (urns, k)))
    got = sample_tree_nodes(n, nodes, inc, s, m0=m0, dtype=dtype)
    ref = _sample_tree_nodes_sorted(n, nodes, inc, ref_s, m0=m0, dtype=dtype)
    assert got.dtype == ref.dtype == dtype and got.shape == (urns, k)
    assert np.array_equal(got.view(np.uint8), ref.view(np.uint8))
    _assert_same_state(s, ref_s)


@pytest.mark.parametrize(
    "nodes, match",
    [
        ([3, 4], "2-d"),
        ([[[3, 4]]], "2-d"),
        ([[3, 11], [1, 2]], r"0\.\.10"),  # node 11 of urn 0 would be urn 1's root
        ([[3, 4], [-1, 2]], r"0\.\.10"),
    ],
    ids=["1-d", "3-d", "beyond-n", "negative"],
)
def test_chain_sampler_rejects_bad_nodes_before_any_draw(nodes, match):
    s, ref_s = derive_stream(35, 301), derive_stream(35, 301)
    with pytest.raises(ValueError, match=match):
        sample_tree_nodes(10, nodes, NormalIncrement(0.0, 1.0), s)
    _assert_same_state(s, ref_s)


@pytest.mark.parametrize("dtype", [np.int16, complex])
def test_chain_sampler_gives_a_node_picked_twice_one_label(dtype):
    s = derive_stream(35, 1)
    nodes = s.integers(0, 1001, (200, 3))
    nodes[:, 2] = nodes[:, 0]
    inc = RademacherIncrement() if dtype is np.int16 else _ComplexNormalIncrement()
    lab = sample_tree_nodes(1000, nodes, inc, s, dtype=dtype)
    assert lab.dtype == dtype and np.array_equal(lab[:, 2], lab[:, 0])
    assert not np.array_equal(lab[:, 1], lab[:, 0])


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_chain_sampler_depths_match_exact_law(n):
    # constant +1 steps from m0 = delta_1 give every non-root node its depth
    # (a root child's fresh draw is 1, as a step off the root would be), and
    # node 0 is the root
    reps = 100_000
    ref = oracle.exact_rrt_joint_depths(n).marginal(lambda o: (o[0], o[1])).probs
    s = derive_stream(35, 100 + n)
    nodes = s.integers(0, n + 1, (reps, 2))
    lab = sample_tree_nodes(n, nodes, ConstantIncrement(1), s, m0=AtomicMeasure([(1, 1.0)]), dtype=np.int64)
    depth = np.where(nodes == 0, 0, lab)
    tv = stats.total_variation(stats.counts_to_pmf(Counter(map(tuple, depth.tolist()))), ref)
    assert tv <= _tv_threshold(ref, reps)


def _check_chain_pairs_follow_the_engine(n, urns, inc, s, dtype=float):
    """Labels a, b of two uniform nodes of one urn, against the same nodes of
    fully grown urns: a, a + b and a - b by two-sample KS."""
    full = batch_rrt_walk_labels(n, urns, inc, s, m0=M0_TWO, dtype=dtype)
    eng = np.take_along_axis(full, s.integers(0, n + 1, (urns, 2)), axis=1)
    del full
    lazy = sample_tree_nodes(n, s.integers(0, n + 1, (urns, 2)), inc, s, m0=M0_TWO, dtype=dtype)
    crit = stats.ks_two_sample_critical(0.01, urns, urns)
    for f in (lambda x: x[:, 0], lambda x: x.sum(axis=1), lambda x: x[:, 0] - x[:, 1]):
        assert stats.ks_two_sample(f(eng), f(lazy)) < crit


def test_chain_sampler_pairs_follow_the_engine():
    _check_chain_pairs_follow_the_engine(50, 20_000, NormalIncrement(0.5, 2.0), derive_stream(35, 200))


def test_chain_sampler_pairs_follow_the_engine_at_n_1000():
    # on packed +-1 steps and int16 labels; the engine's labels are
    # 20,000 x 1,001 int16, 40 MB
    _check_chain_pairs_follow_the_engine(1000, 20_000, RademacherIncrement(), derive_stream(35, 201), np.int16)


def test_chain_sampler_rejects_keys_beyond_int64():
    # urns * (n + 1) keys must fit in int64; neither call draws anything
    s, ref_s = derive_stream(35, 300), derive_stream(35, 300)
    inc = RademacherIncrement()
    for n, urns in ((2**62, 2), (2**63 - 1, 1)):
        with pytest.raises(ValueError, match="overflow the int64 node keys"):
            sample_tree_nodes(n, np.zeros((urns, 0), dtype=np.int64), inc, s)
    assert sample_tree_nodes(2**63 - 2, np.zeros((1, 0), dtype=np.int64), inc, s).shape == (1, 0)
    _assert_same_state(s, ref_s)


# ---------------------------------------------------------------------------
# batch helpers against scalar law
# ---------------------------------------------------------------------------


def test_batch_direct_matches_scalar_direct():
    n, reps = 60, 4000
    s = derive_stream(30, 22)
    scalar = np.array(
        [mvpp_direct(DELTA0, walk_kernel_rademacher(), n, s).drawn[-1] for _ in range(reps)]
    )
    batch = genealogy_labels(batch_direct_walk_genealogy(n, reps, s), np.full(reps, n))  # the last draw
    crit = stats.ks_two_sample_critical(0.01, reps, reps)
    assert stats.ks_two_sample(scalar, batch) < crit


def test_batch_bst_matches_scalar_bst():
    n, reps = 60, 4000
    s = derive_stream(30, 23)
    scalar = []
    for _ in range(reps):
        rep = mvpp_via_bst(DELTA0, walk_kernel_rademacher(), n, s)
        colours = sorted(rep.labels[u] for u in rep.tree.leaf_list if not rep.m0_flags[u])
        scalar.append(colours[len(colours) // 2])
    bcol = _every_label(batch_bst_walk_genealogy(n, reps, s)).astype(float)
    bcol[0] = np.nan  # the initial packet, the one m0 leaf, sorts last
    batch_med = np.sort(bcol, axis=0)[n // 2]
    crit = stats.ks_two_sample_critical(0.01, reps, reps)
    assert stats.ks_two_sample(np.array(scalar), batch_med) < crit


def test_batch_kary_shift_depth_mean():
    s = derive_stream(30, 24)
    lab = batch_kary_leaf_labels(200, 50, (1, 1, 1), s)
    # mean leaf depth grows like beta log n with beta = 1.5
    assert 1.1 <= lab.mean() / math.log(200) <= 1.9


def _direct_colour_loop(n, reps, increment, s):
    """Row-major direct leg: (reps, n) drawn colours, colour k in column k.
    Step 0 draws nothing (colour 0 is fresh); step k >= 1 draws the fresh
    urns' places, then a uniform past colour in the lattice dtype, then the
    step."""
    colours = np.zeros((reps, n), dtype=float)
    rows = np.arange(reps)
    for k in range(1, n):
        fresh = _bernoulli_places(1.0 / (1.0 + k), reps, s)
        idx = s.integers(0, k, reps, dtype=_lattice_dtype(n))
        new = colours[rows, idx] + increment.draw_many(s, reps)
        new[fresh] = 0.0
        colours[:, k] = new
    return colours


def _bst_leaf_loop(n, reps, increment, s):
    """Row-major binary leg: (reps, n+1) leaf colours and initial-packet flags;
    step k draws a uniform leaf of the k+1 present in the lattice dtype, then
    the step."""
    colours = np.zeros((reps, n + 1), dtype=float)
    flags = np.zeros((reps, n + 1), dtype=bool)
    flags[:, 0] = True
    rows = np.arange(reps)
    for k in range(n):
        idx = s.integers(0, k + 1, reps, dtype=_lattice_dtype(n))
        new = colours[rows, idx] + increment.draw_many(s, reps)
        new[flags[rows, idx]] = 0.0
        colours[:, k + 1] = new
    return colours, flags


def _every_label(genealogy):
    """(p, reps) labels of every packet, each walked up its own chain."""
    return genealogy_labels(genealogy, np.arange(genealogy.shape[0])[:, None])


def batch_direct_walk_colours(n, reps, increment, s, dtype=float):
    """(n+1, reps) colours of the direct-scheme leg, packet 0 the initial one:
    for float the reference loop, else the genealogy leg's labels walked up
    their chains in `dtype`. Both make the same draws."""
    if dtype is float:
        return np.vstack([np.zeros((1, reps)), _direct_colour_loop(n, reps, increment, s).T])
    return _every_label(batch_direct_walk_genealogy(n, reps, s).astype(dtype))


def batch_bst_walk_leaf_colours(n, reps, increment, s, dtype=float):
    """(n+1, reps) leaf colours of the binary-tree leg in leaf creation order,
    read as batch_direct_walk_colours reads the direct-scheme leg."""
    if dtype is float:
        return _bst_leaf_loop(n, reps, increment, s)[0].T
    return _every_label(batch_bst_walk_genealogy(n, reps, s).astype(dtype))


@pytest.mark.parametrize("n, reps", [(0, 3), (1, 3), (50, 300), (16_384, 2)])
def test_packet_major_legs_equal_the_row_major_loops(n, reps):
    # every packet of each genealogy leg, walked up its chain, carries the
    # label of the reference loop, in the lattice dtype; int32 past n = 16,383
    inc = RademacherIncrement()
    s, ref_s = derive_stream(33, n), derive_stream(33, n)
    direct = batch_direct_walk_genealogy(n, reps, s)
    ref = _direct_colour_loop(n, reps, inc, ref_s)
    assert direct.shape == (n + 1, reps) and direct.dtype == _lattice_dtype(n)
    lab = _every_label(direct)
    assert lab.dtype == direct.dtype
    assert np.array_equal(lab[0], np.zeros(reps))  # the initial packet
    assert np.array_equal(lab[1:].T, ref)
    _assert_same_state(s, ref_s)  # the same draws consumed
    bst = batch_bst_walk_genealogy(n, reps, s)
    ref, _ = _bst_leaf_loop(n, reps, inc, ref_s)
    assert bst.shape == (n + 1, reps) and bst.dtype == _lattice_dtype(n)
    assert np.array_equal(_every_label(bst).T, ref)
    _assert_same_state(s, ref_s)


def test_exact_colour_samples_of_packet_major_legs_equal_the_flagged_form():
    # the reference loop's labels with the initial packet flagged: a flagged
    # packet gives a fresh 0, any other its label plus one step
    inc = RademacherIncrement()
    n, reps = 50, 300
    rows = np.arange(reps)
    for grow in (batch_direct_walk_genealogy, batch_bst_walk_genealogy):
        s, ref_s = derive_stream(33, 99), derive_stream(33, 99)
        gen = grow(n, reps, s)
        if grow is batch_direct_walk_genealogy:
            ref_lab = np.hstack([np.zeros((reps, 1)), _direct_colour_loop(n, reps, inc, ref_s)])
            flags = np.broadcast_to(np.arange(n + 1) == 0, ref_lab.shape)
        else:
            ref_lab, flags = _bst_leaf_loop(n, reps, inc, ref_s)
        ref_idx = ref_s.integers(0, n + 1, reps)
        ref = ref_lab[rows, ref_idx] + inc.draw_many(ref_s, reps)
        ref[flags[rows, ref_idx]] = 0.0
        samples = batch_exact_colour_samples(n + 1, reps, partial(genealogy_labels, gen), inc, s)
        assert samples.dtype == np.float64 and np.array_equal(samples, ref)
        _assert_same_state(s, ref_s)


@pytest.mark.parametrize("dtype", [np.int16, np.int32])
@pytest.mark.parametrize("n, reps", [(0, 3), (1, 3), (50, 300)])
@pytest.mark.parametrize(
    "leg", [batch_direct_walk_colours, batch_bst_walk_leaf_colours, batch_bmc_walk_labels, batch_rrt_walk_labels]
)
def test_integer_legs_equal_the_float_legs(leg, n, reps, dtype):
    inc = RademacherIncrement()
    s, ref_s = derive_stream(34, n), derive_stream(34, n)
    got = leg(n, reps, inc, s, dtype=dtype)
    ref = leg(n, reps, inc, ref_s)
    assert got.dtype == dtype and ref.dtype == np.float64
    assert np.array_equal(got, ref)
    _assert_same_state(s, ref_s)  # the same draws consumed


def test_same_state_sees_the_buffered_half_word():
    # one int16 draw against three: uniforms() reads the next whole word on
    # both streams alike, but one has half a word left buffered
    s, ref_s = derive_stream(37, 3), derive_stream(37, 3)
    s.integers(0, 5, 1, dtype=np.int16)
    ref_s.integers(0, 5, 3, dtype=np.int16)
    with pytest.raises(AssertionError):
        _assert_same_state(s, ref_s)
    assert np.array_equal(s.uniforms(4), ref_s.uniforms(4))


@pytest.mark.parametrize("p, size", [(0.5, 40), (0.1, 100), (0.001, 3000)])
def test_bernoulli_places_count_is_binomial(p, size):
    s = derive_stream(37, size)
    counts = Counter(_bernoulli_places(p, size, s).size for _ in range(3000))
    pmf = {0: (1 - p) ** size}
    for c in range(size):  # Binomial(size, p) term by term
        pmf[c + 1] = pmf[c] * (size - c) / (c + 1) * p / (1 - p)
    assert stats.chi_square_pvalue(counts, pmf) > 0.001


def test_bernoulli_places_rise_strictly_and_lie_in_range():
    s = derive_stream(37, 1)
    assert np.array_equal(_bernoulli_places(1.0, 7, s), np.arange(7))  # p = 1: every place
    for p in (0.9, 0.5, 0.1, 0.01, 1e-4):
        for size in (1, 2, 17, 1000):
            at = _bernoulli_places(p, size, s)
            assert at.dtype == np.int64
            assert np.all(np.diff(at) > 0) and (at.size == 0 or (at[0] >= 0 and at[-1] < size))


def test_bernoulli_places_of_no_trials_draw_nothing():
    s, ref_s = derive_stream(37, 2), derive_stream(37, 2)
    s.integers(0, 5, 3, dtype=np.int16)  # leaves a buffered half-word
    ref_s.integers(0, 5, 3, dtype=np.int16)
    assert _bernoulli_places(0.5, 0, s).size == 0
    _assert_same_state(s, ref_s)


@pytest.mark.parametrize("n", [0, 1, 16_384])
@pytest.mark.parametrize("reps", [0, 3])
@pytest.mark.parametrize("grow", [batch_direct_walk_genealogy, batch_bst_walk_genealogy])
def test_genealogy_legs_keep_shape_and_dtype(grow, n, reps):
    gen = grow(n, reps, derive_stream(37, n + reps))
    assert gen.shape == (n + 1, reps) and gen.dtype == _lattice_dtype(n)
    assert not gen[:2].any()  # packet 0, and packet 1 off packet 0 or fresh
    assert np.all(np.abs(gen) <= np.arange(n + 1)[:, None])  # a parent comes first


def test_lattice_dtype_holds_the_labels_and_their_table_index():
    for n in (0, 1000, 16_383, 16_384, 10**6):
        top = np.iinfo(_lattice_dtype(n)).max
        assert 2 * n <= top  # lab + n for lab in [-n, n]
    assert _lattice_dtype(16_383) == np.int16 and _lattice_dtype(16_384) == np.int32


@pytest.mark.parametrize(
    "build",
    [
        lambda s: batch_direct_walk_genealogy(-1, 3, s),
        lambda s: batch_bst_walk_genealogy(-1, 3, s),
        lambda s: batch_bmc_walk_labels(-1, 3, RademacherIncrement(), s),
        lambda s: batch_rrt_walk_labels(-1, 3, RademacherIncrement(), s),
        lambda s: sample_tree_nodes(-1, np.zeros((3, 1), dtype=int), RademacherIncrement(), s),
        lambda s: batch_rrt_depths(-1, 3, s),
        lambda s: batch_kary_leaf_labels(-1, 3, (1, 1), s),
        lambda s: rrt_parents(-1, 2, s),
    ],
    ids=["direct", "bst", "bmc", "rrt", "rrt-nodes", "rrt-depths", "kary", "rrt-parents"],
)
def test_batch_builders_reject_a_negative_n(build):
    with pytest.raises(ValueError, match="n must be >= 0"):
        build(derive_stream(34, 1))


@pytest.mark.parametrize(
    "build, shape",
    [
        (lambda s: batch_direct_walk_genealogy(5, 0, s), (6, 0)),
        (lambda s: batch_bst_walk_genealogy(5, 0, s), (6, 0)),
        (lambda s: batch_bmc_walk_labels(5, 0, RademacherIncrement(), s), (0, 6)),
        (lambda s: batch_rrt_walk_labels(5, 0, NormalIncrement(0.0, 1.0), s, m0=M0_TWO), (0, 6)),
        (lambda s: sample_tree_nodes(5, np.zeros((0, 2), dtype=int), RademacherIncrement(), s), (0, 2)),
        (lambda s: batch_rrt_depths(5, 0, s), (0, 6)),
        (lambda s: batch_kary_leaf_labels(5, 0, (1, 1), s), (0, 6)),
        (lambda s: rrt_parents(5, 0, s), (0, 6)),
        (lambda s: batch_exact_colour_samples(6, 0, lambda idx: idx, RademacherIncrement(), s), (0,)),
    ],
    ids=["direct", "bst", "bmc", "rrt", "rrt-nodes", "rrt-depths", "kary", "rrt-parents", "exact-colours"],
)
def test_batch_builders_at_zero_reps_are_empty_and_draw_nothing(build, shape):
    s, ref_s = derive_stream(34, 2), derive_stream(34, 2)
    assert build(s).shape == shape
    _assert_same_state(s, ref_s)


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
    lab = batch_kary_leaf_labels(n, reps, (1,) * kappa, s)
    ref = _kary_split_loop(n, reps, kappa, ref_s)
    assert lab.dtype == ref.dtype
    assert np.array_equal(lab, ref)
    _assert_same_state(s, ref_s)  # the same draws consumed


def _kary_replica_loop(n, reps, offsets, s):
    """The event-tree labels one replica at a time: per replica one stable
    argsort of its split positions and one pointer-doubling pass.  It is the
    reference for the blocks' argsort of distinct keys position*n + time."""
    k1 = len(offsets) - 1
    offs = np.array(offsets, dtype=np.int64)
    pos = s.integers(0, 1 + np.arange(n)[:, None] * k1, (n, reps)).T.astype(np.int32)
    wide = n * int(np.abs(offs).max()) >= 2**31
    labels = np.empty((reps, 1 + n * k1), dtype=np.int64 if wide else np.int32)
    for row, p in zip(labels, pos):
        node = np.argsort(p, kind="stable")
        slot = p[node]
        node += 1
        first = np.diff(slot, prepend=-1) != 0
        last = np.diff(slot, append=-1) != 0
        par = np.zeros(n + 1, dtype=np.int32)
        par[node] = np.where(first, (slot + k1 - 1) // k1, np.roll(node, 1))
        step = np.zeros(n + 1, dtype=np.int64)
        step[node] = np.where(first & (slot > 0), offs[(slot - 1) % k1 + 1], offs[0])
        val = parent_depths(par[None], step)[0]
        row[0] = 0
        row[1:] = (val[1:, None] + (offs[1:] - offs[0])).ravel()
        row[slot[last]] = val[node[last]]
    return labels


@pytest.mark.parametrize(
    "n, reps, offsets",
    [
        (0, 3, (1, 1)),
        (1, 7, (0, 1, 2)),
        (4, 2000, (-1, 0, 1)),
        (7, 999, (1, 1, 1, 1, 1)),
        (50, 3000, (-1, 0, 2)),
        (1000, 70, (2, -1)),
        (3, 40, (3 * 10**9, 0)),
        (70_000, 3, (1, 1, 1)),
    ],
)
def test_kary_blocks_equal_the_replica_loop(n, reps, offsets):
    # blocks of replicas through row-wise argsorts give the per-replica loop's
    # labels bit for bit, from the same draws
    s, ref_s = derive_stream(32, 70 + n), derive_stream(32, 70 + n)
    lab = batch_kary_leaf_labels(n, reps, offsets, s)
    ref = _kary_replica_loop(n, reps, offsets, ref_s)
    assert lab.dtype == ref.dtype and np.array_equal(lab, ref)
    _assert_same_state(s, ref_s)


def test_batch_kary_labels_peak_memory_near_output():
    s = derive_stream(32, 1)
    tracemalloc.start()
    try:
        lab = batch_kary_leaf_labels(100_000, 4, (1, 1, 1), s)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * lab.nbytes


@pytest.mark.parametrize("offsets", [(0, 1, 2), (-1, 0, 1)])
def test_batch_kary_leaf_multisets_follow_the_exact_law(offsets):
    n, reps = 4, 10_000
    s = derive_stream(32, 50 + offsets[0])
    leaves = np.sort(batch_kary_leaf_labels(n, reps, offsets, s), axis=1)  # one sorted multiset per urn
    rows, cnt = np.unique(leaves, axis=0, return_counts=True)
    emp = {tuple(r.tolist()): c / reps for r, c in zip(rows, cnt)}
    ref = oracle.exact_kdiscrete_leaf_law(KDiscreteKernel(offsets), n, 0).probs
    assert stats.total_variation(emp, ref) <= _tv_threshold(ref, reps)


def test_batch_kary_labels_beyond_int32_are_exact():
    # labels are linear in the offsets for the same draws; 3e9 would wrap in int32
    big = batch_kary_leaf_labels(3, 4, (3 * 10**9, 0), derive_stream(32, 62))
    unit = batch_kary_leaf_labels(3, 4, (1, 0), derive_stream(32, 62))
    assert np.array_equal(big, 3 * 10**9 * unit.astype(np.int64)) and big.max() > 2**31


def test_batch_kary_uniform_leaf_matches_the_scalar_urn():
    # one uniform leaf per urn, batched against mvpp_kdiscrete
    offsets, n, reps = (-1, 0, 2), 50, 2000
    kern, s = KDiscreteKernel(offsets), derive_stream(32, 60)
    scalar = []
    for _ in range(reps):
        rep = mvpp_kdiscrete(AtomicMeasure([(0, 1 / 3)]), kern, n, s)
        leaves = rep.tree.leaf_list
        scalar.append(rep.labels[leaves[int(s.next_uniform() * len(leaves))]])
    lab = batch_kary_leaf_labels(n, reps, offsets, s)
    batch = lab[np.arange(reps), s.integers(0, lab.shape[1], reps)]
    crit = stats.ks_two_sample_critical(0.01, reps, reps)
    assert stats.ks_two_sample(np.array(scalar, dtype=float), batch.astype(float)) < crit


def test_batch_walk_pairs_reads_one_packet_per_draw_plus_a_step():
    # each value is a uniform packet's label plus one increment: with a
    # constant increment and labels equal to their packet index, every value
    # is an index plus the step, and the a's and b's come from their own rows
    labels = np.tile(np.arange(7.0), (3, 1)) + 100 * np.arange(3)[:, None]
    values = batch_walk_pairs(labels, 30, ConstantIncrement(0.5), derive_stream(32, 61))
    a, b = np.split(values, 2)
    for half in (a, b):
        assert half.size == 30 and np.all(np.isin(half - 0.5, labels))
        assert np.array_equal((half // 100).astype(int), np.repeat(np.arange(3), 10))


def test_batch_bmc_differs_from_coupling_at_root_children():
    inc = RademacherIncrement()
    s = derive_stream(30, 25)
    bmc = batch_bmc_walk_labels(1, 2000, inc, s)
    coup = batch_rrt_walk_labels(1, 2000, inc, s)
    # the single child of the root: a kernel step in the walk, a fresh
    # initial draw (always 0 here) in the urn coupling
    assert set(np.unique(np.abs(bmc[:, 1]))) == {1.0}
    assert set(np.unique(coup[:, 1])) == {0.0}


def _bmc_walk_loop(n, reps, increment, s):
    """(reps, n+1) branching-walk labels, one walk at a time in Python floats:
    node k draws every walk's parent on 0..k-1 in the lattice dtype, then
    every walk's step, and walk r's node k is its parent's label plus step."""
    labels = [[0.0] * (n + 1) for _ in range(reps)]
    for k in range(1, n + 1):
        parents = s.integers(0, k, reps, dtype=_lattice_dtype(n)).tolist()
        steps = increment.draw_many(s, reps).tolist()
        for walk, parent, step in zip(labels, parents, steps):
            walk[k] = walk[parent] + step
    return np.array(labels, dtype=float).reshape(reps, n + 1)


@pytest.mark.parametrize("n, reps", [(0, 3), (1, 4), (60, 7)])
@pytest.mark.parametrize("inc, dtype", [(RademacherIncrement(), np.int16), (NormalIncrement(0.5, 2.0), float)])
def test_batch_bmc_makes_the_reference_draws(n, reps, inc, dtype):
    s, ref_s = derive_stream(38, n), derive_stream(38, n)
    got = batch_bmc_walk_labels(n, reps, inc, s, dtype=dtype)
    ref = _bmc_walk_loop(n, reps, inc, ref_s)
    assert got.dtype == dtype and np.array_equal(got, ref)
    _assert_same_state(s, ref_s)


def test_batch_bmc_second_moments_are_mean_depths():
    # a +-1 walk's label at node k has E[L_k^2] = E[depth] = H_k in a
    # recursive tree; 99 nodes, each within 4.5 standard errors (a
    # Bonferroni level near 7e-4 under a normal null)
    n, reps = 100, 100_000
    s = derive_stream(38, 100)
    blocks = [batch_bmc_walk_labels(n, 25_000, RademacherIncrement(), s, dtype=np.int16) for _ in range(4)]
    sq = np.concatenate(blocks)[:, 2:].astype(float) ** 2
    harmonic = np.cumsum(1.0 / np.arange(1, n + 1))[1:]  # H_2..H_n
    z = (sq.mean(axis=0) - harmonic) / (sq.std(axis=0, ddof=1) / math.sqrt(reps))
    assert np.abs(z).max() <= 4.5


@pytest.mark.parametrize("n", [0, 1, 16_384])
@pytest.mark.parametrize("reps", [0, 3])
def test_batch_bmc_keeps_shape_and_dtype(n, reps):
    dtype = _lattice_dtype(n)  # int32 past n = 16,383
    lab = batch_bmc_walk_labels(n, reps, RademacherIncrement(), derive_stream(38, n + reps), dtype=dtype)
    assert lab.shape == (reps, n + 1) and lab.dtype == dtype
    assert lab.T.flags.c_contiguous  # a view of node-major memory
    assert not lab[:, 0].any() and np.all(np.abs(lab[:, 1:2]) == 1)
    assert np.all(np.abs(lab) <= np.arange(n + 1))  # a node's depth is at most its number


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


@pytest.mark.parametrize("kind", ["float", "complex", "int32", "lattice"])
@pytest.mark.parametrize("n, reps", [(100_000, 16), (1000, 3000), (0, 5), (1, 5), (2, 5)])
def test_path_sums_equal_the_node_by_node_recursion(kind, n, reps):
    s = _RecordingStream(derive_stream(31, n + reps))
    dtype, inc = {
        "float": (float, NormalIncrement(0.5, 2.0)),
        "complex": (complex, _ComplexNormalIncrement()),
        "int32": (np.int32, ConstantIncrement(1)),  # depths: path sums of +1
        "lattice": (_lattice_dtype(n), RademacherIncrement()),  # int8 steps into int16 labels up to n = 16,383
    }[kind]
    out = np.full((reps, n + 1), 7, dtype=dtype)  # stale labels every window must overwrite
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


def test_coupling_legs_are_freed_as_they_are_sampled():
    # each leg is sampled, then dropped before the next one is grown; the int16
    # genealogies read 1.72x one leg, and 3.19x with all three kept alive
    n, reps = 200, 2000
    leg = np.zeros((n + 1, reps), dtype=_lattice_dtype(n)).nbytes
    s = derive_stream(31, 301)
    tracemalloc.start()
    try:
        samples = _coupling_samples(n, reps, s)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [x.shape for x in samples] == [(reps,)] * 3
    assert peak <= 2.5 * leg


# ---------------------------------------------------------------------------
# theorem pipeline
# ---------------------------------------------------------------------------


def test_walk_route_scores_normal_of_variance_plus_squared_drift():
    # the urn's rescaled limit is Normal(0, v + m^2): the variance v of one
    # step plus m^2 from the Normal(0, 1)-distributed rescaled depth
    for kernel, var in ((walk_kernel_constant(1.0), 1.0), (walk_kernel_normal(1.0, 1.0), 2.0)):
        rep = verify_main_theorem(kernel, DELTA0, [2000], 800, derive_stream(30, 25))
        assert rep["plan"] == "brw"
        assert rep["results"][0]["ks"] == stats.ks_statistic(rep["samples"][0], stats.Normal(0.0, var))


def test_verify_main_theorem_walk_smoke():
    s = derive_stream(30, 26)
    rep = verify_main_theorem(walk_kernel_rademacher(), DELTA0, [2000], 800, s)
    entry = rep["results"][0]
    assert entry["n"] == 2000
    assert entry["ks"] is not None and entry["ks"] < 0.2
    assert abs(entry["decorrelation"]) < 0.2
    assert entry["pass"] == (entry["ks"] <= KS_GATE)


class _FixedUniform:
    """A stream whose every uniform is u."""

    def __init__(self, u):
        self.u = u

    def next_uniform(self):
        return self.u


def _palette_reference(rows, x, u):
    """The palette draw as a running sum over row x."""
    acc = 0.0
    for j, w in enumerate(rows[x]):
        acc += w
        if u < acc:
            return j
    return len(rows) - 1


TENTHS = DColourKernel([[0.1] * 10] + [[0.5 if j in (i - 1, i) else 0.0 for j in range(10)] for i in range(1, 10)])


@st.composite
def _direct_cases(draw):
    if draw(st.booleans()):
        if draw(st.booleans()):
            kernel = TENTHS  # row 0's float cumsum ends below 1
        else:
            d = draw(st.integers(2, 4))
            rows = [draw(st.lists(st.integers(0, 5), min_size=d, max_size=d).filter(any)) for _ in range(d)]
            kernel = DColourKernel([[v / sum(row) for v in row] for row in rows])
        colours = st.integers(0, kernel.d - 1)
    else:
        kernel = MMInfQueueKernel(draw(st.floats(0.1, 10.0)), draw(st.floats(0.1, 10.0)))
        colours = st.integers(0, 5)
    mass = draw(st.floats(0.1, 50.0))
    parts = draw(st.lists(st.tuples(colours, st.integers(1, 4)), min_size=1, max_size=3))
    total = sum(p for _, p in parts)
    m0 = AtomicMeasure((c, mass * p / total) for c, p in parts)
    return kernel, m0, draw(st.integers(0, 300)), draw(st.integers(0, 2**32)), draw(st.floats(0.0, 1.0, exclude_max=True))


def _materialize_pairs(trace):
    """The pair-by-pair merge: m0's atoms, then each draw's kernel atoms in
    drawing order, merged one pair at a time by the AtomicMeasure
    constructor; each distinct colour's atoms are fetched once."""
    pairs = list(trace.m0.atoms())
    cache: dict = {}
    for c in trace.drawn:
        add = cache.get(c)
        if add is None:
            add = trace.kernel.atoms(c)
            if add is None:
                raise ValueError("cannot materialize a non-atomic kernel")
            add = cache[c] = add.atoms()
        pairs.extend(add)
    return AtomicMeasure(pairs)


def _direct_block_layout(m0, kernel, n, s):
    """mvpp_direct whose initial branch always draws its colour uniform, even
    for a one-atom m0: two uniforms a step, the layout batch_direct_trace reads."""
    nor0 = normalize(m0)
    trace = UrnTrace(m0=m0, kernel=kernel, drawn=[])
    m = m0.total_mass
    for k in range(n):
        u = s.next_uniform() * (m + k)
        if u < m:
            c = sample_atom(nor0, _FixedUniform(s.next_uniform()))
        else:
            c = kernel.sample(trace.drawn[int(u - m)], s)
        trace.drawn.append(c)
    return trace


def _assert_same_trace(m0, kernel, n, seed, reference):
    s_loop, s_batch = derive_stream(seed, 0), derive_stream(seed, 0)
    loop = reference(m0, kernel, n, s_loop)
    batch = batch_direct_trace(m0, kernel, n, s_batch)
    assert batch.drawn == loop.drawn and all(type(c) is int for c in batch.drawn)
    _assert_same_state(s_batch, s_loop)
    a, b, ref = loop.materialize(), batch.materialize(), _materialize_pairs(loop)
    assert b.atoms() == a.atoms() and b.total_mass == a.total_mass and batch.total_mass == loop.total_mass
    assert list(a._atoms.items()) == list(ref._atoms.items()) and a.total_mass == ref.total_mass


@given(_direct_cases())
@settings(max_examples=80, deadline=None)
def test_batch_direct_trace_is_mvpp_direct_bit_for_bit(case):
    # with one m0 atom mvpp_direct skips an initial step's colour uniform, so
    # only several-atom traces are its own bit for bit
    kernel, m0, n, seed, u_drawn = case
    if len(m0.atoms()) >= 2:
        _assert_same_trace(m0, kernel, n, seed, mvpp_direct)
    # one vectorised law: step is sample, and the running-sum draw, at both ends of [0, 1) and inside
    for u in (0.0, np.nextafter(1.0, 0.0), u_drawn):
        for x in range(kernel.d if isinstance(kernel, DColourKernel) else 6):
            got = kernel.sample(x, _FixedUniform(u))
            assert got == int(kernel.step(x, u)) == int(kernel.step(np.array([x]), np.array([u]))[0])
            if isinstance(kernel, DColourKernel):
                assert got == _palette_reference(kernel.rows, x, u)
            else:
                assert got == (x + 1 if x == 0 or u < kernel.lam / (kernel.lam + x * kernel.mu) else x - 1)


@given(_direct_cases())
@settings(max_examples=80, deadline=None)
def test_batch_direct_trace_is_the_block_layout_bit_for_bit(case):
    kernel, m0, n, seed, _ = case
    _assert_same_trace(m0, kernel, n, seed, _direct_block_layout)


LARGE_N_KERNELS = [DColourKernel([[0.6, 0.4], [0.3, 0.7]]), MMInfQueueKernel(2.0, 1.0)]


@pytest.mark.parametrize("mass", [1.0, 1000.0])
@pytest.mark.parametrize("kernel", LARGE_N_KERNELS)
def test_batch_direct_trace_is_mvpp_direct_at_large_n(kernel, mass):
    _assert_same_trace(AtomicMeasure([(0, mass / 4), (1, 3 * mass / 4)]), kernel, 100_000, 13, mvpp_direct)


@pytest.mark.parametrize("mass", [1.0, 1000.0])
@pytest.mark.parametrize("kernel", LARGE_N_KERNELS)
def test_batch_direct_trace_is_the_block_layout_at_large_n(kernel, mass):
    _assert_same_trace(AtomicMeasure([(0, mass)]), kernel, 100_000, 13, _direct_block_layout)


def test_batch_direct_trace_one_atom_law_matches_enumeration():
    # one m0 atom, where the batch reads a colour uniform that mvpp_direct
    # does not draw: its draw-count law at n = 3 is still the urn's
    kernel, n, reps = DColourKernel([[0.2, 0.5, 0.3], [0.4, 0.4, 0.2], [0.1, 0.3, 0.6]]), 3, 20_000
    m0 = AtomicMeasure([(1, 1.5)])
    ref = oracle.exact_urn_law(m0, kernel, n).probs
    s = derive_stream(30, 35)
    traces = (batch_direct_trace(m0, kernel, n, s).colours for _ in range(reps))
    counts = Counter(tuple(np.bincount(c, minlength=3).tolist()) for c in traces)
    tv = stats.total_variation(stats.counts_to_pmf(dict(counts)), ref)
    assert tv <= _tv_threshold(ref, reps)


@st.composite
def _materialize_cases(draw):
    kind = draw(st.sampled_from(["palette", "queue", "constant", "rademacher", "normal"]))
    if kind == "palette":
        d = draw(st.integers(2, 4))
        rows = [draw(st.lists(st.integers(0, 5), min_size=d, max_size=d).filter(any)) for _ in range(d)]
        kernel = DColourKernel([[v / sum(row) for v in row] for row in rows])
        colours = st.integers(0, d - 1)
    elif kind == "queue":
        kernel = MMInfQueueKernel(draw(st.floats(0.1, 10.0)), draw(st.floats(0.1, 10.0)))
        colours = st.integers(0, 6)
    else:  # walks: int and float colours mixed, so 1 and 1.0 meet as one key
        inc = {
            "constant": ConstantIncrement(draw(st.sampled_from([1, 2, 0.5, -1.0]))),
            "rademacher": RademacherIncrement(),
            "normal": NormalIncrement(0.0, 1.0),  # no atoms
        }[kind]
        kernel = RandomWalkKernel(inc, mean=0.0, cov=1.0)
        colours = st.builds(lambda x, f: float(x) if f else x, st.integers(-4, 4), st.booleans())
    m0 = AtomicMeasure(draw(st.lists(st.tuples(colours, st.floats(0.01, 20.0)), min_size=1, max_size=2)))
    return UrnTrace(m0, kernel, draw(st.lists(colours, max_size=80)))


@given(_materialize_cases())
@settings(max_examples=200, deadline=None)
def test_materialize_equals_the_pair_by_pair_merge(trace):
    # the same weight and total_mass bits, the same keys of the same types in
    # the same order; a non-atomic kernel raises only once a colour is drawn
    try:
        ref = _materialize_pairs(trace)
    except ValueError:
        assert trace.n > 0
        with pytest.raises(ValueError, match="non-atomic"):
            trace.materialize()
        return
    bits = lambda m: [(type(c), c, w.hex()) for c, w in m._atoms.items()] + [m.total_mass.hex()]
    assert bits(trace.materialize()) == bits(ref)


@given(_materialize_cases().filter(lambda t: all(type(c) is int for c in t.drawn)))
@settings(max_examples=100, deadline=None)
def test_materialize_reads_the_colour_array_as_the_list(trace):
    # an int64 colour array alongside drawn gives the list's bits, keys and key types
    arrayed = UrnTrace(trace.m0, trace.kernel, trace.drawn, colours=np.array(trace.drawn, dtype=np.int64))
    try:
        ref = trace.materialize()
    except ValueError:
        with pytest.raises(ValueError, match="non-atomic"):
            arrayed.materialize()
        return
    bits = lambda m: [(type(c), c, w.hex()) for c, w in m._atoms.items()] + [m.total_mass.hex()]
    assert bits(arrayed.materialize()) == bits(ref)


def test_palette_and_queue_routes_draw_no_uniform_one_at_a_time(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a per-step draw")

    monkeypatch.setattr(RngStream, "next_uniform", refuse)
    monkeypatch.setattr(DColourKernel, "sample", refuse)
    monkeypatch.setattr(MMInfQueueKernel, "sample", refuse)
    for kernel in (DColourKernel([[0.6, 0.4], [0.3, 0.7]]), MMInfQueueKernel(1.0, 1.0)):
        rep = verify_main_theorem(kernel, AtomicMeasure([(0, 1.0)]), [1000], 1, derive_stream(31, 0))
        assert len(rep["samples"][0]) == 1000 and rep["measures"][0].total_mass == pytest.approx(1001.0)


def test_verify_main_theorem_mminf_branch():
    s = derive_stream(30, 27)
    rep = verify_main_theorem(MMInfQueueKernel(1.0, 1.0), AtomicMeasure([(0, 1.0)]), [500], 100, s)
    entry, urn = rep["results"][0], rep["measures"][0]
    assert rep["plan"] == "ergodic"
    pmf = {int(c): w / urn.total_mass for c, w in urn.atoms()}
    assert entry["tv"] == stats.total_variation(pmf, stats.MMInfJumpChain(1.0, 1.0).pmf_dict(max(pmf) + 10))
    assert entry["tv"] <= 0.5
    assert entry["pass"] == (entry["tv"] <= TV_GATE)


def test_verify_main_theorem_kdiscrete_branch():
    s = derive_stream(30, 28)
    rep = verify_main_theorem(KDiscreteKernel((1, 1)), AtomicMeasure([(0, 0.5)]), [500], 400, s)
    entry = rep["results"][0]
    assert entry["ks"] is not None and entry["ks"] <= 0.25
    assert entry["pass"] == (entry["ks"] <= KS_GATE)


@pytest.mark.parametrize("offsets", [(-1, 0, 1), (2, 2, 2)])
def test_verify_main_theorem_kdiscrete_scores_its_own_offsets(offsets):
    # the limit of the offsets' mean and variance; an all-+1 reference read
    # these at KS 0.966 and 0.905
    m0 = AtomicMeasure([(0, 1 / 3)])
    rep = verify_main_theorem(KDiscreteKernel(offsets), m0, [10_000], 2000, derive_stream(7, 0))
    assert rep["results"][0]["ks"] <= 0.25


def test_verify_main_theorem_rejects_a_zero_scale():
    s = derive_stream(30, 29)
    walks = (
        (walk_kernel_rademacher(), DELTA0),
        (walk_kernel_stable(1.5), DELTA0),
        (KDiscreteKernel((1, 1)), AtomicMeasure([(0, 0.5)])),
    )
    for kernel, m0 in walks:  # t = log 1 = 0: every rescaled sample would be infinite
        with pytest.raises(ValueError, match="n_grid point n=1"):
            verify_main_theorem(kernel, m0, [1, 10], 100, s)
    # the queue's route does not rescale, so n = 1 is a valid grid point
    queue = MMInfQueueKernel(1.0, 1.0)
    rep = verify_main_theorem(queue, AtomicMeasure([(0, 1.0)]), [1, 10], 1, s)
    assert [e["n"] for e in rep["results"]] == [1, 10]


# one kernel and m0 for each route of verify_main_theorem
ROUTE_CASES = (
    (walk_kernel_rademacher(), DELTA0),
    (walk_kernel_stable(1.5), DELTA0),
    (KDiscreteKernel((1, 1)), AtomicMeasure([(0, 0.5)])),
    (MMInfQueueKernel(1.0, 1.0), AtomicMeasure([(0, 1.0)])),
    (KERN2, AtomicMeasure([(0, 1.0)])),
)


@pytest.mark.parametrize("point", [0, -3, 2.5, 3.0, np.float64(10.0)])
def test_verify_main_theorem_rejects_a_grid_point_not_an_integer_of_at_least_one(point):
    # n = 0 once scored an empty urn (queue) or a nan l1 (palette), and the
    # walk and kappa routes raised a bare math domain error
    s, ref_s = derive_stream(30, 34), derive_stream(30, 34)
    for kernel, m0 in ROUTE_CASES:
        with pytest.raises(ValueError, match=f"n_grid point n={point} is not an integer >= 1"):
            verify_main_theorem(kernel, m0, [10, point], 100, s)
    _assert_same_state(s, ref_s)  # rejected before the first grid point drew


def test_verify_main_theorem_rejects_an_empty_grid():
    # an empty grid returned {"results": [], "pass": True}, a pass on nothing
    s, ref_s = derive_stream(30, 36), derive_stream(30, 36)
    for kernel, m0 in ROUTE_CASES:
        with pytest.raises(ValueError, match="n_grid is empty"):
            verify_main_theorem(kernel, m0, [], 100, s)
    _assert_same_state(s, ref_s)


def test_palette_l1_is_taken_over_the_total_mass():
    # every row is the Perron vector (1/2, 1/2) and so is m0, so the urn is
    # in proportion at every n; over n, not n + 2, the l1 read 2/n
    kernel, m0 = DColourKernel([[0.5, 0.5], [0.5, 0.5]]), AtomicMeasure([(0, 1.0), (1, 1.0)])
    rep = verify_main_theorem(kernel, m0, [1, 10, 1000], 1, derive_stream(30, 37))
    assert [e["n"] for e in rep["results"]] == [1, 10, 1000]
    assert all(e["l1"] <= 1e-10 for e in rep["results"])


def test_verify_main_theorem_rejects_a_palette_with_no_perron_limit():
    # the identity is the classical Polya urn, whose composition has a random
    # limit; it raised only after batch_direct_trace had drawn 2n uniforms
    s, ref_s = derive_stream(30, 31), derive_stream(30, 31)
    with pytest.raises(ValueError, match="R is reducible"):
        verify_main_theorem(DColourKernel([[1.0, 0.0], [0.0, 1.0]]), M0_HALF, [10], 100, s)
    _assert_same_state(s, ref_s)


@pytest.mark.parametrize("replicas", [0, -5])
def test_verify_main_theorem_rejects_fewer_than_one_replica(replicas):
    # these silently scored 2 * 16 values before
    s, ref_s = derive_stream(30, 32), derive_stream(30, 32)
    kernels = ((walk_kernel_rademacher(), DELTA0), (walk_kernel_stable(1.5), DELTA0), (KDiscreteKernel([-1.0, 1.0]), DELTA0))
    for kernel, m0 in kernels + ((MMInfQueueKernel(1.0, 1.0), DELTA0),):
        with pytest.raises(ValueError, match="replicas must be >= 1"):
            verify_main_theorem(kernel, m0, [10], replicas, s)
    _assert_same_state(s, ref_s)


@pytest.mark.parametrize("replicas, scored", [(600, 1184), (10, 32), (640, 1280)])
def test_verify_main_theorem_reports_the_values_it_scored(replicas, scored):
    # 16 urns draw max(replicas // 16, 1) pairs each: 2 values a pair
    ball = AtomicMeasure([(0.0, 0.5)])  # the kappa = 2 urn's one ball
    for kernel, m0 in ((walk_kernel_rademacher(), DELTA0), (walk_kernel_stable(1.5), DELTA0), (KDiscreteKernel([-1.0, 1.0]), ball)):
        out = verify_main_theorem(kernel, m0, [50, 100], replicas, derive_stream(30, 33))
        assert out["replicas"] == replicas
        assert [e["scored"] for e in out["results"]] == [len(v) for v in out["samples"]] == [scored, scored]


@pytest.mark.parametrize("mass", [0.5, 2.0])
def test_verify_main_theorem_walk_routes_need_unit_mass(mass):
    # the walk and stable routes grow recursive trees, which carry an initial
    # packet of mass 1; any other mass would simulate a different urn
    s = derive_stream(30, 30)
    m0 = AtomicMeasure([(0.0, mass)])
    for kernel in (walk_kernel_rademacher(), walk_kernel_stable(1.5)):
        with pytest.raises(ValueError, match="mass 1"):
            verify_main_theorem(kernel, m0, [10], 100, s)


# each route's output at seed 7, 300 replicas and n_grid [50, 400]: the
# first 16 hex digits of the sha256 of its plan, results (json, sort_keys),
# each scored sample's bytes and each scored urn's atoms
ROUTE_PINS = {
    "rademacher": (walk_kernel_rademacher(), DELTA0, "8e1bea27858249cd"),
    "normal": (walk_kernel_normal(0.5, 2.0), M0_HALF, "b431c7297ab6025b"),
    "stable": (walk_kernel_stable(1.3), DELTA0, "d6eb9d5b28b87e4f"),
    "palette2": (DColourKernel([[0.6, 0.4], [0.3, 0.7]]), AtomicMeasure([(0, 1.0)]), "c4846b876d0e7400"),
    "palette3": (
        DColourKernel([[0.2, 0.5, 0.3], [0.4, 0.4, 0.2], [0.1, 0.3, 0.6]]),
        AtomicMeasure([(0, 0.5), (2, 1.5)]),
        "d5e5025e8d3522d2",
    ),
    "queue": (MMInfQueueKernel(2.0, 1.0), AtomicMeasure([(0, 1.0)]), "c3a0cf26d3a3082f"),
    "kary": (KDiscreteKernel((-1, 0, 1)), AtomicMeasure([(0, 1 / 3)]), "156d7e787b23ea3f"),
}


@pytest.mark.parametrize("route", list(ROUTE_PINS))
def test_verify_main_theorem_route_output_is_pinned(route):
    kernel, m0, pin = ROUTE_PINS[route]
    rep = verify_main_theorem(kernel, m0, [50, 400], 300, derive_stream(7, 0))
    h = hashlib.sha256((rep["plan"] + json.dumps(rep["results"], sort_keys=True)).encode())
    for values, urn in zip(rep["samples"], rep["measures"]):
        h.update(np.ascontiguousarray(values).tobytes())
        h.update(repr(None if urn is None else urn.atoms()).encode())
    assert h.hexdigest()[:16] == pin
