import math
from collections import Counter

import numpy as np
import pytest

from mvpp import oracle, stats, verify
from mvpp.randomness import derive_stream
from mvpp.trees import (
    GrowingTree,
    binary_shapes,
    build_binary,
    build_planar,
    complete,
    grow_bst_leaf,
    grow_bst_permutation,
    grow_kary,
    grow_kary_dirichlet,
    grow_rrt,
    lca,
    lca_depths,
    left_depth,
    parent_depths,
    planar_shapes,
    profile,
    rotation,
    rotation_inverse,
    rotation_parents,
    rrt_parents,
    sample_uniform_leaf,
    sample_uniform_node,
    swap_subtrees,
)


def shape_counts(sampler, reps, s):
    counts = Counter()
    for _ in range(reps):
        counts[sampler(s).shape_key()] += 1
    return counts


# ---------------------------------------------------------------------------
# growth basics
# ---------------------------------------------------------------------------


def test_rrt_node_counts_and_depths():
    s = derive_stream(10, 0)
    for n in (0, 1, 5, 50):
        t = grow_rrt(n, s)
        assert t.n_nodes == n + 1
        for u in range(1, t.n_nodes):
            assert t.depth[u] == t.depth[t.parent[u]] + 1
    assert grow_rrt(0, s).n_nodes == 1  # single root


def test_rrt_two_steps_star_vs_path():
    s = derive_stream(10, 1)
    star = 0
    reps = 100_000
    for _ in range(reps):
        t = grow_rrt(2, s)
        star += len(t.children[0]) == 2
    assert abs(star / reps - 0.5) < 0.01


def test_rrt_uniform_node_depth_pmf_n2():
    # exact law from the oracle: P(0)=1/3, P(1)=1/2, P(2)=1/6
    law = oracle.exact_rrt_depth(2).probs
    assert law[0] == pytest.approx(1 / 3)
    assert law[1] == pytest.approx(1 / 2)
    assert law[2] == pytest.approx(1 / 6)


def test_bst_leaf_base_cases():
    s = derive_stream(10, 2)
    t = grow_bst_leaf(1, s)
    assert t.n_nodes == 1
    with pytest.raises(ValueError):
        grow_bst_leaf(0, s)
    sides = Counter(grow_bst_leaf(2, derive_stream(10, 100 + i)).slot[1] for i in range(2000))
    assert abs(sides[0] / 2000 - 0.5) < 0.04


def test_bst_leaf_three_node_shapes():
    # 5 shapes: four paths at 1/6 each, the balanced one at 1/3
    s = derive_stream(10, 3)
    reps = 60_000
    counts = shape_counts(lambda s: grow_bst_leaf(3, s), reps, s)
    assert len(counts) == 5
    probs = sorted(c / reps for c in counts.values())
    for p in probs[:4]:
        assert abs(p - 1 / 6) < 0.01
    assert abs(probs[4] - 1 / 3) < 0.01


def test_bst_permutation_comparison_rule():
    # second key smaller than the first goes to slot 1 (larger keys to 0)
    s = derive_stream(10, 4)
    for _ in range(50):
        t, data = grow_bst_permutation(2, s)
        if data.keys[1] < data.keys[0]:
            assert t.slot[1] == 1
        else:
            assert t.slot[1] == 0


def test_bst_permutation_shape_law_matches_leaf_growth():
    reps = 40_000
    s = derive_stream(10, 5)
    a = shape_counts(lambda s: grow_bst_permutation(4, s)[0], reps, s)
    b = shape_counts(lambda s: grow_bst_leaf(4, s), reps, s)
    _, _, p = stats.chi_square_two_sample(a, b)
    assert p > 0.01


def test_bst_subtree_split_is_binomial():
    # larger keys occupy slot 0, so |subtree(0)| ~ Binomial(n-1, 1-U1);
    # checked by an exact probability-integral transform
    n, reps = 200, 1500
    s = derive_stream(10, 6)
    pit = []
    for _ in range(reps):
        t, data = grow_bst_permutation(n, s)
        u1 = data.keys[0]
        c0 = t.child_in_slot(0, 0)
        size0 = 0
        if c0 is not None:
            stack = [c0]
            while stack:
                v = stack.pop()
                size0 += 1
                stack.extend(t.children[v])
        p = 1.0 - u1

        def binom_cdf(k):  # Binomial(n-1, p), summed term by term
            return math.fsum(math.comb(n - 1, j) * p**j * (1.0 - p) ** (n - 1 - j) for j in range(k + 1))

        pit.append(binom_cdf(size0 - 1) + s.next_uniform() * (binom_cdf(size0) - binom_cdf(size0 - 1)))
    assert stats.ks_statistic(np.array(pit), stats.Uniform01()) < 1.63 / math.sqrt(reps)


def test_enriched_subtree_fractions_follow_split_products():
    # |subtree at word u| / n near the product of recorded key splits
    n = 10_000
    s = derive_stream(10, 7)
    t, data = grow_bst_permutation(n, s)

    def subtree_size(u):
        size, stack = 0, [u]
        while stack:
            v = stack.pop()
            size += 1
            stack.extend(t.children[v])
        return size

    checked = 0
    for word in [(0,), (1,), (0, 0), (1, 1), (0, 1, 0)]:
        u = t.find_word(word)
        if u is None:
            continue
        # walk the key intervals to get the split product
        lo, hi, node, prod = 0.0, 1.0, 0, 1.0
        for letter in word:
            k = data.keys[node]
            frac = (hi - k) / (hi - lo) if letter == 0 else (k - lo) / (hi - lo)
            prod *= frac
            lo, hi = (k, hi) if letter == 0 else (lo, k)
            node = t.child_in_slot(node, letter)
        assert abs(subtree_size(u) / n - prod) < 0.05
        checked += 1
    assert checked >= 3


def test_kary_counts():
    s = derive_stream(10, 8)
    t = grow_kary(2, 3, s)
    assert len(t.leaf_list) == 5 and t.n_nodes == 7
    for n, kappa in ((0, 2), (4, 2), (3, 5)):
        t = grow_kary(n, kappa, s)
        assert t.n_nodes == 1 + n * kappa
        assert len(t.leaf_list) == 1 + n * (kappa - 1)
    with pytest.raises(ValueError):
        grow_kary(2, 1, s)


def test_kary2_equals_completed_bst_shapes():
    reps = 30_000
    s = derive_stream(10, 9)
    a = shape_counts(lambda s: grow_kary(5, 2, s), reps, s)
    b = shape_counts(lambda s: complete(grow_bst_leaf(5, s))[0], reps, s)
    _, _, p = stats.chi_square_two_sample(a, b)
    assert p > 0.01


def test_kary_root_subtree_sizes_match_closed_form():
    n, reps = 4, 60_000
    ref = oracle.closed_form_kary(n, 2).probs
    s = derive_stream(10, 10)
    counts = Counter()
    for _ in range(reps):
        t = grow_kary(n, 2, s)

        def internal_count(root_child):
            c, stack = 0, [root_child]
            while stack:
                v = stack.pop()
                if t.children[v]:
                    c += 1
                    stack.extend(t.children[v])
            return c

        counts[tuple(internal_count(c) for c in t.children[0])] += 1
    p = stats.chi_square_pvalue(counts, ref)
    assert p > 0.01


def test_dirichlet_kappa2_split_is_uniform():
    s = derive_stream(10, 11)
    splits = []
    for _ in range(20_000):
        _, enrich = grow_kary_dirichlet(1, 2, s)
        splits.append(enrich.splits[0][0])
    assert stats.ks_statistic(np.array(splits), stats.Uniform01()) < 0.02


def test_dirichlet_growth_matches_uniform_leaf_growth():
    n, kappa, reps = 3, 3, 40_000
    s = derive_stream(10, 12)

    def sizes(t):
        def internal_count(c):
            out, stack = 0, [c]
            while stack:
                v = stack.pop()
                if t.children[v]:
                    out += 1
                    stack.extend(t.children[v])
            return out

        return tuple(internal_count(c) for c in t.children[0])

    a = Counter(sizes(grow_kary(n, kappa, s)) for _ in range(reps))
    b = Counter(sizes(grow_kary_dirichlet(n, kappa, s)[0]) for _ in range(reps))
    _, _, p = stats.chi_square_two_sample(a, b)
    assert p > 0.01


def test_dirichlet_intervals_partition_exactly():
    s = derive_stream(10, 13)
    t, enrich = grow_kary_dirichlet(6, 3, s)
    total = sum(enrich.intervals[c][1] - enrich.intervals[c][0] for c in t.children[0])
    assert total == 1.0  # cumulative endpoints telescope exactly
    for u in range(t.n_nodes):
        if t.children[u]:
            lo, hi = enrich.intervals[u]
            covered = sum(enrich.intervals[c][1] - enrich.intervals[c][0] for c in t.children[u])
            assert covered == pytest.approx(hi - lo, abs=1e-15)


# ---------------------------------------------------------------------------
# completion and rotation
# ---------------------------------------------------------------------------


def test_complete_single_root_gives_cherry():
    s = derive_stream(10, 14)
    t = grow_bst_leaf(1, s)
    c, node_map = complete(t)
    assert c.n_nodes == 3 and len(c.children[node_map[0]]) == 2


def test_complete_sizes_exhaustive():
    for n in range(1, 9):
        for shape in binary_shapes(n):
            t = build_binary(shape)
            c, node_map = complete(t)
            assert c.n_nodes == 2 * t.n_nodes + 1
            # internal nodes of the completion reproduce t's shape
            internal = [u for u in range(c.n_nodes) if c.children[u]]
            assert len(internal) == t.n_nodes
            for orig in range(t.n_nodes):
                img = node_map[orig]
                assert len(c.children[img]) == 2
                par = t.parent[orig]
                if par >= 0:
                    assert c.parent[img] == node_map[par]
                    assert c.slot[img] == t.slot[orig]


def test_rotation_rejects_singleton_and_wrong_kind():
    s = derive_stream(10, 15)
    with pytest.raises(ValueError):
        rotation(grow_rrt(0, s))
    with pytest.raises(ValueError):
        rotation(grow_bst_leaf(2, s))


def test_rotation_round_trip_exhaustive():
    for n in range(2, 9):
        for shape in planar_shapes(n):
            t = build_planar(shape)
            b, node_map = rotation(t)
            assert b.n_nodes == t.n_nodes - 1
            back, _ = rotation_inverse(b)
            assert back.shape_key() == t.shape_key()


def test_rotation_depth_and_lca_transport_exhaustive():
    for n in range(2, 8):
        for shape in planar_shapes(n):
            t = build_planar(shape)
            b, mp = rotation(t)
            for u in range(1, t.n_nodes):
                assert t.depth[u] == left_depth(b, mp[u]) + 1
                for v in range(1, t.n_nodes):
                    a = lca(t, u, v)
                    if a in (u, v):
                        continue  # identity needs non-nested pairs
                    assert t.depth[a] == left_depth(b, lca(b, mp[u], mp[v]))


def test_rotation_parents_equal_the_rotation_image():
    # bit for bit against grow_rrt and trees.rotation under its node_map:
    # parents, depths and the LCA depth of every ordered pair
    for i in range(300):
        n = 1 + i % 12
        t = grow_rrt(n, derive_stream(11, i))
        par = rrt_parents(n, 1, derive_stream(11, i))
        assert par[0].tolist() == [0] + t.parent[1:]
        assert parent_depths(par)[0].tolist() == t.depth
        b, mp = rotation(t)
        planar = {mp[c]: c for c in range(1, n + 1)}
        planar[-1] = 0  # the binary root hangs below the virtual root
        bpar = rotation_parents(par)
        bdep = parent_depths(bpar)
        assert bpar[0, 1:].tolist() == [planar[b.parent[mp[c]]] for c in range(1, n + 1)]
        assert (bdep[0, 1:] - 1).tolist() == [b.depth[mp[c]] for c in range(1, n + 1)]
        u, v = (x.ravel() for x in np.meshgrid(np.arange(n + 1), np.arange(n + 1)))
        rows = np.zeros(u.size, dtype=int)
        got = lca_depths(par[rows], parent_depths(par)[rows], u, v)
        assert got.tolist() == [t.depth[lca(t, a, c)] for a, c in zip(u, v)]
        inner = (u > 0) & (v > 0)
        got = lca_depths(bpar[rows[inner]], bdep[rows[inner]], u[inner], v[inner]) - 1
        assert got.tolist() == [b.depth[lca(b, mp[a], mp[c])] for a, c in zip(u[inner], v[inner])]


def _lca_depths_2d(par, dep, u, v):
    """lca_depths' body before flat ids: each round indexes every pair's row
    and node, met or not."""
    rows = np.arange(par.shape[0])
    while (live := u != v).any():
        du, dv = dep[rows, u], dep[rows, v]
        u, v = (
            np.where(live & (du >= dv), par[rows, u], u),
            np.where(live & (dv >= du), par[rows, v], v),
        )
    return dep[rows, u]


@pytest.mark.parametrize("n,reps", [(1, 40), (6, 20_000), (60, 3_000), (3_000, 20)])
def test_lca_depths_equal_the_2d_form(n, reps):
    # recursive trees and their rotation images, every node 0..n a candidate
    # (so met pairs and root pairs occur); the inputs are left as they were
    par = rrt_parents(n, reps, derive_stream(14, n))
    for p in (par, rotation_parents(par)):
        dep = parent_depths(p)
        s = derive_stream(15, n)
        u, v = s.integers(0, n + 1, reps), s.integers(0, n + 1, reps)
        u0, v0 = u.copy(), v.copy()
        got, ref = lca_depths(p, dep, u, v), _lca_depths_2d(p, dep, u, v)
        assert got.dtype == ref.dtype and np.array_equal(got, ref)
        assert np.array_equal(u, u0) and np.array_equal(v, v0)


def test_lca_depths_rejects_pairs_it_cannot_place():
    par = rrt_parents(4, 3, derive_stream(1, 1))
    dep = parent_depths(par)
    good = np.array([1, 1, 1])
    for bad, match in (
        ([-1, 0, 0], "outside 0..4"),  # once read as the row's last node
        ([0, 0, 5], "outside 0..4"),
        ([0, 0], "one node per tree"),
        ([0, 0, 0, 0], "one node per tree"),
        ([[0, 0, 0]], "1-d"),
        (0, "1-d"),
    ):
        with pytest.raises(ValueError, match=match):
            lca_depths(par, dep, bad, good)
        with pytest.raises(ValueError, match=match):
            lca_depths(par, dep, good, bad)


def _rotation_violations_ordered(rot):
    """check_rotation_bijection's count before one left-depth table per tree:
    left_depth walked at every use and every ordered pair scored."""
    violations = 0
    for n in range(2, 9):
        for shape in planar_shapes(n):
            t = build_planar(shape)
            b, mp = rot(t)
            back, _ = rotation_inverse(b)
            if back.shape_key() != t.shape_key():
                violations += 1
            for u in range(1, t.n_nodes):
                if t.depth[u] != left_depth(b, mp[u]) + 1:
                    violations += 1
            for u in range(1, t.n_nodes):
                for v in range(1, t.n_nodes):
                    a = lca(t, u, v)
                    if a == u or a == v:
                        continue
                    if t.depth[a] != left_depth(b, lca(b, mp[u], mp[v])):
                        violations += 1
    return violations


def _rotation_with_slots_swapped(t):
    """A wrong rotation: first children on 1-slots, next siblings on 0-slots."""
    b, mp = rotation(t)
    b.slot = [1 - s if s >= 0 else s for s in b.slot]
    return b, mp


@pytest.mark.parametrize("rot", [rotation, _rotation_with_slots_swapped], ids=["rotation", "slots_swapped"])
def test_rotation_check_counts_as_the_ordered_pair_loop(monkeypatch, rot):
    monkeypatch.setattr(verify, "rotation", rot)
    got = verify.check_rotation_bijection(1)
    assert got["trees"] == 625
    assert got["statistic"] == _rotation_violations_ordered(rot)
    assert got["pass"] is (rot is rotation)
    if rot is not rotation:
        assert got["statistic"] > 0  # so the rewritten loop cannot pass vacuously


def _rotation_parents_stable(par):
    """The flat stable-argsort form: one stable argsort of every tree's parent
    keys puts siblings adjacent, in birth order."""
    reps, n1 = par.shape
    key = (par[:, 1:] + n1 * np.arange(reps)[:, None]).ravel()  # flat parent ids
    order = np.argsort(key, kind="stable")
    key = key[order]
    node = order % max(n1 - 1, 1) + 1
    first = np.diff(key, prepend=-1) != 0
    up = np.empty_like(key)
    up[order] = np.where(first, key % n1, np.roll(node, 1))
    out = np.zeros_like(par)
    out[:, 1:] = up.reshape(reps, n1 - 1)
    return out


@pytest.mark.parametrize("reps, n1", [(1, 100_001), (100_000, 7), (3, 1), (3, 2), (0, 6)])
def test_rotation_parents_equal_the_stable_argsort_form(reps, n1):
    # the distinct keys parent*m + position sort into the stable order
    par = rrt_parents(n1 - 1, reps, derive_stream(11, n1))
    got, ref = rotation_parents(par), _rotation_parents_stable(par)
    assert got.dtype == ref.dtype and got.shape == (reps, n1) and np.array_equal(got, ref)


def test_parent_depths_sums_each_nodes_step_along_its_path():
    par = rrt_parents(30, 4, derive_stream(11, 500))
    steps = derive_stream(11, 501).integers(-3, 4, par.shape)
    got = parent_depths(par, steps)
    for r in range(par.shape[0]):
        for u in range(par.shape[1]):
            want, v = 0, u
            while v:  # the root adds nothing
                want, v = want + steps[r, v], par[r, v]
            assert got[r, u] == want


def test_batched_bst_depth_matches_grow_bst_leaf():
    # one uniform node per tree: the depths of one tree's nodes are dependent
    n, reps = 100, 8000
    s = derive_stream(10, 25)
    scalar = []
    for _ in range(reps):
        t = grow_bst_leaf(n, s)
        scalar.append(t.depth[sample_uniform_node(t, s)])
    dep = parent_depths(rotation_parents(rrt_parents(n, reps, s)))
    batched = dep[np.arange(reps), s.integers(1, n + 1, reps)] - 1
    assert stats.ks_two_sample(scalar, batched) < stats.ks_two_sample_critical(0.01, reps, reps)


def test_rotation_inverse_of_bst_is_recursive_tree_law():
    reps = 30_000
    s = derive_stream(10, 16)
    a = shape_counts(lambda s: rotation_inverse(grow_bst_leaf(5, s))[0], reps, s)
    b = shape_counts(lambda s: grow_rrt(5, s), reps, s)
    _, _, p = stats.chi_square_two_sample(a, b)
    assert p > 0.01


# ---------------------------------------------------------------------------
# queries
# ---------------------------------------------------------------------------


def test_lca_trivials_and_errors():
    s = derive_stream(10, 17)
    t = grow_rrt(6, s)
    for u in range(t.n_nodes):
        assert lca(t, u, u) == u
        assert lca(t, 0, u) == 0
    with pytest.raises(ValueError):
        lca(t, 0, 99)


def test_left_depth_needs_binary():
    s = derive_stream(10, 18)
    with pytest.raises(ValueError):
        left_depth(grow_rrt(3, s), 1)
    t = grow_bst_leaf(5, s)
    for u in range(t.n_nodes):
        assert left_depth(t, u) == sum(1 for letter in t.word(u) if letter == 0)


def test_profile_examples():
    s = derive_stream(10, 19)
    t = grow_rrt(1, s)
    prof = profile(t)
    assert prof.weight(0) == 1.0 and prof.weight(1) == 1.0

    star = GrowingTree("planar")
    star.add_child(0)
    star.add_child(0)
    p_star = profile(star)
    assert p_star.weight(0) == pytest.approx(0.5) and p_star.weight(1) == pytest.approx(1.0)

    path = GrowingTree("planar")
    path.add_child(0)
    path.add_child(1)
    p_path = profile(path)
    assert [p_path.weight(k) for k in range(3)] == pytest.approx([0.5, 0.5, 0.5])

    for n in (1, 5, 40):
        t = grow_rrt(n, s)
        assert profile(t).total_mass == pytest.approx((n + 1) / n, abs=1e-12)


def test_swap_subtrees():
    s = derive_stream(10, 20)
    t = grow_bst_leaf(6, s)
    absent = (0, 1) * 8  # word certainly not in a 6-node tree
    assert swap_subtrees(t, absent).shape_key() == t.shape_key()
    before = t.shape_key()
    twice = swap_subtrees(swap_subtrees(t, ()), ())
    assert twice.shape_key() == before
    assert t.shape_key() == before  # original untouched (pure operation)
    chain = GrowingTree("binary")
    chain.add_child(0, 0)
    assert swap_subtrees(chain, ()).shape_key() != chain.shape_key()


def test_swap_subtrees_preserves_law():
    reps = 30_000
    s = derive_stream(10, 21)
    a = shape_counts(lambda s: swap_subtrees(grow_bst_leaf(5, s), ()), reps, s)
    b = shape_counts(lambda s: grow_bst_leaf(5, s), reps, s)
    _, _, p = stats.chi_square_two_sample(a, b)
    assert p > 0.01


def test_uniform_node_and_leaf_sampling():
    s = derive_stream(10, 22)
    t = grow_rrt(9, s)  # 10 nodes
    counts = Counter(sample_uniform_node(t, s) for _ in range(100_000))
    for u in range(10):
        assert abs(counts[u] / 100_000 - 0.1) < 0.01
    singleton = grow_rrt(0, s)
    assert sample_uniform_node(singleton, s) == 0
    assert sample_uniform_leaf(singleton, s) == 0
    k = grow_kary(3, 2, s)
    leaf_draws = {sample_uniform_leaf(k, s) for _ in range(200)}
    assert leaf_draws <= set(k.leaf_list)


def test_bst_uniform_node_letters_are_fair_bits():
    # one uniform node per fresh tree: each of the first three letters is a
    # fair bit (the slot-swap symmetry holds at every n, so n=300 suffices)
    s = derive_stream(10, 23)
    counts = [[0, 0], [0, 0], [0, 0]]
    for _ in range(25_000):
        t = grow_bst_leaf(100, s)
        w = t.word(sample_uniform_node(t, s))
        for i in range(min(3, len(w))):
            counts[i][w[i]] += 1
    for i in range(3):
        freq = counts[i][0] / (counts[i][0] + counts[i][1])
        assert abs(freq - 0.5) < 0.01, (i, freq)


def test_kary_mean_leaf_depth_scaling():
    # mean leaf depth / log n approaches 1 + 1/(kappa-1); a single run
    # fluctuates by ~0.05 (the root splits persist), so average 8 runs
    from mvpp.process import batch_kary_leaf_labels

    n = 100_000
    for kappa, beta in ((2, 2.0), (3, 1.5), (5, 1.25)):
        s = derive_stream(10, 40 + kappa)
        lab = batch_kary_leaf_labels(n, 8, (1,) * kappa, s)  # labels = depths
        ratio = float(lab.mean()) / math.log(n)
        assert abs(ratio - beta) <= 0.1, (kappa, ratio)


def test_rrt_lca_depth_approaches_geometric_half():
    # n-independent limit: Geometric(1/2) counting failures
    n, reps = 1000, 10_000
    s = derive_stream(10, 24)
    parents = np.zeros((reps, n + 1), dtype=np.int32)
    depths = np.zeros((reps, n + 1), dtype=np.int32)
    rows = np.arange(reps)
    for k in range(1, n + 1):
        p = s.integers(0, k, reps)
        parents[:, k] = p
        depths[:, k] = depths[rows, p] + 1
    u = s.integers(0, n + 1, reps)
    v = s.integers(0, n + 1, reps)
    while True:
        du, dv = depths[rows, u], depths[rows, v]
        m = du > dv
        m2 = dv > du
        if not m.any() and not m2.any():
            break
        u = np.where(m, parents[rows, u], u)
        v = np.where(m2, parents[rows, v], v)
    while (u != v).any():
        m = u != v
        u = np.where(m, parents[rows, u], u)
        v = np.where(m, parents[rows, v], v)
    pmf = stats.counts_to_pmf(Counter(depths[rows, u].tolist()))
    tv_half = stats.total_variation(pmf, {k: 0.5 ** (k + 1) for k in range(41)})
    assert tv_half < 0.05
