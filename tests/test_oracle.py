import numpy as np
import pytest

from mvpp import oracle, stats, verify
from mvpp.kernels import DColourKernel, KDiscreteKernel
from mvpp.measures import AtomicMeasure
from mvpp.randomness import derive_stream
from mvpp.trees import parent_depths, rotation_parents, rrt_parents

IDENT2 = DColourKernel([[1.0, 0.0], [0.0, 1.0]])


def test_exact_law_validation():
    law = oracle.ExactLaw({0: 0.5, 1: 0.5})
    law.check()
    with pytest.raises(AssertionError):
        oracle.ExactLaw({0: 0.7}).check()


# ---------------------------------------------------------------------------
# urn laws
# ---------------------------------------------------------------------------


def test_identity_urn_two_unit_balls():
    # classical exchangeable urn: all three count vectors equally likely,
    # compositions (3,1), (2,2), (1,3)
    m0 = AtomicMeasure([(0, 1.0), (1, 1.0)])
    law = oracle.exact_urn_law(m0, IDENT2, 2)
    for counts in ((2, 0), (1, 1), (0, 2)):
        assert law.probs[counts] == pytest.approx(1 / 3, abs=1e-12)
    assert oracle.dcolour_composition(m0, IDENT2, (2, 0)) == (3.0, 1.0)


def test_urn_law_n0_point_mass():
    m0 = AtomicMeasure([(0, 0.5), (1, 0.5)])
    law = oracle.exact_urn_law(m0, IDENT2, 0)
    assert law.probs == {(0, 0): 1.0}


def test_urn_law_mass_conservation():
    m0 = AtomicMeasure([(0, 0.25), (1, 0.75)])
    kern = DColourKernel([[0.5, 0.5], [0.25, 0.75]])
    n = 4
    law = oracle.exact_urn_law(m0, kern, n)
    for counts in law.probs:
        comp = oracle.dcolour_composition(m0, kern, counts)
        assert sum(comp) == pytest.approx(m0.total_mass + n, abs=1e-12)


def test_urn_law_budgets():
    m0 = AtomicMeasure([(0, 1.0), (1, 1.0)])
    with pytest.raises(oracle.BudgetError):
        oracle.exact_urn_law(m0, IDENT2, 9)


def test_urn_law_kdiscrete_states():
    kern = KDiscreteKernel.from_offsets((0, 1))
    m0 = AtomicMeasure([(0, 0.5)])  # one ball of colour 0
    law = oracle.exact_urn_law(m0, kern, 1)
    # drawing the single ball yields balls at 0 and 1
    assert law.probs == {((0, 1), (1, 1)): pytest.approx(1.0)}
    law2 = oracle.exact_urn_law(m0, kern, 2)
    assert law2.check().total() == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# joint depth laws
# ---------------------------------------------------------------------------


def test_rrt_joint_depths_n1():
    law = oracle.exact_rrt_joint_depths(1)
    # two nodes: each of U, V uniform on {root, child}
    assert law.probs[(0, 0, 0)] == pytest.approx(0.25)
    assert law.probs[(1, 1, 1)] == pytest.approx(0.25)
    assert law.probs[(0, 1, 0)] == pytest.approx(0.25)
    assert law.probs[(1, 0, 0)] == pytest.approx(0.25)


def test_rrt_joint_depths_n2_lca_marginal():
    # recomputed by enumeration: 2 histories x 9 ordered pairs gives 2/3
    law = oracle.exact_rrt_joint_depths(2)
    assert law.marginal(lambda o: o[2]).probs[0] == pytest.approx(2 / 3, abs=1e-12)


def test_rrt_depth_marginal_consistency():
    joint = oracle.exact_rrt_joint_depths(3).marginal(lambda o: o[0])
    single = oracle.exact_rrt_depth(3)
    assert joint.max_abs_diff(single) < 1e-12


def test_bst_joint_depths_n1_and_n2():
    dlaw, llaw = oracle.exact_bst_joint_depths(1)
    assert dlaw.probs == {(0, 0, 0): pytest.approx(1.0)}
    dlaw2, _ = oracle.exact_bst_joint_depths(2)
    m = dlaw2.marginal(lambda o: o[2])
    assert m.probs[0] == pytest.approx(0.75)
    assert m.probs[1] == pytest.approx(0.25)


def test_left_depth_transport_law_at_n3():
    # pair-depth law: BST left-depths equal RRT depths minus one over the
    # non-root nodes
    _, llaw = oracle.exact_bst_joint_depths(3)
    bst_pairs = llaw.marginal(lambda o: (o[0], o[1]))
    rrt = oracle.exact_rrt_joint_depths(3, include_root=False)
    rrt_pairs = rrt.marginal(lambda o: (o[0] - 1, o[1] - 1))
    assert bst_pairs.max_abs_diff(rrt_pairs) < 1e-12


@pytest.fixture(scope="module", params=[3, 8])
def joint_depth_laws(request):
    n = request.param
    return n, oracle.exact_rrt_joint_depths(n), oracle.exact_bst_joint_depths(n)


def test_joint_depth_laws_hold_their_mass_up_to_the_budget(joint_depth_laws):
    # at n = 8, adding 1.3 million equal double weights drifted past 1e-12
    _, rrt, (depth_law, left_law) = joint_depth_laws
    for law in (rrt, depth_law, left_law):
        law.check()


def test_marginals_do_not_depend_on_the_key_order(joint_depth_laws):
    # a law rebuilt with its keys reversed gives bit-equal marginals
    _, rrt, (depth_law, left_law) = joint_depth_laws
    for law in (rrt, depth_law, left_law):
        reversed_law = oracle.ExactLaw(dict(reversed(list(law.probs.items()))))
        for key in (lambda o: o[0], lambda o: o[1], lambda o: o[2], lambda o: (o[0], o[1])):
            assert reversed_law.marginal(key).probs == law.marginal(key).probs


def test_batched_tree_paths_match_the_joint_depth_laws(joint_depth_laws):
    # the one-node binary-tree depth and both LCA depths of the parent-array
    # path, scored as verify scores its LCA checks
    n, rrt, (bst, _) = joint_depth_laws
    reps = 100_000
    s = derive_stream(12, n)
    bpar = rotation_parents(rrt_parents(n, reps, s))
    depth = parent_depths(bpar)[np.arange(reps), s.integers(1, n + 1, reps)] - 1
    d, cnt = np.unique(depth, return_counts=True)
    ref = bst.marginal(lambda o: o[0]).probs
    tv = stats.total_variation(dict(zip(d.tolist(), (cnt / reps).tolist())), ref)
    assert tv <= verify._tv_threshold(ref, reps)
    for law, par, lo in ((rrt, rrt_parents(n, reps, s), 0), (bst, bpar, 1)):
        ref = law.marginal(lambda o: o[2]).probs
        assert verify._lca_pmf("lca", ref, n, par, lo, s)["pass"]


def _pair_by_pair_counts(n, include_root=True):
    """The joint depth counts of every history and every ordered node pair,
    one LCA walk per pair: recursive-tree depth triples, then binary-tree
    depth and left-depth triples, each keyed in first-seen order."""

    def lca(parent, dep, u, v):
        while u != v:
            if dep[u] >= dep[v]:
                u = parent[u]
            else:
                v = parent[v]
        return u

    rrt, bst, left = {}, {}, {}
    parent, dep = [0] * (n + 1), [0] * (n + 1)
    nodes = range(0 if include_root else 1, n + 1)

    def rec_rrt(k):
        if k > n:
            for u in nodes:
                for v in nodes:
                    o = (dep[u], dep[v], dep[lca(parent, dep, u, v)])
                    rrt[o] = rrt.get(o, 0) + 1
            return
        for par in range(k):
            parent[k], dep[k] = par, dep[par] + 1
            rec_rrt(k + 1)

    ldep = [0] * n

    def rec_bst(k, free):
        if k == n:
            for u in range(n):
                for v in range(n):
                    m = lca(parent, dep, u, v)
                    o, ol = (dep[u], dep[v], dep[m]), (ldep[u], ldep[v], ldep[m])
                    bst[o] = bst.get(o, 0) + 1
                    left[ol] = left.get(ol, 0) + 1
            return
        for i, (par, side) in enumerate(free):
            parent[k], dep[k], ldep[k] = par, dep[par] + 1, ldep[par] + (side == 0)
            rec_bst(k + 1, free[:i] + free[i + 1 :] + [(k, 0), (k, 1)])

    rec_rrt(1)
    rec_bst(1, [(0, 0), (0, 1)])
    return rrt, bst, left


@pytest.mark.parametrize("n", [1, 2, 3, 5, 7])
def test_joint_depth_laws_equal_the_pair_by_pair_count(n):
    # key for key and bit for bit, laws and marginals alike
    rrt, bst, left = _pair_by_pair_counts(n)
    rrt_inner = _pair_by_pair_counts(n, include_root=False)[0]
    laws = (
        oracle.exact_rrt_joint_depths(n),
        oracle.exact_rrt_joint_depths(n, include_root=False),
        *oracle.exact_bst_joint_depths(n),
    )
    for law, counts in zip(laws, (rrt, rrt_inner, bst, left)):
        total = sum(counts.values())
        ref = oracle.ExactLaw({o: c / total for o, c in counts.items()})
        assert law.probs == ref.probs
        for key in (lambda o: o[0], lambda o: o[2], lambda o: (o[0], o[1])):
            assert law.marginal(key).probs == ref.marginal(key).probs


def test_depth_budgets():
    with pytest.raises(oracle.BudgetError):
        oracle.exact_rrt_joint_depths(9)
    with pytest.raises(oracle.BudgetError):
        oracle.exact_bst_joint_depths(9)


# ---------------------------------------------------------------------------
# kappa-ary subtree laws
# ---------------------------------------------------------------------------


def test_kary_tree_count():
    assert oracle.kary_tree_count(2, 2) == 2  # (1/3) C(4,2)
    assert oracle.kary_tree_count(0, 3) == 1
    assert oracle.kary_tree_count(3, 2) == 5  # Catalan
    assert oracle.kary_tree_count(2, 3) == 3


def test_kary_subtree_law_small():
    law = oracle.exact_kary_subtree_law(2, 2)
    assert law.probs[(1, 0)] == pytest.approx(0.5)
    assert law.probs[(0, 1)] == pytest.approx(0.5)


def test_kary_enumerated_vs_closed_form():
    for n, kappa in ((4, 2), (3, 3), (2, 4)):
        enum = oracle.exact_kary_subtree_law(n, kappa)
        closed = oracle.closed_form_kary(n, kappa)
        assert enum.max_abs_diff(closed) <= 1e-10, (n, kappa)


def test_kary_budget():
    with pytest.raises(oracle.BudgetError):
        oracle.exact_kary_subtree_law(13, 2)


# ---------------------------------------------------------------------------
# coupling laws
# ---------------------------------------------------------------------------


def test_coupling_one_step_identical():
    m0 = AtomicMeasure([(0, 0.5), (1, 0.5)])
    kern = DColourKernel([[0.5, 0.5], [0.25, 0.75]])
    laws = oracle.exact_coupling_law(m0, kern, 1)
    assert laws["direct"].max_abs_diff(laws["rrt"]) < 1e-15
    assert laws["direct"].max_abs_diff(laws["bst"]) < 1e-15


def test_coupling_three_steps_all_constructions():
    m0 = AtomicMeasure([(0, 0.5), (1, 0.5)])
    kern = DColourKernel([[0.5, 0.5], [0.25, 0.75]])
    laws = oracle.exact_coupling_law(m0, kern, 3)
    assert laws["direct"].max_abs_diff(laws["rrt"]) <= 1e-12
    assert laws["direct"].max_abs_diff(laws["bst"]) <= 1e-12
    with pytest.raises(oracle.BudgetError):
        oracle.exact_coupling_law(m0, kern, 4)


def test_coupling_point_mass_start():
    m0 = AtomicMeasure([(1, 1.0)])
    kern = DColourKernel([[0.9, 0.1], [0.2, 0.8]])
    laws = oracle.exact_coupling_law(m0, kern, 2)
    assert laws["direct"].max_abs_diff(laws["rrt"]) <= 1e-12
    assert laws["direct"].max_abs_diff(laws["bst"]) <= 1e-12


# ---------------------------------------------------------------------------
# kappa-discrete leaf law
# ---------------------------------------------------------------------------


def test_kdiscrete_leaf_law_example():
    kern = KDiscreteKernel.from_offsets((0, 1))
    law = oracle.exact_kdiscrete_leaf_law(kern, 2, 0)
    assert law.probs[(0, 1, 1)] == pytest.approx(0.5)
    assert law.probs[(0, 1, 2)] == pytest.approx(0.5)
    # the colour-0 ball persists in every outcome here
    assert all(min(outcome) == 0 for outcome in law.probs)


def test_kdiscrete_leaf_law_matches_measure_dynamics():
    # the sorted leaf multiset determines the urn state: compare with the
    # direct without-replacement enumeration started from one ball
    kern = KDiscreteKernel.from_offsets((0, 1))
    leaf_law = oracle.exact_kdiscrete_leaf_law(kern, 2, 0)
    urn_law = oracle.exact_urn_law(AtomicMeasure([(0, 0.5)]), kern, 2)
    derived = oracle.ExactLaw()
    for leaves, p in leaf_law.probs.items():
        balls = {}
        for c in leaves:
            balls[c] = balls.get(c, 0) + 1
        derived.add(tuple(sorted(balls.items())), p)
    assert derived.max_abs_diff(urn_law) < 1e-12
