"""Exact ground truth at tiny n.

Every closed form and every simulator in the package is checked against the
laws here on small instances.  Budgets are hard caps with explicit errors,
never silent truncation.  The Markov-chain laws (urn compositions, the
coupling legs, the recursive-tree depth, the kappa-ary subtree and leaf
laws) are carried state by state by one engine, _evolve, which merges equal
states, so each state's mass is summed once per step instead of once per
history: adding millions of equal history weights had drifted past the 1e-12
tolerance of ExactLaw.check inside the budgets.  The joint depth laws count
every equally likely (history, pair) case as an integer and divide once at
the end, so their mass is 1 to within a few ulps.  Marginals are order-free:
ExactLaw.marginal sums each value's probabilities exactly rounded
(math.fsum), so two laws equal as dicts give equal marginals whatever their
key order.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from math import comb

from .kernels import DColourKernel, KDiscreteKernel
from .measures import AtomicMeasure


class BudgetError(ValueError):
    """Requested instance exceeds the enumeration budget."""


@dataclass
class ExactLaw:
    """Finite law as a dict outcome -> probability."""

    probs: dict = field(default_factory=dict)

    def add(self, outcome, p: float):
        self.probs[outcome] = self.probs.get(outcome, 0.0) + p

    def total(self) -> float:
        return sum(self.probs.values())

    def check(self) -> "ExactLaw":
        t = self.total()
        if abs(t - 1.0) > 1e-12:
            raise AssertionError(f"law mass {t} is off from 1 by more than 1e-12")
        if any(p < -1e-12 for p in self.probs.values()):
            raise AssertionError("negative probability")
        return self

    def marginal(self, fn) -> "ExactLaw":
        """Law of fn(outcome), each value's mass an fsum: free of key order."""
        parts: dict = {}
        for outcome, p in self.probs.items():
            parts.setdefault(fn(outcome), []).append(p)
        return ExactLaw({k: math.fsum(ps) for k, ps in parts.items()})

    def max_abs_diff(self, other: "ExactLaw") -> float:
        keys = set(self.probs) | set(other.probs)
        return max(abs(self.probs.get(k, 0.0) - other.probs.get(k, 0.0)) for k in keys)


def _equal_weight_law(counts: Counter) -> ExactLaw:
    """Law of outcomes counted once per equally likely case."""
    total = sum(counts.values())
    return ExactLaw({o: c / total for o, c in counts.items()}).check()


# ---------------------------------------------------------------------------
# one engine for the Markov-chain laws
# ---------------------------------------------------------------------------


def _evolve(start, moves, steps: int) -> dict:
    """Law of a Markov chain after `steps` steps from `start`: moves(state, p)
    yields (next state, the part of the mass p it carries there), and equal
    next states merge, so each state's mass is summed once per step."""
    law = {start: 1.0}
    for _ in range(steps):
        nxt: dict = {}
        for state, p in law.items():
            for new, q in moves(state, p):
                nxt[new] = nxt.get(new, 0.0) + q
        law = nxt
    return law


def _bump(counts: tuple, j: int) -> tuple:
    """counts with entry j one higher."""
    return counts[:j] + (counts[j] + 1,) + counts[j + 1 :]


# ---------------------------------------------------------------------------
# urn composition laws
# ---------------------------------------------------------------------------


def exact_urn_law(m0: AtomicMeasure, kernel, n: int) -> ExactLaw:
    """Exact law of the draw-count vector after n steps.

    For a finite-palette kernel the outcome is the tuple of per-colour draw
    counts; for a kappa-discrete kernel it is the sorted tuple of
    (colour, ball count) pairs of the final urn.
    """
    if n > 8:
        raise BudgetError(f"n={n} exceeds the enumeration budget of 8")
    if n < 0:
        raise ValueError("n must be >= 0")
    if isinstance(kernel, DColourKernel):
        if len(m0.atoms()) > 4:
            raise BudgetError("initial measure over more than 4 colours")

        def moves(counts, p):
            mass = m0.total_mass + sum(counts)
            for j, c in enumerate(dcolour_composition(m0, kernel, counts)):
                if c > 0:
                    yield _bump(counts, j), p * c / mass

        return ExactLaw(_evolve((0,) * kernel.d, moves, n)).check()
    if not isinstance(kernel, KDiscreteKernel):
        raise ValueError("exact urn law needs a finite-palette or kappa-discrete kernel")
    balls0 = {}
    for colour, w in m0.atoms():
        b = w * kernel.kappa
        if abs(b - round(b)) > 1e-9 or round(b) < 1:
            raise ValueError(f"atom weight {w} is not a positive multiple of 1/{kernel.kappa}")
        balls0[colour] = int(round(b))
    if len(balls0) > 4:
        raise BudgetError("initial measure over more than 4 colours")

    def draw_a_ball(state, p):
        total = sum(b for _, b in state)
        for x, bx in state:
            if bx <= 0:
                continue
            balls = dict(state)
            balls[x] -= 1
            if balls[x] == 0:
                del balls[x]
            for y in kernel.atom_tuple(x):
                balls[y] = balls.get(y, 0) + 1
            yield tuple(sorted(balls.items())), p * bx / total

    return ExactLaw(_evolve(tuple(sorted(balls0.items())), draw_a_ball, n)).check()


def dcolour_composition(m0: AtomicMeasure, kernel: DColourKernel, counts) -> tuple:
    """Urn composition vector determined by a draw-count outcome."""
    return tuple(m0.weight(j) + sum(c * row[j] for c, row in zip(counts, kernel.rows)) for j in range(kernel.d))


# ---------------------------------------------------------------------------
# joint depth laws on small random trees
# ---------------------------------------------------------------------------


def _lca(parent: list, dep: list, u: int, v: int) -> int:
    while dep[u] > dep[v]:
        u = parent[u]
    while dep[v] > dep[u]:
        v = parent[v]
    while u != v:
        u, v = parent[u], parent[v]
    return u


def exact_rrt_joint_depths(n: int, include_root: bool = True) -> ExactLaw:
    """Joint law of (|U|, |V|, |U ^ V|) for independent uniform nodes U, V of
    the n-step recursive tree, enumerated over all attachment histories.
    U = V is allowed; include_root=False restricts U, V to non-root nodes.

    A pair's triple is fixed once its later node k attaches, so each history
    prefix counts node k against every earlier node (both orders, one walk)
    and itself, weighted by its n!/k! completions."""
    if n > 8:
        raise BudgetError(f"n={n} exceeds the enumeration budget of 8")
    if n < 1:
        raise ValueError("n must be >= 1")
    counts: Counter = Counter()  # every (history, pair) case is equally likely
    parent = [0] * (n + 1)
    dep = [0] * (n + 1)
    lo = 0 if include_root else 1
    ways = [math.factorial(n) // math.factorial(k) for k in range(n + 1)]

    def rec(k: int):
        w = ways[k]
        for par in range(k):
            parent[k] = par
            dk = dep[k] = dep[par] + 1
            counts[dk, dk, dk] += w
            for u in range(lo, k):
                du, dl = dep[u], dep[_lca(parent, dep, u, k)]
                counts[du, dk, dl] += w
                counts[dk, du, dl] += w
            if k < n:
                rec(k + 1)

    if include_root:
        counts[0, 0, 0] += ways[0]
    rec(1)
    return _equal_weight_law(counts)


def exact_rrt_depth(n: int) -> ExactLaw:
    """Marginal depth law of one uniform node, carried over the sorted depth
    multiset of the tree: an implementation-independent oracle."""
    if n > 8:
        raise BudgetError(f"n={n} exceeds the enumeration budget of 8")
    if n < 0:
        raise ValueError("n must be >= 0")

    def attach(depths, p):  # a uniform node of the k-node tree takes a child
        for dep, m in Counter(depths).items():
            yield tuple(sorted(depths + (dep + 1,))), p * m / len(depths)

    law = ExactLaw()
    for depths, p in _evolve((0,), attach, n).items():
        for dep, m in Counter(depths).items():
            law.add(dep, p * m / (n + 1))
    return law.check()


def exact_bst_joint_depths(n: int) -> tuple:
    """Joint laws for the n-node uniform-slot binary tree: returns
    (depth triple law, left-depth triple law) for two independent uniform
    nodes (U = V allowed).  Counted by history prefix as in
    exact_rrt_joint_depths, with n!/(k+1)! completions after node k."""
    if n > 8:
        raise BudgetError(f"n={n} exceeds the enumeration budget of 8")
    if n < 1:
        raise ValueError("n must be >= 1")
    # every (history, pair) case is equally likely: k+1 free slots at step k
    depth_counts: Counter = Counter()
    left_counts: Counter = Counter()
    parent = [-1] * n
    dep = [0] * n
    ldep = [0] * n
    ways = [math.factorial(n) // math.factorial(k + 1) for k in range(n)]

    def add(k: int):
        dk, lk, w = dep[k], ldep[k], ways[k]
        depth_counts[dk, dk, dk] += w
        left_counts[lk, lk, lk] += w
        for u in range(k):
            m = _lca(parent, dep, u, k)
            du, dm, lu, lm = dep[u], dep[m], ldep[u], ldep[m]
            depth_counts[du, dk, dm] += w
            depth_counts[dk, du, dm] += w
            left_counts[lu, lk, lm] += w
            left_counts[lk, lu, lm] += w

    def rec(k: int, free: list):
        for i in range(len(free)):
            par, sl = free[i]
            parent[k] = par
            dep[k] = dep[par] + 1
            ldep[k] = ldep[par] + (1 if sl == 0 else 0)
            add(k)
            if k < n - 1:
                rec(k + 1, free[:i] + free[i + 1 :] + [(k, 0), (k, 1)])

    add(0)
    if n > 1:
        rec(1, [(0, 0), (0, 1)])
    return _equal_weight_law(depth_counts), _equal_weight_law(left_counts)


# ---------------------------------------------------------------------------
# kappa-ary subtree sizes
# ---------------------------------------------------------------------------


def kary_tree_count(m: int, kappa: int) -> int:
    """Number of kappa-ary trees with m internal nodes:
    C(kappa m, m) / ((kappa-1) m + 1)."""
    if m < 0:
        raise ValueError("m must be >= 0")
    return comb(kappa * m, m) // ((kappa - 1) * m + 1)


def exact_kary_subtree_law(n: int, kappa: int) -> ExactLaw:
    """Law of the internal-node counts of the root's kappa subtrees after n
    uniform leaf splits.  The first split founds the subtrees; after it a
    subtree with c internal nodes holds 1 + c (kappa-1) of the leaves, so
    the counts alone are the state."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if kappa < 2:
        raise ValueError("kappa must be >= 2")
    if n * (kappa - 1) > 12:
        raise BudgetError("n*(kappa-1) exceeds the enumeration budget of 12")

    def split(counts, p):
        leaves = 1 + (kappa - 1) * (1 + sum(counts))
        for i, c in enumerate(counts):
            yield _bump(counts, i), p * (1 + (kappa - 1) * c) / leaves

    return ExactLaw(_evolve((0,) * kappa, split, n - 1)).check()


def closed_form_kary(n: int, kappa: int) -> ExactLaw:
    """Closed-form law of the root subtree sizes: the Dirichlet-multinomial
    with concentration 1/(kappa-1),

        P(n_1..n_k) = multinomial(n-1; n_1..n_k) * prod_i A(n_i) / A(n),

    where A(m) = prod_{j=0}^{m-1} (1 + j (kappa-1)) counts the growth
    histories of a subtree with m internal nodes.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if kappa < 2:
        raise ValueError("kappa must be >= 2")

    def a_factor(m: int) -> float:
        out = 1.0
        for j in range(m):
            out *= 1 + j * (kappa - 1)
        return out

    denom = a_factor(n)
    law = ExactLaw()

    def multinomial(parts: tuple) -> float:
        out = 1.0
        acc = 0
        for part in parts:
            acc += part
            out *= comb(acc, part)
        return out

    def rec(remaining: int, slots: int, prefix: tuple, coeff: float):
        if slots == 1:
            parts = prefix + (remaining,)
            law.add(parts, coeff * a_factor(remaining) * multinomial(parts) / denom)
            return
        for ni in range(remaining + 1):
            rec(remaining - ni, slots - 1, prefix + (ni,), coeff * a_factor(ni))

    rec(n - 1, kappa, (), 1.0)
    return law.check()


# ---------------------------------------------------------------------------
# coupling equivalence at tiny n
# ---------------------------------------------------------------------------


def exact_coupling_law(m0: AtomicMeasure, kernel: DColourKernel, n: int) -> dict:
    """Law of the draw-count vector under the three constructions: the direct
    drawing scheme, the labelled recursive tree, and the leaf-labelled binary
    tree.  All three must agree to within accumulated rounding."""
    if n > 3:
        raise BudgetError("coupling enumeration is budgeted to n <= 3")
    if n < 0:
        raise ValueError("n must be >= 0")
    d = kernel.d
    if abs(m0.total_mass - 1.0) > 1e-12:
        raise ValueError("coupling laws assume unit initial mass")
    nor0 = [m0.weight(j) for j in range(d)]

    def offspring(tag):  # (colour, probability) of a child of what carries `tag`
        return [(c, w) for c, w in enumerate(nor0 if tag is None else kernel.rows[tag]) if w > 0]

    def node_takes_a_child(nodes, p):
        # nodes[t]: the nodes of colour t; the root is the uncoloured node
        k = 1 + sum(nodes)
        for tag, m in ((None, 1), *enumerate(nodes)):
            if m:
                for c, w in offspring(tag):
                    yield _bump(nodes, c), p * m / k * w

    def leaf_splits(leaves, p):
        # leaves[0]: the initial packet, leaves[1 + t]: the packets of colour t;
        # a leaf keeps its packet and adds a fresh one of the drawn colour
        for t, m in enumerate(leaves):
            if m:
                for c, w in offspring(t - 1 if t else None):
                    yield _bump(leaves, 1 + c), p * m / sum(leaves) * w

    bst = _evolve((1,) + (0,) * d, leaf_splits, n)
    return {
        "direct": exact_urn_law(m0, kernel, n),
        "rrt": ExactLaw(_evolve((0,) * d, node_takes_a_child, n)).check(),
        "bst": ExactLaw({leaves[1:]: p for leaves, p in bst.items()}).check(),
    }


def exact_kdiscrete_leaf_law(kernel: KDiscreteKernel, n: int, root_colour) -> ExactLaw:
    """Law of the sorted leaf-label multiset of the kappa-ary coupling after
    n steps, started from a single ball of the given colour.  Sibling
    shuffles permute labels without changing the multiset, so the multiset
    is the state."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if (kernel.kappa - 1) * n > 12:
        raise BudgetError("n*(kappa-1) exceeds the enumeration budget of 12")

    def split(leaves, p):
        for x, m in Counter(leaves).items():
            i = leaves.index(x)
            yield tuple(sorted(leaves[:i] + leaves[i + 1 :] + kernel.atom_tuple(x))), p * m / len(leaves)

    return ExactLaw(_evolve((root_colour,), split, n)).check()
