"""Exact ground truth at tiny n, by exhaustive enumeration.

Every closed form and every simulator in the package is checked against the
enumerations here on small instances.  Budgets are hard caps with explicit
errors, never silent truncation.  Where every enumerated case is equally
likely (the joint depth laws), outcomes are counted as integers and divided
once at the end, so the mass is 1 to within a few ulps: adding 1.3 million
equal double weights at n = 8 drifted 1.3e-12 from 1, past the 1e-12
tolerance of ExactLaw.check.  The other laws accumulate probabilities in
double precision.
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

    def check(self, tol: float = 1e-12) -> "ExactLaw":
        t = self.total()
        if abs(t - 1.0) > tol:
            raise AssertionError(f"law mass {t} is off from 1 by more than {tol}")
        if any(p < -tol for p in self.probs.values()):
            raise AssertionError("negative probability")
        return self

    def marginal(self, fn) -> "ExactLaw":
        out = ExactLaw()
        for outcome, p in self.probs.items():
            out.add(fn(outcome), p)
        return out

    def max_abs_diff(self, other: "ExactLaw") -> float:
        keys = set(self.probs) | set(other.probs)
        return max(abs(self.probs.get(k, 0.0) - other.probs.get(k, 0.0)) for k in keys)


def _equal_weight_law(counts: Counter) -> ExactLaw:
    """Law of outcomes counted once per equally likely case."""
    total = sum(counts.values())
    return ExactLaw({o: c / total for o, c in counts.items()}).check()


# ---------------------------------------------------------------------------
# urn composition laws
# ---------------------------------------------------------------------------


def exact_urn_law(m0: AtomicMeasure, kernel, n: int) -> ExactLaw:
    """Law of the draw-count vector after n steps, enumerated exactly.

    For a finite-palette kernel the outcome is the tuple of per-colour draw
    counts; for a kappa-discrete kernel it is the sorted tuple of
    (colour, ball count) pairs of the final urn.
    """
    if n > 8:
        raise BudgetError(f"n={n} exceeds the enumeration budget of 8")
    if n < 0:
        raise ValueError("n must be >= 0")
    if isinstance(kernel, DColourKernel):
        return _exact_urn_law_dcolour(m0, kernel, n)
    if isinstance(kernel, KDiscreteKernel):
        return _exact_urn_law_kdiscrete(m0, kernel, n)
    raise ValueError("exact urn law needs a finite-palette or kappa-discrete kernel")


def _exact_urn_law_dcolour(m0: AtomicMeasure, kernel: DColourKernel, n: int) -> ExactLaw:
    d = kernel.d
    if len(m0.atoms()) > 4:
        raise BudgetError("initial measure over more than 4 colours")
    w0 = [m0.weight(j) for j in range(d)]
    mass0 = m0.total_mass
    states = {tuple([0] * d): 1.0}
    for k in range(n):
        nxt: dict = {}
        mass = mass0 + k
        for counts, p in states.items():
            comp = [
                w0[j] + sum(counts[i] * kernel.rows[i][j] for i in range(d))
                for j in range(d)
            ]
            for j in range(d):
                if comp[j] <= 0:
                    continue
                nc = list(counts)
                nc[j] += 1
                key = tuple(nc)
                nxt[key] = nxt.get(key, 0.0) + p * comp[j] / mass
        states = nxt
    return ExactLaw(states).check()


def dcolour_composition(m0: AtomicMeasure, kernel: DColourKernel, counts) -> tuple:
    """Urn composition vector determined by a draw-count outcome."""
    d = kernel.d
    return tuple(
        m0.weight(j) + sum(counts[i] * kernel.rows[i][j] for i in range(d))
        for j in range(d)
    )


def _exact_urn_law_kdiscrete(m0: AtomicMeasure, kernel: KDiscreteKernel, n: int) -> ExactLaw:
    kappa = kernel.kappa
    balls0 = {}
    for colour, w in m0.atoms():
        b = w * kappa
        if abs(b - round(b)) > 1e-9:
            raise ValueError(f"atom weight {w} is not a multiple of 1/{kappa}")
        balls0[colour] = int(round(b))
    if len(balls0) > 4:
        raise BudgetError("initial measure over more than 4 colours")
    start = tuple(sorted(balls0.items()))
    states = {start: 1.0}
    for _ in range(n):
        nxt: dict = {}
        for state, p in states.items():
            balls = dict(state)
            total = sum(balls.values())
            for x, bx in list(balls.items()):
                if bx <= 0:
                    continue
                newb = dict(balls)
                newb[x] -= 1
                if newb[x] == 0:
                    del newb[x]
                for y in kernel.atom_tuple(x):
                    newb[y] = newb.get(y, 0) + 1
                key = tuple(sorted(newb.items()))
                nxt[key] = nxt.get(key, 0.0) + p * bx / total
        states = nxt
    return ExactLaw(states).check()


# ---------------------------------------------------------------------------
# joint depth laws on small random trees
# ---------------------------------------------------------------------------


def _first_seen_order(counts: Counter, seen: int, lab: list, pairs: list) -> int:
    """Move the keys `counts` gained past its first `seen` into the order in
    which the triples (lab[u], lab[v], lab[lca]) of `pairs` first list them;
    return the new key count.  With `pairs` one history's node pairs in
    row-major order, the keys keep the order of a pair-by-pair count, so sums
    over the law (ExactLaw.marginal) round the same way."""
    fresh = set(list(counts)[seen:])
    for o in dict.fromkeys((lab[u], lab[v], lab[m]) for u, v, m in pairs):
        if o in fresh:
            counts[o] = counts.pop(o)
    return len(counts)


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
    seen = 0

    def rec(k: int):
        nonlocal seen
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
            elif len(counts) > seen:  # new keys in this history
                nodes = range(lo, n + 1)
                pairs = [(u, v, _lca(parent, dep, u, v)) for u in nodes for v in nodes]
                seen = _first_seen_order(counts, seen, dep, pairs)

    if include_root:
        counts[0, 0, 0] += ways[0]
    rec(1)
    return _equal_weight_law(counts)


def exact_rrt_depth(n: int) -> ExactLaw:
    """Marginal depth law of one uniform node (independent enumeration)."""
    if n > 8:
        raise BudgetError(f"n={n} exceeds the enumeration budget of 8")
    # depth of node k is a sum of independent record indicators; enumerate
    # directly over histories for an implementation-independent oracle
    law = ExactLaw()
    dep = [0] * (n + 1)
    hist_p = 1.0 / math.factorial(n)

    def rec(k: int):
        if k > n:
            for u in range(n + 1):
                law.add(dep[u], hist_p / (n + 1))
            return
        for par in range(k):
            dep[k] = dep[par] + 1
            rec(k + 1)

    rec(1)
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
    seen = [0, 0]

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
            elif [len(depth_counts), len(left_counts)] != seen:  # new keys in this history
                pairs = [(u, v, _lca(parent, dep, u, v)) for u in range(n) for v in range(n)]
                seen[0] = _first_seen_order(depth_counts, seen[0], dep, pairs)
                seen[1] = _first_seen_order(left_counts, seen[1], ldep, pairs)

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
    uniform leaf splits, enumerated over all histories."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n * (kappa - 1) > 12:
        raise BudgetError("n*(kappa-1) exceeds the enumeration budget of 12")
    law = ExactLaw()

    # leaves carry the index of the root subtree they live in
    def rec(step: int, leaves: tuple, counts: tuple, p: float):
        if step == n:
            law.add(counts, p)
            return
        q = p / len(leaves)
        for i, sub in enumerate(leaves):
            if sub < 0:
                # splitting the root: children found the kappa subtrees
                new_leaves = leaves[:i] + leaves[i + 1 :] + tuple(range(kappa))
                rec(step + 1, new_leaves, counts, q)
            else:
                nc = list(counts)
                nc[sub] += 1
                new_leaves = leaves[:i] + leaves[i + 1 :] + (sub,) * kappa
                rec(step + 1, new_leaves, tuple(nc), q)

    rec(0, (-1,), tuple([0] * kappa), 1.0)
    return law.check()


def closed_form_kary(n: int, kappa: int) -> ExactLaw:
    """Closed-form law of the root subtree sizes: the Dirichlet-multinomial
    with concentration 1/(kappa-1),

        P(n_1..n_k) = multinomial(n-1; n_1..n_k) * prod_i A(n_i) / A(n),

    where A(m) = prod_{j=0}^{m-1} (1 + j (kappa-1)) counts the growth
    histories of a subtree with m internal nodes.
    """
    if n < 1:
        raise ValueError("n must be >= 1")

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
    d = kernel.d
    if abs(m0.total_mass - 1.0) > 1e-12:
        raise ValueError("coupling laws assume unit initial mass")
    nor0 = [m0.weight(j) for j in range(d)]

    direct = _exact_urn_law_dcolour(m0, kernel, n)

    rrt = ExactLaw()

    def rec_rrt(labels: tuple, p: float):
        k = len(labels)  # labels[0] is the initial packet (no colour)
        if k == n + 1:
            counts = [0] * d
            for c in labels[1:]:
                counts[c] += 1
            rrt.add(tuple(counts), p)
            return
        for parent in range(k):
            q = p / k
            if parent == 0:
                for c in range(d):
                    if nor0[c] > 0:
                        rec_rrt(labels + (c,), q * nor0[c])
            else:
                row = kernel.rows[labels[parent]]
                for c in range(d):
                    if row[c] > 0:
                        rec_rrt(labels + (c,), q * row[c])

    rec_rrt((None,), 1.0)

    bst = ExactLaw()

    def rec_bst(leaves: tuple, counts: tuple, p: float):
        # leaves: packet tags, None for the initial packet; coin flips
        # permute leaf positions only, so they are integrated out
        if sum(counts) == n:
            bst.add(counts, p)
            return
        q = p / len(leaves)
        for i, tag in enumerate(leaves):
            dist = nor0 if tag is None else kernel.rows[tag]
            for c in range(d):
                if dist[c] > 0:
                    nc = list(counts)
                    nc[c] += 1
                    rec_bst(
                        leaves[:i] + (tag, c) + leaves[i + 1 :],
                        tuple(nc),
                        q * dist[c],
                    )

    rec_bst((None,), tuple([0] * d), 1.0)

    return {"direct": direct.check(), "rrt": rrt.check(), "bst": bst.check()}


def exact_kdiscrete_leaf_law(kernel: KDiscreteKernel, n: int, root_colour) -> ExactLaw:
    """Law of the sorted leaf-label multiset of the kappa-ary coupling after
    n steps, started from a single ball of the given colour.  Sibling
    shuffles permute labels without changing the multiset, so only leaf
    choices are enumerated."""
    if (kernel.kappa - 1) * n > 12:
        raise BudgetError("n*(kappa-1) exceeds the enumeration budget of 12")
    law = ExactLaw()

    def rec(leaves: tuple, steps: int, p: float):
        if steps == n:
            law.add(tuple(sorted(leaves)), p)
            return
        q = p / len(leaves)
        for i, x in enumerate(leaves):
            rec(leaves[:i] + leaves[i + 1 :] + kernel.atom_tuple(x), steps + 1, q)

    rec((root_colour,), 0, 1.0)
    return law.check()
