"""The measure-valued urn process and its tree couplings.

The canonical urn state is generative: either an :class:`UrnTrace` (initial
measure plus the ordered drawn colours) or a labelled tree.  Three exactly
law-equivalent simulators are provided -- the direct two-case drawing scheme,
a labelled recursive tree, and a labelled complete binary tree whose leaves
carry the urn -- plus the without-replacement kappa-ary variant and a forest
construction for initial measures of arbitrary mass.

In the tree couplings every node is one unit-mass packet of the urn: the
root (or one moving leaf tag, in the binary form) is the initial-measure
packet, and every other node is the replacement measure of the colour drawn
when that node was created.  Children of the initial packet therefore draw
their colour from the normalized initial measure; all other children draw
from the replacement kernel at the parent's colour.  This makes the
represented measure equal in law to the direct chain exactly, step by step,
not only asymptotically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .kernels import (
    ConstantIncrement,
    DColourKernel,
    KDiscreteKernel,
    MMInfQueueKernel,
    RandomWalkKernel,
    ReplacementKernel,
    RenormalisationPlan,
    leading_eigenpair,
    sym_shuffle,
)
from .measures import AtomicMeasure, normalize, sample_atom
from .randomness import RngStream
from .trees import KARY, PLANAR, GrowingTree, parent_depths
from . import stats


# ---------------------------------------------------------------------------
# representations
# ---------------------------------------------------------------------------


@dataclass
class UrnTrace:
    """Generative urn state: initial measure + ordered drawn colours."""

    m0: AtomicMeasure
    kernel: ReplacementKernel
    drawn: list = field(default_factory=list)

    @property
    def n(self) -> int:
        return len(self.drawn)

    @property
    def total_mass(self) -> float:
        return self.m0.total_mass + self.n

    def materialize(self) -> AtomicMeasure:
        """Exact atomic composition; requires an atomic kernel."""
        pairs = list(self.m0.atoms())
        for c in self.drawn:
            add = self.kernel.atoms(c)
            if add is None:
                raise ValueError("cannot materialize a non-atomic kernel")
            pairs.extend(add.atoms())
        return AtomicMeasure(pairs)


@dataclass
class LabelledTree:
    """Tree-coupled urn state.

    kind "rrt": every node is a packet, the root is the initial packet.
    kind "bst": packets live on the leaves of a complete binary tree; the
    initial packet is the leaf with m0_flag set.  kind "kary": leaves are
    balls of weight 1/kappa.
    """

    kind: str
    tree: GrowingTree
    labels: list
    m0: AtomicMeasure
    kernel: ReplacementKernel
    m0_flags: list = field(default_factory=list)

    @property
    def n(self) -> int:
        if self.kind == "rrt":
            return self.tree.n_nodes - 1
        if self.kind == "bst":
            return (self.tree.n_nodes - 1) // 2
        return (self.tree.n_nodes - 1) // self.tree.kappa

    def represented_measure(self) -> AtomicMeasure:
        """Exact composition; requires an atomic kernel (or kappa-discrete)."""
        if self.kind == "kary":
            k = self.tree.kappa
            return AtomicMeasure((self.labels[u], 1.0 / k) for u in self.tree.leaf_list)
        if self.kind == "rrt":
            drawn = self.labels[1:]
        else:
            drawn = [self.labels[u] for u in self.tree.leaves() if not self.m0_flags[u]]
        return UrnTrace(self.m0, self.kernel, drawn).materialize()

    @property
    def total_mass(self) -> float:
        if self.kind == "kary":
            return len(self.tree.leaf_list) / self.tree.kappa
        return self.m0.total_mass + self.n


@dataclass
class ForestUrn:
    """Forest coupling for initial mass > 1: unit-root trees plus at most one
    fractional-weight root."""

    trees: list
    labels: list  # labels[i][u]; None at roots (they are initial packets)
    root_weights: list
    m0: AtomicMeasure
    kernel: ReplacementKernel

    def sizes(self) -> list:
        return [t.n_nodes for t in self.trees]


# ---------------------------------------------------------------------------
# simulators
# ---------------------------------------------------------------------------


def mvpp_direct(m0: AtomicMeasure, kernel: ReplacementKernel, n: int, s: RngStream) -> UrnTrace:
    """Direct simulation of the drawing scheme.

    At a step with k past draws and initial mass m, the next colour comes
    from the normalized initial measure with probability m/(m+k), otherwise
    from the replacement measure of a uniformly chosen past colour.
    """
    if m0.total_mass <= 0:
        raise ValueError("initial measure must have positive mass")
    if n < 0:
        raise ValueError("n must be >= 0")
    nor0 = normalize(m0)
    trace = UrnTrace(m0=m0, kernel=kernel, drawn=[])
    m = m0.total_mass
    for k in range(n):
        u = s.next_uniform() * (m + k)
        if u < m:
            c = sample_atom(nor0, s)
        else:
            c = kernel.sample(trace.drawn[int(u - m)], s)
        trace.drawn.append(c)
    return trace


def mvpp_via_rrt(m0: AtomicMeasure, kernel: ReplacementKernel, n: int, s: RngStream) -> LabelledTree:
    """Urn coupled to a labelled recursive tree (unit initial mass)."""
    if abs(m0.total_mass - 1.0) > 1e-12:
        raise ValueError("tree coupling needs an initial measure of mass 1")
    if n < 0:
        raise ValueError("n must be >= 0")
    nor0 = normalize(m0)
    t = GrowingTree(PLANAR)
    labels = [sample_atom(nor0, s)]
    for k in range(1, n + 1):
        parent = int(s.next_uniform() * k)
        t.add_child(parent)
        if parent == 0:
            labels.append(sample_atom(nor0, s))
        else:
            labels.append(kernel.sample(labels[parent], s))
    return LabelledTree(kind="rrt", tree=t, labels=labels, m0=m0, kernel=kernel)


def mvpp_via_bst(m0: AtomicMeasure, kernel: ReplacementKernel, n: int, s: RngStream) -> LabelledTree:
    """Urn coupled to the leaves of a uniformly grown complete binary tree.

    The drawn leaf's packet is copied to one child (fair coin) and the fresh
    packet -- the replacement measure of the colour just drawn -- goes to the
    other child.
    """
    if abs(m0.total_mass - 1.0) > 1e-12:
        raise ValueError("tree coupling needs an initial measure of mass 1")
    if n < 0:
        raise ValueError("n must be >= 0")
    nor0 = normalize(m0)
    t = GrowingTree(KARY, 2)
    labels: list = [None]
    flags = [True]
    for _ in range(n):
        u = t.leaf_list[int(s.next_uniform() * len(t.leaf_list))]
        if flags[u]:
            c = sample_atom(nor0, s)
        else:
            c = kernel.sample(labels[u], s)
        kids = t.split_leaf(u)  # consecutive ids, so append order matches
        keep_first = s.next_uniform() < 0.5
        for i, _child in enumerate(kids):
            if (i == 0) == keep_first:
                labels.append(labels[u])
                flags.append(flags[u])
            else:
                labels.append(c)
                flags.append(False)
    return LabelledTree(kind="bst", tree=t, labels=labels, m0=m0, kernel=kernel, m0_flags=flags)


def mvpp_forest(m0: AtomicMeasure, kernel: ReplacementKernel, n: int, s: RngStream) -> ForestUrn:
    """Forest coupling for arbitrary initial mass.

    The initial measure is split into floor(m) unit parts plus one
    fractional part; each part roots its own tree, parts are drawn
    proportionally to their weight, every added node has weight 1, and every
    root's children draw their colour from the normalized initial measure.
    """
    m = m0.total_mass
    if m <= 0:
        raise ValueError("initial measure must have positive mass")
    if n < 0:
        raise ValueError("n must be >= 0")
    nor0 = normalize(m0)
    k_full = int(math.floor(m + 1e-12))
    frac = m - k_full
    if frac < 1e-12:
        frac = 0.0
    roots = [1.0] * k_full + ([frac] if frac > 0 else [])
    trees = [GrowingTree(PLANAR) for _ in roots]
    labels: list = [[None] for _ in roots]
    # all weight-1 nodes, flat; fractional root handled by leftover mass
    flat = [(i, 0) for i in range(k_full)]
    for step in range(n):
        u = s.next_uniform() * (m + step)
        if int(u) < len(flat):
            ti, node = flat[int(u)]
        else:
            ti, node = len(roots) - 1, 0  # fractional root
        t = trees[ti]
        t.add_child(node)
        nid = t.n_nodes - 1
        if node == 0:
            labels[ti].append(sample_atom(nor0, s))
        else:
            labels[ti].append(kernel.sample(labels[ti][node], s))
        flat.append((ti, nid))
    return ForestUrn(trees=trees, labels=labels, root_weights=roots, m0=m0, kernel=kernel)


def mvpp_kdiscrete(m0: AtomicMeasure, kernel: KDiscreteKernel, n: int, s: RngStream) -> LabelledTree:
    """Without-replacement urn on a kappa-ary tree.

    Leaves are the live balls (weight 1/kappa each).  A uniform leaf is
    drawn, removed (it becomes internal) and its kappa children receive the
    atoms of the replacement measure in a uniformly shuffled order, so that
    labels along any branch form a Markov chain under the kernel.  The tree
    starts from the single ball whose colour is drawn from the normalized
    initial measure.
    """
    if not isinstance(kernel, KDiscreteKernel):
        raise ValueError("mvpp_kdiscrete needs a kappa-discrete kernel")
    if n < 0:
        raise ValueError("n must be >= 0")
    kappa = kernel.kappa
    for _, w in m0.atoms():
        balls = w * kappa
        if abs(balls - round(balls)) > 1e-9:
            raise ValueError(f"atom weight {w} is not a multiple of 1/{kappa}")
    t = GrowingTree(KARY, kappa)
    labels = [sample_atom(normalize(m0), s)]
    for _ in range(n):
        u = t.leaf_list[int(s.next_uniform() * len(t.leaf_list))]
        atoms = sym_shuffle(kernel.atom_tuple(labels[u]), s, kappa)
        t.split_leaf(u)
        labels.extend(atoms)
    return LabelledTree(kind="kary", tree=t, labels=labels, m0=m0, kernel=kernel)


# ---------------------------------------------------------------------------
# sampling from the current urn
# ---------------------------------------------------------------------------


def _pick_packet(rep, s: RngStream) -> tuple:
    """(colour, ready) of a uniform unit packet of the urn, or of a uniform
    ball of a kappa-ary urn.  ready: the colour is itself a draw from the
    packet -- a fresh draw from the normalized initial measure for the
    initial packet, or a ball's own colour; otherwise the packet is the
    replacement measure of the returned colour."""
    if isinstance(rep, UrnTrace):
        m = rep.m0.total_mass
        u = s.next_uniform() * (m + rep.n)
        initial = u < m
        colour = None if initial else rep.drawn[int(u - m)]
    elif rep.kind == "rrt":
        u = int(s.next_uniform() * rep.tree.n_nodes)
        initial, colour = u == 0, rep.labels[u]
    else:  # the packets of a binary-tree urn and the balls of a kappa-ary one are its leaves
        leaves = rep.tree.leaf_list
        u = leaves[int(s.next_uniform() * len(leaves))]
        if rep.kind == "kary":
            return rep.labels[u], True
        initial, colour = rep.m0_flags[u], rep.labels[u]
    if initial:
        return sample_atom(normalize(rep.m0), s), True
    return colour, False


def sample_colour(rep, s: RngStream):
    """One exact draw from the normalized current urn measure."""
    colour, ready = _pick_packet(rep, s)
    return colour if ready else rep.kernel.sample(colour, s)


def sample_pair(rep, s: RngStream) -> tuple:
    """Two conditionally independent kernel draws off the current urn: two
    independent uniform packets, each pushed through the replacement kernel
    at its colour (the initial packet at a fresh initial-measure draw)."""
    if rep.n < 1:
        raise ValueError("pair sampling needs n >= 1")
    return tuple(rep.kernel.sample(_pick_packet(rep, s)[0], s) for _ in range(2))


# ---------------------------------------------------------------------------
# vectorized batch simulators (additive kernels, point-mass start)
# ---------------------------------------------------------------------------


def _m0_sampler_np(m0: AtomicMeasure | None):
    """Vectorised draws from the normalized initial measure (zeros for None)."""
    if m0 is None:
        return lambda s, size: np.zeros(size)
    atoms = m0.atoms()
    if len(atoms) == 1:
        c = float(atoms[0][0])
        return lambda s, size: np.full(size, c)
    vals = np.array([float(a[0]) for a in atoms])
    cum = np.cumsum([a[1] for a in atoms])
    cum /= cum[-1]

    def draw(s, size):
        return vals[np.searchsorted(cum, s.uniforms(size), side="right").clip(0, len(vals) - 1)]

    return draw


WINDOW_RATIO = 1.1  # node windows of _attach_path_sums grow by this factor


def _attach_path_sums(out, s, increment, root_children=None) -> None:
    """Grow uniform-attachment trees into columns 1..n of `out` (column 0 holds
    the roots): node k takes parent floor(U*k) and its increment plus the parent's
    label, or a fresh `root_children` draw when the parent is the root.  Windows
    [lo, ~WINDOW_RATIO*lo) draw all parents, then all increments; in-window parents
    are re-gathered until final, so labels equal the node-by-node recursion's."""
    reps, n1 = out.shape
    flat = out.reshape(-1)  # a view: out is C-contiguous
    offsets = np.arange(0, reps * n1, n1)[:, None]
    lo = 1
    while lo < n1:
        hi = min(max(int(WINDOW_RATIO * lo), lo + 1), n1)
        w = hi - lo
        par = s.uniforms(reps * w).reshape(reps, w)
        par = np.multiply(par, np.arange(lo, hi), out=par).astype(np.intp)
        block = out[:, lo:hi]
        block[...] = increment.draw_many(s, reps * w).reshape(reps, w)
        r, c = np.nonzero(par >= lo)
        own = block[r, c]  # kept for the in-window nodes only
        par += offsets  # flat indices into out
        block += np.take(flat, par)
        if root_children is not None and (at_root := par == offsets).any():
            block[at_root] = root_children(s, int(at_root.sum()))
        node, p = r * n1 + lo + c, par[r, c]  # in-window nodes (ascending) and parents
        while node.size:  # one round per in-window generation
            flat[node] = own + flat[p]
            # a node whose parent was redone this round goes again
            keep = node[np.minimum(np.searchsorted(node, p), node.size - 1)] == p
            node, p, own = node[keep], p[keep], own[keep]
        del par  # before the next window draws its own
        lo = hi


def batch_rrt_walk_labels(n, reps, increment, s, m0=None, dtype=float) -> np.ndarray:
    """Labels of `reps` independent walk-labelled recursive trees, as a
    (reps, n+1) array in node-creation order.  Law-equivalent to repeated
    mvpp_via_rrt with a walk kernel; one stream drives the whole batch in a
    fixed draw order."""
    m0_draw = _m0_sampler_np(m0)
    labels = np.zeros((reps, n + 1), dtype=dtype)
    labels[:, 0] = m0_draw(s, reps)
    _attach_path_sums(labels, s, increment, root_children=m0_draw)
    return labels


def batch_bmc_walk_labels(n, reps, increment, s) -> np.ndarray:
    """Labels of the pure branching walk on the recursive tree: the root
    carries 0 and every child is its parent's label plus an increment.
    This is the tree-indexed walk behind the Fourier-martingale machinery;
    it differs from the urn coupling only at the root's children."""
    labels = np.zeros((reps, n + 1), dtype=float)
    _attach_path_sums(labels, s, increment)
    return labels


def batch_rrt_depths(n, reps, s) -> np.ndarray:
    """(reps, n+1) node depths of independent recursive trees."""
    depths = np.zeros((reps, n + 1), dtype=np.int32)
    _attach_path_sums(depths, s, ConstantIncrement(1))
    return depths


def batch_walk_pairs(n, urns, pairs, increment, s, m0=None, dtype=float) -> np.ndarray:
    """Pairs (a, b) of kernel draws at two independent uniform packets,
    max(pairs // urns, 1) from each of `urns` independent walk urns, pooled
    as all a's then all b's."""
    labels = batch_rrt_walk_labels(n, urns, increment, s, m0=m0, dtype=dtype)
    per = max(pairs // urns, 1)
    rows = np.repeat(np.arange(urns), per)
    iu = s.integers(0, n + 1, urns * per)
    iv = s.integers(0, n + 1, urns * per)
    a = labels[rows, iu] + increment.draw_many(s, urns * per)
    b = labels[rows, iv] + increment.draw_many(s, urns * per)
    return np.concatenate([a, b])


def batch_direct_walk_colours(n, reps, increment, s) -> np.ndarray:
    """(reps, n) drawn colours of the direct scheme for a walk kernel started
    from a unit point mass at 0."""
    colours = np.zeros((reps, n), dtype=float)
    rows = np.arange(reps)
    for k in range(n):
        from_m0 = s.uniforms(reps) < 1.0 / (1.0 + k)
        if k == 0:
            continue
        idx = s.integers(0, k, reps)
        new = colours[rows, idx] + increment.draw_many(s, reps)
        new[from_m0] = 0.0
        colours[:, k] = new
    return colours


def batch_bst_walk_leaf_colours(n, reps, increment, s) -> tuple:
    """Leaf packets of the binary-tree coupling for a walk kernel started from
    a unit point mass at 0.

    Returns (colours, m0_flags), each (reps, n+1); column order is leaf
    creation order.  Coin flips are omitted: they permute leaf positions
    without changing the packet multiset."""
    colours = np.zeros((reps, n + 1), dtype=float)
    flags = np.zeros((reps, n + 1), dtype=bool)
    flags[:, 0] = True
    rows = np.arange(reps)
    for k in range(n):
        idx = s.integers(0, k + 1, reps)
        new = colours[rows, idx] + increment.draw_many(s, reps)
        new[flags[rows, idx]] = 0.0
        colours[:, k + 1] = new
    return colours, flags


def batch_kary_shift_leaf_labels(n, reps, kappa, s) -> np.ndarray:
    """(reps, 1+n*(kappa-1)) leaf labels under the +1 shift kernel, in slot
    order: split k picks a uniform slot of the 1+k*(kappa-1) present, adds 1
    to its label and appends kappa-1 slots with the new label, so a label is
    its leaf's depth in the kappa-ary tree.

    One call draws every split position, the values of n successive per-split
    calls.  Labels are then depths in an event tree, one replica at a time:
    split k is node k+1 below a virtual root 0, and its value is 1 + its
    slot's value just before.  So its parent is the previous split of that
    slot, else the split that created the slot, node (slot-1)//(kappa-1) + 1
    (node 0 for slot 0).  A slot ends with the depth of its last split, else
    of its creator: the step-by-step recursion's labels, bit for bit."""
    k1 = kappa - 1
    pos = s.integers(0, 1 + np.arange(n)[:, None] * k1, (n, reps)).T.astype(np.int32)
    labels = np.empty((reps, 1 + n * k1), dtype=np.int32)

    def creator(slot):  # node that created each slot; 0 for slot 0
        return (slot + k1 - 1) // k1

    for row, p in zip(labels, pos):  # per replica, to bound the working arrays
        node = np.argsort(p, kind="stable")  # each slot's splits adjacent, in time order
        slot = p[node]
        node += 1  # split k is node k+1
        first = np.diff(slot, prepend=-1) != 0
        last = np.diff(slot, append=-1) != 0
        par = np.zeros(n + 1, dtype=np.int32)
        par[node] = np.where(first, creator(slot), np.roll(node, 1))
        dep = parent_depths(par[None])[0]
        row[:] = dep[creator(np.arange(row.size, dtype=np.int32))]
        row[slot[last]] = dep[node[last]]
    return labels


def batch_exact_colour_samples(colours, flags, increment, s) -> np.ndarray:
    """One exact draw per row from the normalized urn measure of batched tree
    states started from a unit point mass at 0.

    colours: (reps, p) packet colours; flags marks initial-measure packets.
    Picks a uniform packet, then one kernel step (the initial colour 0 for
    flagged packets)."""
    reps, p = colours.shape
    rows = np.arange(reps)
    idx = s.integers(0, p, reps)
    out = colours[rows, idx] + increment.draw_many(s, reps)
    out[flags[rows, idx]] = 0.0
    return out


# ---------------------------------------------------------------------------
# theorem verification pipeline
# ---------------------------------------------------------------------------


def _rescale(x, plan: RenormalisationPlan, t: float):
    return (np.asarray(x, dtype=float) - plan.b(t)) / plan.a(t)


def composite_reference(plan: RenormalisationPlan) -> stats.Normal:
    """Law of G + f(L), G ~ gamma_reference and L ~ N(0,1) independent: the
    limit of the walk plans (brw, kdiscrete-shift), whose f(x) = m x makes it
    Normal(0, var(G) + m^2); a point-mass G has variance 0."""
    gamma = plan.gamma_reference
    var = gamma.var if isinstance(gamma, stats.Normal) else 0.0
    return stats.Normal(0.0, var + plan.f(1.0) ** 2)


HILL_BAND = 0.4  # criterion 11: a stable run passes when |hill - alpha| <= HILL_BAND
KS_GATE, TV_GATE = 0.05, 0.05  # the walk plans' KS; the queue's TV and the palette's l1


def verify_main_theorem(
    kernel: ReplacementKernel,
    plan: RenormalisationPlan,
    m0: AtomicMeasure,
    n_grid,
    replicas: int,
    s: RngStream,
    urns: int = 16,
) -> dict:
    """Rescaled-limit check: pooled pair marginals against the plan's limit.

    For each n, grows several independent urns, draws `replicas` pair samples
    in total and rescales them by (a(log n), b(log n)) -- with log n replaced
    by beta*log n for kappa-discrete kernels.  The stable plan is scored by the
    Hill exponent of the pooled samples (k = max(len/40, 10)), which must lie
    within HILL_BAND of alpha; the other walk plans by the KS distance to the
    composite limit (KS_GATE).  Both report the pooled pair correlation of a
    bounded test function.  The queue is scored by the total variation of one
    urn's pmf to the plan's reference law, finite palettes by the l1 distance
    of one urn's composition to the Perron limit (both TV_GATE).  Per grid
    point, `samples` holds the rescaled values that were scored (the pooled
    a's then b's, or the scored urn's drawn colours) and `measures` the scored
    urn's measure (None for pooled pairs).  A grid point with a(log n) = 0,
    which is n = 1 under every growing scale, raises ValueError, and so does a
    walk or stable kernel with an initial measure of mass other than 1.
    """
    if isinstance(kernel, RandomWalkKernel) and abs(m0.total_mass - 1.0) > 1e-12:
        raise ValueError(f"the walk route grows recursive trees, so m0 needs mass 1, not {m0.total_mass:g}")
    results, samples, measures = [], [], []
    for n in n_grid:
        t_arg = math.log(n)
        if isinstance(kernel, KDiscreteKernel):
            t_arg *= 1.0 + 1.0 / (kernel.kappa - 1)
        if plan.a(t_arg) <= 0:
            raise ValueError(f"n_grid point n={n} has scale a(log n) = 0 under the {plan.name} plan")
        entry = {"n": int(n), "ks": None, "tv": None, "decorrelation": None}
        results.append(entry)
        urn = None
        if isinstance(kernel, RandomWalkKernel):
            values = batch_walk_pairs(n, urns, replicas, kernel.increment, s, m0=m0)
        elif isinstance(kernel, KDiscreteKernel):
            rep = mvpp_kdiscrete(m0, kernel, n, s)
            values = np.array([sample_pair(rep, s) for _ in range(replicas)], dtype=float).T.ravel()
        elif isinstance(kernel, (MMInfQueueKernel, DColourKernel)):
            trace = mvpp_direct(m0, kernel, n, s)
            values, urn = trace.drawn, trace.materialize()
        else:
            raise ValueError(f"no verification route for kernel {type(kernel).__name__}")
        values = _rescale(values, plan, t_arg)
        samples.append(values)
        measures.append(urn)
        if isinstance(kernel, MMInfQueueKernel):
            pmf = {int(c): w / urn.total_mass for c, w in urn.atoms()}
            entry["tv"] = stats.total_variation(pmf, plan.gamma_reference.pmf_dict(max(pmf) + 10))
            entry["pass"] = entry["tv"] <= TV_GATE
            continue
        if isinstance(kernel, DColourKernel):
            lam, v1 = leading_eigenpair(kernel.rows)
            comp = np.array([urn.weight(j) for j in range(kernel.d)]) / n
            entry["l1"] = float(np.abs(comp - lam * v1).sum())
            entry["pass"] = entry["l1"] <= TV_GATE
            continue
        if plan.name == "stable":
            entry["hill"] = stats.hill_tail_exponent(values, max(len(values) // 40, 10))
            entry["pass"] = abs(entry["hill"] - plan.gamma_reference.alpha) <= HILL_BAND
        else:
            entry["ks"] = stats.ks_statistic(values, composite_reference(plan))
            entry["pass"] = entry["ks"] <= KS_GATE
        phi_a, phi_b = np.cos(np.split(values, 2))
        if np.std(phi_a) > 0 and np.std(phi_b) > 0:
            entry["decorrelation"] = float(np.corrcoef(phi_a, phi_b)[0, 1])
    return {
        "plan": plan.name,
        "claimed": bool(plan.claimed),
        "replicas": int(replicas),
        "results": results,
        "pass": all(r.get("pass", False) for r in results),
        "samples": samples,
        "measures": measures,
    }
