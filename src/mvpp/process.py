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
    StableIncrement,
    leading_eigenpair,
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
    """Generative urn state: initial measure + ordered drawn colours.
    `colours`, when set, holds the same draws as an int64 array (as
    batch_direct_trace leaves them), so materialize need not read the list."""

    m0: AtomicMeasure
    kernel: ReplacementKernel
    drawn: list = field(default_factory=list)
    colours: np.ndarray | None = field(default=None, compare=False, repr=False)

    @property
    def n(self) -> int:
        return len(self.drawn)

    @property
    def total_mass(self) -> float:
        return self.m0.total_mass + self.n

    def materialize(self) -> AtomicMeasure:
        """Exact atomic composition; requires an atomic kernel.  Each distinct
        drawn colour's atoms are fetched once.  A colour's weight is the
        sequential sum of its addends in drawing order, its m0 atom first, and
        colours enter in order of first appearance: the floats, keys and
        total_mass of merging the pairs one by one in drawing order."""
        out = {c: j for j, (c, _) in enumerate(self.m0.atoms())}  # output colours, first seen first
        lead = [w for _, w in self.m0.atoms()]
        if self.colours is None:  # the distinct drawn colours, first seen first, and each draw's place among them
            code = {c: j for j, c in enumerate(dict.fromkeys(self.drawn))}
            distinct, at = list(code), np.fromiter(map(code.__getitem__, self.drawn), np.intp, self.n)
        else:
            uniq, inv = np.unique(self.colours, return_inverse=True)
            first = np.full(uniq.size, self.n)
            np.minimum.at(first, inv, np.arange(self.n))
            order = np.argsort(first)
            code = np.empty(order.size, dtype=np.intp)
            code[order] = np.arange(order.size)
            distinct, at = uniq[order].tolist(), code[inv]
        table = []  # per distinct drawn colour, its atoms as (output index, weight)
        for c in distinct:
            atoms = self.kernel.atoms(c)
            if atoms is None:
                raise ValueError("cannot materialize a non-atomic kernel")
            table.append([(out.setdefault(y, len(out)), w) for y, w in atoms.atoms()])
        pad = max(map(len, table), default=0)
        ys, ws = np.full((len(table), pad), len(out)), np.zeros((len(table), pad))  # padding: one spare colour
        for j, a in enumerate(table):
            ys[j, : len(a)], ws[j, : len(a)] = zip(*a)
        ws = ws[at].ravel()
        groups = _generations(ys[at].ravel(), len(out) + 1)[:-1]  # each colour's addends, in drawing order
        sums = [np.cumsum(np.concatenate((lead[y : y + 1], ws[g])))[-1] for y, g in enumerate(groups)]
        return AtomicMeasure(zip(out, sums))


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
    _check_n(n)
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


def _direct_pick_positions(m: float, n: int, s: RngStream) -> tuple:
    """(u, picks): the uniforms a direct run of n steps from a one-atom m0 of
    mass m draws, and the positions of its n pick uniforms in them.  A step
    takes its pick u and, unless u*(m+k) < m sends it to the initial packet,
    one more uniform.

    Parsed in windows that start at a pick of known step index k: a pick t
    places further on has index in [k + ceil(t/2), k + t], and since
    u*(m+k) < m is monotone in k, the window is sure up to its first place
    where the two ends disagree.  Every draw is no longer than the steps
    left (plus a pending second uniform), so the stream is never over-drawn."""
    u = np.empty(2 * n)
    is_pick = np.zeros(2 * n, dtype=bool)
    have = pos = k = 0
    window = 64
    while True:
        if pos >= have:  # each step left takes one uniform or more
            more = pos + n - k - have
            u[have:have + more] = s.uniforms(more)
            have += more
        if k == n:
            return u[:have], np.flatnonzero(is_pick[:have])
        b = u[pos:pos + window][: have - pos]
        t = np.arange(b.size)
        initial = b * (m + (k + t)) < m  # as a pick at the latest index it can have
        sure = initial == (b * (m + (k + (t + 1) // 2)) < m)  # and at the earliest
        j = b.size if sure.all() else int(sure.argmin())  # >= 1: place 0 is sure
        # a place after an initial pick is a pick; after a second-case pick, not
        restart = np.concatenate(([True], initial[: j - 1]))
        at_pick = (t[:j] - np.maximum.accumulate(np.where(restart, t[:j], 0))) % 2 == 0
        is_pick[pos:pos + j] = at_pick
        k += int(at_pick.sum())
        last = j - 1 if at_pick[-1] else j - 2
        pos += last + (1 if initial[last] else 2)
        window = 2 * window if j == b.size else max(64, 2 * j)


def _generations(keys, size=0) -> list:
    """Ascending index arrays of the places of each value 0, 1, ... (at least
    `size` of them) of small non-negative int keys, such as node depths: one
    stable radix sort on the keys' narrowest dtype, cut by their counts."""
    order = np.argsort(keys.astype(np.min_scalar_type(keys.max(initial=0))), kind="stable")
    return np.split(order, np.cumsum(np.bincount(keys, minlength=size))[:-1])


def batch_direct_trace(m0: AtomicMeasure, kernel, n: int, s: RngStream) -> UrnTrace:
    """mvpp_direct for a kernel that takes one uniform per step through a
    vectorised `step(x, u)` (finite palettes and the queue): the same draws in
    the same order, the same trace.  Every m0 colour passes the kernel's
    check before the first draw.  Colours are filled generation by
    generation from the parent indices int(u*(m+k) - m)."""
    if m0.total_mass <= 0:
        raise ValueError("initial measure must have positive mass")
    _check_n(n)
    for c, _ in m0.atoms():
        kernel._check(c)
    m = m0.total_mass
    colours0, weights0 = zip(*normalize(m0).atoms())
    if len(colours0) == 1:
        u, picks = _direct_pick_positions(m, n, s)
    else:  # a pick and one more uniform at every step
        u = s.uniforms(2 * n)
        picks = np.arange(0, 2 * n, 2)
    x = u[picks] * (m + np.arange(n))
    initial = x < m
    second = u[np.minimum(picks + 1, u.size - 1)]  # each step's second uniform, unread where it takes none
    par = np.where(initial, np.arange(n), (x - m).astype(np.intp))  # initial draws are roots
    colours = np.empty(n, dtype=np.int64)
    cum = np.cumsum(weights0)  # sample_atom on the normalized m0; one atom needs no uniform
    at = np.searchsorted(cum, second[initial] * cum[-1], side="right")
    colours[initial] = np.array(colours0)[np.minimum(at, len(cum) - 1)]
    for idx in _generations(parent_depths(par[None])[0])[1:]:  # root-down, one generation at a time
        colours[idx] = kernel.step(colours[par[idx]], second[idx])
    return UrnTrace(m0=m0, kernel=kernel, drawn=colours.tolist(), colours=colours)


def mvpp_via_rrt(m0: AtomicMeasure, kernel: ReplacementKernel, n: int, s: RngStream) -> LabelledTree:
    """Urn coupled to a labelled recursive tree (unit initial mass)."""
    if abs(m0.total_mass - 1.0) > 1e-12:
        raise ValueError("tree coupling needs an initial measure of mass 1")
    _check_n(n)
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
    _check_n(n)
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
    _check_n(n)
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


def _one_ball(m0: AtomicMeasure, kappa: int):
    """Colour of m0's one ball of weight 1/kappa, which a kappa-discrete urn grows from."""
    (colour, w), *rest = m0.atoms()
    if rest or abs(w * kappa - 1.0) > 1e-9:
        raise ValueError(f"a kappa-discrete urn grows from one ball: one atom of weight 1/{kappa}, not {m0.atoms()}")
    return colour


def mvpp_kdiscrete(m0: AtomicMeasure, kernel: KDiscreteKernel, n: int, s: RngStream) -> LabelledTree:
    """Without-replacement urn on a kappa-ary tree.

    Leaves are the live balls (weight 1/kappa each).  A uniform leaf is
    drawn, removed (it becomes internal) and its kappa children receive the
    atoms of the replacement measure in a uniformly shuffled order, so that
    labels along any branch form a Markov chain under the kernel.  The tree
    starts from the single ball of m0, which must be one atom of weight
    1/kappa.
    """
    if not isinstance(kernel, KDiscreteKernel):
        raise ValueError("mvpp_kdiscrete needs a kappa-discrete kernel")
    _check_n(n)
    t = GrowingTree(KARY, kernel.kappa)
    labels = [_one_ball(m0, kernel.kappa)]
    for _ in range(n):
        u = t.leaf_list[int(s.next_uniform() * len(t.leaf_list))]
        t.split_leaf(u)
        labels.extend(s.shuffled(kernel.atom_tuple(labels[u])))
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


WINDOW_RATIO = 1.1  # node windows of uniform-attachment growth grow by this factor
KARY_BLOCK = 2**16  # kappa-ary splits per event-tree block


def _attach_path_sums(out, s, increment, root_children=None) -> None:
    """Grow uniform-attachment trees into columns 1..n of `out` (column 0 holds
    the roots): node k takes parent floor(U*k) and its increment plus the parent's
    label, or a fresh `root_children` draw when the parent is the root.  Draws
    come window by window, [lo, ~WINDOW_RATIO*lo): the (reps, w) parents of the
    whole window, then its (reps, w) steps.  A window is written in one pass
    off its parents' current labels, then its in-window nodes are redone until
    their parents are final, so labels equal the node-by-node recursion's."""
    reps, n1 = out.shape
    flat = out.reshape(-1)  # a view: out is C-contiguous
    offsets = np.arange(0, reps * n1, n1)[:, None]
    lo = 1
    while lo < n1:
        hi = min(max(int(WINDOW_RATIO * lo), lo + 1), n1)
        par = np.empty((reps, hi - lo), dtype=np.intp)
        np.multiply(s.uniforms(par.size).reshape(par.shape), np.arange(lo, hi), out=par, casting="unsafe")
        step = increment.draw_many(s, par.size)
        inner = np.flatnonzero(par >= lo)  # the in-window nodes
        r, c = divmod(inner, hi - lo)
        own = step[inner]
        par += offsets  # flat indices into out
        block = out[:, lo:hi]
        np.add(np.take(flat, par), step.reshape(par.shape), out=block, casting="unsafe")
        if root_children is not None and (at_root := par == offsets).any():
            block[at_root] = root_children(s, int(at_root.sum()))
        node, p = r * n1 + lo + c, np.take(par, inner)  # in-window nodes (ascending) and parents
        while node.size:  # one round per in-window generation
            flat[node] = own + flat[p]
            # a node whose parent was redone this round goes again
            keep = node[np.minimum(np.searchsorted(node, p), node.size - 1)] == p
            node, p, own = node[keep], p[keep], own[keep]
        del par  # before the next window draws its own
        lo = hi


def _check_n(n) -> None:
    if n < 0:
        raise ValueError("n must be >= 0")


def batch_rrt_walk_labels(n, reps, increment, s, m0=None, dtype=float) -> np.ndarray:
    """Labels of `reps` independent walk-labelled recursive trees, as a
    (reps, n+1) array in node-creation order.  Law-equivalent to repeated
    mvpp_via_rrt with a walk kernel; one stream drives the whole batch in a
    fixed draw order.  Here and in the other walk builders an integer `dtype`
    holds integer steps exactly, such as RademacherIncrement's int8 signs."""
    _check_n(n)
    m0_draw = _m0_sampler_np(m0)
    labels = np.zeros((reps, n + 1), dtype=dtype)
    labels[:, 0] = m0_draw(s, reps)
    _attach_path_sums(labels, s, increment, root_children=m0_draw)
    return labels


def batch_bmc_walk_labels(n, reps, increment, s, dtype=float) -> np.ndarray:
    """Labels of the pure branching walk on the recursive tree: the root
    carries 0 and every child is its parent's label plus an increment; the
    walk behind the Fourier martingale, unlike the urn coupling at the root's
    children.  A (reps, n+1) view of node-major rows grown by _lattice_steps."""
    _check_n(n)
    labels, col = np.zeros((n + 1, reps), dtype=dtype), np.arange(reps)
    for k, parents, steps in _lattice_steps(n, reps, increment.draw_many, s):  # gathers on flat ids parent*reps + col
        np.add(np.take(labels, np.multiply(parents, reps, dtype=np.intp) + col), steps, out=labels[k], casting="unsafe")
    return labels.T


def batch_rrt_depths(n, reps, s) -> np.ndarray:
    """(reps, n+1) node depths of independent recursive trees."""
    _check_n(n)
    depths = np.zeros((reps, n + 1), dtype=np.int32)
    _attach_path_sums(depths, s, ConstantIncrement(1))
    return depths


SEEN_RATIO = 8  # the sampler's run of recent keys joins its main run at an eighth of its size


def _merge_runs(*runs) -> tuple:
    """(keys, slots) of sorted runs of distinct keys, each with its slots, as
    one sorted run: a stable argsort merges the runs."""
    keys, slots = (np.concatenate(x) for x in zip(*runs))
    order = np.argsort(keys, kind="stable")
    return keys[order], slots[order]


def sample_tree_nodes(n, nodes, increment, s, m0=None, dtype=float) -> np.ndarray:
    """(urns, k) labels of nodes[r] in urn r's walk-labelled recursive tree on
    0..n, in the joint law of batch_rrt_walk_labels(n, urns, increment, s, m0,
    dtype)[r, nodes[r]], without growing the trees: a node's label depends
    only on its ancestor chain, about log n links (the backward view of
    Devroye's records construction).

    Picked roots take one m0 draw each.  Then every open (urn, node) key, in
    ascending order, draws its parent (one s.integers call per round), then
    its increment, then a fresh m0 draw in place of the increment where the
    parent is the root.  Parents not yet seen open the next round, so chains
    that meet share everything above.  Labels are summed root-down, own plus
    the parent's label as in _attach_path_sums, one depth at a time; the
    depths come from one pointer-doubling pass over the slots' parents, where
    a chain start is its own parent and so at depth 0.

    Every key has a slot, its place in round order: picked roots, the other
    picked keys, then each round's new parents, each part in key order.  A
    round's parents take their slots through the inverse of its distinct-
    parent sort: new ones the next slots, met ones theirs, looked up in the
    keys seen so far (with one node an urn, no chain meets another).  These
    are kept as two sorted runs with their slots, the second merged into the
    first once it reaches 1/SEEN_RATIO of it.

    Raises ValueError, before any draw, unless nodes is a 2-d array of nodes
    in 0..n and urns * (n + 1) keys fit in int64."""
    _check_n(n)
    nodes = np.asarray(nodes, dtype=np.int64)
    if nodes.ndim != 2:
        raise ValueError(f"nodes must be a 2-d (urns, k) array, not {nodes.ndim}-d")
    urns = nodes.shape[0]
    if urns * (n + 1) > np.iinfo(np.int64).max:
        raise ValueError(f"{urns} urns of {n + 1} nodes overflow the int64 node keys")
    if nodes.size and (nodes.min() < 0 or nodes.max() > n):
        raise ValueError(f"nodes must lie in 0..{n}")
    m0_draw = _m0_sampler_np(m0)
    keys, where = np.unique((nodes + (n + 1) * np.arange(urns)[:, None]).ravel(), return_inverse=True)
    start = keys % (n + 1) == 0  # the picked roots
    slot = np.empty(keys.size, dtype=np.intp)
    slot[np.argsort(~start, kind="stable")] = np.arange(keys.size)
    roots = int(start.sum())
    owns, pars = [m0_draw(s, roots) if roots else np.empty(0)], [np.arange(roots)]  # a root is its own parent
    used = keys.size  # slots taken: the picked keys, then each round's new parents
    seen = [(keys, slot), (keys[:0], slot[:0])] if nodes.shape[1] > 1 else []  # one chain an urn meets none
    live = keys[~start]
    while live.size:
        node = live % (n + 1)
        par = s.integers(0, node, live.size)
        own = np.empty(live.size, dtype=dtype)
        own[...] = increment.draw_many(s, live.size)
        at_root = par == 0
        if at_root.any():
            own[at_root] = m0_draw(s, int(at_root.sum()))
        par += live - node  # the parent's key
        up, rank = np.unique(par[~at_root], return_inverse=True)
        up_slot = np.full(up.size, -1)
        for k, sl in seen:  # chains that meet share what is above
            if k.size:
                at = np.minimum(np.searchsorted(k, up), k.size - 1)
                hit = k[at] == up
                up_slot[hit] = sl[at[hit]]
        new = up_slot < 0
        live = up[new]
        fresh = np.arange(used, used + live.size)
        up_slot[new] = fresh
        par_slot = np.arange(used - node.size, used)  # the live keys' own: a root child starts a chain
        par_slot[~at_root] = up_slot[rank]
        owns.append(own)
        pars.append(par_slot)
        used += live.size
        if not seen:
            continue
        if (seen[1][0].size + live.size) * SEEN_RATIO > seen[0][0].size:
            seen = [_merge_runs(*seen, (live, fresh)), (keys[:0], slot[:0])]
        else:
            seen[1] = _merge_runs(seen[1], (live, fresh))
    par = np.concatenate(pars)
    label = np.concatenate(owns).astype(dtype, copy=False)  # chain starts keep their own draw
    for at in _generations(parent_depths(par[None])[0])[1:]:  # root-down, one depth at a time
        label[at] += label[par[at]]
    return label[slot[where]].reshape(nodes.shape)


def draw_walk_pairs(urns, size, pairs, increment, s, read) -> np.ndarray:
    """Pairs (a, b) of kernel draws at two independent uniform packets of
    each of `urns` urns of `size` packets: max(pairs // urns, 1) per urn.
    Draws the packets iu, then iv, reads their (urns, 2 per) labels through
    read(idx), then adds one increment to each a, then to each b; pooled as
    all a's then all b's."""
    per = max(pairs // urns, 1)
    iu = s.integers(0, size, urns * per).reshape(urns, per)
    iv = s.integers(0, size, urns * per).reshape(urns, per)
    lab = read(np.hstack([iu, iv]))
    a = lab[:, :per].ravel() + increment.draw_many(s, urns * per)
    b = lab[:, per:].ravel() + increment.draw_many(s, urns * per)
    return np.concatenate([a, b])


def batch_walk_pairs(labels, pairs, increment, s) -> np.ndarray:
    """draw_walk_pairs off a (urns, size) array of every packet's label."""
    return draw_walk_pairs(*labels.shape, pairs, increment, s, lambda idx: np.take_along_axis(labels, idx, axis=1))


def _lattice_dtype(n: int):
    """Integer dtype of n-step +-1 walk labels, their table index lab + n in
    [0, 2n], and the parents and packets 0..n of the node-major legs: int16 up
    to n = 16,383 halves the bytes a gather reads and draws two parents a half-word."""
    return np.int16 if 2 * n <= np.iinfo(np.int16).max else np.int32


def _lattice_steps(n, reps, draw, s):
    """(k, parents, steps) for k = 1..n: node k of `reps` uniform-attachment trees
    draws its parents on 0..k-1 in the lattice dtype, then its steps draw(s, reps)."""
    dtype = _lattice_dtype(n)
    for k in range(1, n + 1):
        yield k, s.integers(0, k, reps, dtype=dtype), draw(s, reps)


# The node-major legs write row k of an (n+1, reps) array at each step of
# _lattice_steps (row 0 stays 0): batch_bmc_walk_labels the parents' labels
# plus the steps, the binary-tree coupling leg parents times +-1 steps.
# The direct and binary-tree coupling legs keep the genealogy of a +-1 walk
# urn from a unit point mass at 0, not its labels: a packet-major (n+1, reps)
# array whose entry for packet e of urn r is parent packet times step, the
# +-1 step folded into the sign, or 0 for a packet that starts fresh at
# colour 0 (the initial packet among them).  A packet's label is the sum of
# the signs along its ancestor chain, read by genealogy_labels.  The
# recursive-tree leg needs no genealogy: sample_tree_nodes draws the chain.
# Row k comes from draws in this order:
#   direct, k = 1:  nothing (packet 1 is always fresh);
#   direct, k >= 2: the fresh urns' places (_bernoulli_places, uniforms), then
#                   integers(1, k) parents in the lattice dtype, then signs;
#   binary tree and branching walk: _lattice_steps, integers(0, k) parents in
#                   the lattice dtype, then the steps (signs for +-1).


def _bernoulli_places(p, size, s) -> np.ndarray:
    """Ascending int64 places in 0..size-1 of the successes of `size` i.i.d.
    Bernoulli(p) trials, 0 < p <= 1.  The gaps between successes are
    geometric, floor(log1p(-U) / log1p(-p)) by inversion of s.uniforms (capped
    at size, which changes no place below it).  They are drawn in batches of
    m + 3 sqrt(m) + 1, m the successes expected among the trials not yet
    covered, until a place reaches size - 1 or beyond.  Draws nothing when
    size is 0 or p is 1."""
    if p == 1:
        return np.arange(size, dtype=np.int64)
    scale = math.log1p(-p)
    places, top = [np.zeros(0, dtype=np.int64)], -1
    while top < size - 1:
        m = (size - 1 - top) * p
        gaps = np.minimum(np.log1p(-s.uniforms(int(m + 3.0 * math.sqrt(m)) + 1)) / scale, size)
        at = top + np.cumsum(gaps.astype(np.int64) + 1)
        places.append(at)
        top = at[-1]
    places = np.concatenate(places)
    return places[: np.searchsorted(places, size)]


def batch_direct_walk_genealogy(n, reps, s) -> np.ndarray:
    """Genealogy of `reps` direct-scheme urns: packet 0 is the initial packet,
    packet k+1 the colour drawn at step k, from the initial packet with
    probability 1/(1+k), else one step off a uniform past draw."""
    _check_n(n)
    gen = np.zeros((n + 1, reps), dtype=_lattice_dtype(n))
    for k in range(1, n):
        fresh = _bernoulli_places(1.0 / (1.0 + k), reps, s)
        row = gen[k + 1]
        np.multiply(s.integers(1, k + 1, reps, dtype=gen.dtype), s.signs(reps), out=row)
        row[fresh] = 0
    return gen


def batch_bst_walk_genealogy(n, reps, s) -> np.ndarray:
    """Genealogy of the leaf packets of `reps` binary-tree urns, in leaf
    creation order: packet 0 is the initial packet and packet k one step off
    a uniform leaf of the k present.  Coin flips are omitted: they permute
    leaf positions without changing the packet multiset."""
    _check_n(n)
    gen = np.zeros((n + 1, reps), dtype=_lattice_dtype(n))
    for k, parents, steps in _lattice_steps(n, reps, RngStream.signs, s):
        np.multiply(parents, steps, out=gen[k])
    return gen


def genealogy_labels(genealogy, packets) -> np.ndarray:
    """Labels, in its dtype, of packets[..., r] of urn r of a (p, reps)
    genealogy: each chain is walked up (|e| the parent, sign(e) the step) to
    its entry 0, one gather per round over the open chains, ~log p rounds."""
    reps = genealogy.shape[1]
    flat = genealogy.reshape(-1)
    at = np.asarray(packets) * reps + np.arange(reps)
    labels = np.zeros(at.size, dtype=genealogy.dtype)
    live, col, e = np.arange(at.size), at.reshape(-1) % reps, np.take(flat, at).reshape(-1)
    while live.size:
        keep = np.flatnonzero(e)
        live, col, e = live[keep], col[keep], e[keep]
        labels[live] += np.sign(e)
        e = np.take(flat, np.abs(e).astype(np.intp) * reps + col)
    return labels.reshape(at.shape)


def batch_kary_leaf_labels(n, reps, offsets, s) -> np.ndarray:
    """(reps, 1+n*(kappa-1)) leaf labels of kappa-ary urns grown from one ball
    at 0 by kernel steps `offsets`, in slot order: split k picks a uniform slot
    of the 1+k*(kappa-1) present, adds offsets[0] to it and appends kappa-1
    slots at its old label plus offsets[1:].  Which child takes which offset
    does not change the leaf multiset's law, so no shuffle is drawn.

    One call draws every split position, the values of n successive per-split
    calls.  Labels are then path sums in an event tree per replica: split k is
    node k+1 below a virtual root 0 and holds its slot's new label.  Its
    parent is the previous split of that slot (step offsets[0]), else the
    split that created the slot, node (slot-1)//(kappa-1) + 1, with the slot's
    own offset offsets[(slot-1) % (kappa-1) + 1] (node 0, offsets[0] for slot
    0).  A slot ends at its last split's value, else at its creator's minus
    offsets[0] plus its own offset.  For offsets (1,)*kappa labels are depths,
    bit for bit the step-by-step recursion's.  Replicas go in blocks of
    about KARY_BLOCK splits, each block through one row-wise argsort of distinct keys
    and one pointer-doubling pass; the blocks bound the working arrays."""
    _check_n(n)
    k1 = len(offsets) - 1
    offs = np.array(offsets, dtype=np.int64)
    pos = s.integers(0, 1 + np.arange(n)[:, None] * k1, (n, reps)).T.astype(np.int32)
    wide = n * int(np.abs(offs).max()) >= 2**31  # labels that int32 would wrap
    labels = np.empty((reps, 1 + n * k1), dtype=np.int64 if wide else np.int32)
    labels[:, 0] = 0
    block = max(KARY_BLOCK // max(n, 1), 1)
    for lo in range(0, reps, block):
        p = pos[lo : lo + block]
        # distinct keys position*n + time: each slot's splits adjacent, in time order
        node = np.argsort(p.astype(np.int64) * n + np.arange(n), axis=1)
        slot = np.take_along_axis(p, node, axis=1)
        node += 1  # split k is node k+1
        first = np.diff(slot, axis=1, prepend=-1) != 0
        last = np.diff(slot, axis=1, append=-1) != 0
        row = np.arange(len(p))[:, None]
        at = node + (n + 1) * row  # flat places of the splits in (rows, n+1)
        par = np.zeros((len(p), n + 1), dtype=np.int32)
        par.reshape(-1)[at] = np.where(first, (slot + k1 - 1) // k1, np.roll(node, 1, axis=1))
        step = np.zeros((len(p), n + 1), dtype=np.int64)
        step.reshape(-1)[at] = np.where(first & (slot > 0), offs[(slot - 1) % k1 + 1], offs[0])
        val = parent_depths(par, step)
        del par, step  # before the gathers below
        out = labels[lo : lo + block]
        out[:, 1:] = (val[:, 1:, None] + (offs[1:] - offs[0])).reshape(len(p), -1)
        out.reshape(-1)[(slot + out.shape[1] * row)[last]] = val.reshape(-1)[at[last]]
    return labels


def batch_exact_colour_samples(p, reps, read, increment, s) -> np.ndarray:
    """One exact draw per urn from the normalized urn measure of `reps`
    batched +-1 walk urns of p unit packets started from a unit point mass at
    0, packet 0 the initial packet.  Picks a uniform packet idx per urn, reads
    its label read(idx) (off a genealogy by genealogy_labels, or off the
    packet's ancestor chain by sample_tree_nodes), then takes one kernel step
    (the initial colour 0 for packet 0).  The draws are float64."""
    idx = s.integers(0, p, reps)
    out = np.add(read(idx), increment.draw_many(s, reps), dtype=float)
    out[idx == 0] = 0.0
    return out


# ---------------------------------------------------------------------------
# theorem verification pipeline
# ---------------------------------------------------------------------------


HILL_BAND = 0.4  # criterion 11: a stable run passes when |hill - alpha| <= HILL_BAND
KS_GATE, TV_GATE = 0.05, 0.05  # the walk routes' KS; the queue's TV and the palette's l1
URNS = 16  # independent urns the rescaled routes pool their pairs from


def verify_main_theorem(kernel: ReplacementKernel, m0: AtomicMeasure, n_grid, replicas: int, s: RngStream) -> dict:
    """Rescaled-limit check: the urn at each n of n_grid against the limit
    its kernel fixes.

    One dispatch reads the kernel, raises on bad input, and picks the route,
    named in the report's `plan`, and the route function each grid point
    calls for its (samples, measure, fields):

    | kernel | plan, route | t | rescaled sample | scored by |
    |---|---|---|---|---|
    | walk, mean m, variance v | brw, _rescaled_point | log n | (x - m t) / sqrt(t) | KS to Normal(0, v + m^2), KS_GATE |
    | kappa-discrete, offsets' m, v | brw, _rescaled_point | beta log n | (x - m t) / sqrt(t) | the same |
    | alpha-stable walk | stable, _rescaled_point | log n | x / t^(1/alpha) | Hill exponent within HILL_BAND of alpha |
    | M/M/infinity queue | ergodic, _ergodic_point | -- | none | TV to MMInfJumpChain(lam, mu), TV_GATE |
    | finite palette | ergodic, _ergodic_point | -- | none | l1 to the Perron limit, TV_GATE |

    beta = kappa/(kappa-1).  Per grid point, `samples` holds the values that
    were scored (the pooled a's then b's, or the scored urn's drawn colours)
    and `measures` the scored urn's measure (None for pooled pairs).

    Raises ValueError, before any draw, for replicas below 1, a grid point
    that is not an integer >= 1, n = 1 on a rescaled route (t = 0), a stable
    index outside (0, 2), a walk or stable kernel with an initial measure of
    mass other than 1, a kappa-discrete kernel with one other than a single
    ball, and a palette with no Perron limit (a reducible one).
    """
    if replicas < 1:
        raise ValueError("replicas must be >= 1")
    for n in n_grid:
        if not isinstance(n, (int, np.integer)) or n < 1:
            raise ValueError(f"n_grid point n={n} is not an integer >= 1")
    walk = isinstance(kernel, RandomWalkKernel)
    if walk and abs(m0.total_mass - 1.0) > 1e-12:
        raise ValueError(f"the walk route grows recursive trees, so m0 needs mass 1, not {m0.total_mass:g}")
    if isinstance(kernel, (MMInfQueueKernel, DColourKernel)):
        plan, route = "ergodic", _ergodic_point
        if isinstance(kernel, DColourKernel):
            leading_eigenpair(kernel.rows)  # raises for a reducible palette
    elif walk and isinstance(kernel.increment, StableIncrement):
        plan, route, alpha = "stable", _rescaled_point, kernel.increment.alpha
        if not 0 < alpha < 2:
            raise ValueError(f"the stable route scores a tail exponent, so alpha must be in (0, 2), not {alpha:g}")
    elif walk or isinstance(kernel, KDiscreteKernel):
        plan, route = "brw", _rescaled_point
        if not walk:
            _one_ball(m0, kernel.kappa)
    else:
        raise ValueError(f"no verification route for kernel {type(kernel).__name__}")
    if plan != "ergodic" and 1 in n_grid:
        raise ValueError(f"n_grid point n=1 has t = log n = 0, which the {plan} route cannot rescale by")
    results, samples, measures = [], [], []
    for n in n_grid:
        values, urn, fields = route(kernel, m0, n, replicas, s)
        results.append({"n": int(n), "ks": None, "tv": None, "decorrelation": None, **fields})
        samples.append(values)
        measures.append(urn)
    return {
        "plan": plan,
        "replicas": int(replicas),
        "results": results,
        "pass": all(r.get("pass", False) for r in results),
        "samples": samples,
        "measures": measures,
    }


def _ergodic_point(kernel, m0, n, replicas, s) -> tuple:
    """The queue or the palette at n: one urn grown by the direct scheme
    (replicas is not read), scored by TV or by l1."""
    trace = batch_direct_trace(m0, kernel, n, s)
    urn = trace.materialize()
    if isinstance(kernel, MMInfQueueKernel):
        pmf = {int(c): w / urn.total_mass for c, w in urn.atoms()}
        law = stats.MMInfJumpChain(kernel.lam, kernel.mu).pmf_dict(max(pmf) + 10)
        name, value = "tv", stats.total_variation(pmf, law)
    else:
        lam, v1 = leading_eigenpair(kernel.rows)
        comp = np.array([urn.weight(j) for j in range(kernel.d)]) / n
        name, value = "l1", float(np.abs(comp - lam * v1).sum())
    return trace.colours.astype(float), urn, {name: value, "pass": value <= TV_GATE}


def _rescaled_point(kernel, m0, n, replicas, s) -> tuple:
    """The walk, stable or kappa route at n: max(replicas // URNS, 1) pairs
    from each of URNS urns, both nodes of a pair read off their ancestor
    chains by sample_tree_nodes (the kappa route grows its urns' leaves and
    adds m0's ball), rescaled by t, scored, and their correlation under cos
    reported.  `scored` counts 2 * URNS * max(replicas // URNS, 1) values:
    twice `replicas` only when URNS divides it."""
    walk = isinstance(kernel, RandomWalkKernel)
    t = math.log(n)
    if walk:
        read = lambda idx: sample_tree_nodes(n, idx, kernel.increment, s, m0=m0)
        values = draw_walk_pairs(URNS, n + 1, replicas, kernel.increment, s, read)
    else:
        t *= 1.0 + 1.0 / (kernel.kappa - 1)
        labels = batch_kary_leaf_labels(n, URNS, kernel.offsets, s)
        values = batch_walk_pairs(labels, replicas, kernel, s) + _one_ball(m0, kernel.kappa)
    if walk and isinstance(kernel.increment, StableIncrement):
        values = values / t ** (1.0 / kernel.increment.alpha)
        fields = {"hill": stats.hill_tail_exponent(values, max(len(values) // 40, 10))}
        fields["pass"] = abs(fields["hill"] - kernel.increment.alpha) <= HILL_BAND
    else:
        values = (values - kernel.mean * t) / math.sqrt(t)
        fields = {"ks": stats.ks_statistic(values, stats.Normal(0.0, kernel.cov + kernel.mean**2))}
        fields["pass"] = fields["ks"] <= KS_GATE
    fields["scored"] = len(values)
    phi_a, phi_b = np.cos(np.split(values, 2))
    if np.std(phi_a) > 0 and np.std(phi_b) > 0:
        fields["decorrelation"] = float(np.corrcoef(phi_a, phi_b)[0, 1])
    return values, None, fields
