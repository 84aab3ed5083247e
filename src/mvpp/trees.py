"""Random tree growth and interrogation.

Three families are grown here: the uniform-attachment recursive tree (kind
"planar"), the incomplete binary tree grown by uniform free-slot insertion or
by key insertion under the permutation model (kind "binary"), and the
complete kappa-ary recursive tree grown by uniform leaf splitting (kind
"kary").  Trees live in flat arenas of integer ids; node ids equal insertion
rank, words are rebuilt on demand from parent pointers, and growth steps are
O(1).

Batches of recursive trees and of their rotation images (the free-slot
binary trees) also come as (reps, n+1) parent arrays, in row blocks of about
ROW_BLOCK entries: whole-array depths by pointer doubling, and the depths and
LCA depths of query nodes by climbs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .measures import AtomicMeasure
from .randomness import RngStream

PLANAR = "planar"
BINARY = "binary"
KARY = "kary"


class GrowingTree:
    """Arena-based rooted tree.

    parent[u] is -1 for the root; slot[u] is the child rank of u below its
    parent (for binary trees the side tag 0/1, for kary trees 0..kappa-1).
    depth[u] is maintained incrementally.  kary trees also maintain the list
    of current leaves for O(1) uniform leaf sampling (swap-remove).
    """

    __slots__ = ("kind", "kappa", "parent", "slot", "children", "depth", "leaf_list", "_leaf_pos")

    def __init__(self, kind: str, kappa: int | None = None):
        if kind not in (PLANAR, BINARY, KARY):
            raise ValueError(f"unknown tree kind {kind!r}")
        if kind == KARY and (kappa is None or kappa < 2):
            raise ValueError("kary trees need kappa >= 2")
        self.kind = kind
        self.kappa = kappa if kind == KARY else (2 if kind == BINARY else None)
        self.parent = [-1]
        self.slot = [-1]
        self.children = [[]]
        self.depth = [0]
        if kind == KARY:
            self.leaf_list = [0]
            self._leaf_pos = {0: 0}
        else:
            self.leaf_list = None
            self._leaf_pos = None

    @property
    def n_nodes(self) -> int:
        return len(self.parent)

    def _check(self, u: int):
        if not (0 <= u < len(self.parent)):
            raise ValueError(f"node id {u} not in tree of size {len(self.parent)}")

    def add_child(self, parent: int, slot: int | None = None) -> int:
        self._check(parent)
        nid = self.n_nodes
        if self.kind == PLANAR:
            slot = len(self.children[parent])
        elif self.kind == BINARY:
            if slot not in (0, 1):
                raise ValueError("binary insertion needs slot 0 or 1")
            if any(self.slot[c] == slot for c in self.children[parent]):
                raise ValueError(f"slot {slot} of node {parent} already occupied")
        else:
            slot = len(self.children[parent])
            if slot >= self.kappa:
                raise ValueError("kary node already has kappa children")
        self.parent.append(parent)
        self.slot.append(slot)
        self.children.append([])
        self.depth.append(self.depth[parent] + 1)
        self.children[parent].append(nid)
        if self.kind == KARY:
            if parent in self._leaf_pos:
                self._drop_leaf(parent)
            self.leaf_list.append(nid)
            self._leaf_pos[nid] = len(self.leaf_list) - 1
        return nid

    def _drop_leaf(self, u: int):
        pos = self._leaf_pos.pop(u)
        last = self.leaf_list.pop()
        if last != u:
            self.leaf_list[pos] = last
            self._leaf_pos[last] = pos

    def split_leaf(self, u: int) -> list:
        """Turn kary leaf u into an internal node with kappa fresh leaves."""
        if self.kind != KARY:
            raise ValueError("split_leaf is only for kary trees")
        if self.children[u]:
            raise ValueError(f"node {u} is not a leaf")
        return [self.add_child(u) for _ in range(self.kappa)]

    def leaves(self) -> list:
        if self.kind == KARY:
            return sorted(self.leaf_list)
        return [u for u in range(self.n_nodes) if not self.children[u]]

    def child_in_slot(self, u: int, s: int) -> int | None:
        self._check(u)
        for c in self.children[u]:
            if self.slot[c] == s:
                return c
        return None

    def word(self, u: int) -> tuple:
        """Slot letters along the root path; the root has the empty word."""
        self._check(u)
        letters = []
        while u != 0:
            letters.append(self.slot[u])
            u = self.parent[u]
        return tuple(reversed(letters))

    def find_word(self, word) -> int | None:
        u = 0
        for letter in word:
            nxt = None
            for c in self.children[u]:
                if self.slot[c] == letter:
                    nxt = c
                    break
            if nxt is None:
                return None
            u = nxt
        return u

    def clone(self) -> "GrowingTree":
        t = GrowingTree.__new__(GrowingTree)
        t.kind = self.kind
        t.kappa = self.kappa
        t.parent = list(self.parent)
        t.slot = list(self.slot)
        t.children = [list(c) for c in self.children]
        t.depth = list(self.depth)
        t.leaf_list = list(self.leaf_list) if self.leaf_list is not None else None
        t._leaf_pos = dict(self._leaf_pos) if self._leaf_pos is not None else None
        return t

    def shape_key(self) -> str:
        """Canonical string for the unlabelled shape (slot-aware for binary)."""
        out: dict = {}
        stack = [(0, False)]
        while stack:
            u, ready = stack.pop()
            if ready:
                if self.kind == BINARY:
                    left = self.child_in_slot(u, 0)
                    right = self.child_in_slot(u, 1)
                    ls = out[left] if left is not None else ""
                    rs = out[right] if right is not None else ""
                    out[u] = f"({ls}|{rs})"
                else:
                    kids = sorted(self.children[u], key=lambda c: self.slot[c])
                    out[u] = "(" + "".join(out[c] for c in kids) + ")"
            else:
                stack.append((u, True))
                for c in self.children[u]:
                    stack.append((c, False))
        return out[0]


def left_depth(t: GrowingTree, u: int) -> int:
    """Number of 0-slots on the root path; binary kinds only."""
    if t.kind == PLANAR:
        raise ValueError("left depth is defined for binary trees only")
    t._check(u)
    count = 0
    while u != 0:
        count += t.slot[u] == 0
        u = t.parent[u]
    return count


def lca(t: GrowingTree, u: int, v: int) -> int:
    """Deepest common ancestor: longest common prefix of the two words."""
    t._check(u)
    t._check(v)
    parent, depth = t.parent, t.depth
    while depth[u] > depth[v]:
        u = parent[u]
    while depth[v] > depth[u]:
        v = parent[v]
    while u != v:
        u, v = parent[u], parent[v]
    return u


# ---------------------------------------------------------------------------
# growth
# ---------------------------------------------------------------------------


def grow_rrt(n: int, s: RngStream) -> GrowingTree:
    """Uniform-attachment recursive tree after n growth steps (n+1 nodes)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    t = GrowingTree(PLANAR)
    for k in range(1, n + 1):
        t.add_child(int(s.next_uniform() * k))
    return t


def grow_bst_leaf(n: int, s: RngStream) -> GrowingTree:
    """Incomplete binary tree with n nodes grown by uniform free-slot insertion.

    A tree with k nodes exposes k+1 free slots; each insertion picks one
    uniformly.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    t = GrowingTree(BINARY)
    free = [(0, 0), (0, 1)]
    for _ in range(n - 1):
        i = int(s.next_uniform() * len(free))
        parent, slot = free[i]
        free[i] = free[-1]
        free.pop()
        nid = t.add_child(parent, slot)
        free.append((nid, 0))
        free.append((nid, 1))
    return t


@dataclass
class BstEnrichment:
    """Per-node insertion keys of the permutation model."""

    keys: list = field(default_factory=list)  # keys[node_id] = uniform value


def grow_bst_permutation(n: int, s: RngStream) -> tuple:
    """Binary search tree of n i.i.d. uniform keys.

    Keys larger than a node's key descend into slot 0, the rest into slot 1
    (this left/right orientation only matters for slot-sensitive statistics;
    the unlabelled shape law matches grow_bst_leaf).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    t = GrowingTree(BINARY)
    keys = [s.next_uniform()]
    for _ in range(n - 1):
        x = s.next_uniform()
        u = 0
        while True:
            slot = 0 if x > keys[u] else 1
            c = t.child_in_slot(u, slot)
            if c is None:
                t.add_child(u, slot)
                keys.append(x)
                break
            u = c
    return t, BstEnrichment(keys=keys)


def grow_kary(n: int, kappa: int, s: RngStream) -> GrowingTree:
    """Complete kappa-ary recursive tree: n uniform leaf splits."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if kappa < 2:
        raise ValueError("kappa must be >= 2")
    t = GrowingTree(KARY, kappa)
    for _ in range(n):
        u = t.leaf_list[int(s.next_uniform() * len(t.leaf_list))]
        t.split_leaf(u)
    return t


@dataclass
class KaryEnrichment:
    """Stick-breaking data: one split vector and one nested interval per node."""

    splits: dict = field(default_factory=dict)  # internal node -> split fractions
    intervals: dict = field(default_factory=dict)  # node -> (lo, hi)
    insertions: list = field(default_factory=list)  # uniforms that drove growth


def _dirichlet(kappa: int, alpha: float, s: RngStream) -> list:
    g = [s.next_gamma(alpha) for _ in range(kappa)]
    tot = sum(g)
    return [x / tot for x in g]


def grow_kary_dirichlet(n: int, kappa: int, s: RngStream) -> tuple:
    """Stick-breaking growth equal in law to grow_kary.

    Each node that splits draws a Dirichlet(kappa, 1/(kappa-1)) vector which
    partitions its interval; a uniform insertion point selects the leaf whose
    interval contains it.  Child interval lengths sum to the parent length
    exactly (cumulative endpoints, last endpoint pinned).
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if kappa < 2:
        raise ValueError("kappa must be >= 2")
    alpha = 1.0 / (kappa - 1)
    t = GrowingTree(KARY, kappa)
    enrich = KaryEnrichment(intervals={0: (0.0, 1.0)})

    def split(u: int):
        fracs = _dirichlet(kappa, alpha, s)
        lo, hi = enrich.intervals[u]
        width = hi - lo
        kids = t.split_leaf(u)
        acc = lo
        for j, c in enumerate(kids):
            nxt = hi if j == kappa - 1 else acc + width * fracs[j]
            enrich.intervals[c] = (acc, nxt)
            acc = nxt
        enrich.splits[u] = tuple(fracs)

    for step in range(n):
        if step == 0:
            split(0)
            continue
        u_val = s.next_uniform()
        enrich.insertions.append(u_val)
        u = 0
        while t.children[u]:
            for c in t.children[u]:
                lo, hi = enrich.intervals[c]
                if lo <= u_val < hi or (c == t.children[u][-1] and u_val >= lo):
                    u = c
                    break
        split(u)
    return t, enrich


# ---------------------------------------------------------------------------
# completion, rotation, swaps
# ---------------------------------------------------------------------------


def complete(t: GrowingTree) -> tuple:
    """Fill a binary tree to a complete one: every original node gets both
    children.  Returns (kary-2 tree, node_map original -> new id)."""
    if t.kind != BINARY:
        raise ValueError("complete() expects an incomplete binary tree")
    out = GrowingTree(KARY, 2)
    node_map = [-1] * t.n_nodes
    node_map[0] = 0
    order = [0]
    i = 0
    while i < len(order):
        u = order[i]
        i += 1
        for slot in (0, 1):
            c = t.child_in_slot(u, slot)
            if c is None:
                out.add_child(node_map[u])
            else:
                node_map[c] = out.add_child(node_map[u])
                order.append(c)
    return out, node_map


def rotation(t: GrowingTree) -> tuple:
    """Rotation correspondence: planar tree with n+1 nodes -> binary tree
    with n nodes.

    The leftmost child of each node maps to a 0-slot child of its parent's
    image; each next sibling maps to a 1-slot child of the previous sibling's
    image.  Returns (binary tree, node_map) where node_map[planar_id] is the
    binary id and the planar root maps to -1 (it has no image).
    """
    if t.kind != PLANAR:
        raise ValueError("rotation expects a planar tree")
    if t.n_nodes < 2:
        raise ValueError("rotation needs at least 2 nodes")
    b = GrowingTree(BINARY)
    node_map = [-1] * t.n_nodes
    order = [0]
    i = 0
    while i < len(order):
        u = order[i]
        i += 1
        kids = sorted(t.children[u], key=lambda c: t.slot[c])
        for rank, c in enumerate(kids):
            if rank == 0:
                if u == 0:
                    node_map[c] = 0  # binary root
                else:
                    node_map[c] = b.add_child(node_map[u], 0)
            else:
                node_map[c] = b.add_child(node_map[kids[rank - 1]], 1)
            order.append(c)
    return b, node_map


def rotation_inverse(b: GrowingTree) -> tuple:
    """Inverse rotation: binary tree with n nodes -> planar tree with n+1
    nodes.  Returns (planar tree, node_map binary_id -> planar_id)."""
    if b.kind != BINARY:
        raise ValueError("rotation_inverse expects a binary tree")
    p = GrowingTree(PLANAR)
    node_map = [-1] * b.n_nodes
    stack = [(0, 0)]  # (binary chain head, planar parent)
    while stack:
        head, pparent = stack.pop()
        c = head
        while c is not None:
            pid = p.add_child(pparent)
            node_map[c] = pid
            lc = b.child_in_slot(c, 0)
            if lc is not None:
                stack.append((lc, pid))
            c = b.child_in_slot(c, 1)
    return p, node_map


def swap_subtrees(t: GrowingTree, word) -> GrowingTree:
    """Exchange the two subtrees hanging at slots 0/1 below the node at
    word; identity when the word is absent.  Pure: returns a new tree."""
    if t.kind not in (BINARY, KARY) or (t.kind == KARY and t.kappa != 2):
        raise ValueError("swap_subtrees expects a binary tree")
    out = t.clone()
    u = out.find_word(tuple(word))
    if u is None:
        return out
    for c in out.children[u]:
        out.slot[c] = 1 - out.slot[c]
    out.children[u] = sorted(out.children[u], key=lambda c: out.slot[c])
    return out


# ---------------------------------------------------------------------------
# sampling and the profile
# ---------------------------------------------------------------------------


def sample_uniform_node(t: GrowingTree, s: RngStream) -> int:
    return int(s.next_uniform() * t.n_nodes)


def sample_uniform_leaf(t: GrowingTree, s: RngStream) -> int:
    if t.kind == KARY:
        return t.leaf_list[int(s.next_uniform() * len(t.leaf_list))]
    lv = t.leaves()
    return lv[int(s.next_uniform() * len(lv))]


def profile(t: GrowingTree) -> AtomicMeasure:
    """Depth histogram of a recursive tree divided by the number of growth
    steps n; with n+1 nodes the total mass is (n+1)/n."""
    if t.kind != PLANAR:
        raise ValueError("profile is defined for recursive trees")
    n = t.n_nodes - 1
    if n < 1:
        raise ValueError("profile needs at least one growth step")
    counts: dict = {}
    for d in t.depth:
        counts[d] = counts.get(d, 0) + 1
    return AtomicMeasure((k, c / n) for k, c in sorted(counts.items()))


# ---------------------------------------------------------------------------
# batched parent arrays
# ---------------------------------------------------------------------------

ROW_BLOCK = 2**16  # entries per row block of a wide batch; the blocks bound the working arrays


def row_blocks(reps: int, width: int):
    """Slices of ROW_BLOCK // width rows (at least one) that cover rows 0..reps."""
    step = max(ROW_BLOCK // max(width, 1), 1)
    return (slice(lo, lo + step) for lo in range(0, reps, step))


def _parent_shape(par) -> tuple:
    if (dt := np.asarray(par).dtype).kind not in "iu" or np.ndim(par) != 2:
        raise ValueError(f"parent arrays must be 2-d (reps, m) integers, got {dt} of shape {np.shape(par)}")
    return np.shape(par)


def rrt_parents(n: int, reps: int, s: RngStream) -> np.ndarray:
    """(reps, n+1) parent arrays of independent recursive trees after n growth
    steps.  Node k >= 1 takes parent floor(U*k), all from one uniforms call
    laid out (reps, n) row-major, so a row holds grow_rrt's parents for the
    same draws.  Each root is its own parent."""
    if n < 0:
        raise ValueError("n must be >= 0")
    par = np.zeros((reps, n + 1), dtype=np.intp)
    np.multiply(s.uniforms(reps * n).reshape(reps, n), np.arange(1, n + 1), out=par[:, 1:], casting="unsafe")
    return par


def rotation_parents(par: np.ndarray) -> np.ndarray:
    """Parent arrays of the rotation images of the recursive trees `par`, over
    the same node ids, a row block at a time.  Node c >= 1 hangs below its
    previous sibling in birth order (the 1-slot) or, as a first child, below its
    planar parent (the 0-slot).  Node 1, the root's first child, is the binary
    root; node 0 stays above it as a virtual root, so every binary depth and LCA
    depth is one less than in the returned array."""
    m = _parent_shape(par)[1] - 1
    out = np.zeros(par.shape, dtype=par.dtype)
    for rows in row_blocks(*par.shape):
        order = np.argsort(par[rows, 1:] * m + np.arange(m), axis=1)  # distinct keys: siblings adjacent, in birth order
        at = (order + 1 + (m + 1) * np.arange(len(order))[:, None]).ravel()  # their flat places in the block
        key = par[rows].ravel()[at]
        first = np.diff(key, prepend=-1) != 0
        first[:: max(m, 1)] = True  # each row's first
        out[rows].reshape(-1)[at] = np.where(first, key, np.roll(order.ravel() + 1, 1))
    return out


def parent_depths(par: np.ndarray, steps=1) -> np.ndarray:
    """Path sums of each node's step (1 by default: depths) along (reps, m)
    parent arrays whose roots are their own parents and add nothing, by
    pointer doubling: each round doubles every node's jump."""
    reps, m = _parent_shape(par)
    jump = (par + m * np.arange(reps)[:, None]).ravel()  # flat ids
    dep = (jump != np.arange(jump.size)) * np.broadcast_to(steps, par.shape).ravel()  # sum over each jump
    while not np.array_equal(nxt := jump[jump], jump):
        dep += dep[jump]
        jump = nxt
    return dep.reshape(reps, m)


def lca_depths(par: np.ndarray, u, v) -> np.ndarray:
    """Depths of the deepest common ancestors of nodes u[i] and v[i] (or u[i, j]
    and v[i, j]) of tree i of `par`, whose roots are their own parents; u == v
    gives depths.  Per row block, on flat ids row * m + node, both nodes of each
    pair climb to the root for their depths, then each round steps the deeper
    node of every unmet pair up, or both at equal depths."""
    reps, m = _parent_shape(par)
    u, v = np.asarray(u), np.asarray(v)
    for name, w in (("u", u), ("v", v)):
        if w.ndim > 2 or w.shape[:1] != (reps,) or w.shape != u.shape or w.dtype.kind not in "iu":
            want = f"1-d with one node per tree ({reps},) or 2-d ({reps}, k) like u, of integers"
            raise ValueError(f"{name} must be {want}, got {w.dtype} of shape {w.shape}")
        if w.size and not (0 <= w.min() and w.max() < m):
            raise ValueError(f"{name} holds a node outside 0..{m - 1}")
    k = u.shape[1] if u.ndim == 2 else 1
    uv, out = np.array([u, v], dtype=np.intp).reshape(2, reps, k), np.empty((reps, k), dtype=np.int64)
    for rows in row_blocks(reps, m):
        flat, up = par[rows].ravel(), m * np.arange(len(out[rows]))[:, None]
        x = ab = uv[:, rows] + up  # (2, rows, k) flat ids of the pairs' two nodes
        dep = np.zeros(ab.shape, dtype=np.int64)
        while (go := (nxt := flat[x] + up) != x).any():
            dep, x = dep + go, nxt
        while (live := ab[0] != ab[1]).any():
            step = live & (dep >= dep[::-1])  # the deeper node of each unmet pair, or both
            ab, dep = np.where(step, flat[ab] + up, ab), dep - step
        out[rows] = dep[0]
    return out.reshape(u.shape)


# ---------------------------------------------------------------------------
# exhaustive shape enumeration (small n)
# ---------------------------------------------------------------------------


def _compositions(total: int):
    if total == 0:
        yield ()
        return
    for first in range(1, total + 1):
        for rest in _compositions(total - first):
            yield (first,) + rest


def planar_shapes(n: int):
    """All planar trees with n nodes as nested tuples of child shapes."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        yield ()
        return
    for comp in _compositions(n - 1):
        def expand(parts):
            if not parts:
                yield ()
                return
            for head in planar_shapes(parts[0]):
                for tail in expand(parts[1:]):
                    yield (head,) + tail
        yield from expand(comp)


def binary_shapes(n: int):
    """All incomplete binary trees with n nodes as (left, right) pairs."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        yield None
        return
    for k in range(n):
        for lft in binary_shapes(k):
            for rgt in binary_shapes(n - 1 - k):
                yield (lft, rgt)


def build_planar(shape) -> GrowingTree:
    t = GrowingTree(PLANAR)
    stack = [(0, shape)]
    while stack:
        u, kids = stack.pop()
        for child_shape in kids:
            c = t.add_child(u)
            stack.append((c, child_shape))
    return t


def build_binary(shape) -> GrowingTree:
    if shape is None:
        raise ValueError("cannot build an empty binary tree")
    t = GrowingTree(BINARY)
    stack = [(0, shape)]
    while stack:
        u, (lft, rgt) = stack.pop()
        if lft is not None:
            stack.append((t.add_child(u, 0), lft))
        if rgt is not None:
            stack.append((t.add_child(u, 1), rgt))
    return t
