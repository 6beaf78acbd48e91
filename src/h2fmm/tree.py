"""Adaptive linear octrees over particle sets, with 2:1 balance refinement.

Nodes are stored as flat arrays sorted by (level, key).  Leaves carry
contiguous ranges into the Morton-sorted particle array; empty cells are
never stored, so neighbor queries resolve against existing leaves only.
"""
from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, PrecisionLimitError
from .geometry import DistributionSpec, ParticleSet, generate
from .morton import MAX_LEVEL, decode_cells, points_to_keys
from .morton import encode_cells  # noqa: F401 - kept for the benchmark tracer

DEFAULT_LEAF_CAPACITY = 16

_U = np.uint64


def _ranges_concat(starts, counts):
    """Concatenate [s, s+c) ranges into one index vector without a loop.

    Every count must be >= 1: a zero shifts the later ranges (counts
    [2, 0, 3] give wrong indices) and a trailing zero raises IndexError."""
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    out = np.ones(total, dtype=np.int64)
    out[0] = starts[0]
    pos = np.cumsum(counts)[:-1]
    out[pos] = starts[1:] - (starts[:-1] + counts[:-1] - 1)
    return np.cumsum(out)


def sorted_unique(a):
    """``np.unique(a)`` by sort and adjacent compare.

    A bare ``np.unique`` on integer keys hashes in numpy 2.4.6: 5.8 s
    against 0.09 s here for 5M int64 keys on a 2-vCPU x86 VM.  Calls with
    ``return_counts``/``_index``/``_inverse`` still sort and are fine.
    """
    a = np.sort(a, axis=None)
    keep = np.empty(len(a), dtype=bool)
    keep[:1] = True
    np.not_equal(a[1:], a[:-1], out=keep[1:])
    return a[keep]


@dataclass
class Octree:
    """Linked adaptive octree in flat-array form.

    ``keys``/``levels``/``starts``/``counts`` describe every stored node,
    sorted by (level, key).  ``leaf_ids`` lists leaf node ids in spatial
    (Morton) order; ``leaf_start21`` gives each leaf's first level-21 key.
    """

    particles: ParticleSet
    order: np.ndarray
    keys21: np.ndarray
    leaf_capacity: int
    keys: np.ndarray
    levels: np.ndarray
    starts: np.ndarray
    counts: np.ndarray
    parents: np.ndarray
    child_start: np.ndarray
    child_count: np.ndarray
    is_leaf: np.ndarray
    level_ptr: np.ndarray
    balanced: bool
    leaf_ids: np.ndarray
    leaf_start21: np.ndarray

    @property
    def n_particles(self) -> int:
        return len(self.particles)

    @property
    def n_nodes(self) -> int:
        return len(self.keys)

    @property
    def n_leaves(self) -> int:
        return len(self.leaf_ids)

    @property
    def depth(self) -> int:
        return int(self.levels[self.leaf_ids].max())

    def children(self, node: int) -> np.ndarray:
        s, c = self.child_start[node], self.child_count[node]
        return np.arange(s, s + c, dtype=np.int64)

    def level_nodes(self, level: int) -> np.ndarray:
        return np.arange(self.level_ptr[level], self.level_ptr[level + 1], dtype=np.int64)


def _start21(keys, levels):
    """First level-21 key of each cell ``keys`` at ``levels``."""
    return keys << (_U(3) * (_U(MAX_LEVEL) - levels.astype(np.uint64)))


def _split_cells(k21, starts, counts, level):
    """Nonempty children (keys, starts, counts) of distinct level-``level``
    cells, given as particle ranges into the sorted level-21 keys ``k21``."""
    idx = _ranges_concat(starts, counts)
    ck = k21[idx] >> _U(3 * (MAX_LEVEL - (int(level) + 1)))
    bpos = np.flatnonzero(np.r_[True, ck[1:] != ck[:-1]])
    return ck[bpos], idx[bpos], np.diff(np.append(bpos, len(idx)))


def _compute_leaves(k21, n, leaf_capacity):
    """Leaf cells (keys, levels) of the adaptive split."""
    leaf_keys, leaf_levels = [], []
    cur_keys = np.zeros(1, dtype=np.uint64)
    cur_starts = np.zeros(1, dtype=np.int64)
    cur_counts = np.array([n], dtype=np.int64)
    level = 0
    while len(cur_keys):
        split = cur_counts > leaf_capacity
        if level == MAX_LEVEL and split.any():
            warnings.warn(
                f"{int(split.sum())} leaf cell(s) at level {MAX_LEVEL} hold more than "
                f"{leaf_capacity} coincident particles; kept as oversized leaves",
                RuntimeWarning,
                stacklevel=3,
            )
            split[:] = False
        leaf_keys.append(cur_keys[~split])
        leaf_levels.append(np.full(len(leaf_keys[-1]), level, dtype=np.int8))
        if not split.any():
            break
        cur_keys, cur_starts, cur_counts = _split_cells(
            k21, cur_starts[split], cur_counts[split], level
        )
        level += 1
    return np.concatenate(leaf_keys), np.concatenate(leaf_levels)


def _assemble(particles, order, k21, leaf_capacity, leaf_keys, leaf_levels, balanced):
    """Every Octree's maker: the node arrays of a disjoint leaf set, given in any order.

    The level-l nodes are the distinct level-l ancestors of the leaves at
    levels >= l (Sundar, Sampath and Biros, 2008).  Particle ranges and
    parents are searches; ``parents`` is nondecreasing, so a node's
    children are the run of its id there.
    """
    depth = int(leaf_levels.max())
    lev = leaf_levels.astype(np.uint64)
    by_level = [
        sorted_unique(leaf_keys[lev >= level] >> (_U(3) * (lev[lev >= level] - _U(level))))
        for level in range(depth + 1)
    ]
    sizes = [len(k) for k in by_level]
    level_ptr = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
    keys = np.concatenate(by_level)
    levels = np.repeat(np.arange(depth + 1, dtype=np.int8), sizes)
    starts = np.searchsorted(k21, _start21(keys, levels))
    counts = np.searchsorted(k21, _start21(keys + _U(1), levels)) - starts
    parents = np.full(len(keys), -1, dtype=np.int32)
    for level in range(1, depth + 1):
        lo, hi, end = level_ptr[level - 1 : level + 2]
        parents[hi:end] = lo + np.searchsorted(keys[lo:hi], keys[hi:end] >> _U(3))
    ids = np.arange(len(keys), dtype=np.int32)
    child_start = np.searchsorted(parents, ids).astype(np.int32)
    child_count = (np.searchsorted(parents, ids, side="right") - child_start).astype(np.int8)
    is_leaf = child_count == 0
    child_start[is_leaf] = 0
    leaf_ids = np.flatnonzero(is_leaf).astype(np.int32)
    leaf_start21 = _start21(keys[leaf_ids], levels[leaf_ids])
    srt = np.argsort(leaf_start21, kind="stable")
    return Octree(
        particles=particles,
        order=order,
        keys21=k21,
        leaf_capacity=leaf_capacity,
        keys=keys,
        levels=levels,
        starts=starts,
        counts=counts,
        parents=parents,
        child_start=child_start,
        child_count=child_count,
        is_leaf=is_leaf,
        level_ptr=level_ptr,
        balanced=balanced,
        leaf_ids=leaf_ids[srt],
        leaf_start21=leaf_start21[srt],
    )


def build_tree(particles: ParticleSet, leaf_capacity: int = DEFAULT_LEAF_CAPACITY) -> Octree:
    """Build the adaptive octree over ``particles``.

    Every leaf holds at most ``leaf_capacity`` particles unless it sits at
    the maximum level, where coincident particles can force an oversized
    leaf (reported with a warning).

    Parameters
    ----------
    particles : ParticleSet
    leaf_capacity : int

    Returns
    -------
    Octree
    """
    n = len(particles)
    if n < 1:
        raise ConfigurationError("cannot build a tree over an empty particle set")
    if leaf_capacity < 1:
        raise ConfigurationError(f"leaf_capacity must be >= 1, got {leaf_capacity}")
    keys = points_to_keys(particles.positions, MAX_LEVEL)
    order = np.argsort(keys, kind="stable")
    k21 = keys[order]
    leaves = _compute_leaves(k21, n, leaf_capacity)
    return _assemble(particles.take(order), order, k21, leaf_capacity, *leaves, False)


def _mark_for_balance(tree: Octree):
    """Flag leaves (leaf-table positions) at least two levels coarser than an adjacent leaf.

    Each leaf looks up its 26 same-level neighbour cells in one call over
    all leaves; a node found there two or more levels above the leaf that
    looked can only be a leaf covering the cell.
    """
    loc = CellLocator(tree)
    lv = tree.levels[tree.leaf_ids]
    mark = np.zeros(tree.n_nodes + 1, dtype=bool)  # [-1] absorbs the empty cell
    for node in loc.neighbours(tree.leaf_ids):
        mark[node[loc.levels[node] <= lv - 2]] = True
    return mark[tree.leaf_ids]


def _split_marked(tree: Octree, mark):
    """Leaf cells (keys, levels) of ``tree`` with the marked leaves replaced
    by their nonempty children (in no set order)."""
    ids = tree.leaf_ids
    levels = tree.levels[ids]
    out = [(tree.keys[ids[~mark]], levels[~mark])]
    for level in sorted_unique(levels[mark]):
        if level >= MAX_LEVEL:
            raise PrecisionLimitError("2:1 refinement would exceed the maximum level")
        sel = ids[mark & (levels == level)]
        keys, _, _ = _split_cells(tree.keys21, tree.starts[sel], tree.counts[sel], level)
        out.append((keys, np.full(len(keys), level + 1, dtype=np.int8)))
    return tuple(map(np.concatenate, zip(*out)))


def balance_2to1(tree: Octree) -> Octree:
    """Refine leaves until adjacent leaves differ by at most one level.

    Any leaf with a face-, edge- or corner-adjacent leaf two or more
    levels deeper is split; the ripple repeats until no such pair
    remains.  Only refinements happen, never coarsening.

    Returns a new tree; the input is left untouched.
    """
    def assemble(*leaves):
        return _assemble(tree.particles, tree.order, tree.keys21, tree.leaf_capacity, *leaves, True)

    out = tree
    for _ in range(MAX_LEVEL * MAX_LEVEL):
        mark = _mark_for_balance(out)
        if not mark.any():
            break
        out = assemble(*_split_marked(out, mark))
    else:  # pragma: no cover - the ripple strictly deepens marked leaves
        raise RuntimeError("2:1 balancing did not reach a fixpoint")
    return assemble(tree.keys[tree.leaf_ids], tree.levels[tree.leaf_ids]) if out is tree else out


_SLOT_BITS = (np.arange(8)[:, None] >> np.array([2, 1, 0])) & 1  # x, y, z bits of each child slot
_COLLEAGUES = np.array(list(itertools.product((-1, 0, 1), repeat=3)))  # ``near`` order, (0, 0, 0) at 13
# Bit b of _REACH[j]: child j of a parent's 27 colleagues (in ``near`` order) is within 2 of child b.
_CHILD_CELLS = 2 * _COLLEAGUES[:, None] + _SLOT_BITS
_REACH = np.packbits(abs(_CHILD_CELLS.reshape(216, 1, 3) - _SLOT_BITS).max(2) <= 2, 1, bitorder="little")[:, 0]
# Per neighbour offset d (row) and child slot b (column), per axis s = b_axis + d:
# the parent's colleague s >> 1 (_NEAR_COL) and its child s & 1 (_NEAR_SLOT).
_STEPS = np.delete(_COLLEAGUES, 13, 0)[:, None] + _SLOT_BITS
_NEAR_COL, _NEAR_SLOT = ((_STEPS >> 1) + 1) @ [9, 3, 1], (_STEPS & 1) @ [4, 2, 1]


class CellLocator:
    """Colleague table of one tree (Carrier, Greengard and Rokhlin, 1988).

    Row ``row[n]`` of ``near`` holds, for node n's cell and its 26
    same-level neighbour cells in ``itertools.product`` order (n itself in
    the middle), the node stored there, else the leaf covering it, else
    -1 (empty or off the grid).  Rows are kept for the root and the
    internal nodes only, 108 bytes each; the last row, also reached
    through ``row[-1]``, is all -1.  A cell within two of a child lies in
    one of its parent's 27 cells, so the rows are built top-down and every
    query is two gathers, through the parent's row and the
    ``(n_nodes + 1, 8)`` child table.  Nothing is cached on the tree: a
    commsim run builds one for all its phases, and each balance sweep one
    for its tree.
    """

    def __init__(self, tree: Octree):
        self.tree = tree
        n = tree.n_nodes
        # Row n, also reached as -1, is the empty cell; a leaf's children are itself.
        child = np.full((n + 1, 8), -1, dtype=np.int32)
        child[:n][tree.is_leaf] = np.flatnonzero(tree.is_leaf)[:, None]
        kids = np.flatnonzero(tree.parents >= 0)
        child[tree.parents[kids], tree.keys[kids] & _U(7)] = kids
        self.child = child.ravel()
        self.levels = np.append(tree.levels, np.int8(-1))  # levels[-1]: the empty cell
        owners = np.flatnonzero(~tree.is_leaf | (tree.parents < 0))  # node 0 is the root
        self.row = np.full(n + 1, len(owners), dtype=np.int64)
        self.row[owners] = np.arange(len(owners))
        self.near = np.full((len(owners) + 1, 27), -1, dtype=np.int32)
        self.near[0, 13] = 0
        bounds = np.searchsorted(owners, tree.level_ptr)
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            cells = list(self.neighbours(owners[lo:hi]))
            cells.insert(13, owners[lo:hi])
            self.near[lo:hi] = np.column_stack(cells)

    def neighbours(self, nodes):
        """Per neighbour offset, the 26 in ``itertools.product`` order, the
        entry of each of ``nodes``' cells moved by it; ``nodes`` may mix
        levels."""
        tree = self.tree
        b = (tree.keys[nodes] & _U(7)).astype(np.intp)
        start = self.row[tree.parents[nodes]] * 27  # a root reads the empty row
        near = self.near.ravel()
        for col, slot in zip(_NEAR_COL, _NEAR_SLOT):
            yield self.child[near[start + col[b]] * 8 + slot[b]]


def node_boxes(tree: Octree):
    """Each node's anchor, an (n_nodes, 3) int64 array, and edge on the level-21 grid."""
    anchors = decode_cells(_start21(tree.keys, tree.levels), MAX_LEVEL)
    return anchors, np.int64(1) << (MAX_LEVEL - tree.levels.astype(np.int64))


def node_leaves(tree: Octree):
    """``(first, count)``: node n's leaves are leaf-table positions
    ``first[n]:first[n] + count[n]``, the table being in Morton order."""
    first = np.searchsorted(tree.leaf_start21, _start21(tree.keys, tree.levels))
    end = np.searchsorted(tree.leaf_start21, _start21(tree.keys + _U(1), tree.levels))
    return first, end - first


def sibling_halos(loc: CellLocator, level: int, sources=None, *labels):
    """(first, cell) pairs: each sibling group's cells at ``level`` within
    Chebyshev distance 2 of one of its nodes, the group's own included.

    A group is a run of ``level``'s nodes in the mask ``sources`` (default
    all) with one parent and equal entries in each array of ``labels``;
    ``first`` is its first node.  Its cells are the children of the
    parent's 27 colleagues, kept by a mask of the group's child slots.
    """
    tree = loc.tree
    ids = tree.level_nodes(level)
    ids = ids if sources is None else ids[sources[ids]]
    parents = tree.parents[ids]
    new = np.arange(len(ids)) == 0
    for a in (parents, *(lab[ids] for lab in labels)):
        new[1:] |= a[1:] != a[:-1]
    starts = np.flatnonzero(new)
    slots = np.bitwise_or.reduceat(np.left_shift(1, tree.keys[ids] & _U(7), dtype=np.uint8), starts)
    near = loc.near[loc.row[parents[starts]]]  # -1, the empty cell, reads the child table's last row
    cells = loc.child[(near[:, :, None] * 8 + np.arange(8, dtype=np.int32)).reshape(-1, 216)]
    keep = np.flatnonzero((slots[:, None] & _REACH != 0) & (loc.levels[cells] == level))
    return ids[starts[keep // 216]], cells.ravel()[keep].astype(np.int64)


def leaf_adjacency_pairs(loc: CellLocator, among=None):
    """All ordered pairs (q, m) of leaf-table positions with touching boxes.

    ``among`` restricts both elements to the given leaf-table positions;
    by default every leaf takes part.  Box contact counts faces, edges and
    corners.  Of two touching leaves, the coarser (either, at one level)
    is the locator's entry at a same-level neighbour cell of the other:
    each leaf keeps the leaves it finds there, and the strictly coarser
    ones are mirrored.  One neighbour call covers every level.
    """
    tree = loc.tree
    n_leaves = np.int64(tree.n_leaves)
    if among is None:
        among = np.arange(n_leaves, dtype=np.int64)
    else:
        among = sorted_unique(np.asarray(among, dtype=np.int64))
    leaf_pos = np.full(tree.n_nodes + 1, -1, dtype=np.int64)  # [-1]: the empty cell
    leaf_pos[tree.leaf_ids[among]] = among
    levels = tree.levels[tree.leaf_ids]
    pairs = []
    for node in loc.neighbours(tree.leaf_ids[among]):
        m = leaf_pos[node]
        found = m >= 0
        q, m = among[found], m[found]
        coarser = levels[m] < levels[q]
        pairs += [q * n_leaves + m, m[coarser] * n_leaves + q[coarser]]
    # Same-level pairs come from both sides, and a coarse leaf can cover
    # several neighbour cells of one leaf.
    packed = sorted_unique(np.concatenate(pairs))
    return packed // n_leaves, packed % n_leaves


def neighbor_counts(tree: Octree) -> np.ndarray:
    """Number of adjacent leaves for every leaf (leaf-table order)."""
    q, _ = leaf_adjacency_pairs(CellLocator(tree))
    return np.bincount(q, minlength=tree.n_leaves)


def depth_stats(spec: DistributionSpec, n_values, leaf_capacity: int = DEFAULT_LEAF_CAPACITY):
    """Tree depth for each particle count in an ascending sweep.

    Returns a list of (n, depth) tuples using ``spec.kind`` and
    ``spec.seed`` for every entry.
    """
    n_values = list(n_values)
    if any(b <= a for a, b in zip(n_values, n_values[1:])):
        raise ConfigurationError("n_values must be strictly ascending")
    rows = []
    for n in n_values:
        pts = generate(DistributionSpec(spec.kind, int(n), spec.seed))
        rows.append((int(n), build_tree(pts, leaf_capacity).depth))
    return rows
