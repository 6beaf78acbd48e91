"""H2 compression of kernel matrices over an octree, and the O(N) matvec.

The representation follows the usual nested-basis layout: explicit bases
at octree leaves, interlevel transfer matrices at interior nodes, small
coupling matrices on admissible (low-rank) blocks of the block tree, and
raw dense blocks for inadmissible leaf-level pairs.  The kernels are
symmetric, so one basis serves rows and columns (U = V), S_ji = S_ij^T,
and each admissible pair is stored once, as S_ij with i < j.  The basis
is packed into one array of shape groups (:class:`Packed`), and the
upsweep and downsweep make one batched product per group.  The coupling
and dense blocks are stored by block row (:class:`BlockRows`): their
phases make one gather and one or two vector-matrix products per row
node, each reading that node's blocks as one matrix.  Every phase's
index arrays are built on the matrix's first product and kept.

Bases are built bottom-up over skeleton points.  A node's rows are its
particles at a leaf, or its children's skeleton points; its columns are
a fixed surrogate of its far field: 128 proxy points on each shell at
PROXY_SHELLS x rho around the node centre (rho = PROXY_RADIUS node
half-widths, points outside the root box left out), plus the particles
of the far boxes that come within rho.  Each octant of a shell and each
box is one column group, scaled to unit Frobenius norm after the
children's reduction, and the truncated SVD of the reduced rows gives
the leaf basis or the transfer matrices with the smallest rank that
leaves every group within eps; a group with no energy needs nothing.
The leaves of a level whose columns are the proxies alone are factored
together, one stack per particle count, over the proxy layout the
level's nodes share, the points outside the root box entering as zero
columns.  The node then keeps rank + 2 of its rows as skeletons, picked
by pivoted Gram-Schmidt, and a small map G with
U^T K(node, far) ~ G K(skeletons, far), which is U^T at a leaf whose
rows are all skeletons.  A parent reduces its rows with its children's
G, and each coupling block is S_ij = G_i K(s_i, s_j) G_j^T, so the
n_i x n_j kernel block of an admissible pair is never formed.

rho = 3 is the smallest radius that leaves every same-level admissible
box outside: such a box does not touch the node, so its near face is at
least 3 half-widths from the node's centre.  Coarser boxes and an
ancestor's partners lie further out, so only a box at least seven
levels finer than the leaf it partners can still be explicit, and the
surrogate is in practice the proxies alone, like the check surface of
the kernel-independent FMM (Ying, Biros and Zorin, 2004).  128 is the
smallest power of two of points per shell that holds the per-block
contract on the test fixtures down to eps 1e-10.  The price is rank:
against rho = 5 with 64 points, the stored bases and blocks of a random
cube at N = 8192 and eps 1e-6 grow from 119 to 143 MiB.

Proxies stand for the far field of ``laplace3d`` and ``one``.  On a
random cube of 2048 points they left up to 42 eps (``gaussian``, sigma
0.1) and 3.7 eps (``laplace2d``) on a block of the exact far field, past
the 3 eps the basis must meet, so those two kernels use rho = inf:
their columns are the whole exact far field and their basis cost stays
quadratic.  The achieved ``tails`` (and so ``flagged_nodes``) measure
the truncation against the surrogate.  The container stores only the
bases and blocks, so its format does not depend on how they were built.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigurationError
from .kernels import KernelSpec, _real, kernel_block
from .morton import MAX_LEVEL
from .tree import Octree, _ranges_concat, node_boxes

ETA = 1.75  # same-level cells are admissible iff they do not touch, as in the FMM

_CHUNK_ELEMENTS = 2**20  # cap on the entries of one batched temporary


def _box_gap2(lo_a, sa, lo_b, sb):
    """Squared distance between the closed boxes lo + [0, s]^3, row by row."""
    gap = np.maximum(0, np.maximum(lo_a - (lo_b + sb[..., None]), lo_b - (lo_a + sa[..., None])))
    return (gap * gap).sum(axis=-1).astype(np.float64)


def _admissible(lo_a, sa, lo_b, sb):
    """Row by row: max(diam)^2 <= ETA^2 * dist^2 for the boxes lo + [0, s]^3.

    Boxes are closed, so touching cells are never admissible, and
    same-level cells a full cell width apart are.
    """
    diam2 = 3.0 * np.maximum(sa, sb).astype(np.float64) ** 2
    return diam2 <= ETA * ETA * _box_gap2(lo_a, sa, lo_b, sb)


def _group(keys):
    """Items grouped by equal rows of ``keys``: ``(perm, ptr)``, group g being
    items ``perm[ptr[g]:ptr[g + 1]]``.  Groups run in lexicographic key
    order, and items keep their input order within a group."""
    perm = np.lexsort(keys.T[::-1])
    key = keys[perm]
    first = np.ones(len(perm), dtype=bool)
    first[1:] = (key[1:] != key[:-1]).any(axis=1)
    return perm, np.append(np.flatnonzero(first), len(perm))


@dataclass
class Packed:
    """Small matrices stored back to back in one array, grouped by shape.

    Item t belongs to node ``ids[t]``.  Group g holds items
    ``ptr[g]:ptr[g + 1]``, all of shape ``shapes[g]`` and stored row-major
    one after another, so :meth:`groups` views each group as a (count,
    rows, cols) array without copying.
    """

    ids: np.ndarray
    ptr: np.ndarray
    shapes: np.ndarray
    data: np.ndarray

    @classmethod
    def allocate(cls, ids, keys):
        """Uninitialised storage, items grouped by equal rows of ``keys``.

        The last two columns of ``keys`` are each item's (rows, cols); any
        columns before them only order the groups.
        """
        perm, ptr = _group(keys)
        size = int((keys[:, -2] * keys[:, -1]).sum())
        return cls(ids[perm], ptr, keys[perm[ptr[:-1]], -2:], np.empty(size))

    def groups(self):
        """(ids, matrices) per group, matrices being a (count, rows, cols) view."""
        off = 0
        for g, (r, c) in enumerate(self.shapes.tolist()):
            lo, hi = int(self.ptr[g]), int(self.ptr[g + 1])
            size = (hi - lo) * r * c
            yield self.ids[lo:hi], self.data[off : off + size].reshape(hi - lo, r, c)
            off += size


@dataclass
class BlockRows:
    """Blocks B_ij of node pairs (i, j), stored one matrix per row node.

    Node n's slot in a vector is ``starts[n]:starts[n] + widths[n]``.  The
    pairs are sorted by row node; row node i's matrix stacks the B_ij^T of
    its pairs, in pair order, into one row-major (sum of widths[j],
    widths[i]) array, and these lie back to back in ``data`` (uninitialised
    if not given).  Pair t's block starts at ``data[offsets[t]]``.
    """

    rows: np.ndarray
    cols: np.ndarray
    starts: np.ndarray
    widths: np.ndarray
    data: np.ndarray | None = None

    def __post_init__(self):
        self.widths = self.widths.astype(np.int64)
        self.offsets = np.append(0, np.cumsum(self.widths[self.rows] * self.widths[self.cols]))
        self.data = np.empty(int(self.offsets[-1])) if self.data is None else self.data

    def fill(self, cost, blocks):
        """Write each pair's block, one chunk of a shape group at a time.

        ``blocks(i, j, rows, cols)`` gives the (count, rows, cols) blocks of
        pairs (i, j) of one shape; a chunk holds at most
        ``_CHUNK_ELEMENTS // cost(rows, cols)`` pairs, in pair order.
        """
        shapes = np.stack([self.widths[self.rows], self.widths[self.cols]], axis=1)
        perm, ptr = _group(shapes)
        for lo, hi in zip(ptr[:-1].tolist(), ptr[1:].tolist()):
            r, c = shapes[perm[lo]].tolist()
            step = max(1, _CHUNK_ELEMENTS // cost(r, c))
            at = np.arange(r)[:, None] + r * np.arange(c)  # where B[a, b] lies in B^T
            for t in (perm[a : min(a + step, hi)] for a in range(lo, hi, step)):
                self.data[self.offsets[t][:, None, None] + at] = blocks(self.rows[t], self.cols[t], r, c)

    @cached_property
    def _plan(self):
        """The partners' slots in pair order and, per row node, its matrix,
        its span of those slots and its own slot; built on first use."""
        w, cut = self.widths, np.flatnonzero(np.diff(self.rows, prepend=-1, append=-1))
        cat = np.append(0, np.cumsum(w[self.cols]))[cut].tolist()
        end, node = self.offsets[cut].tolist(), self.rows[cut[:-1]]
        rows = [
            (self.data[d0:d1].reshape(c1 - c0, r), slice(c0, c1), slice(s, s + r))
            for c0, c1, d0, d1, r, s in zip(
                cat, cat[1:], end, end[1:], w[node].tolist(), self.starts[node].tolist()
            )
        ]
        return _ranges_concat(self.starts[self.cols], w[self.cols]), rows

    def apply(self, x, both_ways=False) -> np.ndarray:
        """Sum of B_ij x_j into slot i over the pairs, in a vector as long as ``x``.

        Both ways, each B_ij^T x_i is also added into slot j, by one
        ``bincount`` over the gathered partner slots.  Those products
        overwrite the row node's gathered partners once they are read.
        """
        gather, rows = self._plan
        g, y = x[gather], np.zeros(len(x))
        for b, cat, slot in rows:
            np.dot(g[cat], b, out=y[slot])
            if both_ways:
                np.dot(b, x[slot], out=g[cat])
        return y + np.bincount(gather, g, minlength=len(x)) if both_ways else y


@dataclass
class BlockTree:
    """Partition of the index square into low-rank and dense leaves.

    The partition is symmetric: (i, j) is a low-rank block exactly when
    (j, i) is.  :func:`compress` fills ``coupling`` with S_ij for each
    pair i < j and ``dense`` with every dense block.
    """

    lr_row: np.ndarray  # node ids, deterministic (level, row key, col key) order
    lr_col: np.ndarray
    dense_row: np.ndarray
    dense_col: np.ndarray
    coupling: BlockRows | None = None
    dense: BlockRows | None = None

    @property
    def n_lowrank(self) -> int:
        return len(self.lr_row)

    @property
    def n_dense(self) -> int:
        return len(self.dense_row)

    def max_blocks_per_row(self) -> int:
        if not len(self.lr_row):
            return 0
        return int(np.unique(self.lr_row, return_counts=True)[1].max())


def build_block_tree(tree: Octree) -> BlockTree:
    """Subdivide (row, col) node pairs until admissible or both leaves.

    Admissible pairs become low-rank leaves; inadmissible pairs of two
    octree leaves become dense leaves; anything else splits every
    non-leaf side.
    """
    anchors, sizes = node_boxes(tree)
    cur_i = np.zeros(1, dtype=np.int64)
    cur_j = np.zeros(1, dtype=np.int64)
    lr_i, lr_j, dn_i, dn_j = [], [], [], []
    while len(cur_i):
        adm = _admissible(anchors[cur_i], sizes[cur_i], anchors[cur_j], sizes[cur_j])
        leaf_pair = tree.is_leaf[cur_i] & tree.is_leaf[cur_j]
        lr_i.append(cur_i[adm])
        lr_j.append(cur_j[adm])
        dense = ~adm & leaf_pair
        dn_i.append(cur_i[dense])
        dn_j.append(cur_j[dense])
        split = ~adm & ~leaf_pair
        si, sj = cur_i[split], cur_j[split]
        if not len(si):
            break
        ni = np.where(tree.is_leaf[si], 1, tree.child_count[si]).astype(np.int64)
        nj = np.where(tree.is_leaf[sj], 1, tree.child_count[sj]).astype(np.int64)
        rep = ni * nj
        parent = np.repeat(np.arange(len(si)), rep)
        offsets = np.concatenate([[0], np.cumsum(rep)[:-1]])
        a, b = np.divmod(np.arange(int(rep.sum())) - offsets[parent], nj[parent])
        pi, pj = si[parent], sj[parent]
        cur_i = np.where(tree.is_leaf[pi], pi, tree.child_start[pi] + a)
        cur_j = np.where(tree.is_leaf[pj], pj, tree.child_start[pj] + b)
    lr_i, lr_j, dn_i, dn_j = map(np.concatenate, (lr_i, lr_j, dn_i, dn_j))  # one pass at least
    # Node ids are (level, key)-sorted, so this order is deterministic.
    lr_order = np.lexsort((lr_j, lr_i))
    dn_order = np.lexsort((dn_j, dn_i))
    return BlockTree(
        lr_row=lr_i[lr_order],
        lr_col=lr_j[lr_order],
        dense_row=dn_i[dn_order],
        dense_col=dn_j[dn_order],
    )


@dataclass
class BasisTree:
    """The nested basis over the octree nodes, shared by rows and columns.

    ``mats`` holds one matrix per node: a leaf's (count, k) basis, or an
    interior node's transfer matrices stacked over its children into one
    (sum of child ranks, k) matrix.  Its items run deepest level first.
    """

    ranks: np.ndarray
    tails: np.ndarray  # achieved relative truncation tail per node
    mats: Packed

    @property
    def offsets(self) -> np.ndarray:
        """Node n's slot in a reduced vector is ``offsets[n]:offsets[n + 1]``."""
        return np.concatenate([[0], np.cumsum(self.ranks, dtype=np.int64)])


@dataclass
class H2Matrix:
    """Compressed kernel matrix with one nested basis (U = V).

    Vectors passed to :func:`matvec` use the original particle order;
    the permutation into Morton order is internal.
    """

    octree: Octree
    kernel: KernelSpec
    eps: float
    row_basis: BasisTree  # the one basis; it serves the columns too
    blocks: BlockTree

    @property
    def n(self) -> int:
        return self.octree.n_particles

    @cached_property
    def _sweep_plan(self):
        """Per non-empty basis group, deepest first: its input and output
        slots in [x ; x_hat] and its (count, rows, rank) matrices; built on
        first use.  An interior node's input is its children's reduced
        vectors, adjacent since sibling ids are consecutive."""
        tree, off = self.octree, self.row_basis.offsets
        inp = np.where(tree.is_leaf, tree.starts, self.n + off[tree.child_start])
        return [
            (_spans(inp[nodes], e.shape[1]), _spans(self.n + off[nodes], e.shape[2]), e)
            for nodes, e in self.row_basis.mats.groups()
            if e.size
        ]

    def prepare(self) -> None:
        """Build the sweeps' and the coupling and dense stores' index plans
        now, which the first product builds otherwise."""
        _ = self._sweep_plan, self.blocks.coupling._plan, self.blocks.dense._plan

    def flagged_nodes(self) -> list:
        """(node, tail) of nodes whose truncation tail, computed or loaded, is above eps."""
        bad = np.flatnonzero(self.row_basis.tails > self.eps)
        return [(int(b), float(self.row_basis.tails[b])) for b in bad]

    def summary(self) -> dict:
        ranks = self.row_basis.ranks
        active = ranks[ranks > 0]
        return {
            "n": self.n,
            "kernel": self.kernel.kind,
            "eps": self.eps,
            "eta": ETA,
            "lowrank_blocks": self.blocks.n_lowrank,
            "dense_blocks": self.blocks.n_dense,
            "max_rank_achieved": int(ranks.max()) if len(ranks) else 0,
            "mean_rank": float(active.mean()) if len(active) else 0.0,
            "max_blocks_per_row_node": self.blocks.max_blocks_per_row(),
            "flagged_nodes": len(self.flagged_nodes()),
            "max_tail": float(self.row_basis.tails.max()),
            "storage": storage_report(self),
            "flops": flop_report(self),
        }


def _far_boxes(tree: Octree, blocks: BlockTree, radius=math.inf):
    """Per node: the low-rank partners of the node and of its ancestors.

    With a finite ``radius`` (in node half-widths) only the boxes that
    come closer than that to the node's centre are kept.  The partners of
    the ancestor k levels up lie at least sqrt(3) * 2^k / ETA node widths
    away, so ancestors past the radius are skipped.  Returns
    ``(ptr, boxes)``: node n's boxes are ``boxes[ptr[n]:ptr[n + 1]]``, in
    increasing id order.
    """
    anchors, sizes = node_boxes(tree)
    own = np.searchsorted(blocks.lr_row, np.arange(tree.n_nodes + 1))
    nodes = anc = np.arange(tree.n_nodes)
    found_i, found_j = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
    k = 0
    while len(nodes) and math.sqrt(3.0) * 2**k / ETA < radius / 2:
        deg = own[anc + 1] - own[anc]
        has = deg > 0
        i = np.repeat(nodes[has], deg[has])
        j = blocks.lr_col[_ranges_concat(own[anc[has]], deg[has])]
        if radius < math.inf:
            centre = anchors[i] + sizes[i, None] / 2
            gap2 = _box_gap2(centre, np.zeros_like(sizes[i]), anchors[j], sizes[j])
            near = gap2 < (radius * sizes[i] / 2) ** 2
            i, j = i[near], j[near]
        found_i.append(i)
        found_j.append(j)
        up = tree.parents[anc] >= 0
        nodes, anc = nodes[up], tree.parents[anc[up]]
        k += 1
    i, j = np.concatenate(found_i), np.concatenate(found_j)
    order = np.lexsort((j, i))
    return np.searchsorted(i[order], np.arange(tree.n_nodes + 1)), j[order]


def _kernel_rows(kernel, row_points, col_points):
    """kernel(rows, cols), the columns chunked to bound the transients."""
    n, m = len(row_points), len(col_points)
    step = max(1, _CHUNK_ELEMENTS // max(n, 1))
    if m <= step:
        return kernel_block(kernel, row_points, col_points)
    out = np.empty((n, m))
    for s in range(0, m, step):
        out[:, s : s + step] = kernel_block(kernel, row_points, col_points[s : s + step])
    return out


def _scale_groups(r, bounds):
    """Scale each column group (delimited by ``bounds``) of each matrix of
    the stack r to unit Frobenius norm, in place; a zero group stays zero.
    Returns the column scales."""
    norms = np.sqrt(np.add.reduceat(np.einsum("...ij,...ij->...j", r, r), bounds[:-1], axis=-1))
    norms[norms == 0.0] = 1.0
    scale = np.repeat(1.0 / norms, np.diff(bounds), axis=-1)
    r *= scale[..., None, :]
    return scale


def _truncate(scaled, eps, bounds):
    """Bases of a stack of scaled far rows; ranks from the per-block tail criterion.

    Item b's rank is the smallest r whose projection leaves every unit-norm
    sub-block (delimited by ``bounds``) with relative Frobenius residual
    at most eps, which is exactly the per-block compression contract; a
    sub-block with no energy needs nothing.  Returns per item the rank,
    the left singular vectors, the rows' coordinates in them
    (``u^T scaled``) and the largest block tail left; item b's basis is
    ``u[b, :, :ranks[b]]``.
    """
    t = scaled
    if t.shape[-1] > t.shape[-2]:  # wide R = t^T Q^T, and the square t^T has R's left singular pairs
        t = np.swapaxes(np.linalg.qr(np.swapaxes(t, -1, -2), mode="r"), -1, -2)
    u = np.linalg.svd(t, full_matrices=False)[0]
    proj = np.swapaxes(u, -1, -2) @ scaled
    blk = np.add.reduceat(proj * proj, bounds[:-1], axis=2)  # (B, k_full, n_blocks) energy
    total = blk.sum(axis=1, keepdims=True)
    resid = np.maximum(total - np.cumsum(blk, axis=1), 0.0)
    ok = (resid <= eps * eps * total).all(axis=2)
    ranks = np.where(ok.any(axis=1), ok.argmax(axis=1) + 1, u.shape[2])
    left = resid[np.arange(len(ranks)), ranks - 1]
    frac = np.divide(left, total[:, 0], out=np.zeros_like(left), where=total[:, 0] > 0.0)
    return ranks, u, proj, np.sqrt(frac.max(axis=1))


def _sphere_by_octant(n):
    """n nearly uniform unit-sphere points (a Fibonacci lattice) ordered
    by octant, and where each octant starts."""
    k = np.arange(n) + 0.5
    z = 1.0 - 2.0 * k / n
    phi = math.pi * (3.0 - math.sqrt(5.0)) * k
    r = np.sqrt(1.0 - z * z)
    points = np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)
    octant = ((points > 0.0) * np.array([1, 2, 4])).sum(axis=1)
    order = np.argsort(octant, kind="stable")
    return points[order], np.searchsorted(octant[order], np.arange(8))


PROXY_RADIUS = 3.0  # node half-widths; far boxes nearer than this stay explicit
PROXY_SHELLS = (1.0, 1.4, 2.0, 3.0, 5.0)  # proxy shell radii, in units of PROXY_RADIUS
PROXY_KINDS = ("laplace3d", "one")  # kernels whose far field the proxies stand for
_PROXY_SPHERE, _PROXY_OCTANTS = _sphere_by_octant(128)
# Column groups of the proxy layout: one octant of one shell each, shell by shell.
_PROXY_BOUNDS = np.append(
    (len(_PROXY_SPHERE) * np.arange(len(PROXY_SHELLS))[:, None] + _PROXY_OCTANTS).ravel(),
    len(_PROXY_SPHERE) * len(PROXY_SHELLS),
)


def _proxy_layout(anchors, sizes):
    """Proxy points of nodes of one level, (nodes, 640, 3), and which of
    them lie inside the root box.

    Every node of a level has the same points about its centre, grouped
    by ``_PROXY_BOUNDS``, so a far field that lies in a few directions is
    still held to eps.
    """
    scale = np.array(PROXY_SHELLS)[:, None, None] * (PROXY_RADIUS * sizes[0] / 2 / 2.0**MAX_LEVEL)
    offsets = (scale * _PROXY_SPHERE).reshape(-1, 3)
    pts = ((anchors + sizes[:, None] / 2) / 2.0**MAX_LEVEL)[:, None] + offsets
    return pts, ((pts >= 0.0) & (pts <= 1.0)).all(axis=2)


def _pivoted_rows(b, k):
    """k rows of b picked greedily by Gram-Schmidt with row pivoting."""
    if k >= len(b):
        return np.arange(len(b))
    b = b.copy()
    norms = (b * b).sum(axis=1)
    picked = []
    for _ in range(k):
        p = int(np.argmax(norms))
        picked.append(p)
        if norms[p] > 0.0:
            q = b[p] / math.sqrt(norms[p])
            b -= (b @ q)[:, None] * q
            norms = (b * b).sum(axis=1)
        norms[picked] = -1.0
    return np.array(picked, dtype=np.int64)


def _build_basis(tree: Octree, kernel, eps, blocks: BlockTree):
    """Bottom-up nested basis over skeleton points.

    A node's rows are its particles (a leaf) or its children's skeleton
    points; its columns are a fixed surrogate of its far field.  Leaves
    whose columns are the proxies alone are factored in stacks, one per
    level and particle count.  Returns ranks, tails, per-node basis or
    transfer matrices, and per node the skeleton points s and the map G
    with U^T K(node, far) ~ G K(s, far).
    """
    radius = PROXY_RADIUS if kernel.kind in PROXY_KINDS else math.inf
    ptr, boxes = _far_boxes(tree, blocks, radius)
    has_far = np.zeros(tree.n_nodes, dtype=bool)
    has_far[blocks.lr_row] = True
    for level in range(1, tree.depth + 1):
        nodes = tree.level_nodes(level)
        has_far[nodes] |= has_far[tree.parents[nodes]]
    stacked = tree.is_leaf & has_far & (np.diff(ptr) == 0) & (radius < math.inf)
    anchors, sizes = node_boxes(tree)
    n_nodes = tree.n_nodes
    ranks = np.zeros(n_nodes, dtype=np.int32)
    tails = np.zeros(n_nodes, dtype=np.float64)
    mats, skel, gmat = [None] * n_nodes, [None] * n_nodes, [None] * n_nodes
    pos, starts, counts = tree.particles.positions, tree.starts, tree.counts

    def finish(node, rows, u, proj, a=None, scale=None):
        # proj = sigma_r V_r^T, V_r the leading right singular vectors of the
        # scaled rows.  Skeletons: rank + 2 rows of a V_r (U_r sigma_r at a
        # leaf, given no a); G solves G (a V_r / sigma_r)[skeletons] = I,
        # which is U_r^T at a leaf whose rows are all skeletons.
        mats[node] = u
        ranks[node] = rank = u.shape[1]
        if a is None and rank + 2 >= len(rows):
            skel[node], gmat[node] = rows, u.T
            return
        sigma = np.sqrt(np.einsum("ij,ij->i", proj, proj))
        sigma[sigma == 0.0] = 1.0
        av = u * sigma if a is None else a @ (proj * scale).T / sigma
        pick = _pivoted_rows(av, rank + 2)
        skel[node] = rows[pick]
        gmat[node] = np.linalg.pinv(av[pick] / sigma)

    for level in range(tree.depth, -1, -1):
        level_nodes = tree.level_nodes(level)
        for node in level_nodes[~has_far[level_nodes]].tolist():
            kids = tree.children(node)
            mats[node] = np.zeros((int(ranks[kids].sum()) if len(kids) else int(counts[node]), 0))
            skel[node], gmat[node] = np.empty((0, 3)), np.zeros((0, 0))
        leaves = level_nodes[stacked[level_nodes]]
        perm, cut = _group(counts[leaves][:, None])
        for lo, hi in zip(cut[:-1].tolist(), cut[1:].tolist()):
            n = int(counts[leaves[perm[lo]]])
            step = max(1, _CHUNK_ELEMENTS // (n * int(_PROXY_BOUNDS[-1])))
            for chunk in (leaves[perm[s : min(s + step, hi)]] for s in range(lo, hi, step)):
                rows = pos[_spans(starts[chunk], n)]
                cols, inside = _proxy_layout(anchors[chunk], sizes[chunk])
                a = kernel_block(kernel, rows, cols)
                a *= inside[:, None, :]
                _scale_groups(a, _PROXY_BOUNDS)
                rk, u, proj, tails[chunk] = _truncate(a, eps, _PROXY_BOUNDS)
                for b, (node, r) in enumerate(zip(chunk.tolist(), rk.tolist())):
                    finish(node, rows[b], u[b, :, :r], proj[b, :r])
        for node in level_nodes[has_far[level_nodes] & ~stacked[level_nodes]].tolist():
            kids = tree.children(node).tolist()
            if tree.is_leaf[node]:
                rows = pos[starts[node] : starts[node] + counts[node]]
            else:
                rows = np.concatenate([skel[c] for c in kids])
            far = boxes[ptr[node] : ptr[node + 1]]
            cols, widths = pos[_ranges_concat(starts[far], counts[far])], counts[far]
            if radius < math.inf:  # the explicit boxes' particles, then the proxies
                pts, inside = _proxy_layout(anchors[node : node + 1], sizes[node : node + 1])
                groups = np.add.reduceat(inside[0], _PROXY_BOUNDS[:-1])
                cols = np.concatenate([cols, pts[0][inside[0]]])
                widths = np.concatenate([widths, groups[groups > 0]])
            # a = K(rows, surrogate); r = a reduced by the children's G
            a = _kernel_rows(kernel, rows, cols)
            r = a
            if kids:
                cut = np.cumsum([0] + [len(skel[c]) for c in kids])
                r = np.vstack([gmat[c] @ a[lo:hi] for c, lo, hi in zip(kids, cut, cut[1:])])
            bounds = np.concatenate([[0], np.cumsum(widths)])
            scale = _scale_groups(r[None], bounds)[0]
            rk, u, proj, tails[node : node + 1] = _truncate(r[None], eps, bounds)
            k = int(rk[0])
            finish(node, rows, u[0, :, :k], proj[0, :k], a if kids else None, scale)
    return ranks, tails, mats, skel, gmat


def assemble(tree: Octree, kernel, eps, blocks: BlockTree, ranks, tails, data=None) -> H2Matrix:
    """The H2 matrix over ``tree`` with its basis, coupling and dense stores.

    The basis items are the nodes, grouped deepest level first; the
    coupling pairs are the low-rank pairs i < j, and the dense pairs all
    dense pairs, both in block tree order.  Given ``data``, the stores
    take its (basis, coupling, dense) arrays, whose lengths must be the
    layout's (ValueError otherwise); without it they are uninitialised.
    """
    off = np.concatenate([[0], np.cumsum(ranks, dtype=np.int64)])
    end = tree.child_start.astype(np.int64) + tree.child_count
    rows = np.where(tree.is_leaf, tree.counts, off[end] - off[tree.child_start])
    keys = np.stack([-tree.levels.astype(np.int64), rows, ranks], axis=1).astype(np.int64)
    upper = blocks.lr_row < blocks.lr_col
    stores = (
        Packed.allocate(np.arange(tree.n_nodes), keys),
        BlockRows(blocks.lr_row[upper], blocks.lr_col[upper], off[:-1], ranks),
        BlockRows(blocks.dense_row, blocks.dense_col, tree.starts, tree.counts),
    )
    for store, name, held in zip(stores, ("basis", "coupling", "dense"), data or ()):
        if held.size != store.data.size:
            raise ValueError(f"{name} data holds {held.size} reals; the tree implies {store.data.size}")
        store.data = held
    blocks.coupling, blocks.dense = stores[1:]
    return H2Matrix(tree, kernel, eps, BasisTree(ranks, tails, stores[0]), blocks)


def _fill_dense(store, kernel, tree: Octree):
    """Write the kernel block K(i, j) of each dense pair.

    A chunk is one batched kernel call over the pairs' gathered leaf points.
    """
    pos, starts = tree.particles.positions, tree.starts

    def blocks(i, j, ni, nj):
        return kernel_block(kernel, pos[_spans(starts[i], ni)], pos[_spans(starts[j], nj)])

    store.fill(lambda ni, nj: ni * nj, blocks)


def _fill_coupling(store, kernel, skel, gmat, ranks):
    """Write S_ij = G_i K(s_i, s_j) G_j^T of each stored pair.

    Each node's skeletons are padded to rank + 2 points, the padding
    weighted by zero columns of G, and stacked with those of the nodes of
    equal rank, so a chunk is one batched kernel call.
    """
    slot = np.zeros(len(ranks), dtype=np.int64)
    pts, gs = {}, {}
    for r in sorted(set(ranks.tolist()) - {0}):
        nodes = np.flatnonzero(ranks == r)
        slot[nodes] = np.arange(len(nodes))
        pts[r], gs[r] = np.empty((len(nodes), r + 2, 3)), np.zeros((len(nodes), r, r + 2))
        for t, n in enumerate(nodes.tolist()):
            w = len(skel[n])
            pts[r][t, :w], pts[r][t, w:] = skel[n], skel[n][0]
            gs[r][t, :, :w] = gmat[n]

    def blocks(i, j, ri, rj):
        k = kernel_block(kernel, pts[ri][slot[i]], pts[rj][slot[j]])
        return np.matmul(np.matmul(gs[ri][slot[i]], k), gs[rj][slot[j]].transpose(0, 2, 1))

    store.fill(lambda ri, rj: (ri + 2) * (rj + 2), blocks)


def check_parameters(kernel: KernelSpec, eps) -> None:
    """Raise ConfigurationError unless eps is a real in (0, 1) (a bool is
    not one) and the kernel is finite on the diagonal."""
    if not (_real(eps) and 0.0 < eps < 1.0):
        raise ConfigurationError(f"eps must be in (0, 1), got {eps!r}")
    if kernel.kind in ("laplace3d", "laplace2d") and kernel.regularization**2 == 0.0:
        raise ConfigurationError(
            f"{kernel.kind} with regularization {kernel.regularization!r} is infinite on "
            "the diagonal; give a delta whose square is > 0"
        )


def compress(
    tree: Octree,
    kernel: KernelSpec,
    eps: float = 1e-6,
) -> H2Matrix:
    """Build the H2 representation of the kernel matrix over ``tree``.

    The kernel is assumed symmetric, K(a, b) = K(b, a), as every
    supported kind is: one basis serves rows and columns, and only the
    coupling blocks S_ij with i < j are assembled and stored.

    Parameters
    ----------
    tree : Octree
        Built (and preferably balanced) octree; its Morton-sorted
        particles define the matrix indexing.
    kernel : KernelSpec
        The singular kinds (laplace3d, laplace2d) need a regularization
        whose square is above 0; ConfigurationError otherwise.
    eps : float
        Relative Frobenius tolerance per admissible block, in (0, 1).

    Returns
    -------
    H2Matrix

    Raises
    ------
    ConfigurationError
        For an eps of the wrong type or out of range, or a singular
        kernel whose regularization squares to 0
        (:func:`check_parameters`).
    """
    check_parameters(kernel, eps)
    blocks = build_block_tree(tree)
    ranks, tails, mats, skel, gmat = _build_basis(tree, kernel, eps, blocks)
    h2 = assemble(tree, kernel, eps, blocks, ranks, tails)
    for nodes, out in h2.row_basis.mats.groups():
        np.stack([mats[n] for n in nodes.tolist()], out=out)
    _fill_coupling(blocks.coupling, kernel, skel, gmat, ranks)
    _fill_dense(blocks.dense, kernel, tree)
    return h2


def _vector(x, size, what) -> np.ndarray:
    """``x`` as a float64 vector; ValueError if it is complex or not of shape (size,)."""
    x = np.asarray(x)
    if np.iscomplexobj(x) or x.shape != (size,):
        raise ValueError(f"{what} must be real of shape ({size},), got {x.dtype} {x.shape}")
    return x.astype(np.float64, copy=False)


def _to_sorted(h2: H2Matrix, x):
    return _vector(x, h2.n, "vector")[h2.octree.order]


def _to_original(h2: H2Matrix, ys) -> np.ndarray:
    out = np.zeros(h2.n)
    out[h2.octree.order] = ys
    return out


def _spans(starts, width) -> np.ndarray:
    """(len(starts), width) indices of the ranges starts[t] + [0, width)."""
    return starts[:, None] + np.arange(width)


def upsweep(h2: H2Matrix, x) -> np.ndarray:
    """Reduced vectors x_hat of all nodes, concatenated in node order.

    Node n's part is ``x_hat[offsets[n]:offsets[n + 1]]`` with
    ``offsets = h2.row_basis.offsets``.  Leaves compute U^T x directly;
    interior nodes apply their transfers to their children's reduced
    vectors, deepest level first.  ``x`` is in original particle order.
    """
    buf = np.concatenate([_to_sorted(h2, x), np.zeros(h2.row_basis.offsets[-1])])
    for inp, out, e in h2._sweep_plan:
        buf[out] = np.matmul(buf[inp][:, None, :], e)[:, 0]
    return buf[h2.n :]


def coupling(h2: H2Matrix, xhat) -> np.ndarray:
    """Reduced outputs y_hat_i = sum_j S_ij x_hat_j, laid out as x_hat.

    Each stored pair adds S_ij x_hat_j to node i and S_ij^T x_hat_i to
    node j.
    """
    size = int(h2.row_basis.offsets[-1])
    return h2.blocks.coupling.apply(_vector(xhat, size, "x_hat"), both_ways=True)


def downsweep(h2: H2Matrix, yhat) -> np.ndarray:
    """Expand row-node accumulators into the low-rank output contribution.

    Parent contributions ripple into children through the transfer
    matrices, top-down, and leaves emit U times their accumulator.
    Returns a vector in original particle order.
    """
    buf = np.concatenate([np.zeros(h2.n), _vector(yhat, int(h2.row_basis.offsets[-1]), "y_hat")])
    for inp, out, e in reversed(h2._sweep_plan):
        buf[inp] += np.matmul(e, buf[out][:, :, None])[:, :, 0]
    return _to_original(h2, buf[: h2.n])


def dense_apply(h2: H2Matrix, x) -> np.ndarray:
    """Contribution of the dense (inadmissible leaf) blocks."""
    return _to_original(h2, h2.blocks.dense.apply(_to_sorted(h2, x)))


def matvec(h2: H2Matrix, x) -> np.ndarray:
    """y = A x through the dense, upsweep, coupling and downsweep phases."""
    return dense_apply(h2, x) + downsweep(h2, coupling(h2, upsweep(h2, x)))


def storage_report(h2: H2Matrix) -> dict:
    """Stored reals per category, returned in bytes (8-byte words)."""
    mats = h2.row_basis.mats
    sizes = np.repeat(mats.shapes.prod(axis=1), np.diff(mats.ptr))
    leaf = int(sizes[h2.octree.is_leaf[mats.ids]].sum())
    out = {
        "leaf_bases": 8 * leaf,
        "transfers": 8 * (mats.data.size - leaf),
        "coupling": 8 * h2.blocks.coupling.data.size,
        "dense": 8 * h2.blocks.dense.data.size,
    }
    out["total"] = sum(out.values())
    return out


def flop_report(h2: H2Matrix) -> dict:
    """Multiply-add counts of one matvec, by phase.

    Each stored coupling block is applied twice, as S_ij and as S_ij^T.
    """
    out = {
        "dense": h2.blocks.dense.data.size,
        "upsweep": h2.row_basis.mats.data.size,
        "coupling": 2 * h2.blocks.coupling.data.size,
        "downsweep": h2.row_basis.mats.data.size,
    }
    out["total"] = sum(out.values())
    return out
