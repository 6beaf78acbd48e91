"""Test-only views of an H2 matrix: dense node bases, whole far fields,
and the per-call block apply that the matrix's apply plan replaced."""
import numpy as np

from h2fmm.h2 import _far_boxes, _spans


def far_partners(tree, blocks):
    """Per node: its whole far field as a list of partner boxes."""
    ptr, boxes = _far_boxes(tree, blocks)
    return [boxes[a:b].tolist() for a, b in zip(ptr[:-1], ptr[1:])]


def explicit_bases(tree, basis):
    """Per node: the dense (n_node, k) basis, its transfers expanded."""
    out = {}
    for ids, group in basis.mats.groups():  # children come before parents in storage
        for n, mat in zip(ids.tolist(), group):
            if not tree.is_leaf[n]:
                kids = [out[c] for c in tree.children(n).tolist()]
                rows = np.cumsum([0] + [u.shape[1] for u in kids])
                mat = np.vstack([u @ mat[a:b] for u, a, b in zip(kids, rows, rows[1:])])
            out[n] = mat
    return out


def block_apply(packed, x, starts, size, both_ways=False) -> np.ndarray:
    """Sum of B x_j into slot i over the stored blocks B of pairs (i, j).

    With ``both_ways`` each block also adds B^T x_i into slot j.  Slot n
    of ``x`` and of the result starts at ``starts[n]``.  Contributions are
    summed in storage order, so the result is reproducible.
    """
    idx, val = [np.empty(0, dtype=np.int64)], [np.empty(0)]
    for ij, b in packed.groups():
        ii = _spans(starts[ij[:, 0]], b.shape[1])
        jj = _spans(starts[ij[:, 1]], b.shape[2])
        idx.append(ii.ravel())
        val.append(np.matmul(b, x[jj][:, :, None]).ravel())
        if both_ways:
            idx.append(jj.ravel())
            val.append(np.matmul(x[ii][:, None, :], b).ravel())
    return np.bincount(np.concatenate(idx), np.concatenate(val), minlength=size)
