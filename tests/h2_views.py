"""Test-only views of an H2 matrix: dense node bases, whole far fields,
the blocks read one by one out of their block rows, a per-block apply,
and basis sweeps that build their index arrays on every call."""
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


def stored_blocks(store):
    """(i, j, B_ij) of every stored pair, in pair order, read out of its block row."""
    off, w = store.offsets, store.widths
    for t, (i, j) in enumerate(zip(store.rows.tolist(), store.cols.tolist())):
        yield i, j, store.data[off[t] : off[t + 1]].reshape(w[j], w[i]).T


def block_apply(store, x, size, both_ways=False) -> np.ndarray:
    """Sum of B x_j into slot i over the stored blocks B of pairs (i, j).

    With ``both_ways`` each block also adds B^T x_i into slot j.  One
    product per block, accumulated in pair order.
    """
    y, s = np.zeros(size), store.starts
    for i, j, b in stored_blocks(store):
        si, sj = slice(s[i], s[i] + b.shape[0]), slice(s[j], s[j] + b.shape[1])
        y[si] += b @ x[sj]
        if both_ways:
            y[sj] += b.T @ x[si]
    return y


def _basis_slots(m):
    """Per node: where its basis input and its reduced vector start in [x ; x_hat].

    An interior node's input is its children's reduced vectors, adjacent
    since sibling ids are consecutive.
    """
    tree, off = m.octree, m.row_basis.offsets
    inp = np.where(tree.is_leaf, tree.starts, m.n + off[tree.child_start])
    return inp, m.n + off[:-1]


def reference_upsweep(m, x) -> np.ndarray:
    """``upsweep`` with each shape group's index arrays built on the call."""
    buf = np.concatenate([np.asarray(x, dtype=np.float64)[m.octree.order], np.zeros(m.row_basis.offsets[-1])])
    inp, out = _basis_slots(m)
    for nodes, e in m.row_basis.mats.groups():
        if e.size:
            v = buf[_spans(inp[nodes], e.shape[1])]
            buf[_spans(out[nodes], e.shape[2])] = np.matmul(v[:, None, :], e)[:, 0]
    return buf[m.n :]


def reference_downsweep(m, yhat) -> np.ndarray:
    """``downsweep`` with each shape group's index arrays built on the call."""
    buf = np.concatenate([np.zeros(m.n), np.asarray(yhat, dtype=np.float64)])
    inp, out = _basis_slots(m)
    for nodes, e in reversed(list(m.row_basis.mats.groups())):
        if e.size:
            y = buf[_spans(out[nodes], e.shape[2])]
            buf[_spans(inp[nodes], e.shape[1])] += np.matmul(e, y[:, :, None])[:, :, 0]
    out = np.zeros(m.n)
    out[m.octree.order] = buf[: m.n]
    return out
