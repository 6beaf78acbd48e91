"""Test-only views of an H2 matrix: dense node bases and whole far fields."""
import numpy as np

from h2fmm.h2 import _far_boxes


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
