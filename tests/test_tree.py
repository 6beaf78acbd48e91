import ast
import hashlib
import itertools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from h2fmm.errors import ConfigurationError
from h2fmm.geometry import DistributionSpec, ParticleSet, generate
from h2fmm.morton import MAX_LEVEL, decode_cells, encode_cells
from h2fmm.tree import (
    _SLOT_BITS,
    CellLocator,
    balance_2to1,
    build_tree,
    depth_stats,
    leaf_adjacency_pairs,
    neighbor_counts,
    sorted_unique,
)


def lattice_particles(level, per_cell):
    """per_cell jittered particles in every cell of a full level grid."""
    side = 1 << level
    cells = np.stack(np.meshgrid(*[np.arange(side)] * 3, indexing="ij"), axis=-1)
    cells = cells.reshape(-1, 3).astype(np.float64)
    rng = np.random.default_rng(1234)
    pts = []
    for _ in range(per_cell):
        jitter = rng.random((len(cells), 3))
        pts.append((cells + jitter) / side)
    return ParticleSet(np.concatenate(pts))


def brute_adjacent_pairs(tree):
    """O(L^2) closed-box contact oracle, independent of the fast path."""
    ids = tree.leaf_ids
    lo = decode_cells(tree.leaf_start21, MAX_LEVEL)
    size = np.int64(1) << (MAX_LEVEL - tree.levels[ids].astype(np.int64))
    hi = lo + size[:, None]
    pairs = set()
    for i in range(len(ids)):
        touch = ((lo[i][None, :] <= hi) & (lo <= hi[i][None, :])).all(axis=1)
        touch[i] = False
        for j in np.flatnonzero(touch):
            pairs.add((i, int(j)))
    return pairs


def neighbour_walk(loc, nodes, radius):
    """``CellLocator.neighbours`` at any Chebyshev ``radius`` <= 2: per
    nonzero offset, in ``itertools.product`` order, the locator's entry at
    each of ``nodes``' cells moved by it.  A cell within two of a child
    lies in one of its parent's 27 cells, so the colleague table reaches
    radius 2 through the same two gathers."""
    tree = loc.tree
    offsets = [o for o in itertools.product(range(-radius, radius + 1), repeat=3) if any(o)]
    steps = np.array(offsets)[:, None] + _SLOT_BITS  # per axis: the parent's colleague >> 1, its child & 1
    cols, slots = ((steps >> 1) + 1) @ [9, 3, 1], (steps & 1) @ [4, 2, 1]
    b = (tree.keys[nodes] & np.uint64(7)).astype(np.intp)
    start = loc.row[tree.parents[nodes]] * 27
    return [loc.child[loc.near.ravel()[start + col[b]] * 8 + slot[b]] for col, slot in zip(cols, slots)]


def test_small_set_single_leaf():
    ps = generate(DistributionSpec("random-cube", 16, seed=0))
    t = build_tree(ps, 16)
    assert t.depth == 0
    assert t.n_leaves == 1
    assert t.n_nodes == 1


def test_cluster_in_one_octant_forces_two_levels():
    rng = np.random.default_rng(0)
    pts = rng.random((17, 3)) * 0.1  # all inside the first level-2 cell
    t = build_tree(ParticleSet(pts), 16)
    assert t.depth >= 2


def test_depth_regression_random_65536_seed3():
    ps = generate(DistributionSpec("random-cube", 65536, seed=3))
    t = build_tree(ps, 16)
    assert 4 <= t.depth <= 8
    assert t.depth == 5  # pinned regression value


def test_leaf_ranges_partition_particles():
    ps = generate(DistributionSpec("plummer", 3000, seed=4))
    t = build_tree(ps, 16)
    pos = 0
    for i in t.leaf_ids:
        assert int(t.starts[i]) == pos
        assert int(t.counts[i]) >= 1
        assert int(t.counts[i]) <= 16
        pos += int(t.counts[i])
    assert pos == 3000
    # The sorted particle array is a permutation of the input.
    assert np.array_equal(np.sort(t.particles.indices), np.sort(ps.indices))
    assert np.array_equal(t.particles.positions, ps.positions[t.order])


def test_children_extend_parent_key():
    ps = generate(DistributionSpec("random-cube", 2000, seed=5))
    t = build_tree(ps, 16)
    for node in range(t.n_nodes):
        for child in t.children(node):
            assert int(t.keys[child]) >> 3 == int(t.keys[node])
            assert int(t.levels[child]) == int(t.levels[node]) + 1


def test_overfull_coincident_leaf_warns():
    pts = np.full((20, 3), 0.3)
    with pytest.warns(RuntimeWarning, match="oversized"):
        t = build_tree(ParticleSet(pts), 16)
    assert t.depth == MAX_LEVEL
    assert int(t.counts[t.leaf_ids].max()) == 20


def test_build_validation():
    with pytest.raises(ConfigurationError):
        build_tree(ParticleSet(np.zeros((0, 3))), 16)
    ps = generate(DistributionSpec("random-cube", 10, seed=0))
    with pytest.raises(ConfigurationError):
        build_tree(ps, 0)


def test_balance_uniform_tree_unchanged():
    ps = lattice_particles(2, 8)  # full level-2 tree, 8 per leaf
    t = build_tree(ps, 16)
    assert t.depth == 2
    assert t.n_leaves == 64
    tb = balance_2to1(t)
    assert tb.balanced
    assert tb.n_nodes == t.n_nodes
    assert tb.n_leaves == t.n_leaves


def test_balance_single_leaf_unchanged():
    ps = generate(DistributionSpec("random-cube", 8, seed=1))
    t = build_tree(ps, 16)
    tb = balance_2to1(t)
    assert tb.n_leaves == 1 and tb.balanced


@pytest.mark.parametrize("kind,n,seed", [("plummer", 700, 5), ("sphere-surface", 500, 9)])
def test_balance_no_adjacent_gap_above_one(kind, n, seed):
    ps = generate(DistributionSpec(kind, n, seed))
    t = build_tree(ps, 4)
    tb = balance_2to1(t)
    pairs = brute_adjacent_pairs(tb)
    levels = tb.levels[tb.leaf_ids]
    worst = max(abs(int(levels[i]) - int(levels[j])) for i, j in pairs)
    assert worst <= 1
    # The unbalanced tree must actually have been unbalanced for this
    # case to exercise the ripple.
    pairs_u = brute_adjacent_pairs(t)
    lu = t.levels[t.leaf_ids]
    assert max(abs(int(lu[i]) - int(lu[j])) for i, j in pairs_u) >= 2


def test_balance_only_refines():
    ps = generate(DistributionSpec("plummer", 2000, seed=2))
    t = build_tree(ps, 8)
    tb = balance_2to1(t)
    assert tb.n_leaves >= t.n_leaves
    # Every original leaf is either kept or replaced by descendants.
    orig = {(int(t.levels[i]), int(t.keys[i])) for i in t.leaf_ids}
    for i in tb.leaf_ids:
        lev, key = int(tb.levels[i]), int(tb.keys[i])
        found = any((lev - d, key >> (3 * d)) in orig for d in range(lev + 1))
        assert found


# sha256 of the int64 bytes of the balanced tree's leaf keys, levels,
# starts and counts (leaf-table order), N = 16384, seed 0; recorded on the
# per-offset encode + searchsorted balance that the cell locator replaced.
PINNED_BALANCE_DIGESTS = {
    ("plummer", 16): "ec5ebc6d26d8145fa24e8c5f2e4bd9f7b7e68e604e228f9cd11f28b0f7d7c401",
    ("plummer", 1): "ffd7e56ce67a1c4e3a83edc8842260b7032aaabb97b3f7fa1ba03826212f8cf3",
    ("sphere-surface", 16): "575133fa220b113fa7e70861f4dfe9fd04090da543ff758589bba0922aa4610d",
    ("sphere-surface", 1): "c7ab3f218c2151b3f719d438fe0998edc40a48b2b6c5ce15d87b8859c9cf1dff",
}


def _leaf_digest(tree):
    ids = tree.leaf_ids
    h = hashlib.sha256()
    for a in (tree.keys[ids], tree.levels[ids], tree.starts[ids], tree.counts[ids]):
        h.update(np.ascontiguousarray(a, dtype=np.int64).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("kind", ["plummer", "sphere-surface"])
def test_balance_pinned(kind):
    ps = generate(DistributionSpec(kind, 16384, seed=0))
    for leaf_capacity in (16, 1):
        tb = balance_2to1(build_tree(ps, leaf_capacity))
        assert _leaf_digest(tb) == PINNED_BALANCE_DIGESTS[(kind, leaf_capacity)], leaf_capacity


NODE_FIELDS = (
    "keys", "levels", "starts", "counts", "parents", "child_start",
    "child_count", "is_leaf", "level_ptr", "leaf_ids", "leaf_start21",
)


def _node_digest(tree):
    """sha256 over every node array of ``tree``, names, dtypes and shapes included."""
    h = hashlib.sha256()
    for name in NODE_FIELDS:
        a = np.ascontiguousarray(getattr(tree, name))
        h.update(f"{name}:{a.dtype.str}:{a.shape};".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def coincident_particles():
    """40 coincident points, past what level 21 can split, among 200 random ones."""
    rng = np.random.default_rng(7)
    return ParticleSet(np.concatenate([np.full((40, 3), 0.3), rng.random((200, 3))]))


# (kind, leaf capacity, balanced) -> _node_digest, N = 16384, seed 0; recorded
# on the per-level count-carrying assembly that derivation from the leaf
# cells replaced.
PINNED_NODE_DIGESTS = {
    ("plummer", 16, False): "a2c31d7d42dbc1b36ec8041b1d2824f88adad6346b3358516f278509bb7e587a",
    ("plummer", 16, True): "0e6d1276f53f2dd196300217cf6d0ab9d00a905a190df2f8b92559a76fe1c27c",
    ("plummer", 1, False): "451138aa6400eec90a16c3a124b4322e17d1bcbd1ea836e4d5596d59083b91d4",
    ("plummer", 1, True): "665ddccc2aff440c4fbd74b68d594ad8740d6690f4bdbd14236c2ef8f44eb731",
    ("sphere-surface", 16, False): "091a9ce0d58cb41f3d221ce0bc329ebbde885b816736de940b66a51e86c21f35",
    ("sphere-surface", 16, True): "8e60dfcbf0fe6d1bf8eefec455175459222ebdd2aecfc0bab6ee13d9929df5a4",
    ("sphere-surface", 1, False): "f8c208495065ddba70e033e227dcc09af3dca6bcb1d5eeb55650e70cba815ecc",
    ("sphere-surface", 1, True): "faa3d6b0a256562da0656ec91717ffe36eb61ad11990e7a89cf8761e24ee5d41",
    ("random-cube", 16, False): "31344bd23175de406487b6b190d83c2db838c6d31a794ac2e48a1dd6821ae91b",
    ("random-cube", 16, True): "31344bd23175de406487b6b190d83c2db838c6d31a794ac2e48a1dd6821ae91b",
    ("random-cube", 1, False): "bc035c3d965f05bfbba946fd124ca37670ff5ac9b79da38c4f096759b43f5d29",
    ("random-cube", 1, True): "849d2f9484a2c03a1ae8a72093362d8bf464749e681437a1f86790e0684c3dd9",
    ("coincident", 16, False): "32cfe51d5221e3b74b7baa80682e19d1edffcbdc62587a4a204e183dceb49267",
    ("coincident", 16, True): "e87c2c80fac0e7bca6e51ed35cd1f47b5643f9f1feade8c35cb9c8f718b5b109",
}


@pytest.mark.parametrize("kind", ["plummer", "sphere-surface", "random-cube"])
def test_node_table_pinned(kind):
    ps = generate(DistributionSpec(kind, 16384, seed=0))
    for leaf_capacity in (16, 1):
        t = build_tree(ps, leaf_capacity)
        assert _node_digest(t) == PINNED_NODE_DIGESTS[(kind, leaf_capacity, False)], leaf_capacity
        tb = balance_2to1(t)
        assert _node_digest(tb) == PINNED_NODE_DIGESTS[(kind, leaf_capacity, True)], leaf_capacity


def test_node_table_pinned_coincident():
    with pytest.warns(RuntimeWarning, match="oversized"):
        t = build_tree(coincident_particles(), 16)
    assert t.depth == MAX_LEVEL
    assert _node_digest(t) == PINNED_NODE_DIGESTS[("coincident", 16, False)]
    assert _node_digest(balance_2to1(t)) == PINNED_NODE_DIGESTS[("coincident", 16, True)]


@pytest.mark.parametrize("kind,leaf_capacity", [("plummer", 4), ("sphere-surface", 1)])
def test_assemble_takes_leaves_in_any_order(kind, leaf_capacity):
    from h2fmm.tree import _assemble

    tb = balance_2to1(build_tree(generate(DistributionSpec(kind, 3000, seed=1)), leaf_capacity))
    shuffled = np.random.default_rng(0).permutation(tb.leaf_ids)
    again = _assemble(
        tb.particles, tb.order, tb.keys21, tb.leaf_capacity,
        tb.keys[shuffled], tb.levels[shuffled], True,
    )
    assert _node_digest(again) == _node_digest(tb)


def brute_balance_leaves(tree):
    """(level, key) leaf set of the 2:1 ripple, by the O(L^2) contact oracle.

    Splits every leaf that touches a leaf two or more levels deeper, one
    whole tree rebuild per sweep, until nothing changes.
    """
    from h2fmm.tree import _assemble

    while True:
        ids = tree.leaf_ids
        levels = tree.levels[ids].astype(int)
        coarse = {i for i, j in brute_adjacent_pairs(tree) if levels[j] - levels[i] >= 2}
        if not coarse:
            return {(int(tree.levels[i]), int(tree.keys[i])) for i in ids}
        leaves = []
        for pos, node in enumerate(ids):
            s, c, lev = int(tree.starts[node]), int(tree.counts[node]), int(levels[pos])
            if pos not in coarse:
                leaves.append((int(tree.keys[node]), lev))
                continue
            # The node's particles are Morton-sorted, so each child is one run.
            child = (tree.keys21[s : s + c] >> np.uint64(3 * (MAX_LEVEL - lev - 1))).tolist()
            for ck in sorted(set(child)):
                leaves.append((ck, lev + 1))
        keys, lev = zip(*leaves)
        tree = _assemble(
            tree.particles,
            tree.order,
            tree.keys21,
            tree.leaf_capacity,
            np.array(keys, dtype=np.uint64),
            np.array(lev, dtype=np.int8),
            True,
        )


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(["random-cube", "sphere-surface", "plummer"]),
    n=st.integers(1, 1500),
    seed=st.integers(0, 2**16),
    leaf_capacity=st.integers(1, 16),
)
def test_balance_matches_bruteforce_ripple(kind, n, seed, leaf_capacity):
    t = build_tree(generate(DistributionSpec(kind, n, seed)), leaf_capacity)
    tb = balance_2to1(t)
    assert {(int(tb.levels[i]), int(tb.keys[i])) for i in tb.leaf_ids} == brute_balance_leaves(t)
    again = balance_2to1(tb)
    assert _leaf_digest(again) == _leaf_digest(tb)
    assert again.n_nodes == tb.n_nodes


def _node_at(tree, level, cell):
    key = encode_cells(np.array(cell), level)
    return int(np.flatnonzero((tree.levels == level) & (tree.keys == key))[0])


def test_colleague_entries_hand_built():
    # Level-1 octant (0, 0, 0) splits into level-2 cells (0, 0, 0) and
    # (1, 0, 0); octant (1, 0, 0) is a level-1 leaf; the other octants are empty.
    pts = np.array([[0.1, 0.1, 0.1], [0.3, 0.1, 0.1], [0.7, 0.1, 0.1]])
    t = build_tree(ParticleSet(pts), 1)
    loc = CellLocator(t)
    octant, leaf = _node_at(t, 1, (0, 0, 0)), _node_at(t, 1, (1, 0, 0))
    a, b = _node_at(t, 2, (0, 0, 0)), _node_at(t, 2, (1, 0, 0))
    offsets = [off for off in itertools.product(range(-2, 3), repeat=3) if any(off)]
    got = dict(zip(offsets, (int(e[0]) for e in neighbour_walk(loc, [b], 2))))
    near = [off for off in offsets if max(map(abs, off)) == 1]
    assert [int(e[0]) for e in loc.neighbours([b])] == [got[off] for off in near]
    assert got[(-1, 0, 0)] == a  # a same-level node
    assert got[(1, 0, 0)] == got[(2, 1, 1)] == leaf  # the coarser leaf covering the cell
    assert got[(0, 1, 0)] == got[(2, 2, 0)] == -1  # empty cells, at levels 2 and 1
    assert got[(0, -1, 0)] == got[(-2, 0, 0)] == -1  # off the grid
    # Rows for the root and the one internal octant, then the empty row.
    assert len(loc.near) == 3 and loc.row[leaf] == loc.row[a] == loc.row[-1] == 2
    assert (loc.near[2] == -1).all()
    row = dict(zip(itertools.product(range(-1, 2), repeat=3), loc.near[loc.row[octant]].tolist()))
    assert row.pop((0, 0, 0)) == octant and row.pop((1, 0, 0)) == leaf
    assert set(row.values()) == {-1}


def _brute_entry(tree, stored, level, cell):
    """The node at ``cell``, else the leaf covering it, else -1, by walking up."""
    if min(cell) < 0 or max(cell) >= 1 << level:
        return -1
    key = int(encode_cells(np.array(cell), level))
    for up in range(level + 1):
        node = stored.get((level - up, key >> (3 * up)))
        if node is not None:
            return node if up == 0 or tree.is_leaf[node] else -1
    return -1


def test_neighbours_mixed_levels_match_per_level():
    t = balance_2to1(build_tree(generate(DistributionSpec("plummer", 1500, seed=3)), 2))
    loc = CellLocator(t)
    leaves = t.leaf_ids
    lv = t.levels[leaves]
    stored = {(int(t.levels[i]), int(t.keys[i])): i for i in range(t.n_nodes)}
    coords = [tuple(decode_cells(t.keys[i : i + 1], int(t.levels[i]))[0]) for i in leaves]

    def walk(nodes, radius):
        """The locator's own walk at radius 1, the tests' walk at radius 2."""
        return list(loc.neighbours(nodes)) if radius == 1 else neighbour_walk(loc, nodes, radius)

    assert all(map(np.array_equal, walk(leaves, 1), neighbour_walk(loc, leaves, 1)))
    for radius in (1, 2):
        offsets = [off for off in itertools.product(range(-radius, radius + 1), repeat=3) if any(off)]
        mixed = walk(leaves, radius)
        assert len(mixed) == len(offsets)
        for level in sorted_unique(lv):
            sel = lv == level
            for whole, part in zip(mixed, walk(leaves[sel], radius)):
                assert np.array_equal(whole[sel], part)
        for off, got in zip(offsets, mixed):
            want = [
                _brute_entry(t, stored, int(level), tuple(c + d for c, d in zip(cell, off)))
                for level, cell in zip(lv, coords)
            ]
            assert got.tolist() == want, off


def test_adjacency_matches_bruteforce_oracle():
    ps = generate(DistributionSpec("random-cube", 600, seed=2))
    t = build_tree(ps, 4)
    q, m = leaf_adjacency_pairs(CellLocator(t))
    assert set(zip(q.tolist(), m.tolist())) == brute_adjacent_pairs(t)


def test_neighbor_counts_uniform_level2():
    ps = lattice_particles(2, 8)
    t = build_tree(ps, 16)
    counts = neighbor_counts(t)
    coords = decode_cells(t.keys[t.leaf_ids], 2)
    interior = (coords > 0).all(axis=1) & (coords < 3).all(axis=1)
    corner = ((coords == 0) | (coords == 3)).all(axis=1)
    assert (counts[interior] == 26).all()
    assert (counts[corner] == 7).all()


def test_adjacency_query_corner_leaf():
    ps = lattice_particles(1, 4)
    t = build_tree(ps, 8)
    corner = int(np.flatnonzero(t.keys[t.leaf_ids] == 0)[0])  # cell (0, 0, 0)
    assert t.levels[t.leaf_ids[corner]] == 1
    q, m = leaf_adjacency_pairs(CellLocator(t))
    m = m[q == corner]
    assert len(m) == 7
    assert (t.levels[t.leaf_ids[m]] == 1).all()


def test_balanced_plummer_neighbor_bound():
    ps = generate(DistributionSpec("plummer", 8192, seed=0))
    tb = balance_2to1(build_tree(ps, 16))
    counts = neighbor_counts(tb)
    assert counts.max() <= 56
    assert counts.max() == 46  # pinned observed maximum


def test_depth_stats_monotone_and_slope():
    spec = DistributionSpec("random-cube", 1024, seed=0)
    n_values = [2**k for k in range(10, 17)]
    rows = depth_stats(spec, n_values, 16)
    depths = [d for _, d in rows]
    assert depths == sorted(depths)
    slope = np.polyfit(np.log([n for n, _ in rows]) / np.log(8), depths, 1)[0]
    assert 0.8 <= slope <= 1.3


def test_depth_stats_requires_ascending():
    spec = DistributionSpec("random-cube", 1024, seed=0)
    with pytest.raises(ConfigurationError):
        depth_stats(spec, [1024, 512], 16)


# -- sorted_unique -------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(
    a=hnp.arrays(
        np.int64,
        st.integers(0, 400),
        elements=st.one_of(st.integers(-5, 5), st.integers(-(2**63), 2**63 - 1)),
    )
)
def test_sorted_unique_equals_np_unique(a):
    got = sorted_unique(a)
    want = np.unique(a)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


def test_sorted_unique_empty_and_small_types():
    assert sorted_unique(np.empty(0, np.int64)).shape == (0,)
    lev = np.array([3, 1, 3, 2, 1], dtype=np.int8)
    out = sorted_unique(lev)
    assert out.dtype == np.int8 and out.tolist() == [1, 2, 3]


_SORTING_FLAGS = {"return_counts", "return_index", "return_inverse"}


def test_no_bare_np_unique_in_library():
    # A bare np.unique hashes integer keys in numpy 2.x, which is far
    # slower than sorted_unique on large arrays (see its docstring).
    src = Path(__file__).resolve().parents[1] / "src" / "h2fmm"
    bare = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "unique"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in ("np", "numpy")
                and not _SORTING_FLAGS & {kw.arg for kw in node.keywords}
            ):
                bare.append(f"{path.name}:{node.lineno}")
    assert bare == [], f"bare np.unique calls (use tree.sorted_unique): {bare}"
