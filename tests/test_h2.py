import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from h2fmm import h2 as h2_module
from h2fmm.errors import ConfigurationError
from h2fmm.geometry import DISTRIBUTION_KINDS, DistributionSpec, generate
from h2fmm.h2 import (
    _admissible,
    build_block_tree,
    compress,
    coupling,
    dense_apply,
    downsweep,
    flop_report,
    matvec,
    storage_report,
    upsweep,
)
from h2fmm.h2io import load_h2, save_h2
from h2fmm.kernels import KernelSpec, kernel_block
from h2fmm.morton import MAX_LEVEL
from h2fmm.tree import _ranges_concat, balance_2to1, build_tree, node_boxes
from h2_views import (
    block_apply,
    explicit_bases,
    far_partners,
    reference_downsweep,
    reference_upsweep,
    stored_blocks,
)

LAPLACE = KernelSpec("laplace3d", regularization=1e-2)


def lowrank_blocks(m):
    """(i, j, S_ij) for every low-rank block; S_ji is the stored S_ij transposed."""
    stored = {}
    for i, j, s in stored_blocks(m.blocks.coupling):
        stored[i, j], stored[j, i] = s, s.T
    for i, j in zip(m.blocks.lr_row.tolist(), m.blocks.lr_col.tolist()):
        yield i, j, stored[i, j]


def node_slot(m, hat, node):
    off = m.row_basis.offsets
    return hat[off[node] : off[node + 1]]


@pytest.fixture(scope="module")
def tree512():
    return build_tree(generate(DistributionSpec("random-cube", 512, seed=1)), 16)


@pytest.fixture(scope="module")
def h2_512(tree512):
    return compress(tree512, LAPLACE, eps=1e-6)


def admissible(a, b, level):
    """``_admissible`` on two same-level cells given by their coordinates."""
    shift = MAX_LEVEL - level
    lo_a, lo_b = (np.array([c], dtype=np.int64) << shift for c in (a, b))
    size = np.array([1 << shift])
    return bool(_admissible(lo_a, size, lo_b, size)[0])


def test_admissible_identical_cell_false():
    assert not admissible((1, 1, 1), (1, 1, 1), 2)


def test_admissible_face_adjacent_false():
    assert not admissible((0, 0, 0), (1, 0, 0), 2)
    assert not admissible((0, 0, 0), (1, 1, 1), 2)  # corner


def test_admissible_two_widths_apart_true():
    assert admissible((0, 0, 0), (2, 0, 0), 2)
    assert admissible((0, 0, 0), (2, 2, 2), 2)  # diagonal


def test_block_tree_partitions_index_square(tree512):
    bt = build_block_tree(tree512)
    t = tree512
    total = 0
    for i, j in zip(bt.lr_row, bt.lr_col):
        total += int(t.counts[i]) * int(t.counts[j])
    for i, j in zip(bt.dense_row, bt.dense_col):
        total += int(t.counts[i]) * int(t.counts[j])
    assert total == 512 * 512
    # Dense pairs sit at octree leaves only.
    assert t.is_leaf[bt.dense_row].all() and t.is_leaf[bt.dense_col].all()


def test_block_row_bound_flat_across_sweep():
    # Max low-rank blocks per row node stays flat over an N sweep.
    maxima = []
    for n in (4096, 8192, 16384):
        t = build_tree(generate(DistributionSpec("random-cube", n, seed=1)), 16)
        maxima.append(build_block_tree(t).max_blocks_per_row())
    assert max(maxima) - min(maxima) <= 1
    assert maxima[0] == 189  # full FMM interaction list


def test_ones_kernel_rank_one_exact(tree512):
    m = compress(tree512, KernelSpec("one"), eps=1e-6)
    used = np.unique(m.blocks.lr_row)
    assert (m.row_basis.ranks[used] == 1).all()
    t = tree512
    u = explicit_bases(t, m.row_basis)
    for i, j, s in lowrank_blocks(m):
        ui = u[i]
        vj = u[j]
        rebuilt = ui @ s @ vj.T
        assert np.abs(rebuilt - 1.0).max() < 1e-12


def test_ones_kernel_matvec_row_sums(tree512):
    m = compress(tree512, KernelSpec("one"), eps=1e-6)
    rng = np.random.default_rng(0)
    x = rng.standard_normal(512)
    y = matvec(m, x)
    assert np.abs(y - x.sum()).max() < 1e-9


def test_per_block_reconstruction_vs_oracle(h2_512, tree512):
    a = kernel_block(LAPLACE, tree512.particles.positions, tree512.particles.positions)
    t = tree512
    m = h2_512
    worst = 0.0
    u = explicit_bases(t, m.row_basis)
    for i, j, s in lowrank_blocks(m):
        ui = u[i]
        vj = u[j]
        si, ci = int(t.starts[i]), int(t.counts[i])
        sj, cj = int(t.starts[j]), int(t.counts[j])
        blk = a[si : si + ci, sj : sj + cj]
        err = np.linalg.norm(ui @ s @ vj.T - blk) / np.linalg.norm(blk)
        worst = max(worst, err)
    assert worst <= 1e-5


def test_ranks_nondecreasing_as_eps_tightens(tree512):
    maxima = []
    for eps in (1e-2, 1e-4, 1e-6):
        m = compress(tree512, LAPLACE, eps=eps)
        maxima.append(int(m.row_basis.ranks.max()))
    assert maxima[0] <= maxima[1] <= maxima[2]


def test_matvec_against_dense_oracle_2048():
    ps = generate(DistributionSpec("random-cube", 2048, seed=1))
    t = build_tree(ps, 16)
    m = compress(t, LAPLACE, eps=1e-6)
    a = kernel_block(LAPLACE, ps.positions, ps.positions)
    rng = np.random.default_rng(0)
    x = rng.standard_normal(2048)
    y = matvec(m, x)
    ref = a @ x
    assert np.linalg.norm(y - ref) / np.linalg.norm(ref) <= 1e-5


def test_matvec_zero_vector(h2_512):
    y = matvec(h2_512, np.zeros(512))
    assert np.array_equal(y, np.zeros(512))


def test_matvec_linearity(h2_512):
    rng = np.random.default_rng(5)
    x = rng.standard_normal(512)
    z = rng.standard_normal(512)
    a, b = 0.37, -2.25
    lhs = matvec(h2_512, a * x + b * z)
    rhs = a * matvec(h2_512, x) + b * matvec(h2_512, z)
    assert np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs) < 1e-12


LINEARITY_KERNELS = (
    LAPLACE,
    KernelSpec("laplace2d", regularization=1e-2),
    KernelSpec("gaussian", sigma=0.3),
    KernelSpec("one"),
)
_COEFF = st.floats(-4.0, 4.0).filter(lambda v: abs(v) > 1e-3)


@settings(max_examples=30, deadline=None)
@given(
    kind=st.sampled_from(DISTRIBUTION_KINDS),
    n=st.integers(1, 400),
    seed=st.integers(0, 2**16),
    leaf_capacity=st.integers(1, 32),
    balanced=st.booleans(),
    kernel=st.sampled_from(LINEARITY_KERNELS),
    eps=st.sampled_from([1e-3, 1e-6]),
    a=_COEFF,
    b=_COEFF,
)
def test_matvec_zero_and_linear_on_random_trees(kind, n, seed, leaf_capacity, balanced, kernel, eps, a, b):
    tree = build_tree(generate(DistributionSpec(kind, n, seed)), leaf_capacity)
    if balanced:
        tree = balance_2to1(tree)
    m = compress(tree, kernel, eps=eps)
    assert np.array_equal(matvec(m, np.zeros(n)), np.zeros(n))
    rng = np.random.default_rng(seed)
    x, y = rng.standard_normal(n), rng.standard_normal(n)
    ax, ay = matvec(m, x), matvec(m, y)
    err = np.linalg.norm(matvec(m, a * x + b * y) - (a * ax + b * ay))
    # Relative to the sum of the two terms' norms, the scale of their rounding.
    assert err <= 1e-12 * (abs(a) * np.linalg.norm(ax) + abs(b) * np.linalg.norm(ay))


def test_matvec_dimension_error(h2_512):
    with pytest.raises(ValueError):
        matvec(h2_512, np.zeros(511))


@pytest.fixture(scope="module")
def h2_600():
    return compress(build_tree(generate(DistributionSpec("random-cube", 600, seed=1)), 16), LAPLACE)


@pytest.mark.parametrize("delta", [-1, 1])
def test_reduced_vector_length_rejected(h2_600, delta):
    size = int(h2_600.row_basis.offsets[-1])
    with pytest.raises(ValueError, match="x_hat must be real of shape"):
        coupling(h2_600, np.zeros(size + delta))
    with pytest.raises(ValueError, match="y_hat must be real of shape"):
        downsweep(h2_600, np.zeros(size + delta))


def test_wrong_shape_and_complex_vectors_rejected(h2_600):
    n, size = h2_600.n, int(h2_600.row_basis.offsets[-1])
    for phase in (matvec, upsweep, dense_apply):
        with pytest.raises(ValueError, match="complex128"):
            phase(h2_600, np.ones(n) + 1j)
        with pytest.raises(ValueError, match=r"\(600, 1\)"):
            phase(h2_600, np.ones((n, 1)))
    with pytest.raises(ValueError, match="x_hat must be real"):
        coupling(h2_600, np.zeros(size, dtype=complex))
    with pytest.raises(ValueError, match="y_hat must be real"):
        downsweep(h2_600, np.zeros(size, dtype=complex))
    # A real vector of any numeric dtype is still taken, as float64.
    x = np.arange(n)
    assert np.array_equal(matvec(h2_600, x), matvec(h2_600, x.astype(float)))
    assert np.array_equal(matvec(h2_600, x.tolist()), matvec(h2_600, x.astype(float)))


def test_upsweep_matches_explicit_bases(h2_512):
    t = h2_512.octree
    rng = np.random.default_rng(2)
    x = rng.standard_normal(h2_512.n)
    xhat = upsweep(h2_512, x)
    xs = x[t.order]
    bases = explicit_bases(t, h2_512.row_basis)
    for node in range(t.n_nodes):
        v = bases[node]
        s, c = int(t.starts[node]), int(t.counts[node])
        direct = v.T @ xs[s : s + c]
        assert np.allclose(node_slot(h2_512, xhat, node), direct, atol=1e-10)


def test_upsweep_single_leaf_direct():
    ps = generate(DistributionSpec("random-cube", 12, seed=3))
    t = build_tree(ps, 16)
    assert t.n_nodes == 1
    m = compress(t, LAPLACE, eps=1e-4)
    x = np.arange(12, dtype=float)
    xhat = upsweep(m, x)
    v = explicit_bases(t, m.row_basis)[0]
    assert np.array_equal(node_slot(m, xhat, 0), v.T @ x[t.order])
    assert_sweeps_match_reference(m, np.random.default_rng(3))
    assert all(not v.size or True for v in xhat)
    y = matvec(m, x)
    a = kernel_block(LAPLACE, ps.positions, ps.positions)
    assert np.allclose(y, a @ x, rtol=1e-12)


def test_coupling_accumulation_order_invariance(h2_512):
    rng = np.random.default_rng(4)
    x = rng.standard_normal(h2_512.n)
    xhat = upsweep(h2_512, x)
    yhat = coupling(h2_512, xhat)
    # Apply every low-rank block, both orientations, one by one in a
    # shuffled order, and accumulate again.
    blocks = list(lowrank_blocks(h2_512))
    shuffled = np.zeros_like(yhat)
    for k in rng.permutation(len(blocks)):
        i, j, s = blocks[k]
        node_slot(h2_512, shuffled, i)[:] += s @ node_slot(h2_512, xhat, j)
    for node in range(h2_512.octree.n_nodes):
        a, b = node_slot(h2_512, yhat, node), node_slot(h2_512, shuffled, node)
        if a.size:
            assert np.abs(a - b).max() <= 1e-13 * max(1.0, np.abs(a).max())


def test_phase_decomposition_exact(h2_512):
    rng = np.random.default_rng(6)
    x = rng.standard_normal(h2_512.n)
    full = matvec(h2_512, x)
    parts = dense_apply(h2_512, x) + downsweep(h2_512, coupling(h2_512, upsweep(h2_512, x)))
    assert np.array_equal(full, parts)


def assert_within_rounding(got, store, x, both_ways=False):
    """``got`` within 2 k u (|B| |x|) of the per-block apply, entry by entry.

    u is the unit roundoff and k the longest accumulation into one entry:
    each block touching the slot adds its inner length, plus one.  Both
    sums are then within k u (|B| |x|) of the exact one, in any order.
    """
    ref = block_apply(store, x, len(got), both_ways)
    w = store.widths
    k = np.bincount(store.rows, w[store.cols] + 1, minlength=len(w))
    if both_ways:
        k += np.bincount(store.cols, w[store.rows] + 1, minlength=len(w))
    magnitude = dataclasses.replace(store, data=np.abs(store.data))
    bound = 2 * k.max(initial=0) * 2.0**-53 * block_apply(magnitude, np.abs(x), len(got), both_ways)
    assert (np.abs(got - ref) <= bound).all()


def assert_phases_match_reference(m, x):
    """``coupling`` and ``dense_apply`` within rounding of the per-block apply.

    The block-row products sum in another order than one block at a
    time, so the two agree to rounding, not bitwise.
    """
    xhat = upsweep(m, x)
    assert_within_rounding(coupling(m, xhat), m.blocks.coupling, xhat, both_ways=True)
    xs = np.asarray(x, dtype=np.float64)[m.octree.order]
    assert_within_rounding(dense_apply(m, x)[m.octree.order], m.blocks.dense, xs)


ORACLE_KERNELS = (LAPLACE, KernelSpec("one"), KernelSpec("gaussian", sigma=0.3))


@settings(max_examples=25, deadline=None)
@given(
    kind=st.sampled_from(DISTRIBUTION_KINDS),
    n=st.integers(1, 600),
    seed=st.integers(0, 2**16),
    leaf_capacity=st.integers(1, 32),
    balanced=st.booleans(),
    kernel=st.sampled_from(ORACLE_KERNELS),
)
def test_apply_plan_matches_per_call_reference(tmp_path_factory, kind, n, seed, leaf_capacity, balanced, kernel):
    tree = build_tree(generate(DistributionSpec(kind, n, seed)), leaf_capacity)
    if balanced:
        tree = balance_2to1(tree)
    m = compress(tree, kernel, eps=1e-6)
    path = tmp_path_factory.mktemp("plan") / "m.h2"
    save_h2(m, path)
    before = path.read_bytes()
    loaded = load_h2(path)
    rng = np.random.default_rng(seed)
    for a in (m, loaded):
        for _ in range(2):  # the call that builds the plan, then one that reuses it
            assert_phases_match_reference(a, rng.standard_normal(n))
    x = rng.standard_normal(n)
    assert np.array_equal(matvec(loaded, x), matvec(m, x))
    save_h2(m, path)
    assert path.read_bytes() == before
    save_h2(loaded, path)
    assert path.read_bytes() == before


def test_apply_plan_empty_coupling_store():
    # N at most the leaf capacity: one leaf, no low-rank block.
    m = compress(build_tree(generate(DistributionSpec("plummer", 9, seed=2)), 16), LAPLACE)
    assert m.blocks.coupling.data.size == 0
    for _ in range(2):
        assert_phases_match_reference(m, np.arange(9.0))
        assert_sweeps_match_reference(m, np.random.default_rng(2))


def assert_sweeps_match_reference(m, rng, first=upsweep):
    """``upsweep`` and ``downsweep``, ``first`` called first, bitwise those
    of the per-call reference sweeps."""
    sweeps = [(upsweep, reference_upsweep, m.n), (downsweep, reference_downsweep, int(m.row_basis.offsets[-1]))]
    for sweep, reference, size in sweeps if first is upsweep else sweeps[::-1]:
        v = rng.standard_normal(size)
        assert np.array_equal(sweep(m, v), reference(m, v))


@settings(max_examples=25, deadline=None)
@given(
    kind=st.sampled_from(DISTRIBUTION_KINDS),
    n=st.integers(1, 600),
    seed=st.integers(0, 2**16),
    leaf_capacity=st.integers(1, 32),
    balanced=st.booleans(),
    kernel=st.sampled_from(ORACLE_KERNELS),
)
def test_sweep_plan_matches_per_call_reference(tmp_path_factory, kind, n, seed, leaf_capacity, balanced, kernel):
    tree = build_tree(generate(DistributionSpec(kind, n, seed)), leaf_capacity)
    if balanced:
        tree = balance_2to1(tree)
    m = compress(tree, kernel, eps=1e-6)
    path = tmp_path_factory.mktemp("sweep") / "m.h2"
    save_h2(m, path)
    rng = np.random.default_rng(seed)
    # Each sweep builds the plan on one of the two matrices.
    for a, first in ((m, upsweep), (load_h2(path), downsweep)):
        for _ in range(2):  # the call that builds the plan, then calls that reuse it
            assert_sweeps_match_reference(a, rng, first)


def test_prepare_builds_every_plan(tree512, h2_512):
    m = compress(tree512, LAPLACE, eps=1e-6)

    def built():
        return "_sweep_plan" in vars(m), "_plan" in vars(m.blocks.coupling), "_plan" in vars(m.blocks.dense)

    assert built() == (False, False, False)
    m.prepare()
    assert built() == (True, True, True)
    x = np.random.default_rng(3).standard_normal(m.n)
    assert np.array_equal(matvec(m, x), matvec(h2_512, x))


def test_dense_and_downsweep_match_per_block_loops(h2_512):
    # Loop references: each dense block evaluated on its own, and each
    # node's explicit basis applied to its own accumulator.
    m, t = h2_512, h2_512.octree
    rng = np.random.default_rng(9)
    x = rng.standard_normal(m.n)
    xs, pos = x[t.order], t.particles.positions
    ref = np.zeros(m.n)
    for i, j in zip(m.blocks.dense_row, m.blocks.dense_col):
        si, ci = int(t.starts[i]), int(t.counts[i])
        sj, cj = int(t.starts[j]), int(t.counts[j])
        blk = kernel_block(LAPLACE, pos[si : si + ci], pos[sj : sj + cj])
        ref[si : si + ci] += blk @ xs[sj : sj + cj]
    got = dense_apply(m, x)[t.order]
    assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)
    yhat = rng.standard_normal(int(m.row_basis.offsets[-1]))
    ref = np.zeros(m.n)
    bases = explicit_bases(t, m.row_basis)
    for node in range(t.n_nodes):
        s, c = int(t.starts[node]), int(t.counts[node])
        ref[s : s + c] += bases[node] @ node_slot(m, yhat, node)
    got = downsweep(m, yhat)[t.order]
    assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)


def test_nesting_identity_per_node(tree512):
    # The transfer-assembled interior basis reproduces each far block to
    # the compression tolerance.
    from h2fmm.h2 import _kernel_rows
    from h2fmm.tree import _ranges_concat

    eps = 1e-4
    m = compress(tree512, LAPLACE, eps=eps)
    t = tree512
    partners = far_partners(t, m.blocks)
    bases = explicit_bases(t, m.row_basis)
    pos = t.particles.positions
    for node in range(t.n_nodes):
        if t.is_leaf[node] or not partners[node]:
            continue
        u = bases[node]
        assert np.abs(u.T @ u - np.eye(u.shape[1])).max() < 1e-10
        s0, c0 = int(t.starts[node]), int(t.counts[node])
        col_idx = _ranges_concat(t.starts[partners[node]], t.counts[partners[node]])
        r = _kernel_rows(LAPLACE, pos[s0 : s0 + c0], pos[col_idx])
        resid = r - u @ (u.T @ r)
        bounds = np.concatenate([[0], np.cumsum(t.counts[partners[node]])])
        for b in range(len(partners[node])):
            seg = r[:, bounds[b] : bounds[b + 1]]
            err = np.linalg.norm(resid[:, bounds[b] : bounds[b + 1]])
            assert err <= 3 * eps * np.linalg.norm(seg)


def test_leaf_bases_orthonormal(h2_512):
    t = h2_512.octree
    bases = explicit_bases(t, h2_512.row_basis)
    for leaf in np.flatnonzero(t.is_leaf):
        u = bases[leaf]
        if u.size:
            assert np.abs(u.T @ u - np.eye(u.shape[1])).max() < 1e-12


def test_storage_single_dense_leaf():
    ps = generate(DistributionSpec("random-cube", 10, seed=0))
    t = build_tree(ps, 16)
    m = compress(t, LAPLACE, eps=1e-6)
    st = storage_report(m)
    assert st["dense"] == 10 * 10 * 8
    assert st["coupling"] == 0
    assert st["total"] == st["dense"]


def test_storage_ones_kernel_one_real_per_block(tree512):
    m = compress(tree512, KernelSpec("one"), eps=1e-6)
    st = storage_report(m)
    # S_ji = S_ij^T, so each symmetric pair of blocks is stored once.
    assert st["coupling"] == 8 * m.blocks.n_lowrank // 2


def test_storage_report_counts_held_bytes(h2_512):
    st = storage_report(h2_512)
    held = h2_512.row_basis.mats.data.nbytes
    held += h2_512.blocks.coupling.data.nbytes + h2_512.blocks.dense.data.nbytes
    assert st["total"] == held
    assert st["leaf_bases"] + st["transfers"] == h2_512.row_basis.mats.data.nbytes
    # Half of the reals of all low-rank blocks, each k_i x k_j.
    ranks = h2_512.row_basis.ranks.astype(np.int64)
    every = ranks[h2_512.blocks.lr_row] * ranks[h2_512.blocks.lr_col]
    assert 2 * st["coupling"] == 8 * int(every.sum())


def test_flop_report_matches_structure(h2_512):
    fl = flop_report(h2_512)
    counts = h2_512.octree.counts
    pairs = zip(h2_512.blocks.dense_row, h2_512.blocks.dense_col)
    dense = sum(int(counts[i] * counts[j]) for i, j in pairs)
    assert fl["dense"] == dense
    ranks = h2_512.row_basis.ranks.astype(np.int64)
    lowrank = ranks[h2_512.blocks.lr_row] * ranks[h2_512.blocks.lr_col]
    assert fl["coupling"] == int(lowrank.sum())
    assert fl["total"] == sum(v for k, v in fl.items() if k != "total")


def test_hat_vector_level_major_order(h2_512):
    rng = np.random.default_rng(8)
    x = rng.standard_normal(h2_512.n)
    flat = upsweep(h2_512, x)
    ranks = h2_512.row_basis.ranks
    assert flat.shape == (sum(int(ranks[n]) for n in range(h2_512.octree.n_nodes)),)
    # Node slots follow node id order, which is (level, Morton key) order.
    assert np.array_equal(h2_512.row_basis.offsets, np.concatenate([[0], np.cumsum(ranks)]))


def test_compress_validation(tree512):
    with pytest.raises(ValueError):
        compress(tree512, LAPLACE, eps=1.5)


@pytest.mark.parametrize(
    "kwargs",
    [dict(eps=0.0), dict(eps=-1.0), dict(eps=1.0), dict(eps=float("-inf")),
     dict(eps=float("inf")), dict(eps=float("nan")), dict(eps=2), dict(eps="1e-4"),
     dict(eps="x"), dict(eps=True), dict(eps=None)],
)
def test_compress_out_of_range_parameters_rejected(tree512, kwargs):
    with pytest.raises(ConfigurationError):
        compress(tree512, LAPLACE, **kwargs)


CONTRACT_KERNELS = {
    "laplace3d-1e-2": LAPLACE,
    "laplace3d-1e-1": KernelSpec("laplace3d", regularization=1e-1),
    "laplace2d-1e-2": KernelSpec("laplace2d", regularization=1e-2),
    "gaussian-0.1": KernelSpec("gaussian", sigma=0.1),
    "gaussian-1": KernelSpec("gaussian", sigma=1.0),
    "one": KernelSpec("one"),
}


@pytest.fixture(scope="module")
def tree2048():
    return build_tree(generate(DistributionSpec("random-cube", 2048, seed=1)), 16)


def assert_per_block_contract(t, kernel, eps):
    """Against the exact kernel, whatever surrogate of the far field the
    basis was built from: every block of a node's whole far field lies
    within 3 eps of its basis, and every low-rank block is rebuilt within
    10 eps."""
    m = compress(t, kernel, eps=eps)
    a = kernel_block(kernel, t.particles.positions, t.particles.positions)
    nest = 0.0
    bases = explicit_bases(t, m.row_basis)
    for node, partners in enumerate(far_partners(t, m.blocks)):
        if not partners:
            continue
        u = bases[node]
        s0, c0 = int(t.starts[node]), int(t.counts[node])
        r = a[s0 : s0 + c0][:, _ranges_concat(t.starts[partners], t.counts[partners])]
        resid = r - u @ (u.T @ r)
        bounds = np.concatenate([[0], np.cumsum(t.counts[partners])])
        for lo, hi in zip(bounds, bounds[1:]):
            nest = max(nest, np.linalg.norm(resid[:, lo:hi]) / np.linalg.norm(r[:, lo:hi]))
    assert nest <= 3 * eps
    worst = 0.0
    for i, j, s in lowrank_blocks(m):
        ui = bases[i]
        uj = bases[j]
        blk = a[t.starts[i] : t.starts[i] + t.counts[i], t.starts[j] : t.starts[j] + t.counts[j]]
        worst = max(worst, np.linalg.norm(ui @ s @ uj.T - blk) / np.linalg.norm(blk))
    assert worst <= 10 * eps


@pytest.mark.parametrize("eps", [1e-4, 1e-6])
@pytest.mark.parametrize("name", list(CONTRACT_KERNELS))
def test_per_block_contract_every_kernel(tree2048, name, eps):
    assert_per_block_contract(tree2048, CONTRACT_KERNELS[name], eps)


def test_per_block_contract_tight_eps(tree2048):
    # Ten digits must survive the surrogate, the skeleton pick and the
    # pinv of G; with proxies at rho = 5 a block was rebuilt at 17 eps.
    assert_per_block_contract(tree2048, CONTRACT_KERNELS["laplace3d-1e-1"], 1e-10)


def test_per_block_contract_clustered():
    # Deep plummer cells are small against delta = 0.1, where the
    # regularized kernel is far from harmonic and proxies fit worst.
    t = balance_2to1(build_tree(generate(DistributionSpec("plummer", 4096, seed=1)), 16))
    assert_per_block_contract(t, KernelSpec("laplace3d", regularization=1e-1), 1e-6)


def compress_evaluations_per_particle(monkeypatch, dist, sizes):
    """Kernel evaluations per particle of compress (eps 1e-4) on each
    balanced cloud.  Every evaluation, the coupling fill included, goes
    through h2.kernel_block; count its output entries."""
    evals = [0]

    def counting(spec, a, b):
        out = kernel_block(spec, a, b)
        evals[0] += out.size
        return out

    monkeypatch.setattr(h2_module, "kernel_block", counting)
    per_particle = {}
    for n in sizes:
        t = balance_2to1(build_tree(generate(DistributionSpec(dist, n, seed=1)), 16))
        evals[0] = 0
        compress(t, LAPLACE, eps=1e-4)
        per_particle[n] = evals[0] / n
    return per_particle


def test_compress_kernel_evaluation_budget(monkeypatch):
    per_particle = compress_evaluations_per_particle(monkeypatch, "sphere-surface", (2048, 8192))
    assert per_particle[8192] < 5000
    assert per_particle[8192] < 3 * per_particle[2048]


def test_compress_kernel_evaluations_grow_slowly(monkeypatch):
    # Proxies stand for every same-level far box, so a node's surrogate
    # is bounded; with raw far boxes out to rho = 5 the ratio was 2.56.
    per_particle = compress_evaluations_per_particle(monkeypatch, "plummer", (2048, 8192))
    assert per_particle[8192] < 1.6 * per_particle[2048]


def test_compress_bitwise_deterministic(tree512):
    a, b = compress(tree512, LAPLACE, eps=1e-4), compress(tree512, LAPLACE, eps=1e-4)
    assert np.array_equal(a.row_basis.mats.data, b.row_basis.mats.data)
    assert np.array_equal(a.blocks.coupling.data, b.blocks.coupling.data)
    assert np.array_equal(a.blocks.dense.data, b.blocks.dense.data)


@pytest.mark.parametrize("eps", [1e-2, 1e-4, 1e-6])
def test_leaf_stack_matches_single_items(eps):
    # The leaves of one level and particle count, truncated as one stack over
    # the whole proxy layout (points outside the root box as zero columns),
    # and one at a time over their in-box points alone, empty groups dropped.
    # The stack holds the corner leaf: every shell of it is cut by the box,
    # and its outer shell lies wholly outside (five zero groups).
    t = build_tree(generate(DistributionSpec("random-cube", 4096, seed=2)), 64)
    anchors, sizes = node_boxes(t)
    corner = int(np.flatnonzero(t.is_leaf & (anchors == 0).all(axis=1))[0])
    nodes = t.level_nodes(int(t.levels[corner]))
    nodes = nodes[t.is_leaf[nodes] & (t.counts[nodes] == t.counts[corner])]
    rows = t.particles.positions[t.starts[nodes][:, None] + np.arange(t.counts[corner])]
    pts, inside = h2_module._proxy_layout(anchors[nodes], sizes[nodes])
    shells = inside[nodes == corner][0].reshape(len(h2_module.PROXY_SHELLS), -1).sum(axis=1)
    assert len(nodes) > 1 and (shells < 128).all() and shells[-1] == 0 < shells[0]
    bounds = h2_module._PROXY_BOUNDS
    stack = kernel_block(LAPLACE, rows, pts) * inside[:, None, :]
    h2_module._scale_groups(stack, bounds)
    ranks, u, _, tails = h2_module._truncate(stack, eps, bounds)
    assert (ranks < t.counts[corner]).any()
    for b in range(len(nodes)):
        groups = np.add.reduceat(inside[b], bounds[:-1])
        own = np.concatenate([[0], np.cumsum(groups[groups > 0])])
        one = kernel_block(LAPLACE, rows[b], pts[b][inside[b]])[None]
        h2_module._scale_groups(one, own)
        rank, v, _, tail = h2_module._truncate(one, eps, own)
        r = ranks[b]
        assert rank.tolist() == [r]
        assert abs(tail[0] - tails[b]) <= 1e-9  # measured: 6e-11 at eps 1e-6
        signs = np.sign((u[b, :, :r] * v[0, :, :r]).sum(axis=0))
        assert np.abs(u[b, :, :r] * signs - v[0, :, :r]).max() <= 1e-8  # measured: 2.3e-11


@pytest.mark.parametrize("kernel", [LAPLACE, KernelSpec("gaussian", sigma=0.3)])
def test_leaf_whose_rows_are_all_skeletons_has_g_u_transposed(tree512, kernel):
    # pinv of a matrix with orthonormal columns is its transpose, so such a
    # leaf's G is U^T exactly: stacked (laplace3d) or alone (gaussian, rho = inf).
    ranks, _, mats, skel, gmat = h2_module._build_basis(tree512, kernel, 1e-6, build_block_tree(tree512))
    full = [n for n in np.flatnonzero(tree512.is_leaf & (ranks > 0)).tolist() if len(skel[n]) == tree512.counts[n]]
    assert full
    for n in full:
        assert np.array_equal(skel[n], tree512.particles.positions[tree512.starts[n] : tree512.starts[n] + len(skel[n])])
        assert np.array_equal(gmat[n], mats[n].T)
        assert np.allclose(gmat[n], np.linalg.pinv(mats[n]), rtol=0, atol=1e-12)


def test_underflowing_far_groups_need_no_rank():
    # At sigma 0.01 most far blocks of a gaussian are exactly 0.  A group with
    # no energy needs nothing, so the leaves keep far fewer than all their
    # rows, no node is flagged, and every low-rank block is rebuilt within
    # 10 eps (the zero ones as exact zeros).
    t = build_tree(generate(DistributionSpec("random-cube", 1024, seed=1)), 16)
    kernel, eps = KernelSpec("gaussian", sigma=0.01), 1e-6
    m = compress(t, kernel, eps=eps)
    leaves = np.flatnonzero(t.is_leaf & (m.row_basis.ranks > 0))
    assert m.row_basis.ranks[leaves].sum() < t.counts[leaves].sum() / 2
    assert m.flagged_nodes() == []
    a = kernel_block(kernel, t.particles.positions, t.particles.positions)
    bases = explicit_bases(t, m.row_basis)
    zero = 0
    for i, j, s in lowrank_blocks(m):
        blk = a[t.starts[i] : t.starts[i] + t.counts[i], t.starts[j] : t.starts[j] + t.counts[j]]
        assert np.linalg.norm(bases[i] @ s @ bases[j].T - blk) <= 10 * eps * np.linalg.norm(blk)
        zero += not blk.any()
    assert zero > 0


@pytest.mark.parametrize("kernel", [LAPLACE, KernelSpec("gaussian", sigma=0.3)])
def test_kernel_rows_chunked_columns(monkeypatch, kernel):
    # A small cap splits the columns into several blocks, each within the
    # cap; the stitched rows are the one-block evaluation's, bit for bit.
    rng = np.random.default_rng(5)
    rows, cols = rng.random((5, 3)), rng.random((100, 3))
    shapes = []

    def recording(k, a, b):
        shapes.append((len(a), len(b)))
        return kernel_block(k, a, b)

    monkeypatch.setattr(h2_module, "_CHUNK_ELEMENTS", 64)
    monkeypatch.setattr(h2_module, "kernel_block", recording)
    got = h2_module._kernel_rows(kernel, rows, cols)
    assert len(shapes) == 9 and all(r * c <= 64 for r, c in shapes)
    assert sum(c for _, c in shapes) == 100
    assert np.array_equal(got, kernel_block(kernel, rows, cols))
