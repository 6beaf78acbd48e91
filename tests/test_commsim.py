import hashlib
import math
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from h2fmm import commsim
from h2fmm.commsim import (
    CSV_HEADER,
    PHASES,
    fit_scaling,
    partition_sfc,
    resolve_counting,
    run_comm_experiment,
    sim_direct_let,
    sim_global_m2l,
    sim_global_m2m,
    sim_local_m2l,
    sim_local_p2p,
    simulate_comm,
    split_global_local,
    uniform_comm_report,
    uniform_local_depth,
    uniform_phase_level_counts,
    write_reports_csv,
)
from h2fmm.errors import ConfigurationError, PartitionError
from h2fmm.geometry import DISTRIBUTION_KINDS, DistributionSpec, ParticleSet, generate
from h2fmm.morton import decode_cells
from h2fmm.tree import (
    CellLocator,
    balance_2to1,
    build_tree,
    leaf_adjacency_pairs,
    sorted_unique,
)
from test_tree import brute_adjacent_pairs, neighbour_walk


def _level_pairs(loc, level, radius, sources=None):
    """(src, dst) node-id pairs at ``level`` within Chebyshev ``radius`` <= 2.

    ``sources``, a boolean mask over all nodes, limits ``src`` to the
    masked nodes; they alone are looked up, by the tests' radius-2 walk
    over the colleague table.  The per-source enumeration that
    ``tree.sibling_halos`` replaced, kept as its oracle.
    """
    tree = loc.tree
    lo, hi = int(tree.level_ptr[level]), int(tree.level_ptr[level + 1])
    ids = lo + (np.arange(hi - lo) if sources is None else np.flatnonzero(sources[lo:hi]))
    if not len(ids):
        return np.empty(0, np.int64), np.empty(0, np.int64)
    srcs, dsts = [], []
    for dst in neighbour_walk(loc, ids, radius):
        found = loc.levels[dst] == level
        srcs.append(ids[found])
        dsts.append(dst[found])
    return np.concatenate(srcs), np.concatenate(dsts).astype(np.int64)


def lattice_tree(level, per_cell, leaf_capacity=16, seed=0):
    side = 1 << level
    cells = np.stack(np.meshgrid(*[np.arange(side)] * 3, indexing="ij"), axis=-1)
    cells = cells.reshape(-1, 3).astype(np.float64)
    rng = np.random.default_rng(seed)
    pts = np.concatenate([(cells + rng.random((len(cells), 3))) / side for _ in range(per_cell)])
    return build_tree(ParticleSet(pts), leaf_capacity)


# -- partition ---------------------------------------------------------------


def test_partition_single_process():
    t = build_tree(generate(DistributionSpec("random-cube", 500, seed=0)), 16)
    p = partition_sfc(t, 1)
    assert (p.leaf_process == 0).all()
    assert p.proc_particle_counts.tolist() == [500]


def test_partition_uniform_aligns_with_subtrees():
    t = lattice_tree(4, 16)  # full tree, 8^4 leaves of 16 particles
    p = partition_sfc(t, 8)
    # Each process owns exactly one level-1 subtree's leaves.
    assert (p.proc_particle_counts == t.n_particles // 8).all()
    owners = p.leaf_process
    prefixes = (t.keys[t.leaf_ids] >> np.uint64(9)).astype(np.int64)  # level-1 key
    for proc in range(8):
        assert len(np.unique(prefixes[owners == proc])) == 1


def test_partition_plummer_balance_ratio():
    ps = generate(DistributionSpec("plummer", 65536, seed=0))
    t = build_tree(ps, 16)
    p = partition_sfc(t, 64)
    counts = p.proc_particle_counts
    assert counts.max() / counts.min() <= 2.0
    assert counts.sum() == 65536


def test_partition_infeasible():
    t = build_tree(generate(DistributionSpec("random-cube", 20, seed=0)), 16)
    with pytest.raises(PartitionError):
        partition_sfc(t, t.n_leaves + 1)


def test_partition_needs_a_process():
    t = build_tree(generate(DistributionSpec("random-cube", 20, seed=0)), 16)
    with pytest.raises(ConfigurationError):
        partition_sfc(t, 0)


def _loop_cuts(tree, P):
    """The greedy cut loop that ``partition_sfc`` replaced by a running max."""
    cum = np.cumsum(tree.counts[tree.leaf_ids].astype(np.int64))
    raw = np.searchsorted(cum, np.arange(1, P) * (tree.n_particles / P), side="left") + 1
    cuts, prev = [], 0
    for j in range(P - 1):
        c = max(int(raw[j]), prev + 1)  # at least one leaf per process
        c = min(c, tree.n_leaves - (P - 1 - j))  # leave room for the rest
        cuts.append(c)
        prev = c
    return cuts


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(DISTRIBUTION_KINDS),
    n=st.integers(1, 3000),
    seed=st.integers(0, 2**16),
    leaf_capacity=st.integers(1, 64),
    data=st.data(),
)
def test_partition_cuts_match_greedy_loop(kind, n, seed, leaf_capacity, data):
    tree = build_tree(generate(DistributionSpec(kind, n, seed)), leaf_capacity)
    P = data.draw(st.integers(1, tree.n_leaves), label="P")
    part = partition_sfc(tree, P)
    cuts = np.flatnonzero(np.diff(part.leaf_process)) + 1
    assert cuts.tolist() == _loop_cuts(tree, P)


# -- global/local split ------------------------------------------------------


def _local_roots(sp, proc):
    """The upper nodes that ``proc`` alone owns."""
    return np.flatnonzero(sp.upper & (sp.owner_lo == proc) & (sp.owner_hi == proc))


def test_split_p1_root_is_local_root():
    t = build_tree(generate(DistributionSpec("random-cube", 300, seed=1)), 16)
    sp = split_global_local(t, partition_sfc(t, 1))
    assert (sp.owner_lo == sp.owner_hi).all()  # no global node
    assert _local_roots(sp, 0).tolist() == [0]
    assert np.flatnonzero(sp.upper).tolist() == [0]  # the global phases have no source below the root


def test_split_uniform_p64():
    t = lattice_tree(3, 16)
    sp = split_global_local(t, partition_sfc(t, 64))
    roots = [_local_roots(sp, p) for p in range(64)]
    assert all(len(r) == 1 for r in roots)
    assert {int(t.levels[r[0]]) for r in roots} == {2}
    # Global nodes live at levels 0 and 1 only.
    assert set(t.levels[sp.owner_lo != sp.owner_hi].tolist()) == {0, 1}


def test_split_plummer_depth_bound():
    ps = generate(DistributionSpec("plummer", 65536, seed=0))
    t = balance_2to1(build_tree(ps, 16))
    sp = split_global_local(t, partition_sfc(t, 64))
    # Every process owns a private subtree at most 2 log8 P + 2 levels deep.
    for p in range(64):
        assert t.levels[_local_roots(sp, p)].min() <= 2 * math.log(64, 8) + 2


# -- uniform engine ----------------------------------------------------------


def test_table_levels_match_halo_formulas():
    levels = uniform_phase_level_counts(64, 8**4, leaf_capacity=1)
    assert levels["global-m2m"] == [(1, 7, 1, 7), (2, 7, 1, 7)]
    assert levels["global-m2l"] == [(1, 26, 8, 208), (2, 26, 8, 208)]
    for i, partners, _, recv in levels["local-m2l"]:
        assert recv == (2**i + 4) ** 3 - 8**i
    (ell, _, _, recv_p2p) = levels["local-p2p"][0]
    assert ell == 4 and recv_p2p == (2**4 + 2) ** 3 - 8**4


def test_local_depth_capacity_adjustment():
    assert uniform_local_depth(8**4, 1) == 4
    assert uniform_local_depth(8**4, 16) == 3
    assert uniform_local_depth(16, 16) == 0
    assert uniform_local_depth(1, 1) == 0


def test_global_m2m_totals_p8_and_p512():
    rep8 = uniform_comm_report(8, 64, mode="periodic")
    m2m = rep8.phase("global-m2m")
    assert (m2m.partners == 7).all() and (m2m.cells_recv == 7).all()
    levels = uniform_phase_level_counts(512, 64)
    assert sum(p for _, p, _, _ in levels["global-m2m"]) == 21
    assert sum(c for _, _, c, _ in levels["global-m2m"]) == 3


def test_p1_all_zero():
    rep = uniform_comm_report(1, 8**4, mode="periodic")
    for name in PHASES:
        ph = rep.phase(name)
        assert ph.total_recv == 0 and ph.total_sent == 0 and ph.partners.sum() == 0


def test_truncated_corner_process_m2l():
    rep = uniform_comm_report(8, 8**3, mode="truncated")
    m2l = rep.phase("global-m2l")
    assert (m2l.partners == 7).all()
    assert (m2l.cells_recv == 56).all()


def test_local_depth_zero_means_no_local_volume():
    rep = uniform_comm_report(64, 16, mode="periodic", leaf_capacity=16)
    assert rep.phase("local-m2l").total_recv == 0
    assert rep.phase("local-p2p").total_recv == 0


def test_truncated_never_exceeds_periodic():
    for phase in PHASES:
        per = uniform_comm_report(64, 8**4, mode="periodic").phase(phase)
        tru = uniform_comm_report(64, 8**4, mode="truncated").phase(phase)
        assert (tru.cells_recv <= per.cells_recv).all()
        assert (tru.partners <= per.partners).all()


def test_uniform_conservation():
    for mode in ("periodic", "truncated"):
        rep = uniform_comm_report(64, 8**4, mode=mode)
        rep.check_conservation()


def test_conservation_check_catches_unequal_phase():
    rep = uniform_comm_report(8, 64, mode="periodic")
    ph = rep.phase("global-m2m")
    ph.cells_recv = ph.cells_recv.copy()
    ph.cells_recv[0] += 1
    message = f"phase global-m2m: sent {ph.total_sent} != recv {ph.total_sent + 1}"
    with pytest.raises(AssertionError, match=message):
        rep.check_conservation()


def test_power_of_8_required():
    with pytest.raises(ConfigurationError):
        uniform_comm_report(10, 64)


def test_uniform_unknown_mode_rejected():
    with pytest.raises(ConfigurationError):
        uniform_comm_report(8, 64, mode="x")


_UNIFORM_SWEEP = [
    (P, n_per_p, cap)
    for P in (1, 8, 64, 512, 4096, 32768)
    for n_per_p in (1, 7, 8, 512, 8**7)
    for cap in (1, 16)
]

# Recorded before the uniform engine was rewritten as clipped windows; every
# report of the sweep (metadata, per-process arrays with their dtypes, and
# per_level) must stay byte-identical.
PINNED_UNIFORM_DIGESTS = {
    ("hier", "periodic"): "ab0b2ee9c1a88d218e26b2739a796cac831561809ea47a93a3f4e2bbf96752ca",
    ("hier", "truncated"): "6244c6d36c0cb99e86566b1f71fd6cfb7ff6cc38d3fda41b46f9572909493c2d",
    ("direct", "truncated"): "f134b495d76c2b8969dde6a2c1a323adeef040efde8e871af4fa75e771340ade",
}


@pytest.mark.parametrize("model, mode", sorted(PINNED_UNIFORM_DIGESTS))
def test_uniform_counts_pinned(model, mode):
    h = hashlib.sha256()
    for P, n_per_p, cap in _UNIFORM_SWEEP:
        rep = uniform_comm_report(P, n_per_p, mode=mode, leaf_capacity=cap, model=model)
        h.update(f"{rep.distribution},{rep.n},{rep.P},{rep.n_per_p},{rep.mode},{rep.model}\n".encode())
        for name, ph in rep.phases.items():
            for a in (ph.partners, ph.cells_sent, ph.cells_recv):
                h.update(a.dtype.str.encode() + a.tobytes())
            h.update(f"{name}:{ph.per_level!r}\n".encode())
    assert h.hexdigest() == PINNED_UNIFORM_DIGESTS[(model, mode)]


def test_uniform_direct_periodic_closed_form():
    # Every process is interior: a 5^3 window per global level, the
    # two-wide halo per local level and the one-wide leaf halo.
    for P, n_per_p, cap in _UNIFORM_SWEEP:
        rep = uniform_comm_report(P, n_per_p, mode="periodic", leaf_capacity=cap, model="direct")
        ph = rep.phase("direct-let")
        g, ell = round(math.log(P, 8)), uniform_local_depth(n_per_p, cap)
        cells = g * (5**3 - 1) + sum((2**i + 4) ** 3 - 8**i for i in range(1, ell + 1))
        cells += (2**ell + 2) ** 3 - 8**ell if ell else 0
        want = np.full(P, cells if P > 1 else 0, dtype=np.int64)
        assert np.array_equal(ph.cells_recv, want) and np.array_equal(ph.cells_sent, want)
        assert np.array_equal(ph.partners, np.full(P, P - 1, dtype=np.int64))
        assert {a.dtype for a in (ph.partners, ph.cells_sent, ph.cells_recv)} == {np.dtype(np.int64)}
        assert ph.per_level == []
    ph = uniform_comm_report(8, 512, mode="periodic", model="direct").phase("direct-let")
    assert (ph.cells_recv == 2484).all()


# -- general engine ----------------------------------------------------------


@pytest.fixture(scope="module")
def plummer_run():
    ps = generate(DistributionSpec("plummer", 8192, seed=1))
    tree = balance_2to1(build_tree(ps, 16))
    part = partition_sfc(tree, 8)
    return tree, part, split_global_local(tree, part)


def test_general_uniform_matches_sibling_counts():
    t = lattice_tree(2, 16)  # full level-2 tree
    part = partition_sfc(t, 8)
    sp = split_global_local(t, part)
    m2m = sim_global_m2m(sp)
    assert (m2m.partners == 7).all()
    assert (m2m.cells_recv == 7).all()
    m2m_direct = sim_direct_let(sp)
    assert (m2m_direct.partners == 7).all()  # at P=8 everyone needs everyone


def test_general_conservation_and_bounds(plummer_run):
    tree, part, sp = plummer_run
    for sim in (sim_global_m2m, sim_global_m2l):
        ph = sim(sp)
        assert ph.total_sent == ph.total_recv
    for sim in (sim_local_m2l, sim_local_p2p):
        ph = sim(sp)
        assert ph.total_sent == ph.total_recv
        # Partner totals sum over levels; per level they cannot exceed P-1.
        assert all(pmax <= part.P - 1 for _, pmax, _ in ph.per_level)


def test_local_p2p_counts_match_leaf_adjacency(plummer_run):
    tree, part, sp = plummer_run
    ph = sim_local_p2p(sp)
    q, m = leaf_adjacency_pairs(CellLocator(tree))
    own_q = part.leaf_process[q]
    own_m = part.leaf_process[m]
    cross = own_q != own_m
    # Distinct (receiver process, remote leaf) pairs.
    packed = np.unique(own_q[cross].astype(np.int64) * tree.n_leaves + m[cross])
    assert ph.total_recv == len(packed)


@pytest.mark.parametrize("model", ["hier", "direct"])
def test_simulate_comm_builds_one_locator(plummer_run, monkeypatch, model):
    tree, part, _ = plummer_run
    built = []
    init = CellLocator.__init__

    def counting_init(self, t):
        built.append(t)
        init(self, t)

    monkeypatch.setattr(CellLocator, "__init__", counting_init)
    simulate_comm(tree, part, "plummer", model=model)
    assert len(built) == 1 and built[0] is tree


def test_simulate_comm_report(plummer_run):
    tree, part, _ = plummer_run
    rep = simulate_comm(tree, part, "plummer", model="hier")
    rep.check_conservation()
    assert set(rep.phases) == set(PHASES)
    assert rep.P == 8 and rep.n == 8192


@settings(max_examples=25, deadline=None)
@given(
    kind=st.sampled_from(DISTRIBUTION_KINDS),
    n=st.integers(1, 4000),
    seed=st.integers(0, 2**16),
    leaf_capacity=st.integers(1, 64),
    balanced=st.booleans(),
    data=st.data(),
)
def test_split_and_conservation_on_random_partitions(kind, n, seed, leaf_capacity, balanced, data):
    tree = build_tree(generate(DistributionSpec(kind, n, seed)), leaf_capacity)
    if balanced:
        tree = balance_2to1(tree)
    part = partition_sfc(tree, data.draw(st.integers(1, tree.n_leaves), label="P"))
    sp = split_global_local(tree, part)
    # A node's owners are the processes of its leaves: walk each leaf up to the root.
    lo, hi = np.full(tree.n_nodes, part.P), np.full(tree.n_nodes, -1)
    node, proc = tree.leaf_ids.astype(np.int64), part.leaf_process
    while len(node):
        np.minimum.at(lo, node, proc)
        np.maximum.at(hi, node, proc)
        up = tree.parents[node] >= 0
        node, proc = tree.parents[node[up]].astype(np.int64), proc[up]
    assert np.array_equal(sp.owner_lo, lo) and np.array_equal(sp.owner_hi, hi)
    # Upper: the root, a multi-owner node, or a child of one.
    multi = lo != hi
    parents = tree.parents.tolist()
    want = [parents[n] < 0 or multi[n] or multi[parents[n]] for n in range(tree.n_nodes)]
    assert sp.upper.tolist() == want
    # No upper node lies below the deepest multi-owner level + 1 (the root's
    # level 0 without one), so sweeping every level adds only empty levels.
    assert tree.levels[sp.upper].max() <= (tree.levels[multi].max() + 1 if multi.any() else 0)
    # Each leaf's nearest single-owner upper ancestor (its local root) belongs
    # to the leaf's process, and every process's local roots are exactly the
    # roots of its own leaves.
    roots = sp.upper & ~multi
    anc = tree.leaf_ids.astype(np.int64)
    for _ in range(tree.depth):
        anc = np.where(roots[anc], anc, np.maximum(tree.parents[anc], 0))
    assert roots[anc].all()
    assert np.array_equal(sp.owner_lo[anc], part.leaf_process)
    for proc in range(part.P):
        assert _local_roots(sp, proc).tolist() == np.unique(anc[part.leaf_process == proc]).tolist()
    for P in sorted({part.P, 1}):
        for model in ("hier", "direct"):
            rep = simulate_comm(tree, partition_sfc(tree, P), kind, model=model)
            rep.check_conservation()
            if P == 1:
                for ph in rep.phases.values():
                    assert not (ph.partners.any() or ph.cells_sent.any() or ph.cells_recv.any())


def _count_digest(rep):
    """sha256 over the CSV rows of a report plus every phase's per_level."""
    h = hashlib.sha256()
    for row in rep.rows():
        h.update((",".join(str(v) for v in row) + "\n").encode())
    for name, ph in rep.phases.items():
        h.update(f"{name}:{[tuple(int(v) for v in t) for t in ph.per_level]}\n".encode())
    return h.hexdigest()


# Recorded before the general engine was filtered and its dedup re-routed;
# every count of these runs must stay byte-identical.
PINNED_COUNT_DIGESTS = {
    ("plummer", 8, "hier"): "00414861df6f931c24bb1d8c6190be89525ec66e3b557d1dbd8bf743e2af57c1",
    ("plummer", 8, "direct"): "f3fdb272882f074348d64c5e2baa61f64bacaa762724c8729bc3ee4b608df0b3",
    ("plummer", 64, "hier"): "b4cb0fe113a8487f9d607ddb4ebfb03793cb604e1ade9d61b598e1a52671434e",
    ("plummer", 64, "direct"): "8dbecd380448600c7e131a4700db775b983dce3f1dc7302a0e37f83af85bb4ed",
    ("plummer", 512, "hier"): "fe6abd023d3522f6bbd0aaeb20ccf31e7dc3df3e96a120c7d89e63cce77b2e81",
    ("plummer", 512, "direct"): "c052aa7bd96381e1c74d20f067278c0113e4229478fa088e0958dc4273cf79ba",
    ("sphere-surface", 8, "hier"): "3b421cd396589b5c3cda14d9941f531a6448dfa568d8095038be5549edf44143",
    ("sphere-surface", 8, "direct"): "23a93d81354439d9e01669093424780c65c3fe2c91587b12399c219efbae2ee6",
    ("sphere-surface", 64, "hier"): "9f6f0733002e716394fc045ee24847202fbbe4af8568257db6030c03ff879241",
    ("sphere-surface", 64, "direct"): "07aa14d56f196c1f688a0685ada8828572fc7934221b593a027d167fbe73575f",
    ("sphere-surface", 512, "hier"): "3c3ccd3fbbce4e3291d4e82326bb27ddb636b2a0ece88747ce794152c245c158",
    ("sphere-surface", 512, "direct"): "62871a789136a9bcbacf7517de775f1afa5201ab4f8951e2ffb6b773412e3469",
}


@pytest.mark.parametrize("kind", ["plummer", "sphere-surface"])
def test_general_counts_pinned(kind):
    tree = balance_2to1(build_tree(generate(DistributionSpec(kind, 16384, seed=0)), 16))
    for P in (8, 64, 512):
        part = partition_sfc(tree, P)
        for model in ("hier", "direct"):
            rep = simulate_comm(tree, part, kind, model=model)
            assert _count_digest(rep) == PINNED_COUNT_DIGESTS[(kind, P, model)], (P, model)


def _int64_digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.int64).tobytes())
    return h.hexdigest()


# sha256 of the int64 bytes of q then m from leaf_adjacency_pairs, recorded
# on the searchsorted implementation the cell locator replaced.
PINNED_ADJACENCY_DIGESTS = {
    ("plummer", 16, True): "a7ee8627663a255629e15ac57d6105bd5490966cd020fcb465002ec084dd3b53",
    ("plummer", 1, False): "59d2492aeb7e506375d36c54251804d059834d27afbe52a9d76bad0eea1d6a98",
    ("sphere-surface", 16, True): "925948d2d76da83ace55908823ebd933e7388c73b6f3983f66a48e8b91d08b43",
    ("sphere-surface", 1, False): "94cb4397cfe1b76e47d17200b6ea987eac787177b572170f9099d5adf2a7d3bd",
}
# Every src then every dst of _level_pairs(radius 2) over all levels of the
# balanced plummer tree: pins the pair order as well as the pair set.
PINNED_PAIR_ORDER_DIGEST = "652d583c20bab198a86bdcaec8cc26e9dbcaa19aefe88b2ff58af038dbb3bfb1"


@pytest.mark.parametrize("kind", ["plummer", "sphere-surface"])
def test_adjacency_pinned(kind):
    ps = generate(DistributionSpec(kind, 16384, seed=0))
    for leaf_capacity, balanced in ((16, True), (1, False)):
        tree = build_tree(ps, leaf_capacity)
        if balanced:
            tree = balance_2to1(tree)
        q, m = leaf_adjacency_pairs(CellLocator(tree))
        assert _int64_digest(q, m) == PINNED_ADJACENCY_DIGESTS[(kind, leaf_capacity, balanced)]


def test_level_pair_order_pinned():
    tree = balance_2to1(build_tree(generate(DistributionSpec("plummer", 16384, seed=0)), 16))
    loc = CellLocator(tree)
    pairs = [_level_pairs(loc, level, 2) for level in range(tree.depth + 1)]
    src, dst = (np.concatenate(a) for a in zip(*pairs))
    assert _int64_digest(src, dst) == PINNED_PAIR_ORDER_DIGEST


def _brute_level_pairs(tree, level, radius, sources=None):
    """O(n^2) all-pairs Chebyshev oracle for ``_level_pairs``."""
    ids = tree.level_nodes(level)
    coords = decode_cells(tree.keys[ids], level)
    pairs = set()
    for lo in range(0, len(ids), 256):  # row blocks bound the distance matrix's memory
        dist = np.abs(coords[lo : lo + 256, None, :] - coords[None, :, :]).max(axis=2)
        i, j = np.nonzero((dist > 0) & (dist <= radius))
        pairs |= set(zip(ids[lo + i].tolist(), ids[j].tolist()))
    if sources is not None:
        pairs = {(a, b) for a, b in pairs if sources[a]}
    return pairs


def test_level_pairs_match_bruteforce():
    tree = balance_2to1(build_tree(generate(DistributionSpec("plummer", 3000, seed=2)), 8))
    depth = len(tree.level_ptr) - 2
    sources = np.random.default_rng(0).random(tree.n_nodes) < 0.4
    sources[tree.level_nodes(2)] = False  # one level with no source at all
    for level in range(depth + 1):
        for radius in (1, 2):
            for mask in (None, sources, ~sources):
                src, dst = _level_pairs(CellLocator(tree), level, radius, sources=mask)
                got = list(zip(src.tolist(), dst.tolist()))
                assert len(got) == len(set(got))
                assert set(got) == _brute_level_pairs(tree, level, radius, mask), (level, radius)


@settings(max_examples=25, deadline=None)
@given(
    kind=st.sampled_from(DISTRIBUTION_KINDS),
    n=st.integers(1, 3000),
    seed=st.integers(0, 2**16),
    leaf_capacity=st.integers(1, 32),
    balanced=st.booleans(),
    mask_seed=st.integers(0, 2**32 - 1),
)
# Leaf capacity 1 on a plummer cloud: deep trees, many levels of colleague rows.
@example(kind="plummer", n=3000, seed=0, leaf_capacity=1, balanced=False, mask_seed=0)
@example(kind="plummer", n=3000, seed=1, leaf_capacity=1, balanced=True, mask_seed=1)
def test_locator_lookups_match_bruteforce(kind, n, seed, leaf_capacity, balanced, mask_seed):
    tree = build_tree(generate(DistributionSpec(kind, n, seed)), leaf_capacity)
    if balanced:
        tree = balance_2to1(tree)
    rng = np.random.default_rng(mask_seed)
    sources = rng.random(tree.n_nodes) < 0.5
    loc = CellLocator(tree)
    for level in range(tree.depth + 1):
        for radius in (1, 2):
            src, dst = _level_pairs(loc, level, radius, sources=sources)
            got = list(zip(src.tolist(), dst.tolist()))
            assert len(got) == len(set(got))
            assert set(got) == _brute_level_pairs(tree, level, radius, sources), (level, radius)
    brute = brute_adjacent_pairs(tree)
    q, m = leaf_adjacency_pairs(loc)
    assert set(zip(q.tolist(), m.tolist())) == brute
    among = np.flatnonzero(rng.random(tree.n_leaves) < 0.3)
    q, m = leaf_adjacency_pairs(loc, among=among)
    wanted = set(among.tolist())
    assert set(zip(q.tolist(), m.tolist())) == {
        (a, b) for a, b in brute if a in wanted and b in wanted
    }


HALO_PHASES = (sim_global_m2l, sim_local_m2l, sim_direct_let)


def _per_source_halos(loc, level, sources=None, *labels):
    """``tree.sibling_halos`` replaced by the per-source oracle: every
    source lists its own cells, and the phases' accounting is unchanged."""
    return _level_pairs(loc, level, 2, sources)


def _halo_phases_match_oracle(split):
    grouped = [_phase_digest(sim(split)) for sim in HALO_PHASES]
    with mock.patch.object(commsim, "sibling_halos", _per_source_halos):
        assert grouped == [_phase_digest(sim(split)) for sim in HALO_PHASES]


@settings(max_examples=30, deadline=None)
@given(
    kind=st.sampled_from(DISTRIBUTION_KINDS),
    n=st.integers(1, 3000),
    seed=st.integers(0, 2**16),
    leaf_capacity=st.integers(1, 32),
    balanced=st.booleans(),
    data=st.data(),
)
@example(kind="plummer", n=3000, seed=0, leaf_capacity=1, balanced=False, data=None)
@example(kind="sphere-surface", n=3000, seed=1, leaf_capacity=4, balanced=True, data=None)
def test_sibling_halo_phases_match_per_source_pairs(kind, n, seed, leaf_capacity, balanced, data):
    tree = build_tree(generate(DistributionSpec(kind, n, seed)), leaf_capacity)
    if balanced:
        tree = balance_2to1(tree)
    # An explicit example (no data) takes the largest P: one leaf per process.
    P = data.draw(st.integers(1, tree.n_leaves), label="P") if data else tree.n_leaves
    _halo_phases_match_oracle(split_global_local(tree, partition_sfc(tree, P)))


def test_sibling_halo_phases_cover_group_shapes():
    # The fixtures hold every group shape the grouping must get right.
    seen = set()
    for kind, P in (("plummer", 3), ("plummer", 37), ("sphere-surface", 8), ("random-cube", 100)):
        tree = balance_2to1(build_tree(generate(DistributionSpec(kind, 3000, seed=3)), 4))
        split = split_global_local(tree, partition_sfc(tree, P))
        _halo_phases_match_oracle(split)
        inner = tree.parents >= 0
        if (tree.child_count[tree.parents[inner]] < 8).any():
            seen.add("parent with fewer than 8 children")
        if (split.owner_lo[inner & (tree.levels == 1)] < split.owner_hi[inner & (tree.levels == 1)]).any():
            seen.add("level-1 group under the root, several owners")
        # A multi-owner node is a group of its own (a sibling sharing its
        # owners would hold the same cut); its parent's other children group
        # around it.
        multi = split.owner_lo < split.owner_hi
        deep = np.flatnonzero(inner & (tree.levels >= 2))
        split_parents = np.intersect1d(tree.parents[deep[multi[deep]]], tree.parents[deep[~multi[deep]]])
        if len(split_parents):
            seen.add("multi-owner group beside single-owner siblings")
        # Local siblings of one owner, some interior at radius 2 and some not.
        local = np.flatnonzero(~split.upper)
        interior = commsim._interior(split, 2)[local]
        same = (np.diff(tree.parents[local]) == 0) & (np.diff(split.owner_lo[local]) == 0)
        if (same & (interior[1:] != interior[:-1])).any():
            seen.add("local group mixing interior and non-interior siblings")
    assert len(seen) == 4, seen


HIER_PHASES = (sim_global_m2m, sim_global_m2l, sim_local_m2l, sim_local_p2p)


def _reference_accumulate(split, phase, level_pairs):
    """The count that the end-owner split and the partner runs replaced:
    every owner of ``nodes[i]`` paired with ``cells[i]``, the remote needs
    deduplicated, and partners by a sort of the (process, sender) pairs."""
    P = split.partition.P
    partners, sent, recv = (np.zeros(P, dtype=np.int64) for _ in range(3))
    per_level = []
    for level, nodes, cells in level_pairs:
        procs, cells = commsim._remote(split, *commsim._owner_needs(split, nodes, cells))
        if not len(procs):
            continue
        p, _, sender = commsim._dedup(split, procs, cells)
        lvl_recv = np.bincount(p, minlength=P)
        lvl_partners = np.bincount(sorted_unique(p * np.int64(P) + sender) // P, minlength=P)
        recv += lvl_recv
        sent += np.bincount(sender, minlength=P)
        partners += lvl_partners
        per_level.append((level, int(lvl_partners.max()), int(lvl_recv.max())))
    return commsim.PhaseResult(phase, partners, sent, recv, per_level)


def _reference_digests(split):
    with mock.patch.object(commsim, "_accumulate_phase", _reference_accumulate):
        return [_phase_digest(sim(split)) for sim in HIER_PHASES]


@settings(max_examples=30, deadline=None)
@given(
    kind=st.sampled_from(DISTRIBUTION_KINDS),
    n=st.integers(1, 3000),
    seed=st.integers(0, 2**16),
    leaf_capacity=st.integers(1, 32),
    balanced=st.booleans(),
    data=st.data(),
)
# One leaf per process, and coarse nodes spanning hundreds of processes.
@example(kind="plummer", n=3000, seed=0, leaf_capacity=1, balanced=True, data=None)
@example(kind="sphere-surface", n=3000, seed=2, leaf_capacity=2, balanced=False, data=None)
def test_bulk_count_matches_owner_expansion(kind, n, seed, leaf_capacity, balanced, data):
    tree = build_tree(generate(DistributionSpec(kind, n, seed)), leaf_capacity)
    if balanced:
        tree = balance_2to1(tree)
    # An explicit example (no data) takes the largest P: one leaf per process.
    P = data.draw(st.integers(1, tree.n_leaves), label="P") if data else tree.n_leaves
    split = split_global_local(tree, partition_sfc(tree, P))
    if data is None:
        assert (split.owner_hi - split.owner_lo >= 2).any()  # inner owners exist
    got = [_phase_digest(sim(split)) for sim in HIER_PHASES]
    assert got == _reference_digests(split)
    # The per-source oracle lists each source's pairs in walk order, not by group.
    with mock.patch.object(commsim, "sibling_halos", _per_source_halos):
        assert [_phase_digest(sim(split)) for sim in HIER_PHASES] == got == _reference_digests(split)


@pytest.mark.parametrize("level, P, leaf_capacity", [(3, 8, 16), (5, 64, 1)])
def test_engines_agree_on_lattice_trees(level, P, leaf_capacity):
    # A full tree split over P = 8^g processes is the closed form's own case.
    # Per process, the two engines agree on global M2M receives and partners,
    # local M2L receives, P2P and direct-model partners.  Global M2M sends
    # differ (the general engine's first owner sends for its co-owners), and
    # global M2L and local M2L partners follow other definitions.
    tree = lattice_tree(level, leaf_capacity, leaf_capacity)
    assert tree.depth == level and tree.n_leaves == 8**level
    part = partition_sfc(tree, P)
    both = ("partners", "cells_recv")
    for model, checks in (
        ("hier", {"global-m2m": both, "local-m2l": ("cells_recv",), "local-p2p": (*both, "cells_sent")}),
        ("direct", {"direct-let": ("partners",)}),
    ):
        general = simulate_comm(tree, part, model=model)
        closed = uniform_comm_report(P, tree.n_particles // P, "truncated", leaf_capacity, model=model)
        for name, attrs in checks.items():
            for attr in attrs:
                assert np.array_equal(getattr(general.phase(name), attr), getattr(closed.phase(name), attr)), (name, attr)


def test_direct_let_p1_zero():
    rep = uniform_comm_report(1, 64, mode="periodic", model="direct")
    ph = rep.phase("direct-let")
    assert ph.total_recv == 0 and ph.partners.sum() == 0
    t = build_tree(generate(DistributionSpec("plummer", 400, seed=0)), 16)
    gen = sim_direct_let(split_global_local(t, partition_sfc(t, 1)))
    assert gen.total_recv == 0 and gen.partners.sum() == 0


@settings(max_examples=30, deadline=None)
@given(
    kind=st.sampled_from(DISTRIBUTION_KINDS),
    n=st.integers(1, 3000),
    seed=st.integers(0, 2**16),
    leaf_capacity=st.integers(1, 16),
    balanced=st.booleans(),
    data=st.data(),
)
def test_direct_let_partners_match_owner_expansion(kind, n, seed, leaf_capacity, balanced, data):
    # Oracle: expand every distinct (process, cell) need over all of the
    # cell's owners and count the distinct (process, owner) pairs.
    tree = build_tree(generate(DistributionSpec(kind, n, seed)), leaf_capacity)
    if balanced:
        tree = balance_2to1(tree)
    P = data.draw(st.integers(1, tree.n_leaves), label="P")
    split = split_global_local(tree, partition_sfc(tree, P))
    needs, dedup = [], commsim._dedup

    def spy(*args):
        needs.append(dedup(*args))
        return needs[-1]

    with mock.patch.object(commsim, "_dedup", spy):
        got = sim_direct_let(split)
    p, cell, _ = needs[0]
    owners, p_rep = commsim._owner_needs(split, cell, p)
    pairs = sorted_unique(p_rep * np.int64(P) + owners)
    assert np.array_equal(got.partners, np.bincount(pairs // P, minlength=P))
    assert got.partners.dtype == np.int64


def test_local_volume_monotone_in_n_per_p():
    vols = []
    for n_per_p in (8**2, 8**3, 8**4, 8**5):
        rep = uniform_comm_report(64, n_per_p, mode="periodic")
        vols.append(rep.phase("local-m2l").max_recv + rep.phase("local-p2p").max_recv)
    assert vols == sorted(vols)


def test_direct_let_dominates_hier_partners_growth():
    # Hierarchical partner totals grow like log8 P; direct pulls involve
    # nearly every process.
    ps, hs = [], []
    for P in (8, 64, 512, 4096):
        rep = uniform_comm_report(P, 512, mode="periodic")
        hier_partners = sum(int(rep.phase(n).partners[0]) for n in ("global-m2m", "global-m2l"))
        direct = uniform_comm_report(P, 512, mode="periodic", model="direct")
        ps.append(int(direct.phase("direct-let").partners[0]))
        hs.append(hier_partners)
    assert ps == [7, 63, 511, 4095]
    direct_fit = fit_scaling([8, 64, 512, 4096], ps)
    hier_fit = fit_scaling([8, 64, 512, 4096], hs)
    assert direct_fit.exponent > hier_fit.exponent + 0.5


# -- fits --------------------------------------------------------------------


def test_fit_exact_power_law():
    xs = np.array([8, 64, 512, 4096], dtype=float)
    f = fit_scaling(xs, 7 * xs ** (2.0 / 3.0))
    assert abs(f.exponent - 2.0 / 3.0) < 1e-9
    assert f.exponent_r2 > 0.999999


def test_fit_exact_log_law():
    xs = np.array([4, 16, 64, 256, 1024], dtype=float)
    f = fit_scaling(xs, 3 * np.log2(xs) + 5)
    assert abs(f.log_slope - 3.0) < 1e-9
    assert f.log_r2 > 0.999999


def test_fit_geometric_level_sum_exponent():
    xs = [8**k for k in range(2, 7)]
    ys = [sum(4**i for i in range(1, k + 1)) for k in range(2, 7)]
    f = fit_scaling(xs, ys)
    assert 0.63 <= f.exponent <= 0.70


def test_fit_dimension_generalization():
    # Level sums of 2^((d-1) i) fit (N/P)^((d-1)/d) for a 2^d-ary tree.
    for d in (2, 3, 4):
        xs = [(2**d) ** k for k in range(2, 7)]
        ys = [sum(2 ** ((d - 1) * i) for i in range(1, k + 1)) for k in range(2, 7)]
        f = fit_scaling(xs, ys)
        assert abs(f.exponent - (d - 1) / d) < 0.05


def test_fit_errors():
    with pytest.raises(ValueError):
        fit_scaling([1, 2, 3], [1, 2, 3])
    with pytest.raises(ValueError):
        fit_scaling([1, 1, 2, 3], [1, 2, 3, 4])
    with pytest.raises(ValueError):
        fit_scaling([1, 2, 3, 4], [1, -2, 3, 4])
    f = fit_scaling([(8, 2), (64, 3), (512, 4), (4096, 5)])
    assert f.log_slope > 0


# -- experiment driver -------------------------------------------------------


def test_run_experiment_uniform_counting():
    spec = DistributionSpec("random-cube", 64, seed=0)
    reports = run_comm_experiment(spec, [8, 64, 512], [64], mode="periodic")
    assert len(reports) == 3
    assert all(r.mode == "periodic" for r in reports)
    vols = [r.global_volume_max() for r in reports]
    assert vols == [215, 430, 645]  # (7 + 208) per global level


def test_run_experiment_general_counting():
    spec = DistributionSpec("plummer", 4096, seed=1)
    reports = run_comm_experiment(spec, [4], [1024], mode="truncated")
    assert len(reports) == 1
    reports[0].check_conservation()
    assert reports[0].P == 4
    with pytest.raises(ConfigurationError):
        run_comm_experiment(spec, [4], [64], mode="periodic")


def test_resolve_counting_engine_defaults():
    assert resolve_counting("random-cube") == ("uniform", "periodic", 1)
    assert resolve_counting("plummer") == ("general", "truncated", 16)
    assert resolve_counting("random-cube", mode="truncated", leaf_capacity=4) == (
        "uniform",
        "truncated",
        4,
    )
    # An explicit 0 is passed on, for the engine to reject, not defaulted.
    assert resolve_counting("plummer", leaf_capacity=0)[2] == 0
    with pytest.raises(ConfigurationError):
        resolve_counting("plummer", "periodic")


def test_run_experiment_one_leaf_capacity():
    plummer = DistributionSpec("plummer", 64, seed=1)
    default = run_comm_experiment(plummer, [8], [64])
    assert default[0].mode == "truncated"
    explicit = run_comm_experiment(plummer, [8], [64], mode="truncated", leaf_capacity=16)
    rows = lambda reps: [list(r.rows()) for r in reps]  # noqa: E731
    assert rows(default) == rows(explicit)
    assert rows(run_comm_experiment(plummer, [8], [64], leaf_capacity=8)) != rows(default)
    cube = DistributionSpec("random-cube", 64, seed=0)
    assert rows(run_comm_experiment(cube, [8], [512])) == rows(
        run_comm_experiment(cube, [8], [512], mode="periodic", leaf_capacity=1)
    )
    for spec in (plummer, cube):
        with pytest.raises(ConfigurationError):
            run_comm_experiment(spec, [8], [64], leaf_capacity=0)


def test_csv_emission(tmp_path, capsys):
    rep = uniform_comm_report(8, 64, mode="periodic")
    path = tmp_path / "comm.csv"
    with open(path, "w") as fh:
        write_reports_csv([rep], fh)
    write_reports_csv([rep], sys.stdout)
    assert capsys.readouterr().out == path.read_text()
    lines = path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 4 * 8  # four phases, eight processes
    first = lines[1].split(",")
    assert first[0] == "global-m2m" and first[3] == "8"


def _brute_interior(split, radius):
    """Every clipped window cell, encoded on its own, inside the owner's range."""
    from h2fmm.morton import MAX_LEVEL, encode_cells

    tree = split.tree
    lp = split.partition.leaf_process
    first = [int(np.flatnonzero(lp == p)[0]) for p in range(split.partition.P)]
    bounds = [0] + [int(tree.leaf_start21[f]) for f in first[1:]] + [1 << 63]
    offs = np.array(np.meshgrid(*[np.arange(-radius, radius + 1)] * 3, indexing="ij")).reshape(3, -1).T
    out = np.zeros(tree.n_nodes, dtype=bool)
    for node in range(tree.n_nodes):
        level = int(tree.levels[node])
        cells = decode_cells(tree.keys[node : node + 1], level) + offs
        cells = cells[((cells >= 0) & (cells < (1 << level))).all(axis=1)]
        keys = encode_cells(cells << (MAX_LEVEL - level), MAX_LEVEL).astype(object)
        lo, hi = int(split.owner_lo[node]), int(split.owner_hi[node])
        end = (keys + (1 << 3 * (MAX_LEVEL - level))).max()
        out[node] = lo == hi and bounds[lo] <= keys.min() and end <= bounds[lo + 1]
    return out


@pytest.mark.parametrize("kind", ["plummer", "sphere-surface"])
def test_interior_mask_matches_window_oracle(kind):
    from h2fmm.commsim import _interior

    tree = balance_2to1(build_tree(generate(DistributionSpec(kind, 3000, seed=5)), 4))
    for P in (1, 3, 8, 64):
        split = split_global_local(tree, partition_sfc(tree, P))
        for radius in (1, 2):
            got = _interior(split, radius)
            assert np.array_equal(got, _brute_interior(split, radius)), (P, radius)
            # One process owns everything; a few own most cells' windows.
            assert got.all() if P == 1 else got.any() or P == 64, (P, radius)


def _phase_digest(ph):
    return (ph.partners.tolist(), ph.cells_sent.tolist(), ph.cells_recv.tolist(), ph.per_level)


@settings(max_examples=25, deadline=None)
@given(
    kind=st.sampled_from(["random-cube", "sphere-surface", "plummer"]),
    n=st.integers(50, 3000),
    seed=st.integers(0, 2**16),
    leaf_capacity=st.integers(1, 16),
    P=st.integers(2, 40),
    balance=st.booleans(),
)
def test_local_phases_unchanged_by_interior_skip(kind, n, seed, leaf_capacity, P, balance):
    import h2fmm.commsim as commsim

    tree = build_tree(generate(DistributionSpec(kind, n, seed)), leaf_capacity)
    if balance:
        tree = balance_2to1(tree)
    split = split_global_local(tree, partition_sfc(tree, min(P, tree.n_leaves)))
    fast = [_phase_digest(sim(split)) for sim in (sim_local_m2l, sim_local_p2p)]
    with pytest.MonkeyPatch.context() as m:
        m.setattr(commsim, "_interior", lambda split, radius: np.zeros(split.tree.n_nodes, bool))
        slow = [_phase_digest(sim(split)) for sim in (sim_local_m2l, sim_local_p2p)]
    assert fast == slow
