"""Virtual-process communication counting for hierarchical N-body phases.

Communication is counted, never performed.  Two engines exist:

* a uniform engine evaluating closed-form halo counts on a full octree
  split over P = 8**g processes ("periodic" pretends every process is
  interior; "truncated" clips partner sets and halos at the domain
  boundary), and
* a general engine that enumerates actual halo cells on an adaptive
  tree with a Morton-order partition, counting each needed remote cell
  once (local-essential-tree accounting).

Counts are in cell units: one cell is one multipole/basis payload.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, PartitionError
from .geometry import DistributionSpec, generate
from .morton import MAX_LEVEL, decode_cells, encode_cells
from .tree import (
    DEFAULT_LEAF_CAPACITY,
    CellLocator,
    Octree,
    _ranges_concat,
    balance_2to1,
    build_tree,
    leaf_adjacency_pairs,
    node_boxes,
    node_leaves,
    sibling_halos,
    sorted_unique,
)

_U = np.uint64

PHASES = ("global-m2m", "global-m2l", "local-m2l", "local-p2p")
MODES = ("periodic", "truncated")

# ---------------------------------------------------------------------------
# Partition and global/local split


@dataclass
class Partition:
    """Assignment of leaves to P processes by contiguous Morton ranges."""

    P: int
    leaf_process: np.ndarray  # per leaf-table position
    proc_particle_counts: np.ndarray


def partition_sfc(tree: Octree, P: int) -> Partition:
    """Split the Morton-ordered leaves into P contiguous ranges.

    Cut points are chosen greedily so cumulative particle counts track
    j*N/P; every process receives at least one leaf.
    """
    if P < 1:
        raise ConfigurationError(f"process count must be >= 1, got {P}")
    n_leaves = tree.n_leaves
    if P > n_leaves:
        raise PartitionError(f"cannot split {n_leaves} leaves over {P} processes")
    counts = tree.counts[tree.leaf_ids].astype(np.int64)
    cum = np.cumsum(counts)
    n = tree.n_particles
    targets = np.arange(1, P) * (n / P)
    raw = np.searchsorted(cum, targets, side="left") + 1
    # Cut j is at least one past cut j - 1 and leaves room for the P - 1 - j
    # processes after it: in cuts - j, a running max clipped at one bound.
    j = np.arange(P - 1)
    cuts = np.minimum(np.maximum.accumulate(raw - j), n_leaves - P + 1) + j
    ptr = np.concatenate([[0], cuts, [n_leaves]]).astype(np.int64)
    leaf_process = np.repeat(np.arange(P, dtype=np.int32), np.diff(ptr))
    pcounts = np.add.reduceat(counts, ptr[:-1]) if n_leaves else np.zeros(P, np.int64)
    return Partition(P=P, leaf_process=leaf_process, proc_particle_counts=pcounts)


@dataclass
class GlobalLocalSplit:
    """The global and local trees, read off each node's owner interval.

    Node n's leaves belong to processes ``owner_lo[n]`` to ``owner_hi[n]``.
    A node is global when that is more than one process; a local root is
    a maximal single-owner node (its parent is global, or it is the
    root).  Everything below a local root is local.  A process whose
    Morton range is not a single subtree has several local roots.
    ``multi`` marks the global nodes, and ``upper`` marks them and the
    local roots: the sources of the global phases.
    """

    tree: Octree
    partition: Partition
    owner_lo: np.ndarray
    owner_hi: np.ndarray
    multi: np.ndarray
    upper: np.ndarray
    locator: CellLocator  # the tree's colleague table, built once and shared by the phases of one run


def split_global_local(tree: Octree, partition: Partition) -> GlobalLocalSplit:
    """Each node's owner interval, and the global nodes and local roots."""
    first, count = node_leaves(tree)
    owner_lo, owner_hi = partition.leaf_process[[first, first + count - 1]].astype(np.int32)
    multi = owner_lo != owner_hi
    return GlobalLocalSplit(
        tree=tree,
        partition=partition,
        owner_lo=owner_lo,
        owner_hi=owner_hi,
        multi=multi,
        upper=multi | np.append(multi, True)[tree.parents],  # the root's parent, -1, reads the True
        locator=CellLocator(tree),
    )


# ---------------------------------------------------------------------------
# Phase results and reports


@dataclass
class PhaseResult:
    """Per-process totals for one phase, with per-level maxima."""

    phase: str
    partners: np.ndarray  # per process, summed over levels
    cells_sent: np.ndarray
    cells_recv: np.ndarray
    per_level: list = field(default_factory=list)  # (level, partners_max, recv_max)

    @property
    def max_recv(self) -> int:
        return int(self.cells_recv.max()) if len(self.cells_recv) else 0

    @property
    def total_recv(self) -> int:
        return int(self.cells_recv.sum())

    @property
    def total_sent(self) -> int:
        return int(self.cells_sent.sum())


@dataclass
class CommReport:
    """All phase counts of one simulated run plus its metadata."""

    distribution: str
    n: int
    P: int
    n_per_p: int
    mode: str
    model: str
    seed: int
    phases: dict

    def phase(self, name: str) -> PhaseResult:
        return self.phases[name]

    def check_conservation(self) -> None:
        for ph in self.phases.values():
            if ph.total_sent != ph.total_recv:
                raise AssertionError(
                    f"phase {ph.phase}: sent {ph.total_sent} != recv {ph.total_recv}"
                )

    def global_volume_max(self) -> int:
        out = np.zeros(self.P, dtype=np.int64)
        for name in ("global-m2m", "global-m2l"):
            if name in self.phases:
                out += self.phases[name].cells_recv
        return int(out.max()) if len(out) else 0

    def rows(self):
        names = [n for n in PHASES if n in self.phases]
        names += [n for n in self.phases if n not in PHASES]
        for name in names:
            ph = self.phases[name]
            for p in range(self.P):
                yield (
                    name,
                    self.distribution,
                    self.n,
                    self.P,
                    self.mode,
                    p,
                    int(ph.partners[p]),
                    int(ph.cells_sent[p]),
                    int(ph.cells_recv[p]),
                )


CSV_HEADER = "phase,distribution,N,P,mode,process,partners,cells_sent,cells_recv"


def write_reports_csv(reports, fh) -> None:
    """Write the CSV header and the rows of ``reports`` to the text stream ``fh``."""
    fh.write(CSV_HEADER + "\n")
    for rep in reports:
        for row in rep.rows():
            fh.write(",".join(str(v) for v in row) + "\n")


# ---------------------------------------------------------------------------
# Uniform (formula) engine


def _log8(P: int) -> int:
    g = round(math.log(P, 8))
    if 8**g != P:
        raise ConfigurationError(f"uniform counting requires P to be a power of 8, got {P}")
    return g


def uniform_local_depth(n_per_p: float, leaf_capacity: int = 1) -> int:
    """Local-tree depth log8(n_per_p / leaf_capacity), rounded up."""
    if leaf_capacity < 1:
        raise ConfigurationError(f"leaf capacity must be >= 1, got {leaf_capacity}")
    if n_per_p <= leaf_capacity:
        return 0
    return int(math.ceil(round(math.log(n_per_p / leaf_capacity, 8), 12)))


def _window(P: int, g: int, level: int, n: int, width: int, clip: bool) -> np.ndarray:
    """Per process, the cells of a box around its level-``level`` ancestor.

    The ancestor covers an n^3 block of cells; the box is that block grown
    by ``width`` on every side and, with ``clip``, cut to the domain
    [0, n 2^level)^3.  Returns the box's cell count minus n^3.
    """
    if not clip:
        return np.full(P, (n + 2 * width) ** 3 - n**3, dtype=np.int64)
    lo = (decode_cells(np.arange(P, dtype=np.uint64), g) >> (g - level)) * n
    sides = np.minimum(lo + n + width, n << level) - np.maximum(lo - width, 0)
    return sides.prod(axis=1) - n**3


def uniform_comm_report(
    P: int,
    n_per_p: int,
    mode: str = "periodic",
    leaf_capacity: int = 1,
    distribution: str = "random-cube",
    model: str = "hier",
    seed: int = 0,
) -> CommReport:
    """Closed-form counts for a full tree split over P = 8**g processes.

    The hierarchical model reproduces the aggregation scheme: 7 sibling
    partners with one cell each per global level for M2M, 26 partners
    with 8 cells each per global level for M2L, and surface-halo counts
    (2^i + 2w)^3 - 8^i per local level, with w = 2 for M2L and w = 1 for
    P2P.  The direct model pulls the same local halos plus a two-cell
    window per global level, each cell from its own owner.  Every count
    is the volume of one window (``_window``): truncated mode clips it at
    the domain boundary, periodic mode treats every process as interior.
    """
    if mode not in MODES:
        raise ConfigurationError(f"mode must be one of {MODES}, got {mode!r}")
    g = _log8(P)
    ell = uniform_local_depth(n_per_p, leaf_capacity)
    phases = {}
    zeros = lambda: np.zeros(P, dtype=np.int64)  # noqa: E731

    if P == 1:
        names = ("direct-let",) if model == "direct" else PHASES
        for name in names:
            phases[name] = PhaseResult(name, zeros(), zeros(), zeros())
        return CommReport(distribution, P * n_per_p, P, n_per_p, mode, model, seed, phases)

    clip = mode == "truncated"
    # Two-cell-wide halos at every local level, and a one-cell-wide halo
    # at the leaf level.
    halos = [_window(P, g, g, 2**i, 2, clip) for i in range(1, ell + 1)]
    p2p = _window(P, g, g, 2**ell, 1, clip) if ell >= 1 else zeros()

    if model == "direct":
        # Every process owns a coarse cell of everyone's essential tree.
        cells = sum(halos, p2p) + sum(_window(P, g, i, 1, 2, clip) for i in range(1, g + 1))
        phases["direct-let"] = PhaseResult("direct-let", np.full(P, P - 1, dtype=np.int64), cells.copy(), cells)
        return CommReport(distribution, P * n_per_p, P, n_per_p, mode, model, seed, phases)

    n_dirs = _window(P, g, g, 1, 1, clip)

    # Global M2M: the 7 sibling-group partners always exist for P = 8^g,
    # and each sends one cell per global level.
    recv = np.full(P, 7 * g, dtype=np.int64)
    per_level = [(i, 7, 7) for i in range(1, g + 1)]
    phases["global-m2m"] = PhaseResult("global-m2m", recv.copy(), recv.copy(), recv.copy(), per_level)

    # Global M2L: one partner per neighbor cell of the process's level-i
    # ancestor, each shipping its 8-cell sibling bundle.
    partners, per_level = zeros(), []
    for i in range(1, g + 1):
        lvl_partners = _window(P, g, i, 1, 1, clip)
        partners += lvl_partners
        per_level.append((i, int(lvl_partners.max()), int(8 * lvl_partners.max())))
    phases["global-m2l"] = PhaseResult("global-m2l", partners, 8 * partners, 8 * partners, per_level)

    # Local M2L and P2P: a process talks to its n_dirs neighbors once the
    # local tree has a level.
    recv = sum(halos, zeros())
    per_level = [(i, int(n_dirs.max()), int(lvl.max())) for i, lvl in enumerate(halos, 1)]
    partners = n_dirs * (ell >= 1)
    phases["local-m2l"] = PhaseResult("local-m2l", partners, recv.copy(), recv.copy(), per_level)
    per_level = [(ell, int(n_dirs.max()), int(p2p.max()))] if ell >= 1 else []
    phases["local-p2p"] = PhaseResult("local-p2p", partners.copy(), p2p.copy(), p2p.copy(), per_level)

    return CommReport(distribution, P * n_per_p, P, n_per_p, mode, model, seed, phases)


def uniform_phase_level_counts(P: int, n_per_p: int, leaf_capacity: int = 1):
    """Interior-process per-level counts, keyed by phase.

    Returns {phase: [(level, partners, cells_per_partner, cells_recv)]},
    read off the per-level rows of the periodic report.  A global phase
    ships the same bundle to every partner; a local halo does not, so
    its cells_per_partner is None.
    """
    rep = uniform_comm_report(P, n_per_p, leaf_capacity=leaf_capacity)
    return {
        name: [
            (i, partners, recv // partners if name.startswith("global") else None, recv)
            for i, partners, recv in ph.per_level
        ]
        for name, ph in rep.phases.items()
    }


# ---------------------------------------------------------------------------
# General (tree) engine


def _remote(split, procs, cells):
    """The (process, cell) needs whose process does not co-own the cell."""
    keep = (procs < split.owner_lo[cells]) | (procs > split.owner_hi[cells])
    return procs[keep], cells[keep]


def _owner_needs(split, nodes, cells):
    """Pair every owner of ``nodes[i]`` with ``cells[i]``."""
    span = (split.owner_hi[nodes] - split.owner_lo[nodes] + 1).astype(np.int64)
    procs = _ranges_concat(split.owner_lo[nodes].astype(np.int64), span)
    return procs, np.repeat(cells, span)


def _touch_pairs(split, among=None):
    """(leaf, leaf) node-id pairs of touching leaves, both among the
    leaf-table positions ``among`` (default all)."""
    ids = split.tree.leaf_ids.astype(np.int64)
    q, m = leaf_adjacency_pairs(split.locator, among=among)
    return ids[q], ids[m]


def _dedup(split, procs, cells):
    """Distinct (process, cell) needs, each with its sender: the cell's first owner."""
    n_nodes = np.int64(split.tree.n_nodes)
    procs, cells = np.divmod(sorted_unique(np.multiply(procs, n_nodes, dtype=np.int64) + cells), n_nodes)
    return procs, cells, split.owner_lo[cells].astype(np.int64)


def _accumulate_phase(split, phase, level_pairs):
    """Count a phase from its per-level (level, nodes, cells) pairs: every
    owner of ``nodes[i]`` needs ``cells[i]`` unless it co-owns it.

    A node's end owners a and b are listed, and their remote needs go
    through ``_dedup``.  Partners are the changes of (process, sender) in
    the dedup order, where one level's cells ascend by node id, which is
    Morton order, and their first owners with them; cells of several
    levels (P2P) are sorted first.  The owners between a and b are counted
    in bulk, and a level of single-owner nodes skips that count.  Two
    nodes of a level have disjoint Morton ranges, so an inner owner
    co-owns no other cell of the level and owns no other node: it needs
    the node's cells but the node, each listed once, and each cell's
    first owner sends b - a - 1.
    """
    P = split.partition.P
    total = np.zeros((3, P), dtype=np.int64)
    per_level = []
    for level, nodes, cells in level_pairs:
        procs, lvl = split.owner_lo[nodes], np.zeros((3, P), dtype=np.int64)
        two = np.flatnonzero(split.multi[nodes])
        if len(two):
            hi = split.owner_hi[nodes[two]]
            wide = two[(hi - procs[two] > 1) & (cells[two] != nodes[two])]
            key = np.sort(nodes[wide] * P + split.owner_lo[cells[wide]])
            node, first, n_cells = np.unique(key // P, return_index=True, return_counts=True)
            span = split.owner_hi[node] - split.owner_lo[node] - 1
            at = _ranges_concat(split.owner_lo[node] + 1, span)
            lvl[0, at] = np.repeat(np.add.reduceat(np.append(True, key[1:] != key[:-1]), first), span)
            lvl[1] = np.bincount(key % P, weights=np.repeat(span, n_cells), minlength=P)
            lvl[2, at] = np.repeat(n_cells, span)
            procs, cells = np.concatenate([procs, hi]), np.concatenate([cells, cells[two]])
        procs, cells = _remote(split, procs, cells)
        if not len(procs):
            continue
        p, _, sender = _dedup(split, procs, cells)
        pp = p * P + sender
        if (pp[1:] < pp[:-1]).any():
            pp.sort()  # within each process's run, so p stays in step
        new = np.append(True, pp[1:] != pp[:-1])
        lvl += np.stack([np.bincount(a, minlength=P) for a in (p[new], sender, p)])
        total += lvl
        per_level.append((level, int(lvl[0].max()), int(lvl[2].max())))
    return PhaseResult(phase, *total, per_level)


def _interior(split, radius):
    """Per-node mask: the cells within Chebyshev ``radius`` of the node all
    lie in its one owner's Morton range, so it needs nothing remote.

    Process p owns the level-21 range [b_p, b_p+1), b_p the start of its
    first leaf (b_0 = 0, b_P = 2^63).  Morton order is monotone per axis,
    so every cell of the window, clipped to the grid, falls between the
    keys of the window's low and high corners.
    """
    tree = split.tree
    lp = split.partition.leaf_process
    bounds = np.append(tree.leaf_start21[np.flatnonzero(np.diff(lp, prepend=-1))], _U(1) << _U(63))
    bounds[0] = 0
    anchor, size = node_boxes(tree)
    cell = size[:, None]
    low = np.maximum(anchor - radius * cell, 0)
    high = np.minimum(anchor + radius * cell, (np.int64(1) << MAX_LEVEL) - cell)
    first, last = encode_cells(np.stack([low, high]), MAX_LEVEL)
    # A node spanning two processes crosses a bound, so it is never interior.
    p = split.owner_lo
    return (bounds[p] <= first) & (last + size.astype(_U) ** 3 <= bounds[p + 1])


def sim_global_m2m(split: GlobalLocalSplit) -> PhaseResult:
    """Sibling exchanges up the global tree.

    At each level every co-owner of a global node or local root pulls
    the sibling cells it does not co-own, one cell each, from the
    sibling's first owner.
    """
    tree = split.tree
    pairs = []
    for level in range(1, tree.depth + 1):
        ids = tree.level_nodes(level)
        ids = ids[split.upper[ids]]
        parents = tree.parents[ids].astype(np.int64)
        sib_count = tree.child_count[parents].astype(np.int64)
        sibs = _ranges_concat(tree.child_start[parents].astype(np.int64), sib_count)
        owners = np.repeat(ids, sib_count)
        keep = sibs != owners
        pairs.append((level, owners[keep], sibs[keep]))
    return _accumulate_phase(split, "global-m2m", pairs)


def sim_global_m2l(split: GlobalLocalSplit) -> PhaseResult:
    """Interaction halos of global-tree cells, two cells wide per level and sibling group."""
    levels = range(1, split.tree.depth + 1)
    halos = ((lv, *sibling_halos(split.locator, lv, split.upper, split.owner_lo, split.owner_hi)) for lv in levels)
    return _accumulate_phase(split, "global-m2l", halos)


def sim_local_m2l(split: GlobalLocalSplit) -> PhaseResult:
    """Two-cell-wide halo enumeration below the local roots.

    Needed cells are existing same-level cells within Chebyshev distance
    two of a process's strictly-local cells, owned by another process
    and not part of the global tree.  A cell that is not global has one
    owner, so sibling groups split on ``owner_lo`` alone; interior
    sources are skipped.
    """
    tree = split.tree
    sources = ~split.upper & ~_interior(split, 2)
    pairs = []
    for level in range(1, tree.depth + 1):
        src, dst = sibling_halos(split.locator, level, sources, split.owner_lo)
        keep = ~split.multi[dst]
        pairs.append((level, src[keep], dst[keep]))
    return _accumulate_phase(split, "local-m2l", pairs)


def sim_local_p2p(split: GlobalLocalSplit) -> PhaseResult:
    """Adjacent-leaf halo across process boundaries (one cell wide).

    Only pairs of leaves that are not interior at radius 1 are found: two
    touching leaves with different owners each lie in the other's window.
    """
    among = np.flatnonzero(~_interior(split, 1)[split.tree.leaf_ids])
    return _accumulate_phase(split, "local-p2p", [(0, *_touch_pairs(split, among))])


def sim_direct_let(split: GlobalLocalSplit) -> PhaseResult:
    """Baseline without hierarchical aggregation.

    Every process pulls each cell of its essential tree individually: it
    reads the pairs of the hierarchical phases' M2L halos, taken over
    every node, and of their leaf contacts (``_touch_pairs``), and counts
    each remote need once over the whole tree instead of once per level.
    Partners are all distinct owners of any needed cell, and coarse
    cells are owned by whole process groups.  A cell's owners are the
    interval [owner_lo, owner_hi], so a process's partner count is the
    size of the union of its needed cells' intervals: sorted by lower
    end, each interval adds what reaches past the running maximum of the
    upper ends before it.
    """
    P = split.partition.P
    levels = range(1, split.tree.depth + 1)
    halos = (sibling_halos(split.locator, lv, None, split.owner_lo, split.owner_hi) for lv in levels)
    needs = [_remote(split, *_owner_needs(split, *pairs)) for pairs in halos]
    needs.append(_remote(split, *_owner_needs(split, *_touch_pairs(split))))
    p, cell, sender = _dedup(split, *(np.concatenate(a) for a in zip(*needs)))
    recv = np.bincount(p, minlength=P)
    sent = np.bincount(sender, minlength=P)
    lo, hi = split.owner_lo[cell].astype(np.int64), split.owner_hi[cell].astype(np.int64)
    srt = np.argsort(p * P + lo)
    p, lo, hi = p[srt], lo[srt], hi[srt]
    # Running max of hi within each process's run; p * P keeps the runs apart.
    reach = np.maximum.accumulate(p * P + hi) - p * P
    before = np.roll(reach, 1)
    before[np.diff(p, prepend=-1) != 0] = -1
    added = np.maximum(hi - np.maximum(lo - 1, before), 0)
    partners = np.bincount(p, weights=added, minlength=P).astype(np.int64)
    return PhaseResult("direct-let", partners, sent, recv)


def simulate_comm(
    tree: Octree,
    partition: Partition,
    distribution: str = "unknown",
    seed: int = 0,
    model: str = "hier",
) -> CommReport:
    """Run the general engine over an explicit tree and partition."""
    split = split_global_local(tree, partition)
    if model == "direct":
        sims = (sim_direct_let,)
    else:
        sims = (sim_global_m2m, sim_global_m2l, sim_local_m2l, sim_local_p2p)
    phases = {ph.phase: ph for ph in (sim(split) for sim in sims)}
    return CommReport(
        distribution=distribution,
        n=tree.n_particles,
        P=partition.P,
        n_per_p=tree.n_particles // partition.P,
        mode="truncated",
        model=model,
        seed=seed,
        phases=phases,
    )


# ---------------------------------------------------------------------------
# Scaling fits and the experiment driver


@dataclass
class FitResult:
    exponent: float  # log-log least-squares slope
    exponent_r2: float
    log_slope: float  # slope of y against log_base(x)
    log_intercept: float
    log_r2: float


def _lstsq_line(x, y):
    A = np.vstack([x, np.ones_like(x)]).T
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    fitted = A @ coef
    ss_res = float(((y - fitted) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(coef[0]), float(coef[1]), r2


def fit_scaling(xs, ys=None, log_base: float = 2.0) -> FitResult:
    """Power-law and log-linear least-squares fits of a series.

    Parameters
    ----------
    xs, ys : arrays, or ``xs`` may be a sequence of (x, y) pairs.
    log_base : base for the log-linear fit (y against log_base x).

    Returns
    -------
    FitResult with the log-log slope (power-law exponent) and the
    log-linear slope, intercept and R^2.
    """
    if ys is None:
        pairs = np.asarray(list(xs), dtype=np.float64)
        xs, ys = pairs[:, 0], pairs[:, 1]
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    if len(x) < 4:
        raise ValueError(f"need at least 4 points to fit, got {len(x)}")
    if np.any(np.diff(x) <= 0):
        raise ValueError("degenerate series: x must be strictly increasing")
    if np.any(y <= 0):
        raise ValueError("series values must be positive")
    exp_slope, _, exp_r2 = _lstsq_line(np.log(x), np.log(y))
    log_slope, log_icpt, log_r2 = _lstsq_line(np.log(x) / np.log(log_base), y)
    return FitResult(exp_slope, exp_r2, log_slope, log_icpt, log_r2)


def resolve_counting(kind: str, mode=None, leaf_capacity=None):
    """The ``(counting, mode, leaf_capacity)`` a sweep over ``kind`` runs with.

    A random cube is counted in closed form (``"uniform"``), any other
    distribution on its tree (``"general"``); a ``None`` mode or leaf
    capacity is the engine's own: periodic and 1 for the closed form,
    truncated and ``DEFAULT_LEAF_CAPACITY`` for general counting, which has
    no periodic mode.
    """
    uniform = kind == "random-cube"
    counting = "uniform" if uniform else "general"
    if mode is None:
        mode = "periodic" if uniform else "truncated"
    if not uniform and mode == "periodic":
        raise ConfigurationError("general counting enumerates real trees; use truncated mode")
    if leaf_capacity is None:
        leaf_capacity = 1 if uniform else DEFAULT_LEAF_CAPACITY
    return counting, mode, leaf_capacity


def run_comm_experiment(
    spec: DistributionSpec,
    P_values,
    NP_values,
    mode: str | None = None,
    model: str = "hier",
    leaf_capacity: int | None = None,
) -> list:
    """Sweep (P, N/P) combinations and return one CommReport per run.

    A random cube is counted in closed form over full trees (P a power of
    8, no particles generated) with ``leaf_capacity`` in the local-depth
    formula; any other distribution builds the 2:1-balanced adaptive tree
    of each run with ``leaf_capacity`` particles per leaf.
    ``resolve_counting`` sets the defaults.
    """
    counting, mode, leaf_capacity = resolve_counting(spec.kind, mode, leaf_capacity)
    reports = []
    for P in map(int, P_values):
        for n_per_p in map(int, NP_values):
            if counting == "uniform":
                rep = uniform_comm_report(P, n_per_p, mode, leaf_capacity, spec.kind, model, spec.seed)
            else:
                particles = generate(DistributionSpec(spec.kind, P * n_per_p, spec.seed))
                tree = balance_2to1(build_tree(particles, leaf_capacity))
                rep = simulate_comm(tree, partition_sfc(tree, P), spec.kind, spec.seed, model)
            reports.append(rep)
    return reports
