"""Adaptive octrees, H2 kernel-matrix compression, and communication-count
models for hierarchical N-body methods."""

from .errors import (
    ConfigurationError,
    ContainerError,
    PartitionError,
    PrecisionLimitError,
)
from .geometry import (
    DistributionSpec,
    ParticleSet,
    generate,
    load_binary,
    load_csv,
    save_binary,
    save_csv,
)
from .kernels import KernelSpec, kernel_block
from .morton import (
    MAX_LEVEL,
    decode_cells,
    encode_cells,
    points_to_keys,
)
from .tree import (
    DEFAULT_LEAF_CAPACITY,
    CellLocator,
    Octree,
    balance_2to1,
    build_tree,
    depth_stats,
    leaf_adjacency_pairs,
    neighbor_counts,
)
from .h2 import (
    H2Matrix,
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
from .h2io import load_h2, save_h2
from .commsim import (
    CommReport,
    GlobalLocalSplit,
    Partition,
    fit_scaling,
    partition_sfc,
    run_comm_experiment,
    sim_direct_let,
    sim_global_m2l,
    sim_global_m2m,
    sim_local_m2l,
    sim_local_p2p,
    simulate_comm,
    split_global_local,
    uniform_comm_report,
    uniform_phase_level_counts,
    write_reports_csv,
)

__version__ = "0.1.0"
