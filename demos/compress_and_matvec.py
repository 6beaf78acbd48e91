"""Compress a kernel matrix into the nested-basis format and verify it.

Run from the repository root:

    python3 demos/compress_and_matvec.py
"""
import numpy as np

from h2fmm import (
    DistributionSpec,
    KernelSpec,
    build_tree,
    compress,
    flop_report,
    generate,
    kernel_block,
    matvec,
    storage_report,
)

n = 4096
kernel = KernelSpec("laplace3d", regularization=1e-2)
particles = generate(DistributionSpec("random-cube", n, seed=1))
tree = build_tree(particles, leaf_capacity=16)
print(f"octree over {n} particles: depth {tree.depth}, {tree.n_leaves} leaves")

x = np.random.default_rng(0).standard_normal(n)
ref = kernel_block(kernel, particles.positions, particles.positions) @ x
dense_bytes = n * n * 8
for eps in (1e-2, 1e-4, 1e-6):
    h2 = compress(tree, kernel, eps=eps)
    st = storage_report(h2)
    err = np.linalg.norm(matvec(h2, x) - ref) / np.linalg.norm(ref)
    print(
        f"eps={eps:7.0e}  max rank {int(h2.row_basis.ranks.max()):3d}  "
        f"storage {st['total'] / 1e6:6.1f} MB ({st['total'] / dense_bytes:5.1%} of dense)  "
        f"matvec rel error {err:.2e}"
    )

h2 = compress(tree, kernel, eps=1e-4)
fl = flop_report(h2)
print()
print("multiply-adds per matvec by phase:")
for phase, count in fl.items():
    print(f"  {phase:10s} {count:>12,d}")
print(f"dense matvec would need {n * n:,d}")
