"""Count communication for the tree phases and fit the scaling laws.

Run from the repository root:

    python3 demos/communication_scaling.py
"""
from h2fmm import (
    DistributionSpec,
    fit_scaling,
    run_comm_experiment,
    uniform_comm_report,
    uniform_phase_level_counts,
)

# Exact per-level counts for a full tree split over 64 processes.
print("interior-process counts per level (P=64, N/P=8^4, unit leaf capacity):")
levels = uniform_phase_level_counts(64, 8**4, leaf_capacity=1)
for phase, rows in levels.items():
    for level, partners, per_partner, recv in rows:
        per = "-" if per_partner is None else str(per_partner)
        print(f"  {phase:10s} level {level}: {partners:2d} partners x {per:>2s} cells -> {recv} received")

# Global phases move one cell bundle per level: volume grows with log P.
print()
print("global volume vs P at fixed N/P (periodic counting):")
spec = DistributionSpec("random-cube", 64, seed=0)
reports = run_comm_experiment(spec, [8, 64, 512, 4096, 32768], [512], mode="periodic")
series = [(r.P, r.global_volume_max()) for r in reports]
for p, v in series:
    print(f"  P={p:6d}: {v} cells")
fit = fit_scaling(series, log_base=8.0)
print(f"  linear in log8 P with slope {fit.log_slope:.1f}, R^2 = {fit.log_r2:.6f}")

# Local phases exchange surface halos: volume grows like (N/P)^(2/3).
print()
print("local P2P volume vs N/P at fixed P=64:")
reports = run_comm_experiment(spec, [64], [8**3, 8**4, 8**5, 8**6], mode="truncated")
series = [(r.n_per_p, r.phase("local-p2p").max_recv) for r in reports]
for np_, v in series:
    print(f"  N/P={np_:6d}: {v} cells")
fit = fit_scaling(series)
print(f"  power-law exponent {fit.exponent:.3f} (surface-to-volume 2/3)")

# The aggregation scheme beats pulling the essential tree directly.
print()
print("hierarchical vs direct partner counts (periodic counting):")
for P in (8, 64, 512, 4096):
    hier = uniform_comm_report(P, 512, mode="periodic")
    direct = uniform_comm_report(P, 512, mode="periodic", model="direct")
    h = sum(int(hier.phase(n).partners[0]) for n in ("global-m2m", "global-m2l"))
    d = int(direct.phase("direct-let").partners[0])
    print(f"  P={P:5d}: hierarchical {h:4d} partners, direct {d:5d}")
