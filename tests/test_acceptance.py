"""Acceptance suite: one test per criterion, with printed PASS/FAIL lines.

Heavy artifacts (compression sweeps, million-particle communication
runs) are shared through session fixtures.  Criteria 2 and 3 each carry
one sub-assertion whose pinned tolerance is unreachable by arithmetic of
the exact counting formulas over the pinned sweep window; those two
failures are kept honest rather than loosened, and the assertion
messages carry the measured values.
"""
import numpy as np
import pytest

from h2fmm.commsim import (
    fit_scaling,
    partition_sfc,
    run_comm_experiment,
    simulate_comm,
    uniform_comm_report,
    uniform_phase_level_counts,
)
from h2fmm.geometry import DistributionSpec, generate
from h2fmm.h2 import (
    compress,
    coupling,
    dense_apply,
    downsweep,
    flop_report,
    matvec,
    storage_report,
    upsweep,
)
from h2fmm.kernels import KernelSpec, kernel_block
from h2fmm.tree import balance_2to1, build_tree, depth_stats, neighbor_counts

LAPLACE = KernelSpec("laplace3d", regularization=1e-2)


def report(criterion, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion} {label}: {status}  {detail}")
    return ok


# -- criterion 1: exact per-level counts --------------------------------------


def test_criterion_01_table3_exact_counts():
    ok = True
    for g in (1, 2, 3):
        levels = uniform_phase_level_counts(8**g, 8**5, leaf_capacity=1)
        ok &= all(row == (i + 1, 7, 1, 7) for i, row in enumerate(levels["global-m2m"]))
        ok &= all(row == (i + 1, 26, 8, 208) for i, row in enumerate(levels["global-m2l"]))
        ok &= [r[3] for r in levels["local-m2l"]] == [
            (2**i + 4) ** 3 - 8**i for i in range(1, 6)
        ]
        ok &= levels["local-p2p"][0][3] == (2**5 + 2) ** 3 - 8**5
    m2l = {i: r for (i, _, _, r) in uniform_phase_level_counts(64, 8**4)["local-m2l"]}
    p2p = {
        i: r
        for (i, _, _, r) in uniform_phase_level_counts(64, 8)["local-p2p"]
        + uniform_phase_level_counts(64, 64)["local-p2p"]
    }
    ok &= m2l[1] == 208 and m2l[2] == 448
    ok &= p2p[1] == 56 and p2p[2] == 152
    assert report("c01", "exact per-level integer counts", ok)


# -- criterion 2: global-phase scaling ---------------------------------------

P_SWEEP = (8, 64, 512, 4096, 32768)


@pytest.fixture(scope="session")
def global_uniform_series():
    reports = run_comm_experiment(
        DistributionSpec("random-cube", 64, 0), P_SWEEP, [512], mode="periodic"
    )
    return [(rep.P, rep.global_volume_max()) for rep in reports]


def test_criterion_02_global_log_fit_r2(global_uniform_series):
    f = fit_scaling(global_uniform_series, log_base=8.0)
    ok = f.log_r2 > 0.99
    assert report("c02", "global volume linear in log8 P (R^2 > 0.99)", ok, f"R^2={f.log_r2:.6f}")


def test_criterion_02_global_power_exponent(global_uniform_series):
    # Unreachable by arithmetic: y = 215*log8(P) over this P window has
    # log-log slope 0.188 for any c*log8(P) series; the bound is 0.15.
    # Kept as an honest failure.
    f = fit_scaling(global_uniform_series, log_base=8.0)
    assert report(
        "c02",
        "global volume power-law exponent < 0.15",
        f.exponent < 0.15,
        f"exponent={f.exponent:.4f} over P={list(P_SWEEP)}",
    )


# -- criterion 3: local-phase scaling ----------------------------------------

NP_SWEEP = (8**3, 8**4, 8**5, 8**6)


@pytest.fixture(scope="session")
def local_uniform_reports():
    return run_comm_experiment(
        DistributionSpec("random-cube", 64, 0),
        [64],
        NP_SWEEP,
        mode="truncated",
        leaf_capacity=1,
    )


def test_criterion_03_local_p2p_exponent(local_uniform_reports):
    series = [(r.n_per_p, r.phase("local-p2p").max_recv) for r in local_uniform_reports]
    f = fit_scaling(series)
    ok = abs(f.exponent - 2.0 / 3.0) <= 0.05
    assert report("c03", "local P2P exponent 0.667 +- 0.05", ok, f"exponent={f.exponent:.4f}")


def test_criterion_03_local_m2l_exponent(local_uniform_reports):
    # Unreachable by arithmetic: the level sums of (2^i+4)^3 - 8^i fit
    # to 0.585 over N/P in {8^3..8^6} because the lower-order 48*2^i+64
    # halo terms depress the finite-window slope below 0.617.  Kept as
    # an honest failure.
    series = [(r.n_per_p, r.phase("local-m2l").max_recv) for r in local_uniform_reports]
    f = fit_scaling(series)
    ok = abs(f.exponent - 2.0 / 3.0) <= 0.05
    assert report("c03", "local M2L exponent 0.667 +- 0.05", ok, f"exponent={f.exponent:.4f}")


# -- criterion 4: nonuniform upper bounds ------------------------------------


@pytest.fixture(scope="session", params=["sphere-surface", "plummer"])
def nonuniform_runs(request):
    kind = request.param
    spec = DistributionSpec(kind, 64, seed=1)
    local = run_comm_experiment(spec, [8], NP_SWEEP, mode="truncated")
    global_ = run_comm_experiment(spec, P_SWEEP, [64], mode="truncated")
    return kind, local, global_


def test_criterion_04_nonuniform_bounds(nonuniform_runs):
    kind, local, global_ = nonuniform_runs
    ok = True
    for phase in ("local-m2l", "local-p2p"):
        series = [(r.n_per_p, r.phase(phase).max_recv) for r in local]
        f = fit_scaling(series)
        ok &= report(
            "c04",
            f"{kind} {phase} exponent <= 0.72",
            f.exponent <= 0.72,
            f"exponent={f.exponent:.4f}",
        )
    series = [(r.P, r.global_volume_max()) for r in global_]
    f = fit_scaling(series, log_base=8.0)
    ok &= report(
        "c04",
        f"{kind} global volume log-P fit R^2 > 0.95",
        f.log_r2 > 0.95,
        f"R^2={f.log_r2:.4f} slope={f.log_slope:.1f}",
    )
    for r in local + global_:
        r.check_conservation()
    assert ok


# -- criterion 5: 2:1 balance caps the near field -----------------------------


def test_criterion_05_balance_caps_neighbor_counts():
    # Unit leaf capacity exposes the refinement contrast directly; at
    # larger capacities the occupancy smoothing keeps even unbalanced
    # trees within gap 2-3 at these sizes, hiding the growth.
    ns = [2**13, 2**14, 2**15, 2**16, 2**17]
    balanced_max, unbalanced_max = [], []
    for n in ns:
        tree = build_tree(generate(DistributionSpec("plummer", n, seed=0)), 1)
        unbalanced_max.append(int(neighbor_counts(tree).max()))
        balanced_max.append(int(neighbor_counts(balance_2to1(tree)).max()))
    spread = (max(balanced_max) - min(balanced_max)) / np.mean(balanced_max)
    ok = report(
        "c05",
        "balanced max neighbor count flat within 10%",
        spread <= 0.10,
        f"balanced={balanced_max} spread={spread:.3f}",
    )
    ok &= report(
        "c05",
        "unbalanced trees show growth",
        unbalanced_max[-1] > unbalanced_max[0]
        and max(unbalanced_max) > max(balanced_max),
        f"unbalanced={unbalanced_max}",
    )
    ok &= report(
        "c05",
        "balanced counts below the 2:1 ceiling of 56",
        all(v <= 56 for v in balanced_max),
    )
    assert ok


# -- criterion 6: tree depth O(log N) -----------------------------------------


def test_criterion_06_depth_log_growth_and_ordering():
    ns = [2**k for k in range(10, 21)]
    rows = depth_stats(DistributionSpec("random-cube", ns[0], seed=0), ns, 16)
    slope = np.polyfit(np.log([n for n, _ in rows]) / np.log(8), [d for _, d in rows], 1)[0]
    ok = report(
        "c06", "random-cube depth slope in [0.8, 1.3]", 0.8 <= slope <= 1.3, f"slope={slope:.3f}"
    )
    for n in (2**14, 2**16):
        depths = {}
        for kind in ("random-cube", "sphere-surface", "plummer"):
            tree = build_tree(generate(DistributionSpec(kind, n, seed=0)), 16)
            depths[kind] = tree.depth
        ok &= report(
            "c06",
            f"ordering random < surface < plummer at N={n}",
            depths["random-cube"] < depths["sphere-surface"] < depths["plummer"],
            f"depths={depths}",
        )
    assert ok


# -- criterion 7: matvec accuracy ----------------------------------------------


@pytest.mark.parametrize("n", [512, 2048, 8192])
@pytest.mark.parametrize("eps", [1e-4, 1e-6])
def test_criterion_07_matvec_accuracy(n, eps):
    ps = generate(DistributionSpec("random-cube", n, seed=1))
    tree = build_tree(ps, 16)
    h2 = compress(tree, LAPLACE, eps=eps)
    a = kernel_block(LAPLACE, ps.positions, ps.positions)
    x = np.random.Generator(np.random.PCG64(0)).standard_normal(n)
    ref = a @ x
    err = float(np.linalg.norm(matvec(h2, x) - ref) / np.linalg.norm(ref))
    assert report(
        "c07",
        f"matvec rel error <= 10*eps (N={n}, eps={eps:g})",
        err <= 10 * eps,
        f"err={err:.3e}",
    )


# -- criteria 8 and 9: storage and work scaling --------------------------------


@pytest.fixture(scope="session")
def h2_scaling_sweep():
    # Sphere-surface keeps the leaf-occupancy mix stationary across the
    # sweep; the volume distributions are still pre-asymptotic in this
    # window (node ranks keep growing with per-cell resolution).
    rows = []
    for n in (1024, 2048, 4096, 8192, 16384, 32768):
        ps = generate(DistributionSpec("sphere-surface", n, seed=1))
        tree = balance_2to1(build_tree(ps, 16))
        h2 = compress(tree, LAPLACE, eps=1e-4)
        rows.append((n, storage_report(h2)["total"], flop_report(h2)["total"]))
    return rows


def test_criterion_08_storage_linear(h2_scaling_sweep):
    ns = np.array([r[0] for r in h2_scaling_sweep], dtype=float)
    storage = np.array([r[1] for r in h2_scaling_sweep], dtype=float)
    slope = float(np.polyfit(np.log(ns), np.log(storage), 1)[0])
    small = ns[ns <= 8192]
    dense_slope = float(np.polyfit(np.log(small), np.log(small**2 * 8.0), 1)[0])
    ok = report("c08", "H2 storage log-log slope <= 1.15", slope <= 1.15, f"slope={slope:.3f}")
    ok &= report(
        "c08", "dense storage slope is 2.0 on the small end", abs(dense_slope - 2.0) < 1e-9,
        f"slope={dense_slope:.3f}",
    )
    assert ok


def test_criterion_09_matvec_work_linear(h2_scaling_sweep):
    ns = np.array([r[0] for r in h2_scaling_sweep], dtype=float)
    flops = np.array([r[2] for r in h2_scaling_sweep], dtype=float)
    slope = float(np.polyfit(np.log(ns), np.log(flops), 1)[0])
    assert report(
        "c09", "matvec multiply-add count slope <= 1.15", slope <= 1.15, f"slope={slope:.3f}"
    )


# -- criterion 10: property umbrella -------------------------------------------


@pytest.fixture(scope="session")
def property_h2():
    ps = generate(DistributionSpec("random-cube", 512, seed=1))
    tree = build_tree(ps, 16)
    return compress(tree, LAPLACE, eps=1e-6)


def test_criterion_10_linearity(property_h2):
    rng = np.random.Generator(np.random.PCG64(3))
    x, z = rng.standard_normal(512), rng.standard_normal(512)
    lhs = matvec(property_h2, 1.5 * x - 0.25 * z)
    rhs = 1.5 * matvec(property_h2, x) - 0.25 * matvec(property_h2, z)
    rel = float(np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs))
    assert report("c10", "matvec linearity within 1e-12", rel < 1e-12, f"rel={rel:.2e}")


def test_criterion_10_zero_vector(property_h2):
    ok = np.array_equal(matvec(property_h2, np.zeros(512)), np.zeros(512))
    assert report("c10", "zero vector maps to zero exactly", ok)


def test_criterion_10_ones_kernel_row_sums():
    ps = generate(DistributionSpec("random-cube", 512, seed=1))
    tree = build_tree(ps, 16)
    h2 = compress(tree, KernelSpec("one"), eps=1e-6)
    x = np.random.Generator(np.random.PCG64(4)).standard_normal(512)
    err = float(np.abs(matvec(h2, x) - x.sum()).max())
    assert report("c10", "all-ones kernel row sums", err < 1e-9, f"max err={err:.2e}")


def test_criterion_10_phase_decomposition(property_h2):
    x = np.random.Generator(np.random.PCG64(5)).standard_normal(512)
    full = matvec(property_h2, x)
    parts = dense_apply(property_h2, x) + downsweep(
        property_h2, coupling(property_h2, upsweep(property_h2, x))
    )
    assert report("c10", "dense + low-rank phases equal matvec exactly", np.array_equal(full, parts))


def test_criterion_10_nesting_identity():
    from h2_views import explicit_bases, far_partners
    from h2fmm.h2 import _kernel_rows
    from h2fmm.tree import _ranges_concat

    eps = 1e-4
    ps = generate(DistributionSpec("random-cube", 512, seed=1))
    tree = build_tree(ps, 16)
    h2 = compress(tree, LAPLACE, eps=eps)
    partners = far_partners(tree, h2.blocks)
    bases = explicit_bases(tree, h2.row_basis)
    pos = tree.particles.positions
    worst = 0.0
    for node in range(tree.n_nodes):
        if tree.is_leaf[node] or not partners[node]:
            continue
        u = bases[node]
        s0, c0 = int(tree.starts[node]), int(tree.counts[node])
        cols = _ranges_concat(tree.starts[partners[node]], tree.counts[partners[node]])
        r = _kernel_rows(LAPLACE, pos[s0 : s0 + c0], pos[cols])
        resid = r - u @ (u.T @ r)
        bounds = np.concatenate([[0], np.cumsum(tree.counts[partners[node]])])
        for b in range(len(partners[node])):
            err = np.linalg.norm(resid[:, bounds[b] : bounds[b + 1]])
            norm = np.linalg.norm(r[:, bounds[b] : bounds[b + 1]])
            worst = max(worst, err / norm)
    assert report(
        "c10", "nesting identity per interior node", worst <= 3 * eps, f"worst={worst:.2e}"
    )


def test_criterion_10_conservation():
    rep = uniform_comm_report(64, 8**4, mode="truncated")
    rep.check_conservation()
    ps = generate(DistributionSpec("plummer", 8192, seed=1))
    tree = balance_2to1(build_tree(ps, 16))
    part = partition_sfc(tree, 8)
    gen = simulate_comm(tree, part, "plummer")
    gen.check_conservation()
    assert report("c10", "sent equals received in every phase", True)
