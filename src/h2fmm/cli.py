"""Command-line front end: gen, tree-stats, compress, matvec, commsim.

Every subcommand is deterministic given its flags and seed.  Exit codes:
0 success, 2 usage/configuration error, malformed container or a path
that cannot be read or written, 3 precondition violation, 4 internal
invariant failure.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .commsim import (
    MODES,
    fit_scaling,
    resolve_counting,
    run_comm_experiment,
    write_reports_csv,
)
from .errors import (
    ConfigurationError,
    ContainerError,
    PartitionError,
    PrecisionLimitError,
)
from .geometry import (
    DistributionSpec,
    generate,
    load_binary,
    load_csv,
    save_binary,
    save_csv,
)
from .h2 import compress, coupling, dense_apply, downsweep, flop_report, storage_report, upsweep
from .h2io import VERSION, load_h2, save_h2
from .kernels import KernelSpec, kernel_block
from .tree import DEFAULT_LEAF_CAPACITY, balance_2to1, build_tree, depth_stats

DIST_ALIASES = {
    "random": "random-cube",
    "random-cube": "random-cube",
    "surface": "sphere-surface",
    "sphere-surface": "sphere-surface",
    "plummer": "plummer",
}

EXIT_USAGE = 2
EXIT_GUARD = 3
EXIT_INTERNAL = 4

ORACLE_ROWS = 256  # exact rows that `matvec` checks, every row when N <= 256
ORACLE_BLOCK = 2**20  # kernel entries per block of those rows


def _dist_kind(name: str) -> str:
    try:
        return DIST_ALIASES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown distribution {name!r}; expected one of {sorted(DIST_ALIASES)}"
        ) from None


def _int_list(flag, text):
    """The comma-separated integers >= 1 given to ``flag``."""
    try:
        values = [int(v) for v in text.split(",")]
    except ValueError:
        values = []
    if not values or min(values) < 1:
        raise ConfigurationError(f"{flag} takes comma-separated integers >= 1, got {text!r}")
    return values


def _text_out(path):
    """The stream of a text output: stdout for ``None`` or ``-``, else the file."""
    return contextlib.nullcontext(sys.stdout) if path in (None, "-") else open(path, "w")


def _check_writable(out, summary, binary=False, inputs=(), replace=False):
    """Refuse before any work or write if an output path cannot be written,
    so a failing command leaves no file behind.  ``-`` is stdout, which
    takes text only: a ``binary`` ``out`` refuses it.  An output may not name
    the other output or one of ``inputs``, which writing it would destroy.  A
    ``replace``d regular file (deleted, then written anew) needs its folder too."""
    if binary and out == "-":
        raise ConfigurationError("cannot write binary output to stdout; give --out a file path")
    files = [path for path in (out, summary) if path not in (None, "-")]
    if len(files) == 2 and os.path.realpath(out) == os.path.realpath(summary):
        raise ConfigurationError(f"--out and --summary both name {summary}; give two different files")
    read = {os.path.realpath(path) for path in inputs if path}
    for path in files:
        if os.path.realpath(path) in read:
            raise ConfigurationError(f"cannot write {path}: it is an input of this command")
        folder = os.path.dirname(os.path.realpath(path))
        targets = [path] if os.path.exists(path) else [folder]
        if replace and path == out and os.path.isfile(path):
            targets.append(folder)
        if os.path.isdir(path) or not all(os.access(target, os.W_OK) for target in targets):
            raise ConfigurationError(f"cannot write {path}: not a writable file path")


def _json_dump(obj, path):
    with _text_out(path) as fh:
        fh.write(json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n")


def cmd_gen(args) -> int:
    _check_writable(args.out, None, binary=args.format == "bin")
    spec = DistributionSpec(_dist_kind(args.dist), args.n, args.seed)
    particles = generate(spec)
    if args.format == "bin":
        save_binary(particles, args.out)
    else:
        with _text_out(args.out) as fh:
            save_csv(particles, fh)
    return 0


def cmd_tree_stats(args) -> int:
    _check_writable(args.out, None)
    n_values = _int_list("--n-values", args.n_values)
    dists = [_dist_kind(d) for d in args.dists.split(",")]
    lines = ["distribution,n,depth"]
    for kind in dists:
        spec = DistributionSpec(kind, n_values[0], args.seed)
        for n, depth in depth_stats(spec, n_values, args.leaf_capacity):
            lines.append(f"{kind},{n},{depth}")
    with _text_out(args.out) as fh:
        fh.write("\n".join(lines) + "\n")
    return 0


def _load_particles(path):
    if path.endswith(".bin"):
        return load_binary(path)
    return load_csv(path)


def cmd_compress(args) -> int:
    _check_writable(args.out, args.summary, binary=True, inputs=[args.infile], replace=True)
    if args.infile:
        particles = _load_particles(args.infile)
        kind = "file"
    else:
        kind = _dist_kind(args.dist)
        particles = generate(DistributionSpec(kind, args.n, args.seed))
    kernel = KernelSpec(args.kernel, regularization=args.delta, sigma=args.sigma)
    t0 = time.perf_counter()
    tree = build_tree(particles, args.leaf_capacity)
    if args.balance:
        tree = balance_2to1(tree)
    t_tree = time.perf_counter() - t0
    t0 = time.perf_counter()
    h2 = compress(tree, kernel, eps=args.eps)
    t_compress = time.perf_counter() - t0
    if args.out:
        save_h2(h2, args.out)
    report = {
        "config": {
            "source": args.infile or kind,
            "n": h2.n,
            "seed": args.seed,
            "kernel": kernel.kind,
            "delta": kernel.regularization,
            "sigma": kernel.sigma,
            "eps": args.eps,
            "leaf_capacity": args.leaf_capacity,
            "balance": args.balance,
            "format_version": VERSION,
        },
        "summary": h2.summary(),
        "timings": {"tree_s": t_tree, "compress_s": t_compress},
    }
    _json_dump(report, args.summary)
    return 0


def cmd_matvec(args) -> int:
    if args.seed < 0:
        raise ConfigurationError(f"seed must be >= 0, got {args.seed}")
    _check_writable(args.out, args.summary, inputs=[args.matrix, args.x])
    h2 = load_h2(args.matrix)
    n = h2.n
    rng = np.random.Generator(np.random.PCG64(args.seed))
    if args.x:
        try:
            x = np.loadtxt(args.x, delimiter=",", ndmin=1)  # one value is a vector too
        except (OSError, ValueError) as exc:
            raise ConfigurationError(f"cannot read vector {args.x}: {exc}") from None
        if x.shape != (n,):
            raise ConfigurationError(f"vector length {x.shape} does not match N={n}")
        if not np.isfinite(x).all():
            raise ConfigurationError(f"vector {args.x} holds a non-finite value")
    else:
        x = rng.standard_normal(n)
    flops, timings = flop_report(h2), {}

    def timed(phase, fn, v):
        t0 = time.perf_counter()
        out = fn(h2, v)
        t = timings[phase + "_s"] = time.perf_counter() - t0
        timings[phase + "_gmacs"] = flops[phase] / t / 1e9 if t > 0 else 0.0
        return out

    # The index plans first, so the phases time only their products.
    t0 = time.perf_counter()
    h2.prepare()
    plan_s = time.perf_counter() - t0
    # matvec's four phases, timed one by one; this sum is bitwise matvec(h2, x).
    dense = timed("dense", dense_apply, x)
    xhat = timed("upsweep", upsweep, x)
    y = dense + timed("downsweep", downsweep, timed("coupling", coupling, xhat))
    timings["matvec_s"] = sum(v for k, v in timings.items() if k.endswith("_s"))
    timings["plan_s"] = plan_s
    if not np.isfinite(y).all():
        raise ContainerError(f"matrix {args.matrix} gives a non-finite product")
    report = {
        "config": {
            "matrix": args.matrix,
            "n": n,
            "seed": args.seed,
            "oracle": args.oracle,
            "format_version": VERSION,
        },
        "flops": flops,
        "storage": storage_report(h2),
        "timings": timings,
    }
    if args.oracle:
        # Drawn after x, so x and y do not depend on the oracle.
        t0 = time.perf_counter()
        rows = rng.choice(n, size=min(ORACLE_ROWS, n), replace=False)
        pos = h2.octree.particles.positions[np.argsort(h2.octree.order)]  # the order of x and y
        step = max(1, ORACLE_BLOCK // n)
        y_ref = np.concatenate(
            [kernel_block(h2.kernel, pos[rows[i : i + step]], pos) @ x for i in range(0, len(rows), step)]
        )
        report["timings"]["oracle_s"] = time.perf_counter() - t0
        report["config"]["oracle_rows"] = len(rows)
        report["rel_error"] = float(
            np.linalg.norm(y[rows] - y_ref) / max(np.linalg.norm(y_ref), 1e-300)
        )
    if args.out:
        with _text_out(args.out) as fh:
            fh.writelines(f"{float(v)!r}\n" for v in y)
    _json_dump(report, args.summary)
    return 0


def cmd_commsim(args) -> int:
    _check_writable(args.out, args.summary)
    kind = _dist_kind(args.dist)
    P_values = _int_list("--P", args.P)
    NP_values = _int_list("--n-per-p", args.n_per_p)
    spec = DistributionSpec(kind, max(NP_values), args.seed)
    counting, mode, leaf_capacity = resolve_counting(kind, args.mode, args.leaf_capacity)
    reports = run_comm_experiment(spec, P_values, NP_values, mode, args.model, leaf_capacity)
    for rep in reports:
        rep.check_conservation()
    with _text_out(args.out) as fh:
        write_reports_csv(reports, fh)
    fits = {}
    if args.model == "hier" and len(reports) >= 4:
        reports.sort(key=lambda rep: (rep.P, rep.n_per_p))  # fit_scaling takes ascending x
        xs_p = [rep.P for rep in reports]
        xs_np = [rep.n_per_p for rep in reports]
        if len(set(xs_p)) == len(xs_p) and len(set(xs_np)) == 1:
            series = [(rep.P, rep.global_volume_max()) for rep in reports]
            if all(v > 0 for _, v in series):
                f = fit_scaling(series, log_base=8.0)
                fits["global_volume_vs_P"] = {
                    "log8_slope": f.log_slope,
                    "log_r2": f.log_r2,
                    "power_exponent": f.exponent,
                }
            for name in ("global-m2m", "global-m2l"):
                series = [(rep.P, rep.phase(name).max_recv) for rep in reports]
                if all(v > 0 for _, v in series):
                    f = fit_scaling(series, log_base=8.0)
                    fits[name] = {"log8_slope": f.log_slope, "log_r2": f.log_r2}
        elif len(set(xs_np)) == len(xs_np) and len(set(xs_p)) == 1:
            for name in ("local-m2l", "local-p2p"):
                series = [(rep.n_per_p, rep.phase(name).max_recv) for rep in reports]
                if all(v > 0 for _, v in series):
                    f = fit_scaling(series, log_base=8.0)
                    fits[name] = {"power_exponent": f.exponent, "power_r2": f.exponent_r2}
    summary = {
        "config": {
            "dist": kind,
            "P": P_values,
            "n_per_p": NP_values,
            "mode": mode,
            "model": args.model,
            "counting": counting,
            "leaf_capacity": leaf_capacity,
            "seed": args.seed,
            "format_version": 1,
        },
        "fits": fits,
    }
    _json_dump(summary, args.summary)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="h2fmm",
        description="Octrees, H2 kernel-matrix compression, and communication counting",
    )
    parser.add_argument("--version", action="version", version=f"h2fmm {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a particle distribution file")
    p.add_argument("--dist", required=True, help="random | surface | plummer")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("csv", "bin"), default="csv")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("tree-stats", help="depth table over an n sweep")
    p.add_argument("--dists", default="random,surface,plummer")
    p.add_argument("--n-values", required=True, help="comma-separated ascending counts")
    p.add_argument("--leaf-capacity", type=int, default=DEFAULT_LEAF_CAPACITY)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_tree_stats)

    p = sub.add_parser("compress", help="build an H2 matrix and write the container")
    p.add_argument("--in", dest="infile", default=None, help="particle CSV or .bin file")
    p.add_argument("--dist", default="random")
    p.add_argument("--n", type=int, default=2048)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--kernel", default="laplace3d")
    p.add_argument("--delta", type=float, default=0.0, help="kernel regularization")
    p.add_argument("--sigma", type=float, default=1.0, help="gaussian width")
    p.add_argument("--eps", type=float, default=1e-6)
    p.add_argument("--leaf-capacity", type=int, default=DEFAULT_LEAF_CAPACITY)
    p.add_argument("--balance", action=argparse.BooleanOptionalAction, default=False)
    p.add_argument("--out", default=None, help="H2 container path")
    p.add_argument("--summary", default=None, help="JSON report path (default stdout)")
    p.set_defaults(func=cmd_compress)

    p = sub.add_parser("matvec", help="apply a stored H2 matrix to a vector")
    p.add_argument("--matrix", required=True)
    p.add_argument("--x", default=None, help="CSV vector; default seeded random")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--oracle", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--out", default=None, help="output vector CSV")
    p.add_argument("--summary", default=None)
    p.set_defaults(func=cmd_matvec)

    p = sub.add_parser("commsim", help="communication-count sweeps and fits")
    p.add_argument("--dist", default="random")
    p.add_argument("--P", required=True, help="comma-separated process counts")
    p.add_argument("--n-per-p", required=True, help="comma-separated N/P values")
    p.add_argument("--mode", choices=MODES, help="default: the engine's own")
    p.add_argument("--model", choices=("hier", "direct"), default="hier")
    p.add_argument("--leaf-capacity", type=int, help=f"default: 1 uniform, {DEFAULT_LEAF_CAPACITY} general")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="CSV path (default stdout)")
    p.add_argument("--summary", default=None, help="fit JSON path (default stdout)")
    p.set_defaults(func=cmd_commsim)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
        return code
    except BrokenPipeError:  # the reader stopped reading: not an error
        with contextlib.suppress(AttributeError, OSError, ValueError):  # no descriptor: leave it
            fd = sys.stdout.fileno()
            os.dup2(os.open(os.devnull, os.O_WRONLY), fd)  # later flushes go to devnull
        return 0
    except (ConfigurationError, ContainerError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:  # an unwritable or missing path
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (PrecisionLimitError, PartitionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except AssertionError as exc:
        print(f"internal invariant failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
