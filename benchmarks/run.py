"""Run one benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload matvec-cube [--seed 1] [--seconds 25] [--trace 0|1]
    python3 benchmarks/run.py --workload all     # every workload, one process each

Run from the root of a source checkout; the library is imported from its
``src/`` directory.  With ``--trace 0`` the last line of standard output
is a JSON object holding the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced run.  The full record (metadata, samples
and, when traced, the spans) is written to ``.bench_out/``.
"""
from __future__ import annotations

import os

# Single-threaded BLAS, fixed before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"


def _blas():
    """BLAS library and the thread count the loaded library reports."""
    import numpy as np

    info = {"threads_env": os.environ["OPENBLAS_NUM_THREADS"], "threads": None}
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    info["name"] = blas.get("name")
    info["version"] = blas.get("version")
    libdir = pathlib.Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libdir.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                break
    return info


def main(argv=None) -> int:
    if not (SRC / "h2fmm" / "__init__.py").is_file():
        print(f"benchmark: no library source at {SRC / 'h2fmm'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np

    import h2fmm
    import workloads

    if not pathlib.Path(h2fmm.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"benchmark: h2fmm imported from {h2fmm.__file__}, not {SRC}", file=sys.stderr)
        return 2

    ap = argparse.ArgumentParser(description="h2fmm benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        # One fresh process per workload, so each peak RSS is its own.
        codes = [
            subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)]
            ).returncode
            for name in workloads.WORKLOADS
        ]
        return max(codes)

    OUT.mkdir(exist_ok=True)
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "params": workloads.WORKLOADS[args.workload],
        "numpy": np.__version__,
        "python": platform.python_version(),
        "blas": _blas(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
    }
    print("# meta " + json.dumps(meta, sort_keys=True))
    result = workloads.run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), workdir=OUT
    )
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{tag}.json").write_text(json.dumps(dict(result, meta=meta), indent=1))

    for name, m in result["stages"].items():
        extra = f"  (median of {m['samples']})" if "samples" in m else ""
        print(f"# {name:<28} {m['value']:.6g} {m['unit']}{extra}")
    for name, m in result["metrics"].items():
        print(f"{name:<40} {m['value']:.6g} {m['unit']}")
    if args.trace:
        m = {k: v["value"] for k, v in result["metrics"].items()}
        print(
            f"# traced round: layer self times sum to {m['trace.self_sum_s']:.4f} s against "
            f"{m['trace.untraced_round_s']:.4f} s untraced; tracing overhead {m['trace.overhead_s']:+.4f} s"
        )
    for what in result["failures"]:
        print(f"# FAILED: {what}")
    summary = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(summary))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
