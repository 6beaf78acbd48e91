"""Benchmark workloads: generated inputs, closed-loop rounds, output checks.

Each workload runs in one process with one caller (a closed loop).  It
sets up, then repeats rounds of timed library calls until the requested
number of seconds has passed, at least one round.  Every round's outputs
are checked, and a failed check counts as a failed operation.

A traced run sets up once with tracing on and, after any warm-up round,
alternates one untraced and one traced round (one call of each operation
per round), so the difference between the two is the tracing overhead.
"""
from __future__ import annotations

import hashlib
import json
import pathlib
import resource
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext

import numpy as np

import h2fmm
from h2fmm import commsim, h2
from h2fmm import tree as octree
from tracer import END, START, STOP, Tracer

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden.json"

WORKLOADS = {
    "matvec-cube": {
        "dist": "random-cube",
        "n": 8192,
        "leaf": 16,
        "balance": False,
        "kernel": "laplace3d",
        "delta": 1e-2,
        "eps": 1e-6,
        "setup_reps": 1,  # set-up holds a compress, too dear to repeat
        "setup_reps_per_round": 0,
        "warmup_rounds": 1,
        "matvecs_per_round": 4,
        "sample_rows": 256,
    },
    "compress-sphere": {
        "dist": "sphere-surface",
        "n": 8192,
        "leaf": 16,
        "balance": True,
        "kernel": "laplace3d",
        "delta": 1e-2,
        "eps": 1e-4,
        "setup_reps": 10,
        "setup_reps_per_round": 10,
        "warmup_rounds": 1,
        "matvecs_per_round": 10,
        "sample_rows": 256,
    },
    "comm-plummer": {
        "dist": "plummer",
        "n": 262144,
        "leaf": 16,
        "balance": True,
        "model": "hier",
        "P": [8, 4096],
        "setup_reps": 3,
        "setup_reps_per_round": 0,
        "warmup_rounds": 0,  # a round takes 20 s; the set-ups warm the heap
    },
}

# Sizes for the benchmark's own test: the same code paths in seconds.
SMOKE = {
    "matvec-cube": dict(WORKLOADS["matvec-cube"], n=1024),
    "compress-sphere": dict(WORKLOADS["compress-sphere"], n=1024, setup_reps=2, setup_reps_per_round=1),
    "comm-plummer": dict(WORKLOADS["comm-plummer"], n=8192, P=[8, 64], setup_reps=2),
}

COMM_PHASES = commsim.PHASES
MATVEC_PHASES = ("upsweep", "coupling", "downsweep", "dense")
STORAGE = ("leaf_bases", "transfers", "coupling", "dense")


def _size(out):
    return out.size


# Names the traced sections rebind: (module, attribute, span, work count).
PATCHES = (
    (h2, "kernel_block", "kernels.block", _size),
    (h2, "build_block_tree", "h2.block_tree", None),
    (h2, "upsweep", "h2.upsweep", None),
    (h2, "coupling", "h2.coupling", None),
    (h2, "downsweep", "h2.downsweep", None),
    (h2, "dense_apply", "h2.dense", None),
    (octree, "points_to_keys", "morton.points_to_keys", None),
    (octree, "encode_cells", "morton.encode_cells", None),
    (commsim, "encode_cells", "morton.encode_cells", None),
    (commsim, "leaf_adjacency_pairs", "tree.adjacency", None),
    (commsim, "split_global_local", "commsim.split", None),
) + tuple(
    (commsim, "sim_" + ph.replace("-", "_"), "commsim." + ph, None) for ph in COMM_PHASES
)


class Run:
    """Timings, checks, facts and (when traced) spans of one run."""

    def __init__(self):
        self.tracer = Tracer()
        self.samples = defaultdict(list)  # span name -> seconds per call
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.facts = {}

    @contextmanager
    def untimed(self):
        """Run calls whose timings are dropped, as in a warm-up round."""
        kept, self.samples = self.samples, defaultdict(list)
        try:
            yield
        finally:
            self.samples = kept

    @contextmanager
    def timed(self, name):
        with self.tracer.span(name):
            t0 = time.perf_counter()
            yield
            self.samples[name].append(time.perf_counter() - t0)

    def call(self, name, fn, *args):
        with self.timed(name):
            return fn(*args)

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)

    def tracing(self, on):
        return self.tracer.patched(PATCHES) if on else nullcontext()


def rows_sha256(report):
    """sha256 of the per-process count rows, formatted as the CSV writes them."""
    digest = hashlib.sha256()
    for row in report.rows():
        digest.update((",".join(str(v) for v in row) + "\n").encode())
    return digest.hexdigest()


def _tree(run, p, seed):
    particles = run.call(
        "geometry.generate", h2fmm.generate, h2fmm.DistributionSpec(p["dist"], p["n"], seed)
    )
    tree = run.call("tree.build", h2fmm.build_tree, particles, p["leaf"])
    unbalanced = tree.n_leaves
    if p["balance"]:
        tree = run.call("tree.balance", h2fmm.balance_2to1, tree)
    run.facts.update(
        {
            "tree.leaves": tree.n_leaves,
            "tree.depth": tree.depth,
            "tree.balance_added_leaves": tree.n_leaves - unbalanced,
        }
    )
    return particles, tree


class _H2Workload:
    """Shared input vector and checks of the two H2 workloads."""

    def __init__(self, p, seed, workdir):
        self.p = p
        self.seed = seed
        self.kernel = h2fmm.KernelSpec(p["kernel"], regularization=p["delta"])
        self.x = np.random.default_rng([seed, 0]).standard_normal(p["n"])

    def _check_matrix(self, run, m, y):
        """Sampled exact rows at 10*eps, and the phases summing to ``matvec``."""
        rng = np.random.default_rng([self.seed, 1])
        rows = rng.choice(self.p["n"], size=min(self.p["sample_rows"], self.p["n"]), replace=False)
        pos = self.particles.positions
        exact = h2fmm.kernel_block(self.kernel, pos[rows], pos) @ self.x
        err = float(np.linalg.norm(y[rows] - exact) / np.linalg.norm(exact))
        run.check(err <= 10 * self.p["eps"], f"sampled-row relative error {err:.3e} > 10*eps")
        parts = h2fmm.dense_apply(m, self.x) + h2fmm.downsweep(
            m, h2fmm.coupling(m, h2fmm.upsweep(m, self.x))
        )
        run.check(np.array_equal(parts, y), "dense + downsweep(coupling(upsweep)) != matvec")
        flops = h2fmm.flop_report(m)
        storage = h2fmm.storage_report(m)
        run.facts.update(
            {
                "h2.lowrank_blocks": m.blocks.n_lowrank,
                "h2.dense_blocks": m.blocks.n_dense,
                "h2.rank_max": int(m.row_basis.ranks.max()),
            }
        )
        run.facts.update({f"h2.{ph}_macs": flops[ph] for ph in MATVEC_PHASES})
        run.facts.update({f"h2.storage_{c}_bytes": storage[c] for c in STORAGE})

    def close(self):
        pass


class MatvecCube(_H2Workload):
    """Compress in set-up; rounds of save, load and matvecs on the loaded copy."""

    primary, secondary = "h2.matvec", "h2io.roundtrip"
    stages = {"matvec_s": "h2.matvec", "save_s": "h2io.save", "load_s": "h2io.load",
              "roundtrip_s": "h2io.roundtrip", "compress_s": "h2.compress"}

    def __init__(self, p, seed, workdir):
        super().__init__(p, seed, workdir)
        self.path = workdir / f"matvec-cube-{seed}.h2"

    def setup(self, run):
        self.particles, tree = _tree(run, self.p, self.seed)
        self.m = run.call("h2.compress", h2fmm.compress, tree, self.kernel, self.p["eps"])

    def check_setup(self, run):
        self.y = h2fmm.matvec(self.m, self.x)
        self._check_matrix(run, self.m, self.y)

    def round(self, run, matvecs):
        with run.timed("h2io.roundtrip"):
            run.call("h2io.save", h2fmm.save_h2, self.m, self.path)
            loaded = run.call("h2io.load", h2fmm.load_h2, self.path)
        return [run.call("h2.matvec", h2fmm.matvec, loaded, self.x) for _ in range(matvecs)]

    def check_round(self, run, ys):
        run.facts["h2io.bytes"] = self.path.stat().st_size
        for y in ys:
            run.check(np.array_equal(y, self.y), "loaded-container matvec != in-memory matvec")

    def close(self):
        self.path.unlink(missing_ok=True)


class CompressSphere(_H2Workload):
    """Tree set-up; rounds of compress followed by a few matvecs."""

    primary, secondary = "h2.compress", "h2.matvec"
    stages = {"compress_s": "h2.compress", "matvec_s": "h2.matvec"}

    def __init__(self, p, seed, workdir):
        super().__init__(p, seed, workdir)
        self.y = None

    def setup(self, run):
        self.particles, self.tree = _tree(run, self.p, self.seed)

    def check_setup(self, run):
        pass

    def round(self, run, matvecs):
        m = run.call("h2.compress", h2fmm.compress, self.tree, self.kernel, self.p["eps"])
        return m, [run.call("h2.matvec", h2fmm.matvec, m, self.x) for _ in range(matvecs)]

    def check_round(self, run, out):
        m, ys = out
        if self.y is None:
            self.y = ys[0]
            self._check_matrix(run, m, self.y)
        for y in ys:
            run.check(np.array_equal(y, self.y), "matvec differs from the first compress's")


class CommPlummer:
    """Tree set-up; rounds of partition and simulate_comm at each P."""

    def __init__(self, p, seed, workdir):
        self.p = p
        self.seed = seed
        self.primary = f"commsim.p{max(p['P'])}"
        self.secondary = f"commsim.p{min(p['P'])}"
        self.stages = {f"commsim_p{P}_s": f"commsim.p{P}" for P in p["P"]}
        self.digests = {}

    def setup(self, run):
        _, self.tree = _tree(run, self.p, self.seed)

    def check_setup(self, run):
        """Byte identity of the count rows on the fixed golden input."""
        golden = json.loads(GOLDEN.read_text())
        g = golden["input"]
        particles = h2fmm.generate(h2fmm.DistributionSpec(g["dist"], g["n"], g["seed"]))
        tree = h2fmm.build_tree(particles, g["leaf"])
        if g["balance"]:
            tree = h2fmm.balance_2to1(tree)
        for P, want in golden["rows_sha256"].items():
            part = h2fmm.partition_sfc(tree, int(P))
            rep = h2fmm.simulate_comm(tree, part, g["dist"], g["seed"], g["model"])
            run.check(rows_sha256(rep) == want, f"golden count rows differ at P={P}")

    def run_p(self, run, P):
        with run.timed(f"commsim.p{P}"):
            part = run.call("commsim.partition", h2fmm.partition_sfc, self.tree, P)
            return run.call(
                "commsim.simulate", h2fmm.simulate_comm, self.tree, part,
                self.p["dist"], self.seed, self.p["model"],
            )

    def round(self, run, matvecs):
        return {P: self.run_p(run, P) for P in self.p["P"]}

    def check_round(self, run, reports):
        for P, rep in reports.items():
            try:
                rep.check_conservation()
                conserved = True
            except AssertionError:
                conserved = False
            run.check(conserved, f"P={P}: cells sent != cells received")
            digest = self.digests.setdefault(P, rows_sha256(rep))
            run.check(rows_sha256(rep) == digest, f"P={P}: count rows differ between rounds")
            for name, ph in rep.phases.items():
                run.facts[f"commsim.{name}.max_recv.p{P}"] = ph.max_recv
                run.facts[f"commsim.{name}.total_recv.p{P}"] = ph.total_recv
                run.facts[f"commsim.{name}.max_partners.p{P}"] = int(ph.partners.max())

    def close(self):
        pass


CLASSES = {"matvec-cube": MatvecCube, "compress-sphere": CompressSphere, "comm-plummer": CommPlummer}


def peak_rss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Metric tables

END_TO_END = (
    ("setup_s", "s"),
    ("primary_op_s", "s"),
    ("secondary_op_s", "s"),
    ("peak_rss_mb", "MiB"),
)


def per_layer_table(P_values):
    """(name, unit, better) of every per-layer metric, in print order."""
    t = [
        ("geometry.generate_s", "s", "lower"),
        ("tree.build_s", "s", "lower"),
        ("tree.balance_s", "s", "lower"),
        ("tree.leaves", "count", "lower"),
        ("tree.depth", "count", "lower"),
        ("tree.balance_added_leaves", "count", "lower"),
        ("tree.adjacency_calls", "count", "lower"),
        ("tree.adjacency_s", "s", "lower"),
        ("morton.encode_calls", "count", "lower"),
        ("morton.encode_s", "s", "lower"),
        ("morton.points_to_keys_s", "s", "lower"),
        ("kernels.evals", "count", "lower"),
        ("kernels.evals_per_particle", "count", "lower"),
        ("kernels.block_s", "s", "lower"),
        ("h2.block_tree_s", "s", "lower"),
        ("h2.compress_other_s", "s", "lower"),
        ("h2.lowrank_blocks", "count", "lower"),
        ("h2.dense_blocks", "count", "lower"),
        ("h2.rank_max", "count", "lower"),
    ]
    for ph in MATVEC_PHASES:
        t += [
            (f"h2.{ph}_s", "s", "lower"),
            (f"h2.{ph}_macs", "count", "lower"),
            (f"h2.{ph}_gmacs", "GMAC/s", "higher"),
        ]
    t += [(f"h2.storage_{c}_bytes", "bytes", "lower") for c in STORAGE]
    t += [("h2io.bytes", "bytes", "lower"), ("h2io.save_s", "s", "lower"), ("h2io.load_s", "s", "lower")]
    for P in P_values:
        t += [(f"commsim.partition_s.p{P}", "s", "lower"), (f"commsim.split_s.p{P}", "s", "lower")]
        t += [(f"commsim.{ph}_s.p{P}", "s", "lower") for ph in COMM_PHASES]
        for ph in COMM_PHASES:
            t += [
                (f"commsim.{ph}.max_recv.p{P}", "count", "lower"),
                (f"commsim.{ph}.total_recv.p{P}", "count", "lower"),
                (f"commsim.{ph}.max_partners.p{P}", "count", "lower"),
            ]
    t += [
        ("trace.untraced_round_s", "s", "lower"),
        ("trace.traced_round_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("trace.self_sum_s", "s", "lower"),
        ("trace.spans", "count", "lower"),
    ]
    return t


def _layer_values(run, p, setup_index, round_index, untraced_s):
    """Per-layer metrics of one traced pass: set-up plus one traced round."""
    tracer = run.tracer
    sums = defaultdict(lambda: [0.0, 0, 0])
    for index in (setup_index, round_index):
        for name, (self_s, calls, work) in tracer.summary(index).items():
            acc = sums[name]
            acc[0] += self_s
            acc[1] += calls
            acc[2] += work

    def self_s(name):
        return sums[name][0] if name in sums else 0.0

    def calls(name):
        return sums[name][1] if name in sums else 0

    m = dict(run.facts)
    m["geometry.generate_s"] = self_s("geometry.generate")
    m["tree.build_s"] = self_s("tree.build")
    m["tree.balance_s"] = self_s("tree.balance")
    m["tree.adjacency_calls"] = calls("tree.adjacency")
    m["tree.adjacency_s"] = self_s("tree.adjacency")
    m["morton.encode_calls"] = calls("morton.encode_cells")
    m["morton.encode_s"] = self_s("morton.encode_cells")
    m["morton.points_to_keys_s"] = self_s("morton.points_to_keys")
    evals = sums["kernels.block"][2] if "kernels.block" in sums else 0
    m["kernels.evals"] = evals
    m["kernels.evals_per_particle"] = evals / p["n"]
    m["kernels.block_s"] = self_s("kernels.block")
    m["h2.block_tree_s"] = self_s("h2.block_tree")
    m["h2.compress_other_s"] = self_s("h2.compress")
    for ph in MATVEC_PHASES:
        t = self_s(f"h2.{ph}")
        m[f"h2.{ph}_s"] = t
        macs = m.get(f"h2.{ph}_macs", 0) * calls(f"h2.{ph}")
        m[f"h2.{ph}_gmacs"] = macs / t / 1e9 if t > 0 else 0.0
    m["h2io.save_s"] = self_s("h2io.save")
    m["h2io.load_s"] = self_s("h2io.load")
    for P in p.get("P", ()):
        suffix = f"p{P}"
        (i,) = tracer.find(f"commsim.{suffix}", round_index)
        per_p = tracer.summary(i)
        m[f"commsim.partition_s.{suffix}"] = per_p["commsim.partition"][0]
        m[f"commsim.split_s.{suffix}"] = per_p["commsim.split"][0]
        for ph in COMM_PHASES:
            m[f"commsim.{ph}_s.{suffix}"] = per_p[f"commsim.{ph}"][0]
    spans = tracer.spans
    round_span = spans[round_index]
    in_round = tracer.summary(round_index)
    m["trace.untraced_round_s"] = untraced_s
    m["trace.traced_round_s"] = round_span[END] - round_span[START]
    m["trace.overhead_s"] = m["trace.traced_round_s"] - untraced_s
    # Self times of every layer span in the round, without the round's own glue.
    m["trace.self_sum_s"] = sum(v[0] for k, v in in_round.items() if k != "round")
    m["trace.spans"] = (spans[setup_index][STOP] - setup_index) + (round_span[STOP] - round_index)
    return m


# ---------------------------------------------------------------------------
# Running a workload


def run_workload(name, seed=1, seconds=0.0, trace=False, params=None, workdir="."):
    """Run one workload and return its result record.

    ``seconds`` is about how long the round loop runs; at least one round
    (in a traced run, one untraced and one traced round) always runs.
    Warm-up rounds, with one matvec each, run first, untimed: the first
    large allocations of a process fault in fresh pages, which makes a
    first compress about 15% slower.
    """
    p = WORKLOADS[name] if params is None else params
    run = Run()
    wl = CLASSES[name](p, seed, pathlib.Path(workdir))
    setup_s, round_s, passes = [], [], []
    per_round = 1 if trace else p.get("matvecs_per_round", 1)

    def set_up():
        t0 = time.perf_counter()
        wl.setup(run)
        setup_s.append(time.perf_counter() - t0)

    def one_round(matvecs=per_round):
        # Outputs are dropped on return, so a round never holds the last one's.
        t0 = time.perf_counter()
        out = wl.round(run, matvecs)
        elapsed = time.perf_counter() - t0
        wl.check_round(run, out)
        return elapsed

    try:
        for _ in range(1 if trace else p["setup_reps"]):
            with run.tracing(trace), run.tracer.span("setup"):
                set_up()
        setup_index = 0
        wl.check_setup(run)
        with run.untimed():
            for _ in range(p["warmup_rounds"]):
                one_round(1)
        t_loop = time.perf_counter()
        while True:
            t_pass = time.perf_counter()
            round_s.append(one_round())
            if trace:
                round_index = len(run.tracer.spans)
                with run.tracing(True), run.tracer.span("round"):
                    one_round()
                passes.append(_layer_values(run, p, setup_index, round_index, round_s[-1]))
            else:
                # More set-ups between rounds sample the machine at other moments.
                for _ in range(p["setup_reps_per_round"]):
                    set_up()
            # Stop where one more pass would overrun the window by over half a pass,
            # so a run lasts about ``seconds`` whatever the length of its rounds.
            now = time.perf_counter()
            if now - t_loop + (now - t_pass) / 2 >= seconds:
                break
    finally:
        wl.close()

    def med(key):
        return statistics.median(run.samples[key])

    if trace:
        table = per_layer_table(p.get("P", WORKLOADS["comm-plummer"]["P"]))
        metrics = {
            n: {"value": statistics.median(v.get(n, 0) for v in passes), "unit": u}
            for n, u, _ in table
        }
    else:
        values = {
            "setup_s": statistics.median(setup_s),
            "primary_op_s": med(wl.primary),
            "secondary_op_s": med(wl.secondary),
            "peak_rss_mb": peak_rss_mib(),
        }
        metrics = {n: {"value": values[n], "unit": u} for n, u in END_TO_END}
    # Untraced timings under the stage names a reader knows them by.
    stages = {}
    if not trace:
        stages = {stage: {"value": med(key), "unit": "s", "samples": len(run.samples[key])}
                  for stage, key in wl.stages.items()}
        if "h2io.bytes" in run.facts:
            stages["container_mb"] = {"value": run.facts["h2io.bytes"] / 2**20, "unit": "MiB"}
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
        "stages": stages,
        "failures": run.failures,
        "samples": dict(run.samples),
        "setup_samples": setup_s,
        "round_samples": round_s,
        "spans": run.tracer.dump() if trace else [],
    }
