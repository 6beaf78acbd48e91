import json
import os
import stat
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from h2fmm import cli
from h2fmm.cli import main
from h2fmm.commsim import CommReport
from h2fmm.geometry import DistributionSpec, generate
from h2fmm.h2 import matvec
from h2fmm.h2io import VERSION, decode, load_h2
from h2fmm.kernels import kernel_block
from h2fmm.tree import balance_2to1, build_tree


def run(args):
    return main(list(args))


def test_gen_deterministic_bytes(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert run(["gen", "--dist", "random", "--n", "1000", "--seed", "1", "--out", str(a)]) == 0
    assert run(["gen", "--dist", "random", "--n", "1000", "--seed", "1", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    c = tmp_path / "c.bin"
    d = tmp_path / "d.bin"
    run(["gen", "--dist", "plummer", "--n", "500", "--seed", "2", "--out", str(c), "--format", "bin"])
    run(["gen", "--dist", "plummer", "--n", "500", "--seed", "2", "--out", str(d), "--format", "bin"])
    assert c.read_bytes() == d.read_bytes()


def test_gen_zero_count_usage_error(tmp_path):
    assert run(["gen", "--dist", "plummer", "--n", "0", "--out", str(tmp_path / "x.csv")]) == 2


def test_gen_unknown_dist_usage_error(tmp_path):
    assert run(["gen", "--dist", "spiral", "--n", "10", "--out", str(tmp_path / "x.csv")]) == 2


def test_gen_surface_row_count(tmp_path):
    out = tmp_path / "s.csv"
    assert run(["gen", "--dist", "surface", "--n", "4096", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 4097
    assert lines[0] == "index,x,y,z,charge"


def test_tree_stats_table(tmp_path):
    out = tmp_path / "depth.csv"
    rc = run(
        [
            "tree-stats",
            "--dists",
            "random,surface,plummer",
            "--n-values",
            "1024,4096,16384",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "distribution,n,depth"
    assert len(lines) == 1 + 3 * 3
    random_rows = [l for l in lines[1:] if l.startswith("random-cube,")]
    depths = [int(l.split(",")[2]) for l in random_rows]
    assert depths == sorted(depths)


def test_tree_stats_default_capacity_is_16(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    run(["tree-stats", "--dists", "random", "--n-values", "1024,2048", "--out", str(a)])
    run(
        [
            "tree-stats",
            "--dists",
            "random",
            "--n-values",
            "1024,2048",
            "--leaf-capacity",
            "16",
            "--out",
            str(b),
        ]
    )
    assert a.read_text() == b.read_text()


@pytest.fixture(scope="module")
def compressed(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("h2cli")
    container = tmp / "m.h2"
    summary = tmp / "c.json"
    rc = main(
        [
            "compress",
            "--dist",
            "random",
            "--n",
            "512",
            "--seed",
            "1",
            "--kernel",
            "laplace3d",
            "--delta",
            "1e-2",
            "--eps",
            "1e-5",
            "--out",
            str(container),
            "--summary",
            str(summary),
        ]
    )
    assert rc == 0
    return container, summary


def test_compress_summary(compressed):
    container, summary = compressed
    report = json.loads(summary.read_text())
    assert report["config"]["n"] == 512
    assert report["config"]["format_version"] == VERSION
    assert report["summary"]["lowrank_blocks"] > 0
    assert report["summary"]["storage"]["total"] > 0


def test_matvec_oracle_error_bound(compressed, tmp_path):
    container, _ = compressed
    summary = tmp_path / "mv.json"
    rc = run(["matvec", "--matrix", str(container), "--summary", str(summary)])
    assert rc == 0
    report = json.loads(summary.read_text())
    assert report["rel_error"] <= 1e-4
    assert "matvec_s" in report["timings"]


def test_matvec_oracle_every_row_at_small_n(tmp_path):
    # At N <= 256 the sampled rows are every row, so the error is the full matrix's.
    container, summary = tmp_path / "s.h2", tmp_path / "s.json"
    flags = ["--n", "200", "--seed", "1", "--delta", "1e-2", "--eps", "1e-2", "--out", str(container)]
    assert run(["compress"] + flags + ["--summary", str(tmp_path / "c.json")]) == 0
    assert run(["matvec", "--matrix", str(container), "--seed", "3", "--summary", str(summary)]) == 0
    report = json.loads(summary.read_text())
    m = load_h2(container)
    pos = m.octree.particles.positions[np.argsort(m.octree.order)]
    x = np.random.Generator(np.random.PCG64(3)).standard_normal(m.n)
    ref = kernel_block(m.kernel, pos, pos) @ x
    full = np.linalg.norm(matvec(m, x) - ref) / np.linalg.norm(ref)
    assert report["config"]["oracle_rows"] == 200
    assert full > 1e-6  # well above rounding, so 1e-12 compares the errors and not the noise
    assert report["rel_error"] == pytest.approx(full, rel=1e-12)


@pytest.mark.parametrize("block", [None, 9 * 512 + 100])  # the default, and 9 rows a block
def test_matvec_oracle_blocks(compressed, tmp_path, monkeypatch, block):
    container, _ = compressed
    if block:
        monkeypatch.setattr(cli, "ORACLE_BLOCK", block)
    blocks = []

    def recording(spec, points_a, points_b):
        blocks.append((points_a, points_b))
        return kernel_block(spec, points_a, points_b)

    monkeypatch.setattr(cli, "kernel_block", recording)
    summary = tmp_path / "mv.json"
    assert run(["matvec", "--matrix", str(container), "--summary", str(summary)]) == 0
    assert json.loads(summary.read_text())["config"]["oracle_rows"] == 256
    assert all(len(a) * len(b) <= (block or 2**20) and b.shape == (512, 3) for a, b in blocks)
    assert len(blocks) == (29 if block else 1)
    rows = np.concatenate([a for a, _ in blocks])
    assert len(rows) == 256 and len(np.unique(rows, axis=0)) == 256


def test_matvec_oracle_same_seed_same_summary(compressed, tmp_path):
    # The rows are drawn after x, so the oracle leaves x and y as they are.
    container, _ = compressed
    x = tmp_path / "x.csv"
    x.write_text("".join(f"{float(v)!r}\n" for v in np.random.default_rng(5).standard_normal(512)))
    for extra in ([], ["--x", str(x)]):
        reports, outs = [], []
        for oracle in ("--oracle", "--oracle", "--no-oracle"):
            out, summary = tmp_path / f"y{len(outs)}.csv", tmp_path / f"mv{len(outs)}.json"
            flags = ["--seed", "7", *extra, oracle, "--out", str(out), "--summary", str(summary)]
            assert run(["matvec", "--matrix", str(container)] + flags) == 0
            reports.append(json.loads(summary.read_text()))
            outs.append(out.read_bytes())
            reports[-1].pop("timings")
        assert reports[0] == reports[1] and outs[0] == outs[1] == outs[2]
        assert 0 < reports[0].pop("rel_error") <= 1e-4
        assert reports[0]["config"].pop("oracle_rows") == 256
        reports[0]["config"]["oracle"] = False
        assert reports[0] == reports[2]


def test_matvec_oracle_ignores_old_size_limit(compressed, tmp_path, monkeypatch):
    # The dense oracle refused N = 512 here with exit 3; sampled rows have no size limit.
    container, _ = compressed
    monkeypatch.setenv("H2FMM_ORACLE_MAX", "100")
    summary = tmp_path / "mv.json"
    assert run(["matvec", "--matrix", str(container), "--summary", str(summary)]) == 0
    assert json.loads(summary.read_text())["rel_error"] <= 1e-4


def test_matvec_no_oracle_field(compressed, tmp_path):
    container, _ = compressed
    summary = tmp_path / "mv.json"
    rc = run(["matvec", "--matrix", str(container), "--no-oracle", "--summary", str(summary)])
    assert rc == 0
    report = json.loads(summary.read_text())
    assert "rel_error" not in report
    assert report["config"]["format_version"] == VERSION
    assert "deterministic" not in report["config"]


def test_matvec_deterministic_output(compressed, tmp_path):
    container, _ = compressed
    outs = []
    for name in ("y1.csv", "y2.csv"):
        out = tmp_path / name
        rc = run(
            [
                "matvec",
                "--matrix",
                str(container),
                "--seed",
                "7",
                "--out",
                str(out),
                "--summary",
                str(tmp_path / (name + ".json")),
            ]
        )
        assert rc == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_matvec_phase_timings(compressed, tmp_path):
    # The phases are timed one by one; the report outside "timings" and
    # the output vector stay exactly those of one matvec call.
    container, _ = compressed
    reports, outs = [], []
    for k in range(2):
        out, summary = tmp_path / f"y{k}.csv", tmp_path / f"mv{k}.json"
        flags = ["--seed", "7", "--no-oracle", "--out", str(out), "--summary", str(summary)]
        assert run(["matvec", "--matrix", str(container)] + flags) == 0
        reports.append(json.loads(summary.read_text()))
        outs.append(out.read_bytes())
    timings = [r.pop("timings") for r in reports]
    assert reports[0] == reports[1] and outs[0] == outs[1]
    m = load_h2(container)
    x = np.random.Generator(np.random.PCG64(7)).standard_normal(m.n)
    assert outs[0] == "".join(f"{float(v)!r}\n" for v in matvec(m, x)).encode()
    phases = ("dense", "upsweep", "coupling", "downsweep")
    for t in timings:
        assert set(t) == {"matvec_s", "plan_s"} | {f"{p}_{u}" for p in phases for u in ("s", "gmacs")}
        assert t["matvec_s"] == sum(t[f"{p}_s"] for p in phases)
        assert t["plan_s"] > 0
        for p in phases:
            assert t[f"{p}_s"] > 0
            assert t[f"{p}_gmacs"] == reports[0]["flops"][p] / t[f"{p}_s"] / 1e9


def test_matvec_deterministic_flag_removed(compressed, tmp_path, capsys):
    container, _ = compressed
    with pytest.raises(SystemExit) as exc:
        run(["matvec", "--matrix", str(container), "--deterministic"])
    assert exc.value.code == 2


@pytest.mark.parametrize("damage", ["truncated", "trailing", "version1", "missing"])
def test_matvec_broken_container_exit_code(compressed, tmp_path, capsys, damage):
    container, _ = compressed
    raw = container.read_bytes()
    bad = tmp_path / "bad.h2"
    if damage == "truncated":
        bad.write_bytes(raw[: len(raw) // 2])
    elif damage == "trailing":
        bad.write_bytes(raw + bytes(8))
    elif damage == "version1":
        bad.write_bytes(raw[:4] + (1).to_bytes(4, "little") + raw[8:])
    rc = run(["matvec", "--matrix", str(bad), "--no-oracle", "--summary", str(tmp_path / "s.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("kernel", ["laplace3d", "laplace2d"])
def test_compress_singular_kernel_without_delta_rejected(tmp_path, capsys, kernel):
    out = tmp_path / "m.h2"
    rc = run(["compress", "--n", "300", "--kernel", kernel, "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "flags",
    [
        ["--eps", "0"], ["--eps", "-1"], ["--eps", "nan"], ["--sigma", "1e-300"], ["--sigma", "1e200"],
        ["--kernel", "laplace3d", "--delta", "1e-200"], ["--kernel", "laplace3d", "--delta", "1e300"],
    ],
)
def test_compress_out_of_range_parameters_rejected(tmp_path, capsys, flags):
    out = tmp_path / "m.h2"
    rc = run(["compress", "--n", "300", "--kernel", "gaussian", "--out", str(out)] + flags)
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


def test_commsim_zero_leaf_capacity_rejected(tmp_path, capsys):
    out = tmp_path / "o.csv"
    rc = run(["commsim", "--P", "8", "--n-per-p", "64", "--leaf-capacity", "0", "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


def test_commsim_more_processes_than_leaves_exit_code(tmp_path, capsys):
    # 4096 plummer particles fill 1042 leaves of 16: a guard, not a usage error.
    out = tmp_path / "x.csv"
    rc = run(["commsim", "--dist", "plummer", "--P", "4096", "--n-per-p", "1", "--out", str(out)])
    assert rc == 3
    assert capsys.readouterr().err == "error: cannot split 1042 leaves over 4096 processes\n"
    assert not out.exists()


def test_commsim_broken_invariant_exit_code(tmp_path, capsys, monkeypatch):
    def broken(self):
        raise AssertionError("phase global-m2m: sent 1 != recv 2")

    monkeypatch.setattr(CommReport, "check_conservation", broken)
    out = tmp_path / "x.csv"
    rc = run(["commsim", "--dist", "plummer", "--P", "8", "--n-per-p", "64", "--out", str(out)])
    assert rc == 4
    assert capsys.readouterr().err == "internal invariant failure: phase global-m2m: sent 1 != recv 2\n"
    assert not out.exists()


def test_commsim_direct_periodic_stdout(tmp_path, capsys):
    args = ["commsim", "--dist", "random", "--P", "8", "--n-per-p", "512", "--model", "direct"]
    assert run(args + ["--mode", "periodic", "--summary", str(tmp_path / "s.json")]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert len(rows) == 1 + 8
    # Every process is interior: 7 partners and 2484 cells, not the clipped 920.
    assert {tuple(r.split(",")[4:]) for r in rows[1:]} == {
        ("periodic", str(p), "7", "2484", "2484") for p in range(8)
    }


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_matvec_non_finite_vector_rejected(compressed, tmp_path, capsys, bad):
    container, summary = compressed
    n = json.loads(summary.read_text())["config"]["n"]
    x = tmp_path / "x.csv"
    x.write_text("\n".join(["1.0"] * (n - 1) + [bad]) + "\n")
    out = tmp_path / "mv.json"
    rc = run(["matvec", "--matrix", str(container), "--x", str(x), "--summary", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


def test_matvec_one_value_vector(tmp_path):
    # A one-line file reads as a 0-d array; at N = 1 it is the whole vector.
    container, x, y = tmp_path / "one.h2", tmp_path / "x.csv", tmp_path / "y.csv"
    summary = str(tmp_path / "s.json")
    assert run(["compress", "--n", "1", "--delta", "0.01", "--out", str(container), "--summary", summary]) == 0
    x.write_text("2.5\n")
    assert run(["matvec", "--matrix", str(container), "--x", str(x), "--out", str(y), "--summary", summary]) == 0
    assert y.read_text() == f"{float(matvec(load_h2(container), np.array([2.5]))[0])!r}\n"


def test_matvec_vector_length_mismatch_rejected(tmp_path, capsys):
    container, x, summary = tmp_path / "m.h2", tmp_path / "x.csv", tmp_path / "s.json"
    assert run(["compress", "--n", "300", "--delta", "1e-2", "--out", str(container), "--summary", str(summary)]) == 0
    x.write_text("1.0\n2.0\n3.0\n")
    rc = run(["matvec", "--matrix", str(container), "--x", str(x), "--summary", str(summary)])
    assert rc == 2
    assert capsys.readouterr().err == "error: vector length (3,) does not match N=300\n"


def test_compress_balance(tmp_path):
    # At N = 300 the plummer tree gains nodes in balancing; the random cube's does not.
    container, summary = tmp_path / "m.h2", tmp_path / "s.json"
    args = ["compress", "--dist", "plummer", "--n", "300", "--delta", "1e-2", "--balance"]
    assert run(args + ["--out", str(container), "--summary", str(summary)]) == 0
    assert json.loads(summary.read_text())["config"]["balance"] is True
    octree = load_h2(container).octree
    tree = build_tree(generate(DistributionSpec("plummer", 300, 0)), 16)
    assert octree.balanced
    assert octree.n_nodes == balance_2to1(tree).n_nodes > tree.n_nodes


@pytest.mark.parametrize("content", ["1.0,abc\n", None])
def test_matvec_unreadable_vector_rejected(compressed, tmp_path, capsys, content):
    container, _ = compressed
    x = tmp_path / "x.csv"
    if content is not None:
        x.write_text(content)
    rc = run(["matvec", "--matrix", str(container), "--x", str(x), "--summary", str(tmp_path / "s.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("name", ["p.csv", "p.bin"])
def test_compress_bad_particle_file_exit_code(tmp_path, capsys, name):
    bad = tmp_path / name
    bad.write_text("index,x,y,z,charge\n0.1,0.2,abc\n")
    rc = run(["compress", "--in", str(bad), "--kernel", "gaussian", "--summary", str(tmp_path / "s.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize(
    "flag, args",
    [
        ("--P", ["commsim", "--P", "8,abc", "--n-per-p", "64"]),
        ("--P", ["commsim", "--P", "", "--n-per-p", "64"]),
        ("--P", ["commsim", "--P", "0", "--n-per-p", "64"]),
        ("--n-per-p", ["commsim", "--P", "8", "--n-per-p", "64,-1"]),
        ("--n-per-p", ["commsim", "--P", "8", "--n-per-p", "64,,512"]),
        ("--n-values", ["tree-stats", "--n-values", "10,x"]),
    ],
)
def test_list_flags_rejected(tmp_path, capsys, flag, args):
    rc = run(args + ["--out", str(tmp_path / "o.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag} ") and err.count("\n") == 1


def _usage_error(capsys):
    err = capsys.readouterr().err
    return err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


_COMMANDS = {
    "gen": ["gen", "--dist", "plummer", "--n", "100"],
    "tree-stats": ["tree-stats", "--n-values", "100,200"],
    "compress": ["compress", "--n", "300", "--kernel", "gaussian"],
    "commsim": ["commsim", "--dist", "plummer", "--P", "8", "--n-per-p", "64", "--mode", "truncated"],
    "matvec": ["matvec", "--no-oracle"],
}


def _command(name, compressed):
    """A run of subcommand ``name`` that succeeds as it stands."""
    return _COMMANDS[name] + (["--matrix", str(compressed[0])] if name == "matvec" else [])


@pytest.mark.parametrize("name", sorted(_COMMANDS))
def test_negative_seed_rejected(compressed, tmp_path, capsys, name):
    out = tmp_path / "out"
    assert run(_command(name, compressed) + ["--seed", "-1", "--out", str(out)]) == 2
    assert _usage_error(capsys)
    assert not out.exists()


@pytest.mark.parametrize(
    "flags",
    [
        ["--kernel", "laplace3d", "--delta", "inf"],
        ["--kernel", "laplace3d", "--delta", "nan"],
        ["--kernel", "gaussian", "--sigma", "nan"],
        ["--kernel", "gaussian", "--sigma", "inf"],
    ],
)
def test_compress_non_finite_kernel_parameter_rejected(tmp_path, capsys, flags):
    out = tmp_path / "m.h2"
    summary = tmp_path / "s.json"
    rc = run(["compress", "--n", "300", "--out", str(out), "--summary", str(summary)] + flags)
    assert rc == 2
    assert _usage_error(capsys)
    assert not out.exists() and not summary.exists()


@pytest.mark.parametrize("name, flag", [("gen", "--out"), ("compress", "--summary"), ("commsim", "--out"), ("matvec", "--out")])
def test_unwritable_output_path_rejected(compressed, tmp_path, capsys, name, flag):
    missing = tmp_path / "missing" / "out"
    assert run(_command(name, compressed) + [flag, str(missing)]) == 2
    assert _usage_error(capsys)
    assert not missing.parent.exists()


def test_tree_stats_checks_out_before_the_sweep(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "depth_stats", lambda *args: pytest.fail("the sweep ran"))
    assert run(["tree-stats", "--n-values", "100", "--out", str(tmp_path / "missing" / "d.csv")]) == 2
    assert _usage_error(capsys)


@pytest.mark.parametrize("name", ["compress", "matvec", "commsim"])
def test_no_partial_output_when_a_later_path_fails(compressed, tmp_path, capsys, name):
    out, summary = tmp_path / "out", tmp_path / "missing" / "s.json"
    assert run(_command(name, compressed) + ["--out", str(out), "--summary", str(summary)]) == 2
    assert _usage_error(capsys)
    assert list(tmp_path.iterdir()) == []


def test_compress_from_particle_file(tmp_path):
    particles = tmp_path / "p.bin"
    run(["gen", "--dist", "plummer", "--n", "300", "--seed", "4", "--out", str(particles), "--format", "bin"])
    summary = tmp_path / "c.json"
    rc = run(
        [
            "compress",
            "--in",
            str(particles),
            "--kernel",
            "gaussian",
            "--sigma",
            "0.5",
            "--eps",
            "1e-4",
            "--summary",
            str(summary),
        ]
    )
    assert rc == 0
    report = json.loads(summary.read_text())
    assert report["config"]["n"] == 300
    assert report["config"]["kernel"] == "gaussian"


def test_commsim_global_sweep_fits(tmp_path):
    csv = tmp_path / "comm.csv"
    summary = tmp_path / "fits.json"
    rc = run(
        [
            "commsim",
            "--dist",
            "random",
            "--P",
            "8,64,512,4096",
            "--n-per-p",
            "512",
            "--mode",
            "periodic",
            "--out",
            str(csv),
            "--summary",
            str(summary),
        ]
    )
    assert rc == 0
    fits = json.loads(summary.read_text())["fits"]
    # Global M2M ships 7 cells per level: slope vs log8 P within 10% of 7.
    assert abs(fits["global-m2m"]["log8_slope"] - 7.0) <= 0.7
    assert fits["global-m2m"]["log_r2"] > 0.99
    header = csv.read_text().splitlines()[0]
    assert header == "phase,distribution,N,P,mode,process,partners,cells_sent,cells_recv"


def test_commsim_local_sweep_exponent(tmp_path):
    summary = tmp_path / "fits.json"
    rc = run(
        [
            "commsim",
            "--dist",
            "random",
            "--P",
            "64",
            "--n-per-p",
            "512,4096,32768,262144",
            "--mode",
            "periodic",
            "--out",
            str(tmp_path / "c.csv"),
            "--summary",
            str(summary),
        ]
    )
    assert rc == 0
    fits = json.loads(summary.read_text())["fits"]
    assert 0.62 <= fits["local-p2p"]["power_exponent"] <= 0.72


@pytest.mark.parametrize("sweep, fixed", [("--P", ["--n-per-p", "512"]), ("--n-per-p", ["--P", "64"])])
def test_commsim_unsorted_sweep_fits(tmp_path, sweep, fixed):
    # The fits sort the series by x, so the order of the sweep does not matter.
    fits = []
    for values in ("512,8,4096,64", "8,64,512,4096"):
        summary = tmp_path / f"{values}.json"
        assert run(["commsim", sweep, values, *fixed, "--out", os.devnull, "--summary", str(summary)]) == 0
        fits.append(json.dumps(json.loads(summary.read_text())["fits"]))
    assert fits[0] != "{}" and fits[0] == fits[1]


def test_commsim_models_share_metadata_columns(tmp_path):
    paths = {}
    for model in ("hier", "direct"):
        out = tmp_path / f"{model}.csv"
        rc = run(
            [
                "commsim",
                "--dist",
                "random",
                "--P",
                "8,64",
                "--n-per-p",
                "64",
                "--model",
                model,
                "--out",
                str(out),
                "--summary",
                str(tmp_path / f"{model}.json"),
            ]
        )
        assert rc == 0
        paths[model] = out.read_text().splitlines()
    assert paths["hier"][0] == paths["direct"][0]
    assert len(paths["direct"]) == 1 + 8 + 64  # one row per process per P
    meta = lambda line: line.split(",")[1:6]  # noqa: E731
    hier_meta = {tuple(meta(l)) for l in paths["hier"][1:]}
    direct_meta = {tuple(meta(l)) for l in paths["direct"][1:]}
    assert direct_meta and direct_meta <= hier_meta


@pytest.mark.parametrize("name", ["gen", "commsim", "matvec"])
def test_dash_out_is_stdout(compressed, tmp_path, monkeypatch, capsys, name):
    monkeypatch.chdir(tmp_path)
    args = _command(name, compressed) + ([] if name == "gen" else ["--summary", "s.json"])
    assert run(args + ["--out", "file.txt"]) == 0
    capsys.readouterr()
    assert run(args + ["--out", "-"]) == 0
    assert capsys.readouterr().out == (tmp_path / "file.txt").read_text()
    assert not (tmp_path / "-").exists()


@pytest.mark.parametrize(
    "args",
    [
        ["compress", "--n", "300", "--delta", "1e-2"],
        ["gen", "--dist", "plummer", "--n", "100", "--format", "bin"],
    ],
)
def test_binary_out_refuses_stdout(tmp_path, monkeypatch, capsys, args):
    monkeypatch.chdir(tmp_path)
    assert run(args + ["--out", "-"]) == 2
    assert _usage_error(capsys)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("spelling", ["same", "dot", "symlink"])
@pytest.mark.parametrize("name", ["compress", "commsim", "matvec"])
def test_same_out_and_summary_refused(compressed, tmp_path, monkeypatch, capsys, name, spelling):
    # The summary is written last, so it would silently replace the output.
    monkeypatch.chdir(tmp_path)
    summary = {"same": "x", "dot": "./x", "symlink": "link"}[spelling]
    if spelling == "symlink":
        os.symlink("x", "link")
    assert run(_command(name, compressed) + ["--out", "x", "--summary", summary]) == 2
    assert _usage_error(capsys)
    assert sorted(os.listdir(tmp_path)) == (["link"] if spelling == "symlink" else [])


_READS_INPUT = {
    "matvec-matrix-out": (["matvec", "--matrix", "m.h2", "--no-oracle", "--out", "m.h2"], "m.h2"),
    "matvec-matrix-summary": (["matvec", "--matrix", "m.h2", "--no-oracle", "--summary", "./m.h2"], "m.h2"),
    "matvec-matrix-symlink": (["matvec", "--matrix", "m.h2", "--no-oracle", "--out", "link"], "m.h2"),
    "matvec-x-out": (["matvec", "--matrix", "m.h2", "--no-oracle", "--x", "x.csv", "--out", "x.csv"], "x.csv"),
    "compress-in-out": (["compress", "--in", "p.csv", "--delta", "1e-2", "--out", "p.csv"], "p.csv"),
    "compress-in-summary": (["compress", "--in", "p.csv", "--delta", "1e-2", "--summary", "p.csv"], "p.csv"),
}


@pytest.mark.parametrize("case", sorted(_READS_INPUT))
def test_out_refuses_input_path(compressed, tmp_path, monkeypatch, capsys, case):
    # Writing an input would destroy it; for a loaded container it would
    # also truncate the file the matrix maps.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "m.h2").write_bytes(compressed[0].read_bytes())
    np.savetxt("x.csv", np.ones(512), delimiter=",")
    assert run(["gen", "--dist", "plummer", "--n", "300", "--out", "p.csv"]) == 0
    os.symlink("m.h2", "link")
    args, source = _READS_INPUT[case]
    before = {name: (tmp_path / name).read_bytes() for name in ("m.h2", "x.csv", "p.csv")}
    monkeypatch.setattr(cli, "load_h2", lambda path: pytest.fail("the container was loaded"))
    monkeypatch.setattr(cli, "compress", lambda *args, **kw: pytest.fail("the compress ran"))
    assert run(args) == 2
    assert _usage_error(capsys)
    assert (tmp_path / source).read_bytes() == before[source]
    assert sorted(os.listdir(tmp_path)) == ["link", "m.h2", "p.csv", "x.csv"]


def test_compress_out_needs_a_writable_directory(tmp_path, monkeypatch, capsys):
    # save_h2 deletes the old container and writes a new one, so a writable
    # file is not enough; a text output still is.
    out, summary = tmp_path / "m.h2", tmp_path / "s.json"
    out.write_bytes(b"old")
    summary.write_text("old")
    access, here = os.access, os.path.realpath(tmp_path)
    monkeypatch.setattr(os, "access", lambda path, mode: access(path, mode) and os.path.realpath(path) != here)
    assert run(["compress", "--n", "300", "--delta", "1e-2", "--summary", str(summary)]) == 0
    monkeypatch.setattr(cli, "compress", lambda *args, **kw: pytest.fail("the compress ran"))
    assert run(["compress", "--n", "300", "--delta", "1e-2", "--out", str(out)]) == 2
    assert _usage_error(capsys)
    assert out.read_bytes() == b"old"


def test_compress_out_refuses_a_write_protected_container(tmp_path, monkeypatch, capsys):
    # A container the user may not write is refused, never deleted and replaced.
    out = tmp_path / "m.h2"
    out.write_bytes(b"old")
    out.chmod(0o444)
    access, target = os.access, os.path.realpath(out)  # root may write any file: deny this one
    monkeypatch.setattr(os, "access", lambda path, mode: access(path, mode) and os.path.realpath(path) != target)
    monkeypatch.setattr(cli, "compress", lambda *args, **kw: pytest.fail("the compress ran"))
    assert run(["compress", "--n", "300", "--delta", "1e-2", "--out", str(out)]) == 2
    assert _usage_error(capsys)
    assert out.read_bytes() == b"old"


def test_compress_out_writes_into_a_fifo(tmp_path):
    # A FIFO, like a device such as /dev/null, is written into, not replaced.
    out = tmp_path / "fifo"
    os.mkfifo(out)
    read = []
    reader = threading.Thread(target=lambda: read.append(out.read_bytes()), daemon=True)
    reader.start()
    assert run(["compress", "--n", "300", "--delta", "1e-2", "--out", str(out)]) == 0
    reader.join(10)
    assert stat.S_ISFIFO(os.stat(out).st_mode)
    assert decode(read[0]).n == 300


class _ClosedPipe:
    """A stdout whose reader has gone: EPIPE at the first ``write``, or, with
    ``at="flush"``, only when the buffered output is flushed."""

    def __init__(self, at):
        self.at, self.flushed = at, False

    def write(self, text):
        if self.at == "write":
            raise BrokenPipeError(32, "Broken pipe")
        return len(text)

    def flush(self):
        self.flushed = True
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("at", ["write", "flush"])
def test_closed_pipe_ends_quietly(capsys, monkeypatch, at):
    # capsys before monkeypatch: the stub is undone before the capture is.
    stdout = _ClosedPipe(at)
    monkeypatch.setattr(sys, "stdout", stdout)
    assert run(["commsim", "--P", "8", "--n-per-p", "64"]) == 0
    assert capsys.readouterr().err == ""
    # main flushes, so the pipe cannot break later, at interpreter exit.
    assert stdout.flushed or at == "write"


def test_closed_pipe_console_process():
    """The real process: the reader takes one line of an output larger than
    the pipe buffer and closes the pipe."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    proc = subprocess.Popen(
        [sys.executable, "-m", "h2fmm.cli", "commsim", "--P", "4096", "--n-per-p", "512"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert proc.stdout.readline().decode().startswith("phase,")
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=120) == 0
    assert err == b""


def test_commsim_mode_defaults_to_engine(tmp_path):
    csv, summary = tmp_path / "c.csv", tmp_path / "s.json"
    for dist, counting, mode, leaf_capacity in [
        ("plummer", "general", "truncated", 16),
        ("random", "uniform", "periodic", 1),
    ]:
        args = ["commsim", "--dist", dist, "--P", "8", "--n-per-p", "64", "--summary", str(summary)]
        assert run(args + ["--out", str(csv)]) == 0
        config = json.loads(summary.read_text())["config"]
        assert (config["counting"], config["mode"], config["leaf_capacity"]) == (
            counting,
            mode,
            leaf_capacity,
        )
        explicit = tmp_path / "explicit.csv"
        assert run(args + ["--mode", mode, "--out", str(explicit)]) == 0
        assert explicit.read_bytes() == csv.read_bytes()


def test_commsim_one_leaf_capacity(tmp_path, capsys):
    args = ["commsim", "--dist", "plummer", "--P", "8", "--n-per-p", "64", "--summary", str(tmp_path / "s.json")]
    outs = {}
    for capacity in (None, "16", "8"):
        out = tmp_path / f"{capacity}.csv"
        flags = [] if capacity is None else ["--leaf-capacity", capacity]
        assert run(args + flags + ["--out", str(out)]) == 0
        outs[capacity] = out.read_bytes()
    assert outs[None] == outs["16"]
    assert outs["8"] != outs["16"]
    assert json.loads((tmp_path / "s.json").read_text())["config"]["leaf_capacity"] == 8
    assert run(args + ["--leaf-capacity", "0", "--out", str(tmp_path / "zero.csv")]) == 2
    assert _usage_error(capsys)
    with pytest.raises(SystemExit) as exc:
        run(args + ["--tree-leaf-capacity", "16"])
    assert exc.value.code == 2
