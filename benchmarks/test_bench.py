"""The benchmark's own test, at smoke sizes that run in seconds.

    python3 -m pytest benchmarks/test_bench.py

Checks that every output check passes, that counts repeat exactly from
one run to the next, that traced runs restore the names they rebind, and
that the printed metrics match BENCHMARK.json.
"""
import json
import pathlib
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _exact(unit):
    return unit in ("count", "bytes")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_counts_repeat_exactly(name, tmp_path):
    params = workloads.SMOKE[name]
    runs = [workloads.run_workload(name, 3, 0.0, True, params, tmp_path) for _ in range(2)]
    for r in runs:
        assert r["correct"] and r["failed"] == 0 and r["attempted"] > 0, r["failures"]
    counts = [
        {k: m["value"] for k, m in r["metrics"].items() if _exact(m["unit"])} for r in runs
    ]
    assert counts[0] == counts[1]
    assert counts[0]["trace.spans"] > 0


def test_traced_run_restores_rebound_names(tmp_path):
    before = {(mod, attr): getattr(mod, attr) for mod, attr, _, _ in workloads.PATCHES}
    workloads.run_workload("matvec-cube", 1, 0.0, True, workloads.SMOKE["matvec-cube"], tmp_path)
    assert all(getattr(mod, attr) is fn for (mod, attr), fn in before.items())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_untraced_metrics_match_benchmark_json(name, tmp_path):
    r = workloads.run_workload(name, 2, 0.0, False, workloads.SMOKE[name], tmp_path)
    assert r["correct"], r["failures"]
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: m["unit"] for k, m in r["metrics"].items()} == want
    assert all(m["value"] > 0 for m in r["metrics"].values())
    assert not list(tmp_path.glob("*.h2"))


def test_per_layer_table_matches_benchmark_json():
    table = workloads.per_layer_table(workloads.WORKLOADS["comm-plummer"]["P"])
    assert [(n, u, b) for n, u, b in table] == [
        (m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]
    ]
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
