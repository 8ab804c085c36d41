"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import hostspeed  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from workloads import Op  # noqa: E402

with open(run.REFERENCES, encoding="utf-8") as _fh:
    REFERENCES = json.load(_fh)

# Cheap real ops from each workload's catalogue, for the traced-run tests.
SMALL_CLI = [op for op in workloads.catalogue("cli_docs")[:5]] + [
    op for op in workloads.catalogue("cli_docs") if op.argv[:1] == ("golden",)
][:4]
SMALL_API = [
    Op("api_table", "small table", "x1^3*x2+x2^3*x3+x3^2+x4^2", (-12, 8)),
    Op("long", "small long self", "x1^2+x2^2+x3^3+x4^3", (-200, 8)),
    Op("long", "small long vs", "x1^2+x2^3+x3^3+x4^6", (-150, 8), vs_previous=True),
]

# Runs in a fresh interpreter: a traced pass over the named op list, then
# its counters, self times and op times as JSON.
_TRACED_PASS = """
import json, os, shutil, sys
sys.path.insert(0, sys.argv[1])
import run, test_perfbench
from spans import Tracer
run._import_mfhh()
ops = getattr(test_perfbench, sys.argv[2])
tracer = Tracer()
tracer.install()
workdir = os.path.join(run.ROOT, ".perfbench_work", "test-%d" % os.getpid())
os.makedirs(workdir)
try:
    with open(run.REFERENCES) as fh:
        refs = json.load(fh)["cli_docs"]
    res = run.run_pass(ops, refs, workdir, in_process=True, tracer=tracer)
finally:
    tracer.uninstall()
    shutil.rmtree(workdir)
counts = dict(tracer.counts)
counts["symmetry.ker_order"] = tracer.ker_order()
print(json.dumps({"counts": counts, "self": tracer.self_times(), "times": res["times"],
                  "scaled": res["scaled"],
                  "failed": res["failed"], "spans": len(tracer.spans)}))
"""


def _traced(name):
    out = subprocess.run(
        [sys.executable, "-c", _TRACED_PASS, HERE, name], cwd=run.ROOT,
        stdout=subprocess.PIPE, check=True, timeout=300,
    ).stdout
    return json.loads(out.decode().splitlines()[-1])


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_build_is_seeded_and_covered_by_references(workload):
    first = workloads.build(workload, 7, 20)
    assert first == workloads.build(workload, 7, 20)
    assert any(workloads.build(workload, s, 20) != first for s in range(1, 6))
    keys = {op.key for op in workloads.catalogue(workload)}
    assert keys == set(REFERENCES[workload])
    for seed in range(20):
        for op in workloads.build(workload, seed, 40):
            assert op.key in keys


def test_large_group_never_repeats_a_polynomial():
    for seed in range(10):
        polys = [op.poly for op in workloads.build("large_group", seed, 200)]
        assert len(polys) == len(set(polys))


def test_slot_candidates_stay_in_band():
    for shape, nvars, lo, hi, _ in workloads.CLI_SLOTS:
        cands = workloads.slot_candidates(shape, nvars, lo, hi, amin=3)
        assert len(set(cands)) == workloads.CANDIDATES_PER_SLOT
    assert workloads.det_of("loop", (6, 7, 8, 9)) == 3023
    assert not workloads.has_d0("fermat", (3, 3, 3))


def test_can_ca_stays_an_expected_mismatch():
    refs = REFERENCES["cli_docs"]
    for op in workloads.catalogue("cli_docs"):
        if op.argv[:3] == ("golden", "--family", "can_cA"):
            assert refs[op.key]["exit"] == 1
        elif op.argv[0] == "golden":
            assert refs[op.key]["exit"] == 0


def test_op_times_scale_by_the_host_slowdown():
    assert hostspeed.scaled(1.2, 1.0, 2.0) == pytest.approx(0.8)
    assert 0 < hostspeed.slowdown() < 50
    assert 0 < hostspeed.slowdown(children=True) < 50


def test_tail_percentile_rule():
    assert run.tail([1.0] * 5 + [2.0]) == (2.0, 100.0)
    value, pct = run.tail([float(i) for i in range(40)])
    assert value == 29.0 and pct == 75.0  # 10 samples above the 30th of 40


@pytest.mark.parametrize("name", ["SMALL_CLI", "SMALL_API"])
def test_traced_counts_repeat_and_self_times_add_up(name):
    a, b = _traced(name), _traced(name)
    assert a["counts"] == b["counts"]
    assert a["spans"] == b["spans"]
    assert sum(a["self"].values()) == pytest.approx(sum(a["times"]), rel=1e-9, abs=1e-9)
    assert a["self"]["trace.remainder_s"] >= 0
    assert len(a["scaled"]) == len(a["times"]) and all(t > 0 for t in a["scaled"])
    if name == "SMALL_CLI":
        # in-process cli.main reproduces the bytes recorded from child processes
        assert a["failed"] == 0
        assert a["counts"]["symmetry.contexts"] >= 1
        assert a["counts"]["engine.listing_rows"] > a["counts"]["engine.aggregate_rows"] > 0
    else:
        assert a["counts"]["invariants.cells_scanned"] > 0
        assert a["counts"]["jacobian.basis_calls"] >= a["counts"]["jacobian.basis_distinct"] > 0


def test_tracer_restores_every_entry_point():
    mfhh = run._import_mfhh()
    import mfhh.cli
    from spans import Tracer

    before = (mfhh.compute_table, mfhh.cli.compute_table, mfhh.SymmetryContext.__dict__["__init__"])
    tracer = Tracer()
    tracer.install()
    assert mfhh.cli.compute_table is not before[1]
    tracer.uninstall()
    after = (mfhh.compute_table, mfhh.cli.compute_table, mfhh.SymmetryContext.__dict__["__init__"])
    assert after == before


def test_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli_docs", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == b""


def test_metric_names_and_units_match_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
