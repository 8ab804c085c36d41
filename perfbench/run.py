#!/usr/bin/env python3
"""The mfhh benchmark: end-to-end metrics, or per-layer metrics from a traced run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload large_group --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every metric of every workload

One process, one client in a closed loop, no extra threads.  The op list is
fixed by (workload, seed, seconds), see workloads.py; each op's output is
checked against references.json, recorded at the seed commit.  The last
line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.

The process pins itself to one CPU, and every op time is scaled to nominal
host speed by reference work timed just before and after the op (see
hostspeed.py), so runs made while the shared host is slow or fast agree.

--trace 0 reports the end-to-end metrics.  --trace 1 first runs the same op
list untraced in a child process (ops in-process, like the traced run), then
runs it traced here, and reports the per-layer metrics; the tracing overhead
is the traced minus the untraced median op time.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import hostspeed
import workloads
from ops import Runner, child_env
from spans import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCES = os.path.join(HERE, "references.json")

SETUP_REPEATS = 9
# A pass stops starting ops after this long; the ops left count as failed.
# Two passes (trace 1) plus set-up stay inside the 180 s a run may take.
PASS_BUDGET_S = 75.0
TAIL_BEYOND = 10

END_TO_END = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "poly.parse_s": "s",
    "symmetry.context_s": "s",
    "symmetry.census_s": "s",
    "symmetry.ker_s": "s",
    "symmetry.ker_order": "count",
    "symmetry.classes": "count",
    "symmetry.contexts_per_op": "1/op",
    "jacobian.basis_s": "s",
    "jacobian.milnor_total": "count",
    "jacobian.basis_calls": "count",
    "jacobian.basis_distinct": "count",
    "jacobian.basis_reuse": "ratio",
    "engine.lines_s": "s",
    "engine.listing_s": "s",
    "engine.aggregate_s": "s",
    "engine.cells": "count",
    "engine.contributions": "count",
    "engine.listing_rows": "count",
    "engine.aggregate_rows": "count",
    "engine.listing_per_aggregate": "ratio",
    "invariants.probe_s": "s",
    "invariants.compare_s": "s",
    "invariants.golden_s": "s",
    "invariants.cells_scanned": "count",
    "cli.import_s": "s",
    "cli.main_s": "s",
    "cli.doc_bytes": "bytes",
    "trace.op_mean_s": "s",
    "trace.op_p50_s": "s",
    "trace.remainder_s": "s",
    "trace.overhead_s": "s",
}

# notes printed beside a metric in the human-readable lines
NOTES = {
    "invariants.cells_scanned": "computed: degrees x cells per probe/compare call",
    "jacobian.basis_reuse": "1 - basis_distinct/basis_calls",
    "engine.listing_per_aggregate": "listing_rows/aggregate_rows",
}


def _die(msg):
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(2)


def _import_mfhh():
    """Import mfhh from this checkout's src/, never from anywhere else."""
    if not os.path.isfile(os.path.join(SRC, "mfhh", "__init__.py")):
        _die(f"no mfhh sources under {SRC}; run from a full checkout")
    sys.path.insert(0, SRC)
    import mfhh

    if not os.path.abspath(mfhh.__file__).startswith(SRC + os.sep):
        _die(f"imported mfhh from {mfhh.__file__}, not from {SRC}")
    return mfhh


_SETUP_CODE = """
import sys, time
sys.path[:0] = [sys.argv[1], sys.argv[2]]
t0 = time.perf_counter()
import mfhh
import workloads
workloads.build(sys.argv[3], int(sys.argv[4]), float(sys.argv[5]))
print(time.perf_counter() - t0)
"""


def measure_setup(workload, seed, seconds):
    """Median over fresh interpreters of: import mfhh + build the op list,
    each sample scaled to nominal host speed."""
    samples = []
    before = hostspeed.slowdown(children=True)
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, "-c", _SETUP_CODE, SRC, HERE, workload, str(seed), str(seconds)],
            cwd=ROOT, env=child_env(ROOT), stdout=subprocess.PIPE, check=True, timeout=60,
        ).stdout
        after = hostspeed.slowdown(children=True)
        samples.append(hostspeed.scaled(float(out.decode().strip()), before, after))
        before = after
    return statistics.median(samples)


def measure_cli_import():
    """Median wall time of a fresh `python -c "import mfhh.cli"`, scaled to
    nominal host speed."""
    samples = []
    before = hostspeed.slowdown(children=True)
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import mfhh.cli"], cwd=ROOT,
                       env=child_env(ROOT), check=True, timeout=60)
        dt = time.perf_counter() - t0
        after = hostspeed.slowdown(children=True)
        samples.append(hostspeed.scaled(dt, before, after))
        before = after
    return statistics.median(samples)


def tail(times):
    """(value, percentile): the highest nearest-rank percentile with at least
    TAIL_BEYOND samples above it; the maximum when there are too few."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    rank = n - TAIL_BEYOND
    return ordered[rank - 1], 100.0 * rank / n


def run_pass(op_list, references, workdir, in_process, tracer=None):
    """Run the op list once; returns op times (raw, and scaled to nominal host
    speed, see hostspeed.py), failures and wall time."""
    runner = Runner(ROOT, workdir, in_process=in_process)
    times, scaled, failed = [], [], 0
    start = time.perf_counter()
    children = not in_process  # cli ops then start child interpreters
    before = hostspeed.slowdown(children)
    for i, op in enumerate(op_list):
        if time.perf_counter() - start > PASS_BUDGET_S:
            left = len(op_list) - i
            print(f"time budget of {PASS_BUDGET_S} s spent; {left} ops not run, counted failed",
                  file=sys.stderr)
            failed += left
            break
        try:
            if tracer is None:
                t0 = time.perf_counter()
                result = runner.call(op)
                dt = time.perf_counter() - t0
            else:
                span = tracer.begin_op(i)
                try:
                    result = runner.call(op)
                finally:
                    dt = tracer.end_op(span)
            code, dig = runner.output(op, result)
        except Exception as exc:  # an op that raises is a failed op; go on
            print(f"op {i} [{op.key}] raised {type(exc).__name__}: {exc}", file=sys.stderr)
            failed += 1
            before = hostspeed.slowdown(children)
            continue
        after = hostspeed.slowdown(children)
        times.append(dt)
        scaled.append(hostspeed.scaled(dt, before, after))
        before = after
        ref = references.get(op.key)
        if ref is None or ref["exit"] != code or ref["sha256"] != dig:
            why = "no reference" if ref is None else f"exit {code} / digest {dig[:12]}"
            print(f"op {i} [{op.key}] wrong output: {why}", file=sys.stderr)
            failed += 1
    wall = time.perf_counter() - start
    return {"times": times, "scaled": scaled, "failed": failed, "wall": wall,
            "doc_bytes": runner.doc_bytes}


def _peak_rss_mb(children):
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def end_to_end(workload, seed, seconds, op_list, references, workdir):
    setup_s = measure_setup(workload, seed, seconds)
    cli = workload == "cli_docs"
    res = run_pass(op_list, references, workdir, in_process=not cli)
    scaled = res["scaled"] or [float("nan")]
    tail_s, tail_pct = tail(scaled)
    raw = res["times"] or [float("nan")]
    metrics = {
        "setup_s": setup_s,
        "op_p50_s": statistics.median(scaled),
        "op_tail_s": tail_s,
        "ops_per_s": len(res["scaled"]) / sum(scaled),
        "peak_rss_mb": _peak_rss_mb(children=cli),
    }
    notes = {
        "op_p50_s": f"raw wall-time median {statistics.median(raw):.4f} s",
        "op_tail_s": f"p{tail_pct:.1f} of {len(res['times'])} ops (highest percentile "
                     f"with >= {TAIL_BEYOND} ops beyond it); raw {tail(raw)[0]:.4f} s",
        "ops_per_s": f"ops / summed op time; raw ops / wall {len(res['times']) / res['wall']:.4f} 1/s",
        "peak_rss_mb": "largest mfhh.cli child" if cli else "this process",
    }
    return res, metrics, END_TO_END, notes


def _reference_pass(workload, seed, seconds, op_list, references, workdir):
    """Untraced, ops in-process: the comparison point for the traced run."""
    res = run_pass(op_list, references, workdir, in_process=True)
    return res, {"op_p50_s": statistics.median(res["scaled"] or [float("nan")])}, {"op_p50_s": "s"}, {}


def per_layer(workload, seed, seconds, op_list, references, workdir):
    cli_import_s = measure_cli_import()
    child = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0", "--reference-pass"],
        cwd=ROOT, stdout=subprocess.PIPE, check=False, timeout=170,
    )
    if child.returncode != 0:
        _die(f"untraced reference pass exited {child.returncode}")
    untraced = json.loads(child.stdout.decode().strip().splitlines()[-1])

    tracer = Tracer()
    tracer.install()
    try:
        res = run_pass(op_list, references, workdir, in_process=True, tracer=tracer)
    finally:
        tracer.uninstall()
    res["correct"] = untraced["correct"]

    n = max(1, len(res["times"]))
    c = tracer.counts
    metrics = {name: total / n for name, total in tracer.self_times().items()}
    metrics.update({
        "symmetry.ker_order": tracer.ker_order(),
        "symmetry.classes": c["symmetry.classes"],
        "symmetry.contexts_per_op": c["symmetry.contexts"] / n,
        "jacobian.milnor_total": c["jacobian.milnor_total"],
        "jacobian.basis_calls": c["jacobian.basis_calls"],
        "jacobian.basis_distinct": c["jacobian.basis_distinct"],
        "jacobian.basis_reuse": (1 - c["jacobian.basis_distinct"] / c["jacobian.basis_calls"]
                                 if c["jacobian.basis_calls"] else 0.0),
        "engine.cells": c["engine.cells"],
        "engine.contributions": c["engine.contributions"],
        "engine.listing_rows": c["engine.listing_rows"],
        "engine.aggregate_rows": c["engine.aggregate_rows"],
        "engine.listing_per_aggregate": (c["engine.listing_rows"] / c["engine.aggregate_rows"]
                                         if c["engine.aggregate_rows"] else 0.0),
        "invariants.cells_scanned": c["invariants.cells_scanned"],
        "cli.import_s": cli_import_s,
        "cli.doc_bytes": res["doc_bytes"],
        "trace.op_mean_s": sum(res["times"]) / n,
        "trace.op_p50_s": statistics.median(res["times"] or [float("nan")]),
    })
    traced_p50 = statistics.median(res["scaled"] or [float("nan")])
    metrics["trace.overhead_s"] = traced_p50 - untraced["metrics"]["op_p50_s"]["value"]

    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    spans = os.path.join(out_dir, f"spans-{workload}-{seed}.jsonl")
    tracer.write(spans)
    notes = dict(NOTES)
    notes["trace.remainder_s"] = "uninstrumented part of an op; layer *_s + this = trace.op_mean_s"
    notes["trace.overhead_s"] = (f"traced {traced_p50:.4f} s - untraced "
                                 f"{untraced['metrics']['op_p50_s']['value']:.4f} s, both median op "
                                 f"times scaled to nominal host speed; spans in {spans}")
    return res, metrics, PER_LAYER, notes


def run_all(seed, seconds):
    """Every metric of every workload, by name and unit (human-readable)."""
    status = 0
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, stdout=subprocess.PIPE, check=False, timeout=200,
            )
            lines = proc.stdout.decode().splitlines()
            print("\n".join(lines[:-1]))
            status = status or proc.returncode
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference-pass", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    if args.workload not in workloads.WORKLOADS:
        _die(f"unknown workload {args.workload!r}; known: {', '.join(workloads.WORKLOADS)}, all")
    _import_mfhh()
    hostspeed.pin_to_one_cpu()
    with open(REFERENCES, encoding="utf-8") as fh:
        references = json.load(fh)[args.workload]

    op_list = workloads.build(args.workload, args.seed, args.seconds)
    workdir = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
    os.makedirs(workdir)
    try:
        if args.reference_pass:
            measure = _reference_pass
        elif args.trace:
            measure = per_layer
        else:
            measure = end_to_end
        res, metrics, units, notes = measure(
            args.workload, args.seed, args.seconds, op_list, references, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(op_list)
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}: "
          f"{attempted} ops, {res['failed']} failed, error_rate {res['failed'] / attempted:.4f} (ratio)")
    for name, unit in units.items():
        note = f"   [{notes[name]}]" if name in notes else ""
        print(f"  {name} = {metrics[name]:.6g} {unit}{note}")
    print(json.dumps({
        "correct": res["failed"] == 0 and res.get("correct", True),
        "attempted": attempted,
        "failed": res["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
