#!/usr/bin/env python3
"""Record references.json: exit code and output digest of every catalogue op.

    python3 perfbench/record.py            # all workloads
    python3 perfbench/record.py cli_docs   # one workload

The references were recorded at the commit that added the benchmark.  mfhh
promises byte-identical output for identical input, so a later commit must
reproduce them as they stand: re-record only when the benchmark's own
catalogue changes, never to make a changed program pass.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402
from ops import Runner  # noqa: E402


def record(workload, workdir):
    runner = Runner(run.ROOT, workdir, in_process=False)
    refs = {}
    for op in workloads.catalogue(workload):
        code, dig = runner.output(op, runner.call(op))
        if op.kind != "cli" or op.argv[0] == "golden":
            ok = code == 0 or (op.argv[:3] == ("golden", "--family", "can_cA") and code == 1)
        else:
            ok = code in (0, 1, 4)
        if not ok:
            raise SystemExit(f"{workload}: unexpected exit {code} for {op.key}")
        if refs.get(op.key, {"exit": code, "sha256": dig}) != {"exit": code, "sha256": dig}:
            raise SystemExit(f"{workload}: {op.key} gave two different outputs")
        refs[op.key] = {"exit": code, "sha256": dig}
        print(f"{workload}: {code} {dig[:12]} {op.key}", flush=True)
    return refs


def main(argv):
    run._import_mfhh()
    names = argv or list(workloads.WORKLOADS)
    try:
        with open(run.REFERENCES, encoding="utf-8") as fh:
            refs = json.load(fh)
    except FileNotFoundError:
        refs = {}
    workdir = os.path.join(run.ROOT, ".perfbench_work", f"record-{os.getpid()}")
    os.makedirs(workdir)
    try:
        for name in names:
            refs[name] = record(name, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(run.REFERENCES, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
