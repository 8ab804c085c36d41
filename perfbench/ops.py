"""Run one op and reduce its output to the digest kept in references.json.

API ops call mfhh through module attributes at call time (``mfhh.parse``,
not a name bound at import), so the tracer's wrappers see every call.  A
``cli`` op runs ``python -m mfhh.cli`` as a child process, or
``mfhh.cli.main`` in this process when ``in_process`` is set (the traced
run, which needs the spans).
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import os
import subprocess
import sys

OP_TIMEOUT_S = 60


def digest(obj):
    """sha256 of a canonical JSON rendering."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def child_env(root):
    """Environment of every child process: mfhh from root/src, HH_THREADS unset."""
    env = dict(os.environ)
    env.pop("HH_THREADS", None)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONIOENCODING"] = "utf-8"
    return env


class Runner:
    """Executes the ops of one list in order and remembers what later ops
    need: the previous op's table (``long``) and written documents (``cli``).
    """

    def __init__(self, root, workdir, in_process=False):
        self.root = root
        self.workdir = workdir
        self.in_process = in_process
        self._prev_table = None
        self._docs = {}  # document name -> path of its latest version
        self._docs_written = 0
        self.doc_bytes = 0
        self._env = child_env(root)

    def call(self, op):
        """Do the timed part of the op; returns what ``output`` needs."""
        return getattr(self, "_call_" + op.kind)(op)

    def output(self, op, result):
        """Digest and exit code of a finished op (outside the timed part)."""
        return getattr(self, "_output_" + op.kind)(op, result)

    # -- large_group --------------------------------------------------------

    def _call_api_table(self, op):
        import mfhh

        p = mfhh.parse(op.poly)
        ctx = mfhh.SymmetryContext(p)
        return mfhh.compute_table(p, op.window, ctx=ctx)

    def _output_api_table(self, op, table):
        return 0, digest({"window": list(table.window), "cells": table.cell_list()})

    # -- long_window --------------------------------------------------------

    def _call_long(self, op):
        import mfhh

        p = mfhh.parse(op.poly)
        table = mfhh.compute_table(p, op.window)
        probe = mfhh.small_res_probe(table)
        partner = self._prev_table if op.vs_previous else table
        verdict = mfhh.scale_compare(table, partner)
        self._prev_table = table
        return table, probe, verdict

    def _output_long(self, op, result):
        table, probe, verdict = result
        return 0, digest({
            "cells": table.cell_list(),
            "probe": dataclasses.asdict(probe),
            "compare": dataclasses.asdict(verdict),
        })

    # -- cli_docs -----------------------------------------------------------

    def _argv(self, op):
        return [self._docs[a[1:]] if a.startswith("@") else a for a in op.argv]

    def _call_cli(self, op):
        argv = self._argv(op)
        if self.in_process:
            import mfhh.cli

            out, err = io.StringIO(), io.StringIO()
            code = mfhh.cli.main(argv, out=out, err=err)
            return code, out.getvalue().encode("utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "mfhh.cli", *argv],
            cwd=self.root, env=self._env, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, timeout=OP_TIMEOUT_S, check=False,
        )
        return proc.returncode, proc.stdout

    def _output_cli(self, op, result):
        code, stdout = result
        self.doc_bytes += len(stdout)
        if op.doc_out is not None:
            path = os.path.join(self.workdir, f"doc{self._docs_written}.json")
            self._docs_written += 1
            with open(path, "wb") as fh:
                fh.write(stdout)
            self._docs[op.doc_out] = path
        return code, hashlib.sha256(stdout).hexdigest()
