"""Command line surface.

Exit codes: 0 success / equivalent / constant rank; 1 distinguished,
non-constant or golden mismatch; 2 input error; 3 engine error;
4 inconclusive window.
"""

from __future__ import annotations

import argparse
import sys
import warnings

from . import __version__
from .engine import BigradedTable, aggregate_contributions, class_contributions, compute_table, hh2_vanishes
from .errors import GoldenMismatch, InputError, MfhhError, SchemaError, WindowMismatch
from .poly import parse
from .symmetry import SymmetryContext

EXIT_OK = 0
EXIT_VERDICT = 1
EXIT_INPUT = 2
EXIT_ENGINE = 3
EXIT_INCONCLUSIVE = 4
# invariants.FAMILY_NAMES, spelled out so that the parser imports no verdicts
FAMILY_NAMES = ("bp_cA", "bp_cD4", "bp_cE6", "bp_cE8", "can_cA", "laufer")


def _document(ctx, table, contributions=None):
    p, w = ctx.poly, ctx.weights()
    doc = {
        "schema": "v1",
        "tool_version": __version__,
        "poly": p.to_json(),
        "transpose": p.transpose().to_json(),
        "weights": {"d": list(w.d), "h": w.h, "d0": w.d0},
        "ker_chi_order": ctx.ker_chi_order,
        # a window holding degree 2 settles the flag without a second table
        "hh2_vanishes": table.dim(2) == 0 if table.complete(2) else hh2_vanishes(p, ctx=ctx),
        "window": [table.dmin, table.dmax],
        "cells": table.cell_list(),
    }
    if contributions is not None:
        doc["contributions"] = contributions
    return doc


def _emit_json(doc, out):
    import json

    out.write(json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False))
    out.write("\n")


def _emit_csv(doc, out):
    out.write("degree,weight,dim\n")
    for cell in doc["cells"]:
        out.write(f"{cell['d']},{cell['q']},{cell['dim']}\n")


def _emit_pretty(p, doc, out):
    out.write(f"polynomial : {p}\n")
    out.write(f"transpose  : {p.transpose()}\n")
    w = doc["weights"]
    out.write(
        f"weights    : d={tuple(w['d'])} h={w['h']} d0={w['d0']}"
        f"   |ker chi|={doc['ker_chi_order']}"
        f"   HH^2 vanishes: {doc['hh2_vanishes']}\n"
    )
    out.write(f"window     : [{doc['window'][0]}, {doc['window'][1]}]\n")
    qs = sorted({cell["q"] for cell in doc["cells"]})
    if not qs:
        out.write("(table is empty on this window)\n")
        return
    found = {}  # per degree, from the highest, its {weight: dim}
    for cell in reversed(doc["cells"]):
        found.setdefault(cell["d"], {})[cell["q"]] = cell["dim"]
    rows = [(d, [row.get(q, 0) for q in qs]) for d, row in found.items()]
    # each column as wide as its widest label; weights and cells keep a space between them
    qw = max(5, 1 + max(len(str(v)) for row in [qs] + [row for _, row in rows] for v in row))
    dw, tw = max(3, *(len(str(d)) for d, _ in rows)), max(5, *(len(str(sum(row))) for _, row in rows))
    head = f"{'deg':>{dw}} |" + "".join(f"{q:>{qw}}" for q in qs) + f" | {'total':>{tw}}"
    out.write(head + "\n")
    out.write("-" * len(head) + "\n")
    for d, row in rows:
        cells = "".join(f"{v if v else '.':>{qw}}" for v in row)
        out.write(f"{d:>{dw}} |{cells} | {sum(row):>{tw}}\n")
    if doc.get("contributions"):
        out.write("\ncontributions (monomial, type, degree, weight, count):\n")
        for r in doc["contributions"]:
            out.write(
                f"  {r['monomial']}  {r['type']}  d={r['d']}  q={r['q']}  x{r['count']}\n"
            )


def _json_int(path, value):
    # bool is an int subclass, and a float or string must not be truncated
    if type(value) is not int:
        raise SchemaError(f"{path}: {value!r} is not an integer")
    return value


def _load_document(path):
    import json

    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError, UnicodeDecodeError and the int digit limit
        raise SchemaError(f"cannot read table document {path}: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("schema") != "v1":
        raise SchemaError(f"{path}: not a v1 table document")
    for key in ("window", "cells"):
        if key not in doc:
            raise SchemaError(f"{path}: missing key {key!r}")
    try:
        dmin, dmax = (_json_int(path, x) for x in doc["window"])
        raw = [
            (_json_int(path, c["d"]), _json_int(path, c["q"]), _json_int(path, c["dim"]))
            for c in doc["cells"]
        ]
    except (TypeError, KeyError, ValueError) as exc:
        raise SchemaError(f"{path}: malformed window or cells") from exc
    if dmin > dmax:
        raise SchemaError(f"{path}: empty window [{dmin}, {dmax}]")
    cells = {}
    for d, q, dim in raw:
        if dim <= 0:
            raise SchemaError(f"{path}: cell ({d}, {q}) has dim {dim} <= 0")
        if (d, q) in cells:
            raise SchemaError(f"{path}: duplicate cell ({d}, {q})")
        if not dmin <= d <= dmax:
            raise SchemaError(f"{path}: cell ({d}, {q}) lies outside the window")
        cells[(d, q)] = dim
    return BigradedTable(dmin, dmax, cells)


def cmd_table(args, out):
    p = parse(args.poly, allow_nonstandard=args.allow_nonstandard)
    ctx = SymmetryContext(p)
    ctx.weights()  # one that is not positive is an input error before any table
    window = (args.dmin, args.dmax)
    contributions = None
    if args.monomials:
        # one walk of the fixed classes: the rows carry (d, q) and the class
        # sizes, so as runs of one cell they sum to compute_table's cells
        contributions = aggregate_contributions(class_contributions(p, window, ctx=ctx))
        table = BigradedTable(*window, runs=[(r["d"], r["q"], 1, r["count"]) for r in contributions])
    else:
        table = compute_table(p, window, ctx=ctx)
    doc = _document(ctx, table, contributions)
    if args.format == "json":
        _emit_json(doc, out)
    elif args.format == "csv":
        _emit_csv(doc, out)
    else:
        _emit_pretty(p, doc, out)
    return EXIT_OK


def cmd_compare(args, out):
    from .invariants import scale_compare

    t1 = _load_document(args.a)
    t2 = _load_document(args.b)
    verdict = scale_compare(t1, t2)
    out.write(f"window compared: [{verdict.window[0]}, {verdict.window[1]}]\n")
    if verdict.equivalent:
        out.write(f"equivalent up to scale c = {verdict.c}\n")
        return EXIT_OK
    if verdict.kind == "distinguished":
        out.write(
            f"distinguished at degree {verdict.witness_degree}: "
            f"weights {list(verdict.witness_weights[0])} vs {list(verdict.witness_weights[1])}\n"
        )
        return EXIT_VERDICT
    out.write("inconclusive: no negative-degree overlap to compare\n")
    return EXIT_INCONCLUSIVE


def cmd_probe(args, out):
    from .invariants import small_res_probe

    p = parse(args.poly, allow_nonstandard=args.allow_nonstandard)
    ctx = SymmetryContext(p)
    ctx.weights()  # as in cmd_table
    table = compute_table(p, (args.dmin, -1), ctx=ctx)
    verdict = small_res_probe(table)
    out.write(f"window probed: [{verdict.window[0]}, {verdict.window[1]}]\n")
    if verdict.constant:
        out.write(f"constant rank {verdict.rank} in every negative degree of the window\n")
        out.write(
            "(window-relative cohomological criterion; not a geometric certificate)\n"
        )
        return EXIT_OK
    devs = ", ".join(f"HH^{d}={r}" for d, r in verdict.witnesses)
    out.write(f"non-constant rank: {devs} (rank at -1 is {table.dim(-1)})\n")
    return EXIT_VERDICT


def cmd_golden(args, out):
    from .invariants import golden_check

    try:
        report = golden_check(args.family, l=args.l, k=args.k)
    except GoldenMismatch as exc:
        out.write(exc.report.diff_text() + "\n")
        return EXIT_VERDICT
    out.write(report.diff_text() + "\n")
    return EXIT_OK


def build_parser():
    top = argparse.ArgumentParser(
        prog="mfhh",
        description="Exact bigraded cohomology dimension tables for invertible polynomials.",
    )
    top.add_argument("--version", action="version", version=__version__)
    mirror = "The table of w is SH of the Milnor fibre of w^T, its Berglund-Huebsch transpose."
    sub = top.add_subparsers(dest="command", required=True)

    t = sub.add_parser("table", help="compute a bigraded dimension table", description=mirror)
    t.add_argument("--poly", required=True, help="polynomial, e.g. 'x1^3*x2+x2^3*x3+x3^2+x4^2'")
    t.add_argument("--dmin", required=True, type=int)
    t.add_argument("--dmax", required=True, type=int)
    t.add_argument("--format", choices=("pretty", "json", "csv"), default="pretty")
    t.add_argument("--monomials", action="store_true", help="include the contribution listing")
    t.add_argument("--allow-nonstandard", action="store_true",
                   help="accept non Fermat/chain/loop inputs (warning only)")
    t.set_defaults(func=cmd_table)

    c = sub.add_parser("compare", help="scale-equivalence comparison of two table documents")
    c.add_argument("a")
    c.add_argument("b")
    c.set_defaults(func=cmd_compare)

    pr = sub.add_parser("probe-small-res", help="constant-rank probe on negative degrees",
                        description=mirror)
    pr.add_argument("--poly", required=True)
    pr.add_argument("--dmin", required=True, type=int)
    pr.add_argument("--allow-nonstandard", action="store_true")
    pr.set_defaults(func=cmd_probe)

    g = sub.add_parser("golden", help="check a built-in family against its closed forms")
    g.add_argument("--family", required=True, help=f"one of: {', '.join(FAMILY_NAMES)}")
    g.add_argument("--l", type=int, default=None)
    g.add_argument("--k", type=int, default=1)
    g.set_defaults(func=cmd_golden)

    return top


def main(argv=None, out=None, err=None):
    out = out or sys.stdout
    err = err or sys.stderr
    parser = build_parser()
    args = parser.parse_args(argv)
    with warnings.catch_warnings():
        # --allow-nonstandard inputs warn at parse: one line on err, whatever the -W filters
        warnings.simplefilter("always", UserWarning)
        warnings.showwarning = lambda message, *_: err.write(f"warning: {message}\n")
        try:
            return args.func(args, out)
        except WindowMismatch as exc:
            err.write(f"error: {exc}\n")
            return EXIT_INCONCLUSIVE
        except InputError as exc:
            err.write(f"error: {exc}\n")
            return EXIT_INPUT
        except MfhhError as exc:
            err.write(f"error: {exc}\n")
            return EXIT_ENGINE
        except MemoryError:  # uncaught, it would exit 1, the code of "distinguished"
            err.write("error: out of memory\n")
            return EXIT_ENGINE


if __name__ == "__main__":
    sys.exit(main())
