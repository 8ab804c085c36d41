"""Byte-identity corpus: about 200 seeded CLI calls, run in-process through
cli.main, each checked against the sha256 of its stdout and stderr and its
exit code as recorded in corpus_digests.json.

The cases cover Fermat, chain, loop and mixed sums (exponent-1 links, a
12-variable Fermat sum, sums of 2-chains), windows shorter than |du| weights
and windows past them, `table` in all three formats with and without
--monomials, `compare` on documents the corpus writes itself,
`probe-small-res` and failing inputs.  The case list is generated from a
fixed seed and stored with the digests, so an engine change cannot move it.

Record the digests again only when an output is meant to change:

    PYTHONPATH=src python tests/test_corpus.py --record
"""

import hashlib
import io
import json
import os
import random
import sys

from mfhh import cli
from mfhh.poly import parse
from mfhh.symmetry import SymmetryContext

DIGESTS = os.path.join(os.path.dirname(__file__), "corpus_digests.json")

FORMATS = ("pretty", "json", "csv")


def _atoms(rng, n, max_atom=3):
    """A random sum of Fermat, chain and loop atoms on n variables, shuffled,
    with exponents 1 allowed in chain and loop links, as text."""
    blocks, nv = [], 0
    while nv < n:
        size = 1 if n - nv == 1 else rng.randint(1, min(max_atom, n - nv))
        kind = "fermat" if size == 1 else rng.choice(["chain", "loop"])
        low = 2 if kind == "fermat" else rng.choice([1, 2, 2, 2])
        blocks.append((kind, [rng.randint(low, 5) for _ in range(size)]))
        nv += size
    names = list(range(1, n + 1))
    rng.shuffle(names)
    terms, base = [], 0
    for kind, exps in blocks:
        m = len(exps)
        for i, a in enumerate(exps):
            x = names[base + i]
            term = f"x{x}^{a}" if a > 1 else f"x{x}"
            if kind == "chain" and i < m - 1:
                term += f"*x{names[base + i + 1]}"
            elif kind == "loop":
                term += f"*x{names[base + (i + 1) % m]}"
            terms.append(term)
        base += m
    rng.shuffle(terms)
    return "+".join(terms)


def _polys(rng, count, max_vars, max_det):
    """count random atom sums that parse with |det| <= max_det and a total
    character of infinite order, with their family step's |du|."""
    out = []
    while len(out) < count:
        text = _atoms(rng, rng.randint(1, max_vars))
        try:
            p = parse(text)
            if abs(p.det()) > max_det:
                continue
            du = abs(SymmetryContext(p).family_step[1])
        except Exception:
            continue
        out.append((text, du))
    return out


def _table(text, window, fmt="json", monomials=False):
    argv = ["table", "--poly", text, "--dmin", str(window[0]), "--dmax", str(window[1]), "--format", fmt]
    return argv + ["--monomials"] * monomials


def build_cases():
    """The corpus: a list of {"argv", "docs"} dicts.  docs are the table
    calls whose stdout a case reads as the files {0}, {1}, .. of its argv,
    or literal file contents."""
    rng = random.Random(20261019)
    cases = []

    def add(argv, docs=()):
        cases.append({"argv": argv, "docs": list(docs)})

    fermat12 = "+".join(f"x{i}^{2 + i % 3}" for i in range(1, 13))
    chains2 = lambda k: "+".join(f"x{2 * i + 1}^2*x{2 * i + 2}+x{2 * i + 2}^3" for i in range(k))
    named = [
        "x1^2+x2^3+x3^5+x4^7",
        "x1^11+x2^13+x3^17",
        "x1^3*x2+x2^3*x3+x3^2+x4^2",
        "x1^3*x2+x2^4*x3+x3^2*x1+x4^3",
        "x1^2*x2+x2^3*x3+x3^4+x4^5+x5^2",
        "x1*x2+x2^3+x3^3+x4^5",
        "x1*x2+x2^3*x3+x3^2",
        "x1*x2+x2^4*x3+x3^3*x1+x4^3",
        "x1^2*x2+x2*x3+x3^3*x1+x4^2",
        "x1*x2+x2^3*x3+x3^2*x4+x4^3",
        "x1^2*x2+x2*x3+x3^4+x4^2",
        "x1^2+x2^2",
        "x1^3+x2^3+x3^3",
        chains2(3),
        "+".join(f"x{i}^{2 + i % 2}*x{i % 6 + 1}" for i in range(1, 7)),
    ]
    for i, text in enumerate(named):
        fmt = FORMATS[i % 3]
        add(_table(text, (-12, 8), fmt))
        add(_table(text, (-30, 6), FORMATS[(i + 1) % 3], monomials=True))
        add(_table(text, (3, 3), fmt))
    add(_table(fermat12, (-12, 8)))
    add(_table(fermat12, (-4, 2), "pretty"))
    add(_table(chains2(4), (-12, 8), "csv"))
    add(_table(chains2(2), (-12, 8), "pretty", monomials=True))

    # random sums: a window shorter than |du| weights and one past them
    for i, (text, du) in enumerate(_polys(rng, 50, 5, 1500)):
        top = rng.randint(-6, 8)
        short = (top - rng.randint(0, max(0, 2 * du - 2)), top)
        long = (top - 2 * du - 1 - rng.randint(0, 2 * du + 4), top)
        for j, window in enumerate((short, long)):
            add(_table(text, window, FORMATS[(i + j) % 3], monomials=(i + j) % 2 == 1))

    # compare on pairs of documents, and a document against itself
    pool = _polys(rng, 24, 4, 400)
    for i in range(0, len(pool), 2):
        (a, _), (b, _) = pool[i], pool[i + 1]
        lo = rng.randint(-40, -8)
        add(["compare", "{0}", "{1}"], [_table(a, (lo, 4)), _table(b, (lo + rng.randint(-5, 5), 6))])
    for text, _ in pool[:4]:
        add(["compare", "{0}", "{1}"], [_table(text, (-20, 0)), _table(text, (-20, 0), monomials=True)])
    add(["compare", "{0}", "{1}"], [_table("x1^2+x2^3", (1, 4)), _table("x1^2+x2^3", (1, 4))])
    add(["compare", "{0}", "{1}"], [_table("x1^2+x2^3", (-8, 4)), "not json"])
    empty_window = '{"schema": "v1", "window": [0, -1], "cells": []}'
    add(["compare", "{0}", "{1}"], [_table("x1^2+x2^3", (-8, 4)), empty_window])

    # the small-resolution probe
    for text, _ in _polys(rng, 20, 4, 800):
        add(["probe-small-res", "--poly", text, "--dmin", str(rng.randint(-40, -2))])
    for text in ("x1^2+x2^2+x3^3+x4^3", "x1^2+x2^3+x3^5+x4^30", "x1^2+x2^2+x3^2*x4+x4^3"):
        add(["probe-small-res", "--poly", text, "--dmin", "-60"])

    # failing inputs
    for argv in (
        _table("x1^2+", (-2, 2)),
        _table("2*x1^2", (-2, 2)),
        _table("x1^2+x1^3", (-2, 2)),
        _table("x1*x2+x1*x2^2", (-2, 2)),
        _table("x1*x2+x2^3*x1", (-2, 2)),
        _table("x1*x2+x2^3", (-12, 8), "csv"),
        _table("x1^2+x2^3", (2, 1)),
        _table("x1^2+x2", (-2, 2)),
        _table("x1^2+x2^2", (-4, 4), "csv"),
        _table("x1^3+x2^3+x3^3", (-4, 4), monomials=True),
        _table("x1^2*x2+x3^3+x1^2", (-10, 0)) + ["--allow-nonstandard"],
        _table("x1^2*x2^2+x2^3+x3", (-10, 10), "csv") + ["--allow-nonstandard"],
        _table("x1^2*x2^2+x2^3+x3^2", (-10, 10), "pretty", monomials=True) + ["--allow-nonstandard"],
        _table("x1^2*x2^2+x2^3+x1^3", (-10, 10)) + ["--allow-nonstandard"],
        ["probe-small-res", "--poly", "x1^2+x2^3", "--dmin", "0"],
        ["probe-small-res", "--poly", "x1^2*x2+x3^3+x1^2", "--dmin", "-6", "--allow-nonstandard"],
    ):
        add(argv)
    return cases


def _digest(data):
    return hashlib.sha256(data.encode()).hexdigest()


def run_case(case, tmp):
    """(exit code, stdout, stderr) of the case, its documents written under tmp."""
    paths = []
    for i, doc in enumerate(case["docs"]):
        if isinstance(doc, list):
            out = io.StringIO()
            assert cli.main(doc, out, io.StringIO()) == 0, doc
            doc = out.getvalue()
        paths.append(os.path.join(tmp, f"doc{i}.json"))
        with open(paths[-1], "w", encoding="utf-8") as fh:
            fh.write(doc)
    out, err = io.StringIO(), io.StringIO()
    code = cli.main([a.format(*paths) for a in case["argv"]], out, err)
    return code, out.getvalue(), err.getvalue().replace(tmp, "<dir>")


def record(tmp):
    entries = []
    for case in build_cases():
        code, out, err = run_case(case, tmp)
        entries.append({**case, "exit": code, "stdout": _digest(out), "stderr": _digest(err)})
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(entries, fh, indent=1)
        fh.write("\n")
    return entries


def _recorded():
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)


def test_corpus_is_the_seeded_case_list():
    assert [{"argv": e["argv"], "docs": e["docs"]} for e in _recorded()] == build_cases()


def test_corpus_outputs_are_byte_identical(tmp_path):
    entries = _recorded()
    assert len(entries) >= 150
    wrong = []
    for entry in entries:
        code, out, err = run_case(entry, str(tmp_path))
        if (code, _digest(out), _digest(err)) != (entry["exit"], entry["stdout"], entry["stderr"]):
            wrong.append(entry["argv"])
    assert wrong == []


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_corpus.py --record")
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        entries = record(tmp)
    print(f"recorded {len(entries)} cases in {DIGESTS}")
