"""Seeded inputs for the mfhh benchmark.

Every input is drawn from a finite catalogue that is fixed by the rules in
this file, so the reference outputs in ``references.json`` cover every seed.
A seed only chooses which catalogue entries a run uses and in which order;
the anchor polynomials and all windows are written out below.

Each workload is a ladder of fixed anchors and *slots*.  A slot fixes the
polynomial shape, the variable count and a narrow determinant band (so its
candidates cost about the same), and the seed picks one of its candidates.
Keeping the ladder fixed and letting the seed vary only inside a slot is
what keeps the median op time steady from seed to seed.

This module imports nothing from mfhh: determinants come from the closed
forms of Fermat, chain and loop atoms, and d0 from exact weights.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

CANDIDATES_PER_SLOT = 6


@dataclass(frozen=True)
class Op:
    """One unit of work: one table, verdict or document for one input.

    ``key`` names the op in ``references.json``.  ``kind`` selects how
    ``ops.py`` runs it:

    * ``api_table``: parse, fresh ``SymmetryContext``, ``compute_table``.
    * ``long``: ``compute_table``, ``small_res_probe`` on the negative part,
      then ``scale_compare`` against a partner table: the table of the op
      just before when ``vs_previous`` is set, else this op's own.
    * ``cli``: one ``mfhh.cli`` call with ``argv``; ``@name`` arguments are
      documents written by earlier ops (``doc_out``) of the same list.
    """

    kind: str
    key: str
    poly: str = ""
    window: tuple = ()
    vs_previous: bool = False
    argv: tuple = ()
    doc_out: str | None = None


# -- polynomial shapes --------------------------------------------------------


def fermat(exps):
    return "+".join(f"x{i}^{a}" for i, a in enumerate(exps, 1))


def chain(exps):
    n = len(exps)
    return "+".join(
        f"x{i}^{a}*x{i + 1}" if i < n else f"x{i}^{a}" for i, a in enumerate(exps, 1)
    )


def loop(exps):
    n = len(exps)
    return "+".join(f"x{i}^{a}*x{i % n + 1}" for i, a in enumerate(exps, 1))


def chain2_fermat(exps):
    """A two-variable chain followed by Fermat atoms: x1^a*x2 + x2^b + x3^c + ..."""
    a, b, *rest = exps
    return "+".join([f"x1^{a}*x2", f"x2^{b}"] + [f"x{i}^{e}" for i, e in enumerate(rest, 3)])


def _prod(exps):
    out = 1
    for a in exps:
        out *= a
    return out


SHAPES = {
    "fermat": (fermat, _prod),
    "chain": (chain, _prod),
    "loop": (loop, lambda exps: _prod(exps) - (-1) ** len(exps)),
    "chain2_fermat": (chain2_fermat, _prod),
}


# shapes with fixed leading Fermat exponents: only the rest is drawn.  Both
# have d0 < 0, so their tables have negative-degree content to compare.
PREFIXED = {
    "cA": ("fermat", (2, 2)),  # x1^2+x2^2+x3^a+x4^b
    "cD": ("fermat", (2, 3, 3)),  # x1^2+x2^3+x3^3+x4^k
}


def det_of(shape, exps):
    """|det A| = |ker chi| for a polynomial of the given shape."""
    return abs(SHAPES[shape][1](exps))


def _rows(shape, exps):
    n = len(exps)
    rows = [[0] * n for _ in range(n)]
    for i, a in enumerate(exps):
        rows[i][i] = a
    links = {"chain": range(n - 1), "loop": range(n), "chain2_fermat": range(1)}
    for i in links.get(shape, ()):
        rows[i][(i + 1) % n] += 1
    return rows


def has_d0(shape, exps):
    """True when d0 != 0, i.e. the weights q with A q = (1,..,1) do not sum
    to 1; with d0 = 0 a family can stay inside every window."""
    n = len(exps)
    aug = [[Fraction(e) for e in row] + [Fraction(1)] for row in _rows(shape, exps)]
    for col in range(n):
        piv = next(i for i in range(col, n) if aug[i][col])
        aug[col], aug[piv] = aug[piv], aug[col]
        aug[col] = [x / aug[col][col] for x in aug[col]]
        for i in range(n):
            if i != col and aug[i][col]:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[col])]
    return sum(row[n] for row in aug) != 1


def slot_candidates(shape, nvars, det_lo, det_hi, amin=2):
    """The fixed candidate list of one slot: CANDIDATES_PER_SLOT distinct
    exponent vectors whose |det| lies in [det_lo, det_hi].

    Exponents stay within a factor of about two of the geometric mean, which
    keeps the Jacobian dimensions, and with them the cost, close together.
    The draw uses a fixed generator named after the slot, never the run seed.
    """
    rng = random.Random(f"{shape}/{nvars}/{det_lo}/{det_hi}/{amin}")
    base, prefix = PREFIXED.get(shape, (shape, ()))
    mid = ((det_lo * det_hi) ** 0.5 / _prod(prefix)) ** (1.0 / nvars)
    lo = max(amin, int(mid * 0.7))
    hi = max(lo + 1, int(mid * 1.45) + 1)
    seen = set()
    out = []
    for _ in range(200000):
        exps = prefix + tuple(rng.randint(lo, hi) for _ in range(nvars))
        if exps in seen or not det_lo <= det_of(base, exps) <= det_hi:
            continue
        if not has_d0(base, exps):
            continue
        seen.add(exps)
        out.append(SHAPES[base][0](exps))
        if len(out) == CANDIDATES_PER_SLOT:
            return tuple(out)
    raise RuntimeError(f"slot {shape}/{nvars} [{det_lo}, {det_hi}] has too few candidates")


# -- large_group --------------------------------------------------------------

LARGE_WINDOW = (-12, 8)

# The anchors named in ROADMAP.md; each runs once per process, in round 0.
LARGE_ANCHORS = (
    "x1^2+x2^3+x3^5+x4^600",  # |det| 18000
    "x1^11+x2^13+x3^17+x4^19",  # |det| 46189
    "x1^6*x2+x2^7*x3+x3^8*x4+x4^9*x1",  # loop, |det| 3023, mu 3024
    "x1^3*x2+x2^3*x3+x3^3*x4+x4^3*x5+x5^3*x6+x6^24",  # 6-variable chain, |det| 5832
)

# Seeded slots: shape, variables and |det| band, each with eight candidates
# drawn by slot_candidates() and then narrowed to the four whose op times at
# the seed commit lay closest together.  The bands are chosen so that every
# slot costs about one second: a round of similar ops keeps the median op
# time steady when the seed changes.
LARGE_POOLS = (
    # Fermat, 4 variables, |det| 10000-12000
    ("x1^14+x2^10+x3^11+x4^7", "x1^10+x2^9+x3^8+x4^15", "x1^13+x2^10+x3^11+x4^7",
     "x1^11+x2^8+x3^12+x4^10"),
    # chain, 4 variables, 11000-13500
    ("x1^12*x2+x2^12*x3+x3^7*x4+x4^13", "x1^9*x2+x2^10*x3+x3^15*x4+x4^9",
     "x1^9*x2+x2^15*x3+x3^12*x4+x4^7", "x1^13*x2+x2^9*x3+x3^7*x4+x4^14"),
    # loop, 4 variables, 8000-10000
    ("x1^12*x2+x2^10*x3+x3^7*x4+x4^11*x1", "x1^8*x2+x2^7*x3+x3^11*x4+x4^15*x1",
     "x1^8*x2+x2^12*x3+x3^12*x4+x4^7*x1", "x1^11*x2+x2^12*x3+x3^9*x4+x4^7*x1"),
    # Fermat, 5 variables, 7000-9000
    ("x1^6+x2^4+x3^6+x4^8+x5^7", "x1^6+x2^7+x3^5+x4^6+x5^6", "x1^8+x2^5+x3^7+x4^5+x5^5",
     "x1^6+x2^7+x3^4+x4^6+x5^8"),
    # chain, 5 variables, 7500-9500
    ("x1^5*x2+x2^5*x3+x3^5*x4+x4^9*x5+x5^8", "x1^7*x2+x2^9*x3+x3^6*x4+x4^5*x5+x5^5",
     "x1^7*x2+x2^4*x3+x3^7*x4+x4^7*x5+x5^6", "x1^8*x2+x2^5*x3+x3^5*x4+x4^6*x5+x5^7"),
    # loop, 5 variables, 8500-10500
    ("x1^9*x2+x2^7*x3+x3^6*x4+x4^6*x5+x5^4*x1", "x1^8*x2+x2^8*x3+x3^5*x4+x4^7*x5+x5^4*x1",
     "x1^4*x2+x2^9*x3+x3^7*x4+x4^5*x5+x5^8*x1", "x1^9*x2+x2^4*x3+x3^7*x4+x4^4*x5+x5^10*x1"),
    # Fermat, 6 variables, 6000-8000
    ("x1^7+x2^5+x3^4+x4^6+x5^3+x6^3", "x1^6+x2^3+x3^3+x4^5+x5^5+x6^5",
     "x1^4+x2^6+x3^4+x4^3+x5^5+x6^5", "x1^3+x2^4+x3^5+x4^6+x5^6+x6^3"),
    # two-variable chain plus Fermat atoms, 5 variables, 8500-10500
    ("x1^9*x2+x2^9+x3^6+x4^5+x5^4", "x1^6*x2+x2^6+x3^6+x4^8+x5^5", "x1^7*x2+x2^8+x3^9+x4^4+x5^5",
     "x1^4*x2+x2^4+x3^9+x4^8+x5^8"),
    # chain, 6 variables, 7000-8500
    ("x1^7*x2+x2^5*x3+x3^5*x4+x4^5*x5+x5^3*x6+x6^3",
     "x1^5*x2+x2^3*x3+x3^4*x4+x4^4*x5+x5^5*x6+x6^6",
     "x1^4*x2+x2^5*x3+x3^5*x4+x4^3*x5+x5^5*x6+x6^5",
     "x1^7*x2+x2^4*x3+x3^7*x4+x4^3*x5+x5^4*x6+x6^3"),
    # loop, 6 variables, 6500-8000
    ("x1^5*x2+x2^5*x3+x3^5*x4+x4^6*x5+x5^3*x6+x6^3*x1",
     "x1^6*x2+x2^4*x3+x3^5*x4+x4^4*x5+x5^4*x6+x6^4*x1",
     "x1^3*x2+x2^4*x3+x3^5*x4+x4^7*x5+x5^4*x6+x6^4*x1",
     "x1^3*x2+x2^4*x3+x3^7*x4+x4^7*x5+x5^3*x6+x6^4*x1"),
)


def _large_op(poly):
    return Op("api_table", f"table {poly} {LARGE_WINDOW[0]} {LARGE_WINDOW[1]}", poly, LARGE_WINDOW)


def _large_catalogue():
    return [_large_op(p) for p in LARGE_ANCHORS + sum(LARGE_POOLS, ())]


def _large_build(rng, rounds):
    pools = [list(pool) for pool in LARGE_POOLS]
    for pool in pools:
        rng.shuffle(pool)
    ops = [_large_op(p) for p in LARGE_ANCHORS]
    # candidates are used without replacement, so no polynomial repeats
    for r in range(min(rounds, len(pools[0]))):
        ops.extend(_large_op(pool[r]) for pool in pools)
    return ops


# -- long_window --------------------------------------------------------------

# (first polynomial, its dmin, second polynomial, its dmin), dmax = 8.
# They run in every round.  The first op of a pair
# compares its table with itself (a full scan, verdict 'equivalent'); the
# second compares its table with the first one's.
LONG_ANCHOR_PAIRS = (
    ("x1^2+x2^3+x3^5+x4^30", -1130, "x1^2+x2^3+x3^4+x4^12", -1130),  # bp_cE8 / bp_cE6, k=1
    ("x1^3*x2+x2^3*x3+x3^2+x4^2", -2640, "x1^3*x2+x2^5*x3+x3^2+x4^2", -2640),  # laufer k=1 / k=2
    ("x1^2+x2^2+x3^3+x4^3", -1950, "x1^2+x2^2+x3^2*x4+x3*x4^2", -1950),  # bp_cA / can_cA, l=2 k=1
    ("x1^2*x2+x2^2*x3+x3^6*x4+x4^3", -1090, "x1^3*x2+x2^2*x3+x3^2*x4+x4^2", -1400),  # chains
)

# Seeded pools of (polynomial, dmin), all with dmax = 8.  Scanning costs
# about (window length) x (cells), and the cells per degree differ a lot
# between polynomials, so each window was sized to make that product about
# 6e6, which is about 0.85 s of op time at the seed commit.  Sparse
# tables (most loops) are left out: their cost does not follow the window.
LONG_POOLS = {
    "fermat": (
        ("x1^2+x2^4+x3^4+x4^7", -1080),
        ("x1^2+x2^2+x3^5+x4^7", -1630),
        ("x1^3+x2^3+x3^4+x4^5", -1020),
        ("x1^3+x2^3+x3^3+x4^5", -1120),
        ("x1^2+x2^2+x3^4+x4^4", -1640),
        ("x1^2+x2^3+x3^5+x4^7", -2230),
        ("x1^2+x2^3+x3^3+x4^5", -2320),
    ),
}
# pairs drawn per round from each pool
LONG_SLOTS = ("fermat", "fermat", "fermat", "fermat")


def _long_pair(first, second):
    (p1, w1), (p2, w2) = first, second
    return [
        Op("long", f"long {p1} {w1[0]} {w1[1]} self", p1, w1),
        Op("long", f"long {p2} {w2[0]} {w2[1]} vs {p1} {w1[0]} {w1[1]}", p2, w2, vs_previous=True),
    ]


def _long_pool_pairs(pool):
    """Entry i paired with entry i+1, cyclically: a fixed set of pairs."""
    entries = [(p, (dmin, 8)) for p, dmin in LONG_POOLS[pool]]
    return [(entries[i], entries[(i + 1) % len(entries)]) for i in range(len(entries))]


def _long_anchor_pairs():
    return [((p1, (d1, 8)), (p2, (d2, 8))) for p1, d1, p2, d2 in LONG_ANCHOR_PAIRS]


def _long_catalogue():
    ops = []
    for pair in _long_anchor_pairs():
        ops.extend(_long_pair(*pair))
    for pool in LONG_POOLS:
        for pair in _long_pool_pairs(pool):
            ops.extend(_long_pair(*pair))
    return ops


def _long_build(rng, rounds):
    ops = []
    for _ in range(rounds):
        for pair in _long_anchor_pairs():
            ops.extend(_long_pair(*pair))
        picks = {pool: rng.sample(_long_pool_pairs(pool), LONG_SLOTS.count(pool)) for pool in LONG_POOLS}
        for pool in LONG_SLOTS:
            ops.extend(_long_pair(*picks[pool].pop()))
    return ops


# -- cli_docs -----------------------------------------------------------------

# (shape, drawn exponents, det band, window).  The cA and cD slots have
# d0 < 0 and negative-degree content; the others have d0 > 0, where compare
# is inconclusive (exit 4) and the probe sees rank 0.  The bands are narrow
# and |det| stays at or below about 1000, so that every op costs little
# more than the interpreter start and the cost of a block hardly depends on
# the seed.
CLI_SLOTS = (
    ("fermat", 4, 300, 400, (-10, 6)),
    ("cA", 2, 300, 400, (-12, 8)),
    ("cD", 1, 500, 600, (-12, 8)),
    ("chain2_fermat", 4, 500, 650, (-12, 8)),
    ("fermat", 4, 700, 850, (-12, 8)),
    ("chain", 4, 800, 1000, (-12, 8)),
    ("loop", 4, 800, 1000, (-12, 8)),
    ("cA", 2, 900, 1100, (-12, 8)),
)
CLI_PROBE_DMIN = -16

# family -> (l, k) of its golden op; can_cA is expected to exit 1 with the
# documented mismatch
GOLDEN_PARAMS = {
    "bp_cA": (2, 1),
    "can_cA": (2, 1),
    "bp_cD4": (None, 1),
    "laufer": (None, 1),
    "bp_cE6": (None, 1),
    "bp_cE8": (None, 1),
}


def _doc_name(poly, window):
    return f"{poly} {window[0]} {window[1]}"


def _cli_block(first, second, window):
    """table json x2, compare, table --monomials, probe-small-res."""
    dmin, dmax = str(window[0]), str(window[1])
    doc1, doc2 = _doc_name(first, window), _doc_name(second, window)
    table = ("table", "--dmin", dmin, "--dmax", dmax)
    steps = [
        (table[:1] + ("--poly", first) + table[1:] + ("--format", "json"), doc1),
        (table[:1] + ("--poly", second) + table[1:] + ("--format", "json"), doc2),
        (("compare", "@" + doc1, "@" + doc2), None),
        (table[:1] + ("--poly", first) + table[1:] + ("--monomials",), None),
        (("probe-small-res", "--poly", second, "--dmin", str(CLI_PROBE_DMIN)), None),
    ]
    return [Op("cli", "mfhh " + " ".join(argv), argv=argv, doc_out=doc) for argv, doc in steps]


def _golden_op(family, l, k):
    argv = ("golden", "--family", family) + (("--l", str(l)) if l is not None else ()) + ("--k", str(k))
    return Op("cli", "mfhh " + " ".join(argv), argv=argv)


def _cli_slot_pairs(slot):
    shape, nvars, lo, hi, window = slot
    cands = slot_candidates(shape, nvars, lo, hi, amin=3)
    return [(cands[i], cands[(i + 1) % len(cands)], window) for i in range(len(cands))]


def _cli_catalogue():
    ops = []
    for slot in CLI_SLOTS:
        for pair in _cli_slot_pairs(slot):
            ops.extend(_cli_block(*pair))
    ops.extend(_golden_op(family, *params) for family, params in GOLDEN_PARAMS.items())
    return ops


def _cli_build(rng, rounds):
    ops = []
    for _ in range(rounds):
        for slot in CLI_SLOTS:
            ops.extend(_cli_block(*rng.choice(_cli_slot_pairs(slot))))
        ops.extend(_golden_op(family, *params) for family, params in GOLDEN_PARAMS.items())
    return ops


# -- workloads ----------------------------------------------------------------

# --seconds fixes the number of rounds, one per ROUND_SECONDS, so a run does
# the same work on every commit.  A 20 s run (two rounds) lasts about
# 25-35 s at the seed commit on a 2-core machine with CPython 3.11; round 0
# of large_group alone takes about 17 s with its anchors.  More ops per run
# give steadier medians.
ROUND_SECONDS = 10

# name -> (catalogue, builder)
WORKLOADS = {
    "large_group": (_large_catalogue, _large_build),
    "long_window": (_long_catalogue, _long_build),
    "cli_docs": (_cli_catalogue, _cli_build),
}


def rounds_for(seconds):
    return max(1, round(seconds / ROUND_SECONDS))


def build(workload, seed, seconds):
    """The op list of one run: fixed by (workload, seed, seconds) alone."""
    rng = random.Random(f"{workload}/{seed}")
    return WORKLOADS[workload][1](rng, rounds_for(seconds))


def catalogue(workload):
    """Every op any seed can produce, in an order that runs as a list."""
    return WORKLOADS[workload][0]()
