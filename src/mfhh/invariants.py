"""Derived contact invariants of bigraded tables.

scale_compare decides whether two tables agree on the negative-degree range
after rescaling the second grading by one nonzero constant; in the highest
compared degree with a nonzero weight such a constant must map the least (if
positive) or the largest (if negative) weight of the first table onto the
least of the second, so at most two constants are tried.  It reads runs,
never cells: one sweep each compares ranks and weight-0 dims, and one per
constant the rescaled runs, in O(runs log runs) for tables of one step and
slope.  Others are cut, down to points, so the top of the window is swept
first: a pair that differs there costs its runs, one that agrees its cells.
small_res_probe sweeps the rank less its reference, in O(runs log runs +
witnesses).  golden_check validates whole families against their closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import itemgetter
from typing import NamedTuple

from .engine import clip, compute_table, stretches
from .errors import GoldenMismatch, UnknownFamily, WindowMismatch
from .poly import parse


@dataclass(frozen=True)
class ScaleVerdict:
    kind: str  # 'equivalent' | 'distinguished' | 'inconclusive'
    window: tuple
    c: Fraction | None = None
    witness_degree: int | None = None
    witness_weights: tuple | None = None  # (weights of t1, weights of t2)

    @property
    def equivalent(self):
        return self.kind == "equivalent"


def _negative_overlap(t1, t2):
    if t1.dmin > t2.dmax or t2.dmin > t1.dmax:
        raise WindowMismatch(
            f"windows {t1.window} and {t2.window} are disjoint"
        )
    lo = max(t1.dmin, t2.dmin)
    hi = min(t1.dmax, t2.dmax, -1)
    return lo, hi


def _last_difference(sides, hi=None):
    """The highest degree where two (runs, step, factor) sides differ as
    multisets of points with weights times factor, or None.  Runs of the
    first side's slope split to the lcm of the degree steps, others into
    points, and the pieces are swept along that common step.  When that
    cuts runs (the steps or slopes differ) and both sides hold a run of
    several points (a side of points costs its cells in any sweep), the top
    max(sd1, sd2) degrees up to hi go first: clipping keeps each degree's
    multiset, so a difference there is the highest; else the whole sides."""
    (runs1, (sd1, sq1), f1), (runs2, (sd2, sq2), f2) = sides
    cut = (sd1, f1 * sq1) != (sd2, f2 * sq2)
    if hi is not None and cut and all(any(n > 1 for _, _, n, _ in runs) for runs in (runs1, runs2)):
        top = [(clip(runs, step, hi - max(sd1, sd2) + 1, hi), step, f) for runs, step, f in sides]
        found = _last_difference(top)
        if found is not None:
            return found
    S = lcm(sd1, sd2)
    Q = f1 * sq1 * (S // sd1)
    pieces = []
    for (runs, (sd, sq), f), sign in zip(sides, (1, -1)):
        j = S // sd if f * sq * (S // sd) == Q else None
        if j == 1:  # the runs already lie on the common step
            pieces += [(d, f * q, n, sign * m) for d, q, n, m in runs]
            continue
        pieces += [(d + i * sd, f * (q + i * sq), -((i - n) // j) if j else 1, sign * m)
                   for d, q, n, m in runs for i in range(min(j or n, n))]
    return max((r + (k2 - 1) * S for r, _, _, k2, _ in stretches(pieces, S, Q)), default=None)


def _zero_points(runs, step):
    """Each run's point of weight 0, if it has one, as a run of one point."""
    sd, sq = step
    points = []
    for d, q, n, m in runs:
        i, rem = divmod(-q, sq)  # a run has at most one point of weight 0
        if not rem and 0 <= i < n:
            points.append((d + i * sd, 0, 1, m))
    return points


def scale_compare(t1, t2):
    """Compare negative-degree weight multisets up to one rational rescale.

    A verdict of 'equivalent' is relative to the shared window (the tables
    may still differ outside it); 'inconclusive' means the shared window has
    no negative-degree content to compare.
    """
    lo, hi = _negative_overlap(t1, t2)
    runs1, runs2 = (clip(t.runs, t.step, lo, hi) for t in (t1, t2))
    if not (runs1 or runs2):
        return ScaleVerdict("inconclusive", (lo, hi))

    def distinguished(d):
        return ScaleVerdict(
            "distinguished", (lo, hi), None, d, (t1.weights(d), t2.weights(d))
        )

    # ranks and zero-weight dims first: the highest degree where either differs
    z1, z2 = _zero_points(runs1, t1.step), _zero_points(runs2, t2.step)
    differ = [
        _last_difference(((runs1, t1.step, 0), (runs2, t2.step, 0)), hi),
        _last_difference(((z1, (1, 1), 0), (z2, (1, 1), 0))),
    ]
    differ = [d for d in differ if d is not None]
    if differ:
        return distinguished(max(differ))
    # the highest degree where t1 has a nonzero weight: a run's top point, or
    # the one below it when the top has weight 0
    sd1, sq1 = t1.step
    tops = []
    for d, q, n, _ in runs1:
        i = n - 1 if q + (n - 1) * sq1 else n - 2
        if i >= 0:
            tops.append(d + i * sd1)
    star = max(tops, default=None)
    if star is None:
        # only zero weights anywhere: the tables agree as they stand
        return ScaleVerdict("equivalent", (lo, hi), Fraction(1))
    # c*nz1 = nz2 as multisets maps the least of nz1 (c > 0) or the largest
    # (c < 0) onto the least of nz2; every other ratio fails at that degree
    nz1 = t1.row(star).keys() - {0}
    low2 = min(t2.row(star).keys() - {0})
    candidates = sorted(
        {Fraction(low2, min(nz1)), Fraction(low2, max(nz1))},
        key=lambda c: (c != 1, abs(c), c),
    )
    fails = []
    for c in candidates:
        # c = a/b with b > 0: c*nz1 = nz2 exactly when a*nz1 = b*nz2; the
        # zero weights may stay in, as their dims already agree
        fail = _last_difference(((runs1, t1.step, c.numerator), (runs2, t2.step, c.denominator)), hi)
        if fail is None:
            return ScaleVerdict("equivalent", (lo, hi), c)
        fails.append(fail)
    # the witness is the lowest of the candidates' first failures
    return distinguished(min(fails))


@dataclass(frozen=True)
class SmallResVerdict:
    kind: str  # 'constant' | 'nonconstant'
    window: tuple
    rank: int | None = None
    witnesses: tuple = ()  # (degree, rank) pairs off the rank at min(dmax, -1)

    @property
    def constant(self):
        return self.kind == "constant"


def small_res_probe(t):
    """Is the total rank the same in every negative degree of the window?

    The verdict is window-relative; it checks the cohomological criterion
    only and says nothing about geometry by itself.
    """
    lo, hi = t.dmin, min(t.dmax, -1)
    sd, ref = t.step[0], t.dim(hi)
    # the rank less ref along the window, one run of -ref per residue class
    # of the degree step: the witnesses, one per degree, are the points of its stretches
    runs = [(d, 0, n, m) for d, _, n, m in clip(t.runs, t.step, lo, hi)]
    runs += [(d, 0, (hi - d) // sd + 1, -ref) for d in range(lo, min(lo + sd, hi + 1))] if ref else []
    witnesses = tuple(sorted(((d, h + ref) for r, _, k, k2, h in stretches(runs, sd, 0)
                              for d in range(r + k * sd, r + k2 * sd, sd)), key=itemgetter(0)))
    if witnesses:
        return SmallResVerdict("nonconstant", (lo, hi), None, witnesses)
    return SmallResVerdict("constant", (lo, hi), ref)


# -- golden families ---------------------------------------------------------

# name -> (polynomial builder, dim HH^3 closed form, constant negative rank,
#          least l or None if it takes no l, conditional on an unproven equivalence?)
_FAMILIES = {
    "bp_cA": (
        lambda l, k: f"x1^2+x2^2+x3^{l + 1}+x4^{k * (l + 1)}",
        lambda l, k: l * (k * (l + 1) - 1),
        lambda l, k: l,
        1,
        False,
    ),
    "can_cA": (
        lambda l, k: f"x1^2+x2^2+x3^{l}*x4+x3*x4^{k * (l - 1) + 1}",
        lambda l, k: (k * l + 1) * (l - 1),
        lambda l, k: l,
        2,
        False,
    ),
    "bp_cD4": (
        lambda l, k: f"x1^2+x2^3+x3^3+x4^{6 * k}",
        lambda l, k: 24 * k - 4,
        lambda l, k: 4,
        None,
        False,
    ),
    "laufer": (
        lambda l, k: f"x1^3*x2+x2^{2 * k + 1}*x3+x3^2+x4^2",
        lambda l, k: 6 * k + 5,
        lambda l, k: 1,
        None,
        True,
    ),
    "bp_cE6": (
        lambda l, k: f"x1^2+x2^3+x3^4+x4^{12 * k}",
        lambda l, k: 72 * k - 6,
        lambda l, k: 6,
        None,
        False,
    ),
    "bp_cE8": (
        lambda l, k: f"x1^2+x2^3+x3^5+x4^{30 * k}",
        lambda l, k: 240 * k - 8,
        lambda l, k: 8,
        None,
        False,
    ),
}

FAMILY_NAMES = tuple(sorted(_FAMILIES))


class GoldenReport(NamedTuple):
    family: str
    l: int | None
    k: int
    poly_text: str
    window: tuple
    checks: list  # (name, expected, got)
    conditional: bool = False

    @property
    def passed(self):
        return all(exp == got for _, exp, got in self.checks)

    def diff_text(self):
        lines = [
            f"golden {self.family} l={self.l} k={self.k}: {self.poly_text}"
        ]
        if self.conditional:
            lines.append("  (conditional: relies on an unproven equivalence)")
        for name, exp, got in self.checks:
            mark = "ok" if exp == got else "MISMATCH"
            lines.append(f"  {name}: expected {exp}, got {got}  [{mark}]")
        return "\n".join(lines)


def golden_family_poly(family, l=None, k=1):
    if family not in _FAMILIES:
        raise UnknownFamily(f"unknown family {family!r}; known: {', '.join(FAMILY_NAMES)}")
    builder, _, _, least_l, _ = _FAMILIES[family]
    if k < 1:
        raise UnknownFamily(f"family {family!r} needs k >= 1")
    if least_l is not None:
        if l is None:
            raise UnknownFamily(f"family {family!r} needs the parameter l")
        if l < least_l:
            raise UnknownFamily(f"family {family!r} needs l >= {least_l}")
    return parse(builder(l, k))


def golden_check(family, l=None, k=1):
    """Run the table for one family and assert its closed forms.

    Returns the report when everything matches and raises GoldenMismatch
    (carrying the report) otherwise.
    """
    p = golden_family_poly(family, l, k)
    _, hh3_form, rank_form, least_l, conditional = _FAMILIES[family]
    window = (-4 * (k + 1), 8)
    table = compute_table(p, window)
    # every degree's dim from one sweep of the runs, weights set to 0
    sd, dims = table.step[0], {}
    for r, _, i, i2, h in stretches([(d, 0, n, m) for d, _, n, m in table.runs], sd, 0):
        dims.update(dict.fromkeys(range(r + i * sd, r + i2 * sd, sd), h))
    rank = rank_form(l, k)
    checks = [("dim HH^3", hh3_form(l, k), dims.get(3, 0)), ("dim HH^2", 0, dims.get(2, 0))]
    checks += [(f"dim HH^{d}", 0, dims.get(d, 0)) for d in range(4, 9)]
    checks += [(f"dim HH^{d}", rank, dims.get(d, 0)) for d in range(window[0], 2)]
    # the window always contains degree 2, so the table settles the flag
    checks.append(("HH^2 vanishes", True, dims.get(2, 0) == 0))
    report = GoldenReport(family, None if least_l is None else l, k, str(p), window, checks, conditional)
    if not report.passed:
        raise GoldenMismatch(report)
    return report
