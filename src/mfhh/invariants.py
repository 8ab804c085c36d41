"""Derived contact invariants of bigraded tables.

scale_compare decides whether two tables agree on the negative-degree range
after rescaling the second grading by one nonzero constant; in the highest
compared degree with a nonzero weight such a constant must map the least (if
positive) or the largest (if negative) weight of the first table onto the
least of the second, so at most two constants are tried.  A degree with no
cell in either table agrees under every constant, so scale_compare reads
only the rows of the degrees that hold a cell and costs O(cells), however
long the window.  small_res_probe checks for constant total rank in every
negative degree of the window; its witnesses list every deviating degree,
empty ones included, so it costs O(cells + window length).  golden_check
validates whole families against their closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .engine import compute_table
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


def scale_compare(t1, t2):
    """Compare negative-degree weight multisets up to one rational rescale.

    A verdict of 'equivalent' is relative to the shared window (the tables
    may still differ outside it); 'inconclusive' means the shared window has
    no negative-degree content to compare.
    """
    lo, hi = _negative_overlap(t1, t2)
    # a degree with no cell in either table agrees under every constant
    degrees = sorted(
        {d for t in (t1, t2) for d, _ in t.cells if lo <= d <= hi}, reverse=True
    )
    if not degrees:
        return ScaleVerdict("inconclusive", (lo, hi))

    def rows():
        return ((d, t1.row(d), t2.row(d)) for d in degrees)

    def distinguished(d):
        return ScaleVerdict(
            "distinguished", (lo, hi), None, d, (t1.weights(d), t2.weights(d))
        )

    for d, r1, r2 in rows():
        if sum(r1.values()) != sum(r2.values()) or r1.get(0) != r2.get(0):
            return distinguished(d)
    star = next(((r1, r2) for _, r1, r2 in rows() if r1.keys() - {0}), None)
    if star is None:
        # only zero weights anywhere: the tables agree as they stand
        return ScaleVerdict("equivalent", (lo, hi), Fraction(1))
    # c*nz1 = nz2 as multisets maps the least of nz1 (c > 0) or the largest
    # (c < 0) onto the least of nz2; every other ratio fails at that degree
    nz1 = star[0].keys() - {0}
    low2 = min(star[1].keys() - {0})
    candidates = sorted(
        {Fraction(low2, min(nz1)), Fraction(low2, max(nz1))},
        key=lambda c: (c != 1, abs(c), c),
    )
    fails = []
    for c in candidates:
        # c = a/b with b > 0: c*nz1 = nz2 exactly when a*nz1 = b*nz2, and
        # q -> a*q is one-to-one, so the rows can be compared as dicts
        a, b = c.numerator, c.denominator
        fail = next((
            d for d, r1, r2 in rows()
            if {a * q: m for q, m in r1.items() if q} != {b * q: m for q, m in r2.items() if q}
        ), None)
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
    ranks = {d: t.dim(d) for d in range(lo, hi + 1)}
    ref = ranks.get(hi, 0)
    witnesses = tuple((d, r) for d, r in sorted(ranks.items()) if r != ref)
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


@dataclass
class GoldenReport:
    family: str
    l: int | None
    k: int
    poly_text: str
    window: tuple
    checks: list = field(default_factory=list)  # (name, expected, got)
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
    report = GoldenReport(family, None if least_l is None else l, k, str(p), window,
                          conditional=conditional)
    report.checks.append(("dim HH^3", hh3_form(l, k), table.dim(3)))
    report.checks.append(("dim HH^2", 0, table.dim(2)))
    for d in range(4, 9):
        report.checks.append((f"dim HH^{d}", 0, table.dim(d)))
    rank = rank_form(l, k)
    for d in range(window[0], 2):
        report.checks.append((f"dim HH^{d}", rank, table.dim(d)))
    # the window always contains degree 2, so the table settles the flag
    report.checks.append(("HH^2 vanishes", True, table.dim(2) == 0))
    if not report.passed:
        raise GoldenMismatch(report)
    return report
