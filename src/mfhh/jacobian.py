"""Jacobian rings of restricted polynomials via Buchberger over the rationals.

The restriction of w to a set of fixed variables keeps the monomials that
only involve those variables; the Jacobian ideal is generated by the partial
derivatives with respect to the fixed variables.  monomial_basis() returns
the standard monomials (a divisibility-closed staircase) of a Groebner basis
under grevlex, in ascending grevlex order, so the result is deterministic;
its dimension equals the Milnor number for the full restriction.  Grevlex is
the package's only monomial order: the tables do not depend on the basis.

Components.  Call two fixed variables linked when some term contains both,
and split the variables into the classes this generates.  Each partial
derivative involves the variables of one class only, so the Jacobian ideal
is the sum of the classes' ideals, and those live in disjoint variables.
Take a Groebner basis of each class under grevlex on its variables, which
is grevlex on all of them restricted to the class.  Their union is a
Groebner basis of the sum: an S-pair across two classes has coprime leading
monomials, so it reduces to zero by Buchberger's first criterion.  A
monomial is therefore standard exactly when its part in each class is, and
the staircase is the product of the per-class staircases; the ring is 0 if
one class's is (1 is in its ideal), else finite-dimensional exactly when
every class's ring is.  Staircases are computed and cached per class, so an
atom shared by several restrictions or polynomials is solved once.

Growing a staircase.  Every monomial m != 0 has one parent m - e_first,
where first is its lowest variable with a nonzero exponent, so the parents
form a tree on all monomials whose edges add e_v with v <= first.  Walk it
breadth-first from 0, adding e_v in descending v.  Then each degree comes
after the one below it, and within a degree the monomials come in ascending
grevlex order: grevlex puts first the monomial with the larger exponent at
the highest variable where two differ, and by induction on the degree the
walk reaches the parents in that order and, from one parent, adds the
higher variables first.  A staircase is closed under division, so it is the
part of that tree reached from 0 through standard monomials, and the walk
emits it already sorted.  A child c = m + e_v of a standard m is standard
unless a leading monomial lm divides c; such an lm does not divide m, so
lm[v] == c[v].  Indexing the leads by (v, lm[v]) tests only those, and the
walk visits at most nvars * mu candidates instead of the bounding box of
the pure-power leads.

Bases for tables.  A table does not depend on the basis, so tables ask
monomial_basis for boxes: each component of a standard polynomial is an
atom and gets its Kreuzer-Krawitz boxes with no Groebner basis, and so
does each atom of milnor_number.  The staircase serves listings and
components that are no atom.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import prod
from operator import itemgetter, le, neg
from typing import NamedTuple

from .errors import InputError, NotIsolated
from .poly import atom_heads


def _grevlex_key(m):
    return (sum(m), tuple(map(neg, reversed(m))))


def _divides(a, b):
    return all(map(le, a, b))


def _mono_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _mono_div(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def _lead(f, key):
    m = max(f, key=key)
    return m, f[m]


def _reduce(f, gens, key):
    """Full normal form of f modulo gens."""
    work = dict(f)
    rem = {}
    leads = [(_lead(g, key), g) for g in gens]
    while work:
        m = max(work, key=key)
        c = work.pop(m)
        for (lm, lc), g in leads:
            if _divides(lm, m):
                q = _mono_div(m, lm)
                f2 = c / lc
                for gm, gc in g.items():
                    if gm == lm:
                        continue
                    t = _mono_mul(gm, q)
                    nc = work.get(t, Fraction(0)) - f2 * gc
                    if nc:
                        work[t] = nc
                    else:
                        work.pop(t, None)
                break
        else:
            rem[m] = c
    return rem


def _groebner(gens, key):
    basis = [dict(g) for g in gens if g]
    pairs = [(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))]
    while pairs:
        i, j = pairs.pop(0)
        lmi, lci = _lead(basis[i], key)
        lmj, lcj = _lead(basis[j], key)
        lcm = _lcm(lmi, lmj)
        if lcm == _mono_mul(lmi, lmj):
            continue  # coprime leading monomials: S-polynomial reduces to zero
        s = {}
        qi, qj = _mono_div(lcm, lmi), _mono_div(lcm, lmj)
        for gm, gc in basis[i].items():
            t = _mono_mul(gm, qi)
            s[t] = s.get(t, Fraction(0)) + gc / lci
        for gm, gc in basis[j].items():
            t = _mono_mul(gm, qj)
            s[t] = s.get(t, Fraction(0)) - gc / lcj
        s = {m: c for m, c in s.items() if c}
        r = _reduce(s, basis, key)
        if r:
            pairs.extend((k, len(basis)) for k in range(len(basis)))
            basis.append(r)
    return basis


class RestrictedPolynomial(NamedTuple):
    parent: object  # the InvertiblePolynomial it came from
    fixed: tuple  # sorted 1-based indices of the kept variables
    terms: tuple  # exponent tuples over the fixed variables


class MonomialBasis(NamedTuple):
    variables: tuple  # 1-based indices, aligned with each monomial tuple
    monomials: tuple  # staircase, in ascending grevlex order

    @property
    def dimension(self):
        return len(self.monomials)


class BoxBasis(NamedTuple):
    variables: tuple  # 1-based indices, aligned with each box
    boxes: tuple  # disjoint boxes, each one range of exponents per variable

    @property
    def dimension(self):
        return sum(prod(map(len, box)) for box in self.boxes)


def restrict(p, fixed):
    """Drop every monomial of p that involves a variable outside `fixed`."""
    fixed = tuple(sorted(fixed))
    if not all(1 <= v <= p.nvars for v in fixed):
        raise InputError(f"variable index out of range 1..{p.nvars}: {fixed}")
    keep = set(fixed)
    terms = []
    for row in p.matrix:
        if all(e == 0 or (j + 1) in keep for j, e in enumerate(row)):
            terms.append(tuple(row[v - 1] for v in fixed))
    return RestrictedPolynomial(p, fixed, tuple(terms))


def _jacobian_generators(terms, nvars):
    gens = []
    for v in range(nvars):
        g = {}
        for t in terms:
            if t[v]:
                m = tuple(e - (k == v) for k, e in enumerate(t))
                g[m] = g.get(m, Fraction(0)) + t[v]
        if g:
            gens.append(g)
    return gens


def _components(r):
    """Split the fixed variables into the classes that share a term.

    Yields (positions, terms) per class in order of its first variable:
    positions index r.fixed, and the class's terms are written over those
    positions only, sorted so that equal atoms give equal cache keys.
    """
    root = list(range(len(r.fixed)))

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    for t in r.terms:
        support = [find(k) for k, e in enumerate(t) if e]
        for k in support[1:]:
            root[k] = support[0]
    positions, terms = {}, {}
    for v in range(len(root)):
        positions.setdefault(find(v), []).append(v)
    for t in r.terms:
        terms.setdefault(find(next(k for k, e in enumerate(t) if e)), []).append(t)
    for c, pos in positions.items():
        local = sorted(tuple(t[v] for v in pos) for t in terms.get(c, ()))
        yield tuple(pos), tuple(local)


# Staircases are cached per component, keyed by its terms in local
# coordinates and its number of variables, so an atom shared by several
# restrictions or polynomials is solved once.  The bound keeps a
# long-lived process from growing without limit.
BASIS_CACHE_SIZE = 1024


@lru_cache(maxsize=BASIS_CACHE_SIZE)
def _basis_cached(terms, nvars):
    """Staircase of one component in ascending grevlex order; None if it is
    infinite."""
    gens = _groebner(_jacobian_generators(terms, nvars), _grevlex_key)
    leads = [max(g, key=_grevlex_key) for g in gens]
    zero = (0,) * nvars
    # finite iff each variable has a pure-power lead, or 1 is a lead (ring 0)
    bounded = [zero in leads] * nvars
    for lm in leads:
        support = [k for k, e in enumerate(lm) if e]
        if len(support) == 1:
            bounded[support[0]] = True
    if not all(bounded):
        return None
    # grow from 0 breadth-first along the parent tree of the module
    # docstring, testing a child m + e_v only against the leads with
    # lm[v] == m[v] + 1
    by_edge = {}
    for lm in set(leads):
        for v, e in enumerate(lm):
            if e:
                by_edge.setdefault((v, e), []).append(lm)
    grown = [] if zero in leads else [(zero, nvars - 1)]
    for m, first in grown:  # extended while it is walked
        for v in range(first, -1, -1):
            c = m[:v] + (m[v] + 1,) + m[v + 1:]
            edge = by_edge.get((v, c[v]))
            if edge is None or not any(_divides(lm, c) for lm in edge):
                grown.append((c, v))
    return tuple(m for m, _ in grown)


def atom_boxes(r):
    """The Kreuzer-Krawitz basis of a connected restriction that is one
    Fermat, chain or loop atom, as disjoint boxes: tuples of one range of
    exponents per variable of r.fixed.  None for any other restriction.

    A loop x1^a1*x2 + .. + xn^an*x1 has the box prod [0, a_i).  A chain
    x1^a1*x2 + .. + xn^an (a Fermat atom when n = 1) has the box
    alpha_i < a_i less the alpha that agree with P = (a1-1, 0, a3-1, 0, ..)
    up to an even position 2l and have alpha_2l >= 1, and for odd n also P
    itself.  So it keeps the alpha that first leave P at an odd position i,
    with alpha_i < a_i - 1 there, plus P for even n: one box per odd i.
    """
    k = len(r.fixed)
    heads = atom_heads(r.terms) if len(r.terms) == k else None
    if heads is None:
        return None
    a, nxt = [0] * k, {}
    for row, (tail, head) in zip(r.terms, heads):
        a[tail] = row[tail]
        if head is not None:
            nxt[tail] = head
    if len(nxt) == k:  # a loop, or several when r is not connected
        return [tuple(map(range, a))]
    order = [min(set(range(k)) - set(nxt.values()))]  # a chain starts at no head
    while order[-1] in nxt:
        order.append(nxt[order[-1]])
    if len(order) != k:
        return None  # r is not connected
    boxes = []
    for first in range(0, k + 1, 2):
        box = [None] * k
        for i, v in enumerate(order):
            pin = a[v] - 1 if i % 2 == 0 else 0
            box[v] = range(pin, pin + 1) if i < first else range(a[v] - (i == first))
        if all(box):
            boxes.append(tuple(box))
    return boxes


def not_isolated(fixed):
    """The error for a restriction whose Jacobian ring is infinite."""
    return NotIsolated(
        f"Jacobian ring of the restriction to {fixed} is infinite-dimensional"
    )


def component_variables(r):
    """The variables of each connected component of r, in order of their
    first variable.  Restricting r.parent to them gives back the component,
    and r's staircase is the product of theirs."""
    return [tuple(r.fixed[v] for v in pos) for pos, _ in _components(r)]


def _staircases(r):
    """(positions, staircase) per component of r, or one empty one if a ring is 0."""
    found = [(pos, _basis_cached(terms, len(pos))) for pos, terms in _components(r)]
    if () in (s for _, s in found):
        return [((), ())]
    if None in (s for _, s in found):
        raise not_isolated(r.fixed)
    return found


def monomial_basis(r, boxes=False):
    """Standard monomials of the Jacobian ideal of the restriction, in
    ascending grevlex order.  With boxes, a restriction that is one Fermat,
    chain or loop atom gets its Kreuzer-Krawitz basis as a BoxBasis
    instead (see atom_boxes)."""
    found = atom_boxes(r) if boxes else None
    if found is not None:
        return BoxBasis(r.fixed, tuple(found))
    staircases = list(_staircases(r))
    if len(staircases) == 1:
        return MonomialBasis(r.fixed, staircases[0][1])
    monomials = [()]
    positions = []
    for pos, staircase in staircases:
        monomials = [m + s for m in monomials for s in staircase]
        positions += pos
    if positions != sorted(positions):
        # the classes interleave: move each exponent back to its variable
        place = itemgetter(*[positions.index(v) for v in range(len(positions))])
        monomials = [place(m) for m in monomials]
    monomials.sort(key=_grevlex_key)
    return MonomialBasis(r.fixed, tuple(monomials))


def milnor_number(p):
    """Dimension of the Jacobian ring of p: its components' dimensions
    multiplied, with no product basis built.  An atom's dimension is read
    off its boxes, so no Groebner basis is computed for it.  A component
    whose ring is 0 makes the product 0 even next to an infinite one, so
    every component is solved before one raises."""
    r = restrict(p, range(1, p.nvars + 1))
    dims = []
    for variables in component_variables(r):
        try:
            dims.append(monomial_basis(restrict(p, variables), True).dimension)
        except NotIsolated:
            dims.append(None)
    if 0 in dims:
        return 0
    if None in dims:
        raise not_isolated(r.fixed)
    return prod(dims)
