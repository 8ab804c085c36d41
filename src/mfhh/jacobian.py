"""Jacobian rings of restricted polynomials via Buchberger over the rationals.

The restriction of w to a set of fixed variables keeps the monomials that
only involve those variables; the Jacobian ideal is generated by the partial
derivatives with respect to the fixed variables.  monomial_basis() returns
the standard monomials (a divisibility-closed staircase) of a Groebner basis
under the requested order, so the result is deterministic; the dimension is
order-independent and equals the Milnor number for the full restriction.

Components.  Call two fixed variables linked when some term contains both,
and split the variables into the classes this generates.  Each partial
derivative involves the variables of one class only, so the Jacobian ideal
is the sum of the classes' ideals, and those live in disjoint variables.
Take a Groebner basis of each class under the order restricted to its
variables (grevlex and lex both restrict to grevlex and lex on any subset
of the variables, in the same relative order).  Their union is a Groebner
basis of the sum: an S-pair across two classes has coprime leading
monomials, so it reduces to zero by Buchberger's first criterion.  A
monomial is therefore standard exactly when its part in each class is, and
the staircase is the product of the per-class staircases; the ring is
finite-dimensional exactly when every class's ring is.  Staircases are
computed and cached per class, so an atom shared by several restrictions
or polynomials is solved once.

Growing a staircase.  Every monomial m != 0 has one parent m - e_last,
where last is its highest variable with a nonzero exponent, so the parents
form a tree on all monomials whose edges add e_v with v >= last.  A
staircase is closed under division, so it is the part of that tree reached
from 0 through standard monomials.  A child c = m + e_v of a standard m is
standard unless a leading monomial lm divides c; such an lm does not divide
m, so lm[v] == c[v].  Indexing the leads by (v, lm[v]) tests only those,
and the walk visits at most nvars * mu candidates instead of the bounding
box of the pure-power leads.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import itemgetter, le, mul, neg

from .errors import InputError, NotIsolated

ORDERS = ("grevlex", "lex")


def _grevlex_key(m):
    return (sum(m), tuple(map(neg, reversed(m))))


def _lex_key(m):
    return tuple(m)


def _key(order):
    if order == "grevlex":
        return _grevlex_key
    if order == "lex":
        return _lex_key
    raise ValueError(f"unknown monomial order {order!r}")


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


@dataclass(frozen=True)
class RestrictedPolynomial:
    parent: object  # the InvertiblePolynomial it came from
    fixed: tuple  # sorted 1-based indices of the kept variables
    terms: tuple  # exponent tuples over the fixed variables


@dataclass(frozen=True)
class MonomialBasis:
    variables: tuple  # 1-based indices, aligned with each monomial tuple
    monomials: tuple  # staircase, sorted by the construction order

    @property
    def dimension(self):
        return len(self.monomials)


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
# coordinates, its number of variables and the order, so an atom shared by
# several restrictions or polynomials is solved once.  The bound keeps a
# long-lived process from growing without limit.
BASIS_CACHE_SIZE = 1024


@lru_cache(maxsize=BASIS_CACHE_SIZE)
def _basis_cached(terms, nvars, order):
    """Staircase of one component, in growth order; None if it is infinite."""
    key = _key(order)
    leads = [max(g, key=key) for g in _groebner(_jacobian_generators(terms, nvars), key)]
    # finite dimension iff every variable has a pure power among the leads
    bounded = [False] * nvars
    for lm in leads:
        support = [k for k, e in enumerate(lm) if e]
        if len(support) == 1:
            bounded[support[0]] = True
    if not all(bounded):
        return None
    # grow from 0 along the parent tree of the module docstring, testing a
    # child m + e_v only against the leads with lm[v] == m[v] + 1
    by_edge = {}
    for lm in set(leads):
        for v, e in enumerate(lm):
            if e:
                by_edge.setdefault((v, e), []).append(lm)
    zero = (0,) * nvars
    grown = [] if zero in leads else [(zero, 0)]
    for m, last in grown:  # extended while it is walked
        for v in range(last, nvars):
            c = m[:v] + (m[v] + 1,) + m[v + 1:]
            edge = by_edge.get((v, c[v]))
            if edge is None or not any(_divides(lm, c) for lm in edge):
                grown.append((c, v))
    return tuple(m for m, _ in grown)


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


def _sort_weights(order, nvars, bound):
    """Integer weights whose dot product with a monomial sorts exactly as
    the order's key, for exponents below bound: grevlex is (degree, -m_last,
    .., -m_1) and lex is m itself, read as digits in base bound."""
    if order == "grevlex":
        return [bound**nvars - bound**i for i in range(nvars)]
    return [bound ** (nvars - 1 - i) for i in range(nvars)]


def monomial_basis(r, order="grevlex"):
    """Standard monomials of the Jacobian ideal of the restriction, sorted
    by the order; ValueError for an order outside ORDERS."""
    _key(order)
    monomials = [()]
    positions = []
    for pos, terms in _components(r):
        staircase = _basis_cached(terms, len(pos), order)
        if staircase is None:
            raise not_isolated(r.fixed)
        monomials = [m + s for m in monomials for s in staircase]
        positions += pos
    if positions != sorted(positions):
        # the classes interleave: move each exponent back to its variable
        place = itemgetter(*[positions.index(v) for v in range(len(positions))])
        monomials = [place(m) for m in monomials]
    bound = 1 + max(map(max, monomials)) if r.fixed and monomials else 1
    weights = _sort_weights(order, len(r.fixed), bound)
    monomials.sort(key=lambda m: sum(map(mul, m, weights)))
    return MonomialBasis(r.fixed, tuple(monomials))


def milnor_number(p):
    """Dimension of the Jacobian ring of the unrestricted polynomial."""
    return monomial_basis(restrict(p, range(1, p.nvars + 1))).dimension
