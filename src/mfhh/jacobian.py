"""Jacobian rings of restricted polynomials via Buchberger over the rationals.

The restriction of w to a set of fixed variables keeps the monomials that
only involve those variables; the Jacobian ideal is generated by the partial
derivatives with respect to the fixed variables.  monomial_basis() returns
the standard monomials (a divisibility-closed staircase) of a Groebner basis
under the requested order, so the result is deterministic; the dimension is
order-independent and equals the Milnor number for the full restriction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product

from .errors import InputError, NotIsolated

ORDERS = ("grevlex", "lex")


def _grevlex_key(m):
    return (sum(m), tuple(-e for e in reversed(m)))


def _lex_key(m):
    return tuple(m)


def _key(order):
    if order == "grevlex":
        return _grevlex_key
    if order == "lex":
        return _lex_key
    raise ValueError(f"unknown monomial order {order!r}")


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


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


def _jacobian_generators(r):
    nv = len(r.fixed)
    gens = []
    for v in range(nv):
        g = {}
        for t in r.terms:
            if t[v]:
                m = tuple(e - (k == v) for k, e in enumerate(t))
                g[m] = g.get(m, Fraction(0)) + t[v]
        if g:
            gens.append(g)
    return gens


# Bases are keyed by the frozen restriction (so by matrix and fixed
# variables) and the order; a table of an n-variable polynomial uses at most
# 2^n of them.  The bound keeps a long-lived process from growing without
# limit.
BASIS_CACHE_SIZE = 1024


@lru_cache(maxsize=BASIS_CACHE_SIZE)
def _basis_cached(r, order):
    nv = len(r.fixed)
    if nv == 0:
        # the ground field: one basis element, the empty monomial
        return MonomialBasis((), ((),))
    key = _key(order)
    basis = _groebner(_jacobian_generators(r), key)
    leads = [max(g, key=key) for g in basis]
    # finite dimension iff every variable has a pure power among the leads
    bounds = [None] * nv
    for lm in leads:
        support = [k for k, e in enumerate(lm) if e]
        if len(support) == 1:
            k = support[0]
            if bounds[k] is None or lm[k] < bounds[k]:
                bounds[k] = lm[k]
    if any(b is None for b in bounds):
        raise NotIsolated(
            f"Jacobian ring of the restriction to {r.fixed} is infinite-dimensional"
        )
    standard = []
    for m in product(*[range(b) for b in bounds]):
        if not any(_divides(lm, m) for lm in leads):
            standard.append(m)
    standard.sort(key=key)
    return MonomialBasis(r.fixed, tuple(standard))


def monomial_basis(r, order="grevlex"):
    """Standard monomials of the Jacobian ideal of the restriction."""
    return _basis_cached(r, order)


def milnor_number(p, order="grevlex"):
    """Dimension of the Jacobian ring of the unrestricted polynomial."""
    return monomial_basis(restrict(p, range(1, p.nvars + 1)), order).dimension
