"""Test-only Jacobian bases in either monomial order.

The package grows grevlex staircases per connected component and never
sorts a connected one.  `box_walk_basis` is the route it replaced, and the
one the tests take a lex basis from: Buchberger on the whole restriction
(through `jacobian._groebner`, which is generic over the order), a walk of
the bounding box of the pure-power leads, and a sort by the order's key.
The keys are written here again, so a test that compares the package's
basis with this one does not read the package's key.
"""

from itertools import product
from operator import neg

from mfhh.errors import NotIsolated
from mfhh.jacobian import MonomialBasis, _divides, _groebner, _jacobian_generators, monomial_basis


def grevlex_key(m):
    return (sum(m), tuple(map(neg, reversed(m))))


def lex_key(m):
    return tuple(m)


KEYS = {"grevlex": grevlex_key, "lex": lex_key}


def box_walk_basis(r, order):
    """The standard monomials of the restriction's Jacobian ideal under the
    order, sorted by its key; NotIsolated with the package's message when
    the ring is infinite-dimensional."""
    nv = len(r.fixed)
    if nv == 0:
        # the ground field: one basis element, the empty monomial
        return MonomialBasis((), ((),))
    key = KEYS[order]
    basis = _groebner(_jacobian_generators(r.terms, nv), key)
    leads = [lm for (lm, _), _ in basis]
    if (0,) * nv in leads:
        # the unit ideal: the ring is 0 whatever the other leads are
        return MonomialBasis(r.fixed, ())
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


def basis_in(r, order):
    """The package's basis for grevlex, the box-walk basis for lex."""
    return monomial_basis(r) if order == "grevlex" else box_walk_basis(r, order)
