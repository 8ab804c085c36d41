"""Jacobian rings of restricted polynomials via Buchberger over the rationals.

The restriction of w to a set of fixed variables keeps the monomials that
only involve those variables; the Jacobian ideal is generated by the partial
derivatives with respect to the fixed variables.  monomial_basis() returns
the standard monomials (a divisibility-closed staircase) of a Groebner basis
under grevlex, in ascending grevlex order, so the result is deterministic;
its dimension equals the Milnor number for the full restriction.  Grevlex is
the package's only monomial order: the tables do not depend on the basis.

Components.  Call two fixed variables linked when some term contains both,
and split the variables into the classes this generates
(component_variables).  Each partial derivative involves the variables of
one class only, so the Jacobian ideal is the sum of the classes' ideals,
and those live in disjoint variables.  An S-pair across two classes has
coprime leading monomials, so Buchberger's first criterion skips it, and
one Groebner basis of the whole restriction is the union of the classes'.
Its staircase is the product of theirs, 0 if one class's ring is, else
finite exactly when every class's is, and monomial_basis grows it at once.
The split serves milnor_number, which multiplies the classes' dimensions
and sizes an atom among them by its boxes, and SymmetryContext, whose
blocks are the classes of a matrix with no atom matching.

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

Bases of atoms.  A table does not depend on the basis, so the join passes
monomial_basis a restriction's atom, as SymmetryContext.walks gives it, and
gets its Kreuzer-Krawitz boxes in walk order with no Groebner basis and no
matching; milnor_number, and the join on a block with no walk, match each
component once (atom_of) to read its boxes.  A listing renames their points
(normal_form); the staircase serves only components that are no atom.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod
from operator import le, neg
from typing import NamedTuple

from .errors import InputError, NotIsolated
from .poly import atom_walks


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
    """Full normal form of f modulo gens, each held as ((lead, coefficient), generator)."""
    work = dict(f)
    rem = {}
    while work:
        m = max(work, key=key)
        c = work.pop(m)
        for (lm, lc), g in gens:
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
    """A Groebner basis of gens under key, each generator as ((lead, coefficient), generator)."""
    basis = [(_lead(g, key), dict(g)) for g in gens if g]
    pairs = [(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))]
    while pairs:
        i, j = pairs.pop(0)
        ((lmi, lci), gi), ((lmj, lcj), gj) = basis[i], basis[j]
        lcm = _lcm(lmi, lmj)
        if lcm == _mono_mul(lmi, lmj):
            continue  # coprime leading monomials: S-polynomial reduces to zero
        s = {}
        qi, qj = _mono_div(lcm, lmi), _mono_div(lcm, lmj)
        for gm, gc in gi.items():
            t = _mono_mul(gm, qi)
            s[t] = s.get(t, Fraction(0)) + gc / lci
        for gm, gc in gj.items():
            t = _mono_mul(gm, qj)
            s[t] = s.get(t, Fraction(0)) - gc / lcj
        s = {m: c for m, c in s.items() if c}
        r = _reduce(s, basis, key)
        if r:
            pairs.extend((k, len(basis)) for k in range(len(basis)))
            basis.append((_lead(r, key), r))
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
    variables: tuple  # 1-based indices in walk order, aligned with each box
    boxes: tuple  # disjoint boxes, each one range of exponents per variable

    @property
    def dimension(self):
        return sum(prod(map(len, box)) for box in self.boxes)


def restrict(p, fixed):
    """Drop every monomial of p that involves a variable outside `fixed`."""
    fixed = tuple(sorted(set(fixed)))
    if not all(1 <= v <= p.nvars for v in fixed):
        raise InputError(f"variable index out of range 1..{p.nvars}: {fixed}")
    keep, drop = [v - 1 for v in fixed], [j for j in range(p.nvars) if j + 1 not in fixed]
    terms = (tuple(map(row.__getitem__, keep)) for row in p.matrix if not any(map(row.__getitem__, drop)))
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


def _staircase(terms, nvars):
    """Staircase of the Jacobian ideal of terms over nvars variables in
    ascending grevlex order; None if it is infinite."""
    gens = _groebner(_jacobian_generators(terms, nvars), _grevlex_key)
    leads = [lm for (lm, _), _ in gens]
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


def atom_boxes(atom):
    """The Kreuzer-Krawitz basis of one Fermat, chain or loop atom (walk, loop),
    as poly.atom_walks gives it, as disjoint boxes: tuples of one range of
    exponents per variable of the walk, in walk order.

    A loop x1^a1*x2 + .. + xn^an*x1 has the box prod [0, a_i).  A chain
    x1^a1*x2 + .. + xn^an (a Fermat atom when n = 1) has the box
    alpha_i < a_i less the alpha that agree with P = (a1-1, 0, a3-1, 0, ..)
    up to an even position 2l and have alpha_2l >= 1, and for odd n also P
    itself.  So it keeps the alpha that first leave P at an odd position i,
    with alpha_i < a_i - 1 there, plus P for even n: one box per odd i.
    """
    walk, loop = atom
    if loop:
        return [tuple(range(a) for _, a in walk)]
    pins = [range(a - 1, a) if i % 2 == 0 else range(1) for i, (_, a) in enumerate(walk)]
    boxes = (pins[:f] + [range(a - (i == f)) for i, (_, a) in enumerate(walk[f:], f)]
             for f in range(0, len(walk) + 1, 2))
    return [tuple(box) for box in boxes if all(box)]


def atom_of(r):
    """The one atom of a restriction, as SymmetryContext.walks gives it (columns of r.parent),
    or None when r's rows are no single Fermat, chain or loop atom."""
    walks = atom_walks(r.terms) if len(r.terms) == len(r.fixed) else None
    if walks and len(walks) == 1:
        return tuple((r.fixed[v] - 1, a) for v, a in walks[0][0]), walks[0][1]


def not_isolated(fixed):
    """The error for a restriction whose Jacobian ring is infinite."""
    return NotIsolated(
        f"Jacobian ring of the restriction to {fixed} is infinite-dimensional"
    )


def component_variables(r):
    """The variables of each connected component of r, the classes of r.fixed
    that share a term, in order of their first variable.  Restricting
    r.parent to them gives back the component."""
    root = list(range(len(r.fixed)))

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    for t in r.terms:
        support = [find(k) for k, e in enumerate(t) if e]
        for k in support[1:]:
            root[k] = support[0]
    classes = {}
    for v in range(len(root)):
        classes.setdefault(find(v), []).append(r.fixed[v])
    return [tuple(c) for c in classes.values()]


def monomial_basis(r, atom=None):
    """Standard monomials of the Jacobian ideal of the restriction, in
    ascending grevlex order.  Given r's atom, (walk, loop) over columns of
    r.parent, its Kreuzer-Krawitz basis as a BoxBasis over the walk's
    variables instead (see atom_boxes); an InputError if the atom's
    variables are not r.fixed."""
    if atom is not None:
        variables = tuple(v + 1 for v, _ in atom[0])
        if tuple(sorted(variables)) != r.fixed:
            raise InputError(f"an atom on {variables} is no basis of the restriction to {r.fixed}")
        return BoxBasis(variables, tuple(atom_boxes(atom)))
    if (staircase := _staircase(r.terms, len(r.fixed))) is None:
        raise not_isolated(r.fixed)
    return MonomialBasis(r.fixed, staircase)


def normal_form(r, m, bases):
    """The standard monomial of the grevlex normal form of the monomial m over r.fixed, r an atom's
    restriction.  Each variable of an atom lies in at most two terms, so its Jacobian ideal is
    binomial and the normal form is a nonzero scalar times one monomial (Eisenbud-Sturmfels,
    Binomial ideals, 1996, Prop. 1.1).  bases holds the caller's Groebner bases by r.fixed."""
    if r.fixed not in bases:
        bases[r.fixed] = _groebner(_jacobian_generators(r.terms, len(r.fixed)), _grevlex_key)
    (standard, _), = _reduce({m: Fraction(1)}, bases[r.fixed], _grevlex_key).items()
    return standard


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
            dims.append(monomial_basis(c := restrict(p, variables), atom_of(c)).dimension)
        except NotIsolated:
            dims.append(None)
    if 0 in dims:
        return 0
    if None in dims:
        raise not_isolated(r.fixed)
    return prod(dims)
