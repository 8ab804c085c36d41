"""Invertible polynomials: parsing, validation, transpose and weight systems.

An invertible polynomial in n variables is a sum of exactly n monomials with
unit coefficients whose n-by-n exponent matrix has nonzero determinant and
splits, after a simultaneous permutation of monomials and variables, into
Fermat (x^a), chain (x1^a1 x2 + ... + xm^am) and loop
(x1^a1 x2 + ... + xm^am x1) pieces.

Grammar accepted by parse():

    poly    := term ("+" term)* ;
    term    := factor ("*" factor)* ;
    factor  := var ("^" nat)? ;
    var     := "x" nat ;
    nat     := [1-9][0-9]* ;

Whitespace is ignored.  Serialized form: {"vars": n, "rows": [[a11,...],...]}.
"""

from __future__ import annotations

import re
import warnings
from math import gcd, lcm, prod
from operator import mul
from typing import NamedTuple

from . import lattice
from .errors import CoefficientError, NoPositiveSolution, NotInvertible, PolySyntaxError, SchemaError

_TOKEN = re.compile(r"x[1-9][0-9]*|\^|\*|\+|[0-9]+|\S")


def _tokenize(text):
    out = []
    for tok in _TOKEN.findall(text):
        if tok == "x" or not (tok[0] == "x" or tok in "^*+" or tok.isdigit()):
            raise PolySyntaxError(f"bad token {tok!r}")
        out.append(tok)
    return out


def monomial_text(pairs):
    """The monomial of (j, e) pairs as text: x{j} for e = 1, the dual x{j}^∨
    for e = -1 and x{j}^{e} for any other e != 0, joined by '*'; pairs with
    e = 0 are skipped, and no factor at all is "1"."""
    factors = (f"x{j}" if e == 1 else f"x{j}^∨" if e == -1 else f"x{j}^{e}" for j, e in pairs if e)
    return "*".join(factors) or "1"


class WeightSystem(NamedTuple):
    d: tuple  # positive integer weights d_1..d_n
    h: int  # common weighted degree of every monomial
    d0: int  # h - sum(d)


class InvertiblePolynomial(NamedTuple):
    matrix: tuple  # rows = monomials, columns = variables

    @property
    def nvars(self):
        return len(self.matrix)

    def det(self):
        return lattice.det(self.matrix)

    def transpose(self):
        return InvertiblePolynomial(tuple(zip(*self.matrix)))

    def weights(self):
        return weights(self)

    def __str__(self):
        return " + ".join(monomial_text(enumerate(row, start=1)) for row in self.matrix)

    def to_json(self):
        return {"vars": self.nvars, "rows": [list(row) for row in self.matrix]}

    @classmethod
    def from_json(cls, obj):
        """The polynomial of a to_json dict, validated; a SchemaError unless
        rows is a list of lists of ints and vars, if given, counts them."""
        rows = obj.get("rows") if isinstance(obj, dict) else None
        # bool is an int subclass, and a float or string must not be truncated
        if not (
            isinstance(rows, list)
            and all(isinstance(row, list) and all(type(e) is int for e in row) for row in rows)
        ):
            raise SchemaError("a polynomial document needs 'rows', a list of integer lists")
        n = obj.get("vars", len(rows))
        if type(n) is not int or n != len(rows):
            raise SchemaError(f"a polynomial document has 'vars' {n!r} but {len(rows)} rows")
        rows = tuple(map(tuple, rows))
        _validate(rows)
        return cls(rows)


def atom_walks(rows):
    """The atoms of A, or None when no matching of rows to distinct 'tail' variables makes the heads
    disjoint chains and loops (a row's head: None for a pure power x_tail^a, a >= 2, else the variable
    of exponent 1 next to x_tail).  Per atom its (variable, exponent) pairs along the heads from a
    chain's start (no row's head; a Fermat atom is a chain of one), and whether it is a loop."""
    n = len(rows)
    options = []
    for row in rows:
        nz = [(j, e) for j, e in enumerate(row) if e]
        opts = []
        if len(nz) == 1 and nz[0][1] >= 2:  # a bare linear monomial is not an atom
            opts = [(nz[0][0], None)]
        elif len(nz) == 2:
            (j1, e1), (j2, e2) = nz
            opts = [(j1, j2)] * (e2 == 1) + [(j2, j1)] * (e1 == 1)
        if not opts:
            return None
        options.append(opts)
    options.append([])  # past the last row
    # depth first without recursion: trials[i] yields the options row i has left
    chosen, trials, tails, heads = [], [iter(options[0])], set(), set()
    while len(chosen) < n:
        pick = next((o for o in trials[-1] if o[0] not in tails and o[1] not in heads), None)
        if pick is None:
            trials.pop()
            if not chosen:
                return None
            tail, head = chosen.pop()
            tails.remove(tail)
            heads.discard(head)
            continue
        chosen.append(pick)
        tails.add(pick[0])
        heads |= {pick[1]} - {None}  # any number of rows end a chain
        trials.append(iter(options[len(chosen)]))
    follow = {tail: (head, row[tail]) for row, (tail, head) in zip(rows, chosen)}
    walks = []
    for v in [*(v for v in follow if v not in heads), *follow]:  # chains, then loops
        walk = []
        while v in follow:
            walk.append((v, follow[v][1]))
            v = follow.pop(v)[0]
        if walk:  # a chain ends at head None, a loop back at its start
            walks.append((tuple(walk), v is not None))
    return tuple(walks)


def atom_det(walks):
    """det A up to sign: per atom walk, the product of its exponents, less (-1)^length for a loop."""
    return prod(prod(a for _, a in walk) - (-1) ** len(walk) * loop for walk, loop in walks)


def _not_square(n, width):
    return NotInvertible(
        f"{n} monomials but {width} variables; an invertible polynomial is square"
    )


def _nat(tok, what):
    """int(tok), or a PolySyntaxError where Python's limit on the digits of
    an int conversion refuses it; the message gives the length, since such
    an int cannot be printed either."""
    try:
        return int(tok)
    except ValueError:
        raise PolySyntaxError(f"{what} of {len(tok)} digits is too long") from None


def _validate(rows, allow_nonstandard=False):
    n = len(rows)
    if n == 0:
        raise NotInvertible("empty polynomial")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise NotInvertible("ragged exponent matrix")
    if any(e < 0 for r in rows for e in r):
        raise NotInvertible("negative exponent")
    if width != n:
        raise _not_square(n, width)
    for j in range(n):
        if all(r[j] == 0 for r in rows):
            raise NotInvertible(f"variable x{j + 1} does not occur")
    # only a matrix that is no sum of atoms needs Bareiss
    walks = atom_walks(rows)
    if (lattice.det(rows) if walks is None else atom_det(walks)) == 0:
        raise NotInvertible("exponent matrix is singular")
    if walks is None:
        msg = "polynomial is not a sum of Fermat/chain/loop atoms"
        if allow_nonstandard:
            warnings.warn(msg)
        else:
            raise NotInvertible(msg)


def parse(text, allow_nonstandard=False):
    """Parse the grammar above into an InvertiblePolynomial.

    Monomial order in the matrix is input order.  Coefficients other than +1
    are rejected; repeated variables inside one term multiply out (exponents
    add).
    """
    # want: a factor, "^" or an operator after a variable, an exponent, an operator after one
    terms, exps, want = [], {}, "factor"
    for tok in _tokenize(text) + [None]:
        if want == "factor":
            if tok is None:
                raise PolySyntaxError("unexpected end of input")
            if tok.isdigit():
                raise CoefficientError(f"coefficient {tok} is not allowed; monomials are monic")
            if tok[0] != "x":
                raise PolySyntaxError(f"expected a variable, got {tok!r}")
            var, want = _nat(tok[1:], "variable index"), "^"
            exps[var] = exps.get(var, 0) + 1
        elif want == "exponent":
            if tok is None or not tok.isdigit() or tok.startswith("0"):
                raise PolySyntaxError("expected a positive exponent after '^'")
            exps[var] += _nat(tok, "exponent") - 1
            want = "operator"
        elif tok == "^" and want == "^":
            want = "exponent"
        elif tok in ("*", "+", None):
            if tok != "*":  # a term ends
                terms.append(exps)
                exps = {}
            want = "factor"
        else:
            raise PolySyntaxError(f"unexpected token {tok!r}")

    # exponents are positive, so equal terms are equal dicts
    if len({frozenset(t.items()) for t in terms}) != len(terms):
        raise NotInvertible("repeated monomial")
    width = max(v for t in terms for v in t)
    if width > len(terms):
        raise _not_square(len(terms), width)  # before building width-long rows
    rows = tuple(tuple(t.get(j + 1, 0) for j in range(width)) for t in terms)
    _validate(rows, allow_nonstandard=allow_nonstandard)
    return InvertiblePolynomial(rows)


def _factors(rows, walks):
    """(D = lcm(h), the cyclic factors (h, chi) of Z^n/rowspace(A), D q with A q = 1), or None for a
    singular A: per atom off its walk, x_v1 going to 1 and x_v(i+1) to -a_i times x_vi's image in
    Z/h, else per column j of V in U A V = diag(h), with D q = V ((U 1)_j D / h_j)."""
    if walks is None:
        sd = lattice.smith(rows)
        hs = sd.diagonal
    else:
        hs = [atom_det((walk,)) for walk in walks]
    if 0 in hs:  # a singular atom, or a singular A
        return None
    D, factors, q = lcm(*hs), [], [0] * len(rows)
    if walks is None:
        u1 = [D // h * sum(row) for h, row in zip(hs, sd.u)]  # (U 1)_j D / h_j
        return D, list(zip(hs, zip(*sd.v))), [sum(map(mul, row, u1)) for row in sd.v]
    for (walk, _), h in zip(walks, hs):
        chi, x, t = [0] * len(rows), 1, 0
        for v, e in walk:
            chi[v], x, t = x % h, -e * x % h, 1 - e * t
        t *= (-1) ** (len(walk) + 1) * (D // h)  # D q at x_v1, then a_i q_vi + q_v(i+1) = 1
        for v, e in walk:
            q[v], t = t, D - e * t
        factors.append((h, chi))
    return D, factors, q


def _weight_system(group):
    """The weight system of _factors' (D, factors, D q): h = D / g and d = D q / g, g = gcd(D, D q)."""
    if group is None:
        raise NoPositiveSolution("the exponent matrix is singular: no weight system solves it")
    D, _, q = group
    g = gcd(D, *q)
    d, h = tuple(x // g for x in q), D // g
    if any(di <= 0 for di in d):
        raise NoPositiveSolution(f"weight system {d};{h} is not positive")
    return WeightSystem(d, h, h - sum(d))


def weights(p):
    """The primitive positive solution of A*d = h*(1,..,1), plus d0 = h - sum d, off A's factors."""
    return _weight_system(_factors(p.matrix, atom_walks(p.matrix)))
