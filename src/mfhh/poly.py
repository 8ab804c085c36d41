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
from fractions import Fraction
from math import lcm, prod
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


def atom_heads(rows):
    """Match the monomials to distinct 'tail' variables so that the head
    pointers form disjoint chains and loops: (tail, head) per row, head None
    for a pure power x_tail^a (a >= 2) and else the variable of exponent 1
    next to x_tail.  None when no such matching exists."""
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
    return tuple(chosen)


def atom_det(rows, heads):
    """det A up to sign from the atoms of atom_heads: the product of the tails'
    exponents over a Fermat atom or chain, less (-1)^length over a loop."""
    follow = {tail: (head, row[tail]) for row, (tail, head) in zip(rows, heads)}
    det = 1
    while follow:
        start = v = next(iter(follow))
        walk = []
        while v in follow:
            v, a = follow.pop(v)
            walk.append(a)
        # a walk that comes back to its start went round a loop
        det *= prod(walk) - (-1) ** len(walk) * (v == start)
    return det


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
    heads = atom_heads(rows)
    if (lattice.det(rows) if heads is None else atom_det(rows, heads)) == 0:
        raise NotInvertible("exponent matrix is singular")
    if heads is None:
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
    toks = _tokenize(text)
    pos = 0

    def peek():
        return toks[pos] if pos < len(toks) else None

    def take():
        nonlocal pos
        tok = toks[pos] if pos < len(toks) else None
        pos += 1
        return tok

    def parse_factor(exps):
        tok = take()
        if tok is None:
            raise PolySyntaxError("unexpected end of input")
        if tok.isdigit():
            raise CoefficientError(f"coefficient {tok} is not allowed; monomials are monic")
        if tok[0] != "x":
            raise PolySyntaxError(f"expected a variable, got {tok!r}")
        var = _nat(tok[1:], "variable index")
        exp = 1
        if peek() == "^":
            take()
            etok = take()
            if etok is None or not etok.isdigit() or etok.startswith("0"):
                raise PolySyntaxError("expected a positive exponent after '^'")
            exp = _nat(etok, "exponent")
        exps[var] = exps.get(var, 0) + exp

    def parse_term():
        exps = {}
        parse_factor(exps)
        while peek() == "*":
            take()
            parse_factor(exps)
        return exps

    terms = [parse_term()]
    while peek() == "+":
        take()
        terms.append(parse_term())
    if pos != len(toks):
        raise PolySyntaxError(f"unexpected token {toks[pos]!r}")

    # exponents are positive, so equal terms are equal dicts
    if len({frozenset(t.items()) for t in terms}) != len(terms):
        raise NotInvertible("repeated monomial")
    width = max(v for t in terms for v in t)
    if width > len(terms):
        raise _not_square(len(terms), width)  # before building width-long rows
    rows = tuple(tuple(t.get(j + 1, 0) for j in range(width)) for t in terms)
    _validate(rows, allow_nonstandard=allow_nonstandard)
    return InvertiblePolynomial(rows)


def weights(p):
    """The primitive positive solution of A*d = h*(1,..,1), plus d0 = h - sum d:
    d/h solves A*q = (1,..,1) by one exact elimination that skips every zero
    multiplier, and h is the lcm of q's denominators."""
    n = p.nvars
    rows = [[*row, 1] for row in p.matrix]
    for j in range(n):
        i = next((i for i in range(j, n) if rows[i][j]), None)
        if i is None:
            raise NoPositiveSolution("the exponent matrix is singular: no weight system solves it")
        rows[i], rows[j] = rows[j], rows[i]
        for row in rows[j + 1:]:
            if row[j]:
                f = Fraction(row[j]) / rows[j][j]
                row[j:] = [a - f * b for a, b in zip(row[j:], rows[j][j:])]
    q = [0] * n
    for j in reversed(range(n)):  # back substitution over the nonzero entries
        row = rows[j]
        q[j] = (row[n] - sum(row[k] * q[k] for k in range(j + 1, n) if row[k])) / Fraction(row[j])
    h = lcm(*(x.denominator for x in q))
    d = tuple(int(x * h) for x in q)
    if any(di <= 0 for di in d):
        raise NoPositiveSolution(f"weight system {d};{h} is not positive")
    return WeightSystem(d, h, h - sum(d))
