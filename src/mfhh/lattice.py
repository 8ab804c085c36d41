"""Exact integer linear algebra: determinants and Smith normal form.

Matrices are sequences of rows of Python ints, so everything is arbitrary
precision.  Lattices follow the row convention: the lattice of an r-by-c
matrix is the set of integer combinations of its rows inside Z^c.
"""

from __future__ import annotations

from dataclasses import dataclass


def identity_matrix(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def det(m):
    """Exact determinant by fraction-free (Bareiss) elimination."""
    n = len(m)
    if n == 0:
        return 1
    a = [list(map(int, row)) for row in m]
    if any(len(row) != n for row in a):
        raise ValueError("det needs a square matrix")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


@dataclass(frozen=True)
class SmithDecomposition:
    u: tuple  # rows x rows, unimodular
    d: tuple  # rows x cols, diagonal, d1 | d2 | ...
    v: tuple  # cols x cols, unimodular

    @property
    def diagonal(self):
        return tuple(self.d[i][i] for i in range(min(len(self.d), len(self.d[0]) if self.d else 0)))


def _find_pivot(a, t, r, c):
    # smallest nonzero absolute value, ties broken row-major: deterministic
    best = None
    for i in range(t, r):
        for j in range(t, c):
            x = a[i][j]
            if x and (best is None or abs(x) < best[0]):
                best = (abs(x), i, j)
    return None if best is None else (best[1], best[2])


def smith(m):
    """U * M * V = D with nonnegative diagonal and divisibility chain.

    The pivot rule (min |entry|, then lowest row-major index) makes the
    output deterministic for a given input.
    """
    a = [list(map(int, row)) for row in m]
    r = len(a)
    c = len(a[0]) if r else 0
    if any(len(row) != c for row in a):
        raise ValueError("smith needs rows of equal length")
    u = identity_matrix(r)
    v = identity_matrix(c)

    def swap_rows(i, j):
        if i != j:
            a[i], a[j] = a[j], a[i]
            u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        if i != j:
            for row in a:
                row[i], row[j] = row[j], row[i]
            for row in v:
                row[i], row[j] = row[j], row[i]

    def add_row(src, dst, q):
        # row dst += q * row src
        asrc, adst = a[src], a[dst]
        for k in range(c):
            adst[k] += q * asrc[k]
        usrc, udst = u[src], u[dst]
        for k in range(r):
            udst[k] += q * usrc[k]

    def add_col(src, dst, q):
        for row in a:
            row[dst] += q * row[src]
        for row in v:
            row[dst] += q * row[src]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while t < min(r, c):
        piv = _find_pivot(a, t, r, c)
        if piv is None:
            break
        while True:
            pi, pj = piv
            swap_rows(t, pi)
            swap_cols(t, pj)
            if a[t][t] < 0:
                negate_row(t)
            p = a[t][t]
            clean = True
            for i in range(t + 1, r):
                if a[i][t]:
                    q = a[i][t] // p
                    if q:
                        add_row(t, i, -q)
                    if a[i][t]:
                        clean = False
            for j in range(t + 1, c):
                if a[t][j]:
                    q = a[t][j] // p
                    if q:
                        add_col(t, j, -q)
                    if a[t][j]:
                        clean = False
            if not clean:
                # some remainder is now smaller than the pivot; rechoose
                piv = _find_pivot(a, t, r, c)
                continue
            p = a[t][t]
            bad = None
            for i in range(t + 1, r):
                if any(a[i][j] % p for j in range(t + 1, c)):
                    bad = i
                    break
            if bad is None:
                break
            add_row(bad, t, 1)  # pull the offending row in and keep reducing
            piv = (t, t)
        t += 1
    return SmithDecomposition(
        tuple(tuple(row) for row in u),
        tuple(tuple(row) for row in a),
        tuple(tuple(row) for row in v),
    )
