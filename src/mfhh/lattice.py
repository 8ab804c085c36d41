"""Exact integer linear algebra: determinants and Smith normal form.

Matrices are sequences of rows of Python ints, so everything is arbitrary
precision.  Lattices follow the row convention: the lattice of an r-by-c
matrix is the set of integer combinations of its rows inside Z^c.
"""

from __future__ import annotations

from typing import NamedTuple


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


class SmithDecomposition(NamedTuple):
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

    U, D and V are sliced out of one working matrix w of r + c rows, M
    being r-by-c: row i < r is row i of M with row i of U on its right,
    starting as [M | I_r], and row r + j is row j of V, starting as I_c.
    Row operations on whole rows < r and column operations on columns < c
    of every row of w then make D, U and V at once.  The pivot rule
    (min |entry|, then lowest row-major index) makes the result
    deterministic for a given input.
    """
    w = [list(map(int, row)) for row in m]
    r = len(w)
    c = len(w[0]) if r else 0
    if any(len(row) != c for row in w):
        raise ValueError("smith needs rows of equal length")
    w = [row + unit for row, unit in zip(w, identity_matrix(r))] + identity_matrix(c)
    t = 0
    while t < min(r, c):
        piv = _find_pivot(w, t, r, c)
        if piv is None:
            break
        while True:
            pi, pj = piv
            w[t], w[pi] = w[pi], w[t]
            for row in w:
                row[t], row[pj] = row[pj], row[t]
            if w[t][t] < 0:
                w[t] = [-x for x in w[t]]
            p = w[t][t]
            clean = True
            for i in range(t + 1, r):
                if w[i][t]:
                    q = w[i][t] // p
                    if q:  # row i -= q * row t
                        w[i] = [x - q * y for x, y in zip(w[i], w[t])]
                    if w[i][t]:
                        clean = False
            for j in range(t + 1, c):
                if w[t][j]:
                    q = w[t][j] // p
                    if q:  # column j -= q * column t
                        for row in w:
                            row[j] -= q * row[t]
                    if w[t][j]:
                        clean = False
            if not clean:
                # some remainder is now smaller than the pivot; rechoose
                piv = _find_pivot(w, t, r, c)
                continue
            p = w[t][t]
            bad = next((i for i in range(t + 1, r) if any(w[i][j] % p for j in range(t + 1, c))), None)
            if bad is None:
                break
            w[t] = [x + y for x, y in zip(w[t], w[bad])]  # pull the offending row in and keep reducing
            piv = (t, t)
        t += 1
    return SmithDecomposition(
        tuple(tuple(row[c:]) for row in w[:r]),
        tuple(tuple(row[:c]) for row in w[:r]),
        tuple(tuple(row) for row in w[r:]),
    )
