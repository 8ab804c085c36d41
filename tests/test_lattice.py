from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from lattice_oracle import mat_mul, member, quotient, solve, vec_mat
from mfhh import lattice


def frac_det(m):
    # independent determinant oracle: plain fraction Gaussian elimination
    n = len(m)
    a = [[Fraction(x) for x in row] for row in m]
    d = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            d = -d
        d *= a[c][c]
        inv = 1 / a[c][c]
        for i in range(c + 1, n):
            if a[i][c]:
                f = a[i][c] * inv
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return d


matrices = st.integers(1, 4).flatmap(
    lambda r: st.integers(1, 4).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-9, 9), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
)

square = st.integers(1, 4).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-9, 9), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    )
)

# up to 5 rows (none included) and 5 columns, with many zeros
sparse_matrices = st.integers(0, 5).flatmap(
    lambda r: st.integers(1, 5).flatmap(
        lambda c: st.lists(
            st.lists(st.one_of(st.just(0), st.integers(-1000, 1000)), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
)


def test_det_and_smith_reject_ragged_matrices():
    with pytest.raises(ValueError, match="^det needs a square matrix$"):
        lattice.det([[1, 2], [3]])
    with pytest.raises(ValueError, match="^smith needs rows of equal length$"):
        lattice.smith([[1, 2], [3]])


def test_smith_identity():
    sd = lattice.smith(lattice.identity_matrix(3))
    assert sd.diagonal == (1, 1, 1)


def test_smith_example():
    # d1 = gcd of the entries = 1, d1*d2 = |det| = 6
    sd = lattice.smith([[2, 1], [0, 3]])
    assert sd.diagonal == (1, 6)


@pytest.mark.parametrize(
    "m, u, d, v",
    [
        ([[2, 1], [0, 3]], ((1, 0), (3, -1)), ((1, 0), (0, 6)), ((0, 1), (1, -2))),
        # 3 does not divide 2: the divisibility row pull
        ([[2, 0], [0, 3]], ((1, 1), (3, 2)), ((1, 0), (0, 6)), ((-1, 3), (1, -2))),
        # [diag(h); g] of the three groups of x1^2*x2+x2^2+x3^3*x4+x4^2*x5+x5^5+x6^2*x7+x7^4*x8+x8^4+x9^4*x10+x10^2
        (
            [[30, 0, 0], [0, 32, 0], [0, 0, 8], [16, 28, 4]],
            ((1, 0, 0, 1), (2, 2, 1, -1), (-16, -26, -15, 30), (64, 105, 60, -120)),
            ((2, 0, 0), (0, 4, 0), (0, 0, 8), (0, 0, 0)),
            ((1, -2, 4), (0, 0, 1), (-11, 23, -53)),
        ),
    ],
)
def test_smith_pins_u_d_and_v(m, u, d, v):
    # the pivot rule and the order of the row and column operations fix U and V, not only D
    assert lattice.smith(m) == (u, d, v)


def test_smith_already_diagonal():
    sd = lattice.smith([[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2]])
    assert sd.diagonal == (2, 2, 2, 2)


@given(st.one_of(matrices, sparse_matrices))
def test_smith_properties(m):
    sd = lattice.smith(m)
    assert mat_mul(mat_mul([list(r) for r in sd.u], m), [list(r) for r in sd.v]) == [
        list(r) for r in sd.d
    ]
    assert abs(lattice.det(sd.u)) == 1
    assert abs(lattice.det(sd.v)) == 1
    diag = sd.diagonal
    assert all(x >= 0 for x in diag)
    nonzero = [x for x in diag if x]
    assert list(diag[: len(nonzero)]) == nonzero  # zeros trail
    for a, b in zip(nonzero, nonzero[1:]):
        assert b % a == 0


@given(square)
def test_det_matches_fraction_oracle(m):
    assert lattice.det(m) == frac_det(m)


@given(square)
def test_smith_diagonal_product_is_det(m):
    sd = lattice.smith(m)
    from math import prod

    assert prod(sd.diagonal) == abs(lattice.det(m))


def test_solve_examples():
    x, basis = solve([[2]], [4])
    assert x == [2] and basis == []
    assert solve([[2]], [3]) is None
    x, basis = solve([[2, 0], [0, 3]], [2, 3])
    assert x == [1, 1] and basis == []


def test_solve_homogeneous_basis():
    # one redundant row: y*M = 0 has a rank-1 solution lattice
    m = [[1, 2], [2, 4], [0, 1]]
    x, basis = solve(m, [1, 3])
    assert vec_mat(x, m) == [1, 3]
    assert len(basis) == 1
    y = basis[0]
    assert vec_mat(list(y), m) == [0, 0]
    shifted = [a + 5 * b for a, b in zip(x, y)]
    assert vec_mat(shifted, m) == [1, 3]


def test_member_examples():
    l = [[2, 0], [0, 2]]
    assert member(l, [2, 0])
    assert not member(l, [1, 0])
    assert member(l, [0, 0])
    assert member([], [0, 0, 0])
    assert not member([], [1, 0, 0])


@given(matrices, st.data())
def test_solve_member_consistency(m, data):
    c = len(m[0])
    if data.draw(st.booleans()):
        coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=len(m), max_size=len(m)))
        v = vec_mat(coeffs, m)
    else:
        v = data.draw(st.lists(st.integers(-6, 6), min_size=c, max_size=c))
    assert member(m, v) == (solve(m, v) is not None)


def test_quotient_examples():
    q = quotient([[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2]])
    assert q.orders == (2, 2, 2, 2) and q.order == 16 and q.free_rank == 0
    q2 = quotient([[2, 1], [0, 3]])
    assert q2.orders == (6,) and q2.order == 6
    q3 = quotient([[1, 0]])
    assert q3.free_rank == 1 and q3.orders == ()


def test_quotient_enumeration_counts_and_glue():
    for rows in ([[2, 1], [0, 3]], [[3, 0], [0, 3]], [[4]], [[1, 0], [0, 1]]):
        q = quotient(rows)
        elems = q.elements()
        assert len(set(elems)) == len(elems) == q.order == abs(lattice.det(rows))
        # every element times the defining matrix is integral (dual pairing)
        for e in elems:
            image = vec_mat(list(e), rows)
            assert all(Fraction(x).denominator == 1 for x in image)


@given(square)
def test_quotient_order_is_det(m):
    d = lattice.det(m)
    q = quotient(m)
    if d == 0:
        assert q.free_rank > 0
        return
    assert q.free_rank == 0 and q.order == abs(d)
    if abs(d) <= 200:
        elems = q.elements()
        assert len(set(elems)) == abs(d)
        for e in elems:
            assert all(Fraction(x).denominator == 1 for x in vec_mat(list(e), m))


def test_quotient_enumeration_at_the_ten_thousand_bound():
    rows = [[10 if i == j else 0 for j in range(4)] for i in range(4)]
    q = quotient(rows)
    assert q.order == 10**4
    elems = q.elements()
    assert len(set(elems)) == 10**4


def test_quotient_redundant_spanning_rows():
    # three rows spanning a rank-2 lattice in Z^2
    q = quotient([[2, 0], [0, 2], [2, 2]])
    assert q.free_rank == 0 and q.order == 4
    assert len(set(q.elements())) == 4
