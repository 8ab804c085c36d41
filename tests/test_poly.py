import gc
import io
import random
import time
import tracemalloc
import warnings

import pytest
from hypothesis import given, strategies as st

from conftest import random_invertible, triangles
from lattice_oracle import cramer_weights
from mfhh import lattice
from mfhh.cli import main
from mfhh.engine import class_contributions
from mfhh.errors import (
    CoefficientError,
    NoPositiveSolution,
    NotInvertible,
    PolySyntaxError,
    SchemaError,
)
from mfhh.poly import InvertiblePolynomial, atom_det, atom_walks, parse, weights
from mfhh.symmetry import SymmetryContext


def test_parse_diagonal():
    p = parse("x1^2+x2^2+x3^2+x4^2")
    assert p.matrix == ((2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2))


def test_parse_chain():
    p = parse("x1^3*x2+x2^7*x3+x3^2+x4^2")
    assert p.matrix == ((3, 1, 0, 0), (0, 7, 1, 0), (0, 0, 2, 0), (0, 0, 0, 2))


def test_parse_whitespace_and_repeats():
    p = parse(" x1 ^ 2 + x2^2 ")
    assert p.matrix == ((2, 0), (0, 2))
    q = parse("x1*x1*x2+x2^3")
    assert q.matrix == ((2, 1), (0, 3))


def test_parse_rejects():
    with pytest.raises(NotInvertible):
        parse("x1^2+x1^2")  # repeated monomial, singular
    with pytest.raises(NotInvertible):
        parse("x1^2+x3^2")  # x2 missing
    with pytest.raises(NotInvertible):
        parse("x1")  # a bare linear monomial is not an atom
    with pytest.raises(NotInvertible):
        parse("x1^2*x3+x2^2*x3+x3^2")  # two heads into x3: not atomic
    with pytest.raises(CoefficientError):
        parse("2*x1^2+x2^2")
    with pytest.raises(PolySyntaxError):
        parse("x1^2+y^2")
    with pytest.raises(PolySyntaxError):
        parse("x1^")
    with pytest.raises(PolySyntaxError):
        parse("x0^2+x1^2")


@pytest.mark.parametrize(
    "text, message",
    [
        ("x1^2+", "unexpected end of input"),
        ("x1^2*^2", "expected a variable, got '^'"),
        ("x1^2 x2^2", "unexpected token 'x2'"),
        ("", "unexpected end of input"),
        ("x1*", "unexpected end of input"),
        ("+x1", "expected a variable, got '+'"),
        ("x1^", "expected a positive exponent after '^'"),
        ("x1^0", "expected a positive exponent after '^'"),
        ("x1^x2", "expected a positive exponent after '^'"),
        ("x1^2^3", "unexpected token '^'"),
        ("x1+y", "bad token 'y'"),
        ("x0^2", "bad token 'x'"),
    ],
)
def test_parse_syntax_error_messages(text, message):
    with pytest.raises(PolySyntaxError) as exc:
        parse(text)
    assert str(exc.value) == message


def test_parse_coefficient_error_message():
    with pytest.raises(CoefficientError) as exc:
        parse("2*x1^2+x2^2")
    assert str(exc.value) == "coefficient 2 is not allowed; monomials are monic"


def test_parse_allow_nonstandard_downgrades_shape_check():
    with warnings.catch_warnings(record=True) as w:
        warnings.simplefilter("always")
        p = parse("x1^2*x3+x2^2*x3+x3^2", allow_nonstandard=True)
        assert len(w) == 1
    assert p.nvars == 3
    with pytest.raises(NotInvertible):
        # the determinant check is never downgraded
        parse("x1^2+x1^2", allow_nonstandard=True)


def test_transpose_examples():
    p = parse("x1^2+x2^2+x3^2+x4^2")
    assert p.transpose() == p
    q = parse("x1^3*x2+x2^3*x3+x3^2+x4^2")
    t = q.transpose()
    assert t.matrix == ((3, 0, 0, 0), (1, 3, 0, 0), (0, 1, 2, 0), (0, 0, 0, 2))
    assert str(t) == "x1^3 + x1*x2^3 + x2*x3^2 + x4^2"


def test_weights_examples():
    assert parse("x1^2+x2^2+x3^2+x4^2").weights() == weights(parse("x1^2+x2^2+x3^2+x4^2"))
    w = parse("x1^2+x2^2+x3^2+x4^2").weights()
    assert (w.d, w.h, w.d0) == ((1, 1, 1, 1), 2, -2)
    # frozen from the rational-linear-algebra oracle below
    w2 = parse("x1^3*x2+x2^7*x3+x3^2+x4^2").weights()
    assert (w2.d, w2.h, w2.d0) == ((13, 3, 21, 21), 42, -16)
    w3 = parse("x1^3*x2+x2^3*x3+x3^2+x4^2").weights()
    assert (w3.d, w3.h, w3.d0) == ((5, 3, 9, 9), 18, -8)


@given(st.integers(0, 10**9))
def test_weights_match_cramer_oracle(seed):
    p = random_invertible(random.Random(seed))
    w = p.weights()
    assert w == cramer_weights(p)
    # every monomial has weighted degree h
    for row in p.matrix:
        assert sum(e * di for e, di in zip(row, w.d)) == w.h
    from math import gcd

    g = w.h
    for di in w.d:
        g = gcd(g, di)
    assert g == 1


@given(st.integers(0, 10**9))
def test_transpose_involution_and_det(seed):
    p = random_invertible(random.Random(seed))
    assert p.transpose().transpose() == p
    assert p.det() == p.transpose().det()


@given(st.integers(0, 10**9))
def test_print_parse_roundtrip(seed):
    p = random_invertible(random.Random(seed))
    assert parse(str(p)).matrix == p.matrix


def test_json_roundtrip():
    p = parse("x1^3*x2+x2^3*x3+x3^2+x4^2")
    assert InvertiblePolynomial.from_json(p.to_json()) == p
    assert p.to_json() == {"vars": 4, "rows": [[3, 1, 0, 0], [0, 3, 1, 0], [0, 0, 2, 0], [0, 0, 0, 2]]}
    # a well-formed document is validated as parse validates
    with pytest.raises(NotInvertible, match="singular"):
        InvertiblePolynomial.from_json({"vars": 2, "rows": [[2, 2], [1, 1]]})


@pytest.mark.parametrize(
    "obj",
    [
        {"rows": [[2.7]]},  # a float entry, once truncated to x1^2
        {"rows": [["3"]]},  # a string entry, once converted
        {},  # no rows
        {"rows": 5},  # rows that are not a list
        {"vars": 2, "rows": [[2]]},  # vars that disagrees with the rows
    ],
)
def test_from_json_rejects_malformed_documents(obj):
    with pytest.raises(SchemaError):
        InvertiblePolynomial.from_json(obj)


@pytest.mark.parametrize(
    "rows, message",
    [
        ([], "empty polynomial"),
        ([[2, 0], [3]], "ragged exponent matrix"),
        ([[2, -1], [0, 2]], "negative exponent"),
    ],
)
def test_from_json_rejects_rows_that_are_not_invertible(rows, message):
    with pytest.raises(NotInvertible) as exc:
        InvertiblePolynomial.from_json({"rows": rows})
    assert str(exc.value) == message


def test_parse_huge_variable_index_fails_fast():
    # no width-long row is built: an index of 10**12 is rejected at once
    with pytest.raises(NotInvertible, match="^1 monomials but 1000000000000 variables"):
        parse("x1000000000000^2")
    # with today's message order: a repeated monomial is named first
    with pytest.raises(NotInvertible, match="^repeated monomial$"):
        parse("x1000000000000^2+x1000000000000^2")


@pytest.mark.parametrize(
    "text, message",
    [
        ("x" + "1" * 5000 + "^2", "variable index of 5000 digits is too long"),
        ("x1^" + "9" * 5000, "exponent of 5000 digits is too long"),
    ],
    ids=["index", "exponent"],
)
def test_parse_rejects_numbers_past_the_int_digit_limit(text, message):
    # int() refuses more than 4300 digits with a bare ValueError
    with pytest.raises(PolySyntaxError, match=f"^{message}$"):
        parse(text)
    out, err = io.StringIO(), io.StringIO()
    assert main(["table", "--poly", text, "--dmin", "-2", "--dmax", "2"], out=out, err=err) == 2
    assert err.getvalue() == f"error: {message}\n"
    assert out.getvalue() == ""


def test_no_positive_weight_system():
    # parses as a loop shape but has a degenerate weight system
    with pytest.raises(NoPositiveSolution):
        parse("x1^2*x2+x1*x2").weights()


def test_singular_matrix_has_no_positive_weight_system():
    # det A = 0 leaves h = 0 in Cramer's rule
    with pytest.raises(NoPositiveSolution):
        InvertiblePolynomial(((1, 1), (1, 1))).weights()


@st.composite
def atom_matrices(draw):
    """A shuffled sum of Fermat, chain and loop atoms whose exponents may be
    1 wherever an atom allows it, so loops of even length can be singular."""
    blocks = draw(st.lists(st.sampled_from(["fermat", "chain", "loop"]), min_size=1, max_size=4))
    rows, base = [], 0
    for kind in blocks:
        m = 1 if kind == "fermat" else draw(st.integers(2, 4))
        exps = draw(st.lists(st.integers(1, 4), min_size=m, max_size=m))
        if kind != "loop":
            exps[-1] += 1  # a chain ends in a power x^a with a >= 2
        for i, a in enumerate(exps):
            row = {base + i: a}
            if kind == "chain" and i < m - 1 or kind == "loop":
                row[base + (i + 1) % m] = 1
            rows.append(row)
        base += m
    perm = draw(st.permutations(range(base)))
    order = draw(st.permutations(range(base)))
    return tuple(tuple(rows[r].get(perm[j], 0) for j in range(base)) for r in order)


def _outcome(f):
    try:
        return f()
    except NoPositiveSolution as exc:
        return NoPositiveSolution, str(exc)


@st.composite
def square_matrices(draw):
    n = draw(st.integers(1, 5))
    return tuple(tuple(draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))) for _ in range(n))


@given(st.one_of(atom_matrices(), square_matrices()))
def test_weights_by_one_solve_match_cramer(rows):
    # atom sums, which may be singular, and any square matrices: the one
    # solve and Cramer's rule give the same weight system, or both find
    # none, with the same message whenever det A != 0
    p = InvertiblePolynomial(rows)
    got, want = _outcome(p.weights), _outcome(lambda: cramer_weights(p))
    if lattice.det(rows):
        assert got == want
    else:
        assert got[0] is want[0] is NoPositiveSolution


def test_weights_of_150_variables_take_one_solve():
    n = 150
    fermat = "+".join(f"x{i}^2" for i in range(1, n + 1))
    chain = "+".join(f"x{i}^2*x{i + 1}" for i in range(1, n)) + f"+x{n}^3"
    loop = "+".join(f"x{i}^2*x{i + 1}" for i in range(1, n)) + f"+x{n}^2*x1"
    start = time.perf_counter()
    ws = [parse(text).weights() for text in (fermat, chain, loop)]
    assert time.perf_counter() - start < 1
    assert [(w.d, w.h, w.d0) for w in ws] == [((1,) * n, 2, 2 - n), ((1,) * n, 3, 3 - n), ((1,) * n, 3, 3 - n)]


@given(atom_matrices())
def test_atom_det_matches_bareiss(rows):
    walks = atom_walks(rows)
    assert walks is not None and walks == _atom_walks_search(rows)
    assert abs(atom_det(walks)) == abs(lattice.det(rows))
    # the walks partition the variables, and their steps are the rows of A:
    # a step (v, a) is x_v^a times the next variable of its walk, a loop's
    # last step times its first, and a chain's last step is x_v^a alone
    n = len(rows)
    assert sorted(v for walk, _ in walks for v, _ in walk) == list(range(n))
    steps = []
    for walk, loop in walks:
        nexts = [v for v, _ in walk[1:]] + [walk[0][0] if loop else None]
        steps += [tuple(a * (j == v) + (j == w) for j in range(n)) for (v, a), w in zip(walk, nexts)]
    assert sorted(steps) == sorted(rows)


def test_singular_loop_of_ones_keeps_its_message():
    with pytest.raises(NotInvertible, match="^exponent matrix is singular$"):
        parse("x1*x2+x2*x3+x3*x4+x4*x1")
    assert parse("x1*x2+x2*x3+x3*x1").det() == 2


def test_atom_walks_does_not_recurse_per_row():
    n = 1100
    fermat = tuple(tuple(2 if i == j else 0 for j in range(n)) for i in range(n))
    chain = tuple(tuple(2 if i == j else int(j == i + 1) for j in range(n)) for i in range(n))
    loop = tuple(tuple(int(j in (i, (i + 1) % n)) for j in range(n)) for i in range(n))
    assert atom_walks(fermat) == tuple((((i, 2),), False) for i in range(n))
    assert atom_walks(chain) == ((tuple((i, 2) for i in range(n)), False),)
    assert atom_det(atom_walks(chain)) == 2**n
    assert atom_walks(loop) == ((tuple((i, 1) for i in range(n)), True),)
    assert atom_det(atom_walks(loop)) == 0  # a loop of ones of even length is singular


def _atom_walks_search(rows):
    """poly.atom_walks as it was before the forced walk, a depth-first search
    over each row's tail choice, kept verbatim as the reference for it."""
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


def _atom_sum(rng, n):
    """Rows of a shuffled sum of Fermat, chain and loop atoms on n variables,
    with many exponent-1 links, so loops can close both ways round."""
    rows, base = [], 0
    while base < n:
        m = rng.randint(1, n - base)
        kind = "fermat" if m == 1 else rng.choice(["chain", "loop"])
        exps = [rng.choice([1, 1, 2, 3]) for _ in range(m)]
        if kind != "loop":
            exps[-1] += 1  # a chain ends in a power x^a with a >= 2
        for i, a in enumerate(exps):
            row = {base + i: a}
            if kind == "chain" and i < m - 1 or kind == "loop":
                row[base + (i + 1) % m] = 1
            rows.append(row)
        base += m
    perm, order = rng.sample(range(n), n), rng.sample(range(n), n)
    return [[rows[r].get(perm[j], 0) for j in range(n)] for r in order]


def _changed_atom_sum(rng, n):
    rows = _atom_sum(rng, n)
    for _ in range(rng.randint(1, 2)):
        rows[rng.randrange(n)][rng.randrange(n)] = rng.choice([0, 1, 1, 2])
    return rows


def _sparse_rows(rng, n):
    rows = [[0] * n for _ in range(n)]
    for row in rows:
        for j in rng.sample(range(n), min(n, rng.choice([1, 2, 2, 2, 3]))):
            row[j] = rng.choice([1, 1, 2, 3])
    return rows


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("shape", [_atom_sum, _changed_atom_sum, _sparse_rows])
def test_atom_walks_is_the_first_matching_of_the_search(shape, seed):
    rng = random.Random(seed)
    for _ in range(400):
        rows = tuple(map(tuple, shape(rng, rng.randint(1, 9))))
        assert atom_walks(rows) == _atom_walks_search(rows), rows


@pytest.mark.parametrize(
    "text, walks",
    [
        ("x1*x2+x2*x3+x3*x1", ((((0, 1), (1, 1), (2, 1)), True),)),
        ("x3*x1+x2*x3+x1*x2", ((((0, 1), (2, 1), (1, 1)), True),)),  # turned round by its earliest row
        ("x2^3+x1^2*x2", ((((0, 2), (1, 3)), False),)),
        ("x1^2*x2+x1*x2^3", ((((0, 2), (1, 3)), True),)),
        ("x1*x2+x1^2", ((((1, 1), (0, 2)), False),)),  # the tail is the later variable
        (
            "x4^2*x1+x1^3+x2*x3+x3^2*x2+x5^2",
            ((((3, 2), (0, 3)), False), (((4, 2),), False), (((1, 1), (2, 2)), True)),
        ),
    ],
    ids=["loop-of-ones", "loop-turned", "power-first", "loop-of-two", "later-tail", "chains-then-loops"],
)
def test_atom_walks_pins(text, walks):
    assert atom_walks(parse(text).matrix) == walks


def test_atoms_are_matched_without_a_search():
    # F_18: the chain x2 -> x1 and 18 loops of ones, 56 variables; N_18: 18 such loops and a
    # variable in four rows, 58.  A search over each row's tail choice took 6.7 s and 4.2 s
    m = 18
    f_m = "+".join(["x1*x2", *triangles(m, 3), "x1^2"])
    p = 3 * m + 1
    n_m = "+".join([*triangles(m, 1), f"x{p}*x{p + 1}+x{p}*x{p + 2}+x{p}*x{p + 3}+x{p + 1}^2"])
    start = time.perf_counter()
    SymmetryContext(parse(f_m))
    with pytest.raises(NotInvertible, match="^polynomial is not a sum of Fermat/chain/loop atoms$"):
        parse(n_m)
    assert time.perf_counter() - start < 1


def test_parse_of_many_variables_takes_no_bareiss():
    start = time.perf_counter()
    p = parse("+".join(f"x{i}^2" for i in range(1, 1201)))
    assert p.nvars == 1200
    assert time.perf_counter() - start < 10


def _listing(text):
    return list(class_contributions(parse(text), (-2, 2)))


@pytest.mark.parametrize(
    "work, small, large",
    [
        (parse, "x1^2+x2^3", "+".join(f"x{i}^2" for i in range(1, 1201))),
        (_listing, "x1^3*x2+x2^4", "+".join(f"x{i}^3*x{i + 1}" for i in range(1, 7)) + "+x7^4"),
    ],
    ids=["parse", "listing"],
)
def test_a_dropped_polynomial_leaves_nothing_held(work, small, large):
    # mfhh keeps nothing between calls: the matching and walks of a
    # 1200-variable parse held 11.9 MB, and the staircases of a 7-chain's
    # listing 0.32 MB, after the polynomial was dropped; the small input
    # loads whatever a first call loads once per process
    work(small)
    tracemalloc.start()
    try:
        done = work(large)
        del done
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 64 << 10
