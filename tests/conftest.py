import random

from hypothesis import settings

from mfhh.errors import MfhhError
from mfhh.poly import InvertiblePolynomial
from mfhh.symmetry import SymmetryContext

settings.register_profile("default", deadline=None, max_examples=60)
settings.load_profile("default")


def triangles(m, first):
    """m triangle loops x_a*x_b + x_b*x_c + x_c*x_a of exponent 1, on x_first, x_first+1, .. in threes:
    F_m is x1*x2, triangles(m, 3) and x1^2; N_m is triangles(m, 1) and a variable in four rows."""
    return [f"x{a}*x{a + 1}+x{a + 1}*x{a + 2}+x{a + 2}*x{a}" for a in range(first, first + 3 * m, 3)]


def random_invertible(rng: random.Random, max_vars=4, max_det=10000, max_atom=3, ones=False):
    """A random valid polynomial: a shuffled sum of Fermat/chain/loop atoms,
    each chain or loop of at most max_atom variables.  With ones, chain and
    loop links may have exponent 1 (a chain still ends in a power >= 2), and
    a draw that is singular or whose SymmetryContext raises is drawn again."""
    low = 1 if ones else 2
    while True:
        n = rng.randint(1, max_vars)
        blocks = []
        nv = 0
        while nv < n:
            remaining = n - nv
            kind = rng.choice(["fermat", "chain", "loop"])
            if remaining == 1 or kind == "fermat":
                blocks.append(("fermat", [rng.randint(2, 6)]))
            elif kind == "chain":
                size = rng.randint(2, min(max_atom, remaining))
                exps = [rng.randint(low, 5) for _ in range(size - 1)] + [rng.randint(2, 5)]
                blocks.append(("chain", exps))
            else:
                size = rng.randint(2, min(max_atom, remaining))
                blocks.append(("loop", [rng.randint(low, 4) for _ in range(size)]))
            nv += len(blocks[-1][1])
        rows = []
        base = 0
        for kind, exps in blocks:
            m = len(exps)
            for i, a in enumerate(exps):
                row = [0] * n
                row[base + i] = a
                if kind == "chain" and i < m - 1:
                    row[base + i + 1] = 1
                elif kind == "loop":
                    row[base + (i + 1) % m] += 1
                rows.append(row)
            base += m
        rperm = list(range(n))
        cperm = list(range(n))
        rng.shuffle(rperm)
        rng.shuffle(cperm)
        mat = tuple(
            tuple(rows[rperm[i]][cperm[j]] for j in range(n)) for i in range(n)
        )
        p = InvertiblePolynomial(mat)
        if 0 < abs(p.det()) <= max_det and (not ones or _has_context(p)):
            return p


def _has_context(p):
    try:
        SymmetryContext(p)
    except MfhhError:
        return False
    return True
