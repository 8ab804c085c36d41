import random

from hypothesis import settings

from mfhh.poly import InvertiblePolynomial

settings.register_profile("default", deadline=None, max_examples=60)
settings.load_profile("default")


def random_invertible(rng: random.Random, max_vars=4, max_det=10000, max_atom=3):
    """A random valid polynomial: a shuffled sum of Fermat/chain/loop atoms,
    each chain or loop of at most max_atom variables."""
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
                blocks.append(("chain", [rng.randint(2, 5) for _ in range(size)]))
            else:
                size = rng.randint(2, min(max_atom, remaining))
                blocks.append(("loop", [rng.randint(2, 4) for _ in range(size)]))
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
        if abs(p.det()) <= max_det:
            return p
