"""Independent oracles for the invariant factors in nclocal.intmat.

The determinantal divisors come from the permutation expansion of every
minor, which shares no code with the Bareiss pass or the elimination
modulo the determinant; they are practical up to 4 x 4.
"""

import random
from itertools import combinations, permutations
from math import gcd


def leibniz_det(rows):
    """Determinant as the signed sum over all permutations."""
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = -1 if inversions % 2 else 1
        for i in range(n):
            term *= rows[i][perm[i]]
        total += term
    return total


def determinantal_divisors(m):
    """Oracle for small matrices: d1*...*dk = gcd of all k x k minors."""
    rows = m.to_rows()
    factors, previous = [], 1
    for k in range(1, min(m.rows, m.cols) + 1):
        g = 0
        for rs in combinations(range(m.rows), k):
            for cs in combinations(range(m.cols), k):
                g = gcd(g, leibniz_det([[rows[i][j] for j in cs] for i in rs]))
        factors.append(0 if g == 0 else g // previous)
        previous = g
    return factors


def ck_family(n, seed, density=0.15):
    """An n x n 0/1 matrix of the given density plus a Hamiltonian cycle,
    the shape of the matrices the ck_k0 benchmark passes to ``k0``."""
    rng = random.Random(seed)
    rows = [[1 if rng.random() < density else 0 for _ in range(n)] for _ in range(n)]
    for i in range(n):
        rows[i][(i + 1) % n] = 1
    return rows
