"""Arbitrary-precision integer matrix algebra.

Exact powers, traces, determinants, invariant factors (the Smith normal
form diagonal, by elimination modulo a minor), and GL(2,Z) conjugacy
testing for 2x2 matrices.  Matrices are immutable; every operation is a
pure function, safe for concurrent use.
"""

from __future__ import annotations

import json
from collections.abc import Iterator, Sequence
from math import gcd, prod
from operator import mul

from ._frozen import Frozen

__all__ = [
    "IntMatrix",
    "ConjugacyVerdict",
    "identity",
    "mat_pow",
    "invariant_factors",
    "conjugacy_test",
    "brute_force_conjugator",
    "unimodular_2x2",
    "word_of_matrix",
    "cyclically_equivalent",
]


class IntMatrix(Frozen):
    """Immutable integer matrix; ``entries`` is row-major."""

    __slots__ = ("rows", "cols", "entries")
    rows: int
    cols: int
    entries: tuple

    def __init__(self, rows: int, cols: int, entries: tuple):
        if rows < 1 or cols < 1:
            raise ValueError("matrix dimensions must be positive")
        if len(entries) != rows * cols:
            raise ValueError("entries length must equal rows*cols")
        if not all(isinstance(e, int) for e in entries):
            raise ValueError("entries must be integers")
        super().__init__(rows, cols, entries)

    @classmethod
    def _of(cls, rows: int, cols: int, entries: tuple) -> "IntMatrix":
        # rows * cols ints that intmat's own arithmetic produced
        m = cls.__new__(cls)
        Frozen.__init__(m, rows, cols, entries)
        return m

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "IntMatrix":
        r = len(rows)
        if r == 0:
            raise ValueError("no rows")
        c = len(rows[0])
        if any(len(row) != c for row in rows):
            raise ValueError("ragged rows")
        return cls(r, c, tuple(int(x) for row in rows for x in row))

    @classmethod
    def parse(cls, text: str) -> "IntMatrix":
        """Parse the CLI form ``[[a,b],[c,d]]``."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as e:
            raise ValueError(f"cannot parse matrix {text!r}: {e}") from None
        if not isinstance(data, list) or not data or not all(isinstance(r, list) for r in data):
            raise ValueError(f"cannot parse matrix {text!r}: expected list of rows")
        # from_rows would truncate 0.9 to 0 and read true and "0" as integers
        if not all(type(x) is int for row in data for x in row):
            raise ValueError(f"cannot parse matrix {text!r}: entries must be integers")
        return cls.from_rows(data)

    def at(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_rows(self) -> list:
        return [list(self.row(i)) for i in range(self.rows)]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def __mul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in matrix product")
        n, m, k = self.rows, other.cols, self.cols
        a, b = self.entries, other.entries
        rows = [a[i * k : (i + 1) * k] for i in range(n)]
        cols = [b[j::m] for j in range(m)]
        return IntMatrix._of(n, m, tuple([sum(map(mul, r, c)) for r in rows for c in cols]))

    def transpose(self) -> "IntMatrix":
        e, c = self.entries, self.cols
        return IntMatrix._of(c, self.rows, tuple([x for j in range(c) for x in e[j::c]]))

    def trace(self) -> int:
        if not self.is_square:
            raise ValueError("trace of non-square matrix")
        return sum(self.at(i, i) for i in range(self.rows))

    def det(self) -> int:
        """Exact determinant by fraction-free (Bareiss) elimination."""
        if not self.is_square:
            raise ValueError("determinant of non-square matrix")
        n = self.rows
        if n == 1:
            return self.entries[0]
        if n == 2:
            a, b, c, d = self.entries
            return a * d - b * c
        rank, minor = _echelon(self)
        return minor if rank == n else 0

    def __str__(self) -> str:
        return "[" + ",".join("[" + ",".join(str(x) for x in self.row(i)) + "]" for i in range(self.rows)) + "]"


def identity(n: int) -> IntMatrix:
    if n < 1:
        raise ValueError("matrix dimensions must be positive")
    return IntMatrix._of(n, n, tuple(int(i == j) for i in range(n) for j in range(n)))


def mat_pow(a: IntMatrix, n: int) -> IntMatrix:
    """Exact a**n by binary exponentiation; a**0 is the identity."""
    if not a.is_square:
        raise ValueError("power of non-square matrix")
    if n < 0:
        raise ValueError("negative exponent")
    result = identity(a.rows)
    base = a
    while n:
        if n & 1:
            result = result * base
        base = base * base
        n >>= 1
    return result


def _inverse_unimodular_2x2(b: IntMatrix) -> IntMatrix:
    a, bb, c, d = b.entries
    det = a * d - bb * c
    if det not in (1, -1):
        raise ValueError("matrix is not unimodular")
    # adjugate divided by det; det is +-1 so the inverse stays integral
    return IntMatrix(2, 2, (d * det, -bb * det, -c * det, a * det))


# ---------------------------------------------------------------------------
# Invariant factors
# ---------------------------------------------------------------------------


def _echelon(m: IntMatrix) -> tuple:
    """Fraction-free (Bareiss) row echelon pass: (rank, minor).

    Zero columns are skipped.  ``minor`` is the signed determinant of the
    rank x rank submatrix on the pivot rows and columns (1 at rank 0), so
    for a square matrix of full rank it is the determinant.
    """
    a = m.to_rows()
    sign, prev, rank = 1, 1, 0
    for col in range(m.cols):
        pivot = next((i for i in range(rank, m.rows) if a[i][col]), None)
        if pivot is None:
            continue
        if pivot != rank:
            a[rank], a[pivot] = a[pivot], a[rank]
            sign = -sign
        top = a[rank]
        pv = top[col]
        for i in range(rank + 1, m.rows):
            row = a[i]
            f = row[col]
            row[col:] = [0] + [(x * pv - f * y) // prev for x, y in zip(row[col + 1 :], top[col + 1 :])]
        prev = pv
        rank += 1
        if rank == m.rows:
            break
    return rank, sign * prev


def _diagonal_mod(a: list, d: int) -> list:
    """Diagonalize ``a`` (rows of residues mod d, changed in place) by
    unimodular row and column steps mod d; returns the diagonal."""
    nr, nc = len(a), len(a[0])
    diag = []
    for t in range(min(nr, nc)):
        # in the first nonzero column, an entry of least gcd with d
        j = next((j for j in range(t, nc) if any(a[i][j] for i in range(t, nr))), None)
        if j is None:
            diag.extend([0] * (min(nr, nc) - t))
            break
        i = min((i for i in range(t, nr) if a[i][j]), key=lambda i: gcd(a[i][j], d))
        a[t], a[i] = a[i], a[t]
        for row in a[t:]:
            row[t], row[j] = row[j], row[t]
        while True:
            # g = gcd(pivot, d) divides an entry e iff c * pivot = e mod d
            # has a solution, c = (e / g) * (pivot / g)^-1 mod d / g; an
            # entry it does not divide takes a gcd step, lowering the pivot
            top = a[t]
            g = gcd(top[t], d)
            i = next((i for i in range(t + 1, nr) if a[i][t] % g), None)
            if i is not None:
                s, r, xg, yg = _gcd_coefficients(top[t], a[i][t])
                row = a[i]
                a[t] = [(s * x + r * y) % d for x, y in zip(top, row)]
                a[i] = [(xg * y - yg * x) % d for x, y in zip(top, row)]
                continue
            inv = pow(top[t] // g, -1, d // g)
            for row in a[t + 1 :]:
                if row[t]:
                    c = row[t] // g * inv % d
                    row[t:] = [(x - c * y) % d for x, y in zip(row[t:], top[t:])]
            # with the pivot column clear below, a column step changes the
            # pivot row alone, so entries g divides need no work
            j = next((j for j in range(t + 1, nc) if top[j] % g), None)
            if j is None:
                break
            s, r, xg, yg = _gcd_coefficients(top[t], top[j])
            for row in a[t:]:
                row[t], row[j] = (s * row[t] + r * row[j]) % d, (xg * row[j] - yg * row[t]) % d
        diag.append(a[t][t])
    return diag


def _gcd_coefficients(x: int, y: int) -> tuple:
    """(s, r, x/g, y/g) with s*x + r*y = g = gcd(x, y), for x, y > 0:
    the unimodular step (s, r; -y/g, x/g) takes (x, y) to (g, 0)."""
    g = gcd(x, y)
    s = pow(x // g, -1, y // g)
    return s, (g - s * x) // y, x // g, y // g


def invariant_factors(m: IntMatrix) -> tuple:
    """Invariant factors d1 | d2 | ... of m over Z, zeros last, one per
    min(rows, cols): the diagonal of its Smith normal form.

    A Bareiss pass gives the rank r and a nonzero r x r minor D, which
    every nonzero factor divides.  Elimination on the entries mod D gives
    a diagonal s; the d_i = gcd(s_i, D), brought into a divisor chain by
    gcd/lcm steps, are the first r factors (Domich, Kannan and Trotter,
    Math. Oper. Res. 12, 1987; Cohen, GTM 138, 2.4.3).  No transforms
    are kept, so entries never grow past D.
    """
    k = min(m.rows, m.cols)
    rank, minor = _echelon(m)
    d = abs(minor)
    factors = [gcd(s, d) for s in _diagonal_mod([[x % d for x in m.row(i)] for i in range(m.rows)], d)]
    for i in range(k):
        for j in range(i + 1, k):
            g = gcd(factors[i], factors[j])
            factors[i], factors[j] = g, factors[i] * factors[j] // g
    factors = factors[:rank] + [0] * (k - rank)
    product = prod(factors[:rank])
    if d % product or (rank == m.rows == m.cols and product != d):
        raise RuntimeError(
            f"invariant factors of a {m.rows}x{m.cols} matrix: product {product} "
            f"does not {'equal' if rank == m.rows == m.cols else 'divide'} the minor {d}"
        )
    return tuple(factors)


# ---------------------------------------------------------------------------
# GL(2,Z) conjugacy
# ---------------------------------------------------------------------------


class ConjugacyVerdict(Frozen):
    """Tri-state outcome of a GL(2,Z) conjugacy test.

    ``status`` is one of "conjugate", "not_conjugate", "unknown".  A
    conjugate verdict carries an exactly verified witness B with
    B*A*B^-1 = A'; a negative verdict carries the distinguishing
    invariant; unknown carries the exhausted search bound.
    """

    __slots__ = ("status", "witness", "reason", "bound")
    _optional = ("witness", "reason", "bound")
    status: str
    witness: IntMatrix | None
    reason: str | None
    bound: int | None

    @property
    def is_conjugate(self) -> bool:
        return self.status == "conjugate"


def _incidence_product(word: Sequence[int]) -> IntMatrix:
    m = identity(2)
    for a in word:
        m = m * IntMatrix(2, 2, (a, 1, 1, 0))
    return m


def word_of_matrix(m: IntMatrix) -> tuple | None:
    """Recover the factorization m = prod (a_i,1;1,0) with a_i >= 1, if any.

    Returns the word as a tuple, or None when m is not such a product
    (the empty product, i.e. the identity, also returns None).  The word
    is unique once the determinant fixes the length parity.
    """
    if m.rows != 2 or m.cols != 2:
        return None
    p, q, r, s = m.entries
    if min(p, q, r, s) < 0 or r == 0 or q == 0:
        return None
    det = p * s - q * r
    if det not in (1, -1):
        return None
    if p < r:
        return None
    # continued-fraction digits of p/r determine the word up to the
    # trailing [a] vs [a-1,1] ambiguity; parity of the length picks one
    x, y = p, r
    digits = []
    while y:
        a, rem = divmod(x, y)
        digits.append(a)
        x, y = y, rem
    candidates = [digits]
    if digits[-1] >= 2:
        candidates.append(digits[:-1] + [digits[-1] - 1, 1])
    for word in candidates:
        if any(a < 1 for a in word):
            continue
        if det != (-1) ** len(word):
            continue
        if _incidence_product(word) == m:
            return tuple(word)
    return None


def cyclically_equivalent(w1: Sequence[int], w2: Sequence[int]) -> int | None:
    """Return a shift k with w2 == w1[k:]+w1[:k], or None."""
    w1, w2 = list(w1), list(w2)
    if len(w1) != len(w2):
        return None
    for k in range(len(w1)):
        if w1[k:] + w1[:k] == w2:
            return k
    return None


def unimodular_2x2(bound: int) -> Iterator[IntMatrix]:
    """All 2x2 integer matrices with entries in [-bound, bound] and det +-1,
    in a fixed deterministic order."""
    rng = range(-bound, bound + 1)
    for a in rng:
        for b in rng:
            for c in rng:
                for d in rng:
                    if a * d - b * c in (1, -1):
                        yield IntMatrix(2, 2, (a, b, c, d))


def brute_force_conjugator(a: IntMatrix, a2: IntMatrix, bound: int) -> IntMatrix | None:
    """Exhaustive oracle: first unimodular B with entries <= bound and
    B*a = a2*B, else None.  Independent of the word-based decision path."""
    if not (a.rows == a.cols == 2 and a2.rows == a2.cols == 2):
        raise ValueError("brute_force_conjugator expects 2x2 matrices")
    for b in unimodular_2x2(bound):
        if b * a == a2 * b:
            return b
    return None


def _verified_conjugate(b: IntMatrix, a: IntMatrix, a2: IntMatrix) -> ConjugacyVerdict:
    if b.det() not in (1, -1):
        raise RuntimeError(f"conjugacy witness B = {b.to_rows()} has det {b.det()}, not +-1")
    if b * a != a2 * b:
        raise RuntimeError(
            f"conjugacy witness B = {b.to_rows()} fails B*A = A'*B for A = {a.to_rows()}, A' = {a2.to_rows()}"
        )
    return ConjugacyVerdict(status="conjugate", witness=b)


def conjugacy_test(a: IntMatrix, a2: IntMatrix, bound: int = 10) -> ConjugacyVerdict:
    """Decide GL(2,Z) conjugacy of two 2x2 integer matrices.

    Trace or determinant mismatch settles the negative case.  When both
    matrices factor as products of (a_i,1;1,0) the decision is exact:
    conjugate iff the factor words are cyclic shifts (witness built from
    the shift).  Otherwise an exhaustive search over unimodular
    conjugators with entries up to ``bound`` runs; exhaustion without a
    witness yields an "unknown" verdict, never a negative one.
    """
    if not (a.rows == a.cols == 2 and a2.rows == a2.cols == 2):
        raise ValueError("conjugacy_test expects 2x2 matrices")
    if a == a2:
        return _verified_conjugate(identity(2), a, a2)
    if a.trace() != a2.trace():
        return ConjugacyVerdict(
            status="not_conjugate", reason=f"trace mismatch: {a.trace()} vs {a2.trace()}"
        )
    if a.det() != a2.det():
        return ConjugacyVerdict(
            status="not_conjugate", reason=f"determinant mismatch: {a.det()} vs {a2.det()}"
        )
    w1 = word_of_matrix(a)
    w2 = word_of_matrix(a2)
    if w1 is not None and w2 is not None:
        shift = cyclically_equivalent(w1, w2)
        if shift is None:
            return ConjugacyVerdict(
                status="not_conjugate",
                reason=f"cyclic-period mismatch: {list(w1)} vs {list(w2)}",
            )
        prefix = _incidence_product(w1[:shift])
        return _verified_conjugate(_inverse_unimodular_2x2(prefix), a, a2)
    found = brute_force_conjugator(a, a2, bound)
    if found is not None:
        return _verified_conjugate(found, a, a2)
    return ConjugacyVerdict(status="unknown", bound=bound)
