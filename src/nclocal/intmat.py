"""Arbitrary-precision integer matrix algebra.

Exact products, powers, traces, determinants and invariant factors (the
Smith normal form diagonal, by elimination modulo a minor).  Matrices
are immutable; every operation is a pure function, safe for concurrent
use.
"""

from __future__ import annotations

from collections.abc import Sequence
from math import gcd, prod
from operator import mul

from ._frozen import Frozen

__all__ = ["IntMatrix", "identity", "mat_pow", "invariant_factors"]


# the whitespace that JSON allows around a value
_JSON_SPACE = " \t\n\r"


def _plain_rows(text: str) -> list | None:
    """The rows of text as json.loads reads them, when text is a list of
    one or more lists of ints written as str writes them, with only JSON
    whitespace around the brackets, commas and ints; None otherwise."""
    body = text.strip(_JSON_SPACE)
    if body[:1] != "[" or body[-1:] != "]":
        return None
    # each part but the last is one row's "[" and ints, after a "," from
    # the second row on
    *parts, tail = body[1:-1].split("]")
    if not parts or tail.strip(_JSON_SPACE):
        return None
    rows = []
    for part in parts:
        part = part.strip(_JSON_SPACE)
        if rows:
            if part[:1] != ",":
                return None
            part = part[1:].lstrip(_JSON_SPACE)
        if part[:1] != "[":
            return None
        tokens = [token.strip(_JSON_SPACE) for token in part[1:].split(",")]
        try:
            row = list(map(int, tokens))
        except ValueError:
            return None
        if list(map(str, row)) != tokens:
            return None
        rows.append(row)
    return rows


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
        # rows * cols ints that intmat's own arithmetic produced: the three
        # slots are set directly, without Frozen.__init__'s argument binding
        m = object.__new__(cls)
        set_rows, set_cols, set_entries = cls._setters
        set_rows(m, rows)
        set_cols(m, cols)
        set_entries(m, entries)
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
        """Parse the CLI form ``[[a,b],[c,d]]``.  Plain rows of ints are
        read directly (_plain_rows); any other text goes through
        json.loads."""
        data = _plain_rows(text)
        if data is None:
            import json

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
