"""F_{p^n} by log and exp tables: the oracle for nclocal.ffield.ExtField.

A ``TableField`` shares only its modulus with src.  Its exp table lists
g^0, g^1, ..., g^(q-2) for g the first primitive element in int order,
each power the one before times g, and log inverts it.  Products,
inverses, powers and square roots are index arithmetic mod q - 1, and a
sum is a (1 + b/a), where adding 1 changes digit 0 alone.  Every
operation is a few lookups, so the tests that enumerate a whole field
(brute-force counts, point lists, twist searches) run on these fields.
Elements are encoded as in ExtField: the int whose base-p digits are the
coefficients.
"""

from __future__ import annotations

from functools import lru_cache
from operator import mul

from nclocal.elliptic import WeierstrassModel
from nclocal.ffield import PrimeField, find_irreducible


def _times(u: list, w: list, mod: tuple, p: int) -> list:
    """u * w mod the monic mod of degree n, on coefficient lists of length n."""
    n = len(mod) - 1
    out = [0] * (2 * n)
    for j, c in enumerate(w):
        if c:
            for i, x in enumerate(u, j):
                out[i] += c * x
    for k in range(2 * n - 1, n - 1, -1):
        c = out[k] % p
        if c:
            for j in range(n):
                out[k - n + j] -= c * mod[j]
    return [c % p for c in out[:n]]


def _power(u: list, e: int, mod: tuple, p: int) -> list:
    result = [1] + [0] * (len(u) - 1)
    for bit in bin(e)[2:]:
        result = _times(result, result, mod, p)
        if bit == "1":
            result = _times(result, u, mod, p)
    return result


def _prime_divisors(m: int) -> list:
    out, d = [], 2
    while d * d <= m:
        if m % d == 0:
            out.append(d)
            while m % d == 0:
                m //= d
        d += 1
    return out + [m] if m > 1 else out


def _tables(p: int, n: int, mod: tuple) -> tuple:
    """(exp, log) for the first g in int order with g^((q-1)/l) != 1 for
    each prime l | q - 1; log[0] is -1.  No element of F_p generates the
    field when n > 1, so the search starts at x.  exp steps by the matrix
    of multiplication by g, whose column j is x^j g."""
    q = p**n
    place = [p**i for i in range(n)]
    one = [1] + [0] * (n - 1)
    cofactors = [(q - 1) // ell for ell in _prime_divisors(q - 1)]
    for v in range(p if n > 1 else 1, q):
        g = [v // place[i] % p for i in range(n)]
        if all(_power(g, e, mod, p) != one for e in cofactors):
            break
    else:
        raise RuntimeError(f"F_{p}^{n} mod {mod} has no primitive element")
    cols = [_times([0] * j + [1] + [0] * (n - 1 - j), g, mod, p) for j in range(n)]
    rows = [[col[i] for col in cols] for i in range(n)]
    exp, u = [1], one
    for _ in range(q - 2):
        u = [sum(map(mul, row, u)) % p for row in rows]
        exp.append(sum(map(mul, u, place)))
    log = [-1] * q
    for k, w in enumerate(exp):
        log[w] = k
    if log.count(-1) != 1:
        raise RuntimeError(f"the powers of {v} do not fill F_{p}^{n} mod {mod}")
    return exp, log


class TableField:
    """The field protocol of nclocal.ffield on log/exp tables."""

    def __init__(self, p: int, n: int, modulus: tuple):
        self.p, self.n, self.modulus = p, n, modulus
        self.exp, self.log = _tables(p, n, modulus)
        self.m = p**n - 1
        self.half = 0 if p == 2 else self.m // 2  # log(-1)

    char = property(lambda self: self.p)
    degree = property(lambda self: self.n)
    order = property(lambda self: self.m + 1)

    def from_int(self, k: int):
        return k % self.p

    def add(self, a, b):
        if not a:
            return b
        if not b:
            return a
        p, m, log, exp = self.p, self.m, self.log, self.exp
        la = log[a]
        ratio = exp[(log[b] - la) % m]
        ratio += (ratio + 1) % p - ratio % p
        return exp[(la + log[ratio]) % m] if ratio else 0

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def neg(self, a):
        return self.exp[(self.log[a] + self.half) % self.m] if a else 0

    def mul(self, a, b):
        if not a or not b:
            return 0
        return self.exp[(self.log[a] + self.log[b]) % self.m]

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero")
        return self.exp[-self.log[a] % self.m]

    def pow(self, a, e: int):
        if not a:
            if e < 0:
                raise ZeroDivisionError("inverse of zero")
            return 0 if e else 1
        return self.exp[self.log[a] * e % self.m]

    def sqrt(self, a):
        """Half the log index, which must be even unless q - 1 is odd."""
        if not a:
            return 0
        k = self.log[a]
        if k & 1:
            if self.p != 2:
                return None
            k += self.m
        return self.exp[k // 2]

    def elements(self):
        return iter(range(self.m + 1))

    def absolute_trace(self, a) -> int:
        """Trace to F_p: the sum of a^(p^i), an element of 0..p-1."""
        acc = frob = a
        for _ in range(self.n - 1):
            frob = self.pow(frob, self.p)
            acc = self.add(acc, frob)
        if acc >= self.p:
            raise RuntimeError(f"trace of {a} in {self!r} lies outside the prime field")
        return acc

    def element_repr(self, a) -> str:
        return "(" + ",".join(str(a // self.p**i % self.p) for i in range(self.n)) + ")"

    def __eq__(self, other):
        return isinstance(other, TableField) and (other.p, other.n, other.modulus) == (self.p, self.n, self.modulus)

    def __hash__(self):
        return hash(("TableField", self.p, self.n, self.modulus))

    def __repr__(self):
        return f"TableField({self.p}, {self.n}, {self.modulus})"


@lru_cache(maxsize=64)
def table_field(p: int, n: int, modulus: tuple | None = None) -> TableField:
    """The table field of F_{p^n} mod ``modulus`` (ExtField's by default),
    built once per (p, n, modulus) while it is among the last 64 used."""
    return TableField(p, n, find_irreducible(p, n) if modulus is None else tuple(c % p for c in modulus))


def model_over_ext(e: WeierstrassModel, ext) -> WeierstrassModel:
    """Base-change a model over F_p to an extension of F_p: its raw
    coefficients are elements of the prime subfield 0..p-1 there too."""
    if not isinstance(e.field, PrimeField) or ext.char != e.field.p:
        raise ValueError("model must be over the prime subfield of ext")
    return WeierstrassModel.over_field(ext, *(a.val for a in e.coefficients))


def at_level(e: WeierstrassModel, n: int) -> WeierstrassModel:
    """A model over F_p, base-changed to the table field of F_{p^n}."""
    return e if n == 1 else model_over_ext(e, table_field(e.field.p, n))
