"""Exact arithmetic in F_p and small extensions F_{p^n}.

Field descriptors are immutable and element operations are pure.  The
extension modulus is the lexicographically smallest monic irreducible,
so enumeration order and diagnostics are reproducible run to run.  An
element of F_{p^n} is an int whose base-p digits are its coefficients;
products, sums and inverses are lookups in log, exp and Zech tables
(Lidl-Niederreiter, Finite Fields, 2.1) that each field builds once and
caches.  Extensions stop at p^n <= 10^6 (EXT_FIELD_GUARD), where the
tables take 12 MB and about 1 s to build; enumeration of any field stops
at 10^7.
"""

from __future__ import annotations

import sys
from array import array
from collections import OrderedDict, deque
from typing import Iterator, Optional, Sequence

from ._factor import factorize, is_prime

__all__ = [
    "PrimeField",
    "ExtField",
    "FieldElement",
    "finite_field",
    "find_irreducible",
    "is_square",
    "enumerate_field",
    "FIELD_SIZE_GUARD",
    "EXT_FIELD_GUARD",
]

FIELD_SIZE_GUARD = 10**7
EXT_FIELD_GUARD = 10**6


# ---------------------------------------------------------------------------
# polynomial helpers over F_p (coefficient tuples, low degree first)
# ---------------------------------------------------------------------------


def _poly_trim(v: list) -> tuple:
    while v and v[-1] == 0:
        v.pop()
    return tuple(v)


def _poly_mulmod(a: Sequence[int], b: Sequence[int], mod: Sequence[int], p: int) -> tuple:
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_divmod(out, mod, p)[1]


def _poly_divmod(a: Sequence[int], b: Sequence[int], p: int) -> tuple:
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    inv_lb = pow(lb, p - 2, p)
    q = [0] * max(len(a) - db, 0)
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i]
        if c:
            c = c * inv_lb % p
            q[i - db] = c
            for j, bj in enumerate(b):
                a[i - db + j] = (a[i - db + j] - c * bj) % p
    return _poly_trim(q), _poly_trim(a)


def _poly_gcd(a: Sequence[int], b: Sequence[int], p: int) -> tuple:
    a, b = tuple(a), tuple(b)
    while b:
        a, b = b, _poly_divmod(a, b, p)[1]
    if a:
        inv = pow(a[-1], p - 2, p)
        a = tuple(c * inv % p for c in a)
    return a


def _poly_powmod(a: Sequence[int], e: int, mod: Sequence[int], p: int) -> tuple:
    result = (1,)
    base = _poly_divmod(a, mod, p)[1]
    while e:
        if e & 1:
            result = _poly_mulmod(result, base, mod, p)
        base = _poly_mulmod(base, base, mod, p)
        e >>= 1
    return result


def _is_irreducible(f: Sequence[int], p: int) -> bool:
    """Monic f of degree n is irreducible iff x^(p^n) = x mod f and
    gcd(x^(p^(n/l)) - x, f) = 1 for every prime l | n."""
    n = len(f) - 1
    if n < 1 or f[-1] != 1:
        return False
    if n == 1:
        return True
    xq = _poly_powmod((0, 1), p**n, f, p)
    x = _poly_divmod((0, 1), f, p)[1]
    if xq != x:
        return False
    for ell in factorize(n):
        h = _poly_powmod((0, 1), p ** (n // ell), f, p)
        diff = list(h) + [0] * (2 - len(h))
        diff[1] = (diff[1] - 1) % p
        g = _poly_gcd(f, _poly_trim(diff), p)
        if len(g) - 1 != 0:
            return False
    return True


def find_irreducible(p: int, n: int) -> tuple:
    """Lexicographically smallest monic irreducible of degree n over F_p,
    as a low-first coefficient tuple of length n+1; deterministic."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if n < 1:
        raise ValueError("degree must be positive")
    if p**n > EXT_FIELD_GUARD:
        raise ValueError(f"field too large: {p}^{n} > 10^6")
    # c_i is base-p digit i of val, so val counts (c_{n-1},...,c_0)
    # lexicographically
    for val in range(p**n):
        f = _digits(val, p, n) + (1,)
        if _is_irreducible(f, p):
            return f
    raise AssertionError("no irreducible polynomial found")  # unreachable


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------


class PrimeField:
    """F_p with elements represented as ints in [0, p)."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p

    @property
    def char(self) -> int:
        return self.p

    @property
    def degree(self) -> int:
        return 1

    @property
    def order(self) -> int:
        return self.p

    def zero(self):
        return 0

    def one(self):
        return 1

    def from_int(self, k: int):
        return k % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def neg(self, a):
        return -a % self.p

    def mul(self, a, b):
        return a * b % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p)

    def pow(self, a, e: int):
        if e < 0:
            return pow(self.inv(a), -e, self.p)
        return pow(a, e, self.p)

    def elements(self) -> Iterator[int]:
        return iter(range(self.p))

    def absolute_trace(self, a) -> int:
        return a

    def element_repr(self, a) -> str:
        return str(a)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"F_{self.p}"


class ExtField:
    """F_{p^n} as F_p[x]/(modulus).

    The element c_0 + c_1 x + ... + c_{n-1} x^{n-1} is the int
    c_0 + c_1 p + ... + c_{n-1} p^{n-1}, so elements() is range(p^n) and
    the prime subfield is 0..p-1.  With g the primitive element of the
    field's tables, a product, inverse or power is index arithmetic mod
    q-1 on log/exp, a sum goes through the Zech table Z(k) = log(1 + g^k),
    and -a is g^((q-1)/2) * a (a itself in characteristic 2).
    """

    __slots__ = ("p", "n", "modulus", "_m", "_half", "_exp", "_log", "_zech")

    def __init__(self, p: int, n: int, modulus: Optional[Sequence[int]] = None):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if n < 1:
            raise ValueError("degree must be positive")
        if p**n > EXT_FIELD_GUARD:
            raise ValueError(f"field too large: {p}^{n} > 10^6")
        if modulus is not None:
            modulus = tuple(c % p for c in modulus)
            if len(modulus) != n + 1 or modulus[-1] != 1:
                raise ValueError("modulus must be monic of degree n")
        self.p = p
        self.n = n
        self.modulus, self._exp, self._log, self._zech = _field_tables(p, n, modulus)
        self._m = p**n - 1
        self._half = 0 if p == 2 else self._m // 2  # log(-1)

    @property
    def char(self) -> int:
        return self.p

    @property
    def degree(self) -> int:
        return self.n

    @property
    def order(self) -> int:
        return self._m + 1

    def zero(self):
        return 0

    def one(self):
        return 1

    def from_int(self, k: int):
        return k % self.p

    def add(self, a, b):
        if not a:
            return b
        if not b:
            return a
        m, log = self._m, self._log
        la = log[a]
        z = self._zech[(log[b] - la) % m]
        return 0 if z < 0 else self._exp[(la + z) % m]

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def neg(self, a):
        return self._exp[(self._log[a] + self._half) % self._m] if a else 0

    def mul(self, a, b):
        if not a or not b:
            return 0
        log = self._log
        return self._exp[(log[a] + log[b]) % self._m]

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero")
        return self._exp[-self._log[a] % self._m]

    def pow(self, a, e: int):
        if not a:
            if e < 0:
                raise ZeroDivisionError("inverse of zero")
            return 0 if e else 1
        return self._exp[self._log[a] * e % self._m]

    def elements(self) -> Iterator[int]:
        return iter(range(self._m + 1))

    def absolute_trace(self, a) -> int:
        """Trace to F_p: sum of a^(p^i); returned as an int in [0, p)."""
        acc = frob = a
        for _ in range(self.n - 1):
            frob = self.pow(frob, self.p)
            acc = self.add(acc, frob)
        if acc >= self.p:
            raise RuntimeError(f"trace of {self.element_repr(a)} in {self!r} landed outside the prime field")
        return acc

    def element_repr(self, a) -> str:
        return "(" + ",".join(str(c) for c in _digits(a, self.p, self.n)) + ")"

    def __eq__(self, other):
        return (
            isinstance(other, ExtField)
            and (other.p, other.n, other.modulus) == (self.p, self.n, self.modulus)
        )

    def __hash__(self):
        return hash(("ExtField", self.p, self.n, self.modulus))

    def __repr__(self):
        return f"F_{self.p}^{self.n}"


# ---------------------------------------------------------------------------
# log/exp/Zech tables of F_{p^n}
# ---------------------------------------------------------------------------

# tables kept for the most recently used fields, up to this many elements
# in all (12 bytes per element)
_TABLE_CACHE_ELEMENTS = 2 * 10**6
_table_cache: "OrderedDict[tuple, tuple]" = OrderedDict()
# powers of g are computed this many at a time
_BLOCK = 1 << 15


def _digits(v: int, p: int, n: int) -> tuple:
    out = []
    for _ in range(n):
        v, c = divmod(v, p)
        out.append(c)
    return tuple(out)


def _field_tables(p: int, n: int, modulus: Optional[tuple]) -> tuple:
    """(modulus, exp, log, zech) of F_p[x]/(modulus), where None stands for
    find_irreducible(p, n); built on first use and cached."""
    key = (p, n, modulus)
    tables = _table_cache.get(key)
    if tables is not None:
        _table_cache.move_to_end(key)
        return tables
    if modulus is None:
        modulus = find_irreducible(p, n)
    elif not _is_irreducible(modulus, p):
        raise ValueError(f"modulus {modulus} is reducible over F_{p}")
    tables = (modulus, *_build_tables(p, n, modulus))
    _table_cache[key] = tables
    while sum(len(t[2]) for t in _table_cache.values()) > _TABLE_CACHE_ELEMENTS:
        _table_cache.popitem(last=False)
    return tables


def _primitive_element(p: int, n: int, modulus: tuple) -> int:
    """The first v in int order with g^((q-1)/l) != 1 for each prime l | q-1.

    No element of F_p generates F_{p^n}^* for n > 1, so the scan starts at x.
    """
    q = p**n
    cofactors = [(q - 1) // ell for ell in factorize(q - 1)]
    for v in range(p if n > 1 else 1, q):
        g = _digits(v, p, n)
        if all(_poly_powmod(g, e, modulus, p) != (1,) for e in cofactors):
            return v
    raise RuntimeError(f"F_{p}^{n} mod {modulus} has no primitive element")


class _Lanes:
    """Residues mod p packed into the bytes-wide lanes of one int, lane k
    holding bits [w k, w k + w): one int operation adds every lane mod p.

    A lane is wide enough that a sum of two residues plus 2^(w-1) - p
    does not carry, and its top bit is set exactly when the sum is >= p.
    """

    def __init__(self, p: int, width: int, count: int):
        bits = 8 * width
        self.p, self.shift = p, bits - 1
        self.ones = int.from_bytes((b"\x01" + bytes(width - 1)) * count, "little")
        self.bias = ((1 << (bits - 1)) - p) * self.ones
        self.high = (1 << (bits - 1)) * self.ones

    def add(self, a: int, b: int) -> int:
        s = a + b
        return s - (((s + self.bias) & self.high) >> self.shift) * self.p

    def times(self, planes: list, matrix: list) -> list:
        """Planes of h*a for each a in a block, given the planes of a;
        matrix[i][j] is digit i of h * x^j.  Each entry is applied by
        binary expansion over the doublings of its plane."""
        doublings = [[plane] for plane in planes]
        out = []
        for row in matrix:
            acc = 0
            for twice, c in zip(doublings, row):
                i = 0
                while c:
                    if i == len(twice):
                        twice.append(self.add(twice[-1], twice[-1]))
                    if c & 1:
                        acc = self.add(acc, twice[i])
                    c >>= 1
                    i += 1
            out.append(acc)
        return out


def _widen(lanes: int, width: int, count: int) -> int:
    """The same values in 4-byte lanes."""
    raw = lanes.to_bytes(width * count, "little")
    wide = bytearray(4 * count)
    for b in range(width):
        wide[b::4] = raw[b::width]
    return int.from_bytes(wide, "little")


def _build_tables(p: int, n: int, modulus: tuple) -> tuple:
    """exp[k] = g^k and zech[k] = log(1 + g^k) for k < q-1, log[v] for v < q
    (-1 at v = 0 marks the Zech entry of g^k = -1), as arrays of C ints.

    The powers are built a block at a time on digit planes: plane i packs
    digit i of each power of the block into its own lane (_Lanes), so the
    next block, this one times g^size, is a fixed n x n matrix over F_p
    applied to the planes.  The first block grows by doubling from g^0.
    """
    q = p**n
    m = q - 1
    g = _primitive_element(p, n, modulus)
    g_poly = _digits(g, p, n)
    width = (p.bit_length() + 8) // 8
    bits = 8 * width

    def matrix(e: int) -> list:
        h = _poly_powmod(g_poly, e, modulus, p)
        cols = [_poly_mulmod(h, (0,) * j + (1,), modulus, p) for j in range(n)]
        return [[col[i] if i < len(col) else 0 for col in cols] for i in range(n)]

    planes, size = [1] + [0] * (n - 1), 1
    while size < min(m, _BLOCK):
        grown = _Lanes(p, width, size).times(planes, matrix(size))
        planes = [a | b << (bits * size) for a, b in zip(planes, grown)]
        size *= 2
    lanes, step = _Lanes(p, width, size), matrix(size)
    exp, succ = array("i"), array("i")
    for start in range(0, m, size):
        if start:
            planes = lanes.times(planes, step)
        count = min(size, m - start)
        mask = (1 << (bits * count)) - 1
        low = [plane & mask for plane in planes]
        enc = sum(_widen(plane, width, count) * p**i for i, plane in enumerate(low))
        # 1 + g^k differs from g^k in digit 0 only
        succ0 = lanes.add(low[0], lanes.ones) & mask
        enc_succ = enc - _widen(low[0], width, count) + _widen(succ0, width, count)
        exp.frombytes(enc.to_bytes(4 * count, "little"))
        succ.frombytes(enc_succ.to_bytes(4 * count, "little"))
    if sys.byteorder != "little":
        exp.byteswap()
        succ.byteswap()
    log = _log_table(q, exp)
    if m > 1 and exp[1] != g:
        raise RuntimeError(f"exp table of F_{p}^{n} starts {exp[:2].tolist()}, not [1, {g}]")
    for start in range(0, m, _BLOCK):
        succ[start : start + _BLOCK] = array("i", map(log.__getitem__, succ[start : start + _BLOCK]))
    return exp, log, succ


def _log_table(q: int, exp: array) -> array:
    """The inverse of exp, after checking that exp is a bijection from
    0..q-2 onto 1..q-1, i.e. that g is primitive; log[0] = -1."""
    log = array("i", [-1]) * q
    try:
        deque(map(log.__setitem__, exp, range(len(exp))), maxlen=0)
    except IndexError:
        raise RuntimeError(f"exp table of a field of order {q} has a value past {q - 1}") from None
    if len(exp) != q - 1 or log[0] != -1 or log.count(-1) != 1:
        raise RuntimeError(f"exp table of a field of order {q} is not a bijection onto 1..{q - 1}")
    return log


def finite_field(p: int, n: int = 1, modulus: Optional[Sequence[int]] = None):
    """Field descriptor for F_{p^n}; PrimeField when n == 1."""
    if n == 1 and modulus is None:
        return PrimeField(p)
    return ExtField(p, n, modulus)


def is_square(field, a) -> bool:
    """Whether a has a square root in the field; Euler's criterion for
    odd order (0 counts as a square), always true in characteristic 2."""
    if field.char == 2:
        return True
    if a == field.zero():
        return True
    return field.pow(a, (field.order - 1) // 2) == field.one()


def enumerate_field(field) -> Iterator:
    """Each element exactly once, in the field's deterministic order."""
    if field.order > FIELD_SIZE_GUARD:
        raise ValueError("field too large")
    return field.elements()


class FieldElement:
    """Operator-overloading wrapper used by curve-level formulas.

    Ints coerce on mixed arithmetic, so ring expressions read naturally;
    hot counting loops work on raw representations instead.
    """

    __slots__ = ("field", "val")

    def __init__(self, field, val):
        self.field = field
        self.val = val

    @classmethod
    def of(cls, field, k: int) -> "FieldElement":
        return cls(field, field.from_int(k))

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.field != self.field:
                raise ValueError("elements of different fields")
            return other.val
        if isinstance(other, int):
            return self.field.from_int(other)
        return NotImplemented

    def __add__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.add(self.val, v))

    __radd__ = __add__

    def __sub__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.sub(self.val, v))

    def __rsub__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.sub(v, self.val))

    def __mul__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.mul(self.val, v))

    __rmul__ = __mul__

    def __truediv__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.mul(self.val, self.field.inv(v)))

    def __rtruediv__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.mul(v, self.field.inv(self.val)))

    def __neg__(self):
        return FieldElement(self.field, self.field.neg(self.val))

    def __pow__(self, e: int):
        return FieldElement(self.field, self.field.pow(self.val, e))

    def __eq__(self, other):
        if isinstance(other, int):
            return self.val == self.field.from_int(other)
        if isinstance(other, FieldElement):
            return self.field == other.field and self.val == other.val
        return NotImplemented

    def __hash__(self):
        return hash((self.field, self.val))

    def __repr__(self):
        return self.field.element_repr(self.val)
