"""Exact arithmetic in F_p and small extensions F_{p^n}.

Element operations are pure, and a field descriptor keeps nothing but
its parameters and the 2-Sylow generator its first square root finds.
The extension modulus is the lexicographically smallest monic
irreducible, so enumeration order and diagnostics are reproducible run
to run.  An element of F_{p^n} is an int whose base-p digits are its
coefficients, and arithmetic is in F_p[x]/(modulus): sums digit by
digit, products by schoolbook multiplication and reduction by the
modulus.  One extended Euclidean algorithm (_poly_inverse) gives the
inverses of F_{p^n} and the gcd step of the irreducibility test, and one
Tonelli-Shanks (_sqrt) the square roots of F_p and F_{p^n} alike.  No
field keeps tables, so building one costs the search for its modulus;
extensions stop at p^n <= 10^6 (EXT_FIELD_GUARD).  Enumerating a whole
field is left to the tests, whose log/exp table field is the oracle of
this one.
"""

from __future__ import annotations

from collections.abc import Sequence

from ._factor import factorize, is_prime

__all__ = [
    "PrimeField",
    "ExtField",
    "FieldElement",
    "finite_field",
    "find_irreducible",
    "is_square",
    "EXT_FIELD_GUARD",
]

# caps F_{p^n} at 10^6 elements, and with it the levels n > 1 whose group
# structure `curve` and `localize` compute (N ~ q is factored, and the
# Sylow steps take discrete logs in E(F_q)); past it they print null.
# Building a field costs only the search for its modulus, so the edge is
# cheap: `curve --model "[0,0,0,-1,0]" --p 997 --n 2` takes 35-40 ms as a
# process and 2-6 ms in process, and `localize` at 97^3, 31^4, 13^5 and
# 7^6 at most 50 ms as a process (Python 3.11, 2-vCPU Xeon)
EXT_FIELD_GUARD = 10**6


# ---------------------------------------------------------------------------
# polynomial helpers over F_p (coefficient sequences, low degree first)
# ---------------------------------------------------------------------------


def _poly_mulmod(a: Sequence[int], b: Sequence[int], mod: Sequence[int], p: int) -> list:
    """a * b mod the monic mod of degree n, as n coefficients: the
    schoolbook product, then x^k = x^(k-n) (x^n - mod) for each k >= n
    from the top down."""
    n = len(mod) - 1
    out = [0] * max(len(a) + len(b) - 1, n)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    for k in range(len(out) - 1, n - 1, -1):
        c = out[k] % p
        if c:
            for j, m in enumerate(mod, k - n):
                out[j] -= c * m
    return [c % p for c in out[:n]]


def _poly_inverse(a: Sequence[int], mod: Sequence[int], p: int) -> list | None:
    """a^-1 mod the monic mod, for deg a < deg mod, or None when
    gcd(a, mod) != 1: the extended Euclidean algorithm on (mod, a), each
    row keeping r = s a mod the modulus, ends on a constant r when the
    gcd is 1 and on r = 0 otherwise."""
    r0, s0 = list(mod), [0]
    r1, s1 = list(a), [1]
    while r1 and not r1[-1]:
        r1.pop()
    while len(r1) > 1:
        lead = pow(r1[-1], -1, p)
        while len(r0) >= len(r1):
            c, d = r0[-1] * lead % p, len(r0) - len(r1)
            for i, v in enumerate(r1, d):
                r0[i] = (r0[i] - c * v) % p
            s0 += [0] * (len(s1) + d - len(s0))
            for i, v in enumerate(s1, d):
                s0[i] = (s0[i] - c * v) % p
            while r0 and not r0[-1]:
                r0.pop()
        r0, s0, r1, s1 = r1, s1, r0, s0
    if not r1:
        return None
    c = pow(r1[0], -1, p)
    return [v * c % p for v in s1]


def _poly_powmod(a: Sequence[int], e: int, mod: Sequence[int], p: int) -> Sequence[int]:
    """a^e mod the monic mod, for e >= 0 and deg a < deg mod, by
    square-and-multiply."""
    result = None
    while e:
        if e & 1:
            result = a if result is None else _poly_mulmod(result, a, mod, p)
        e >>= 1
        if e:
            a = _poly_mulmod(a, a, mod, p)
    return [1] if result is None else result


def _is_irreducible(f: Sequence[int], p: int) -> bool:
    """Monic f of degree n is irreducible iff x^(p^n) = x mod f and
    x^(p^(n/l)) - x is invertible mod f for every prime l | n."""
    n = len(f) - 1
    if n < 1 or f[-1] != 1:
        return False
    if n == 1:
        return True
    x = [0, 1] + [0] * (n - 2)
    if _poly_powmod(x, p**n, f, p) != x:
        return False
    for ell in factorize(n):
        h = _poly_powmod(x, p ** (n // ell), f, p)
        h[1] = (h[1] - 1) % p
        if _poly_inverse(h, f, p) is None:
            return False
    return True


def find_irreducible(p: int, n: int) -> tuple:
    """Lexicographically smallest monic irreducible of degree n over F_p,
    as a low-first coefficient tuple of length n+1; deterministic."""
    _check_field(p, n)
    # c_i is base-p digit i of val, so val counts (c_{n-1},...,c_0)
    # lexicographically
    for val in range(p**n):
        f = _digits(val, p, n) + (1,)
        if _is_irreducible(f, p):
            return f
    raise RuntimeError(f"no monic irreducible of degree {n} over F_{p}")  # unreachable


def _check_field(p: int, n: int) -> None:
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if n < 1:
        raise ValueError("degree must be positive")
    if p**n > EXT_FIELD_GUARD:
        raise ValueError(f"field too large: {p}^{n} > 10^6")


def _digits(v: int, p: int, n: int) -> tuple:
    out = []
    for _ in range(n):
        v, c = divmod(v, p)
        out.append(c)
    return tuple(out)


def _encode(coefficients: Sequence[int], p: int) -> int:
    """The int whose base-p digits are the coefficients, each in [0, p)."""
    v = 0
    for c in reversed(coefficients):
        v = v * p + c
    return v


def _combine(a: int, b: int, p: int, s: int, t: int) -> int:
    """s*a + t*b digit by digit mod p, on base-p digit ints."""
    out, place = 0, 1
    while a or b:
        a, x = divmod(a, p)
        b, y = divmod(b, p)
        out += (s * x + t * y) % p * place
        place *= p
    return out


def _sqrt(field, a):
    """A square root of a in F_q, or None when a is not a square: a^(q/2)
    in characteristic 2, one pow when q = 3 mod 4, and Tonelli-Shanks
    otherwise (Cohen, GTM 138, Alg. 1.5.1)."""
    if not a:
        return 0
    q, mul = field.order, field.mul
    if field.char == 2:
        return field.pow(a, q // 2)
    if q % 4 == 3:
        x = field.pow(a, (q + 1) // 4)
        return x if mul(x, x) == a else None
    s = ((q - 1) & (1 - q)).bit_length() - 1
    w = field.pow(a, (q - 1) >> (s + 1))
    c = field._sylow2
    if c is None:
        # z^t, with q - 1 = 2^s t and t odd, generates the 2-Sylow
        # subgroup for the first non-square z from 2 in F_p and from x in
        # F_{p^n}, n > 1 (every element of F_p is a square when n is even)
        half = (q - 1) // 2
        z = next(v for v in range(field.char if field.degree > 1 else 2, q) if field.pow(v, half) != 1)
        c = field._sylow2 = field.pow(z, (q - 1) >> s)
    # x^2 = a b with b = a^t, and b lies in the subgroup of order 2^s
    # that c generates; a is a square iff b has order below 2^s
    x = mul(a, w)
    b = mul(x, w)
    while b != 1:
        i, b2 = 0, b
        while b2 != 1:
            b2 = mul(b2, b2)
            i += 1
            if i == s:
                return None
        d = c
        for _ in range(s - i - 1):
            d = mul(d, d)
        x, c = mul(x, d), mul(d, d)
        b, s = mul(b, c), i
    return x


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------


class PrimeField:
    """F_p with elements represented as ints in [0, p)."""

    __slots__ = ("p", "_sylow2")

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self._sylow2 = None

    @property
    def char(self) -> int:
        return self.p

    @property
    def degree(self) -> int:
        return 1

    @property
    def order(self) -> int:
        return self.p

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

    def sqrt(self, a):
        return _sqrt(self, a % self.p)

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
    c_0 + c_1 p + ... + c_{n-1} p^{n-1}, so the field is range(p^n) and
    the prime subfield is 0..p-1.  Sums, differences and negatives go
    digit by digit (xor in characteristic 2).
    """

    __slots__ = ("p", "n", "modulus", "_sylow2")

    def __init__(self, p: int, n: int, modulus: Sequence[int] | None = None):
        if modulus is None:
            modulus = find_irreducible(p, n)
        else:
            _check_field(p, n)
            modulus = tuple(c % p for c in modulus)
            if len(modulus) != n + 1 or modulus[-1] != 1:
                raise ValueError("modulus must be monic of degree n")
            if not _is_irreducible(modulus, p):
                raise ValueError(f"modulus {modulus} is reducible over F_{p}")
        self.p = p
        self.n = n
        self.modulus = modulus
        self._sylow2 = None

    @property
    def char(self) -> int:
        return self.p

    @property
    def degree(self) -> int:
        return self.n

    @property
    def order(self) -> int:
        return self.p**self.n

    def from_int(self, k: int):
        return k % self.p

    def add(self, a, b):
        return a ^ b if self.p == 2 else _combine(a, b, self.p, 1, 1)

    def sub(self, a, b):
        return a ^ b if self.p == 2 else _combine(a, b, self.p, 1, -1)

    def neg(self, a):
        return a if self.p == 2 else _combine(a, 0, self.p, -1, 0)

    def mul(self, a, b):
        p = self.p
        if a < p or b < p:
            # a factor in the prime subfield scales the other's digits
            c, v = (a, b) if a < p else (b, a)
            if c < 2:
                return v if c else 0
            return _combine(v, 0, p, c, 0)
        n = self.n
        return _encode(_poly_mulmod(_digits(a, p, n), _digits(b, p, n), self.modulus, p), p)

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero")
        p = self.p
        if a < p:
            return pow(a, -1, p)
        return _encode(_poly_inverse(_digits(a, p, self.n), self.modulus, p), p)

    def pow(self, a, e: int):
        if not a:
            if e < 0:
                raise ZeroDivisionError("inverse of zero")
            return 0 if e else 1
        if e < 0:
            a, e = self.inv(a), -e
        p, n = self.p, self.n
        return _encode(_poly_powmod(_digits(a, p, n), e % (p**n - 1), self.modulus, p), p)

    def sqrt(self, a):
        return _sqrt(self, a)

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


def finite_field(p: int, n: int = 1, modulus: Sequence[int] | None = None):
    """Field descriptor for F_{p^n}; PrimeField when n == 1."""
    if n == 1 and modulus is None:
        return PrimeField(p)
    return ExtField(p, n, modulus)


def is_square(field, a) -> bool:
    """Whether a has a square root in the field; Euler's criterion for
    odd order (0 counts as a square), always true in characteristic 2."""
    if field.char == 2:
        return True
    if a == 0:
        return True
    return field.pow(a, (field.order - 1) // 2) == 1


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
