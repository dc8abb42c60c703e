"""Exact arithmetic in F_p and small extensions F_{p^n}.

Field descriptors are immutable and element operations are pure.  The
extension modulus is the lexicographically smallest monic irreducible,
so enumeration order and diagnostics are reproducible run to run.  A
desk-scale guard p^n <= 10^7 keeps brute-force enumeration fast.
"""

from __future__ import annotations

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
]

FIELD_SIZE_GUARD = 10**7


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


def _poly_powmod_x(e: int, mod: Sequence[int], p: int) -> tuple:
    # x^e mod (mod)
    result = (1,)
    base = _poly_divmod((0, 1), mod, p)[1]
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
    xq = _poly_powmod_x(p**n, f, p)
    x = _poly_divmod((0, 1), f, p)[1]
    if xq != x:
        return False
    for ell in factorize(n):
        h = _poly_powmod_x(p ** (n // ell), f, p)
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
    if p**n > FIELD_SIZE_GUARD:
        raise ValueError("field too large")
    # scan lower coefficients as base-p digits, most significant first
    for val in range(p**n):
        low = []
        v = val
        for _ in range(n):
            low.append(v % p)
            v //= p
        low.reverse()  # val counts (c_{n-1},...,c_0) lexicographically
        f = tuple(reversed(low)) + (1,)
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

    def element_repr(self, a) -> str:
        return str(a)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"F_{self.p}"


class ExtField:
    """F_{p^n} as F_p[x]/(modulus); elements are coefficient tuples of
    length n, low degree first."""

    __slots__ = ("p", "n", "modulus", "_red")

    def __init__(self, p: int, n: int, modulus: Optional[Sequence[int]] = None):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if n < 1:
            raise ValueError("degree must be positive")
        if p**n > FIELD_SIZE_GUARD:
            raise ValueError("field too large")
        if modulus is None:
            modulus = find_irreducible(p, n)
        modulus = tuple(c % p for c in modulus)
        if len(modulus) != n + 1 or modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree n")
        if not _is_irreducible(modulus, p):
            raise ValueError(f"modulus {modulus} is reducible over F_{p}")
        self.p = p
        self.n = n
        self.modulus = modulus
        # x^n = -(c_0 + c_1 x + ... + c_{n-1} x^{n-1})
        self._red = tuple(-c % p for c in modulus[:-1])

    @property
    def char(self) -> int:
        return self.p

    @property
    def degree(self) -> int:
        return self.n

    @property
    def order(self) -> int:
        return self.p**self.n

    def zero(self):
        return (0,) * self.n

    def one(self):
        return (1,) + (0,) * (self.n - 1)

    def from_int(self, k: int):
        return (k % self.p,) + (0,) * (self.n - 1)

    def add(self, a, b):
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def sub(self, a, b):
        p = self.p
        return tuple((x - y) % p for x, y in zip(a, b))

    def neg(self, a):
        p = self.p
        return tuple(-x % p for x in a)

    def mul(self, a, b):
        p, n, red = self.p, self.n, self._red
        conv = [0] * (2 * n - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    conv[i + j] += ai * bj
        for k in range(2 * n - 2, n - 1, -1):
            c = conv[k] % p
            if c:
                for j, rj in enumerate(red):
                    conv[k - n + j] += c * rj
        return tuple(c % p for c in conv[:n])

    def inv(self, a):
        if all(c == 0 for c in a):
            raise ZeroDivisionError("inverse of zero")
        # extended Euclid in F_p[x]
        p = self.p
        r0, r1 = self.modulus, _poly_trim(list(a))
        s0, s1 = (), (1,)
        while r1:
            q, rem = _poly_divmod(r0, r1, p)
            r0, r1 = r1, rem
            qs1 = [0] * (len(q) + len(s1) - 1) if q and s1 else []
            for i, qi in enumerate(q):
                if qi:
                    for j, sj in enumerate(s1):
                        qs1[i + j] = (qs1[i + j] + qi * sj) % p
            new = [0] * max(len(s0), len(qs1))
            for i, c in enumerate(s0):
                new[i] = c
            for i, c in enumerate(qs1):
                new[i] = (new[i] - c) % p
            s0, s1 = s1, _poly_trim(new)
        lead_inv = pow(r0[-1], p - 2, p)
        out = [c * lead_inv % p for c in s0]
        out += [0] * (self.n - len(out))
        return tuple(out[: self.n])

    def pow(self, a, e: int):
        if e < 0:
            a, e = self.inv(a), -e
        result = self.one()
        base = a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def elements(self) -> Iterator[tuple]:
        p, n = self.p, self.n
        for val in range(p**n):
            out = []
            v = val
            for _ in range(n):
                out.append(v % p)
                v //= p
            yield tuple(out)

    def absolute_trace(self, a) -> int:
        """Trace to F_p: sum of a^(p^i); returned as an int in [0, p)."""
        acc = a
        frob = a
        for _ in range(self.n - 1):
            frob = self.pow(frob, self.p)
            acc = self.add(acc, frob)
        assert all(c == 0 for c in acc[1:]), "trace landed outside the prime field"
        return acc[0]

    def element_repr(self, a) -> str:
        return "(" + ",".join(str(c) for c in a) + ")"

    def __eq__(self, other):
        return (
            isinstance(other, ExtField)
            and (other.p, other.n, other.modulus) == (self.p, self.n, self.modulus)
        )

    def __hash__(self):
        return hash(("ExtField", self.p, self.n, self.modulus))

    def __repr__(self):
        return f"F_{self.p}^{self.n}"


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

    def is_zero(self) -> bool:
        return self.val == self.field.zero()

    def __repr__(self):
        return self.field.element_repr(self.val)
