"""Weierstrass models: invariants, admissible changes of variable,
reduction mod p, reduction-type classification, brute-force point
counting over a model's own field, and the group structure of the
rational points over F_{p^n}.

Models live either over Q (exact Fraction coefficients) or over a finite
field (FieldElement coefficients).  No minimal-model search happens
anywhere: the classifier sees exactly the model it is given, and callers
supply p-integral equations.  The reduction type comes from the
discriminant, c4 and a square test of -c6, with no point scan at odd p;
over F_p these invariants are read as ints from the raw coefficients.
At p >= 5, a curve whose j is a class-number-one CM j mod p gets a_p
from the norm equation: Cornacchia's algorithm gives Frobenius up to a
unit, and a residue symbol picks the unit, with no scalar multiplication
and no ties.  Any other j gets a_p from Shanks-Mestre baby-step
giant-step above p = 229 and from a brute-force count below it.  The
brute-force counter is the oracle for both fast paths; baby-step
giant-step and the point step of tests/cm_oracle.py are oracles for the
CM one.  All derived counts go through the trace recurrence, from a
LocalData record.  Brute-force counts and the drawn points share only
the fibre equation y^2 + b*y = c at each x: the count tests it by
Euler's criterion (the absolute trace in char 2), the points take a
root, so the count is an independent oracle of the points.  A count
enumerates range(order), so it runs over F_p and F_{p^n} alike; the CLI
counts over F_p only, and counts over F_{p^n} are test work.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from enum import Enum
from fractions import Fraction
from math import gcd, isqrt
from itertools import chain, islice

from ._factor import factorize
from ._frozen import Frozen
from ._limits import AP_GUARD
from .ck_k0 import AbelianGroupInv
from .ffield import EXT_FIELD_GUARD, FieldElement, PrimeField, finite_field, is_square

__all__ = [
    "WeierstrassModel",
    "AdmissibleTransform",
    "ReductionKind",
    "ReductionType",
    "invariants",
    "WInvariants",
    "j_invariant",
    "transform",
    "reduce_mod_p",
    "ReductionError",
    "NotIntegralError",
    "classify_reduction",
    "count_points",
    "count_nonsingular",
    "trace_of_frobenius",
    "point_counts_via_recurrence",
    "LocalData",
    "local_data",
    "group_structure",
    "isomorphic_over_closure",
    "AP_GUARD",
    "COUNT_GUARD",
    "CM_J_INVARIANTS",
    "CM_MODELS",
]

# measured worst cases at each edge, one core of a 2-vCPU VM, Python 3.11;
# AP_GUARD, the largest p of a_p, is in _limits
# brute-force count over the model's own field, whose order it bounds:
# 2.7-3.6 s in process at p = 999983, 2.5-2.9 s for a whole `curve` there
# (the oracle; the CLI counts over F_p only, for a_p at p <= MESTRE_BOUND
# when the CM path does not apply, and once at a bad prime in `curve`).
# The tests count over F_{p^n} on the table fields of tests/field_oracle.py:
# at 997^2, 0.85 s to build the field and 1.7 s to count
COUNT_GUARD = 10**6
# Mestre: for p > 229, E or its quadratic twist has a point whose order
# has a single multiple in the Hasse interval (Schoof, JTNB 7 (1995),
# section 3), so baby-step giant-step always ends with one #E; below it
# a_p comes from count_points, at most 229 steps.  Either one runs only
# for a j that is no CM j mod p
MESTRE_BOUND = 229

# the thirteen class-number-one CM orders: discriminant D -> (j, d_K), with
# d_K the fundamental discriminant of the CM field and D = f^2 d_K
_CM_ORDERS = {
    -3: (0, -3),
    -4: (1728, -4),
    -7: (-3375, -7),
    -8: (8000, -8),
    -11: (-32768, -11),
    -12: (54000, -3),
    -16: (287496, -4),
    -19: (-884736, -19),
    -27: (-12288000, -3),
    -28: (16581375, -7),
    -43: (-884736000, -43),
    -67: (-147197952000, -67),
    -163: (-262537412640768000, -163),
}
# j-invariants of the class-number-one CM orders, keyed by discriminant
CM_J_INVARIANTS = {d: j for d, (j, _) in _CM_ORDERS.items()}
# one integral model over Q per order, keyed by discriminant: the curves
# of the built-in catalog, and the reference models of _cm_trace's signs
CM_MODELS = {
    -3: (0, 0, 0, 0, 1),
    -4: (0, 0, 0, -1, 0),
    -7: (1, -1, 0, -2, -1),
    -8: (0, 4, 0, 2, 0),
    -11: (0, -1, 1, -7, 10),
    -12: (0, 0, 0, -15, 22),
    -16: (0, 0, 0, -11, -14),
    -19: (0, 0, 1, -38, 90),
    -27: (0, 0, 1, -30, 63),
    -28: (1, -1, 0, -37, -78),
    -43: (0, 0, 1, -860, 9707),
    -67: (0, 0, 1, -7370, 243528),
    -163: (0, 0, 1, -2174420, 1234136692),
}


# the whitespace that JSON allows around a value
_JSON_SPACE = " \t\n\r"


def _plain_coefficients(text: str) -> list | None:
    """The five Fractions of text when it is a list of five ints or "n/d"
    of ints, each written as str writes ints, with d > 0 and only JSON
    whitespace around the brackets, commas and entries; None otherwise.
    A list of ints is also JSON, and json.loads reads the same values."""
    body = text.strip(_JSON_SPACE)
    if body[:1] != "[" or body[-1:] != "]" or len(tokens := body[1:-1].split(",")) != 5:
        return None
    coefficients = []
    for token in tokens:
        num, slash, den = token.strip(_JSON_SPACE).partition("/")
        try:
            n, d = int(num), int(den) if slash else 1
        except ValueError:
            return None
        if str(n) != num or (slash and (str(d) != den or d < 1)):
            return None
        coefficients.append(Fraction(n, d))
    return coefficients


class ReductionError(ValueError):
    """Raised when a model has no reduction at p: p is not prime, the
    model is not over Q, or a coefficient is not p-integral."""


class NotIntegralError(ReductionError):
    """A coefficient is not p-integral: a change of coordinates can clear it."""


class WeierstrassModel(Frozen):
    """y^2 + a1*xy + a3*y = x^3 + a2*x^2 + a4*x + a6.

    ``field`` is None for a model over Q (Fraction coefficients) or a
    field descriptor (FieldElement coefficients).
    """

    __slots__ = ("a1", "a2", "a3", "a4", "a6", "field")
    _optional = ("field",)
    a1: object
    a2: object
    a3: object
    a4: object
    a6: object
    field: object

    @classmethod
    def over_q(cls, a1, a2, a3, a4, a6) -> "WeierstrassModel":
        return cls(*(Fraction(a) for a in (a1, a2, a3, a4, a6)))

    @classmethod
    def over_field(cls, field, a1, a2, a3, a4, a6) -> "WeierstrassModel":
        coeffs = [
            a if isinstance(a, FieldElement) else FieldElement.of(field, a)
            for a in (a1, a2, a3, a4, a6)
        ]
        return cls(*coeffs, field)

    @classmethod
    def parse(cls, text: str) -> "WeierstrassModel":
        """Parse the CLI form "[a1,a2,a3,a4,a6]" with rationals as "n/d".
        Plain entries are read directly (_plain_coefficients); any other
        text goes through json.loads and, where that fails, through
        Fraction on each comma-separated entry."""
        coefficients = _plain_coefficients(text)
        if coefficients is not None:
            return cls(*coefficients)
        import json

        try:
            data = json.loads(text)
        except json.JSONDecodeError:
            inner = text.strip()
            if not (inner.startswith("[") and inner.endswith("]")):
                raise ValueError(f"cannot parse model {text!r}") from None
            data = [tok.strip() for tok in inner[1:-1].split(",")]
        if not isinstance(data, list) or len(data) != 5:
            raise ValueError(f"model must have 5 coefficients, got {text!r}")
        try:
            return cls.over_q(*(Fraction(str(a)) for a in data))
        except (ValueError, ZeroDivisionError) as e:
            raise ValueError(f"cannot parse model {text!r}: {e}") from None

    @property
    def coefficients(self) -> tuple:
        return (self.a1, self.a2, self.a3, self.a4, self.a6)

    def coefficient_strings(self) -> list:
        return [str(a) for a in self.coefficients]

    def __str__(self) -> str:
        return "[" + ",".join(self.coefficient_strings()) + "]"


class WInvariants(Frozen):
    __slots__ = ("b2", "b4", "b6", "b8", "c4", "c6", "disc")
    b2: object
    b4: object
    b6: object
    b8: object
    c4: object
    c6: object
    disc: object


def _invariant_polys(a1, a2, a3, a4, a6) -> tuple:
    """(b2, b4, b6, b8, c4, c6, disc) as polynomials in the coefficients,
    evaluated in whatever ring they live in."""
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    c4 = b2 * b2 - 24 * b4
    c6 = -b2 * b2 * b2 + 36 * b2 * b4 - 216 * b6
    disc = -b2 * b2 * b8 - 8 * b4 * b4 * b4 - 27 * b6 * b6 + 9 * b2 * b4 * b6
    return b2, b4, b6, b8, c4, c6, disc


def invariants(e: WeierstrassModel) -> WInvariants:
    """Standard quantities b2, b4, b6, b8, c4, c6 and the discriminant."""
    inv = WInvariants(*_invariant_polys(*e.coefficients))
    if 4 * inv.b8 != inv.b2 * inv.b6 - inv.b4 * inv.b4:
        raise RuntimeError(f"b8 consistency identity 4*b8 = b2*b6 - b4^2 fails for the model {e}")
    return inv


def _invariants_mod_p(e: WeierstrassModel) -> tuple:
    """(c4, c6, disc) of a model over F_p as ints in [0, p): the invariant
    polynomials over Z at the raw coefficients, reduced once."""
    p = e.field.p
    _, _, _, _, c4, c6, disc = _invariant_polys(*_raw_consts(e))
    return c4 % p, c6 % p, disc % p


def j_invariant(e: WeierstrassModel):
    """j = c4^3 / disc; defined only for nonsingular models."""
    inv = invariants(e)
    if inv.disc == 0:
        raise ValueError("singular model")
    return inv.c4 * inv.c4 * inv.c4 / inv.disc


def is_singular(e: WeierstrassModel) -> bool:
    return invariants(e).disc == 0


class AdmissibleTransform(Frozen):
    """x = u^2 x' + r,  y = u^3 y' + s u^2 x' + t,  with u invertible."""

    __slots__ = ("u", "r", "s", "t")
    u: object
    r: object
    s: object
    t: object

    def __init__(self, u, r, s, t):
        if u == 0:
            raise ValueError("u must be nonzero")
        super().__init__(u, r, s, t)

    @classmethod
    def over_q(cls, u, r=0, s=0, t=0) -> "AdmissibleTransform":
        return cls(Fraction(u), Fraction(r), Fraction(s), Fraction(t))


def transform(e: WeierstrassModel, tr: AdmissibleTransform) -> WeierstrassModel:
    """Apply an admissible change of variable; disc scales by u^-12, c4 by
    u^-4, and j is unchanged."""
    a1, a2, a3, a4, a6 = e.coefficients
    u, r, s, t = tr.u, tr.r, tr.s, tr.t
    u2 = u * u
    u3 = u2 * u
    na1 = (a1 + 2 * s) / u
    na2 = (a2 - s * a1 + 3 * r - s * s) / u2
    na3 = (a3 + r * a1 + 2 * t) / u3
    na4 = (a4 - s * a3 + 2 * r * a2 - (t + r * s) * a1 + 3 * r * r - 2 * s * t) / (u2 * u2)
    na6 = (a6 + r * a4 + r * r * a2 + r * r * r - t * a3 - t * t - r * t * a1) / (u3 * u3)
    return WeierstrassModel(na1, na2, na3, na4, na6, field=e.field)


def reduce_mod_p(e: WeierstrassModel, p: int) -> WeierstrassModel:
    """Coefficientwise reduction of a p-integral model over Q."""
    if e.field is not None:
        raise ReductionError("model is not over Q")
    try:
        fp = PrimeField(p)
    except ValueError as err:
        raise ReductionError(str(err)) from None
    vals = []
    for a in e.coefficients:
        if a.denominator == 1:
            vals.append(a.numerator % p)
        elif a.denominator % p == 0:
            raise NotIntegralError(f"model not p-integral at p={p} (coefficient {a})")
        else:
            vals.append(a.numerator * fp.inv(a.denominator % p) % p)
    return WeierstrassModel.over_field(fp, *vals)


# ---------------------------------------------------------------------------
# reduction types
# ---------------------------------------------------------------------------


class ReductionKind(Enum):
    GOOD = "good"
    SPLIT_MULTIPLICATIVE = "split_multiplicative"
    NONSPLIT_MULTIPLICATIVE = "nonsplit_multiplicative"
    ADDITIVE = "additive"


class ReductionType(Frozen):
    __slots__ = ("kind", "alpha")
    _optional = ("alpha",)
    kind: ReductionKind
    alpha: int | None

    @property
    def is_good(self) -> bool:
        return self.kind is ReductionKind.GOOD

    def __str__(self) -> str:
        if self.is_good:
            return "good"
        return f"{self.kind.value} (alpha={self.alpha})"


def classify_reduction(e: WeierstrassModel) -> ReductionType:
    """Reduction type of a model over F_p, from its invariants alone
    (Silverman, GTM 106, Prop. III.1.4; Cremona, Algorithms for Modular
    Elliptic Curves, 3.2).

    Good when the discriminant is nonzero, additive (a cusp, alpha = 0)
    when c4 = 0 as well, and multiplicative (a node) otherwise: split,
    alpha = 1, when -c6 is a square mod p and non-split, alpha = -1, when
    it is not.  At p = 2, where every element is a square, alpha comes
    from #E_ns(F_2) = 2 - alpha, a count over the two fibres.
    """
    if not isinstance(e.field, PrimeField):
        raise ValueError("classification needs a model over F_p")
    c4, c6, disc = _invariants_mod_p(e)
    if disc:
        return ReductionType(ReductionKind.GOOD)
    if not c4:
        return ReductionType(ReductionKind.ADDITIVE, 0)
    if e.field.p == 2:
        # the affine points but the singular one, plus infinity
        alpha = 2 - _affine_count(e)
        if alpha not in (1, -1):
            raise RuntimeError(f"a node of {e} over F_2 gives alpha={alpha}, not +-1")
    else:
        alpha = 1 if is_square(e.field, -c6 % e.field.p) else -1
    kind = ReductionKind.SPLIT_MULTIPLICATIVE if alpha == 1 else ReductionKind.NONSPLIT_MULTIPLICATIVE
    return ReductionType(kind, alpha)


# ---------------------------------------------------------------------------
# point counting
# ---------------------------------------------------------------------------

def _fibres(f, consts: tuple, xs: Iterable | None = None) -> Iterator:
    """(x, b, c) for each x of xs (all of the field f by default), raw
    values, where the equation with raw coefficients consts over f reads
    y^2 + b*y = c at x."""
    a1, a2, a3, a4, a6 = consts
    mul, add = f.mul, f.add
    for x in range(f.order) if xs is None else xs:
        yield x, add(mul(a1, x), a3), add(mul(add(mul(add(x, a2), x), a4), x), a6)


def _absolute_trace(f, a) -> int:
    """Tr(a) = a + a^2 + a^4 + ... + a^(2^(n-1)) of a in F_{2^n}, which
    lies in F_2 = {0, 1}."""
    total = a
    for _ in range(f.degree - 1):
        a = f.mul(a, a)
        total = f.add(total, a)
    return total


def _affine_count(e: WeierstrassModel) -> int:
    """Number of affine solutions of the Weierstrass equation over the
    model's field, by enumerating range(order)."""
    f = e.field
    if f.order > COUNT_GUARD:
        raise ValueError("guard exceeded: p^n > 10^6")
    mul = f.mul
    fibres = _fibres(f, _raw_consts(e))
    if f.char == 2:
        # y^2 + b y = c has one root when b = 0, else two iff
        # Tr(c / b^2) = 0 after the substitution y = b z
        return sum(
            1 if b == 0 else 2 * (_absolute_trace(f, mul(c, f.inv(mul(b, b)))) == 0)
            for _, b, c in fibres
        )
    four = f.from_int(4)
    total = 0
    for _, b, c in fibres:
        disc = f.add(mul(b, b), mul(four, c))
        if disc == 0:
            total += 1
        elif is_square(f, disc):
            total += 2
    return total


def count_points(e: WeierstrassModel) -> int:
    """#E over the model's field, including the point at infinity, by
    brute force.

    The oracle for the CM and baby-step giant-step a_p; trace_of_frobenius
    counts this way only at p <= MESTRE_BOUND for a j that is no CM j
    mod p, and always at p = 2, 3.
    """
    if is_singular(e):
        raise ValueError("singular model (use count_nonsingular)")
    return _affine_count(e) + 1


def count_nonsingular(e: WeierstrassModel) -> int:
    """Number of nonsingular points over the model's field, including
    infinity.

    A Weierstrass cubic is irreducible, so a singular model has exactly
    one singular point, and it is rational over the prime field.
    """
    return _affine_count(e) - int(is_singular(e)) + 1


def trace_of_frobenius(e: WeierstrassModel) -> int:
    """a_p = p + 1 - #E(F_p); the Hasse bound is checked.

    At p >= 5 a j-invariant that is a class-number-one CM j mod p gives
    a_p from the norm equation and a residue symbol (_cm_trace), with no
    scalar multiplication.  Any other j gets a_p from baby-step
    giant-step for p > MESTRE_BOUND and from a brute-force count below.
    """
    p = e.field.p
    if p > AP_GUARD:
        raise ValueError("guard exceeded: p > 10^12")
    ap = _cm_trace(e) if p >= 5 else None
    if ap is None:
        ap = p + 1 - (count_points(e) if p <= MESTRE_BOUND else _order_by_bsgs(e))
    if ap * ap > 4 * p:
        raise RuntimeError(f"count bug: |a_p|={abs(ap)} violates the Hasse bound at p={p}")
    return ap


def point_counts_via_recurrence(ap: int, p: int, n_max: int) -> list:
    """[N_1, ..., N_n] from s_0=2, s_1=a_p, s_{k+1} = a_p s_k - p s_{k-1},
    N_k = p^k + 1 - s_k."""
    if ap * ap > 4 * p:
        raise ValueError("a_p violates the Hasse bound")
    out = []
    s_prev, s_cur = 2, ap
    for k in range(1, n_max + 1):
        out.append(p**k + 1 - s_cur)
        s_prev, s_cur = s_cur, ap * s_cur - p * s_prev
    return out


class LocalData(Frozen):
    """A rational model at one prime: its reduction, the reduction type
    and, at a good prime only, a_p; built by local_data."""

    __slots__ = ("reduced", "reduction", "a_p")
    _optional = ("a_p",)
    reduced: WeierstrassModel
    reduction: ReductionType
    a_p: int | None

    @property
    def p(self) -> int:
        return self.reduced.field.p

    def point_counts(self, n_max: int) -> list:
        """[N_1, ..., N_n_max]: #E(F_{p^n}) by the trace recurrence at a
        good prime, #E_ns(F_{p^n}) = p^n - alpha^n at a bad one."""
        if self.reduction.is_good:
            return point_counts_via_recurrence(self.a_p, self.p, n_max)
        return [self.p**n - self.reduction.alpha**n for n in range(1, n_max + 1)]

    def groups(self, n_max: int) -> list:
        """[E(F_p), ..., E(F_{p^n_max})] as AbelianGroupInv at a good prime,
        None past EXT_FIELD_GUARD (n > 1) and at every level of a bad one."""
        if not self.reduction.is_good:
            return [None] * n_max
        counts = self.point_counts(n_max)
        return [
            group_structure(self.reduced, n, counts[n - 1]) if n == 1 or self.p**n <= EXT_FIELD_GUARD else None
            for n in range(1, n_max + 1)
        ]


def local_data(e: WeierstrassModel, p: int) -> LocalData:
    """Reduce a model over Q at p, classify the reduction and, at a good
    prime, compute a_p: the one local pass that localize, theorem1_check,
    the zeta factors, the Dirichlet coefficients and the CLI share."""
    red = reduce_mod_p(e, p)
    rt = classify_reduction(red)
    return LocalData(red, rt, trace_of_frobenius(red) if rt.is_good else None)


# ---------------------------------------------------------------------------
# the group of points
# ---------------------------------------------------------------------------


# raw group-law core: points are None or (x, y) in the field's native
# representation; group_structure and the baby-step giant-step a_p use it.
# Every function takes the field and the raw coefficients apart: those of
# a model over F_p are its elements 0..p-1, which are the prime subfield
# of F_{p^n} too, so group_structure changes level on the field alone and
# builds no second model.  Inverses and square roots are the field's, from
# the one extended Euclid and the one Tonelli-Shanks of ffield.


def _raw_consts(e: WeierstrassModel) -> tuple:
    return tuple(a.val for a in e.coefficients)


def _raw_neg(f, consts, pt):
    if pt is None:
        return None
    a1, _, a3, _, _ = consts
    x, y = pt
    return (x, f.sub(f.neg(y), f.add(f.mul(a1, x), a3)))


def _raw_add(f, consts, pt1, pt2):
    """The chord-and-tangent sum (Silverman, GTM 106, III.2.3), with
    y3 = lam (x1 - x3) - y1 - a1 x3 - a3."""
    if pt1 is None:
        return pt2
    if pt2 is None:
        return pt1
    a1, a2, a3, a4, _ = consts
    add, sub, mul = f.add, f.sub, f.mul
    x1, y1 = pt1
    x2, y2 = pt2
    if x1 == x2:
        # y1 + y2 + a1 x1 + a3 is 0 for opposite points, else y2 = y1 and
        # it is the tangent's denominator
        denom = add(add(y1, y2), add(mul(a1, x1), a3))
        if not denom:
            return None
        # 3 x1^2 + 2 a2 x1 + a4 - a1 y1
        num = sub(add(mul(x1, add(add(add(x1, x1), x1), add(a2, a2))), a4), mul(a1, y1))
        lam = mul(num, f.inv(denom))
    else:
        lam = mul(sub(y2, y1), f.inv(sub(x2, x1)))
    x3 = sub(sub(mul(lam, add(lam, a1)), a2), add(x1, x2))
    return (x3, sub(sub(mul(lam, sub(x1, x3)), y1), add(mul(a1, x3), a3)))


def _raw_mul(f, consts, pt, k: int):
    if k < 0:
        return _raw_mul(f, consts, _raw_neg(f, consts, pt), -k)
    acc = None
    base = pt
    while k:
        if k & 1:
            acc = _raw_add(f, consts, acc, base)
        k >>= 1
        if k:
            base = _raw_add(f, consts, base, base)
    return acc


def _fibre_root(f):
    """A function (b, c) -> one root y of y^2 + b*y = c in f, or None."""
    mul, add = f.mul, f.add
    if f.char != 2:
        inv2, four = f.inv(f.from_int(2)), f.from_int(4)

        def root(b, c):
            r = f.sqrt(add(mul(b, b), mul(four, c)))
            return None if r is None else mul(f.sub(r, b), inv2)

        return root
    # y = b z turns y^2 + b y = c into z^2 + z = c / b^2, and z -> z^2 + z
    # is F_2-linear; on base-2 digit ints addition is xor.  Images of the
    # basis 2^i in echelon form, keyed by leading bit: (image, preimage).
    pivots: dict = {}
    for i in range(f.degree):
        img, pre = add(mul(1 << i, 1 << i), 1 << i), 1 << i
        while img and img.bit_length() in pivots:
            top_img, top_pre = pivots[img.bit_length()]
            img, pre = img ^ top_img, pre ^ top_pre
        if img:
            pivots[img.bit_length()] = (img, pre)

    def root(b, c):
        if not b:
            # y^2 = c: the Frobenius is bijective
            return f.sqrt(c)
        t, z = mul(c, f.inv(mul(b, b))), 0
        while t:
            if t.bit_length() not in pivots:
                return None
            img, pre = pivots[t.bit_length()]
            t, z = t ^ img, z ^ pre
        return mul(b, z)

    return root


def _points(f, consts: tuple) -> Iterator:
    """One affine point (x, y) per x with a root, raw values, of the curve
    with raw coefficients consts over the field f, in a fixed order of x:
    0, 1, 2, ... over F_p, and from x = p on over F_{p^n}, n > 1, where an
    x in F_p gives a point of E(F_p) or of its twist."""
    start = f.char if f.degree > 1 else 0
    root = _fibre_root(f)
    for x, b, c in _fibres(f, consts, chain(range(start, f.order), range(start))):
        y = root(b, c)
        if y is not None:
            yield (x, y)


def _sylow_small_exponent(f, consts: tuple, ell: int, e: int, elements: Iterator) -> int:
    """a for the ell-Sylow subgroup S = Z/ell^a x Z/ell^b (a <= b,
    |S| = ell^e) of a group of rank <= 2, from elements that generate S.

    g is an element of the largest order ell^b seen so far.  For each
    other element h, ell^k is the order of h modulo <g>, by Pohlig-Hellman
    discrete logs in <g>; <g, h> has order ell^(b+k) and exponent ell^b,
    so once b + k = e it is all of S and a = k.  When g is replaced, the
    elements seen before are tested again, so any generating sequence
    ends the loop.
    """

    def mul(pt, k):
        return _raw_mul(f, consts, pt, k)

    def order_exp(pt) -> int:
        c = 0
        while pt is not None:
            pt, c = mul(pt, ell), c + 1
            if c > e:
                raise RuntimeError(f"a point of the {ell}-Sylow subgroup has order past {ell}^{e}")
        return c

    # gamma = ell^(b-1) g has order ell
    g, b, gamma = None, 0, None

    def log_gamma(h) -> int | None:
        """d in [0, ell) with d * gamma = h, or None."""
        return next(_bsgs(f, consts, gamma, h, ell - 1), None)

    def in_g(h, r: int) -> bool:
        """Whether h, of order ell^r <= ell^b, lies in <g>: digit by digit
        of h = x * G with G = ell^(b-r) g of order ell^r."""
        big_g = mul(g, ell ** (b - r))
        x = 0
        for i in range(r):
            d = log_gamma(mul(_raw_add(f, consts, h, mul(big_g, -x)), ell ** (r - 1 - i)))
            if d is None:
                return False
            x += d * ell**i
        return True

    def complement_exp(h, c: int) -> int:
        """k with ell^k the order of h (of order ell^c) modulo <g>."""
        top = min(c, e - b)
        for k in range(top):
            if in_g(h, c - k):
                return k
            h = mul(h, ell)
        return top

    seen = []
    for h in elements:
        c = order_exp(h)
        if c <= b:
            seen.append((h, c))
            if b + complement_exp(h, c) == e:
                return e - b
            continue
        if g is not None:
            seen.append((g, b))
        g, b = h, c
        if b == e:
            return 0
        gamma = mul(g, ell ** (b - 1))
        for old, c_old in seen:
            if b + complement_exp(old, c_old) == e:
                return e - b
    raise RuntimeError(f"the points drawn do not generate the {ell}-Sylow subgroup")


def group_structure(e: WeierstrassModel, n: int = 1, order: int | None = None) -> AbelianGroupInv:
    """E(F_q), q = p^n, as Z/d1 x Z/d2 with d1 | d2, from a few points.

    N = #E(F_q) is ``order`` when given (LocalData.point_counts), else it
    comes from the trace recurrence; no point is counted.  The ell-Sylow
    subgroup is Z/ell^a x Z/ell^b with a <= b, and ell^a | q - 1 by the
    Weil pairing, so a > 0 only for primes with ell^2 | N and ell | q-1.
    For each of those, a comes from the ell-parts [N/ell^v]P of points
    drawn in a fixed order of x (_sylow_small_exponent; Sutherland, Order
    Computations in Generic Groups, MIT thesis 2007, ch. 7), and d1 is
    the product of the ell^a.  The first point drawn must be killed by N.
    """
    if is_singular(e):
        raise ValueError("singular model")
    p = e.field.p
    q = p**n
    if order is None:
        order = point_counts_via_recurrence(trace_of_frobenius(e), p, n)[-1]
    if order == 1:
        return AbelianGroupInv((1, 1))
    field = e.field if n == 1 else finite_field(p, n)
    consts = _raw_consts(e)
    first = next(_points(field, consts), None)
    if first is None or _raw_mul(field, consts, first, order) is not None:
        raise RuntimeError(f"{order} is not #E(F_{p}^{n}) for {e}: it does not kill the point {first}")
    d1 = 1
    for ell, v in sorted(factorize(order).items()):
        if v >= 2 and (q - 1) % ell == 0:
            cofactor = order // ell**v
            parts = (_raw_mul(field, consts, pt, cofactor) for pt in _points(field, consts))
            d1 *= ell ** _sylow_small_exponent(field, consts, ell, v, parts)
    d2 = order // d1
    if d1 * d2 != order or d2 % d1 or (q - 1) % d1:
        raise RuntimeError(
            f"group of {e} over F_{p}^{n}: Z/{d1} x Z/{d2} breaks d1 d2 = N = {order}, d1 | d2 or d1 | q-1"
        )
    return AbelianGroupInv((d1, d2))


# ---------------------------------------------------------------------------
# a_p of CM curves from the norm equation and residue symbols
# ---------------------------------------------------------------------------


def _cornacchia(field: PrimeField, d: int) -> tuple:
    """(t, w), t, w >= 0, with t^2 + |d| w^2 = 4p for a discriminant d < 0
    in which the odd prime p splits into principal ideals (Cohen, GTM 138,
    Alg. 1.5.3): Euclid on (2p, sqrt(d) mod p) stops below 2 sqrt(p)."""
    p = field.p
    x = field.sqrt(d)
    if x is None:
        raise ValueError(f"{d} is not a square mod {p}")
    if (x - d) % 2:
        x = p - x
    a, b, bound = 2 * p, x, isqrt(4 * p)
    while b > bound:
        a, b = b, a % b
    w2, rest = divmod(4 * p - b * b, -d)
    w = isqrt(w2)
    if rest or w * w != w2:
        raise RuntimeError(f"no solution of t^2 + {-d} w^2 = 4*{p}, though {p} splits")
    return b, w


# (c4, c6) of each model of CM_MODELS, the reference for the sign of a_p;
# each model is bad only at 2, 3 and the primes of d_K, where _cm_trace
# never reads its invariants, so c4_ref c6_ref is a unit wherever it does
_CM_REFERENCE = {d: _invariant_polys(*model)[4:6] for d, model in CM_MODELS.items()}


def _cm_trace(e: WeierstrassModel) -> int | None:
    """a_p of a nonsingular model over F_p, p >= 5, whose j is a
    class-number-one CM j mod p, or None when it is not one.

    By Deuring's reduction theorem a curve with such a j is supersingular,
    so a_p = 0, when p does not split in the CM field K; otherwise
    Frobenius is an element pi of norm p in the order O_D, whether or not
    the curve came from one with CM over Q, and a residue symbol picks its
    unit (Ireland-Rosen, GTM 84, ch. 18; Rubin-Silverberg, Math. Comp. 79
    (2010) 545-561).  On y^2 = x^3 - 27 c4 x - 54 c6, isomorphic to the
    model:
    - j = 1728: pi = a + bi primary (b even, a + b = 1 mod 4), and
      a_p = 2 Re(chi conj(pi)) for the quartic symbol chi = (27 c4 / pi)_4,
      read with i = -a/b mod pi;
    - j = 0: pi = a + b omega = 2 mod 3, and a_p = -Tr(chi conj(pi)) for
      the sextic symbol chi = (-216 c6 / pi)_6, read with omega = -a/b;
    - any other j: t^2 + |D| w^2 = 4p in the order itself, and a_p = +-t:
      the sign on CM_MODELS[D] (_reference_sign) times the quadratic
      character of the twist c6 c4_ref / (c4 c6_ref) from that model to
      this one.
    No point is drawn, so no candidates tie.
    """
    field = e.field
    p = field.p
    c4, c6, disc = _invariants_mod_p(e)
    if not disc:
        raise ValueError("singular model (use count_nonsingular)")
    j = c4 * c4 * c4 * pow(disc, -1, p) % p
    # two CM j's that meet mod p with different fields leave p split in
    # neither (an ordinary curve has one CM field), so any match serves;
    # the fundamental orders come first, and j = 0, 1728 take their rules
    d = next((d for d, (j0, _) in _CM_ORDERS.items() if j0 % p == j), None)
    if d is None:
        return None
    d_k = _CM_ORDERS[d][1]
    if pow(d_k, (p - 1) // 2, p) != 1:
        return 0
    t, w = _cornacchia(field, d)
    if d == -4:
        a, b = (t // 2, w) if w % 2 == 0 else (w, t // 2)
        if (a + b) % 4 != 1:
            a, b = -a, -b
        # 2 Re(chi conj(pi)) for chi = 1, i
        return _unit_trace(e, pow(27 * c4, (p - 1) // 4, p), (1, -a * pow(b, -1, p) % p), (2 * a, 2 * b))
    if d == -3:
        a, b = (t + w) // 2, w
        # the associates a + b omega, omega (a + b omega), omega^2 (a + b omega)
        while b % 3:
            a, b = -b, a - b
        if a % 3 != 2:
            a, b = -a, -b
        omega = -a * pow(b, -1, p) % p
        # -Tr(chi conj(pi)) for chi = 1, omega, omega^2
        units = (1, omega, omega * omega % p)
        return _unit_trace(e, pow(-216 * c6, (p - 1) // 6, p), units, (b - 2 * a, a - 2 * b, a + b))
    c4_ref, c6_ref = _CM_REFERENCE[d]
    twist = pow(c4 * c6 * c4_ref * c6_ref, (p - 1) // 2, p)
    return _reference_sign(d, t, w) * (t if twist == 1 else -t)


def _unit_trace(e: WeierstrassModel, symbol: int, units: tuple, traces: tuple) -> int:
    """The trace that goes with the residue symbol: traces[k] when it is
    units[k] mod p, and -traces[k] when it is -units[k]."""
    p = e.field.p
    for unit, trace in zip(units, traces):
        if symbol == unit:
            return trace
        if symbol == p - unit:
            return -trace
    raise RuntimeError(f"the residue symbol {symbol} of {e} over F_{p} is no root of unity of order {2 * len(units)}")


def _reference_sign(d: int, t: int, w: int) -> int:
    """The sign of a_p = +-t on CM_MODELS[d], d != -3, -4, at a prime p
    with t^2 + |d| w^2 = 4p, t, w >= 0, from the residues of t and w."""
    if d == -8:
        # t/2 = 1, 3 mod 8 agrees with 4 | w
        return 1 if (t // 2 % 8 in (1, 3)) == (w % 4 == 0) else -1
    if d == -16:
        return -1 if ((t // 2 - 1) // 2 + w) % 2 else 1
    q = -_CM_ORDERS[d][1]
    # the Legendre symbol (t / |d_K|), and -1 on all but two models
    legendre = 1 if pow(t, (q - 1) // 2, q) == 1 else -1
    return legendre if d in (-7, -28) else -legendre


# ---------------------------------------------------------------------------
# a_p by baby-step giant-step
# ---------------------------------------------------------------------------


def _bsgs(f, consts: tuple, stride, target, span: int) -> Iterator[int]:
    """Each j in [0, span] with j * stride = target, in increasing order,
    by Shanks's baby-step giant-step: baby steps i * stride for i < w,
    w = isqrt(span) + 1, and giant steps of -w * stride from target.
    When stride has order i < w, the solutions are j0 + i*k."""
    w = isqrt(span) + 1
    baby = {None: 0}
    cur = None
    for i in range(1, w):
        cur = _raw_add(f, consts, cur, stride)
        if cur is None:
            if target in baby:
                yield from range(baby[target], span + 1, i)
            return
        baby[cur] = i
    giant = _raw_neg(f, consts, _raw_mul(f, consts, stride, w))
    probe = target
    for k in range(span // w + 1):
        i = baby.get(probe)
        if i is not None and k * w + i <= span:
            yield k * w + i
        probe = _raw_add(f, consts, probe, giant)


def _killing_multiples(field: PrimeField, consts: tuple, pt, step: int, lo: int, hi: int) -> list:
    """The first two multiples m of ``step`` in [lo, hi] with [m]pt = O:
    m = m0 + step*j for the first two solutions j of j * [step]pt = -[m0]pt."""
    m0 = -(-lo // step) * step
    span = (hi - m0) // step
    if span < 0:
        return []
    stride = _raw_mul(field, consts, pt, step)
    target = _raw_neg(field, consts, _raw_mul(field, consts, pt, m0))
    return [m0 + step * j for j in islice(_bsgs(field, consts, stride, target, span), 2)]


def _order_by_bsgs(e: WeierstrassModel) -> int:
    """#E(F_p) for p > MESTRE_BOUND by Shanks-Mestre baby-step giant-step
    (Cohen, GTM 138, Alg. 7.4.12).

    On the short model y^2 = x^3 + Ax + B with A = -27c4, B = -54c6, each
    x0 with r = f(x0) != 0 gives the point (r*x0, r^2) on
    y^2 = x^3 + A r^2 x + B r^3, which is E when r is a square and the
    quadratic twist E' when it is not.  Each point narrows the multiples
    its order has in the Hasse interval; the lcm of point orders is kept
    for E and E' separately, and the scan stops when a single N with
    L_E | N and L_E' | 2p + 2 - N is left.  x0 runs 0, 1, 2, ... so the
    result is deterministic.
    """
    field = e.field
    p = field.p
    c4, c6, disc = _invariants_mod_p(e)
    if not disc:
        raise ValueError("singular model (use count_nonsingular)")
    a, b = -27 * c4 % p, -54 * c6 % p
    width = isqrt(4 * p)
    lo, hi = p + 1 - width, p + 1 + width
    lcm_e, lcm_twist = 1, 1
    half = (p - 1) // 2
    for x0 in range(p):
        r = (x0 * x0 * x0 + a * x0 + b) % p
        if r == 0:
            continue
        r2 = r * r % p
        consts = (0, 0, 0, a * r2 % p, b * r2 * r % p)
        on_e = pow(r, half, p) == 1
        # orders on the twist live in [lo, hi] too: 2p + 2 - [lo, hi] = [lo, hi]
        step = lcm_e if on_e else lcm_twist
        found = _killing_multiples(field, consts, (r * x0 % p, r2), step, lo, hi)
        if not found:
            raise RuntimeError(f"no point order in the Hasse interval at p={p}")
        if len(found) == 1:
            return found[0] if on_e else 2 * p + 2 - found[0]
        # consecutive killing multiples of step differ by lcm(step, ord)
        if on_e:
            lcm_e = found[1] - found[0]
        else:
            lcm_twist = found[1] - found[0]
        n = _single_candidate(p, lcm_e, lcm_twist, lo, hi)
        if n is not None:
            return n
    raise RuntimeError(f"baby-step giant-step left #E ambiguous at p={p}")


def _single_candidate(p: int, lcm_e: int, lcm_twist: int, lo: int, hi: int) -> int | None:
    """The N in [lo, hi] with lcm_e | N and lcm_twist | 2p + 2 - N, when
    exactly one exists; counted by the Chinese remainder theorem."""
    g = gcd(lcm_e, lcm_twist)
    if (2 * p + 2) % g:
        raise RuntimeError(f"point orders of E and its twist are inconsistent at p={p}")
    modulus = lcm_e // g * lcm_twist
    # N = lcm_e * k with (lcm_e/g) k = (2p+2)/g mod lcm_twist/g
    rest = lcm_twist // g
    k = (2 * p + 2) // g * pow(lcm_e // g, -1, rest) % rest
    first = lo + (lcm_e * k - lo) % modulus
    if first > hi:
        raise RuntimeError(f"no #E in the Hasse interval fits the point orders at p={p}")
    return first if first + modulus > hi else None


# ---------------------------------------------------------------------------
# isomorphism over the algebraic closure
# ---------------------------------------------------------------------------


def isomorphic_over_closure(e1: WeierstrassModel, e2: WeierstrassModel) -> bool:
    """Nonsingular curves over the same F_p are isomorphic over the
    algebraic closure iff their j-invariants agree."""
    if e1.field != e2.field:
        raise ValueError("models live over different fields")
    return j_invariant(e1) == j_invariant(e2)
