"""Weierstrass models: invariants, admissible changes of variable,
reduction mod p, reduction-type classification, point counting over
F_{p^n}, and the group structure of the rational points.

Models live either over Q (exact Fraction coefficients) or over a finite
field (FieldElement coefficients).  No minimal-model search happens
anywhere: the classifier sees exactly the model it is given, and callers
supply p-integral equations.  a_p comes from Shanks-Mestre baby-step
giant-step above p = 229 and from a brute-force count below it; the
brute-force counter stays as the oracle that tests the fast path.  All
derived counts go through the trace recurrence, from a LocalData record.
Brute-force counts, point lists and singular points share one fibre
solver over F_p and F_{p^n}: at each x the equation reads y^2 + b*y = c.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import gcd, isqrt
from typing import Iterator, Optional

from ._factor import factorize
from .ck_k0 import AbelianGroupInv
from .ffield import EXT_FIELD_GUARD, FieldElement, PrimeField, finite_field, is_square

__all__ = [
    "WeierstrassModel",
    "AdmissibleTransform",
    "ReductionKind",
    "ReductionType",
    "UnclassifiableReductionError",
    "invariants",
    "WInvariants",
    "j_invariant",
    "transform",
    "reduce_mod_p",
    "ReductionError",
    "classify_reduction",
    "count_points",
    "count_nonsingular",
    "trace_of_frobenius",
    "point_counts_via_recurrence",
    "LocalData",
    "group_structure",
    "isomorphic_over_closure",
    "isomorphism_witness",
    "model_over_ext",
    "AP_GUARD",
    "COUNT_GUARD",
    "GROUP_GUARD",
    "CLASSIFY_GUARD",
]

# measured worst cases at each edge, one core of a 2-vCPU VM, Python 3.11
AP_GUARD = 10**12  # a_p by baby-step giant-step: 0.04 s per prime just below
# brute-force count over F_p: 37 s at p = 9999991 (the oracle; the CLI
# counts only at p <= MESTRE_BOUND and in the classifier); over F_{p^n},
# n > 1, fields stop at ffield.EXT_FIELD_GUARD = 10^6, 7.1 s at 997^2
COUNT_GUARD = 10**7
GROUP_GUARD = 10**6  # group of E(F_{317^2}): 25 s; of E(F_{997^2}): 375 s, 193 MB
# singular models only (a good prime needs just the discriminant): one
# scan of the fibres, 0.06 s for a node at p = 9973
CLASSIFY_GUARD = 10**4
# Mestre: for p > 229, E or its quadratic twist has a point whose order
# has a single multiple in the Hasse interval (Schoof, JTNB 7 (1995),
# section 3), so baby-step giant-step always ends with one #E; below it
# a_p comes from count_points, at most 229 steps
MESTRE_BOUND = 229


class ReductionError(ValueError):
    """Raised when a model has no reduction at p: p is not prime, the
    model is not over Q, or a coefficient is not p-integral."""


class UnclassifiableReductionError(ValueError):
    """Raised when a singular model defeats the classifier (degenerate
    small-characteristic corner with no unique singular point)."""


@dataclass(frozen=True)
class WeierstrassModel:
    """y^2 + a1*xy + a3*y = x^3 + a2*x^2 + a4*x + a6.

    ``field`` is None for a model over Q (Fraction coefficients) or a
    field descriptor (FieldElement coefficients).
    """

    a1: object
    a2: object
    a3: object
    a4: object
    a6: object
    field: object = None

    @classmethod
    def over_q(cls, a1, a2, a3, a4, a6) -> "WeierstrassModel":
        return cls(*(Fraction(a) for a in (a1, a2, a3, a4, a6)))

    @classmethod
    def over_field(cls, field, a1, a2, a3, a4, a6) -> "WeierstrassModel":
        coeffs = [
            a if isinstance(a, FieldElement) else FieldElement.of(field, a)
            for a in (a1, a2, a3, a4, a6)
        ]
        return cls(*coeffs, field=field)

    @classmethod
    def parse(cls, text: str) -> "WeierstrassModel":
        """Parse the CLI form "[a1,a2,a3,a4,a6]" with rationals as "n/d"."""
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


@dataclass(frozen=True)
class WInvariants:
    b2: object
    b4: object
    b6: object
    b8: object
    c4: object
    c6: object
    disc: object


def invariants(e: WeierstrassModel) -> WInvariants:
    """Standard quantities b2, b4, b6, b8, c4, c6 and the discriminant."""
    a1, a2, a3, a4, a6 = e.coefficients
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    c4 = b2 * b2 - 24 * b4
    c6 = -b2 * b2 * b2 + 36 * b2 * b4 - 216 * b6
    disc = -b2 * b2 * b8 - 8 * b4 * b4 * b4 - 27 * b6 * b6 + 9 * b2 * b4 * b6
    assert 4 * b8 == b2 * b6 - b4 * b4, "b8 consistency identity failed"
    return WInvariants(b2, b4, b6, b8, c4, c6, disc)


def j_invariant(e: WeierstrassModel):
    """j = c4^3 / disc; defined only for nonsingular models."""
    inv = invariants(e)
    if inv.disc == 0:
        raise ValueError("singular model")
    return inv.c4 * inv.c4 * inv.c4 / inv.disc


def is_singular(e: WeierstrassModel) -> bool:
    return invariants(e).disc == 0


@dataclass(frozen=True)
class AdmissibleTransform:
    """x = u^2 x' + r,  y = u^3 y' + s u^2 x' + t,  with u invertible."""

    u: object
    r: object
    s: object
    t: object

    def __post_init__(self):
        if self.u == 0:
            raise ValueError("u must be nonzero")

    @classmethod
    def over_q(cls, u, r=0, s=0, t=0) -> "AdmissibleTransform":
        return cls(Fraction(u), Fraction(r), Fraction(s), Fraction(t))

    def then(self, other: "AdmissibleTransform") -> "AdmissibleTransform":
        """Composite with ``other`` applied second:
        transform(transform(E, self), other) == transform(E, self.then(other))."""
        u1, r1, s1, t1 = self.u, self.r, self.s, self.t
        u2, r2, s2, t2 = other.u, other.r, other.s, other.t
        return AdmissibleTransform(
            u1 * u2,
            u1 * u1 * r2 + r1,
            u1 * s2 + s1,
            u1 * u1 * u1 * t2 + s1 * u1 * u1 * r2 + t1,
        )

    def inverse(self) -> "AdmissibleTransform":
        u, r, s, t = self.u, self.r, self.s, self.t
        iu = 1 / u
        return AdmissibleTransform(iu, -r * iu * iu, -s * iu, (r * s - t) * iu * iu * iu)


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
        if a.denominator % p == 0:
            raise ReductionError(f"model not p-integral at p={p} (coefficient {a})")
        vals.append(a.numerator * fp.inv(a.denominator % p) % p)
    return WeierstrassModel.over_field(fp, *vals)


def model_over_ext(e: WeierstrassModel, ext) -> WeierstrassModel:
    """Base-change a model over F_p to an extension of F_p."""
    if not isinstance(e.field, PrimeField) or ext.char != e.field.p:
        raise ValueError("model must be over the prime subfield of ext")
    return WeierstrassModel.over_field(ext, *(a.val for a in e.coefficients))


# ---------------------------------------------------------------------------
# reduction types
# ---------------------------------------------------------------------------


class ReductionKind(Enum):
    GOOD = "good"
    SPLIT_MULTIPLICATIVE = "split_multiplicative"
    NONSPLIT_MULTIPLICATIVE = "nonsplit_multiplicative"
    ADDITIVE = "additive"


@dataclass(frozen=True)
class ReductionType:
    kind: ReductionKind
    alpha: Optional[int] = None

    @property
    def is_good(self) -> bool:
        return self.kind is ReductionKind.GOOD

    def __str__(self) -> str:
        if self.is_good:
            return "good"
        return f"{self.kind.value} (alpha={self.alpha})"


def _singular_points(e: WeierstrassModel) -> list:
    """All affine singular points of a model over F_p, raw values: the
    points of _affine_points_raw where both partials vanish (the singular
    points of a Weierstrass cubic are rational over F_p)."""
    f = e.field
    if f.p > CLASSIFY_GUARD:
        raise ValueError("classification guard exceeded")
    a1, a2, a3, a4, _ = _raw_consts(e)
    mul, add, zero = f.mul, f.add, f.zero()
    two, three = f.from_int(2), f.from_int(3)
    # F_y = 2y + a1 x + a3, F_x = a1 y - (3x^2 + 2 a2 x + a4)
    return [
        (x, y)
        for x, y in _affine_points_raw(e)
        if add(add(mul(two, y), mul(a1, x)), a3) == zero
        and mul(a1, y) == add(mul(add(mul(three, x), mul(two, a2)), x), a4)
    ]


def classify_reduction(e: WeierstrassModel) -> ReductionType:
    """Reduction type of a model over F_p.

    Good when the discriminant is nonzero.  Otherwise the unique singular
    point is translated to the origin and the tangent-cone discriminant
    decides node vs cusp and split vs non-split (p > 3); for p <= 3 the
    kind comes from c4 and alpha from the count of nonsingular points.
    The slope verdict is always cross-checked against #E_ns = p - alpha.
    """
    if not isinstance(e.field, PrimeField):
        raise ValueError("classification needs a model over F_p")
    p = e.field.p
    inv = invariants(e)
    if inv.disc != 0:
        return ReductionType(ReductionKind.GOOD)
    sing = _singular_points(e)
    if len(sing) != 1:
        raise UnclassifiableReductionError(
            f"expected a unique singular point, found {len(sing)}"
        )
    # #E_ns: the affine points but the singular one, plus infinity
    alpha_by_count = p - _affine_count(e, 1)
    if p <= 3:
        if inv.c4 == 0:
            kind = ReductionKind.ADDITIVE
        elif alpha_by_count == 1:
            kind = ReductionKind.SPLIT_MULTIPLICATIVE
        else:
            kind = ReductionKind.NONSPLIT_MULTIPLICATIVE
        if (kind is ReductionKind.ADDITIVE) != (alpha_by_count == 0):
            raise UnclassifiableReductionError("c4 and counting disagree")
        return ReductionType(kind, alpha_by_count)
    x0, y0 = (FieldElement(e.field, v) for v in sing[0])
    shifted = transform(e, AdmissibleTransform(FieldElement.of(e.field, 1), x0, FieldElement.of(e.field, 0), y0))
    if not (shifted.a3 == 0 and shifted.a4 == 0 and shifted.a6 == 0):
        raise RuntimeError(f"singular point ({x0}, {y0}) of {e} does not move to the origin")
    tangent_disc = shifted.a1 * shifted.a1 + 4 * shifted.a2
    if tangent_disc == 0:
        kind, alpha = ReductionKind.ADDITIVE, 0
    elif is_square(e.field, tangent_disc.val):
        kind, alpha = ReductionKind.SPLIT_MULTIPLICATIVE, 1
    else:
        kind, alpha = ReductionKind.NONSPLIT_MULTIPLICATIVE, -1
    if alpha != alpha_by_count:
        raise UnclassifiableReductionError(
            f"slope method alpha={alpha} but #E_ns gives alpha={alpha_by_count}"
        )
    if (kind is ReductionKind.ADDITIVE) != (inv.c4 == 0):
        raise UnclassifiableReductionError("tangent cone and c4 disagree")
    return ReductionType(kind, alpha)


# ---------------------------------------------------------------------------
# point counting
# ---------------------------------------------------------------------------

def _fibres(e: WeierstrassModel) -> Iterator:
    """(x, b, c) for each x of the model's field, raw values, where the
    equation at x reads y^2 + b*y = c."""
    f = e.field
    a1, a2, a3, a4, a6 = _raw_consts(e)
    mul, add = f.mul, f.add
    for x in f.elements():
        yield x, add(mul(a1, x), a3), add(mul(add(mul(add(x, a2), x), a4), x), a6)


def _at_level(e: WeierstrassModel, n: int) -> WeierstrassModel:
    """A model over F_p base-changed to F_{p^n}."""
    return e if n == 1 else model_over_ext(e, finite_field(e.field.p, n))


def _affine_count(e: WeierstrassModel, n: int) -> int:
    """Number of affine F_{p^n}-solutions of the Weierstrass equation."""
    q = e.field.p**n
    if q > COUNT_GUARD:
        raise ValueError("guard exceeded: p^n > 10^7")
    if n > 1 and q > EXT_FIELD_GUARD:
        raise ValueError("guard exceeded: p^n > 10^6 for n > 1")
    curve = _at_level(e, n)
    f = curve.field
    mul, zero = f.mul, f.zero()
    if f.char == 2:
        # y^2 + b y = c has one root when b = 0, else two iff
        # Tr(c / b^2) = 0 after the substitution y = b z
        return sum(
            1 if b == zero else 2 * (f.absolute_trace(mul(c, f.inv(mul(b, b)))) == 0)
            for _, b, c in _fibres(curve)
        )
    four = f.from_int(4)
    total = 0
    for _, b, c in _fibres(curve):
        disc = f.add(mul(b, b), mul(four, c))
        if disc == zero:
            total += 1
        elif is_square(f, disc):
            total += 2
    return total


def count_points(e: WeierstrassModel, n: int = 1) -> int:
    """#E(F_{p^n}) including the point at infinity, by brute force.

    The oracle for the baby-step giant-step a_p; trace_of_frobenius
    counts this way only at p <= MESTRE_BOUND.
    """
    if is_singular(e):
        raise ValueError("singular model (use count_nonsingular)")
    return _affine_count(e, n) + 1


def count_nonsingular(e: WeierstrassModel, n: int = 1) -> int:
    """Number of nonsingular F_{p^n}-points including infinity.

    The singular points of a Weierstrass cubic are rational over the
    prime field, so excluding them is an exact subtraction.
    """
    sing = 0 if not is_singular(e) else len(_singular_points(e))
    return _affine_count(e, n) - sing + 1


def trace_of_frobenius(e: WeierstrassModel) -> int:
    """a_p = p + 1 - #E(F_p): baby-step giant-step for p > MESTRE_BOUND,
    a brute-force count below; the Hasse bound is checked."""
    p = e.field.p
    if p > AP_GUARD:
        raise ValueError("guard exceeded: p > 10^12")
    n = count_points(e, 1) if p <= MESTRE_BOUND else _order_by_bsgs(e)
    ap = p + 1 - n
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


@dataclass(frozen=True)
class LocalData:
    """A rational model at one prime: its reduction, the reduction type
    and, at a good prime only, a_p; built by zeta.local_data."""

    reduced: WeierstrassModel
    reduction: ReductionType
    a_p: Optional[int] = None

    @property
    def p(self) -> int:
        return self.reduced.field.p

    def point_counts(self, n_max: int) -> list:
        """[N_1, ..., N_n_max]: #E(F_{p^n}) by the trace recurrence at a
        good prime, #E_ns(F_{p^n}) = p^n - alpha^n at a bad one."""
        if self.reduction.is_good:
            return point_counts_via_recurrence(self.a_p, self.p, n_max)
        return [self.p**n - self.reduction.alpha**n for n in range(1, n_max + 1)]


# ---------------------------------------------------------------------------
# the group of points
# ---------------------------------------------------------------------------


# raw group-law core: points are None or (x, y) in the field's native
# representation; group_structure and the baby-step giant-step a_p use it


def _raw_consts(e: WeierstrassModel) -> tuple:
    return tuple(a.val for a in e.coefficients)


def _raw_neg(f, consts, pt):
    if pt is None:
        return None
    a1, _, a3, _, _ = consts
    x, y = pt
    return (x, f.sub(f.neg(y), f.add(f.mul(a1, x), a3)))


def _raw_add(f, consts, pt1, pt2):
    if pt1 is None:
        return pt2
    if pt2 is None:
        return pt1
    a1, a2, a3, a4, a6 = consts
    x1, y1 = pt1
    x2, y2 = pt2
    if x1 == x2 and y2 == f.sub(f.neg(y1), f.add(f.mul(a1, x1), a3)):
        return None
    if pt1 == pt2:
        denom = f.add(f.add(y1, y1), f.add(f.mul(a1, x1), a3))
        inv = f.inv(denom)
        x1sq = f.mul(x1, x1)
        lam_num = f.sub(
            f.add(f.add(x1sq, f.add(x1sq, x1sq)), f.add(f.add(f.mul(a2, x1), f.mul(a2, x1)), a4)),
            f.mul(a1, y1),
        )
        nu_num = f.sub(f.add(f.mul(a4, x1), f.add(a6, a6)), f.add(f.mul(x1sq, x1), f.mul(a3, y1)))
        lam = f.mul(lam_num, inv)
        nu = f.mul(nu_num, inv)
    else:
        inv = f.inv(f.sub(x2, x1))
        lam = f.mul(f.sub(y2, y1), inv)
        nu = f.mul(f.sub(f.mul(y1, x2), f.mul(y2, x1)), inv)
    x3 = f.sub(f.sub(f.add(f.mul(lam, lam), f.mul(a1, lam)), a2), f.add(x1, x2))
    y3 = f.sub(f.neg(f.mul(f.add(lam, a1), x3)), f.add(nu, a3))
    return (x3, y3)


def _raw_mul(f, consts, pt, k: int):
    if k < 0:
        return _raw_mul(f, consts, _raw_neg(f, consts, pt), -k)
    acc = None
    base = pt
    while k:
        if k & 1:
            acc = _raw_add(f, consts, acc, base)
        base = _raw_add(f, consts, base, base)
        k >>= 1
    return acc


def _affine_points_raw(e: WeierstrassModel) -> Iterator:
    """All affine points of a model over its (small) field, raw values."""
    f = e.field
    mul, zero = f.mul, f.zero()
    if f.char == 2:
        # y = b z turns y^2 + b y = c into z^2 + z = c / b^2
        halves: dict = {}
        for z in f.elements():
            halves.setdefault(f.add(mul(z, z), z), []).append(z)
        for x, b, c in _fibres(e):
            if b == zero:
                # y^2 = c: the Frobenius is bijective
                yield (x, f.pow(c, f.order // 2))
            else:
                for z in halves.get(mul(c, f.inv(mul(b, b))), ()):
                    yield (x, mul(b, z))
        return
    roots: dict = {}
    for z in f.elements():
        roots.setdefault(mul(z, z), z)
    inv2 = f.inv(f.from_int(2))
    four = f.from_int(4)
    for x, b, c in _fibres(e):
        r = roots.get(f.add(mul(b, b), mul(four, c)))
        if r is not None:
            yield (x, mul(f.sub(r, b), inv2))
            if r != zero:
                yield (x, mul(f.sub(f.neg(r), b), inv2))


def _divisors(n: int) -> list:
    out = [1]
    for prime, exp in factorize(n).items():
        out = [d * prime**k for d in out for k in range(exp + 1)]
    return sorted(out)


def group_structure(e: WeierstrassModel, n: int = 1) -> AbelianGroupInv:
    """E(F_{p^n}) as Z/d1 x Z/d2 with d1 | d2, by full enumeration.

    d2 is the group exponent (lcm of point orders), d1 = N/d2; the
    classical constraint d1 | q-1 is checked.  The point scan stops
    early once the running lcm L is the only divisor of N that is a
    multiple of L with N/L dividing q-1: the true exponent always has
    both properties, so no later point can change the answer.
    """
    if is_singular(e):
        raise ValueError("singular model")
    p = e.field.p
    q = p**n
    if q > GROUP_GUARD:
        raise ValueError("guard exceeded: p^n > 10^6")
    curve = _at_level(e, n)
    field = curve.field
    consts = _raw_consts(curve)
    pts = list(_affine_points_raw(curve))
    n_points = len(pts) + 1
    if n_points == 1:
        return AbelianGroupInv((1, 1))
    fac = sorted(factorize(n_points))
    divisors = _divisors(n_points)
    exponent = 1
    for pt in pts:
        # a point killed by the current lcm cannot enlarge it
        if exponent > 1 and _raw_mul(field, consts, pt, exponent) is None:
            continue
        order = n_points
        for ell in fac:
            while order % ell == 0 and _raw_mul(field, consts, pt, order // ell) is None:
                order //= ell
        exponent = exponent * order // gcd(exponent, order)
        candidates = [d for d in divisors if d % exponent == 0 and (q - 1) % (n_points // d) == 0]
        if candidates == [exponent]:
            break
    d2 = exponent
    d1 = n_points // d2
    if d1 * d2 != n_points or d2 % d1 or (q - 1) % d1:
        raise RuntimeError(
            f"group of {e} over F_{p}^{n}: Z/{d1} x Z/{d2} breaks d1 d2 = N = {n_points}, d1 | d2 or d1 | q-1"
        )
    return AbelianGroupInv((d1, d2))


# ---------------------------------------------------------------------------
# a_p by baby-step giant-step
# ---------------------------------------------------------------------------


def _killing_multiples(field: PrimeField, consts: tuple, pt, step: int, lo: int, hi: int) -> list:
    """The first two multiples m of ``step`` in [lo, hi] with [m]pt = O,
    by baby-step giant-step over m = m0 + step*j, 0 <= j <= span."""
    m0 = -(-lo // step) * step
    span = (hi - m0) // step
    if span < 0:
        return []
    stride = _raw_mul(field, consts, pt, step)
    target = _raw_neg(field, consts, _raw_mul(field, consts, pt, m0))
    # j * stride = target; baby steps i * stride for i < w, giant steps of w
    w = isqrt(span) + 1
    baby = {None: 0}
    cur = None
    for i in range(1, w):
        cur = _raw_add(field, consts, cur, stride)
        if cur is None:
            # stride has order i: the solutions are j0 + i*k
            if target not in baby:
                return []
            j0 = baby[target]
            return [m0 + step * j for j in (j0, j0 + i) if j <= span]
        baby[cur] = i
    giant = _raw_neg(field, consts, _raw_mul(field, consts, stride, w))
    found = []
    probe = target
    for k in range(span // w + 1):
        i = baby.get(probe)
        if i is not None and k * w + i <= span:
            found.append(m0 + step * (k * w + i))
            if len(found) == 2:
                break
        probe = _raw_add(field, consts, probe, giant)
    return found


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
    inv = invariants(e)
    if inv.disc == 0:
        raise ValueError("singular model (use count_nonsingular)")
    a, b = -27 * inv.c4.val % p, -54 * inv.c6.val % p
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


def _single_candidate(p: int, lcm_e: int, lcm_twist: int, lo: int, hi: int) -> Optional[int]:
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


def _short_form(e: WeierstrassModel) -> tuple:
    """(E_short, T) with transform(e, T) = E_short: y^2 = x^3 + Ax + B.
    Needs characteristic 0 or > 3."""
    field = e.field
    one = Fraction(1) if field is None else FieldElement.of(field, 1)
    zero = one - one
    t1 = AdmissibleTransform(one, zero, -e.a1 / 2, -e.a3 / 2)
    mid = transform(e, t1)
    t2 = AdmissibleTransform(one, -invariants(mid).b2 / 12, zero, zero)
    total = t1.then(t2)
    short = transform(e, total)
    assert short.a1 == 0 and short.a2 == 0 and short.a3 == 0
    return short, total


def _embed_transform(tr: AdmissibleTransform, field) -> AdmissibleTransform:
    return AdmissibleTransform(*(FieldElement(field, v.val) for v in (tr.u, tr.r, tr.s, tr.t)))


def isomorphism_witness(e1: WeierstrassModel, e2: WeierstrassModel, max_degree: Optional[int] = None):
    """Explicit (u,r,s,t) over a small extension witnessing isomorphism.

    Searches twist scalars u over F_{p^k} with k <= 2 generically and
    k <= 6 for j in {0, 1728}, while p^k <= EXT_FIELD_GUARD; returns
    (transform, field) or None when the j-invariants differ.  Requires
    p > 3.
    """
    if not isinstance(e1.field, PrimeField):
        raise ValueError("witness search needs models over F_p")
    p = e1.field.p
    if p <= 3:
        raise ValueError("witness search requires p > 3")
    if not isomorphic_over_closure(e1, e2):
        return None
    s1, t1 = _short_form(e1)
    s2, t2 = _short_form(e2)
    special = s1.a6 == 0 or s1.a4 == 0
    degrees = (1, 2, 3, 4, 6) if special else (1, 2)
    if max_degree is not None:
        degrees = tuple(k for k in degrees if k <= max_degree)
    for k in degrees:
        if p**k > EXT_FIELD_GUARD:
            break
        # F_p values are valid F_{p^k} values
        field = finite_field(p, k)
        ea1, eb1, ea2, eb2 = (FieldElement(field, v.val) for v in (s1.a4, s1.a6, s2.a4, s2.a6))
        zero = FieldElement.of(field, 0)
        for uv in field.elements():
            if uv == field.zero():
                continue
            u = FieldElement(field, uv)
            u4 = u**4
            u6 = u4 * u * u
            if ea2 * u4 == ea1 and eb2 * u6 == eb1:
                tw = AdmissibleTransform(u, zero, zero, zero)
                total = _embed_transform(t1, field).then(tw).then(_embed_transform(t2, field).inverse())
                if transform(model_over_ext(e1, field), total) == model_over_ext(e2, field):
                    return total, field
    return None
