"""Local zeta factors as truncated power series over exact rationals.

The curve side exponentiates point counts, the torus side K0 orders;
the comparison engine compares the counts first, and lines up a torus
series with the curve's coefficient for coefficient only where they
differ.  Each prime is read once, by ``elliptic.local_data``, and the
levels of both sides come from ``ck_k0.epsilons``.  Counts are
exponentiated in integers, with one Fraction per output coefficient.
No floating point.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from math import factorial

from ._frozen import Frozen
from ._limits import DEFAULT_ORDER
from .ck_k0 import epsilon, epsilons, k0_order, k0_signed_order
from .elliptic import LocalData, WeierstrassModel, local_data
from .intmat import mat_pow

__all__ = [
    "TruncatedSeries",
    "LocalFactorReport",
    "lemma1_check",
    "dirichlet_coefficients",
    "euler_factor_polynomial",
    "DEFAULT_ORDER",
]


class TruncatedSeries(Frozen):
    """Power series truncated at a fixed order; coefficients are exact."""

    __slots__ = ("coefficients",)
    coefficients: tuple

    def __init__(self, coefficients: tuple):
        if not coefficients:
            raise ValueError("series needs at least the constant term")
        # a Fraction is immutable, so only other inputs are converted
        super().__init__(tuple(c if type(c) is Fraction else Fraction(c) for c in coefficients))

    @property
    def order(self) -> int:
        return len(self.coefficients) - 1

    def _check(self, other: "TruncatedSeries"):
        if self.order != other.order:
            raise ValueError("truncation orders differ")

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check(other)
        k = self.order
        out = [Fraction(0)] * (k + 1)
        for i, a in enumerate(self.coefficients):
            if a:
                for j in range(k + 1 - i):
                    b = other.coefficients[j]
                    if b:
                        out[i + j] += a * b
        return TruncatedSeries(tuple(out))

    def reciprocal(self) -> "TruncatedSeries":
        c0 = self.coefficients[0]
        if c0 == 0:
            raise ValueError("reciprocal needs a nonzero constant term")
        k = self.order
        out = [Fraction(0)] * (k + 1)
        out[0] = 1 / c0
        for n in range(1, k + 1):
            acc = Fraction(0)
            for i in range(1, n + 1):
                acc += self.coefficients[i] * out[n - i]
            out[n] = -acc / c0
        return TruncatedSeries(tuple(out))

    def first_mismatch(self, other: "TruncatedSeries") -> int | None:
        self._check(other)
        for i, (a, b) in enumerate(zip(self.coefficients, other.coefficients)):
            if a != b:
                return i
        return None


def _exp_scaled(counts: Sequence[int], order: int) -> list:
    """[E_0, ..., E_order] with E_n = n! e_n for exp(sum c_n z^n / n) =
    sum e_n z^n, c_n integers: E_n = n! e_n turns the recurrence
    n e_n = sum_i c_i e_{n-i} of E' = S'E into
    E_n = sum_i c_i E_{n-i} (n-1)!/(n-i)!."""
    cs = list(counts[:order]) + [0] * order
    scaled = [1]
    for n in range(1, order + 1):
        acc, falling = 0, 1  # falling = (n-1)!/(n-i)!
        for i in range(1, n + 1):
            acc += cs[i - 1] * scaled[n - i] * falling
            falling *= n - i
        scaled.append(acc)
    return scaled


# n! for n <= 20, past every series order the CLI allows
_FACTORIALS = tuple(map(factorial, range(21)))


def _factorials(order: int) -> tuple:
    """0!, 1!, ..., order! and, up to order 20, further ones."""
    return _FACTORIALS if order < len(_FACTORIALS) else tuple(map(factorial, range(order + 1)))


def _series_of_scaled(scaled: list) -> TruncatedSeries:
    """The series whose coefficient n is Fraction(E_n, n!)."""
    return TruncatedSeries(tuple(map(Fraction, scaled, _factorials(len(scaled) - 1))))


def _exp_counts(counts: Sequence[int], order: int) -> TruncatedSeries:
    """exp(sum c_n z^n / n) for integers c_n, in integers (_exp_scaled),
    with one Fraction per coefficient."""
    return _series_of_scaled(_exp_scaled(counts, order))


def euler_factor_polynomial(ap: int, p: int) -> list:
    """Numerator-only local data 1 - a_p z + p z^2, as [1, -a_p, p]."""
    return [1, -ap, p]


def _curve_series(local: LocalData, counts: list, order: int) -> TruncatedSeries:
    """exp(sum N_n z^n / n) from already computed local data and its
    point counts [N_1, ..., N_order].  At a good prime the series is
    checked against the closed rational form
    (1 - a_p z + p z^2)/((1-z)(1-pz))."""
    scaled = _exp_scaled(counts, order)
    if local.reduction.is_good:
        p = local.p
        # times (1 - z)(1 - pz), a unit of Q[[z]], the series must give the
        # numerator; on E_n = n! e_n coefficient n of the product reads
        # E_n - (p+1) n E_{n-1} + p n(n-1) E_{n-2} = numerator_n n!
        numerator = euler_factor_polynomial(local.a_p, p) + [0] * order
        big = [0, 0] + scaled
        facts = _factorials(order)
        if any(
            big[n + 2] - (p + 1) * n * big[n + 1] + p * n * (n - 1) * big[n] != numerator[n] * facts[n]
            for n in range(order + 1)
        ):
            raise RuntimeError(f"exp-sum and rational form disagree at p={p}, a_p={local.a_p}")
    return _series_of_scaled(scaled)


class LocalFactorReport(Frozen):
    """Side-by-side local factors at one prime, with a verdict.

    At bad primes ``torus_series`` is always the absolute-value form and
    ``torus_series_signed`` the signed diagnostic, whatever the mode;
    neither convention is silently dropped.  The verdict compares the
    curve series against the mode-selected torus side.
    """

    __slots__ = (
        "p", "good", "alpha", "curve_series", "torus_series", "torus_series_signed", "verdict", "first_mismatch"
    )
    p: int
    good: bool
    alpha: int | None
    curve_series: TruncatedSeries
    torus_series: TruncatedSeries
    torus_series_signed: TruncatedSeries | None
    verdict: str
    first_mismatch: int | None

    def to_json_dict(self) -> dict:
        curve = [str(c) for c in self.curve_series.coefficients]
        series = self.torus_series
        # a torus side that is the curve series itself reuses its strings
        torus = curve[:] if series is self.curve_series else [str(c) for c in series.coefficients]
        out = {"p": self.p, "good": self.good, "curve_coeffs": curve, "torus_coeffs": torus, "verdict": self.verdict}
        if self.alpha is not None:
            out["alpha"] = self.alpha
        if self.torus_series_signed is not None:
            out["torus_signed_coeffs"] = [str(c) for c in self.torus_series_signed.coefficients]
        if self.first_mismatch is not None:
            out["first_mismatch"] = self.first_mismatch
        return out


def lemma1_check(
    e: WeierstrassModel,
    primes: Sequence[int],
    order: int = DEFAULT_ORDER,
    *,
    period: Sequence[int] | None = None,
    mode: str = "absolute",
) -> list:
    """Compare curve and torus local factors at each prime.

    Without ``period`` the torus trace slot is a_p from counting
    (identity-verification mode; good primes must match).  With a
    continued-fraction ``period`` the trace slot is tr(A^p) of its
    incidence matrix (exploration mode, no pass guarantee).  At a good
    prime whose K0 orders equal the point counts, ``torus_series`` is
    ``curve_series`` itself, and at a bad prime with alpha = 0 or 1, whose
    signed orders alpha^n are never negative, ``torus_series_signed`` is
    ``torus_series``.
    """
    a_matrix = None
    if period is not None:
        from .quadratic_cf import incidence_matrix

        a_matrix = incidence_matrix(period)
    order_of = {"absolute": k0_order, "signed": k0_signed_order}.get(mode)
    if order_of is None:
        raise ValueError(f"unknown mode {mode!r}")
    reports = []
    for p in primes:
        local = local_data(e, p)
        rt = local.reduction
        counts = local.point_counts(order)
        curve = _curve_series(local, counts, order)
        trace_slot = local.a_p
        if a_matrix is not None and rt.is_good:
            trace_slot = mat_pow(a_matrix, p).trace()
        levels = epsilons(local.reduced.field, order, trace_ap=trace_slot, alpha=rt.alpha)
        if rt.is_good:
            # equal counts have equal exp series
            orders = [order_of(m) for m in levels]
            torus = curve if orders == counts else _exp_counts(orders, order)
            signed = None
            compared = torus
        else:
            # one signed order per level, alpha^n, feeds both conventions;
            # they differ only when alpha = -1 makes some of them negative
            orders = [k0_signed_order(d) for d in levels]
            torus = _exp_counts([abs(n) for n in orders], order)
            signed = torus if min(orders) >= 0 else _exp_counts(orders, order)
            compared = signed if mode == "signed" else torus
        mismatch = None if compared is curve else curve.first_mismatch(compared)
        verdict = "match" if mismatch is None else "mismatch"
        reports.append(LocalFactorReport(p, rt.is_good, rt.alpha, curve, torus, signed, verdict, mismatch))
    return reports


def _local_dirichlet(ap: int, p: int, x: int, det: int) -> list:
    """Coefficients c_{p^k} for p^k <= x of 1/(1 - ap z + det z^2), via
    c_{p^k} = ap c_{p^{k-1}} - det c_{p^{k-2}}: det = p at a good prime,
    and det = 0, ap = alpha (c_{p^k} = alpha^k) at a bad one."""
    out = [1]
    power = p
    prev2, prev1 = 1, ap
    while power <= x:
        out.append(prev1)
        prev2, prev1 = prev1, ap * prev1 - det * prev2
        power *= p
    return out


def dirichlet_coefficients(e: WeierstrassModel, x: int) -> list:
    """Dirichlet coefficients (m, c_m) for m <= x from the product of
    local factors, numerator convention.

    The torus side is rebuilt from K0 orders and must agree at every m
    supported on good primes; bad primes contribute alpha^k.
    """
    if x > 10**4:
        raise ValueError("bound exceeds the desk-scale guard 10^4")
    coeffs = [0] * (x + 1)
    coeffs[1] = 1
    local: dict = {}
    spf = list(range(x + 1))  # smallest prime factor; spf[p] == p marks a prime
    for p in range(2, x + 1):
        if spf[p] != p:
            continue
        for m in range(p * p, x + 1, p):
            spf[m] = min(spf[m], p)
        data = local_data(e, p)
        if data.reduction.is_good:
            ap = data.a_p
            curve_side = _local_dirichlet(ap, p, x, p)
            torus_ap = p + 1 - k0_order(epsilon(data.reduced.field, 1, trace_ap=ap))
            torus_side = _local_dirichlet(torus_ap, p, x, p)
            if curve_side != torus_side:
                raise RuntimeError(f"curve and torus local coefficients differ at p={p}")
            local[p] = curve_side
        else:
            local[p] = _local_dirichlet(data.reduction.alpha, p, x, 0)
    for m in range(2, x + 1):
        p = spf[m]
        k, rest = 0, m
        while rest % p == 0:
            rest //= p
            k += 1
        coeffs[m] = local[p][k] * coeffs[rest]
    return [(m, coeffs[m]) for m in range(1, x + 1)]
