"""Local zeta factors as truncated power series over exact rationals.

The curve side exponentiates point counts, the torus side exponentiates
K0 orders, and the comparison engine lines the two up coefficient for
coefficient.  Each prime is read once, by ``local_data``.  Everything is
Fraction arithmetic; no floating point.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .ck_k0 import epsilon, k0_order, k0_order_sequence, k0_signed_order
from .elliptic import (
    LocalData,
    UnclassifiableReductionError,
    WeierstrassModel,
    classify_reduction,
    reduce_mod_p,
    trace_of_frobenius,
)
from .intmat import mat_pow
from .quadratic_cf import incidence_matrix

__all__ = [
    "TruncatedSeries",
    "LocalFactorReport",
    "local_data",
    "series_exp",
    "series_log",
    "curve_local_zeta",
    "torus_local_zeta",
    "lemma1_check",
    "dirichlet_coefficients",
    "euler_factor_polynomial",
    "DEFAULT_ORDER",
]

DEFAULT_ORDER = 6


@dataclass(frozen=True)
class TruncatedSeries:
    """Power series truncated at a fixed order; coefficients are exact."""

    coefficients: tuple

    def __post_init__(self):
        if not self.coefficients:
            raise ValueError("series needs at least the constant term")
        object.__setattr__(
            self, "coefficients", tuple(Fraction(c) for c in self.coefficients)
        )

    @classmethod
    def from_list(cls, coeffs: Sequence, order: int) -> "TruncatedSeries":
        cs = list(coeffs)[: order + 1]
        cs += [Fraction(0)] * (order + 1 - len(cs))
        return cls(tuple(cs))

    @classmethod
    def zero(cls, order: int) -> "TruncatedSeries":
        return cls.from_list([], order)

    @classmethod
    def one(cls, order: int) -> "TruncatedSeries":
        return cls.from_list([1], order)

    @property
    def order(self) -> int:
        return len(self.coefficients) - 1

    def _check(self, other: "TruncatedSeries"):
        if self.order != other.order:
            raise ValueError("truncation orders differ")

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check(other)
        return TruncatedSeries(tuple(a + b for a, b in zip(self.coefficients, other.coefficients)))

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check(other)
        return TruncatedSeries(tuple(a - b for a, b in zip(self.coefficients, other.coefficients)))

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

    def first_mismatch(self, other: "TruncatedSeries") -> Optional[int]:
        self._check(other)
        for i, (a, b) in enumerate(zip(self.coefficients, other.coefficients)):
            if a != b:
                return i
        return None


def series_exp(s: TruncatedSeries) -> TruncatedSeries:
    """exp of a series with zero constant term, via E' = S'E."""
    if s.coefficients[0] != 0:
        raise ValueError("exp needs constant term 0")
    k = s.order
    out = [Fraction(0)] * (k + 1)
    out[0] = Fraction(1)
    for n in range(1, k + 1):
        acc = Fraction(0)
        for i in range(1, n + 1):
            acc += i * s.coefficients[i] * out[n - i]
        out[n] = acc / n
    return TruncatedSeries(tuple(out))


def series_log(s: TruncatedSeries) -> TruncatedSeries:
    """log of a series with constant term 1; inverse of series_exp."""
    if s.coefficients[0] != 1:
        raise ValueError("log needs constant term 1")
    k = s.order
    out = [Fraction(0)] * (k + 1)
    for n in range(1, k + 1):
        acc = n * s.coefficients[n]
        for i in range(1, n):
            acc -= i * out[i] * s.coefficients[n - i]
        out[n] = acc / n
    return TruncatedSeries(tuple(out))


def _poly_series(coeffs: Sequence[int], order: int) -> TruncatedSeries:
    return TruncatedSeries.from_list([Fraction(c) for c in coeffs], order)


def _exp_counts(counts: Sequence[int], order: int) -> TruncatedSeries:
    s = TruncatedSeries.from_list([0] + [Fraction(c, n + 1) for n, c in enumerate(counts[:order])], order)
    return series_exp(s)


def local_data(e: WeierstrassModel, p: int) -> LocalData:
    """Reduce a model over Q at p, classify the reduction and, at a good
    prime, compute a_p: the one local pass that localize, theorem1_check,
    the zeta factors, the Dirichlet coefficients and the CLI share."""
    red = reduce_mod_p(e, p)
    rt = classify_reduction(red)
    return LocalData(red, rt, trace_of_frobenius(red) if rt.is_good else None)


def euler_factor_polynomial(ap: int, p: int) -> list:
    """Numerator-only local data 1 - a_p z + p z^2, as [1, -a_p, p]."""
    return [1, -ap, p]


def curve_local_zeta(e: WeierstrassModel, p: int, order: int = DEFAULT_ORDER) -> TruncatedSeries:
    """exp(sum N_n z^n / n) for the reduction of e at p.

    Good reduction uses the trace recurrence seeded by a_p, and the
    result is checked against the closed rational form
    (1 - a_p z + p z^2)/((1-z)(1-pz)).  Bad reduction counts the
    nonsingular points p^n - alpha^n.
    """
    return _curve_series(local_data(e, p), order)


def _curve_series(local: LocalData, order: int) -> TruncatedSeries:
    """The curve_local_zeta series from already computed local data."""
    ser = _exp_counts(local.point_counts(order), order)
    if local.reduction.is_good:
        p = local.p
        closed = _poly_series(euler_factor_polynomial(local.a_p, p), order) * _poly_series(
            [1, -(p + 1), p], order
        ).reciprocal()
        if ser != closed:
            raise RuntimeError(f"exp-sum and rational form disagree at p={p}, a_p={local.a_p}")
    return ser


def torus_local_zeta(
    p: int,
    order: int = DEFAULT_ORDER,
    *,
    good: bool,
    trace_ap: Optional[int] = None,
    alpha: Optional[int] = None,
    mode: str = "absolute",
) -> TruncatedSeries:
    """exp(sum |K0| z^n / n) with K0 orders from the descriptor pipeline.

    mode="signed" is a diagnostic that drops the absolute value: it uses
    det(I - eps_n), which is det(I - L_p^n) at good primes and alpha^n at
    bad primes.
    """
    order_of = {"absolute": k0_order, "signed": k0_signed_order}.get(mode)
    if order_of is None:
        raise ValueError(f"unknown mode {mode!r}")
    counts = [order_of(epsilon(p, n, good, trace_ap=trace_ap, alpha=alpha)) for n in range(1, order + 1)]
    return _exp_counts(counts, order)


@dataclass(frozen=True)
class LocalFactorReport:
    """Side-by-side local factors at one prime, with a verdict.

    At bad primes ``torus_series`` is always the absolute-value form and
    ``torus_series_signed`` the signed diagnostic, whatever the mode;
    neither convention is silently dropped.  The verdict compares the
    curve series against the mode-selected torus side.
    """

    p: int
    good: bool
    alpha: Optional[int]
    curve_series: TruncatedSeries
    torus_series: TruncatedSeries
    torus_series_signed: Optional[TruncatedSeries]
    verdict: str
    first_mismatch: Optional[int]

    def to_json_dict(self) -> dict:
        out = {
            "p": self.p,
            "good": self.good,
            "curve_coeffs": [str(c) for c in self.curve_series.coefficients],
            "torus_coeffs": [str(c) for c in self.torus_series.coefficients],
            "verdict": self.verdict,
        }
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
    period: Optional[Sequence[int]] = None,
    mode: str = "absolute",
) -> list:
    """Compare curve and torus local factors at each prime.

    Without ``period`` the torus trace slot is a_p from counting
    (identity-verification mode; good primes must match).  With a
    continued-fraction ``period`` the trace slot is tr(A^p) of its
    incidence matrix (exploration mode, no pass guarantee).
    """
    a_matrix = incidence_matrix(period) if period is not None else None
    reports = []
    for p in primes:
        local = local_data(e, p)
        rt = local.reduction
        curve = _curve_series(local, order)
        if rt.is_good:
            trace_slot = mat_pow(a_matrix, p).trace() if a_matrix is not None else local.a_p
            torus = torus_local_zeta(p, order, good=True, trace_ap=trace_slot, mode=mode)
            signed = None
            alpha = None
            compared = torus
        else:
            alpha = rt.alpha
            torus = torus_local_zeta(p, order, good=False, alpha=alpha, mode="absolute")
            signed = torus_local_zeta(p, order, good=False, alpha=alpha, mode="signed")
            compared = signed if mode == "signed" else torus
        mismatch = curve.first_mismatch(compared)
        reports.append(
            LocalFactorReport(
                p=p,
                good=rt.is_good,
                alpha=alpha,
                curve_series=curve,
                torus_series=torus,
                torus_series_signed=signed,
                verdict="match" if mismatch is None else "mismatch",
                first_mismatch=mismatch,
            )
        )
    return reports


def _sieve_primes(limit: int) -> list:
    flags = bytearray([1]) * (limit + 1)
    out = []
    for n in range(2, limit + 1):
        if flags[n]:
            out.append(n)
            for m in range(n * n, limit + 1, n):
                flags[m] = 0
    return out


def _local_dirichlet(ap: int, p: int, x: int) -> list:
    """Coefficients c_{p^k} for p^k <= x from the Hasse-Weil numerator,
    via c_{p^k} = a_p c_{p^{k-1}} - p c_{p^{k-2}}."""
    out = [1]
    power = p
    prev2, prev1 = 1, ap
    while power <= x:
        out.append(prev1)
        prev2, prev1 = prev1, ap * prev1 - p * prev2
        power *= p
    return out


def dirichlet_coefficients(e: WeierstrassModel, x: int) -> list:
    """Dirichlet coefficients (m, c_m) for m <= x from the product of
    local factors, numerator convention.

    The torus side is rebuilt from K0 orders and must agree at every m
    supported on good primes; bad primes contribute alpha^k, and a bad
    prime whose model defeats the classifier is skipped with a warning.
    """
    if x > 10**4:
        raise ValueError("bound exceeds the desk-scale guard 10^4")
    coeffs = [0] * (x + 1)
    coeffs[1] = 1
    local: dict = {}
    for p in _sieve_primes(x):
        try:
            data = local_data(e, p)
        except UnclassifiableReductionError as err:
            warnings.warn(f"skipping p={p}: {err}")
            local[p] = [1] + [0] * 40
            continue
        if data.reduction.is_good:
            ap = data.a_p
            curve_side = _local_dirichlet(ap, p, x)
            k0_first = k0_order_sequence(p, 1, True, trace_ap=ap)[0]
            torus_ap = p + 1 - k0_first
            torus_side = _local_dirichlet(torus_ap, p, x)
            if curve_side != torus_side:
                raise AssertionError(f"curve and torus local coefficients differ at p={p}")
            local[p] = curve_side
        else:
            out = [1]
            power = p
            k = 1
            while power <= x:
                out.append(data.reduction.alpha**k)
                power *= p
                k += 1
            local[p] = out
    spf = list(range(x + 1))
    for p in _sieve_primes(x):
        for m in range(p, x + 1, p):
            if spf[m] == m:
                spf[m] = p
    for m in range(2, x + 1):
        p = spf[m]
        k = 0
        rest = m
        while rest % p == 0:
            rest //= p
            k += 1
        coeffs[m] = local[p][k] * coeffs[rest] if k < len(local[p]) else 0
    return [(m, coeffs[m]) for m in range(1, x + 1)]
