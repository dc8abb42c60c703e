"""Local zeta factors by generic series arithmetic, for tests.

``series_exp`` and ``series_log`` are the Fraction recurrences of
E' = S'E on ``TruncatedSeries``; ``zeta`` exponentiates point counts
and K0 orders in integers instead, so these are its oracle.  ``series``
and ``series_add`` build and add series for them and for the tests.
``curve_local_zeta`` exponentiates the point counts of ``local_data``
with ``series_exp``.  ``torus_local_zeta`` builds each level L_p^n as a
product of IntMatrix values, takes its K0 order as the determinant of
the presentation matrix I - m^t, and exponentiates with ``series_exp``.
``zeta.lemma1_check`` steps L_p^n on four ints, reads 2x2 orders in
closed form and shares the curve series whenever the orders equal the
point counts; these oracles share none of those steps.
"""

from fractions import Fraction
from itertools import accumulate, repeat

from nclocal._limits import DEFAULT_ORDER
from nclocal.ck_k0 import _presentation_matrix, build_lp, epsilons
from nclocal.elliptic import local_data
from nclocal.ffield import PrimeField
from nclocal.intmat import IntMatrix
from nclocal.zeta import TruncatedSeries


def series(coeffs, order):
    """The series of coeffs, cut at order or padded with zeros to it."""
    cs = list(coeffs)[: order + 1]
    return TruncatedSeries(tuple(cs + [0] * (order + 1 - len(cs))))


def series_add(a, b):
    """a + b, coefficient by coefficient, at one truncation order."""
    a._check(b)
    return TruncatedSeries(tuple(x + y for x, y in zip(a.coefficients, b.coefficients)))


def series_exp(s):
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


def series_log(s):
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


def _exp_sum(counts):
    """exp(sum c_n z^n / n), truncated at order len(counts)."""
    return series_exp(TruncatedSeries((0,) + tuple(Fraction(c, n) for n, c in enumerate(counts, 1))))


def curve_local_zeta(e, p, order=DEFAULT_ORDER):
    """exp(sum N_n z^n / n) for the reduction of e at p: N_n by the trace
    recurrence at a good prime, p^n - alpha^n at a bad one."""
    return _exp_sum(local_data(e, p).point_counts(order))


def torus_local_zeta(p, order=DEFAULT_ORDER, *, good, trace_ap=None, alpha=None, mode="absolute"):
    """exp(sum |K0| z^n / n) with K0 orders from the Cuntz-Krieger matrices.

    mode="signed" drops the absolute value: it uses det(I - eps_n), which
    is det(I - L_p^n) at good primes and alpha^n at bad primes.
    """
    if mode not in ("absolute", "signed"):
        raise ValueError(f"unknown mode {mode!r}")
    if good:
        if trace_ap is None:
            raise ValueError("good prime requires trace_ap")
        levels = accumulate(repeat(build_lp(trace_ap, p), order), IntMatrix.__mul__)
    else:
        levels = epsilons(PrimeField(p), order, alpha=alpha)
    dets = [_presentation_matrix(m).det() for m in levels]
    counts = dets if mode == "signed" else [abs(d) for d in dets]
    return _exp_sum(counts)
