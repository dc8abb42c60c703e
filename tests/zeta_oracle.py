"""The torus local zeta factor by the generic matrix route, for tests.

``torus_local_zeta`` builds each level L_p^n as a product of IntMatrix
values, takes its K0 order as the determinant of the presentation
matrix I - m^t, and exponentiates with the Fraction series of
``series_exp``.  ``zeta.lemma1_check`` steps L_p^n on four ints, reads
2x2 orders in closed form and shares the curve series whenever the
orders equal the point counts; this oracle shares none of those steps.
"""

from fractions import Fraction
from itertools import accumulate, repeat

from nclocal._limits import DEFAULT_ORDER
from nclocal.ck_k0 import _presentation_matrix, build_lp, epsilons
from nclocal.intmat import IntMatrix
from nclocal.zeta import TruncatedSeries, series_exp


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
        levels = epsilons(p, order, False, alpha=alpha)
    dets = [_presentation_matrix(m).det() for m in levels]
    counts = dets if mode == "signed" else [abs(d) for d in dets]
    return series_exp(TruncatedSeries((0,) + tuple(Fraction(c, n) for n, c in enumerate(counts, 1))))
