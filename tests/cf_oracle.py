"""Independent oracles for nclocal.quadratic_cf.

``expand_by_repetition`` is the continued-fraction expansion that
cf_expand used before it applied Galois's test: every (P, Q) state goes
into a dict, and the first state seen twice starts the period.  It knows
nothing of reducedness, so it checks the preperiod and period that
cf_expand finds from the first reduced state.  ``reduced_by_comparison``
is the Galois criterion read off exact comparisons of the value and its
conjugate with rationals, sharing no code with the integer test.
"""

from math import isqrt


def expand_by_repetition(x):
    """(preperiod, period) of x, from the first repeated (P, Q) state; the
    period is cut down to its shortest repeating divisor."""
    d = x.D
    s = isqrt(d)
    seen = {}
    digits = []
    p, q = x.P, x.Q
    while (p, q) not in seen:
        seen[(p, q)] = len(digits)
        a = (p + s) // q if q > 0 else -((p + s) // -q) - 1
        digits.append(a)
        p = a * q - p
        q = (d - p * p) // q
    k = seen[(p, q)]
    pre, per = digits[:k], digits[k:]
    m = len(per)
    for w in range(1, m):
        if m % w == 0 and all(per[i] == per[i % w] for i in range(m)):
            per = per[:w]
            break
    return tuple(pre), tuple(per)


def reduced_by_comparison(x):
    """x > 1 and the conjugate lies strictly in (-1, 0), by exact comparison."""
    if x.compare_to(1) <= 0:
        return False
    conj = x.conjugate()
    return conj.compare_to(-1) > 0 and conj.compare_to(0) < 0
