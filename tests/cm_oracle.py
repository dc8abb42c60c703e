"""The point step that picked the unit of Frobenius before the residue
symbols did, for tests.

``cm_trace_by_points`` solves the norm equation as elliptic._cm_trace
does and then picks a_p among the unit multiples of the solution by
scalar multiplications: the true a_p is the c with [p+1]P = [c]P on the
first few points drawn.  It shares the Cornacchia step with the symbols
but none of their residue arithmetic, and it returns None when the
points drawn leave two candidates alive (cm-4 at p = 233 and cm-11 at
p = 269 among the catalog curves below 10^4); count_points and
_order_by_bsgs decide those.
"""

from __future__ import annotations

from itertools import islice

from nclocal.elliptic import (
    _CM_ORDERS,
    WeierstrassModel,
    _cornacchia,
    _invariants_mod_p,
    _points,
    _raw_consts,
    _raw_mul,
    _raw_neg,
)


def cm_trace_by_points(e: WeierstrassModel) -> int | None:
    """a_p of a nonsingular model over F_p, p >= 5, whose j is a
    class-number-one CM j mod p, or None when it is not one or the points
    leave the candidates tied.

    a_p = t up to a unit, with 4p = t^2 + |d_K| w^2 (_cornacchia): the
    candidates are +-t, and +-2w when d_K = -4 or +-(t +- 3w)/2 when
    d_K = -3 (the quartic and sextic twists).  The true a_p is the c for
    which p + 1 - c kills the points drawn, [p+1]P = [c]P; the first few
    points of _points decide it.
    """
    field = e.field
    p = field.p
    c4, _, disc = _invariants_mod_p(e)
    if not disc:
        raise ValueError("singular model (use count_nonsingular)")
    j = c4 * c4 * c4 * pow(disc, -1, p) % p
    d_k = next((d for j0, d in _CM_ORDERS.values() if j0 % p == j), None)
    if d_k is None:
        return None
    if pow(d_k, (p - 1) // 2, p) != 1:
        return 0
    t, w = _cornacchia(field, d_k)
    base = [t]
    if d_k == -4:
        base.append(2 * w)
    elif d_k == -3:
        base += [(t + 3 * w) // 2, (t - 3 * w) // 2]
    live = set(base) | {-c for c in base}
    consts = _raw_consts(e)
    for pt in islice(_points(field, consts), 8):
        target = _raw_mul(field, consts, pt, p + 1)
        for c in base:
            if c in live or -c in live:
                cp = _raw_mul(field, consts, pt, c)
                if cp != target:
                    live.discard(c)
                if _raw_neg(field, consts, cp) != target:
                    live.discard(-c)
        if len(live) <= 1:
            break
    if not live:
        raise RuntimeError(f"no CM trace candidate of {e} over F_{p} kills the points drawn")
    return live.pop() if len(live) == 1 else None
