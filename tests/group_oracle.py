"""Brute-force oracles for elliptic.group_structure: every point of
E(F_q) is listed, so N is counted rather than taken from a_p.

``group_by_scan`` is the full-enumeration scan that group_structure used
before it drew a few points.  ``group_by_orders`` reads d2 off the
orders of all points, found cyclic subgroup by cyclic subgroup; it needs
no bound from q - 1, and on non-cyclic groups, where the scan has to
take a scalar multiple of every point, it makes a few additions per
point instead.  Both run over F_{p^n} on the table fields of
field_oracle.py.
"""

from __future__ import annotations

from math import gcd
from typing import Iterator

from field_oracle import at_level
from nclocal._factor import factorize
from nclocal.elliptic import WeierstrassModel, _fibres, _raw_add, _raw_consts, _raw_mul


def affine_points(e: WeierstrassModel) -> Iterator:
    """All affine points of a model over its (small) field, raw values."""
    f = e.field
    mul = f.mul
    fibres = _fibres(f, _raw_consts(e))
    if f.char == 2:
        # y = b z turns y^2 + b y = c into z^2 + z = c / b^2
        halves: dict = {}
        for z in range(f.order):
            halves.setdefault(f.add(mul(z, z), z), []).append(z)
        for x, b, c in fibres:
            if b == 0:
                # y^2 = c: the Frobenius is bijective
                yield (x, f.pow(c, f.order // 2))
            else:
                for z in halves.get(mul(c, f.inv(mul(b, b))), ()):
                    yield (x, mul(b, z))
        return
    roots: dict = {}
    for z in range(f.order):
        roots.setdefault(mul(z, z), z)
    inv2 = f.inv(f.from_int(2))
    four = f.from_int(4)
    for x, b, c in fibres:
        r = roots.get(f.add(mul(b, b), mul(four, c)))
        if r is not None:
            yield (x, mul(f.sub(r, b), inv2))
            if r != 0:
                yield (x, mul(f.sub(f.neg(r), b), inv2))


def _divisors(n: int) -> list:
    out = [1]
    for prime, exp in factorize(n).items():
        out = [d * prime**k for d in out for k in range(exp + 1)]
    return sorted(out)


def group_by_scan(e: WeierstrassModel, n: int = 1) -> tuple:
    """(d1, d2) of E(F_{p^n}): d2 is the lcm of point orders over the
    listed points, d1 = N / d2.  The scan stops once the running lcm L is
    the only divisor of N that is a multiple of L with N/L | q - 1."""
    q = e.field.p**n
    curve = at_level(e, n)
    field = curve.field
    consts = _raw_consts(curve)
    pts = list(affine_points(curve))
    n_points = len(pts) + 1
    if n_points == 1:
        return (1, 1)
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
    return (n_points // exponent, exponent)


def group_by_orders(e: WeierstrassModel, n: int = 1) -> tuple:
    """(d1, d2) of E(F_{p^n}) with d2 the largest point order (the group
    exponent), from every point: each point not yet met spans its cyclic
    subgroup by repeated addition, and kP has order ord(P)/gcd(k, ord(P))."""
    curve = at_level(e, n)
    field = curve.field
    consts = _raw_consts(curve)
    pts = list(affine_points(curve))
    order: dict = {None: 1}
    for pt in pts:
        if pt in order:
            continue
        multiples = [pt]
        while multiples[-1] is not None:
            multiples.append(_raw_add(field, consts, multiples[-1], pt))
        m = len(multiples)
        for k, kp in enumerate(multiples, start=1):
            order[kp] = m // gcd(k, m)
    n_points = len(pts) + 1
    if len(order) != n_points:
        raise AssertionError(f"{len(order)} multiples of {n_points} points")
    d2 = max(order.values())
    return (n_points // d2, d2)
