"""Explicit isomorphisms between Weierstrass models over F_p, for tests.

``isomorphism_witness`` searches twist scalars over small extensions for
a transform (u, r, s, t) that carries one model onto another, and
checks it by transforming.  It is the explicit counterpart of
``elliptic.isomorphic_over_closure``, which compares j-invariants; no
CLI path uses it.  ``then`` composes two admissible transforms and
``inverse`` inverts one; only this search and the tests need either.
"""

from fractions import Fraction

from nclocal.elliptic import (
    AdmissibleTransform,
    WeierstrassModel,
    invariants,
    isomorphic_over_closure,
    transform,
)
from field_oracle import model_over_ext, table_field
from nclocal.ffield import EXT_FIELD_GUARD, FieldElement, PrimeField


def then(t1: AdmissibleTransform, t2: AdmissibleTransform) -> AdmissibleTransform:
    """The composite with t2 applied second:
    transform(transform(E, t1), t2) == transform(E, then(t1, t2))."""
    u1, r1, s1, tt1 = t1.u, t1.r, t1.s, t1.t
    u2, r2, s2, tt2 = t2.u, t2.r, t2.s, t2.t
    return AdmissibleTransform(
        u1 * u2,
        u1 * u1 * r2 + r1,
        u1 * s2 + s1,
        u1 * u1 * u1 * tt2 + s1 * u1 * u1 * r2 + tt1,
    )


def inverse(tr: AdmissibleTransform) -> AdmissibleTransform:
    u, r, s, t = tr.u, tr.r, tr.s, tr.t
    iu = 1 / u
    return AdmissibleTransform(iu, -r * iu * iu, -s * iu, (r * s - t) * iu * iu * iu)


def _short_form(e: WeierstrassModel) -> tuple:
    """(E_short, T) with transform(e, T) = E_short: y^2 = x^3 + Ax + B.
    Needs characteristic 0 or > 3."""
    field = e.field
    one = Fraction(1) if field is None else FieldElement.of(field, 1)
    zero = one - one
    t1 = AdmissibleTransform(one, zero, -e.a1 / 2, -e.a3 / 2)
    mid = transform(e, t1)
    t2 = AdmissibleTransform(one, -invariants(mid).b2 / 12, zero, zero)
    total = then(t1, t2)
    short = transform(e, total)
    if short.a1 != 0 or short.a2 != 0 or short.a3 != 0:
        raise RuntimeError(f"the short form {short} of {e} keeps a nonzero a1, a2 or a3")
    return short, total


def _embed_transform(tr: AdmissibleTransform, field) -> AdmissibleTransform:
    return AdmissibleTransform(*(FieldElement(field, v.val) for v in (tr.u, tr.r, tr.s, tr.t)))


def isomorphism_witness(e1: WeierstrassModel, e2: WeierstrassModel):
    """Explicit (u,r,s,t) over a small extension witnessing isomorphism.

    Searches twist scalars u over F_{p^k} with k <= 2 generically and
    k <= 6 for j in {0, 1728}, while p^k <= EXT_FIELD_GUARD; returns
    (transform, field) or None when the j-invariants differ.  Requires
    p > 3.  Each F_{p^k}, k > 1, is the table field of field_oracle.py,
    since the search enumerates it.
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
    for k in (1, 2, 3, 4, 6) if special else (1, 2):
        if p**k > EXT_FIELD_GUARD:
            break
        # F_p values are valid F_{p^k} values
        field = e1.field if k == 1 else table_field(p, k)
        ea1, eb1, ea2, eb2 = (FieldElement(field, v.val) for v in (s1.a4, s1.a6, s2.a4, s2.a6))
        zero = FieldElement.of(field, 0)
        for uv in range(1, field.order):
            u = FieldElement(field, uv)
            u4 = u**4
            u6 = u4 * u * u
            if ea2 * u4 == ea1 and eb2 * u6 == eb1:
                tw = AdmissibleTransform(u, zero, zero, zero)
                total = then(then(_embed_transform(t1, field), tw), inverse(_embed_transform(t2, field)))
                if transform(model_over_ext(e1, field), total) == model_over_ext(e2, field):
                    return total, field
    return None
