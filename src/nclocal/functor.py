"""The mod-p localization pipeline and its correctness checkers.

``localize`` maps a rational model and a prime to Cuntz-Krieger
matrices and K0 data, level by level, next to the groups E(F_{p^n}):
the paper's footnote 2 compares the two.  ``theorem1_check`` verifies on
seeded random admissible transforms that the pipeline only sees the
isomorphism class: equal trace matrices at good primes, equal alpha at
bad ones.
"""

from __future__ import annotations

import random
from collections.abc import Sequence

from ._frozen import Frozen
from ._limits import MAX_LEVEL
from .ck_k0 import build_lp, epsilons, k0_group
from .elliptic import (
    AdmissibleTransform,
    ReductionError,
    ReductionType,
    WeierstrassModel,
    isomorphic_over_closure,
    local_data,
    transform,
)
from .intmat import IntMatrix, mat_pow

__all__ = [
    "LocalizationResult",
    "localize",
    "TrialRecord",
    "Theorem1Report",
    "theorem1_check",
    "MAX_LEVEL",
]


class LocalizationResult(Frozen):
    """Per-level output of the localization pipeline at one prime."""

    __slots__ = (
        "p", "n_max", "reduction", "descriptors", "k0_groups", "k0_orders", "curve_counts", "curve_groups", "a_p",
        "lp", "alpha", "exploration",
    )
    _optional = ("a_p", "lp", "alpha", "exploration")
    p: int
    n_max: int
    reduction: ReductionType
    descriptors: tuple  # IntMatrix per n = 1..n_max
    k0_groups: tuple  # AbelianGroupInv per n
    k0_orders: tuple  # int per n
    curve_counts: tuple  # N_n (good) or #E_ns (bad) per n
    curve_groups: tuple  # AbelianGroupInv or None per n (good p, field within its guard)
    a_p: int | None
    lp: IntMatrix | None
    alpha: int | None
    exploration: dict | None

    def to_json_dict(self) -> dict:
        out = {
            "p": self.p,
            "n_max": self.n_max,
            "reduction": self.reduction.kind.value,
            "k0_orders": list(self.k0_orders),
            "k0_groups": [str(g) for g in self.k0_groups],
            "k0_invariant_factors": [list(g.invariant_factors) for g in self.k0_groups],
            "curve_counts": list(self.curve_counts),
            "curve_groups": [
                None if g is None else list(g.invariant_factors) for g in self.curve_groups
            ],
        }
        if self.a_p is not None:
            out["a_p"] = self.a_p
            out["lp"] = self.lp.to_rows()
        if self.alpha is not None:
            out["alpha"] = self.alpha
        if self.exploration is not None:
            out["exploration"] = self.exploration
        return out


def localize(
    e: WeierstrassModel,
    p: int,
    n_max: int,
    *,
    period: Sequence[int] | None = None,
) -> LocalizationResult:
    """Classify the reduction at p and produce Cuntz-Krieger matrices, K0 data and
    curve-side counts for n = 1..n_max.

    The trace slot of the good-prime matrix is a_p from counting, the
    unique choice that makes the K0 orders reproduce the point counts.
    An optional continued-fraction ``period`` adds an exploration record
    comparing tr(A^p) of its incidence matrix with a_p.
    """
    if not 1 <= n_max <= MAX_LEVEL:
        raise ValueError(f"n_max must be between 1 and {MAX_LEVEL}")
    try:
        local = local_data(e, p)
    except ReductionError as err:
        raise ValueError(f"{err}; apply a clearing transform first") from None
    rt, ap = local.reduction, local.a_p
    descriptors = tuple(epsilons(local.reduced.field, n_max, trace_ap=ap, alpha=rt.alpha))
    groups = tuple(k0_group(d) for d in descriptors)
    orders = tuple(g.order for g in groups)
    counts = tuple(local.point_counts(n_max))
    if rt.is_good and orders != counts:
        raise RuntimeError(f"K0 order must equal the point count: {orders} != {counts} for {e} at p={p}")
    exploration = None
    if period is not None:
        from .quadratic_cf import incidence_matrix

        tr_ap = mat_pow(incidence_matrix(period), p).trace()
        exploration = {
            "period": list(period),
            "trace_ap_matrix": tr_ap,
            "a_p": ap,
            "matches_a_p": None if ap is None else tr_ap == ap,
        }
    return LocalizationResult(
        p=p,
        n_max=n_max,
        reduction=rt,
        descriptors=descriptors,
        k0_groups=groups,
        k0_orders=orders,
        curve_counts=counts,
        curve_groups=tuple(local.groups(n_max)),
        a_p=ap,
        lp=descriptors[0] if rt.is_good else None,
        alpha=rt.alpha,
        exploration=exploration,
    )


# ---------------------------------------------------------------------------
# transform-invariance checker
# ---------------------------------------------------------------------------


class TrialRecord(Frozen):
    __slots__ = ("trial", "u", "r", "s", "t", "closure_isomorphic", "invariant_equal", "passed")
    trial: int
    u: str
    r: str
    s: str
    t: str
    closure_isomorphic: bool | None
    invariant_equal: bool
    passed: bool

    def to_json_dict(self) -> dict:
        return {
            "trial": self.trial,
            "transform": {"u": self.u, "r": self.r, "s": self.s, "t": self.t},
            "closure_isomorphic": self.closure_isomorphic,
            "invariant_equal": self.invariant_equal,
            "passed": self.passed,
        }


class Theorem1Report(Frozen):
    __slots__ = ("p", "good", "seed", "baseline", "trials", "all_passed")
    p: int
    good: bool
    seed: int
    baseline: str  # the shared L_p (good) or alpha (bad)
    trials: tuple
    all_passed: bool

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "good": self.good,
            "seed": self.seed,
            "baseline": self.baseline,
            "trials": [t.to_json_dict() for t in self.trials],
            "all_passed": self.all_passed,
        }


def _random_transform(rng: random.Random, p: int) -> AdmissibleTransform:
    while True:
        u = rng.choice((1, 2, 3))
        if u % p != 0:
            break
    r = rng.randint(-3, 3)
    s = rng.randint(-3, 3)
    t = rng.randint(-3, 3)
    return AdmissibleTransform.over_q(u, r, s, t)


def theorem1_check(e: WeierstrassModel, p: int, trials: int, seed: int) -> Theorem1Report:
    """Exercise the pipeline on `trials` random isomorphic models.

    Each trial draws an admissible transform over Q (u in {1,2,3} coprime
    to p, r, s, t in [-3, 3]; per-trial seeded so parallel and serial
    runs agree), reduces both models, and checks that both land in the
    same closure-isomorphism class and produce identical invariants:
    the matrix (trace, p; -1, 0) at a good prime, alpha at a bad one.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    base = local_data(e, p)
    good = base.reduction.is_good
    baseline = str(build_lp(base.a_p, p)) if good else f"alpha={base.reduction.alpha}"
    records = []
    for i in range(trials):
        rng = random.Random(seed * 1_000_003 + i)
        tr = _random_transform(rng, p)
        # u is a unit at p and r, s, t are integers, so the new model is
        # p-integral because e is (local_data rejected it otherwise)
        local = local_data(transform(e, tr), p)
        # j is undefined on singular reductions
        closure_ok = isomorphic_over_closure(base.reduced, local.reduced) if good else None
        # equal a_p gives equal (a_p, p; -1, 0)
        inv_ok = local.reduction == base.reduction and local.a_p == base.a_p
        passed = inv_ok and (closure_ok is not False)
        records.append(
            TrialRecord(
                trial=i,
                u=str(tr.u),
                r=str(tr.r),
                s=str(tr.s),
                t=str(tr.t),
                closure_isomorphic=closure_ok,
                invariant_equal=inv_ok,
                passed=passed,
            )
        )
    return Theorem1Report(
        p=p,
        good=good,
        seed=seed,
        baseline=baseline,
        trials=tuple(records),
        all_passed=all(rec.passed for rec in records),
    )
