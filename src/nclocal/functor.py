"""The mod-p localization pipeline and its correctness checkers.

``localize`` maps a rational model and a prime to Cuntz-Krieger
descriptors and K0 data, level by level.  ``theorem1_check`` verifies on
seeded random admissible transforms that the pipeline only sees the
isomorphism class: equal trace matrices at good primes, equal alpha at
bad ones.  ``lemma3_bridge`` runs the matrix-similarity chain for a pair
of continued-fraction periods, and ``footnote2_experiment`` compares the
group structures on the two sides without asserting them equal.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Sequence

from .ck_k0 import build_lp, epsilon, k0_group, k0_order
from .elliptic import (
    AdmissibleTransform,
    ReductionError,
    ReductionType,
    WeierstrassModel,
    group_structure,
    isomorphic_over_closure,
    transform,
)
from .intmat import IntMatrix, conjugacy_test, mat_pow
from .quadratic_cf import incidence_matrix
from .zeta import local_data

__all__ = [
    "LocalizationResult",
    "localize",
    "TrialRecord",
    "Theorem1Report",
    "theorem1_check",
    "Lemma3Report",
    "lemma3_bridge",
    "Footnote2Row",
    "footnote2_experiment",
    "MAX_LEVEL",
]

MAX_LEVEL = 6
LOCALIZE_GROUP_GUARD = 10**4  # per-level curve-group enumeration cap


@dataclass(frozen=True)
class LocalizationResult:
    """Per-level output of the localization pipeline at one prime."""

    p: int
    n_max: int
    reduction: ReductionType
    descriptors: tuple  # CKDescriptor per n = 1..n_max
    k0_groups: tuple  # AbelianGroupInv per n
    k0_orders: tuple  # int per n
    curve_counts: tuple  # N_n (good) or #E_ns (bad) per n
    curve_groups: tuple  # AbelianGroupInv or None per n (good p, within guard)
    a_p: Optional[int] = None
    lp: Optional[IntMatrix] = None
    alpha: Optional[int] = None
    exploration: Optional[dict] = None

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
    period: Optional[Sequence[int]] = None,
) -> LocalizationResult:
    """Classify the reduction at p and produce descriptors, K0 data and
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
    levels = range(1, n_max + 1)
    descriptors = tuple(epsilon(p, n, rt.is_good, trace_ap=ap, alpha=rt.alpha) for n in levels)
    orders = tuple(k0_order(d) for d in descriptors)
    counts = tuple(local.point_counts(n_max))
    if rt.is_good and orders != counts:
        raise RuntimeError(f"K0 order must equal the point count: {orders} != {counts} for {e} at p={p}")
    exploration = None
    if period is not None:
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
        k0_groups=tuple(k0_group(d) for d in descriptors),
        k0_orders=orders,
        curve_counts=counts,
        curve_groups=tuple(
            group_structure(local.reduced, n) if rt.is_good and p**n <= LOCALIZE_GROUP_GUARD else None
            for n in levels
        ),
        a_p=ap,
        lp=build_lp(ap, p) if rt.is_good else None,
        alpha=rt.alpha,
        exploration=exploration,
    )


# ---------------------------------------------------------------------------
# transform-invariance checker
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrialRecord:
    trial: int
    u: str
    r: str
    s: str
    t: str
    closure_isomorphic: Optional[bool]
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


@dataclass(frozen=True)
class Theorem1Report:
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


def _p_integral(e: WeierstrassModel, p: int) -> bool:
    return all(a.denominator % p != 0 for a in e.coefficients)


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
        for _ in range(20):
            e2 = transform(e, tr)
            if _p_integral(e2, p):
                break
            tr = _random_transform(rng, p)
        else:
            raise RuntimeError("could not generate a p-integral transform")
        local = local_data(e2, p)
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


# ---------------------------------------------------------------------------
# period-conjugacy chain
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Lemma3Report:
    period_a: tuple
    period_b: tuple
    p: int
    matrix_a: IntMatrix
    matrix_b: IntMatrix
    verdict_status: str
    witness: Optional[IntMatrix]
    reason: Optional[str]
    trace_power_a: Optional[int]
    trace_power_b: Optional[int]
    traces_equal: Optional[bool]
    lp_equal: Optional[bool]
    lp: Optional[IntMatrix]

    def to_json_dict(self) -> dict:
        return {
            "period_a": list(self.period_a),
            "period_b": list(self.period_b),
            "p": self.p,
            "matrix_a": self.matrix_a.to_rows(),
            "matrix_b": self.matrix_b.to_rows(),
            "conjugacy": self.verdict_status,
            "witness": None if self.witness is None else self.witness.to_rows(),
            "reason": self.reason,
            "trace_power_a": self.trace_power_a,
            "trace_power_b": self.trace_power_b,
            "traces_equal": self.traces_equal,
            "lp_equal": self.lp_equal,
            "lp": None if self.lp is None else self.lp.to_rows(),
        }


def lemma3_bridge(period_a: Sequence[int], period_b: Sequence[int], p: int, bound: int = 10) -> Lemma3Report:
    """Similar incidence matrices force equal trace powers and equal
    (trace, p; -1, 0) matrices; the chain is checked step by step.

    Non-conjugate inputs stop at the verdict: the downstream comparisons
    are reported as None rather than being run vacuously.
    """
    a = incidence_matrix(period_a)
    b = incidence_matrix(period_b)
    verdict = conjugacy_test(a, b, bound)
    if verdict.is_conjugate:
        ta = mat_pow(a, p).trace()
        tb = mat_pow(b, p).trace()
        assert ta == tb, "similar matrices must share trace powers"
        lpa = build_lp(ta, p)
        lpb = build_lp(tb, p)
        assert lpa == lpb
        return Lemma3Report(
            period_a=tuple(period_a),
            period_b=tuple(period_b),
            p=p,
            matrix_a=a,
            matrix_b=b,
            verdict_status=verdict.status,
            witness=verdict.witness,
            reason=None,
            trace_power_a=ta,
            trace_power_b=tb,
            traces_equal=True,
            lp_equal=True,
            lp=lpa,
        )
    return Lemma3Report(
        period_a=tuple(period_a),
        period_b=tuple(period_b),
        p=p,
        matrix_a=a,
        matrix_b=b,
        verdict_status=verdict.status,
        witness=None,
        reason=verdict.reason,
        trace_power_a=None,
        trace_power_b=None,
        traces_equal=None,
        lp_equal=None,
        lp=None,
    )


# ---------------------------------------------------------------------------
# footnote-2 experiment
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Footnote2Row:
    n: int
    order_curve: int
    order_k0: int
    curve_factors: tuple
    k0_factors: tuple
    isomorphic: bool

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "order": self.order_curve,
            "curve_factors": list(self.curve_factors),
            "k0_factors": list(self.k0_factors),
            "isomorphic": self.isomorphic,
        }


def footnote2_experiment(e: WeierstrassModel, p: int, n_max: int) -> list:
    """Compare E(F_{p^n}) and K0 invariant factors level by level.

    Orders must agree (that much is the determinant identity and is
    asserted); whether the groups are isomorphic is only reported.
    """
    res = localize(e, p, n_max)
    if not res.reduction.is_good:
        raise ValueError("footnote2_experiment needs a good prime")
    rows = []
    for n in range(1, n_max + 1):
        cg = res.curve_groups[n - 1]
        if cg is None:
            continue
        kg = res.k0_groups[n - 1]
        assert cg.order == res.curve_counts[n - 1]
        assert kg.order == res.k0_orders[n - 1]
        assert cg.order == kg.order, "orders must agree (determinant identity)"
        rows.append(
            Footnote2Row(
                n=n,
                order_curve=cg.order,
                order_k0=kg.order,
                curve_factors=cg.invariant_factors,
                k0_factors=kg.invariant_factors,
                isomorphic=cg.canonical() == kg.canonical(),
            )
        )
    return rows
