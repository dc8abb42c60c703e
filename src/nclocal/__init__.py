"""Exact-arithmetic toolkit relating elliptic-curve reductions mod p to
Cuntz-Krieger K-theory data, with a local-zeta comparison engine."""

from .ck_k0 import AbelianGroupInv, build_lp, epsilon, epsilons, k0_group, k0_order
from .elliptic import (
    AdmissibleTransform,
    ReductionKind,
    ReductionType,
    WeierstrassModel,
    classify_reduction,
    count_nonsingular,
    count_points,
    group_structure,
    invariants,
    isomorphic_over_closure,
    j_invariant,
    point_counts_via_recurrence,
    reduce_mod_p,
    trace_of_frobenius,
    transform,
)
from .ffield import ExtField, FieldElement, PrimeField, find_irreducible, finite_field, is_square
from .functor import footnote2_experiment, lemma3_bridge, localize, theorem1_check
from .intmat import ConjugacyVerdict, IntMatrix, conjugacy_test, invariant_factors, mat_pow
from .quadratic_cf import (
    CFExpansion,
    QuadraticIrrational,
    boundary_to_theta,
    cf_expand,
    cf_value,
    gl2z_equivalent,
    incidence_matrix,
    is_reduced,
)
from .zeta import TruncatedSeries, curve_local_zeta, lemma1_check, series_exp, series_log, torus_local_zeta

__version__ = "0.1.0"
