"""Exact-arithmetic toolkit relating elliptic-curve reductions mod p to
Cuntz-Krieger K-theory data, with a local-zeta comparison engine.

The public names below are loaded on first use (PEP 562), so that a CLI
run imports only the modules its subcommand needs."""

_EXPORTS = {
    "ck_k0": ("AbelianGroupInv", "build_lp", "epsilon", "epsilons", "k0_group", "k0_order"),
    "elliptic": (
        "AdmissibleTransform",
        "ReductionKind",
        "ReductionType",
        "WeierstrassModel",
        "classify_reduction",
        "count_nonsingular",
        "count_points",
        "group_structure",
        "invariants",
        "isomorphic_over_closure",
        "j_invariant",
        "point_counts_via_recurrence",
        "reduce_mod_p",
        "trace_of_frobenius",
        "transform",
    ),
    "ffield": ("ExtField", "FieldElement", "PrimeField", "find_irreducible", "finite_field", "is_square"),
    "functor": ("localize", "theorem1_check"),
    "intmat": ("IntMatrix", "invariant_factors", "mat_pow"),
    "quadratic_cf": ("CFExpansion", "QuadraticIrrational", "cf_expand", "incidence_matrix", "is_reduced"),
    "zeta": ("TruncatedSeries", "lemma1_check"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted(set(globals()) | set(__all__))
