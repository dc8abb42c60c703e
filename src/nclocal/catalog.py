"""Built-in catalog of rational models with complex multiplication.

One integral model per class-number-one CM j-invariant (the thirteen
rational ones).  Every entry is re-verified at load time by recomputing
its j-invariant against the fixed table, so a corrupted catalog file
cannot slip through.
"""

from __future__ import annotations

import json
from fractions import Fraction

from ._frozen import Frozen
from .elliptic import CM_J_INVARIANTS, CM_MODELS, WeierstrassModel, j_invariant

__all__ = ["CatalogEntry", "load_catalog", "CM_J_INVARIANTS"]

# label, discriminant and notes of each entry; the models are elliptic's
# CM_MODELS, whose a_p signs _cm_trace is built on
_BUILTIN = [
    {"label": f"cm-{-d}", "coefficients": list(CM_MODELS[d]), "cm_discriminant": d, "notes": notes}
    for d, notes in (
        (-3, "y^2 = x^3 + 1, j = 0"),
        (-4, "y^2 = x^3 - x, j = 1728"),
        (-7, "conductor 49"),
        (-8, "conductor 256"),
        (-11, "conductor 121"),
        (-12, "order of conductor 2 in Q(sqrt(-3))"),
        (-16, "order of conductor 2 in Q(i)"),
        (-19, "conductor 361"),
        (-27, "order of conductor 3 in Q(sqrt(-3))"),
        (-28, "order of conductor 2 in Q(sqrt(-7))"),
        (-43, "conductor 1849"),
        (-67, "conductor 4489"),
        (-163, "conductor 26569"),
    )
]


class CatalogEntry(Frozen):
    __slots__ = ("label", "model", "cm_discriminant", "notes", "j")
    label: str
    model: WeierstrassModel
    cm_discriminant: int
    notes: str
    j: Fraction

    def to_json_dict(self) -> dict:
        return {
            "label": self.label,
            "coefficients": self.model.coefficient_strings(),
            "cm_discriminant": self.cm_discriminant,
            "j": str(self.j),
            "notes": self.notes,
        }


def _entry_from_record(rec: dict) -> CatalogEntry:
    try:
        label = rec["label"]
        coeffs = rec["coefficients"]
        disc = rec["cm_discriminant"]
        notes = rec.get("notes", "")
    except (KeyError, TypeError) as err:
        raise ValueError(f"malformed catalog record {rec!r}: {err}") from None
    # int() would truncate -4.9 to -4 and read true as 1
    if type(disc) is not int:
        raise ValueError(f"malformed catalog record {rec!r}: cm_discriminant must be an integer")
    if not isinstance(coeffs, list) or len(coeffs) != 5:
        raise ValueError(f"malformed catalog record {rec!r}: coefficients must be a list of 5 numbers")
    model = WeierstrassModel.over_q(*(Fraction(str(c)) for c in coeffs))
    j = j_invariant(model)
    expected = CM_J_INVARIANTS.get(disc)
    if expected is None:
        raise ValueError(f"{label}: {disc} is not a class-number-one CM discriminant")
    if j != expected:
        raise ValueError(f"{label}: recomputed j = {j}, expected {expected} for discriminant {disc}")
    return CatalogEntry(label=label, model=model, cm_discriminant=disc, notes=notes, j=j)


def load_catalog(path: str | None = None) -> list:
    """The built-in catalog, or one read from a JSON file; every entry's
    j-invariant is recomputed and checked against the CM table."""
    if path is None:
        records = _BUILTIN
    else:
        with open(path, "r", encoding="utf-8") as fh:
            records = json.load(fh)
        if not isinstance(records, list):
            raise ValueError("catalog file must hold a JSON array")
    return [_entry_from_record(rec) for rec in records]
