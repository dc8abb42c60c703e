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
from .elliptic import CM_J_INVARIANTS, WeierstrassModel, j_invariant

__all__ = ["CatalogEntry", "load_catalog", "CM_J_INVARIANTS"]

_BUILTIN = [
    {"label": "cm-3", "coefficients": [0, 0, 0, 0, 1], "cm_discriminant": -3, "notes": "y^2 = x^3 + 1, j = 0"},
    {"label": "cm-4", "coefficients": [0, 0, 0, -1, 0], "cm_discriminant": -4, "notes": "y^2 = x^3 - x, j = 1728"},
    {"label": "cm-7", "coefficients": [1, -1, 0, -2, -1], "cm_discriminant": -7, "notes": "conductor 49"},
    {"label": "cm-8", "coefficients": [0, 4, 0, 2, 0], "cm_discriminant": -8, "notes": "conductor 256"},
    {"label": "cm-11", "coefficients": [0, -1, 1, -7, 10], "cm_discriminant": -11, "notes": "conductor 121"},
    {"label": "cm-12", "coefficients": [0, 0, 0, -15, 22], "cm_discriminant": -12, "notes": "order of conductor 2 in Q(sqrt(-3))"},
    {"label": "cm-16", "coefficients": [0, 0, 0, -11, -14], "cm_discriminant": -16, "notes": "order of conductor 2 in Q(i)"},
    {"label": "cm-19", "coefficients": [0, 0, 1, -38, 90], "cm_discriminant": -19, "notes": "conductor 361"},
    {"label": "cm-27", "coefficients": [0, 0, 1, -30, 63], "cm_discriminant": -27, "notes": "order of conductor 3 in Q(sqrt(-3))"},
    {"label": "cm-28", "coefficients": [1, -1, 0, -37, -78], "cm_discriminant": -28, "notes": "order of conductor 2 in Q(sqrt(-7))"},
    {"label": "cm-43", "coefficients": [0, 0, 1, -860, 9707], "cm_discriminant": -43, "notes": "conductor 1849"},
    {"label": "cm-67", "coefficients": [0, 0, 1, -7370, 243528], "cm_discriminant": -67, "notes": "conductor 4489"},
    {"label": "cm-163", "coefficients": [0, 0, 1, -2174420, 1234136692], "cm_discriminant": -163, "notes": "conductor 26569"},
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
