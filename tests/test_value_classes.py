"""The value classes behave as frozen dataclasses did: keyword and
positional construction with the same defaults, field-wise equality with
instances of the same class only, field-tuple hashing, the
``Name(field=value, ...)`` repr, no assignment or deletion, copy and
pickle, and the same construction errors."""

import copy
import pickle
import re
from fractions import Fraction

import pytest

from nclocal.catalog import CatalogEntry
from nclocal.ck_k0 import AbelianGroupInv
from nclocal.elliptic import (
    AdmissibleTransform,
    LocalData,
    ReductionKind,
    ReductionType,
    WeierstrassModel,
    WInvariants,
    reduce_mod_p,
)
from nclocal.functor import LocalizationResult, Theorem1Report, TrialRecord
from nclocal.intmat import IntMatrix
from nclocal.quadratic_cf import CFExpansion
from nclocal.zeta import LocalFactorReport, TruncatedSeries

from conjugacy_oracle import ConjugacyVerdict

E = WeierstrassModel.over_q(0, 0, 0, -1, 0)
M = IntMatrix(2, 2, (-2, 5, -1, 0))
GOOD = ReductionType(ReductionKind.GOOD)
SERIES = TruncatedSeries((Fraction(1), Fraction(2), Fraction(7, 2)))
TRIAL = TrialRecord(0, "1", "0", "-1", "2", True, True, True)

# every field, by keyword, in __init__ order
FIELDS = [
    (IntMatrix, dict(rows=2, cols=2, entries=(1, 2, 3, 4))),
    (ConjugacyVerdict, dict(status="conjugate", witness=M, reason=None, bound=None)),
    (AbelianGroupInv, dict(invariant_factors=(2, 4))),
    (
        WeierstrassModel,
        dict(a1=Fraction(0), a2=Fraction(0), a3=Fraction(0), a4=Fraction(-1), a6=Fraction(0), field=None),
    ),
    (WInvariants, dict(b2=0, b4=-2, b6=0, b8=-1, c4=48, c6=0, disc=64)),
    (AdmissibleTransform, dict(u=Fraction(2), r=Fraction(1), s=Fraction(0), t=Fraction(-3))),
    (ReductionType, dict(kind=ReductionKind.SPLIT_MULTIPLICATIVE, alpha=1)),
    (LocalData, dict(reduced=reduce_mod_p(E, 5), reduction=GOOD, a_p=-2)),
    (TruncatedSeries, dict(coefficients=(Fraction(1), Fraction(-1, 2)))),
    (
        LocalFactorReport,
        dict(
            p=5, good=True, alpha=None, curve_series=SERIES, torus_series=SERIES, torus_series_signed=None,
            verdict="match", first_mismatch=None,
        ),
    ),
    (CFExpansion, dict(preperiod=(1,), period=(2,))),
    (CatalogEntry, dict(label="cm-4", model=E, cm_discriminant=-4, notes="j = 1728", j=Fraction(1728))),
    (
        LocalizationResult,
        dict(
            p=5, n_max=1, reduction=GOOD, descriptors=(), k0_groups=(AbelianGroupInv((2, 4)),), k0_orders=(8,),
            curve_counts=(8,), curve_groups=(AbelianGroupInv((2, 4)),), a_p=-2, lp=M, alpha=None, exploration=None,
        ),
    ),
    (
        TrialRecord,
        dict(trial=0, u="1", r="0", s="-1", t="2", closure_isomorphic=True, invariant_equal=True, passed=True),
    ),
    (Theorem1Report, dict(p=5, good=True, seed=1, baseline="[[-2,5],[-1,0]]", trials=(TRIAL,), all_passed=True)),
]
IDS = [cls.__name__ for cls, _ in FIELDS]
# the classes that check or convert their input before storing it
CHECKED = {IntMatrix, AbelianGroupInv, AdmissibleTransform, TruncatedSeries, CFExpansion}


def _values(obj, names):
    return tuple(getattr(obj, name) for name in names)


@pytest.mark.parametrize("cls, kwargs", FIELDS, ids=IDS)
class TestParity:
    def test_keyword_and_positional_construction_agree(self, cls, kwargs):
        by_keyword, by_position = cls(**kwargs), cls(*kwargs.values())
        assert by_keyword == by_position
        assert _values(by_keyword, kwargs) == tuple(kwargs.values())

    def test_equality_is_field_wise_and_same_class_only(self, cls, kwargs):
        obj = cls(**kwargs)
        assert obj == cls(**kwargs) and not obj != cls(**kwargs)
        twin = type("Twin", (cls,), {"__slots__": ()})(**kwargs)
        assert obj != twin and twin != obj
        assert obj != tuple(kwargs.values())

    def test_hash_is_that_of_the_field_tuple(self, cls, kwargs):
        obj = cls(**kwargs)
        assert hash(obj) == hash(cls(**kwargs)) == hash(tuple(kwargs.values()))

    def test_repr_names_every_field(self, cls, kwargs):
        fields = ", ".join(f"{name}={value!r}" for name, value in kwargs.items())
        assert repr(cls(**kwargs)) == f"{cls.__name__}({fields})"

    def test_fields_cannot_be_assigned_or_deleted(self, cls, kwargs):
        obj = cls(**kwargs)
        for name in kwargs:
            with pytest.raises(AttributeError):
                setattr(obj, name, None)
            with pytest.raises(AttributeError):
                delattr(obj, name)
        with pytest.raises(AttributeError):
            obj.not_a_field = 1
        assert _values(obj, kwargs) == tuple(kwargs.values())

    def test_copy_and_pickle(self, cls, kwargs):
        obj = cls(**kwargs)
        assert copy.copy(obj) == obj
        assert copy.deepcopy(obj) == obj
        assert pickle.loads(pickle.dumps(obj)) == obj

    def test_bad_arguments_raise_type_error(self, cls, kwargs):
        first, *rest = kwargs
        without_first = {name: kwargs[name] for name in rest}
        for build in (
            lambda: cls(**without_first),
            lambda: cls(**kwargs, not_a_field=1),
            lambda: cls(kwargs[first], **kwargs),
            lambda: cls(*kwargs.values(), None),
        ):
            with pytest.raises(TypeError):
                build()

    def test_only_checking_classes_define_init(self, cls, kwargs):
        assert ("__init__" in cls.__dict__) == (cls in CHECKED)


def test_reprs():
    assert repr(IntMatrix(1, 2, (3, -4))) == "IntMatrix(rows=1, cols=2, entries=(3, -4))"
    assert repr(GOOD) == "ReductionType(kind=<ReductionKind.GOOD: 'good'>, alpha=None)"
    assert repr(TruncatedSeries((1, 2))) == "TruncatedSeries(coefficients=(Fraction(1, 1), Fraction(2, 1)))"


def test_former_defaults():
    assert ConjugacyVerdict(status="unknown") == ConjugacyVerdict("unknown", None, None, None)
    assert WeierstrassModel(a1=0, a2=0, a3=0, a4=-1, a6=0).field is None
    assert ReductionType(kind=ReductionKind.ADDITIVE).alpha is None
    assert LocalData(reduced=E, reduction=GOOD).a_p is None
    short = LocalizationResult(
        p=5, n_max=1, reduction=GOOD, descriptors=(), k0_groups=(), k0_orders=(), curve_counts=(), curve_groups=()
    )
    assert (short.a_p, short.lp, short.alpha, short.exploration) == (None, None, None, None)
    for cls, kwargs in FIELDS:
        required = {name: value for name, value in kwargs.items() if name not in cls._optional}
        assert all(getattr(cls(**required), name) is None for name in cls._optional), cls


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: IntMatrix(0, 1, ()), "matrix dimensions must be positive"),
        (lambda: IntMatrix(1, 2, (1,)), "entries length must equal rows*cols"),
        (lambda: IntMatrix(1, 1, (1.0,)), "entries must be integers"),
        (lambda: AbelianGroupInv((-1,)), "invariant factors must be nonnegative"),
        (lambda: AbelianGroupInv((0, 2)), "zero factors must come last"),
        (lambda: AbelianGroupInv((4, 2)), "divisibility chain violated: 4 does not divide 2"),
        (lambda: AdmissibleTransform(0, 1, 1, 1), "u must be nonzero"),
        (lambda: TruncatedSeries(()), "series needs at least the constant term"),
        (lambda: CFExpansion((), ()), "period must be nonempty"),
        (lambda: CFExpansion((), (0,)), "period entries must be >= 1"),
        (lambda: CFExpansion((1, 0), (1,)), "preperiod entries after a0 must be >= 1"),
        (lambda: CFExpansion((), (2, 1, 2, 1)), "period (2, 1, 2, 1) is not minimal (repeats with length 2)"),
    ],
)
def test_construction_errors(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()
