"""Cuntz-Krieger K-theory data.

Builds the defining matrices (a 2x2 companion-style matrix at good
primes, a scalar 1 - alpha^n at bad primes), and computes K0 as the
cokernel of I minus the transposed matrix: invariant factors via Smith
normal form, order via |det|.  An infinite K0 is reported as order 0 so
the corresponding local factor degenerates to 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ._factor import is_prime
from .intmat import IntMatrix, mat_pow, smith_normal_form

__all__ = [
    "CKDescriptor",
    "AbelianGroupInv",
    "build_lp",
    "epsilon",
    "k0_group",
    "k0_order",
    "k0_signed_order",
    "k0_order_sequence",
]


@dataclass(frozen=True)
class AbelianGroupInv:
    """Invariant factors d1 | d2 | ... of a finitely generated abelian
    group; a 0 encodes an infinite cyclic factor (zeros come last)."""

    invariant_factors: tuple

    def __post_init__(self):
        fs = self.invariant_factors
        if any(d < 0 for d in fs):
            raise ValueError("invariant factors must be nonnegative")
        for a, b in zip(fs, fs[1:]):
            if a == 0 and b != 0:
                raise ValueError("zero factors must come last")
            if a != 0 and b % a != 0:
                raise ValueError(f"divisibility chain violated: {a} does not divide {b}")

    @property
    def order(self) -> int:
        """Group order; 0 marks an infinite group."""
        out = 1
        for d in self.invariant_factors:
            if d == 0:
                return 0
            out *= d
        return out

    def canonical(self) -> tuple:
        """Factors with trivial Z/1 components dropped (empty = trivial group)."""
        return tuple(d for d in self.invariant_factors if d != 1)

    def __str__(self) -> str:
        parts = ["Z" if d == 0 else f"Z/{d}" for d in self.canonical()]
        return " x ".join(parts) if parts else "Z/1"


@dataclass(frozen=True)
class CKDescriptor:
    """Defining data of a Cuntz-Krieger algebra in this pipeline.

    kind "matrix" holds L_p^n for a good prime; kind "scalar" holds
    1 - alpha^n for a bad prime.  ``source`` records (p, n, trace) or
    (p, n, alpha).
    """

    kind: str
    matrix: Optional[IntMatrix] = None
    scalar: Optional[int] = None
    source: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind == "matrix":
            if self.matrix is None or not self.matrix.is_square:
                raise ValueError("matrix descriptor requires a square matrix")
        elif self.kind == "scalar":
            if self.scalar is None:
                raise ValueError("scalar descriptor requires a value")
        else:
            raise ValueError(f"unknown descriptor kind {self.kind!r}")


def build_lp(trace_ap: int, p: int) -> IntMatrix:
    """The 2x2 matrix (trace_ap, p; -1, 0): trace trace_ap, determinant p."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return IntMatrix(2, 2, (trace_ap, p, -1, 0))


def epsilon(p: int, n: int, good: bool, *, trace_ap: Optional[int] = None, alpha: Optional[int] = None) -> CKDescriptor:
    """Descriptor for level n: L_p^n at a good prime, 1 - alpha^n at a bad one."""
    if n < 1:
        raise ValueError("n must be positive")
    if good:
        if trace_ap is None:
            raise ValueError("good prime requires trace_ap")
        lp = build_lp(trace_ap, p)
        return CKDescriptor(
            kind="matrix", matrix=mat_pow(lp, n), source={"p": p, "n": n, "trace_ap": trace_ap}
        )
    if alpha not in (-1, 0, 1):
        raise ValueError(f"alpha must be one of -1, 0, 1; got {alpha}")
    return CKDescriptor(
        kind="scalar", scalar=1 - alpha**n, source={"p": p, "n": n, "alpha": alpha}
    )


def _presentation_matrix(eps: CKDescriptor) -> IntMatrix:
    # K0 = Z^k / (I - eps^t) Z^k; scalars are 1x1
    if eps.kind == "scalar":
        return IntMatrix(1, 1, (1 - eps.scalar,))
    m, k = eps.matrix, eps.matrix.rows
    return IntMatrix(k, k, tuple((i == j) - m.at(j, i) for i in range(k) for j in range(k)))


def k0_group(eps: CKDescriptor) -> AbelianGroupInv:
    """Invariant factors of coker(I - eps^t) via Smith normal form."""
    m = _presentation_matrix(eps)
    _, s, _ = smith_normal_form(m)
    return AbelianGroupInv(tuple(s.at(i, i) for i in range(m.rows)))


def k0_signed_order(eps: CKDescriptor) -> int:
    """det(I - eps^t) = det(I - eps): |K0| up to sign, 0 when K0 is infinite."""
    return _presentation_matrix(eps).det()


def k0_order(eps: CKDescriptor) -> int:
    """|K0| as |det(I - eps)|; 0 when the group is infinite."""
    return abs(k0_signed_order(eps))


def k0_order_sequence(
    p: int, n_max: int, good: bool, *, trace_ap: Optional[int] = None, alpha: Optional[int] = None
) -> list:
    """[|K0| at n=1..n_max], one descriptor per level."""
    return [
        k0_order(epsilon(p, n, good, trace_ap=trace_ap, alpha=alpha)) for n in range(1, n_max + 1)
    ]
