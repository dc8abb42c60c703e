"""Cuntz-Krieger K-theory data.

``epsilons`` builds the Cuntz-Krieger matrices of levels 1..n, for
localize, the zeta comparison and the tests alike: L_p^n for the 2x2
companion-style matrix L_p at good primes, one step on four ints per
level, and the 1x1 matrix (1 - alpha^n) at bad primes.  It takes the
prime field whose construction tested p; ``build_lp``, the checked
constructor of L_p alone, tests p itself.  K0 is the cokernel of I
minus the transposed matrix: invariant factors by elimination modulo
the determinant, order via |det|, in closed form at 2x2.  An infinite
K0 is reported as order 0 so the corresponding local factor
degenerates to 1.
"""

from __future__ import annotations

from ._factor import is_prime
from ._frozen import Frozen
from .intmat import IntMatrix, invariant_factors

__all__ = [
    "AbelianGroupInv",
    "build_lp",
    "epsilon",
    "epsilons",
    "k0_group",
    "k0_order",
    "k0_signed_order",
]


class AbelianGroupInv(Frozen):
    """Invariant factors d1 | d2 | ... of a finitely generated abelian
    group; a 0 encodes an infinite cyclic factor (zeros come last)."""

    __slots__ = ("invariant_factors",)
    invariant_factors: tuple

    def __init__(self, invariant_factors: tuple):
        fs = invariant_factors
        if any(d < 0 for d in fs):
            raise ValueError("invariant factors must be nonnegative")
        for a, b in zip(fs, fs[1:]):
            if a == 0 and b != 0:
                raise ValueError("zero factors must come last")
            if a != 0 and b % a != 0:
                raise ValueError(f"divisibility chain violated: {a} does not divide {b}")
        super().__init__(invariant_factors)

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


def build_lp(trace_ap: int, p: int) -> IntMatrix:
    """The 2x2 matrix (trace_ap, p; -1, 0): trace trace_ap, determinant p."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return IntMatrix(2, 2, (trace_ap, p, -1, 0))


def epsilons(field, n_max: int, *, trace_ap: int | None = None, alpha: int | None = None) -> list:
    """Cuntz-Krieger matrices of levels 1..n_max at the prime of ``field``,
    a PrimeField, which tested p when it was built.  Given trace_ap, the
    levels L_p^n, each times L_p = (t, p; -1, 0) stepped on four ints,
    (a, b; c, d) -> (at - b, ap; ct - d, cp); given alpha, the 1x1
    matrices (1 - alpha^n).  Exactly one of the two is given."""
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    if (trace_ap is None) == (alpha is None):
        raise ValueError("give exactly one of trace_ap and alpha")
    if trace_ap is None:
        if alpha not in (-1, 0, 1):
            raise ValueError(f"alpha must be one of -1, 0, 1; got {alpha}")
        return [IntMatrix(1, 1, (1 - alpha**n,)) for n in range(1, n_max + 1)]
    p = field.p
    out = []
    a, b, c, d = 1, 0, 0, 1
    for _ in range(n_max):
        a, b, c, d = a * trace_ap - b, a * p, c * trace_ap - d, c * p
        out.append(IntMatrix._of(2, 2, (a, b, c, d)))
    return out


def epsilon(field, n: int, *, trace_ap: int | None = None, alpha: int | None = None) -> IntMatrix:
    """Cuntz-Krieger matrix of level n alone: the last of ``epsilons``."""
    if n < 1:
        raise ValueError("n must be positive")
    return epsilons(field, n, trace_ap=trace_ap, alpha=alpha)[-1]


def _presentation_matrix(m: IntMatrix) -> IntMatrix:
    # K0 = Z^k / (I - m^t) Z^k
    if not m.is_square:
        raise ValueError(f"Cuntz-Krieger matrix must be square, got {m.rows} x {m.cols}")
    k, e = m.rows, m.entries
    # row i of I - m^t is e[i::k], column i of m, negated, plus 1 at i
    return IntMatrix._of(k, k, tuple([(i == j) - x for i in range(k) for j, x in enumerate(e[i::k])]))


def k0_group(m: IntMatrix) -> AbelianGroupInv:
    """Invariant factors of coker(I - m^t), from ``invariant_factors``."""
    return AbelianGroupInv(invariant_factors(_presentation_matrix(m)))


def k0_signed_order(m: IntMatrix) -> int:
    """det(I - m^t) = det(I - m): |K0| up to sign, 0 when K0 is infinite;
    (1 - a)(1 - d) - bc for a 2x2 m = (a, b; c, d)."""
    if m.rows == m.cols == 2:
        a, b, c, d = m.entries
        return (1 - a) * (1 - d) - b * c
    return _presentation_matrix(m).det()


def k0_order(m: IntMatrix) -> int:
    """|K0| as |det(I - m)|; 0 when the group is infinite."""
    return abs(k0_signed_order(m))
