"""GL(2,Z) conjugacy of 2x2 integer matrices, for tests.

The paper's Lemma 3 says that the incidence matrices of two periods
that are cyclic shifts of each other are similar over GL(2,Z), so they
share tr(A^p) and the matrix (tr(A^p), p; -1, 0).  No CLI command runs
that chain; acceptance criterion 4 checks it with ``conjugacy_test``,
and ``brute_force_conjugator`` is the exhaustive oracle of the
word-based decision.
"""

from collections.abc import Iterator, Sequence

from nclocal._frozen import Frozen
from nclocal.intmat import IntMatrix, identity
from nclocal.quadratic_cf import incidence_matrix


class ConjugacyVerdict(Frozen):
    """Tri-state outcome of a GL(2,Z) conjugacy test.

    ``status`` is one of "conjugate", "not_conjugate", "unknown".  A
    conjugate verdict carries an exactly verified witness B with
    B*A*B^-1 = A'; a negative verdict carries the distinguishing
    invariant; unknown carries the exhausted search bound.
    """

    __slots__ = ("status", "witness", "reason", "bound")
    _optional = ("witness", "reason", "bound")
    status: str
    witness: IntMatrix | None
    reason: str | None
    bound: int | None

    @property
    def is_conjugate(self) -> bool:
        return self.status == "conjugate"


def word_of_matrix(m: IntMatrix) -> tuple | None:
    """Recover the factorization m = prod (a_i,1;1,0) with a_i >= 1, if any.

    Returns the word as a tuple, or None when m is not such a product
    (the empty product, i.e. the identity, also returns None).  The word
    is unique once the determinant fixes the length parity.
    """
    if m.rows != 2 or m.cols != 2:
        return None
    p, q, r, s = m.entries
    if min(p, q, r, s) < 0 or r == 0 or q == 0:
        return None
    det = p * s - q * r
    if det not in (1, -1):
        return None
    if p < r:
        return None
    # continued-fraction digits of p/r determine the word up to the
    # trailing [a] vs [a-1,1] ambiguity; parity of the length picks one
    x, y = p, r
    digits = []
    while y:
        a, rem = divmod(x, y)
        digits.append(a)
        x, y = y, rem
    candidates = [digits]
    if digits[-1] >= 2:
        candidates.append(digits[:-1] + [digits[-1] - 1, 1])
    for word in candidates:
        if any(a < 1 for a in word):
            continue
        if det != (-1) ** len(word):
            continue
        if incidence_matrix(word) == m:
            return tuple(word)
    return None


def cyclically_equivalent(w1: Sequence[int], w2: Sequence[int]) -> int | None:
    """Return a shift k with w2 == w1[k:]+w1[:k], or None."""
    w1, w2 = list(w1), list(w2)
    if len(w1) != len(w2):
        return None
    for k in range(len(w1)):
        if w1[k:] + w1[:k] == w2:
            return k
    return None


def unimodular_2x2(bound: int) -> Iterator[IntMatrix]:
    """All 2x2 integer matrices with entries in [-bound, bound] and det +-1,
    in a fixed deterministic order."""
    rng = range(-bound, bound + 1)
    for a in rng:
        for b in rng:
            for c in rng:
                for d in rng:
                    if a * d - b * c in (1, -1):
                        yield IntMatrix(2, 2, (a, b, c, d))


def brute_force_conjugator(a: IntMatrix, a2: IntMatrix, bound: int) -> IntMatrix | None:
    """Exhaustive oracle: first unimodular B with entries <= bound and
    B*a = a2*B, else None.  Independent of the word-based decision path."""
    if not (a.rows == a.cols == 2 and a2.rows == a2.cols == 2):
        raise ValueError("brute_force_conjugator expects 2x2 matrices")
    for b in unimodular_2x2(bound):
        if b * a == a2 * b:
            return b
    return None


def _inverse_unimodular_2x2(b: IntMatrix) -> IntMatrix:
    a, bb, c, d = b.entries
    det = a * d - bb * c
    if det not in (1, -1):
        raise ValueError("matrix is not unimodular")
    # adjugate divided by det; det is +-1 so the inverse stays integral
    return IntMatrix(2, 2, (d * det, -bb * det, -c * det, a * det))


def _verified_conjugate(b: IntMatrix, a: IntMatrix, a2: IntMatrix) -> ConjugacyVerdict:
    if b.det() not in (1, -1):
        raise RuntimeError(f"conjugacy witness B = {b.to_rows()} has det {b.det()}, not +-1")
    if b * a != a2 * b:
        raise RuntimeError(
            f"conjugacy witness B = {b.to_rows()} fails B*A = A'*B for A = {a.to_rows()}, A' = {a2.to_rows()}"
        )
    return ConjugacyVerdict(status="conjugate", witness=b)


def conjugacy_test(a: IntMatrix, a2: IntMatrix, bound: int = 10) -> ConjugacyVerdict:
    """Decide GL(2,Z) conjugacy of two 2x2 integer matrices.

    Trace or determinant mismatch settles the negative case.  When both
    matrices factor as products of (a_i,1;1,0) the decision is exact:
    conjugate iff the factor words are cyclic shifts (witness built from
    the shift).  Otherwise an exhaustive search over unimodular
    conjugators with entries up to ``bound`` runs; exhaustion without a
    witness yields an "unknown" verdict, never a negative one.
    """
    if not (a.rows == a.cols == 2 and a2.rows == a2.cols == 2):
        raise ValueError("conjugacy_test expects 2x2 matrices")
    if a == a2:
        return _verified_conjugate(identity(2), a, a2)
    if a.trace() != a2.trace():
        return ConjugacyVerdict(
            status="not_conjugate", reason=f"trace mismatch: {a.trace()} vs {a2.trace()}"
        )
    if a.det() != a2.det():
        return ConjugacyVerdict(
            status="not_conjugate", reason=f"determinant mismatch: {a.det()} vs {a2.det()}"
        )
    w1 = word_of_matrix(a)
    w2 = word_of_matrix(a2)
    if w1 is not None and w2 is not None:
        shift = cyclically_equivalent(w1, w2)
        if shift is None:
            return ConjugacyVerdict(
                status="not_conjugate",
                reason=f"cyclic-period mismatch: {list(w1)} vs {list(w2)}",
            )
        # shift >= 1: a word determines its matrix, and a == a2 returned above
        prefix = incidence_matrix(w1[:shift])
        return _verified_conjugate(_inverse_unimodular_2x2(prefix), a, a2)
    found = brute_force_conjugator(a, a2, bound)
    if found is not None:
        return _verified_conjugate(found, a, a2)
    return ConjugacyVerdict(status="unknown", bound=bound)
