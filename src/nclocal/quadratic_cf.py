"""Quadratic irrationals in exact canonical form, and their continued fractions.

A value (P+sqrt(D))/Q with nonsquare D > 0 is kept in a canonical integer
triple, so equality is triple equality.  Expansions are computed with the
classical integer recurrence.  By Galois's theorem a complete quotient is
purely periodic exactly when it is reduced, an integer test on (P, Q), so
the preperiod ends at the first reduced state and the period runs from
there back to that state.  By his theorem on reversed periods, the
reduced state (P_{i+1}, Q_{i+1}) reversed is (P_{i+1}, Q_i), whose digits
run a_i, a_{i-1}, ...; so P_{i+1} = P_i or Q_{i+1} = Q_i marks a centre
of symmetry of the period, and the expansion mirrors the digits past it
instead of stepping through them.  Everything here is immutable and pure.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import chain, islice
from math import gcd, isqrt, lcm

from ._factor import factorize, squarefree_split
from ._frozen import Frozen
from ._limits import JOIN_BLOCK
from .intmat import IntMatrix, identity

__all__ = [
    "QuadraticIrrational",
    "CFExpansion",
    "cf_expand",
    "is_reduced",
    "incidence_matrix",
    "D_DIGITS_GUARD",
]

# parse refuses a D of more digits before factoring it; Brent's rho on a
# balanced semiprime took up to 0.45 s at 22 digits and 1.0 s at 23-25
D_DIGITS_GUARD = 22

# the state orbit is always finite, but can be long: a whole `cf` run that
# reaches this cap took 0.21-0.32 s and 22 MB on one core of a 2-vCPU VM,
# 0.15-0.19 s of it in cf_expand, which meets no centre of symmetry first
_MAX_CF_STATES = 10**6
_CAP_EXCEEDED = "guard exceeded: continued fraction has more than 10^6 states"


def _canonical(P: int, g: int, Q: int, d: int) -> tuple:
    """The canonical (P, D, Q) of (P + g*sqrt(d))/Q, for g > 0 and d
    squarefree: Q becomes the least multiplier, with the sign of the old
    Q, that clears the denominators of P/Q, g/Q and (g^2*d - P^2)/Q^2."""
    q = abs(Q)
    t = lcm(q // gcd(P, q), q // gcd(g, q), q * q // gcd(g * g * d - P * P, q * q))
    if Q < 0:
        t = -t
    P_t, g_t = P * t // Q, g * t // Q
    D = g_t * g_t * d
    if (D - P_t * P_t) % t:
        from fractions import Fraction

        raise RuntimeError(
            f"canonical form of {Fraction(P, Q)} + {Fraction(g, Q)}*sqrt({d}) is ({P_t}, {D}, {t}),"
            " and Q does not divide D - P^2"
        )
    return P_t, D, t


class QuadraticIrrational(Frozen):
    """The exact value (P+sqrt(D))/Q, canonicalized.

    Canonical form: with value a + b*sqrt(d) (a, b rational, d
    squarefree), Q is the minimal-magnitude integer carrying the sign of
    b such that P = a*Q, D = (b*Q)^2*d are integers and Q | D - P^2.
    The sqrt coefficient in the numerator is always +1; a negative
    irrational part is encoded by Q < 0.  The triple and d, the squarefree
    kernel of D, are the whole state; copy and pickle rebuild from (P, D, Q).
    """

    __slots__ = ("P", "D", "Q", "d")

    def __init__(self, P: int, D: int, Q: int):
        if Q == 0:
            raise ValueError("Q must be nonzero")
        if D <= 0:
            raise ValueError("D must be positive")
        g, d = squarefree_split(D)
        if d == 1:
            raise ValueError(f"D={D} is a perfect square; the value is rational")
        super().__init__(*_canonical(P, g, Q, d), d)

    def __reduce__(self):
        return type(self), (self.P, self.D, self.Q)

    def __float__(self) -> float:
        # int true division is correctly rounded, as float(Fraction) is;
        # a zero P gives Fraction's +0.0, where 0 / -Q would give -0.0
        P, Q, d = self.P, self.Q, self.d
        return (P / Q if P else 0.0) + isqrt(self.D // d) / Q * d**0.5

    def __str__(self) -> str:
        return f"({self.P}+sqrt({self.D}))/{self.Q}"

    __repr__ = __str__

    # compiled by re on the first parse, and cached there: matrix and the
    # --period runs import this module for incidence_matrix alone
    _PATTERNS = (
        r"^\(\s*(?:(-?\d+)\s*\+\s*)?sqrt\(\s*(\d+)\s*\)\s*\)\s*(?:/\s*(-?\d+))?$",
        r"^(?:(-?\d+)\s*\+\s*)?sqrt\(\s*(\d+)\s*\)\s*(?:/\s*(-?\d+))?$",
    )

    @classmethod
    def parse(cls, text: str) -> "QuadraticIrrational":
        """Parse "(P+sqrt(D))/Q"; P, /Q and the parentheses may be omitted.
        D may have at most D_DIGITS_GUARD digits, since it is factored."""
        import re

        for pattern in cls._PATTERNS:
            m = re.match(pattern, text.strip())
            if m:
                if len(m.group(2).lstrip("0")) > D_DIGITS_GUARD:
                    raise ValueError(f"guard exceeded: D has more than {D_DIGITS_GUARD} digits")
                p = int(m.group(1)) if m.group(1) else 0
                d = int(m.group(2))
                q = int(m.group(3)) if m.group(3) else 1
                return cls(p, d, q)
        raise ValueError(f"cannot parse quadratic irrational {text!r}")


class _DigitText(dict):
    """The text of each digit, converted on its first lookup."""

    __slots__ = ()

    def __missing__(self, digit: int) -> str:
        text = self[digit] = str(digit)
        return text


def _display(preperiod: Sequence[int], period: Sequence[int]) -> tuple:
    """"[a0; a1, ..., (b1, ..., bm)]", or "[(b1, ..., bm)]" when purely
    periodic, with the start and stop of the period's text in it: the
    period's digits joined by ", " are display[start:stop].  Each distinct
    digit is converted to text once, in the one walk over the digits: the
    period of (1+sqrt(1000000000039))/1 has 532,572 digits of 1,103
    distinct values.  The digits are joined JOIN_BLOCK at a time, so that
    the display is the only text as long as the period."""
    text = _DigitText().__getitem__
    parts = [f"[{preperiod[0]}; " if preperiod else "["]
    for digits, opening in ((preperiod[1:], ""), (period, "(")):
        parts.append(opening)
        # the text of digits starts here; the period's is the one kept
        start = sum(map(len, parts))
        for i in range(0, len(digits), JOIN_BLOCK):
            parts += (", ".join(map(text, digits[i : i + JOIN_BLOCK])), ", ")
    parts[-1] = ")]"
    display = "".join(parts)
    return display, start, len(display) - 2


def _floor_quadratic(p: int, s: int, q: int) -> int:
    # exact floor of (p + sqrt(d))/q for s = isqrt(d); sqrt(d) irrational
    if q > 0:
        return (p + s) // q
    return -((p + s) // (-q)) - 1


class CFExpansion(Frozen):
    """Eventually periodic continued fraction: preperiod then repeating period.

    The period is minimal as a word; all period entries are >= 1, and so
    is every preperiod entry except the leading a0, which may be any
    integer (negative values have a negative a0).
    """

    __slots__ = ("preperiod", "period")
    preperiod: tuple
    period: tuple

    def __init__(self, preperiod: tuple, period: tuple):
        if not period:
            raise ValueError("period must be nonempty")
        # over the distinct digits: a long period repeats few values
        if min(set(period)) < 1:
            raise ValueError("period entries must be >= 1")
        if any(a < 1 for a in preperiod[1:]):
            raise ValueError("preperiod entries after a0 must be >= 1")
        per, m = period, len(period)
        # a word that is a proper power is a power of prime exponent; its
        # first 8 digits tell most shifts s apart before a whole slice is made
        if any(
            per[s : s + 8] == per[: min(8, m - s)] and per[s:] == per[: m - s]
            for s in (m // ell for ell in factorize(m))
        ):
            k = next(k for k in range(1, m) if m % k == 0 and per[k:] == per[: m - k])
            raise ValueError(f"period {per} is not minimal (repeats with length {k})")
        super().__init__(preperiod, period)

    @property
    def is_purely_periodic(self) -> bool:
        return not self.preperiod

    def __str__(self) -> str:
        """"[a0; a1, ..., (b1, ..., bm)]", or "[(b1, ..., bm)]" when purely
        periodic."""
        return _display(self.preperiod, self.period)[0]


def _reduced(p: int, q: int, s: int) -> bool:
    # (p + sqrt(D))/q > 1 with conjugate in (-1, 0), for s = isqrt(D) and
    # sqrt(D) irrational: q > 0, p < sqrt(D) and sqrt(D) - p < q < sqrt(D) + p
    return 0 < q and p <= s and s - p < q <= s + p


def cf_expand(x: QuadraticIrrational) -> CFExpansion:
    """Continued fraction of x by the integer (P, Q) recurrence.

    By Galois's theorem a complete quotient is purely periodic iff it is
    reduced, so the preperiod ends at the first reduced state and the
    period starts there, at index 0.  A state determines the value, so
    both are minimal.  In the period, Q_{i+1} = Q_{i-1} + a_i (P_i -
    P_{i+1}) replaces the division (D - P_{i+1}^2) / Q_i.

    By Galois's theorem on reversed periods (Perron, Die Lehre von den
    Kettenbruechen), the reduced state (P_{i+1}, Q_{i+1}) reversed is
    (P_{i+1}, Q_i), whose digits run a_i, a_{i-1}, ...  So P_{i+1} = P_i
    makes the period digits symmetric about a_i, a_t = a_{c-t} with
    centre c = 2i, and Q_{i+1} = Q_i makes them symmetric between a_i and
    a_{i+1}, c = 2i + 1.  The loop tests for these two, in this order,
    before the return of the first reduced state.  At the first centre c,
    a_{i+1}..a_c mirror the digits before them.  The first state
    reversed, (P_0, Q_{-1}), is then state c + 1, with Q_c = Q_0; from
    there the loop steps to the second centre c + m, m the period length,
    and mirrors the rest.  A symmetric period thus takes about m/2 steps,
    and one without a centre runs until its first state returns.  An
    expansion of more than _MAX_CF_STATES states, preperiod and period
    together, is refused with ValueError.
    """
    cap = _MAX_CF_STATES
    d = x.D
    s = isqrt(d)
    p, q = x.P, x.Q
    preperiod = []
    while not _reduced(p, q, s):
        a = _floor_quadratic(p, s, q)
        preperiod.append(a)
        p = a * q - p
        q = (d - p * p) // q
        if len(preperiod) > cap:
            raise ValueError(_CAP_EXCEEDED)
    k = len(preperiod)
    p0, q0 = p, q
    # Q_{i-1} Q_i = D - P_i^2 holds at every state, the first one included
    q_back = q_prev = (d - p * p) // q
    period = []
    append = period.append
    for i in range(cap - k):
        # reduced states stay reduced, so q > 0 from here on
        a = (p + s) // q
        append(a)
        p_next = a * q - p
        q_prev, q = q, q_prev + a * (p - p_next)
        if p_next == p or q == q_prev:
            break
        p = p_next
        if p == p0 and q == q0:
            return CFExpansion(tuple(preperiod), tuple(period))
    else:
        raise ValueError(_CAP_EXCEEDED)
    # the first centre c is 2i, or 2i + 1 when only Q repeats; the digits
    # past it mirror all those stepped but a_c when c = 2i
    halves = [_mirrored(period, p_next == p)]
    c = 2 * i + (p_next != p)
    # Q_{-1} = Q_0 makes c = m - 1: the period is its own mirror image
    if q_back != q0:
        # state c + 1 is (P_0, Q_{-1}); the second centre c + m is found at
        # step (c + m) // 2, which a period within the cap reaches
        p, q_prev, q = p0, q0, q_back
        second = []
        append = second.append
        for j in range(c + 1, (c + cap - k) // 2 + 1):
            a = (p + s) // q
            append(a)
            p_next = a * q - p
            q_prev, q = q, q_prev + a * (p - p_next)
            if p_next == p or q == q_prev:
                break
            p = p_next
        else:
            raise ValueError(_CAP_EXCEEDED)
        # the second centre c + m is 2j, or 2j + 1 when only Q repeats
        halves.append(_mirrored(second, p_next == p))
    # the period is built from the stepped digits alone, with no copy of
    # either half next to it
    period = tuple(chain(*halves))
    if k + len(period) > cap:
        raise ValueError(_CAP_EXCEEDED)
    return CFExpansion(tuple(preperiod), period)


def _mirrored(stepped: list, at_digit: bool):
    """The digits of stepped, then the same reversed; without its last
    digit when the centre of symmetry is that digit."""
    return chain(stepped, islice(reversed(stepped), at_digit, None))


def is_reduced(x: QuadraticIrrational) -> bool:
    """Galois criterion: x > 1 and the conjugate lies strictly in (-1, 0)."""
    return _reduced(x.P, x.Q, isqrt(x.D))


def incidence_matrix(period: Sequence[int]) -> IntMatrix:
    """Left-to-right product of (a_i,1;1,0) over the period word."""
    period = list(period)
    if not period:
        raise ValueError("empty period")
    if any(a < 1 for a in period):
        raise ValueError("period entries must be >= 1")
    m = identity(2)
    for a in period:
        m = m * IntMatrix(2, 2, (a, 1, 1, 0))
    return m
