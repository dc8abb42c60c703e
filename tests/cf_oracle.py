"""Independent oracles for nclocal.quadratic_cf.

``expand_by_repetition`` is the continued-fraction expansion that
cf_expand used before it applied Galois's test: every (P, Q) state goes
into a dict, and the first state seen twice starts the period.  It knows
nothing of reducedness, so it checks the preperiod and period that
cf_expand finds from the first reduced state.  ``reduced_by_comparison``
is the Galois criterion read off exact comparisons of the value and its
conjugate with rationals, sharing no code with the integer test.

The value views of a canonical triple (``value_pair``, ``conjugate``,
``compare_to``, ``plus_reciprocal``, ``from_value_pair``), the digit
stream of an expansion, the boundary map ``boundary_to_theta`` and
Serret's ``gl2z_equivalent`` serve only the tests, so they live here as
functions.  ``cf_value`` folds an expansion back into its exact value,
and ``convergents`` lists its first convergents.
``cf_value(cf_expand(x)) == x`` is a round trip that shares no step with
the expansion.

``FractionQuadratic`` is QuadraticIrrational as it was before its state
became the integer triple alone: it canonicalizes the value pair
a + b*sqrt(d) with Fraction arithmetic and keeps that pair for its
views.  With ``fraction_cf_value`` it is the oracle of the integer
canonical form and of the views on triples.
"""

from fractions import Fraction
from math import isqrt, lcm

from conjugacy_oracle import cyclically_equivalent
from nclocal._factor import squarefree_split
from nclocal._frozen import Frozen
from nclocal.quadratic_cf import QuadraticIrrational, _canonical, cf_expand, incidence_matrix


def _of(P, D, Q, d):
    """The QuadraticIrrational of a triple already canonical, with the
    squarefree kernel d of D, without factoring D again."""
    x = QuadraticIrrational.__new__(QuadraticIrrational)
    Frozen.__init__(x, P, D, Q, d)
    return x


def from_value_pair(a, b, d):
    """The QuadraticIrrational a + b*sqrt(d), for rational a and b (int
    or Fraction) and squarefree d."""
    if b == 0:
        raise ValueError("value is rational")
    if squarefree_split(d) != (1, d) or d == 1:
        raise ValueError("d must be squarefree and > 1")
    (an, ad), (bn, bd) = a.as_integer_ratio(), b.as_integer_ratio()
    # a + b*sqrt(d) = (an*bd + |bn|*ad*sqrt(d)) / (ad*bd), b's sign in Q
    s = 1 if bn > 0 else -1
    return _of(*_canonical(s * an * bd, abs(bn) * ad, s * ad * bd, d), d)


def value_pair(x):
    """(a, b, d) with x = a + b*sqrt(d), d squarefree."""
    return Fraction(x.P, x.Q), Fraction(isqrt(x.D // x.d), x.Q), x.d


def conjugate(x):
    """The algebraic conjugate (P-sqrt(D))/Q."""
    return _of(-x.P, x.D, -x.Q, x.d)


def compare_to(x, q):
    """Exact sign of (x - q) for rational q: -1, or +1 (never 0)."""
    n, m = q.as_integer_ratio()
    # x - q = (s + m*sqrt(D)) / (m*Q) with m > 0, and s + m*sqrt(D)
    # is negative iff s < 0 and s^2 > m^2*D (never equal: D is no square)
    s = m * x.P - n * x.Q
    sign = -1 if s < 0 and s * s > m * m * x.D else 1
    return sign if x.Q > 0 else -sign


def plus_reciprocal(x, a):
    """a + 1/x, where 1/x = (-P+sqrt(D))/((D-P^2)/Q) is the step of
    cf_expand run backwards: canonical triples stay canonical, D fixed."""
    q = (x.D - x.P * x.P) // x.Q
    return _of(a * q - x.P, x.D, q, x.d)


def digits(exp):
    """Infinite digit stream a0, a1, ... of a CFExpansion."""
    yield from exp.preperiod
    while True:
        yield from exp.period


def boundary_to_theta(x):
    """The boundary parameterization |x|/(1+|x|), exactly; it lands in (0, 1)."""
    # -x = (P+sqrt(D))/(-Q), and |x|/(1+|x|) = 0 + 1/(1 + 1/|x|)
    y = x if compare_to(x, 0) > 0 else _of(x.P, x.D, -x.Q, x.d)
    return plus_reciprocal(plus_reciprocal(y, 1), 0)


def gl2z_equivalent(x, y):
    """Serret's criterion: equivalent under integer Moebius maps of
    determinant +-1 iff the minimal periods are cyclic shifts."""
    return cyclically_equivalent(cf_expand(x).period, cf_expand(y).period) is not None


def expand_by_repetition(x):
    """(preperiod, period) of x, from the first repeated (P, Q) state; the
    period is cut down to its shortest repeating divisor."""
    d = x.D
    s = isqrt(d)
    seen = {}
    digits = []
    p, q = x.P, x.Q
    while (p, q) not in seen:
        seen[(p, q)] = len(digits)
        a = (p + s) // q if q > 0 else -((p + s) // -q) - 1
        digits.append(a)
        p = a * q - p
        q = (d - p * p) // q
    k = seen[(p, q)]
    pre, per = digits[:k], digits[k:]
    m = len(per)
    for w in range(1, m):
        if m % w == 0 and all(per[i] == per[i % w] for i in range(m)):
            per = per[:w]
            break
    return tuple(pre), tuple(per)


def cf_value(exp):
    """Exact value of an eventually periodic continued fraction.

    The purely periodic tail is the attracting fixed point of the
    incidence matrix acting as a Moebius map; the preperiod folds back
    as x = a + 1/y on canonical triples.
    """
    p, q, r, s = incidence_matrix(exp.period).entries
    # tail solves r*t^2 + (s-p)*t - q = 0; take the positive root
    x = QuadraticIrrational(p - s, (p - s) ** 2 + 4 * r * q, 2 * r)
    for digit in reversed(exp.preperiod):
        x = plus_reciprocal(x, digit)
    return x


def convergents(exp, count):
    """First ``count`` convergents p_n/q_n as exact fractions."""
    out = []
    p_prev, p_cur = 0, 1
    q_prev, q_cur = 1, 0
    for a, _ in zip(digits(exp), range(count)):
        p_prev, p_cur = p_cur, a * p_cur + p_prev
        q_prev, q_cur = q_cur, a * q_cur + q_prev
        out.append(Fraction(p_cur, q_cur))
    return out


def reduced_by_comparison(x):
    """x > 1 and the conjugate lies strictly in (-1, 0), by exact comparison."""
    if compare_to(x, 1) <= 0:
        return False
    conj = conjugate(x)
    return compare_to(conj, -1) > 0 and compare_to(conj, 0) < 0


class FractionQuadratic:
    """(P+sqrt(D))/Q canonicalized through its Fraction pair (a, b, d)."""

    def __init__(self, P, D, Q):
        if Q == 0:
            raise ValueError("Q must be nonzero")
        if D <= 0:
            raise ValueError("D must be positive")
        g, d = squarefree_split(D)
        if d == 1:
            raise ValueError(f"D={D} is a perfect square; the value is rational")
        self._init_from_pair(Fraction(P, Q), Fraction(g, Q), d)

    def _init_from_pair(self, a, b, d):
        c = b * b * d - a * a
        t = lcm(a.denominator, b.denominator, c.denominator)
        if b < 0:
            t = -t
        self._a, self._b, self._d = a, b, d
        self.P = int(a * t)
        self.Q = t
        bt = int(b * t)
        self.D = bt * bt * d
        if (self.D - self.P * self.P) % self.Q:
            raise RuntimeError(
                f"canonical form of {a} + {b}*sqrt({d}) is ({self.P}, {self.D}, {self.Q}),"
                " and Q does not divide D - P^2"
            )

    @classmethod
    def from_value_pair(cls, a, b, d):
        if b == 0:
            raise ValueError("value is rational")
        if squarefree_split(d) != (1, d) or d == 1:
            raise ValueError("d must be squarefree and > 1")
        self = cls.__new__(cls)
        self._init_from_pair(Fraction(a), Fraction(b), d)
        return self

    @property
    def triple(self):
        return self.P, self.D, self.Q

    def value_pair(self):
        return self._a, self._b, self._d

    def conjugate(self):
        return FractionQuadratic.from_value_pair(self._a, -self._b, self._d)

    def compare_to(self, q):
        s = self._a - Fraction(q)
        b, d = self._b, self._d
        if s == 0:
            return 1 if b > 0 else -1
        if s > 0 and b > 0:
            return 1
        if s < 0 and b < 0:
            return -1
        # opposite signs: the larger square magnitude wins
        if s > 0:
            return 1 if s * s > b * b * d else -1
        return 1 if b * b * d > s * s else -1

    def __float__(self):
        return float(self._a) + float(self._b) * self._d ** 0.5


def _recip(pair):
    a, b, d = pair
    norm = a * a - b * b * d
    return (a / norm, -b / norm, d)


def fraction_cf_value(exp):
    """The value of a CFExpansion, its preperiod folded back as x = a + 1/y
    on Fraction pairs."""
    p, q, r, s = incidence_matrix(exp.period).entries
    tail = FractionQuadratic(p - s, (p - s) ** 2 + 4 * r * q, 2 * r)
    a, b, d = tail.value_pair()
    for digit in reversed(exp.preperiod):
        a, b, d = _recip((a, b, d))
        a += digit
    return FractionQuadratic.from_value_pair(a, b, d)
