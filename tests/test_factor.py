"""Primality, factorization and squarefree decomposition of
nclocal._factor against trial division and the strong pseudoprimes psi_k
of OEIS A014233."""

from math import isqrt, prod

import pytest

import nclocal._factor
from nclocal._factor import _MR_BASES, _PSI, _trial_divide, factorize, is_prime, squarefree_split

# the distinct psi_k and their prime factors
PSI_FACTORS = {
    2047: (23, 89),
    1373653: (829, 1657),
    25326001: (2251, 11251),
    3215031751: (151, 751, 28351),
    2152302898747: (6763, 10627, 29947),
    3474749660383: (1303, 16927, 157543),
    341550071728321: (10670053, 32010157),
    3825123056546413051: (149491, 747451, 34233211),
    318665857834031151167461: (399165290221, 798330580441),
    3317044064679887385961981: (1287836182261, 2575672364521),
}
PSI_13 = 3317044064679887385961981


def trial_division_is_prime(n: int) -> bool:
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def strong_probable_prime(n: int, a: int) -> bool:
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def test_agrees_with_trial_division_below_10_to_the_5():
    # below 41^2 trial division alone decides; above it Miller-Rabin runs
    # one base up to psi_1 = 2047 and two up to 10^5
    assert [n for n in range(10**5) if is_prime(n)] == [n for n in range(10**5) if trial_division_is_prime(n)]


def test_the_table_is_a014233():
    # psi_k is composite, passes the first k bases, and fails the next one
    # where psi_(k+1) is larger: so the table is what is_prime may rely on
    assert len(_PSI) == len(_MR_BASES) == 13 and list(_PSI) == sorted(_PSI) and set(_PSI) == set(PSI_FACTORS)
    for k, psi in enumerate(_PSI, 1):
        assert prod(PSI_FACTORS[psi]) == psi
        assert all(strong_probable_prime(psi, a) for a in _MR_BASES[:k]), k
        if k < len(_PSI) and _PSI[k] > psi:
            assert not strong_probable_prime(psi, _MR_BASES[k]), k


def test_psi_1_to_psi_12_are_composite_and_factor():
    # psi_12 passes all twelve bases up to 37; the thirteenth, 41, exposes it
    for psi in _PSI[:12]:
        assert not is_prime(psi), psi
        assert factorize(psi) == dict.fromkeys(PSI_FACTORS[psi], 1), psi
        assert all(is_prime(f) for f in PSI_FACTORS[psi])
    assert _PSI[12] == PSI_13


def test_known_primes_and_composites_across_the_sizes():
    primes = [41, 1669, 1693, 10007, 999983, 999999999989, 2**31 - 1, 2**61 - 1, 2**64 - 59]
    composites = [41 * 41, 41 * 43, 1009 * 1013, 561, 41041, 825265, 2**32 + 1, 2**64 + 1, 2**67 - 1]
    assert all(is_prime(p) for p in primes)
    assert not any(is_prime(n) for n in composites)


def trial_division_factors(n: int) -> dict:
    out: dict = {}
    f = 2
    while f * f <= n:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def test_factorize_and_squarefree_split_agree_with_brute_force_below_2_10_to_the_4():
    bound = 2 * 10**4
    # the largest g with g^2 | n, from every multiple of every square
    root = [1] * bound
    for g in range(2, isqrt(bound - 1) + 1):
        for n in range(g * g, bound, g * g):
            root[n] = g
    for n in range(1, bound):
        factors = trial_division_factors(n)
        assert factorize(n) == factors, n
        assert squarefree_split(n) == (root[n], n // root[n] ** 2), n


# factors in (10^4, 10^5) are past the trial division and come from rho
P, Q, R = 10007, 10009, 99991
M61 = 2**61 - 1


@pytest.mark.parametrize(
    "n, factors, split",
    [
        (P * R, {P: 1, R: 1}, (1, P * R)),
        (P * M61, {P: 1, M61: 1}, (1, P * M61)),
        (P * Q * R, {P: 1, Q: 1, R: 1}, (1, P * Q * R)),
        (P * P * R, {P: 2, R: 1}, (P, R)),
        (P * Q * M61 * M61, {P: 1, Q: 1, M61: 2}, (M61, P * Q)),
        (2**3 * 3 * P * Q * Q * R, {2: 3, 3: 1, P: 1, Q: 2, R: 1}, (2 * Q, 2 * 3 * P * R)),
    ],
)
def test_smallest_prime_past_the_trial_division(n, factors, split):
    assert prod(p**e for p, e in factors.items()) == n
    assert factorize(n) == factors
    assert squarefree_split(n) == split


def test_the_trial_division_stops_at_its_bound():
    # 9973 is the largest prime below 10^4: trial division finds it, and
    # leaves the rest whole, prime or not
    assert _trial_divide(9973 * P * R) == ({9973: 1}, P * R)
    assert _trial_divide(2 * 3 * 9973 * 9973 * P) == ({2: 1, 3: 1, 9973: 2}, P)


# F_300 and its factorization, five of its primes past 10^4
F_300 = 222232244629420445529739893461909967206666939096499764990979600
F_300_FACTORS = {
    2: 4, 3: 2, 5: 2, 11: 1, 31: 1, 41: 1, 61: 1, 101: 1, 151: 1, 401: 1, 601: 1, 2521: 1, 3001: 1,
    12301: 1, 18451: 1, 570601: 1, 230686501: 1, 87129547172401: 1,
}
M127 = 2**127 - 1


def test_squareful_inputs():
    assert prod(p**e for p, e in F_300_FACTORS.items()) == F_300
    expected = {p: 2 * e for p, e in F_300_FACTORS.items()}
    expected[5] += 1
    assert factorize(5 * F_300**2) == expected


def test_a_square_rest_needs_no_rho(monkeypatch):
    # the rest past the trial division is a perfect square, and its root
    # joins g unfactored: for 5 * F_300^2 a composite of 37 digits
    def no_rho(n):
        raise AssertionError(f"rho called on {n}")

    monkeypatch.setattr(nclocal._factor, "_brent_rho", no_rho)
    assert squarefree_split(5 * F_300**2) == (F_300, 5)
    assert squarefree_split(3 * M127**2) == (M127, 3)
    assert squarefree_split(7 * P**2 * R**2) == (P * R, 7)
    assert factorize(3 * M127**2) == {3: 1, M127: 2}
