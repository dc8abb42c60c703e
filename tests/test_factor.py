"""Primality and factorization of nclocal._factor against trial division
and the strong pseudoprimes psi_k of OEIS A014233."""

from math import prod

from nclocal._factor import _MR_BASES, _PSI, factorize, is_prime

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
