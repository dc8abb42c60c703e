"""Limits and defaults that the CLI reads before any math runs.

They live apart from the modules that use them, so that building the
argument parser, checking --p and rendering the output import none of
elliptic, functor, quadratic_cf or zeta.  Each of those modules
re-exports its own.
"""

# measured worst cases at each edge, one core of a 2-vCPU VM, Python 3.11
# a_p just below: 0.03 ms per prime on average and 0.07 ms at most from
# the norm equation and a residue symbol, with no scalar multiplication
# (the thirteen catalog curves, 25 primes each, best of 3), up to 0.03 s
# by baby-step giant-step for any other j (y^2 = x^3 + x + 1, 10 primes)
AP_GUARD = 10**12
# most levels of localize and of curve --n
MAX_LEVEL = 6
# series order of zeta when --order is not given
DEFAULT_ORDER = 6
# most strings joined in one str.join, which first makes a sequence of
# every string it is given: the cf display and the JSON int and string lists
JOIN_BLOCK = 4096
