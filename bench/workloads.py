"""Seeded job batches for the four workloads.

A workload is a timed batch of CLI jobs plus a few untimed edge jobs at
the top of the batch's own input ranges.  The seed draws every input;
what it does not draw is the amount of work, which is pinned per slot so
that two seeds cost the same to within a few percent:

* curves enter as random isomorphic integral models of the built-in CM
  catalog curves (u = +-1, integer r, s, t), which keeps the discriminant,
  the reduction types and every group structure of the base curve while
  changing the coefficients the program sees;
* primes and range ends are jittered by a few percent around a fixed
  ladder;
* quadratic irrationals are random GL(2,Z) images of sqrt(D) for D drawn
  from small pools whose continued-fraction periods have nearly equal
  length, so the expansion work is the same for every draw.

The output of a job depends only on its argv, so every job carries the
context its identity checks need (see verify.py).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from math import log10

from verify import incidence, primes_upto

# the built-in CM catalog of nclocal.catalog, one integral model per
# class-number-one j-invariant
CATALOG = {
    "cm-3": (0, 0, 0, 0, 1),
    "cm-4": (0, 0, 0, -1, 0),
    "cm-7": (1, -1, 0, -2, -1),
    "cm-8": (0, 4, 0, 2, 0),
    "cm-11": (0, -1, 1, -7, 10),
    "cm-12": (0, 0, 0, -15, 22),
    "cm-16": (0, 0, 0, -11, -14),
    "cm-19": (0, 0, 1, -38, 90),
    "cm-27": (0, 0, 1, -30, 63),
    "cm-28": (1, -1, 0, -37, -78),
    "cm-43": (0, 0, 1, -860, 9707),
    "cm-67": (0, 0, 1, -7370, 243528),
    "cm-163": (0, 0, 1, -2174420, 1234136692),
}

# D with sqrt(D) periods of nearly equal length (in parentheses) per decade
CF_POOLS = (
    (1000000123, 1000000207, 1000000787),  # 24638, 24564, 24318
    (10000000259, 10000000391, 10000000991),  # 78662, 78444, 78468
    (100000000211, 100000000367, 100000000487),  # 220482, 218380, 215456
    (1000000000039, 1000000000787, 1000000001123),  # 532572, 547242, 536218
)
# (1 + sqrt(D)) / 2 has a period of more than 5 * 10^6 states
CF_EDGE_D = 1234567890123457
# Python refuses to print integers of more than 4300 digits
INT_STR_DIGITS = 4300

# ext_levels slots: (catalog label, command, p, level); each fixes the
# group structures that the program enumerates
EXT_SLOTS = (
    ("cm-12", "localize", 5, 5),
    ("cm-27", "localize", 7, 4),
    ("cm-11", "curve", 31, 2),
    ("cm-3", "curve", 23, 2),
)


@dataclass(frozen=True)
class Job:
    args: tuple  # argv after "python -m nclocal.cli"
    ctx: dict = field(default_factory=dict, compare=False)

    @property
    def command(self) -> str:
        return self.args[0]

    def __str__(self) -> str:
        return "nclocal " + " ".join(a if " " not in a else repr(a) for a in self.args)


@dataclass(frozen=True)
class Workload:
    batch: tuple  # timed, every job is expected to pass
    edges: tuple  # untimed, run once per run


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    while not is_prime(n):
        n += 1
    return n


def jitter(rng: random.Random, value: int, share: float = 0.03) -> int:
    return round(value * (1 + rng.uniform(-share, share)))


def isomorphic_model(rng: random.Random, label: str) -> list:
    """A random integral model isomorphic over Q to the catalog curve:
    u = +-1 and r, s, t in [-9, 9] (Silverman III.1.2), so the discriminant
    and every reduction are those of the base model."""
    a1, a2, a3, a4, a6 = CATALOG[label]
    u = rng.choice((1, -1))
    r, s, t = (rng.randint(-9, 9) for _ in range(3))
    return [
        (a1 + 2 * s) * u,
        a2 - s * a1 + 3 * r - s * s,
        (a3 + r * a1 + 2 * t) * u,
        a4 - s * a3 + 2 * r * a2 - (t + r * s) * a1 + 3 * r * r - 2 * s * t,
        a6 + r * a4 + r * r * a2 + r**3 - t * a3 - t * t - r * t * a1,
    ]


def model_arg(model: list) -> str:
    return "[" + ",".join(str(c) for c in model) + "]"


def random_word(rng: random.Random, lo: int, hi: int) -> list:
    return [rng.randint(1, 9) for _ in range(rng.randint(lo, hi))]


def gl2_image(rng: random.Random, P: int, D: int, Q: int) -> tuple:
    """(P, Q) of x -> k + 1/x applied a few times: a GL(2,Z) image of
    (P + sqrt(D)) / Q with the same period, keeping Q | D - P^2."""
    for _ in range(rng.randint(2, 4)):
        P, Q = -P, (D - P * P) // Q
        P += rng.randint(1, 9) * Q
    return P, Q


def cf_job(P: int, D: int, Q: int) -> Job:
    return Job(("cf", f"({P}+sqrt({D}))/{Q}"), {"P": P, "D": D, "Q": Q})


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def zeta_sweep(rng: random.Random) -> Workload:
    """Lemma-1 tables over full prime ranges 2..N: per-prime fixed costs."""
    # range ends near one size, so that the pairing of orders with ranges
    # leaves the series work unchanged
    orders = [6, 8, 10, 12]
    rng.shuffle(orders)
    batch = []
    for order in orders:
        n_top = jitter(rng, 1100, 0.02)
        model = isomorphic_model(rng, rng.choice(sorted(CATALOG)))
        batch.append(
            Job(
                ("zeta", "--model", model_arg(model), "--primes", f"2..{n_top}", "--order", str(order)),
                {"model": model, "order": order, "primes": primes_upto(n_top)},
            )
        )
    rng.shuffle(batch)
    # exploration mode at the top prime and order of the sweep
    p_top = max(job.ctx["primes"][-1] for job in batch)
    model = isomorphic_model(rng, rng.choice(sorted(CATALOG)))
    word = random_word(rng, 2, 4)
    edge = Job(
        ("zeta", "--model", model_arg(model), "--primes", str(p_top), "--order", "12",
         "--period", ",".join(map(str, word))),
        {"model": model, "order": 12, "primes": [p_top], "exploration": True},
    )
    return Workload(tuple(batch), (edge,))


def large_p(rng: random.Random) -> Workload:
    """Prime-field counting at p of 1.2*10^5 and 2.1*10^5, on both sides of
    the counter's square-table limit (2*10^5), and F_p groups near 7*10^3."""
    batch = []
    for p0 in (120_000, 210_000):
        p = next_prime(jitter(rng, p0))
        order = rng.randint(6, 12)
        model = isomorphic_model(rng, rng.choice(sorted(CATALOG)))
        batch.append(
            Job(
                ("zeta", "--model", model_arg(model), "--primes", str(p), "--order", str(order)),
                {"model": model, "order": order, "primes": [p]},
            )
        )
    p = next_prime(jitter(rng, 100_000))
    model = isomorphic_model(rng, rng.choice(sorted(CATALOG)))
    batch.append(
        Job(
            ("theorem1", "--model", model_arg(model), "--p", str(p), "--trials", "4",
             "--seed", str(rng.randrange(10**6))),
            {"model": model, "p": p, "trials": 4},
        )
    )
    # y^2 = x^3 - x has full rational 2-torsion, so E(F_p) is never cyclic
    # and the group scan always visits every point; p = 3 mod 4 keeps it
    # supersingular (#E = p + 1), since the scan costs about twice as much
    # there as at p = 1 mod 4
    p = next_prime(jitter(rng, 7_000))
    while p % 4 != 3:
        p = next_prime(p + 1)
    model = isomorphic_model(rng, "cm-4")
    batch.append(Job(("curve", "--model", model_arg(model), "--p", str(p)), {"model": model, "p": p, "n": 1}))
    rng.shuffle(batch)
    # exploration mode at a prime where tr(A^p) of any period passes the
    # int-to-str limit (phi^p has over 6000 digits)
    p = next_prime(jitter(rng, 30_000))
    model = isomorphic_model(rng, rng.choice(sorted(CATALOG)))
    word = [rng.randint(1, 3)]
    edge = Job(
        ("zeta", "--model", model_arg(model), "--primes", str(p), "--period", ",".join(map(str, word))),
        {"model": model, "order": 6, "primes": [p], "exploration": True},  # the CLI's default order
    )
    return Workload(tuple(batch), (edge,))


def ext_levels(rng: random.Random) -> Workload:
    """F_{p^n} arithmetic and group enumeration at small p, n = 2..5."""
    batch = []
    for label, command, p, level in EXT_SLOTS:
        model = isomorphic_model(rng, label)
        if command == "localize":
            args = ("localize", "--model", model_arg(model), "--p", str(p), "--nmax", str(level))
            ctx = {"model": model, "p": p, "nmax": level}
        else:
            args = ("curve", "--model", model_arg(model), "--p", str(p), "--n", str(level))
            ctx = {"model": model, "p": p, "n": level}
        batch.append(Job(args, ctx))
    rng.shuffle(batch)
    # the standalone group guard allows p^2 near 10^5, where the scan of a
    # non-cyclic E(F_{p^2}) runs for minutes
    p = rng.choice([q for q in range(300, 341) if is_prime(q)])
    model = isomorphic_model(rng, "cm-4")
    edge = Job(("curve", "--model", model_arg(model), "--p", str(p), "--n", "2"), {"model": model, "p": p, "n": 2})
    return Workload(tuple(batch), (edge,))


def ck_k0(rng: random.Random) -> Workload:
    """Continued fractions, incidence-matrix powers and CK K0 via SNF."""
    batch = []
    for pool in CF_POOLS:
        d = rng.choice(pool)
        P, Q = gl2_image(rng, 0, d, 1)
        batch.append(cf_job(P, d, Q))
    # three short jobs, so that they and the three smaller k0 jobs make up
    # the lower half of the 11 and the median job is one of them, not the
    # seed-dependent k0 at n = 48
    for _ in range(3):
        word = random_word(rng, 2, 6)
        k = rng.randint(2, 200)
        batch.append(
            Job(("matrix", "--period", ",".join(map(str, word)), "--pow", str(k)), {"period": word, "pow": k})
        )
    for n in (24, 32, 40, 48):
        rows = [[1 if rng.random() < 0.15 else 0 for _ in range(n)] for _ in range(n)]
        for i in range(n):  # a Hamiltonian cycle makes the matrix irreducible
            rows[i][(i + 1) % n] = 1
        text = "[" + ",".join("[" + ",".join(map(str, r)) + "]" for r in rows) + "]"
        batch.append(Job(("k0", "--matrix", text), {"matrix": rows}))
    rng.shuffle(batch)
    # a power of a 5-letter period whose entries pass the int-to-str limit
    # by about 300 digits, and a GL(2,Z) image of a number whose period
    # passes the expansion's state cap
    word = random_word(rng, 5, 5)
    m = incidence(word)
    # det = +-1, so the dominant eigenvalue exceeds trace - 1
    growth = log10(m[0][0] + m[1][1] - 1)
    k = int((INT_STR_DIGITS + 300) / growth) + 1
    P, Q = gl2_image(rng, 1, CF_EDGE_D, 2)
    edges = (
        Job(("matrix", "--period", ",".join(map(str, word)), "--pow", str(k)), {"period": word, "pow": k}),
        cf_job(P, CF_EDGE_D, Q),
    )
    return Workload(tuple(batch), edges)


WORKLOADS = {
    "zeta_sweep": zeta_sweep,
    "large_p": large_p,
    "ext_levels": ext_levels,
    "ck_k0": ck_k0,
}


def build(name: str, seed: int) -> Workload:
    return WORKLOADS[name](random.Random(f"{name}:{seed}"))
