"""The four workloads: job lists made from a seed, with expected outputs.

A job is a JSON-able dict with a ``name`` and a ``kind``.  cli and ball jobs
carry their expected output in ``expect``: frozen tables, or closed forms
that hold for every n.  The Jacquet job is checked against
``jacquet_symbolic`` in the child.
Nothing here imports the program: run.py builds the inputs, the child
only runs them.

Why these workloads:
- gate: ``verify-all``, what CI and every user runs; a mix dominated by
  lambda_core (wide Jacquet matrices, 200 brute-force cases) and
  finite_rep smoothing.
- deep: the raised-level tier, three matrix shapes for lambda_core (tall
  dense above-pivot reduction, a sparse 485-vertex boundary, the Jacquet
  tower); a change that helps one shape can hurt another.
- orbits: padic_core action sweeps and nothing of lambda_core; where an
  act() change shows, and the control on which a lambda_core change must
  read unchanged.
- bign: gate's level-2 shapes at a prime near 10^6; the only workload where
  a cost that grows with n shows.
"""

import random
from math import gcd

WORKLOADS = ("gate", "deep", "orbits", "bign")

# verify-all's report without timing fields, frozen from the seed code
GATE_CRITERIA = [
    {"criterion": "orbit-classification", "status": "pass", "configs": 4},
    {"criterion": "sl2-cohomology", "status": "pass", "cases": 12},
    {"criterion": "ps1-acyclicity", "status": "pass", "rings": 2},
    {"criterion": "jacquet-cross-oracle", "status": "pass", "specs": 5},
    {"criterion": "gluing-tables", "status": "pass", "tables": 12,
     "generic_controls": 5},
    {"criterion": "cuspidal-vanishing", "status": "pass", "witnesses": 2},
    {"criterion": "compact-generators", "status": "pass", "orbit_count": 4},
    {"criterion": "tree-balls", "status": "pass", "balls": 6},
    {"criterion": "linear-algebra", "status": "pass", "cases": 200},
]

ORBIT_CASES = ((3, 4), (2, 6), (7, 2))

# whether H0, H1 of the level-2 model is Z/n (else 0), for every banal n
SL2COH_FORMS = {"triv": (True, False), "ind(0,0)": (True, True),
                "st": (False, True)}

BIGN_P = 3
BIGN_LOW, BIGN_SPAN = 1_000_000, 20_000
BIGN_CLASS = (1_000_003 % 27, 27)  # (residue, modulus) of the drawn primes


def cli_job(name, argv, expect, env=None):
    job = {"name": name, "kind": "cli", "argv": list(argv), "expect": expect}
    if env:
        job["env"] = env
    return job


def orbit_formula(p, k):
    """Closed-form count of depth-k congruence orbits on P^1(O/pi^2k)."""
    return 2 + sum((p - 1) * p ** (min(k + i, k - i) - 1)
                   for i in range(-k + 1, k))


def sl2coh_job(spec, n, extra=()):
    h0, h1 = SL2COH_FORMS[spec]
    want = {"H0": [n] if h0 else [], "H1": [n] if h1 else []}
    return cli_job(f"sl2coh {spec} n={n}",
                   ["sl2coh", "--rep", spec, "--n", str(n), *extra,
                    "--format", "json"], want)


def _is_prime(n):
    if n < 2:
        return False
    i = 2
    while i * i <= n:
        if n % i == 0:
            return False
        i += 1
    return True


def banal_prime(seed):
    """A prime near 10^6 that passes make_ring's banality gate at p = 3.

    The unit normalizer scans 1, 2, ... for the inverse of each pivot; the
    pivots here are 1, -1, 3, 9 and 27, so the scans stop at shares of n
    fixed by n mod 27.  Only primes in the class of 1000003 mod 27 are
    drawn, and the cost differs between seeds only as n does (by 2%).
    """
    p = q = BIGN_P
    n = BIGN_LOW + random.Random(f"bign:{seed}").randrange(BIGN_SPAN)
    while not (n % BIGN_CLASS[1] == BIGN_CLASS[0] and _is_prime(n)
               and gcd(n, p * (q - 1) ** 2 * (q + 1)) == 1):
        n += 1
    return n


def jacquet_pair(seed):
    """Exponents (a, b) of ind(a,b); over Z/7 with q = 2 they cover all nine
    unramified character pairs."""
    rng = random.Random(f"deep:{seed}")
    return rng.randrange(6), rng.randrange(6)


def make_jobs(workload, seed):
    """The job list of one workload at one seed."""
    if workload == "gate":
        want = {"seed": seed, "failed": [], "criteria": GATE_CRITERIA}
        return [cli_job("verify-all", ["verify-all", "--format", "json"],
                        want, env={"STRATA_GLUE_SEED": str(seed)})]
    if workload == "deep":
        a, b = jacquet_pair(seed)
        return [
            sl2coh_job("st", 11, ("--level", "4", "--precision", "10")),
            # orders, not iso_class: over a prime n, order n means Z/n, and
            # the integer Smith form of the 485-column presentation would
            # cost several times the homology itself
            {"name": "bt_ball(3,5) homology n=11", "kind": "ball",
             "p": 3, "r": 5, "n": 11, "expect": {"H0": 11, "H1": 1}},
            {"name": f"jacquet_oracle ind({a},{b}) level 4 n=7",
             "kind": "jacquet", "n": 7, "p": 2, "sqrt_q": 3, "level": 4,
             "spec": f"ind({a},{b})", "a": a, "b": b},
        ]
    if workload == "orbits":
        return [cli_job(f"orbits p={p} k={k}",
                        ["orbits", "--p", str(p), "--k", str(k),
                         "--format", "json"],
                        {"status": "pass", "k": k, "m": 2 * k,
                         "orbit_count": orbit_formula(p, k)})
                for p, k in ORBIT_CASES]
    if workload == "bign":
        n = banal_prime(seed)
        q = BIGN_P
        glue_want = {"degrees": {
            "0": [{"z1": {"exp": "0", "val": 1}, "z2": {"exp": "0", "val": 1}}],
            "3": [{"z1": {"exp": "-1", "val": q},
                   "z2": {"exp": "1", "val": pow(q, -1, n)}}]}}
        return [sl2coh_job(spec, n) for spec in SL2COH_FORMS] + [
            cli_job(f"glue int triv n={n}",
                    ["glue", "--slope", "int", "--rep", "triv", "--n", str(n),
                     "--format", "json"], glue_want)]
    raise ValueError(f"unknown workload {workload!r}")
