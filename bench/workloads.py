"""Seeded job generators for the three benchmark workloads.

A workload is an endless sequence of *rounds*.  Every round has the same
composition (the same job classes at the same size rungs); the seed and the
round index choose the details inside each class: coprime partners, gcd
chains, points, which pool certificate is verified, and the job order.  The
one cost-relevant choice, the degree bounds of the invariants workload,
cycles with the round index, so any three consecutive rounds cost about the
same.  The benchmark therefore measures whole rounds, and two seeds give
nearly the same mix while still giving different inputs.

The program under test only ever sees the generated argv.  Each job also
carries its expected exit code (and error type for error jobs) and the facts
the independent checks in ``checks.py`` need.
"""

from __future__ import annotations

import io
import itertools
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable, Optional

WORKLOADS = ("saturate", "invariants", "certify")

# Rounds generated up front.  A run that outlasts them starts over at round 0
# and reports the repeats in its repeated-input share.
ROUNDS = 64


@dataclass
class Job:
    key: str  # argv with certificate paths replaced by pool names
    argv: list[str]
    check: dict
    expect_rc: int = 0
    expect_error: Optional[str] = None
    gens_key: Optional[str] = None  # generator set, for the repeated-input share


@dataclass
class Workload:
    name: str
    seed: int
    rounds: list[list[Job]]
    ladders: dict


def _rng(seed: int, *parts) -> random.Random:
    return random.Random(":".join(str(p) for p in (seed,) + parts))


def _vecs(gens) -> str:
    return ";".join(",".join(str(x) for x in g) for g in gens)


def _coprime_in(rng: random.Random, lo: int, hi: int, n: int) -> int:
    choices = [b for b in range(max(lo, 1), hi) if math.gcd(b, n) == 1]
    return rng.choice(choices)


# -- saturate -----------------------------------------------------------------

# The percentiles are read from whole rounds, so each round is built with a
# plateau of similar-cost jobs where the median falls (hypersurfaces at N = 41,
# with 12 cheaper jobs below and 12 dearer ones above) and another where the
# 90th percentile falls (N = 81 and curves at m = 150).
HYP_RUNGS = ((5, 2), (11, 2), (21, 2), (41, 7), (81, 4))  # (N, jobs per round)
HYP_ALPHA = 2
HYP_SPREAD = 6  # beta is drawn coprime to N from [N - HYP_SPREAD, N + HYP_SPREAD]
CURVE_RUNGS = ((6, 1), (12, 1), (30, 1), (90, 4), (150, 2), (300, 1))  # (m, jobs per round)
SMALL_CURVES = ("2;3", "3;4", "2;5", "3;5", "4;6;7", "4;6,7", "3;4,5", "5;7", "2;3;7")
PAIRS = 3
TRIPLE = ("4;6;7", "6;9,11;9,11", "3;4")


def _prime_factors(n: int) -> list[int]:
    out, p = [], 2
    while n > 1:
        while n % p == 0:
            out.append(p)
            n //= p
        p += 1
    return out


def _curve_supports(rng: random.Random, m: int) -> str:
    """Supports of a curve with leading exponent m and a seeded gcd chain.

    The prime factors of m are split into two or three steps
    m = e0 > e1 > ... > eg = 1.  b1 = m + e1*j with gcd(j, e0/e1) = 1 lands
    near 1.5 m, and each later exponent adds e_{i+1} * j with j coprime to
    e_i/e_{i+1}, so gcd(e_i, b_{i+1}) = e_{i+1} and the exponents are
    characteristic.  Returns the CLI supports string.
    """
    factors = _prime_factors(m)
    rng.shuffle(factors)
    steps = min(len(factors), rng.choice((2, 3)))
    cuts = sorted(rng.sample(range(1, len(factors)), steps - 1)) if steps > 1 else []
    groups = [factors[a:b] for a, b in zip([0] + cuts, cuts + [len(factors)])]
    chain = [m]
    for g in groups:
        chain.append(chain[-1] // math.prod(g))
    betas = [m]
    f0 = m // chain[1]
    j = min(
        (j for j in range(max(1, f0 // 2), f0 + 1) if math.gcd(j, f0) == 1),
        key=lambda j: abs(chain[1] * j - m // 2),
    )
    betas.append(m + chain[1] * j)
    for i in range(1, len(chain) - 1):
        f = chain[i] // chain[i + 1]
        step = rng.choice([j for j in (1, 2, 3) if math.gcd(j, f) == 1])
        betas.append(betas[-1] + chain[i + 1] * step)
    rest = betas[1:]
    if rng.random() < 0.5:
        coords = [[m], rest]
    else:
        coords = [[m], rest[:-1], [rest[0], rest[-1]]]
    return ";".join(",".join(str(x) for x in c) for c in coords)


def _product_job(factors) -> Job:
    argv = ["saturate", "product"]
    for f in factors:
        argv += ["--supports", f]
    argv.append("--json")
    return Job(" ".join(argv), argv, {"kind": "product", "factors": list(factors)})


def _saturate_round(seed: int, r: int) -> list[Job]:
    rng = _rng(seed, "saturate", r)
    jobs = []
    for n, count in HYP_RUNGS:
        lo, hi = n - min(HYP_SPREAD, n - 1), n + HYP_SPREAD + 1
        for beta in rng.sample([b for b in range(lo, hi) if math.gcd(b, n) == 1], count):
            argv = ["saturate", "hypersurface", "--alpha", str(HYP_ALPHA), "--beta",
                    str(beta), "--bigN", str(n), "--json"]
            jobs.append(Job(" ".join(argv), argv, {"kind": "hyp", "N": n}))
    for m, count in CURVE_RUNGS:
        for _ in range(count):
            supports = _curve_supports(rng, m)
            argv = ["saturate", "curve", "--supports", supports, "--json"]
            jobs.append(Job(" ".join(argv), argv, {"kind": "curve", "factors": [supports]}))
    jobs += [_product_job(rng.sample(SMALL_CURVES, 2)) for _ in range(PAIRS)]
    jobs.append(_product_job(rng.sample(TRIPLE, len(TRIPLE))))
    rng.shuffle(jobs)
    return jobs


# -- invariants ---------------------------------------------------------------

POOL_2D = (
    ((1, 0), (3, 11), (0, 5)),
    ((1, 0), (1, 1), (0, 2), (2, 1)),
    ((1, 0), (3, 5), (0, 11)),
    ((2, 0), (1, 3), (0, 4)),
    ((1, 0), (2, 7), (0, 3), (1, 5)),
    ((1, 0), (3, 11), (0, 5), (3, 12), (3, 13)),
)
POOL_1D = (((5,), (11,)), ((7,), (9,), (11,)), ((11,), (13,), (17,)), ((30,), (41,)))
# Each 2-D set runs two degree-bounded generator jobs per round; the pair of
# degrees cycles through these with the round index.
DEGREE_PAIRS = ((3, 4), (4, 5), (3, 5))
CONTAINS_BOX = 60
ERROR_JOBS = (
    (["semigroup", "gaps", "--gens", "1,0;1,1;0,2"], 1, "InputError"),
    (["semigroup", "mult", "--gens", "1,0,0;0,1,0;0,0,1"], 2, "UnsupportedDimension"),
    (["semigroup", "hull", "--gens", "1,1;2,3"], 2, "ConeNotFull"),
)


def _relations(gens) -> list[tuple[tuple, tuple]]:
    """One vanishing binomial per generator triple of a 2-D set, by Cramer's rule.

    For generators g_i, g_j, g_k the vector with entries det(g_j, g_k),
    -det(g_i, g_k), det(g_i, g_j) at i, j, k is a relation; its positive and
    negative parts are the two exponent vectors.
    """
    out = []
    for i, j, k in itertools.combinations(range(len(gens)), 3):
        u = [0] * len(gens)
        for idx, (p, q) in ((i, (j, k)), (j, (k, i)), (k, (i, j))):
            u[idx] = gens[p][0] * gens[q][1] - gens[p][1] * gens[q][0]
        g = math.gcd(*u)
        if g:
            u = [x // g for x in u]
            out.append((tuple(max(x, 0) for x in u), tuple(max(-x, 0) for x in u)))
    return out


def _binomial(a, b) -> str:
    return ",".join(map(str, a)) + ":" + ",".join(map(str, b))


def _invariants_round(seed: int, r: int) -> list[Job]:
    rng = _rng(seed, "invariants", r)
    jobs = []

    def add(argv, check, gens, rc=0, err=None):
        argv = argv + ["--json"]
        jobs.append(Job(" ".join(argv), argv, check, rc, err, _vecs(gens)))

    for s, gens in enumerate(POOL_2D):
        g = _vecs(gens)
        for _ in range(2):
            point = [rng.randrange(CONTAINS_BOX + 1), rng.randrange(CONTAINS_BOX + 1)]
            add(["semigroup", "contains", "--gens", g, "--point", f"{point[0]},{point[1]}"],
                {"kind": "contains", "gens": gens, "point": point}, gens)
        for op in ("mingens", "mult", "edim", "hull"):
            add(["semigroup", op, "--gens", g], {"kind": op, "gens": gens}, gens)
        add(["ideal", "kernel", "--gens", g], {"kind": "kernel", "gens": gens}, gens)
        for d in DEGREE_PAIRS[(r + seed + s) % len(DEGREE_PAIRS)]:
            add(["ideal", "generators", "--gens", g, "--degree-bound", str(d)],
                {"kind": "generators", "gens": gens, "degree": d}, gens)
        rels = _relations(gens)
        picked = rng.sample(rels, min(2, len(rels)))
        binomials = [list(p) for p in picked]
        if rng.random() < 0.5:
            a, b = binomials[0]
            binomials[0] = (a, tuple(x + (i == 0) for i, x in enumerate(b)))
        argv = ["ideal", "verify", "--gens", g]
        for a, b in binomials:
            argv += ["--binomial", _binomial(a, b)]
        add(argv, {"kind": "vanish", "gens": gens, "binomials": binomials}, gens)
    for s, gens in enumerate(POOL_1D):
        g = _vecs(gens)
        add(["semigroup", "gaps", "--gens", g], {"kind": "gaps", "gens": gens}, gens)
        add(["semigroup", "mingens", "--gens", g], {"kind": "mingens", "gens": gens}, gens)
        point = [rng.randrange(4 * max(x for (x,) in gens))]
        add(["semigroup", "contains", "--gens", g, "--point", str(point[0])],
            {"kind": "contains", "gens": gens, "point": point}, gens)
        d = 3 + (r + seed + s) % 3
        add(["ideal", "generators", "--gens", g, "--degree-bound", str(d)],
            {"kind": "generators", "gens": gens, "degree": d}, gens)
    for argv, rc, err in ERROR_JOBS:
        gens = [tuple(int(x) for x in v.split(",")) for v in argv[3].split(";")]
        add(list(argv), {"kind": "error"}, gens, rc, err)
    rng.shuffle(jobs)
    return jobs


# -- certify ------------------------------------------------------------------

# As in the saturate workload, each round has a plateau of similar-cost jobs
# at the median (axis arcs of cyclotomic order 61 and verifications of pool
# interior certificates) and at the 90th percentile (interior arcs at
# alpha = 40), with as many jobs below the median plateau as above it.
AXIS_RUNGS = ((5, 1), (13, 1), (61, 3))  # (cyclotomic order N, jobs per round)
INTERIOR_RUNGS = ((5, 1, (11, 5)), (10, 1, (9, 7)), (20, 1, (7, 3)), (40, 4, (11, 5)))
GAP_SPECS = ((3, 11, 5), (2, 7, 9), (4, 13, 6))  # (alpha, beta, N)
WU_RUNGS = (21, 101)
TAMPER_LEVELS = (24, 48, 96)
VERIFY_CHEAP, VERIFY_INTERIOR = 2, 3  # valid pool certificates verified per round


def _not_multiple(rng: random.Random, lo: int, hi: int, n: int) -> int:
    return rng.choice([k for k in range(lo, hi) if k % n])


def _certify_argv(alpha, beta, n, a, b):
    return ["certify", "hypersurface", "--alpha", str(alpha), "--beta", str(beta),
            "--bigN", str(n), "--point", f"{a},{b}", "--json"]


def _axis_job(rng, n) -> Job:
    beta = _coprime_in(rng, 3, 18, n)
    alpha = rng.randrange(2, 6)
    k = _not_multiple(rng, n + 1, 2 * n, n)
    argv = _certify_argv(alpha, beta, n, 0, k)
    return Job(" ".join(argv), argv, {"kind": "cert", "family": "axis", "order": n,
                                      "point": [0, k]})


def _interior_job(rng, alpha, spec) -> Job:
    beta, n = spec
    a = rng.randrange(max(1, alpha // 2, alpha - 4), alpha)
    b = _not_multiple(rng, 1, 2 * n, n)
    argv = _certify_argv(alpha, beta, n, a, b)
    return Job(" ".join(argv), argv, {"kind": "cert", "family": "interior", "order": n,
                                      "point": [a, b]})


def _gap_job(rng, spec) -> Job:
    alpha, beta, n = spec
    lo, hi = sorted((n, beta))
    a = alpha + rng.randrange(0, 4)
    b = rng.choice([b for b in range(1, hi) if b % lo and b % n])
    argv = _certify_argv(alpha, beta, n, a, b)
    return Job(" ".join(argv), argv, {"kind": "cert", "family": "t_gap", "order": lo,
                                      "point": [a, b]})


def _certify_pool(seed: int) -> dict[str, tuple[Job, Optional[int]]]:
    """Pool certificates emitted during set-up: name -> (emitting job, tamper level)."""
    rng = _rng(seed, "certify-pool")
    pool: dict[str, tuple[Job, Optional[int]]] = {}
    for i, n in enumerate((5, 13)):
        pool[f"axis{i}"] = (_axis_job(rng, n), None)
    for i in range(2):
        pool[f"interior{i}"] = (_interior_job(rng, 10, (11, 5)), None)
    for i, spec in enumerate(GAP_SPECS[:2]):
        pool[f"gap{i}"] = (_gap_job(rng, spec), None)
    for i in range(2):
        for level in TAMPER_LEVELS:
            pool[f"interior{i}-t{level}"] = (pool[f"interior{i}"][0], level)
    return pool


def _certify_round(seed: int, r: int) -> list[Job]:
    rng = _rng(seed, "certify", r)
    jobs = [_axis_job(rng, n) for n, count in AXIS_RUNGS for _ in range(count)]
    jobs += [_interior_job(rng, alpha, spec)
             for alpha, count, spec in INTERIOR_RUNGS for _ in range(count)]
    jobs += [_gap_job(rng, spec) for spec in GAP_SPECS]
    for rung in WU_RUNGS:
        rr = rung + 2 * rng.randrange(3)
        argv = ["certify", "wu", "--r", str(rr), "--json"]
        jobs.append(Job(" ".join(argv), argv, {"kind": "cert", "family": "wu", "order": 2,
                                               "point": [0, rr]}))
    n = rng.choice([n for n, _ in AXIS_RUNGS])
    argv = _certify_argv(3, _coprime_in(rng, 3, 18, n), n, rng.randrange(0, 9),
                         n * rng.randrange(1, 4))
    jobs.append(Job(" ".join(argv), argv, {"kind": "member"}))
    for name in rng.sample(["axis0", "axis1", "gap0", "gap1"], VERIFY_CHEAP):
        jobs.append(_verify_job(name, valid=True))
    for _ in range(VERIFY_INTERIOR):
        jobs.append(_verify_job(f"interior{rng.randrange(2)}", valid=True))
    which = rng.randrange(2)
    for level in TAMPER_LEVELS:
        jobs.append(_verify_job(f"interior{which}-t{level}", valid=False))
    rng.shuffle(jobs)
    return jobs


def _verify_job(name: str, valid: bool) -> Job:
    argv = ["certify", "verify", "--in", f"<{name}>", "--json"]
    return Job(" ".join(argv), argv, {"kind": "verify", "valid": valid, "cert": name},
               expect_rc=0 if valid else 1)


def emit_certificates(seed: int, workdir: str, run: Callable) -> dict[str, str]:
    """Emit the certificate pool through the CLI and write it under workdir.

    Tampered copies raise the target's first exponent to the tamper level and
    keep the stored orders, so verification must recompute a different order
    and exit 1.
    """
    paths = {}
    emitted: dict[str, dict] = {}
    for name, (job, level) in _certify_pool(seed).items():
        if level is None:
            buf = io.StringIO()
            code = run(job.argv, stdout=buf)
            if code != 0:
                raise RuntimeError(f"certificate emission failed: {job.key} exited {code}")
            cert = json.loads(buf.getvalue())["result"]["certificate"]
            emitted[name] = cert
        else:
            cert = dict(emitted[name.split("-")[0]])
            cert["target"] = [level, cert["target"][1]]
        path = os.path.join(workdir, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cert, fh)
        paths[name] = path
    return paths


# -- entry --------------------------------------------------------------------


def _ladders(name: str) -> dict:
    if name == "saturate":
        return {"hypersurface_N_jobs": list(HYP_RUNGS), "hypersurface_alpha": HYP_ALPHA,
                "curve_leading_exponent_jobs": list(CURVE_RUNGS),
                "product_factors": [2] * PAIRS + [3]}
    if name == "invariants":
        return {"pool_2d": [_vecs(g) for g in POOL_2D], "pool_1d": [_vecs(g) for g in POOL_1D],
                "degree_bounds": [3, 4, 5], "contains_box": CONTAINS_BOX}
    return {"axis_cyclotomic_order_jobs": list(AXIS_RUNGS),
            "interior_alpha_jobs": [[a, count] for a, count, _ in INTERIOR_RUNGS],
            "t_gap_specs": [list(s) for s in GAP_SPECS], "wu_r": list(WU_RUNGS),
            "tamper_target_exponent": list(TAMPER_LEVELS)}


def make_workload(name: str, seed: int, workdir: str, run: Callable) -> Workload:
    """Generate the rounds of a workload; `run` is the CLI entry used to emit certificates."""
    if name == "saturate":
        rounds = [_saturate_round(seed, r) for r in range(ROUNDS)]
        return Workload(name, seed, rounds, _ladders(name))
    if name == "invariants":
        rounds = [_invariants_round(seed, r) for r in range(ROUNDS)]
        return Workload(name, seed, rounds, _ladders(name))
    if name != "certify":
        raise ValueError(f"unknown workload {name!r}")
    paths = emit_certificates(seed, workdir, run)
    rounds = [_certify_round(seed, r) for r in range(ROUNDS)]
    for jobs in rounds:
        for job in jobs:
            if job.check["kind"] == "verify":
                job.argv = [paths[job.check["cert"]] if a.startswith("<") else a
                            for a in job.argv]
    return Workload(name, seed, rounds, _ladders(name))
