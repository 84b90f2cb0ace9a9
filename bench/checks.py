"""Output checks for benchmark jobs, written independently of the library.

Every job has an expected exit code; error jobs are checked by exit code and
error type only.  Successful outputs are checked against invariants this
module recomputes with its own brute-force code (semigroup closure, minimal
generators, hull area, relation vanishing, arc orders), never by calling the
library it is checking.  The exceptions are the certificate round trip and
the re-run of a job from its emitted ``input``, which must go through the
library by design.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
from fractions import Fraction
from typing import Optional


# -- independent arithmetic ---------------------------------------------------


def closure_1d(gens, limit: int) -> bytearray:
    """Members of the numerical semigroup generated by gens, up to limit."""
    member = bytearray(limit + 1)
    member[0] = 1
    for n in range(1, limit + 1):
        member[n] = any(g <= n and member[n - g] for g in gens)
    return member


def is_member(gens, point) -> bool:
    """Membership in the semigroup generated by gens (dimension 1 or 2).

    Dimension 2 keeps one bitset per first coordinate: row x is the union of
    the rows x - g0 shifted by g1, then closed under the generators with
    g0 = 0 by repeated shifting.
    """
    point = tuple(point)
    if any(x < 0 for x in point):
        return False
    if len(point) == 1:
        return bool(closure_1d([g[0] for g in gens], point[0])[point[0]])
    px, py = point
    mask = (1 << (py + 1)) - 1
    rows: list[int] = []
    for x in range(px + 1):
        row = 1 if x == 0 else 0
        for g0, g1 in gens:
            if 0 < g0 <= x:
                row |= rows[x - g0] << g1
        row &= mask
        while True:
            grown = row
            for g0, g1 in gens:
                if g0 == 0:
                    grown |= row << g1
            grown &= mask
            if grown == row:
                break
            row = grown
        rows.append(row)
    return bool(rows[px] >> py & 1)


def minimal_generators(gens) -> set:
    gens = list(dict.fromkeys(tuple(g) for g in gens))
    return {g for g in gens if not is_member([h for h in gens if h != g], g)}


def char_exponents(supports: str) -> list[int]:
    """Characteristic exponents from a CLI supports string."""
    union = sorted({int(x) for part in supports.split(";") for x in part.split(",")})
    m, e, betas = union[0], union[0], [union[0]]
    for x in union[1:]:
        if e == 1:
            break
        if x % e:
            betas.append(x)
            e = math.gcd(e, x)
    return betas


def _pi(gens, alpha) -> tuple:
    return tuple(sum(c * g[i] for c, g in zip(alpha, gens)) for i in range(len(gens[0])))


def _rank(gens) -> int:
    rows = [[Fraction(x) for x in g] for g in gens]
    rank, cols = 0, len(rows[0])
    for c in range(cols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][c]:
                f = rows[r][c] / rows[rank][c]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def lower_chain(gens) -> list[tuple[int, int]]:
    """Lower-left convex chain of conv(gens) + R^2_{>=0}, from the y axis to the x axis."""
    px = min(g[0] for g in gens if g[1] == 0)
    py = min(g[1] for g in gens if g[0] == 0)
    corners = {(px, 0), (0, py)}
    pts = sorted({tuple(g) for g in gens if g[0] < px and g[1] < py} | corners)
    chain: list[tuple[int, int]] = []
    for p in pts:
        while len(chain) >= 2:
            (x1, y1), (x2, y2) = chain[-2], chain[-1]
            if (x2 - x1) * (p[1] - y1) - (y2 - y1) * (p[0] - x1) <= 0:
                chain.pop()
            else:
                break
        chain.append(p)
    return chain


def normalized_volume_2d(gens) -> int:
    """Twice the area between the axes and the chain: the multiplicity in dimension 2."""
    chain = lower_chain(gens)
    return sum((x2 - x1) * (y1 + y2) for (x1, y1), (x2, y2) in zip(chain, chain[1:]))


def outside_points_2d(gens) -> list[list[int]]:
    chain = lower_chain(gens)
    out = []
    for x in range(chain[-1][0] + 1):
        for y in range(chain[0][1] + 1):
            below = any(
                (x2 - x1) * (y - y1) - (y2 - y1) * (x - x1) < 0
                for (x1, y1), (x2, y2) in zip(chain, chain[1:])
            )
            if (x, y) != (0, 0) and below:
                out.append([x, y])
    return out


def gaps_1d(gens) -> tuple[list[int], int]:
    limit = max(gens) ** 2 + max(gens)
    member = closure_1d(gens, limit)
    gaps = [n for n in range(limit + 1) if not member[n]]
    return gaps, (gaps[-1] + 1 if gaps else 0)


# -- per-job checks -----------------------------------------------------------


def _flat(gens) -> list[int]:
    return [g[0] for g in gens]


def _check_saturation(check: dict, res: dict) -> Optional[str]:
    gens = [tuple(g) for g in res["min_gens"]]
    if res["embedding_dimension"] != len(gens):
        return "embedding dimension differs from the number of minimal generators"
    if check["kind"] == "hyp":
        n = check["N"]
        if len(gens) != n + 1 or res["multiplicity"] != n:
            return f"expected {n + 1} generators of multiplicity {n}"
        return None
    factors = check["factors"]
    leads = [char_exponents(s)[0] for s in factors]
    if res["multiplicity"] != math.prod(leads):
        return f"multiplicity {res['multiplicity']} is not the product of {leads}"
    if check["kind"] == "curve" and res["characteristic_exponents"] != char_exponents(factors[0]):
        return "characteristic exponents differ from the independent extraction"
    for i, supports in enumerate(factors):
        if any(sum(1 for x in g if x) != 1 for g in gens):
            return "a generator of a product mixes factors"
        block = sorted(g[i] for g in gens if g[i])
        betas = char_exponents(supports)
        if not block or block[0] != betas[0]:
            return f"factor {i}: least generator is not the leading exponent {betas[0]}"
        member = closure_1d(block, max(betas))
        if not all(member[b] for b in betas):
            return f"factor {i}: minimal generators do not generate the characteristic exponents"
    return None


def _check_invariant(check: dict, res: dict) -> Optional[str]:
    kind, gens = check["kind"], [tuple(g) for g in check["gens"]]
    dim = len(gens[0])
    if kind == "contains":
        if res["contains"] != is_member(gens, check["point"]):
            return "membership differs from the brute-force closure"
    elif kind == "mingens":
        if {tuple(g) for g in res["min_gens"]} != minimal_generators(gens):
            return "minimal generators differ from the brute-force set"
    elif kind == "edim":
        if res["embedding_dimension"] != len(minimal_generators(gens)):
            return "embedding dimension differs from the brute-force count"
    elif kind == "mult":
        want = min(_flat(gens)) if dim == 1 else normalized_volume_2d(gens)
        if res["multiplicity"] != want:
            return f"multiplicity {res['multiplicity']}, expected {want}"
    elif kind == "hull":
        if res["normalized_volume"] != normalized_volume_2d(gens):
            return "normalized volume differs from the independent hull"
        if sorted(res["outside_points"]) != outside_points_2d(gens):
            return "outside points differ from the independent hull"
        if any(is_member(gens, p) for p in res["outside_points"]):
            return "a point outside the hull is a member"
    elif kind == "gaps":
        gaps, conductor = gaps_1d(_flat(gens))
        if res["gaps"] != gaps or res["conductor"] != conductor:
            return "gaps or conductor differ from the brute-force closure"
    elif kind == "kernel":
        basis = res["basis"]
        if len(basis) != len(gens) - _rank(gens):
            return "kernel basis has the wrong size"
        if any(any(_pi(gens, v)) for v in basis):
            return "a kernel vector is not a relation"
        if any(_pi(gens, a) != _pi(gens, b) for a, b in res["binomials"]):
            return "a kernel binomial does not vanish"
    elif kind == "generators":
        if res["degree_bound"] != check["degree"]:
            return "degree bound not echoed"
        for a, b in res["binomials"]:
            if a == b or _pi(gens, a) != _pi(gens, b):
                return f"binomial {a}:{b} does not vanish"
    elif kind == "vanish":
        want = all(_pi(gens, a) == _pi(gens, b) for a, b in check["binomials"])
        if res["vanishing"] != want:
            return f"vanishing {res['vanishing']}, expected {want}"
    return None


def _arc_target_order(family: str, point, cert: dict) -> int:
    """Order of phi*(x^a - y^a) for each witness family, worked out by hand.

    axis (0,k): t^k (1 - zeta^k); interior (a,b): t^((b+1)a+b) (1 - zeta^b) + ...;
    wu (0,r): 2 t^r; t_gap (a,b): t^(a+s*b) (1 - zeta^b), s the x2 exponent.
    """
    a, b = point
    if family in ("axis", "wu"):
        return b
    if family == "interior":
        return (b + 1) * a + b
    s = cert["arc"]["x2"][0][0]
    return a + s * b


def _check_certify(check: dict, res: dict) -> Optional[str]:
    kind = check["kind"]
    if kind == "member":
        if res.get("member") is not True or res.get("certificate") is not None:
            return "member point was not reported as a member"
        return None
    if kind == "verify":
        if res["valid"] is not check["valid"]:
            return f"verification gave valid={res['valid']}, expected {check['valid']}"
        return None
    cert = res.get("certificate")
    if res.get("member") is not False or cert is None:
        return "non-member point came back without a certificate"
    if cert["target"] != check["point"] or cert["cyclotomic_order"] != check["order"]:
        return "certificate target or cyclotomic order differs from the job"
    if cert["verdict"] is not True:
        return "certificate is inconclusive"
    ot, oi = cert["ord_target"], cert["ord_ideal"]
    if not isinstance(ot, int) or (oi is not None and ot >= oi):
        return f"orders {ot} and {oi} do not refute membership"
    want = _arc_target_order(check["family"], check["point"], cert)
    if ot != want:
        return f"target order {ot}, expected {want}"
    return None


def check_output(job, rc: int, out: str) -> Optional[str]:
    """Reason the job's output is wrong, or None when it passes every check."""
    if rc != job.expect_rc:
        return f"exit code {rc}, expected {job.expect_rc}"
    try:
        doc = json.loads(out)
    except ValueError:
        return "output is not JSON"
    if doc.get("schema_version") != 1 or "input" not in doc:
        return "output lacks schema_version or input"
    if job.expect_error is not None:
        err = doc.get("error") or {}
        if err.get("type") != job.expect_error or err.get("exit_code") != rc:
            return f"error type {err.get('type')!r}, expected {job.expect_error!r}"
        return None
    res = doc.get("result")
    if res is None:
        return "output has no result"
    kind = job.check["kind"]
    try:
        if kind in ("hyp", "curve", "product"):
            return _check_saturation(job.check, res)
        if kind in ("cert", "member", "verify"):
            return _check_certify(job.check, res)
        return _check_invariant(job.check, res)
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        return f"malformed result: {type(exc).__name__}: {exc}"


# -- checks that go through the library ---------------------------------------


def rerun_from_input(cli, out: str) -> Optional[str]:
    """Re-execute a job from its emitted input; the document must repeat byte for byte."""
    doc = json.loads(out)
    try:
        result = cli.execute(doc["input"])
    except Exception as exc:  # any failure of the re-run is a finding, not a crash
        return f"re-run from the emitted input raised {type(exc).__name__}: {exc}"
    again = cli.canonical_json(
        {"schema_version": doc["schema_version"], "input": doc["input"], "result": result}
    )
    return None if again == out else "re-run from the emitted input changed the output"


def certificate_round_trip(cli, out: str, path: str) -> Optional[str]:
    """An emitted certificate, written out and verified through the CLI, must be valid."""
    cert = json.loads(out)["result"]["certificate"]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cert, fh)
    buf = io.StringIO()
    rc = cli.run(["certify", "verify", "--in", path, "--json"], stdout=buf)
    if rc != 0 or json.loads(buf.getvalue())["result"]["valid"] is not True:
        return "emitted certificate does not verify"
    return None


def digest(out: str) -> str:
    return hashlib.sha256(out.encode("utf-8")).hexdigest()
