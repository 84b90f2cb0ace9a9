"""Command-line front end: batch computation with text or canonical JSON output.

Exit codes: 0 success, 1 invalid input, 2 unsupported (dimension or
enumeration budget), 3 internal invariant violation.  JSON output embeds the
parsed job under "input", uses canonical key ordering, and renders integers
beyond 2^53 as decimal strings, so emitted documents round-trip byte for
byte when re-executed.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Optional, Sequence

from . import affsg, arccert, lipsat, numsg, torideal
from .errors import InputError, NotClosed, SelfCheckFailed, UnsupportedError
from .lipsat import HypersurfaceSpec

SCHEMA_VERSION = 1
_INT_LIMIT = 2**53


# -- canonical JSON -----------------------------------------------------------


def _stringify_big(obj):
    if isinstance(obj, bool) or obj is None:
        return obj
    if isinstance(obj, int):
        return str(obj) if abs(obj) > _INT_LIMIT else obj
    if isinstance(obj, list):
        return [_stringify_big(x) for x in obj]
    if isinstance(obj, tuple):
        return [_stringify_big(x) for x in obj]
    if isinstance(obj, dict):
        return {k: _stringify_big(v) for k, v in obj.items()}
    return obj


def canonical_json(obj) -> str:
    return json.dumps(_stringify_big(obj), sort_keys=True, indent=2) + "\n"


# -- argv parsing -------------------------------------------------------------


def _parse_vectors(text: str) -> list[tuple[int, ...]]:
    try:
        vecs = [tuple(int(x) for x in part.split(",")) for part in text.split(";") if part]
    except ValueError as exc:
        raise InputError(f"could not parse vector list {text!r}") from exc
    if not vecs:
        raise InputError("empty generator list")
    if len({len(v) for v in vecs}) != 1:
        raise InputError("all vectors must have the same length")
    return vecs


def _parse_point(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",")]
    except ValueError as exc:
        raise InputError(f"could not parse point {text!r}") from exc


def _parse_supports(text: str) -> list[list[int]]:
    try:
        return [[int(x) for x in part.split(",")] for part in text.split(";")]
    except ValueError as exc:
        raise InputError(f"could not parse supports {text!r}") from exc


def _parse_box(text: str) -> list[int]:
    try:
        w, h = text.lower().split("x")
        return [int(w), int(h)]
    except ValueError as exc:
        raise InputError(f"could not parse box {text!r}, expected WxH") from exc


def _parse_binomial(text: str) -> list[list[int]]:
    try:
        first, second = text.split(":")
        return [[int(x) for x in first.split(",")], [int(x) for x in second.split(",")]]
    except ValueError as exc:
        raise InputError(f"could not parse binomial {text!r}, expected a,..:b,..") from exc


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The argv parser, built once per process: parsing does not change it."""
    parser = argparse.ArgumentParser(prog="toricsat", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json", action="store_true", help="emit canonical JSON")
        p.add_argument("--out", metavar="PATH", help="also write the output to a file")

    sat = sub.add_parser("saturate", help="Lipschitz saturation of curves, products, surfaces")
    satsub = sat.add_subparsers(dest="kind", required=True)
    p = satsub.add_parser("curve")
    p.add_argument("--supports", required=True, help='coordinate supports, e.g. "6;9,11;9,11"')
    common(p)
    p = satsub.add_parser("product")
    p.add_argument("--supports", action="append", required=True, help="one per factor, repeat")
    common(p)
    p = satsub.add_parser("hypersurface")
    p.add_argument("--alpha", type=int, required=True)
    p.add_argument("--beta", type=int, required=True)
    p.add_argument("--bigN", type=int, required=True)
    p.add_argument("--box", help="validation box override, WxH")
    common(p)

    sg = sub.add_parser("semigroup", help="invariants of a numerical or affine semigroup")
    sgsub = sg.add_subparsers(dest="op", required=True)
    for name in ("contains", "mingens", "mult", "edim", "gaps", "hull"):
        p = sgsub.add_parser(name)
        p.add_argument("--gens", required=True, help='generators, e.g. "1,0;1,1;0,2" or "5;11"')
        if name == "contains":
            p.add_argument("--point", required=True)
        common(p)

    ce = sub.add_parser("certify", help="arc certificates of non-membership")
    cesub = ce.add_subparsers(dest="family", required=True)
    p = cesub.add_parser("hypersurface")
    p.add_argument("--alpha", type=int, required=True)
    p.add_argument("--beta", type=int, required=True)
    p.add_argument("--bigN", type=int, required=True)
    p.add_argument("--point", required=True)
    common(p)
    p = cesub.add_parser("wu")
    p.add_argument("--r", type=int, required=True, help="odd exponent of the refuted monomial")
    common(p)
    p = cesub.add_parser("verify")
    p.add_argument("--in", dest="infile", required=True, help="certificate JSON file")
    common(p)

    ideal = sub.add_parser("ideal", help="binomial relations of the toric ideal")
    idsub = ideal.add_subparsers(dest="op", required=True)
    p = idsub.add_parser("kernel")
    p.add_argument("--gens", required=True)
    common(p)
    p = idsub.add_parser("generators")
    p.add_argument("--gens", required=True)
    p.add_argument("--degree-bound", type=int, default=4)
    common(p)
    p = idsub.add_parser("verify")
    p.add_argument("--gens", required=True)
    p.add_argument("--binomial", action="append", required=True, help='pair "a,..:b,..", repeat')
    common(p)
    return parser


def job_from_args(args: argparse.Namespace) -> dict:
    fmt = "json" if args.json else "text"
    if args.command == "saturate":
        if args.kind == "curve":
            payload = {"supports": _parse_supports(args.supports)}
        elif args.kind == "product":
            payload = {"factors": [_parse_supports(s) for s in args.supports]}
        else:
            payload = {"alpha": args.alpha, "beta": args.beta, "bigN": args.bigN}
            payload["box"] = _parse_box(args.box) if args.box else None
        return {"kind": f"saturate-{args.kind}", "payload": payload, "output_format": fmt}
    if args.command == "semigroup":
        payload = {"op": args.op, "generators": [list(v) for v in _parse_vectors(args.gens)]}
        if args.op == "contains":
            payload["point"] = _parse_point(args.point)
        return {"kind": "semigroup", "payload": payload, "output_format": fmt}
    if args.command == "certify":
        if args.family == "hypersurface":
            payload = {
                "family": "hypersurface",
                "alpha": args.alpha,
                "beta": args.beta,
                "bigN": args.bigN,
                "point": _parse_point(args.point),
            }
        elif args.family == "wu":
            payload = {"family": "wu", "r": args.r}
        else:
            with open(args.infile, "r", encoding="utf-8") as fh:
                payload = {"family": "verify", "certificate": json.load(fh)}
        return {"kind": "certify", "payload": payload, "output_format": fmt}
    payload = {"op": args.op, "generators": [list(v) for v in _parse_vectors(args.gens)]}
    if args.op == "generators":
        payload["degree_bound"] = args.degree_bound
    if args.op == "verify":
        payload["binomials"] = [_parse_binomial(b) for b in args.binomial]
    return {"kind": "ideal", "payload": payload, "output_format": fmt}


# -- execution ----------------------------------------------------------------


def _saturation_dict(result: lipsat.SaturationResult) -> dict:
    return {
        "min_gens": [list(g) for g in result.min_gens],
        "multiplicity": result.multiplicity,
        "embedding_dimension": result.embedding_dimension,
        "parametrization": [list(g) for g in result.parametrization],
        "assumptions": list(result.assumptions),
    }


def _mk_affine_from_payload(payload: dict) -> affsg.AffineSemigroup:
    gens = [tuple(v) for v in payload["generators"]]
    return affsg.mk_affine(len(gens[0]), gens)


def execute(job: dict) -> dict:
    """Run a validated job and return its result dictionary (pure, deterministic)."""
    kind = job["kind"]
    payload = job["payload"]
    if kind == "saturate-curve":
        curve = lipsat.mk_curve(payload["supports"])
        result = lipsat.saturate_curve(curve)
        original = lipsat.curve_semigroup(curve)
        lipsat.check_saturation(original, result)
        out = _saturation_dict(result)
        out["characteristic_exponents"] = [g[0] for g in original.generators]
        return out
    if kind == "saturate-product":
        curves = [lipsat.mk_curve(s) for s in payload["factors"]]
        result = lipsat.saturate_product(curves)
        original = functools.reduce(affsg.product, map(lipsat.curve_semigroup, curves))
        lipsat.check_saturation(original, result)
        return _saturation_dict(result)
    if kind == "saturate-hypersurface":
        spec = HypersurfaceSpec(payload["alpha"], payload["beta"], payload["bigN"])
        box = tuple(payload["box"]) if payload.get("box") else None
        result = lipsat.hyp_min_generators(spec, box=box)
        lipsat.check_saturation(lipsat.hyp_semigroup(spec), result)
        out = _saturation_dict(result)
        out["T_saturation_min_gens"] = list(lipsat.hyp_T_saturation(spec).generators)
        out["validation_box"] = list(box if box else lipsat.default_validation_box(spec))
        return out
    if kind == "semigroup":
        return _execute_semigroup(payload)
    if kind == "certify":
        return _execute_certify(payload)
    if kind == "ideal":
        return _execute_ideal(payload)
    raise InputError(f"unknown job kind {kind!r}")


def _execute_semigroup(payload: dict) -> dict:
    op = payload["op"]
    gamma = _mk_affine_from_payload(payload)
    if op == "contains":
        return {"contains": affsg.contains_affine(gamma, payload["point"])}
    if op == "mingens":
        return {"min_gens": [list(g) for g in affsg.min_generators_affine(gamma)]}
    if op == "mult":
        return {"multiplicity": affsg.multiplicity_affine(gamma)}
    if op == "edim":
        return {"embedding_dimension": affsg.embedding_dimension(gamma)}
    if op == "gaps":
        if gamma.dim != 1:
            raise InputError("gaps are defined for numerical semigroups (dimension 1)")
        s = numsg.mk_numerical([g[0] for g in gamma.generators])
        return {"gaps": list(numsg.gaps(s)), "conductor": s.conductor}
    if op == "hull":
        hull = affsg.hull_complement(gamma)
        return {
            "polygon_vertices": [list(v) for v in hull.polygon_vertices],
            "normalized_volume": hull.normalized_volume,
            "outside_points": [list(p) for p in affsg.outside_hull_points(gamma)],
        }
    raise InputError(f"unknown semigroup operation {op!r}")


def _execute_certify(payload: dict) -> dict:
    family = payload["family"]
    if family == "hypersurface":
        spec = HypersurfaceSpec(payload["alpha"], payload["beta"], payload["bigN"])
        point = tuple(payload["point"])
        if lipsat.hyp_membership(spec, point):
            return {
                "member": True,
                "certificate": None,
                "note": "point is in the saturated semigroup; no refutation exists",
            }
        cert = arccert.certify_hyp_point(spec, point)
        if not cert.verdict:
            raise SelfCheckFailed(f"witness for non-member {point} came back inconclusive")
        return {"member": False, "certificate": arccert.certificate_to_dict(cert)}
    if family == "wu":
        arc = arccert.wu_witness(payload["r"])
        ideal = arccert.DiagonalIdeal(((1, 0), (1, 1), (0, 2)))
        cert = arccert.certify_nonmembership(arc, (0, payload["r"]), ideal)
        if not cert.verdict:
            raise SelfCheckFailed("Whitney umbrella witness came back inconclusive")
        return {"member": False, "certificate": arccert.certificate_to_dict(cert)}
    if family == "verify":
        cert = arccert.certificate_from_dict(payload["certificate"])
        valid = arccert.verify_certificate(cert)
        return {
            "valid": valid,
            "ord_target": None if cert.ord_target == float("inf") else cert.ord_target,
            "ord_ideal": None if cert.ord_ideal == float("inf") else cert.ord_ideal,
            "verdict": cert.verdict,
        }
    raise InputError(f"unknown certificate family {family!r}")


def _execute_ideal(payload: dict) -> dict:
    op = payload["op"]
    gamma = _mk_affine_from_payload(payload)
    if op == "kernel":
        basis = torideal.lattice_kernel(gamma)
        return {
            "basis": [list(rel.vector) for rel in basis],
            "binomials": [[list(rel.binomial()[0]), list(rel.binomial()[1])] for rel in basis],
        }
    if op == "generators":
        moves = torideal.degree_bounded_generators(gamma, payload["degree_bound"])
        return {
            "degree_bound": payload["degree_bound"],
            "binomials": [[list(a), list(b)] for a, b in moves],
        }
    if op == "verify":
        binomials = [(tuple(a), tuple(b)) for a, b in payload["binomials"]]
        return {"vanishing": torideal.verify_vanishing(binomials, gamma)}
    raise InputError(f"unknown ideal operation {op!r}")


# -- rendering ----------------------------------------------------------------


def _monomial(vec: Sequence[int], variables: Sequence[str]) -> str:
    parts = []
    for e, v in zip(vec, variables):
        if e == 1:
            parts.append(v)
        elif e > 1:
            parts.append(f"{v}^{e}")
    return "*".join(parts) if parts else "1"


def _variables(d: int) -> list[str]:
    if d == 1:
        return ["tau"]
    if d == 2:
        return ["u", "v"]
    return [f"u{i + 1}" for i in range(d)]


def _binomial_str(binomial: Sequence[Sequence[int]]) -> str:
    zvars = [f"z{i + 1}" for i in range(len(binomial[0]))]
    return f"{_monomial(binomial[0], zvars)} - {_monomial(binomial[1], zvars)}"


def render_text(job: dict, result: dict) -> str:
    lines = []
    if job["kind"].startswith("saturate"):
        if "characteristic_exponents" in result:
            lines.append(
                "characteristic exponents: "
                + " ".join(str(x) for x in result["characteristic_exponents"])
            )
        if "T_saturation_min_gens" in result:
            lines.append(
                "T saturation minimal generators: "
                + " ".join(str(x) for x in result["T_saturation_min_gens"])
            )
        gens = result["min_gens"]
        d = len(gens[0])
        lines.append("minimal generators: " + " ".join(str(tuple(g)) for g in gens))
        lines.append(f"multiplicity: {result['multiplicity']}")
        lines.append(f"embedding dimension: {result['embedding_dimension']}")
        variables = _variables(d)
        head = variables[0] if d == 1 else "(" + ",".join(variables) + ")"
        monos = ", ".join(_monomial(g, variables) for g in result["parametrization"])
        lines.append(f"parametrization: {head} -> ({monos})")
    elif job["kind"] == "semigroup":
        for key, value in sorted(result.items()):
            if isinstance(value, bool):
                value = str(value).lower()
            elif isinstance(value, list):
                value = " ".join(str(tuple(v)) if isinstance(v, list) else str(v) for v in value)
            lines.append(f"{key}: {value}")
    elif job["kind"] == "certify":
        if result.get("member"):
            lines.append("member: true")
            lines.append(result["note"])
        elif "certificate" in result:
            cert = result["certificate"]
            lines.append(f"target: {tuple(cert['target'])}")
            lines.append(f"pullback order of target: {cert['ord_target']}")
            lines.append(f"pullback order of ideal: {cert['ord_ideal']}")
            lines.append(
                "verdict: not in saturation"
                f" ({cert['ord_target']} < {cert['ord_ideal']})"
            )
        else:
            lines.append(f"valid: {str(result['valid']).lower()}")
    else:
        if "basis" in result:
            lines.append("kernel basis: " + "; ".join(str(tuple(v)) for v in result["basis"]))
        if "binomials" in result:
            lines.append(
                "binomials: " + "; ".join(_binomial_str(b) for b in result["binomials"])
            )
        if "vanishing" in result:
            lines.append(f"vanishing: {str(result['vanishing']).lower()}")
    return "\n".join(lines) + "\n"


# -- driver -------------------------------------------------------------------


def run(argv: Sequence[str], stdout=None) -> int:
    out = stdout if stdout is not None else sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit:
        return 1
    job: Optional[dict] = None
    try:
        job = job_from_args(args)
        result = execute(job)
    except (ValueError, KeyError, TypeError, OSError) as exc:
        # InputError and json/parse failures alike: the job never validated
        return _fail(out, args, job, exc, 1)
    except (UnsupportedError, MemoryError, RecursionError) as exc:
        return _fail(out, args, job, exc, 2)
    except (NotClosed, SelfCheckFailed) as exc:
        return _fail(out, args, job, exc, 3)
    text = (
        canonical_json({"schema_version": SCHEMA_VERSION, "input": job, "result": result})
        if job["output_format"] == "json"
        else render_text(job, result)
    )
    out.write(text)
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    if job["kind"] == "certify" and "valid" in result and not result["valid"]:
        return 1
    return 0


def _fail(out, args, job, exc, code: int) -> int:
    # MemoryError and RecursionError from the interpreter often carry no text
    message = str(exc) or type(exc).__doc__
    if getattr(args, "json", False):
        out.write(
            canonical_json(
                {
                    "schema_version": SCHEMA_VERSION,
                    "input": job,
                    "error": {
                        "exit_code": code,
                        "type": type(exc).__name__,
                        "message": message,
                    },
                }
            )
        )
    else:
        out.write(f"error ({type(exc).__name__}): {message}\n")
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))
