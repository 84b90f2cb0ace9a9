"""Arc certificates of non-membership in the integral closure of a diagonal ideal.

The diagonal ideal of a 2-dimensional semigroup with generators a^(1), ...,
a^(n) lives on the doubled normalization space with coordinates
(x1, x2, y1, y2) and is generated by the binomials x^a - y^a.  A monomial
u^a1 v^a2 belongs to the saturated germ exactly when x^a - y^a lies in the
integral closure of that ideal; by the valuative criterion, a single arc
phi with

    ord phi*(x^a - y^a)  <  min over generators of ord phi*(x^g - y^g)

refutes membership.  Arcs here have polynomial coordinates with exact
cyclotomic coefficients, so both orders are computed exactly and any third
party can recompute them from the serialized certificate alone.

Only the lowest nonzero term of a pullback matters, so no pullback is
expanded in full.  Q(zeta_N) is a field: lowest coefficients never cancel
inside a product, and x^a = x1^a1 x2^a2 starts exactly at
a1*ord(x1) + a2*ord(x2).  If the two sides of x^a - y^a start at different
exponents, the lower one is the order.  Otherwise both sides are divided by
t^low and expanded modulo t^P for P = 1, 2, 4, ...; a truncated product
agrees with the full one below t^P, so the first nonzero term of the
difference below P is exact.  Once low + P exceeds both sides' degrees the
truncation dropped nothing, and a zero difference is identically zero.

Witness families for the hypersurface semigroup <(1,0), (alpha,beta), (0,N)>
cover all three regions of non-members (a, b) with b not a multiple of N:

* axis      (a = 0):            t -> (t^(b+1), t, t^(b+2), zeta_N * t)
* interior  (0 < a < alpha):    t -> (t^(b+1), t, t^(b+1) + t^r, zeta_N * t)
                                with r = alpha*(b+1) + beta
* t_gap     (a >= alpha, b outside the saturation of <N, beta>):
                                t -> (t, t^s, t, zeta * t^s) where zeta is a
                                primitive N-th (if N < beta) or beta-th (if
                                beta < N) root of unity and s is the least
                                scaling making the order gap strict.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import lipsat, numsg
from .affsg import AffineSemigroup
from .cyclotomic import CyclotomicNumber, ZetaPoly, euler_phi
from .errors import BadExponent, BadRange, EvenExponent
from .lipsat import HypersurfaceSpec

SCHEMA_VERSION = 1

ExtOrder = int | float  # a natural number, or float('inf') for identically zero


@dataclass(frozen=True)
class Arc:
    """An arc through the origin of the doubled normalization space."""

    order: int
    x1: ZetaPoly
    x2: ZetaPoly
    y1: ZetaPoly
    y2: ZetaPoly

    def __post_init__(self):
        for name in ("x1", "x2", "y1", "y2"):
            poly = getattr(self, name)
            if poly.order != self.order:
                raise ValueError("arc coordinates must share one cyclotomic order")
            if poly.terms and poly.terms[0][0] == 0:
                raise ValueError(f"coordinate {name} does not vanish at t = 0")

    def coordinates(self) -> tuple[ZetaPoly, ZetaPoly, ZetaPoly, ZetaPoly]:
        return (self.x1, self.x2, self.y1, self.y2)


@dataclass(frozen=True)
class DiagonalIdeal:
    """Exponent vectors a such that x^a - y^a generates the ideal."""

    exponents: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not self.exponents:
            raise ValueError("a diagonal ideal needs at least one generator")

    @classmethod
    def from_semigroup(cls, gamma: AffineSemigroup) -> "DiagonalIdeal":
        if gamma.dim != 2:
            raise ValueError("diagonal ideals are built from 2-dimensional semigroups")
        return cls(tuple((g[0], g[1]) for g in gamma.generators))

    @classmethod
    def from_spec(cls, spec: HypersurfaceSpec) -> "DiagonalIdeal":
        return cls(((1, 0), (spec.alpha, spec.beta), (0, spec.bigN)))


@dataclass(frozen=True)
class NonMembershipCertificate:
    arc: Arc
    ideal: DiagonalIdeal
    target: tuple[int, int]
    ord_target: ExtOrder
    ord_ideal: ExtOrder
    verdict: bool

    @property
    def conclusive(self) -> bool:
        return self.verdict


def _side(p1: ZetaPoly, p2: ZetaPoly, a1: int, a2: int):
    """p1^a1 * p2^a2 as (lowest exponent, degree, factors divided by their lowest
    power of t); None if it is identically zero."""
    factors = [(p, a) for p, a in ((p1, a1), (p2, a2)) if a]
    if any(p.is_zero() for p, _ in factors):
        return None
    low = sum(a * p.terms[0][0] for p, a in factors)
    deg = sum(a * p.terms[-1][0] for p, a in factors)
    shifted = [
        (ZetaPoly(p.order, tuple((e - p.terms[0][0], c) for e, c in p.terms)), a)
        for p, a in factors
    ]
    return low, deg, shifted


def _series(order: int, factors, below: int) -> ZetaPoly:
    """The product of the factors' powers, modulo t^below."""
    out = ZetaPoly.monomial(order, 0)
    for p, a in factors:
        out = out.mul(p.power(a, below), below)
    return out


def pullback_order(arc: Arc, exponent: Sequence[int]) -> ExtOrder:
    """Order of vanishing of phi*(x^a - y^a); infinity if it is identically zero."""
    a1, a2 = (int(e) for e in exponent)
    if a1 < 0 or a2 < 0:
        raise ValueError("exponents must be nonnegative")
    x = _side(arc.x1, arc.x2, a1, a2)
    y = _side(arc.y1, arc.y2, a1, a2)
    if x is None or y is None:
        # one side is identically zero: the other side's lowest term survives
        rest = x or y
        return rest[0] if rest else float("inf")
    (low, deg_x, fx), (low_y, deg_y, fy) = x, y
    if low != low_y:
        # lowest coefficients are nonzero, so the lower side's survives
        return min(low, low_y)
    below = 1
    while True:
        diff = _series(arc.order, fx, below) - _series(arc.order, fy, below)
        if diff.terms:
            return low + diff.terms[0][0]
        if low + below > max(deg_x, deg_y):
            return float("inf")
        below *= 2


def ideal_order(arc: Arc, ideal: DiagonalIdeal) -> ExtOrder:
    """Order of the pulled-back ideal: the minimum over generator pullbacks."""
    return min(pullback_order(arc, a) for a in ideal.exponents)


def certify_nonmembership(
    arc: Arc, target: Sequence[int], ideal: DiagonalIdeal
) -> NonMembershipCertificate:
    """Certificate comparing the target pullback order with the ideal order.

    verdict True (strict drop below the ideal order) soundly proves the
    target monomial difference is outside the integral closure, hence the
    monomial is not in the saturation.  verdict False means this arc is
    inconclusive; it never proves membership.
    """
    t = (int(target[0]), int(target[1]))
    ot = pullback_order(arc, t)
    oi = ideal_order(arc, ideal)
    return NonMembershipCertificate(arc, ideal, t, ot, oi, bool(ot < oi))


def wu_witness(r: int) -> Arc:
    """The arc t -> (t^(r+1), t, t^(r+2), -t) refuting v^r on the Whitney umbrella."""
    if r % 2 == 0:
        raise EvenExponent(f"exponent {r} is even, so (0, {r}) is in the semigroup")
    if r < 1:
        raise BadRange("exponent must be a positive odd natural")
    return Arc(
        2,
        ZetaPoly.monomial(2, r + 1),
        ZetaPoly.monomial(2, 1),
        ZetaPoly.monomial(2, r + 2),
        ZetaPoly.monomial(2, 1, CyclotomicNumber.rational(2, -1)),
    )


def hyp_witness_axis(spec: HypersurfaceSpec, k: int) -> Arc:
    """Witness for (0, k) with k not a multiple of N: (t^(k+1), t, t^(k+2), zeta_N t)."""
    if k < 1:
        raise BadRange("exponent must be a positive natural")
    if k % spec.bigN == 0:
        raise BadExponent(f"(0, {k}) is in the semigroup: {k} is a multiple of {spec.bigN}")
    n = spec.bigN
    return Arc(
        n,
        ZetaPoly.monomial(n, k + 1),
        ZetaPoly.monomial(n, 1),
        ZetaPoly.monomial(n, k + 2),
        ZetaPoly.monomial(n, 1, CyclotomicNumber.zeta(n)),
    )


def hyp_witness_interior(spec: HypersurfaceSpec, a: int, b: int) -> Arc:
    """Witness for (a, b) with 0 < a < alpha and N not dividing b.

    Uses t -> (t^(b+1), t, t^(b+1) + t^r, zeta_N t) with r = alpha*(b+1) + beta,
    the smallest choice making the pulled-back ideal have order exactly r.
    """
    if not 0 < a < spec.alpha:
        raise BadRange(f"first exponent must satisfy 0 < a < {spec.alpha}, got {a}")
    if b % spec.bigN == 0:
        raise BadExponent(f"({a}, {b}) is in the semigroup: {b} is a multiple of {spec.bigN}")
    n = spec.bigN
    r = spec.alpha * (b + 1) + spec.beta
    return Arc(
        n,
        ZetaPoly.monomial(n, b + 1),
        ZetaPoly.monomial(n, 1),
        ZetaPoly.monomial(n, b + 1) + ZetaPoly.monomial(n, r),
        ZetaPoly.monomial(n, 1, CyclotomicNumber.zeta(n)),
    )


def hyp_witness_t_gap(spec: HypersurfaceSpec, a: int, b: int) -> Arc:
    """Witness for (a, b) with a >= alpha and b outside the saturation of <N, beta>.

    Setting x1 = y1 = t kills the first ideal generator; x2 = t^s and
    y2 = zeta * t^s with zeta of order N (when N < beta) or beta (when
    beta < N) kill the generator whose exponent zeta annihilates, leaving a
    single surviving generator order that the scaling s pushes strictly
    above the target order a + s*b.
    """
    if a < spec.alpha:
        raise BadRange(f"first exponent must be >= alpha = {spec.alpha}, got {a}")
    if b < 0 or numsg.contains(lipsat.hyp_T_saturation(spec), b):
        raise BadExponent(
            f"({a}, {b}) is in the semigroup: {b} lies in the saturation of "
            f"<{spec.bigN}, {spec.beta}>"
        )
    alpha, beta, n = spec.alpha, spec.beta, spec.bigN
    if n < beta:
        # surviving generator: x1^alpha x2^beta - y1^alpha y2^beta, order alpha + s*beta
        root_order = n
        s = (a - alpha) // (beta - b) + 1
    else:
        # surviving generator: x2^N - y2^N, order s*N
        root_order = beta
        s = a // (n - b) + 1
    return Arc(
        root_order,
        ZetaPoly.monomial(root_order, 1),
        ZetaPoly.monomial(root_order, s),
        ZetaPoly.monomial(root_order, 1),
        ZetaPoly.monomial(root_order, s, CyclotomicNumber.zeta(root_order)),
    )


def hyp_witness(spec: HypersurfaceSpec, point: Sequence[int]) -> Arc:
    """Pick the witness family refuting the given non-member point."""
    a, b = (int(x) for x in point)
    if lipsat.hyp_membership(spec, (a, b)):
        raise BadExponent(f"({a}, {b}) is in the saturated semigroup; no witness exists")
    if a == 0:
        return hyp_witness_axis(spec, b)
    if a < spec.alpha:
        return hyp_witness_interior(spec, a, b)
    return hyp_witness_t_gap(spec, a, b)


def certify_hyp_point(spec: HypersurfaceSpec, point: Sequence[int]) -> NonMembershipCertificate:
    """End-to-end certificate for a non-member point of the hypersurface family."""
    arc = hyp_witness(spec, point)
    return certify_nonmembership(arc, tuple(point), DiagonalIdeal.from_spec(spec))


def verify_certificate(cert: NonMembershipCertificate) -> bool:
    """Recompute both orders from the arc and ideal alone and compare."""
    ot = pullback_order(cert.arc, cert.target)
    oi = ideal_order(cert.arc, cert.ideal)
    return ot == cert.ord_target and oi == cert.ord_ideal and cert.verdict == (ot < oi)


# -- serialization -----------------------------------------------------------
#
# A certificate is a self-contained JSON record: ideal generator exponents,
# arc coordinates as sparse polynomials whose coefficients are vectors of
# rationals (strings, lossless) on the power basis of Q(zeta_order), the
# target exponent, both orders, and the verdict.


def _poly_to_json(poly: ZetaPoly) -> list:
    return [[exp, [str(f) for f in coeff.coeffs]] for exp, coeff in poly.terms]


def _poly_from_json(order: int, data) -> ZetaPoly:
    width = euler_phi(order)
    terms = []
    for exp, vec in data:
        if len(vec) != width:
            raise ValueError(f"coefficient vector must have {width} entries for order {order}")
        coeff = CyclotomicNumber(order, tuple(Fraction(s) for s in vec))
        terms.append((int(exp), coeff))
    return ZetaPoly.from_terms(order, terms)


def _order_to_json(o: ExtOrder):
    return None if o == float("inf") else int(o)


def certificate_to_dict(cert: NonMembershipCertificate) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "cyclotomic_order": cert.arc.order,
        "ideal": [list(e) for e in cert.ideal.exponents],
        "arc": {
            "x1": _poly_to_json(cert.arc.x1),
            "x2": _poly_to_json(cert.arc.x2),
            "y1": _poly_to_json(cert.arc.y1),
            "y2": _poly_to_json(cert.arc.y2),
        },
        "target": list(cert.target),
        "ord_target": _order_to_json(cert.ord_target),
        "ord_ideal": _order_to_json(cert.ord_ideal),
        "verdict": cert.verdict,
    }


def certificate_from_dict(data: dict) -> NonMembershipCertificate:
    if data.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(f"unsupported certificate schema: {data.get('schema_version')!r}")
    order = int(data["cyclotomic_order"])
    arc = Arc(
        order,
        _poly_from_json(order, data["arc"]["x1"]),
        _poly_from_json(order, data["arc"]["x2"]),
        _poly_from_json(order, data["arc"]["y1"]),
        _poly_from_json(order, data["arc"]["y2"]),
    )
    ideal = DiagonalIdeal(tuple((int(a), int(b)) for a, b in data["ideal"]))
    target = (int(data["target"][0]), int(data["target"][1]))
    ot = float("inf") if data["ord_target"] is None else int(data["ord_target"])
    oi = float("inf") if data["ord_ideal"] is None else int(data["ord_ideal"])
    return NonMembershipCertificate(arc, ideal, target, ot, oi, bool(data["verdict"]))
