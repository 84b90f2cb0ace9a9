"""Lipschitz saturation at the semigroup level.

Three computable families:

* monomial curves: exponent supports of a parametrization are projected to
  plane-curve data (leading exponent + support union), run through the
  characteristic-exponent saturation, and re-parametrized by the minimal
  generators of the saturated numerical semigroup;
* finite products of such curves: the saturation of the product is the
  product of the factor saturations, so multiplicity multiplies and
  embedding dimension adds;
* the surface family y^N = x^(alpha*N) * z^beta with gcd(beta, N) = 1,
  normalized by (u, v) -> (u, u^alpha v^beta, v^N).  Writing T for the
  numerical semigroup generated by {N, beta} and T^s for its saturation,
  the monomial u^a v^b is Lipschitz on the germ exactly when b is a
  multiple of N, or a >= alpha and b lies in T^s.  The saturated semigroup
  has multiplicity N and exactly N + 1 minimal generators.

All results are packaged as SaturationResult and can be re-validated
against the defining invariants (containment of the original semigroup,
multiplicity preservation, hull containment) on a finite box.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional, Sequence

from . import affsg, numsg
from .affsg import AffineSemigroup, Vec, membership_table
from .errors import GcdNotOne, InvalidSpec, SelfCheckFailed
from .numsg import NumericalSemigroup

GENERIC_PROJECTION_NOTE = (
    "plane projection modeled at exponent level: coordinate supports are "
    "combined by union, assuming a generic projection causes no cancellation"
)


@dataclass(frozen=True)
class MonomialCurve:
    """Exponent supports of the coordinate series of a curve parametrization."""

    coordinate_supports: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class HypersurfaceSpec:
    alpha: int
    beta: int
    bigN: int

    def __post_init__(self):
        if self.alpha < 1 or self.beta < 1 or self.bigN < 2:
            raise InvalidSpec(
                f"need alpha, beta >= 1 and N >= 2, got ({self.alpha}, {self.beta}, {self.bigN})"
            )
        if math.gcd(self.beta, self.bigN) != 1:
            raise InvalidSpec(f"gcd(beta, N) = gcd({self.beta}, {self.bigN}) != 1")


@dataclass(frozen=True)
class SaturationResult:
    semigroup: AffineSemigroup
    min_gens: tuple[Vec, ...]
    multiplicity: int
    embedding_dimension: int
    parametrization: tuple[Vec, ...]
    assumptions: tuple[str, ...] = ()


def mk_curve(supports: Iterable[Iterable[int]]) -> MonomialCurve:
    sups = tuple(tuple(sorted(set(int(x) for x in s))) for s in supports)
    if not sups or any(not s for s in sups):
        raise ValueError("each coordinate needs a nonempty exponent support")
    if any(x < 1 for s in sups for x in s):
        raise ValueError("exponents must be positive")
    if math.gcd(*(x for s in sups for x in s)) != 1:
        raise GcdNotOne("exponent supports have gcd > 1: parametrization is not reduced")
    return MonomialCurve(sups)


def plane_model(curve: MonomialCurve) -> tuple[int, tuple[int, ...]]:
    """Leading exponent and remaining support union of a generic plane projection."""
    union = sorted(set(x for s in curve.coordinate_supports for x in s))
    m = union[0]
    return m, tuple(x for x in union if x != m)


def saturate_curve(curve: MonomialCurve) -> SaturationResult:
    """Saturation of a monomial curve, parametrized by the minimal generators."""
    m, support = plane_model(curve)
    exponents = numsg.char_exponents(m, support)
    sat = numsg.saturate_chars(exponents)
    gens = tuple((a,) for a in sat.generators)
    return SaturationResult(
        semigroup=affsg.mk_affine(1, gens),
        min_gens=gens,
        multiplicity=exponents.betas[0],
        embedding_dimension=len(gens),
        parametrization=gens,
        assumptions=(GENERIC_PROJECTION_NOTE,),
    )


def curve_semigroup(curve: MonomialCurve) -> AffineSemigroup:
    """The 1-dimensional semigroup generated by the characteristic exponents."""
    m, support = plane_model(curve)
    exponents = numsg.char_exponents(m, support)
    return affsg.mk_affine(1, tuple((b,) for b in exponents.betas))


def _embed(vectors: Sequence[Vec], offset: int, total: int) -> list[Vec]:
    return [(0,) * offset + v + (0,) * (total - offset - len(v)) for v in vectors]


def saturate_product(curves: Sequence[MonomialCurve]) -> SaturationResult:
    """Saturation of a product of monomial curves, factor by factor."""
    if len(curves) < 2:
        raise ValueError("a product needs at least two factors")
    parts = [saturate_curve(c) for c in curves]
    semigroup = parts[0].semigroup
    for p in parts[1:]:
        semigroup = affsg.product(semigroup, p.semigroup)
    total = semigroup.dim
    gens: list[Vec] = []
    offset = 0
    for p in parts:
        gens += _embed(p.min_gens, offset, total)
        offset += p.semigroup.dim
    assumptions = tuple(dict.fromkeys(a for p in parts for a in p.assumptions))
    return SaturationResult(
        semigroup=semigroup,
        min_gens=tuple(sorted(gens)),
        multiplicity=math.prod(p.multiplicity for p in parts),
        embedding_dimension=sum(p.embedding_dimension for p in parts),
        parametrization=tuple(gens),
        assumptions=assumptions,
    )


def hyp_semigroup(spec: HypersurfaceSpec) -> AffineSemigroup:
    """The unsaturated surface semigroup <(1,0), (alpha,beta), (0,N)>."""
    return affsg.mk_affine(2, [(1, 0), (spec.alpha, spec.beta), (0, spec.bigN)])


@lru_cache(maxsize=256)
def hyp_T_saturation(spec: HypersurfaceSpec) -> NumericalSemigroup:
    """Saturation of the numerical semigroup generated by {N, beta}."""
    lo, hi = sorted((spec.bigN, spec.beta))
    return numsg.saturate_chars(numsg.char_exponents(lo, [hi]))


def hyp_membership(spec: HypersurfaceSpec, point: Sequence[int]) -> bool:
    """Saturated-semigroup membership test for the hypersurface family."""
    a, b = (int(x) for x in point)
    if a < 0 or b < 0:
        return False
    if b % spec.bigN == 0:
        return True
    return a >= spec.alpha and numsg.contains(hyp_T_saturation(spec), b)


def default_validation_box(spec: HypersurfaceSpec) -> tuple[int, int]:
    return 3 * spec.alpha, 3 * (spec.bigN + spec.beta)


def _hyp_generators(spec: HypersurfaceSpec) -> list[tuple[int, int]]:
    a, b, n = spec.alpha, spec.beta, spec.bigN
    base = [(1, 0), (a, b), (0, n)]
    if b == 1:
        return [(1, 0), (0, n)] + [(a, j) for j in range(1, n)]
    if n < b:
        k = b // n
        extra = [(a, b + i) for i in range(1, n) if b + i != (k + 1) * n]
        return base + extra
    k = n // b
    extra = [(a, j * b) for j in range(2, k + 1)]
    skipped = {n + j * b for j in range(1, k + 1)}
    extra += [(a, n + i) for i in range(1, n) if n + i not in skipped]
    return base + extra


def hyp_min_generators(
    spec: HypersurfaceSpec, box: Optional[tuple[int, int]] = None
) -> SaturationResult:
    """Minimal generating set of the saturated hypersurface semigroup.

    The generator list follows the closed-form case split on beta vs N; the
    result is self-checked before being returned: generated membership must
    match the membership formula on the validation box, the set must be
    minimal, and there must be exactly N + 1 generators of multiplicity N.
    """
    gens = _hyp_generators(spec)
    for g in gens:
        if not hyp_membership(spec, g):
            raise SelfCheckFailed(f"constructed generator {g} fails the membership formula")
    semigroup = affsg.mk_affine(2, gens)
    corner = box if box is not None else default_validation_box(spec)
    table = membership_table(semigroup, corner)
    for x in range(corner[0] + 1):
        for y in range(corner[1] + 1):
            if bool(table[x, y]) != hyp_membership(spec, (x, y)):
                raise SelfCheckFailed(
                    f"generated semigroup and membership formula disagree at ({x}, {y})"
                )
    min_gens = affsg.min_generators_affine(semigroup)
    if set(min_gens) != set(gens):
        raise SelfCheckFailed("constructed generator set is not minimal")
    if len(min_gens) != spec.bigN + 1:
        raise SelfCheckFailed(
            f"expected {spec.bigN + 1} minimal generators, found {len(min_gens)}"
        )
    mult = affsg.multiplicity_affine(semigroup)
    if mult != spec.bigN:
        raise SelfCheckFailed(f"expected multiplicity {spec.bigN}, found {mult}")
    return SaturationResult(
        semigroup=semigroup,
        min_gens=min_gens,
        multiplicity=mult,
        embedding_dimension=len(min_gens),
        parametrization=min_gens,
    )


def check_saturation(
    original: AffineSemigroup,
    result: SaturationResult,
    box: Optional[Sequence[int]] = None,
) -> None:
    """Re-validate a SaturationResult against its defining invariants.

    On the given box (default: three times the largest generator coordinate
    in each direction): the original semigroup is contained in the
    saturation; multiplicities agree; and no nonzero member of the
    saturation escapes the hull K+ of the original (dimensions 1 and 2).
    Raises SelfCheckFailed on any violation.
    """
    d = original.dim
    if result.semigroup.dim != d:
        raise SelfCheckFailed("dimension mismatch between input and saturation")
    all_gens = list(original.generators) + list(result.semigroup.generators)
    if box is None:
        box = tuple(3 * max(g[i] for g in all_gens) for i in range(d))
    corner = tuple(int(x) for x in box)
    t_orig = membership_table(original, corner)
    t_sat = membership_table(result.semigroup, corner)
    if bool((t_orig & ~t_sat).any()):
        raise SelfCheckFailed("original semigroup not contained in its saturation")
    if affsg.multiplicity_affine(original) != result.multiplicity:
        raise SelfCheckFailed("saturation changed the multiplicity")
    if d <= 2:
        escapes = t_sat & ~affsg.hull_table(original, corner)
        escapes[(0,) * d] = False
        if escapes.any():
            idx = tuple(int(i[0]) for i in escapes.nonzero())
            raise SelfCheckFailed(f"saturation member {idx} escapes the hull K+")
