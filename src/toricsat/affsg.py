"""Affine semigroups inside N^d: membership, minimal generators, hulls.

Generators are nonzero lattice vectors with nonnegative coordinates, so the
generated cone is pointed and membership over a box is decided by one
closure: starting from the origin, the table is OR-ed with its own shifts by
each generator, doubling the shift until it leaves the box.  Generator order
is preserved from construction (it fixes the variable order of the toric
ideal); only minimal-generator output is lexicographically sorted.

The hull machinery realizes K+ = conv(generators) + R^d_{>=0}, the convex
hull of the nonzero members.  In dimensions 1 and 2 its bounded complement
in the positive orthant is a lattice polygon whose normalized volume
(d! times euclidean volume) is the multiplicity of the corresponding toric
germ.  Lattice points outside K+ can never belong to the semigroup or to
any saturation preserving that multiplicity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import (
    BoxTooLarge,
    ConeNotFull,
    DimensionMismatch,
    NegativeCoordinate,
    UnsupportedDimension,
    ZeroGenerator,
)

_CELL_BUDGET = 10**7

Vec = tuple[int, ...]


@dataclass(frozen=True)
class AffineSemigroup:
    dim: int
    generators: tuple[Vec, ...]
    factors: Optional[tuple["AffineSemigroup", ...]] = field(
        default=None, compare=False, repr=False
    )

    def __contains__(self, v: Sequence[int]) -> bool:
        return contains_affine(self, v)


@dataclass(frozen=True)
class HullComplement:
    dim: int
    polygon_vertices: tuple[Vec, ...]
    normalized_volume: int


def _check_vector(d: int, v: Sequence[int]) -> Vec:
    vt = tuple(int(x) for x in v)
    if len(vt) != d:
        raise DimensionMismatch(f"vector {vt} has length {len(vt)}, expected {d}")
    if any(x < 0 for x in vt):
        raise NegativeCoordinate(f"vector {vt} has a negative coordinate")
    return vt


def mk_affine(d: int, gens: Iterable[Sequence[int]]) -> AffineSemigroup:
    """Build an affine semigroup, deduplicating but preserving generator order."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    seen: dict[Vec, None] = {}
    for g in gens:
        gt = _check_vector(d, g)
        if not any(gt):
            raise ZeroGenerator("generators must be nonzero")
        seen.setdefault(gt, None)
    return AffineSemigroup(d, tuple(seen))


def _box_shape(d: int, corner: Sequence[int]) -> tuple[int, ...]:
    """Shape of the table over the box [0, corner], refused beyond the cell budget."""
    shape = tuple(c + 1 for c in _check_vector(d, corner))
    cells = math.prod(shape)
    if cells > _CELL_BUDGET:
        raise BoxTooLarge(f"box {shape} has {cells} cells, budget is {_CELL_BUDGET}")
    return shape


def membership_table(gamma: AffineSemigroup, corner: Sequence[int]) -> np.ndarray:
    """Boolean membership array over the box [0, corner], computed by closure.

    OR-ing the table with its shifts by g, 2g, 4g, ... adds every multiple of
    g that fits; generators are folded in one after another, which is exact
    because the partial sums of a member of the box stay in the box.
    """
    shape = _box_shape(gamma.dim, corner)
    table = np.zeros(shape, dtype=bool)
    table[(0,) * gamma.dim] = True
    for g in gamma.generators:
        shift = g
        while all(s < n for s, n in zip(shift, shape)):
            dst = tuple(slice(s, None) for s in shift)
            src = tuple(slice(0, n - s) for s, n in zip(shift, shape))
            table[dst] |= table[src]
            shift = tuple(2 * s for s in shift)
    return table


def contains_affine(gamma: AffineSemigroup, v: Sequence[int]) -> bool:
    """True iff v is a nonnegative integer combination of the generators."""
    vt = _check_vector(gamma.dim, v)
    if not any(vt):
        return True
    return bool(membership_table(gamma, vt)[vt])


def min_generators_affine(gamma: AffineSemigroup) -> tuple[Vec, ...]:
    """The unique minimal generating set, in lexicographic order.

    A generator g is redundant exactly when g - h is a member for some other
    generator h <= g: any expression of g - h as a sum avoids g itself,
    because every generator is nonzero and nonnegative.  So one table of the
    whole semigroup over [0, g] decides g, and simultaneous removal is safe.
    """
    keep = []
    for g in gamma.generators:
        table = membership_table(gamma, g)
        below = [h for h in gamma.generators if h != g and all(hi <= gi for hi, gi in zip(h, g))]
        if not any(table[tuple(gi - hi for gi, hi in zip(g, h))] for h in below):
            keep.append(g)
    return tuple(sorted(keep))


def product(g1: AffineSemigroup, g2: AffineSemigroup) -> AffineSemigroup:
    """Product semigroup in dimension d1 + d2, tagged with its factors."""
    d = g1.dim + g2.dim
    gens = [g + (0,) * g2.dim for g in g1.generators]
    gens += [(0,) * g1.dim + h for h in g2.generators]
    return AffineSemigroup(d, tuple(dict.fromkeys(gens)), factors=(g1, g2))


def _axis_corners(gens: Sequence[Vec]) -> tuple[Vec, Vec]:
    on_x = [g for g in gens if g[1] == 0]
    on_y = [g for g in gens if g[0] == 0]
    if not on_x or not on_y:
        raise ConeNotFull("need a generator on each coordinate axis for a bounded complement")
    return (min(g[0] for g in on_x), 0), (0, min(g[1] for g in on_y))


def _hull_chain(gens: Sequence[Vec]) -> list[Vec]:
    """Vertices of the lower-left boundary of K+, from the y-axis corner to
    the x-axis corner.  Gift-wrapping walk; generators dominated by a corner
    plus the positive orthant are discarded first."""
    px, py = _axis_corners(gens)
    pts = {g for g in gens if g[0] <= px[0] and g[1] <= py[1]}
    chain = [py]
    cur = py
    while cur != px:
        best = None
        for q in pts:
            if q == cur:
                continue
            if best is None:
                best = q
                continue
            cross = (best[0] - cur[0]) * (q[1] - cur[1]) - (best[1] - cur[1]) * (q[0] - cur[0])
            if cross < 0:
                best = q
            elif cross == 0:
                far_q = (q[0] - cur[0]) ** 2 + (q[1] - cur[1]) ** 2
                far_b = (best[0] - cur[0]) ** 2 + (best[1] - cur[1]) ** 2
                if far_q > far_b:
                    best = q
        chain.append(best)
        cur = best
    return chain


def _chain_edges(chain: Sequence[Vec]) -> list[tuple[int, int, int]]:
    """Inward halfplane (a, b, c) per chain edge: members satisfy a*x + b*y >= c."""
    edges = []
    for (x1, y1), (x2, y2) in zip(chain, chain[1:]):
        a, b = y1 - y2, x2 - x1
        edges.append((a, b, a * x1 + b * y1))
    return edges


def hull_table(gamma: AffineSemigroup, corner: Sequence[int]) -> np.ndarray:
    """Boolean array over the box [0, corner]: lattice points inside K+.

    In dimension 2 every chain edge runs down and to the right (a, b > 0),
    so each column x is inside from the height max ceil((c - a*x) / b) up;
    columns from the x-axis corner on are inside from 0 up.  The thresholds
    are exact integers, clipped to the box, so only the comparison with the
    box-sized grid runs in numpy.
    """
    shape = _box_shape(gamma.dim, corner)
    if gamma.dim == 1:
        return np.arange(shape[0]) >= min(min(g[0] for g in gamma.generators), shape[0])
    if gamma.dim != 2:
        raise UnsupportedDimension("hull membership implemented for dimensions 1 and 2")
    chain = _hull_chain(gamma.generators)
    edges = _chain_edges(chain)
    low = [0] * shape[0]
    for x in range(min(shape[0], chain[-1][0])):
        low[x] = min(max(-((a * x - c) // b) for a, b, c in edges), shape[1])
    return np.arange(shape[1]) >= np.array(low)[:, None]


def hull_complement(gamma: AffineSemigroup) -> HullComplement:
    """Bounded complement of K+ in the positive orthant, with its normalized volume."""
    if gamma.dim == 1:
        m = min(g[0] for g in gamma.generators)
        return HullComplement(1, ((0,), (m,)), m)
    if gamma.dim != 2:
        raise UnsupportedDimension("hull complement implemented for dimensions 1 and 2")
    chain = _hull_chain(gamma.generators)
    polygon = [(0, 0)] + list(reversed(chain))
    twice_area = 0
    for (x1, y1), (x2, y2) in zip(polygon, polygon[1:] + polygon[:1]):
        twice_area += x1 * y2 - x2 * y1
    return HullComplement(2, tuple(polygon), abs(twice_area))


def outside_hull_points(gamma: AffineSemigroup) -> tuple[Vec, ...]:
    """All nonzero lattice points of the positive orthant outside K+, sorted."""
    if gamma.dim == 1:
        corner = (min(g[0] for g in gamma.generators),)
    elif gamma.dim == 2:
        px, py = _axis_corners(gamma.generators)
        corner = (px[0], py[1])
    else:
        raise UnsupportedDimension("hull complement implemented for dimensions 1 and 2")
    outside = ~hull_table(gamma, corner)
    outside[(0,) * gamma.dim] = False
    return tuple(tuple(int(i) for i in p) for p in np.argwhere(outside))


def multiplicity_affine(gamma: AffineSemigroup) -> int:
    """Normalized volume of the hull complement; multiplicative over products."""
    if gamma.factors is not None:
        return math.prod(multiplicity_affine(f) for f in gamma.factors)
    if gamma.dim == 1:
        return min(g[0] for g in gamma.generators)
    if gamma.dim == 2:
        return hull_complement(gamma).normalized_volume
    raise UnsupportedDimension(
        "multiplicity implemented for dimensions 1 and 2 and tagged products"
    )


def embedding_dimension(gamma: AffineSemigroup) -> int:
    return len(min_generators_affine(gamma))
