import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricsat import affsg
from toricsat.errors import (
    BoxTooLarge,
    ConeNotFull,
    DimensionMismatch,
    NegativeCoordinate,
    UnsupportedDimension,
    ZeroGenerator,
)

from oracles import affine_members

WU = affsg.mk_affine(2, [(1, 0), (1, 1), (0, 2)])


def test_mk_affine_errors():
    with pytest.raises(ZeroGenerator):
        affsg.mk_affine(2, [(0, 0)])
    with pytest.raises(NegativeCoordinate):
        affsg.mk_affine(2, [(1, -1)])
    with pytest.raises(DimensionMismatch):
        affsg.mk_affine(2, [(1, 0, 0)])


def test_mk_affine_dedups_preserving_order():
    g = affsg.mk_affine(2, [(1, 0), (1, 1), (1, 0), (0, 2)])
    assert g.generators == ((1, 0), (1, 1), (0, 2))


def test_contains_wu():
    assert not affsg.contains_affine(WU, (0, 3))
    assert affsg.contains_affine(WU, (2, 2))
    assert affsg.contains_affine(WU, (3, 5))  # 3*(1,1) + (0,2)
    assert affsg.contains_affine(WU, (0, 0))
    with pytest.raises(DimensionMismatch):
        affsg.contains_affine(WU, (1, 2, 3))


def test_box_budget():
    with pytest.raises(BoxTooLarge):
        affsg.membership_table(WU, (10**4, 10**4))


def test_min_generators():
    g = affsg.mk_affine(2, [(1, 0), (1, 1), (0, 2), (2, 1)])
    assert affsg.min_generators_affine(g) == ((0, 2), (1, 0), (1, 1))
    assert affsg.min_generators_affine(affsg.mk_affine(2, [(1, 0), (0, 1)])) == ((0, 1), (1, 0))
    far = affsg.mk_affine(2, [(1000, 0), (0, 100000), (3, 7)])
    assert affsg.min_generators_affine(far) == ((0, 100000), (3, 7), (1000, 0))


def test_min_generators_product_example():
    c1 = affsg.mk_affine(1, [(4,), (6,), (7,), (9,)])
    c2 = affsg.mk_affine(1, [(6,), (9,), (11,), (13,), (14,), (16,)])
    p = affsg.product(c1, c2)
    expected = {
        (4, 0), (6, 0), (7, 0), (9, 0),
        (0, 6), (0, 9), (0, 11), (0, 13), (0, 14), (0, 16),
    }
    assert set(affsg.min_generators_affine(p)) == expected
    assert affsg.embedding_dimension(p) == 10


def test_product():
    s23 = affsg.mk_affine(1, [(2,), (3,)])
    p = affsg.product(s23, s23)
    assert p.dim == 2
    assert set(p.generators) == {(2, 0), (3, 0), (0, 2), (0, 3)}
    assert not affsg.contains_affine(p, (1, 1))
    n2 = affsg.product(affsg.mk_affine(1, [(1,)]), affsg.mk_affine(1, [(1,)]))
    assert set(n2.generators) == {(1, 0), (0, 1)}


def test_hull_complement_wu():
    h = affsg.hull_complement(WU)
    assert h.polygon_vertices == ((0, 0), (1, 0), (0, 2))
    assert h.normalized_volume == 2


def test_hull_complement_hypersurface():
    g = affsg.mk_affine(2, [(1, 0), (3, 11), (0, 5)])
    h = affsg.hull_complement(g)
    assert h.polygon_vertices == ((0, 0), (1, 0), (0, 5))
    assert h.normalized_volume == 5


def test_hull_complement_trivial():
    h = affsg.hull_complement(affsg.mk_affine(2, [(1, 0), (0, 1)]))
    assert h.normalized_volume == 1
    h1 = affsg.hull_complement(affsg.mk_affine(1, [(3,), (5,)]))
    assert h1.normalized_volume == 3 and h1.polygon_vertices == ((0,), (3,))


def test_hull_complement_with_interior_vertex():
    # chain (0,3) -> (1,1) -> (3,0); shoelace of (0,0),(3,0),(1,1),(0,3) gives area 3
    g = affsg.mk_affine(2, [(0, 3), (1, 1), (3, 0)])
    h = affsg.hull_complement(g)
    assert h.polygon_vertices == ((0, 0), (3, 0), (1, 1), (0, 3))
    assert h.normalized_volume == 6


def test_hull_errors():
    with pytest.raises(ConeNotFull):
        affsg.hull_complement(affsg.mk_affine(2, [(1, 1)]))
    with pytest.raises(UnsupportedDimension):
        affsg.hull_complement(affsg.mk_affine(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]))


def test_outside_hull_points():
    assert affsg.outside_hull_points(WU) == ((0, 1),)
    g = affsg.mk_affine(2, [(1, 0), (3, 11), (0, 5)])
    assert affsg.outside_hull_points(g) == ((0, 1), (0, 2), (0, 3), (0, 4))
    assert affsg.outside_hull_points(affsg.mk_affine(2, [(1, 0), (0, 1)])) == ()


def test_outside_points_are_not_members():
    for g in (WU, affsg.mk_affine(2, [(1, 0), (3, 11), (0, 5)])):
        for p in affsg.outside_hull_points(g):
            assert not affsg.contains_affine(g, p)


def test_multiplicity():
    c1 = affsg.mk_affine(1, [(4,), (6,), (7,), (9,)])
    c2 = affsg.mk_affine(1, [(6,), (9,), (11,), (13,), (14,), (16,)])
    p = affsg.product(c1, c2)
    assert affsg.multiplicity_affine(p) == 24
    # untagged copy computes the same value through the hull
    untagged = affsg.mk_affine(2, p.generators)
    assert affsg.multiplicity_affine(untagged) == 24
    assert affsg.multiplicity_affine(affsg.mk_affine(2, [(1, 0), (3, 5), (0, 11)])) == 11
    assert affsg.multiplicity_affine(WU) == 2
    with pytest.raises(UnsupportedDimension):
        affsg.multiplicity_affine(affsg.mk_affine(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]))


def test_embedding_dimension():
    assert affsg.embedding_dimension(affsg.mk_affine(2, [(1, 0), (0, 1)])) == 2
    assert affsg.embedding_dimension(affsg.mk_affine(2, [(1, 0), (3, 5), (0, 11), (4, 5)])) == 3


small_vec = st.tuples(st.integers(0, 6), st.integers(0, 6)).filter(any)
small_vec3 = st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)).filter(any)


@given(st.lists(small_vec, min_size=1, max_size=4, unique=True))
@settings(max_examples=40, deadline=None)
def test_contains_matches_exhaustive_search(gens):
    g = affsg.mk_affine(2, gens)
    members = affine_members(gens, 12)
    corner = (12, 12)
    table = affsg.membership_table(g, corner)
    for x in range(corner[0] + 1):
        for y in range(corner[1] + 1):
            # the exhaustive search is complete for small points
            if x + y <= 12:
                assert table[x, y] == ((x, y) in members)


@given(st.lists(small_vec3, min_size=1, max_size=3, unique=True))
@settings(max_examples=20, deadline=None)
def test_contains_matches_exhaustive_search_dim3(gens):
    g = affsg.mk_affine(3, gens)
    members = affine_members(gens, 8)
    table = affsg.membership_table(g, (10, 10, 10))
    for p in members:
        if all(c <= 10 for c in p):
            assert affsg.contains_affine(g, p)
            assert table[p]
    for p in itertools.product(range(9), repeat=3):
        # the exhaustive search is complete for points of coordinate sum <= 8
        if sum(p) <= 8:
            assert table[p] == (p in members)


@given(st.lists(small_vec, min_size=1, max_size=4, unique=True))
@settings(max_examples=25, deadline=None)
def test_min_generators_regenerate(gens):
    g = affsg.mk_affine(2, gens)
    mg = affsg.min_generators_affine(g)
    h = affsg.mk_affine(2, mg)
    b = 3 * max(max(v) for v in gens)
    assert (affsg.membership_table(g, (b, b)) == affsg.membership_table(h, (b, b))).all()


@given(st.permutations([(1, 0), (3, 11), (0, 5), (2, 4)]))
@settings(max_examples=10, deadline=None)
def test_normalized_volume_order_invariant(gens):
    assert affsg.hull_complement(affsg.mk_affine(2, gens)).normalized_volume == 5


one_dim_gens = st.lists(st.integers(1, 9), min_size=1, max_size=3, unique=True)


@given(one_dim_gens, one_dim_gens)
@settings(max_examples=25, deadline=None)
def test_product_min_generators_are_embedded_factor_min_generators(xs, ys):
    g1 = affsg.mk_affine(1, [(x,) for x in xs])
    g2 = affsg.mk_affine(1, [(y,) for y in ys])
    p = affsg.product(g1, g2)
    expected = {(g[0], 0) for g in affsg.min_generators_affine(g1)}
    expected |= {(0, g[0]) for g in affsg.min_generators_affine(g2)}
    assert set(affsg.min_generators_affine(p)) == expected
    assert affsg.embedding_dimension(p) == affsg.embedding_dimension(g1) + affsg.embedding_dimension(g2)
