import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricsat import affsg, lipsat, numsg
from toricsat.errors import GcdNotOne, InvalidSpec
from toricsat.lipsat import HypersurfaceSpec


def test_mk_curve_validation():
    with pytest.raises(ValueError):
        lipsat.mk_curve([])
    with pytest.raises(ValueError):
        lipsat.mk_curve([[3], []])
    with pytest.raises(GcdNotOne):
        lipsat.mk_curve([[4], [6], [8]])


def test_plane_model():
    assert lipsat.plane_model(lipsat.mk_curve([[6], [9, 11], [9, 11]])) == (6, (9, 11))
    assert lipsat.plane_model(lipsat.mk_curve([[4], [6], [7]])) == (4, (6, 7))
    assert lipsat.plane_model(lipsat.mk_curve([[1]])) == (1, ())


def test_saturate_curve_space_curve():
    r = lipsat.saturate_curve(lipsat.mk_curve([[6], [9, 11], [9, 11]]))
    assert r.parametrization == ((6,), (9,), (11,), (13,), (14,), (16,))
    assert r.multiplicity == 6
    assert r.embedding_dimension == 6
    assert r.assumptions


def test_saturate_curve_small():
    r = lipsat.saturate_curve(lipsat.mk_curve([[4], [6], [7]]))
    assert r.min_gens == ((4,), (6,), (7,), (9,))
    smooth = lipsat.saturate_curve(lipsat.mk_curve([[1]]))
    assert smooth.min_gens == ((1,),)
    assert smooth.multiplicity == 1


def test_saturate_product_space_curve_pair():
    r = lipsat.saturate_product(
        [lipsat.mk_curve([[4], [6], [7]]), lipsat.mk_curve([[6], [9, 11], [9, 11]])]
    )
    assert set(r.min_gens) == {
        (4, 0), (6, 0), (7, 0), (9, 0),
        (0, 6), (0, 9), (0, 11), (0, 13), (0, 14), (0, 16),
    }
    assert r.multiplicity == 24
    assert r.embedding_dimension == 10


def test_saturate_product_trivial_and_small():
    smooth = lipsat.mk_curve([[1]])
    r = lipsat.saturate_product([smooth, smooth])
    assert set(r.min_gens) == {(1, 0), (0, 1)}
    assert (r.multiplicity, r.embedding_dimension) == (1, 2)
    c = lipsat.mk_curve([[2], [3]])
    r2 = lipsat.saturate_product([c, c])
    assert set(r2.min_gens) == {(2, 0), (3, 0), (0, 2), (0, 3)}
    assert (r2.multiplicity, r2.embedding_dimension) == (4, 4)
    with pytest.raises(ValueError):
        lipsat.saturate_product([c])


def test_product_matches_factor_saturations():
    c1 = lipsat.mk_curve([[4], [6], [7]])
    c2 = lipsat.mk_curve([[6], [9, 11], [9, 11]])
    r = lipsat.saturate_product([c1, c2])
    r1, r2 = lipsat.saturate_curve(c1), lipsat.saturate_curve(c2)
    embedded = {(g[0], 0) for g in r1.min_gens} | {(0, g[0]) for g in r2.min_gens}
    assert set(r.min_gens) == embedded
    assert r.multiplicity == r1.multiplicity * r2.multiplicity
    assert r.embedding_dimension == r1.embedding_dimension + r2.embedding_dimension


def test_triple_product():
    c = lipsat.mk_curve([[2], [3]])
    r = lipsat.saturate_product([c, c, c])
    assert r.semigroup.dim == 3
    assert r.multiplicity == 8
    assert r.embedding_dimension == 6


def test_hypersurface_spec_validation():
    with pytest.raises(InvalidSpec):
        HypersurfaceSpec(3, 10, 5)
    with pytest.raises(InvalidSpec):
        HypersurfaceSpec(0, 1, 2)
    with pytest.raises(InvalidSpec):
        HypersurfaceSpec(1, 1, 1)


def test_hyp_T_saturation():
    assert lipsat.hyp_T_saturation(HypersurfaceSpec(3, 11, 5)).generators == (5, 11, 12, 13, 14)
    assert lipsat.hyp_T_saturation(HypersurfaceSpec(3, 5, 11)).generators == (5, 11, 12, 13, 14)
    assert lipsat.hyp_T_saturation(HypersurfaceSpec(1, 1, 2)).generators == (1,)


@pytest.mark.parametrize(
    "beta,bigN",
    [(11, 5), (5, 11), (7, 3), (3, 7), (13, 4), (1, 6), (9, 2)],
)
def test_T_saturation_closed_form(beta, bigN):
    # N < beta: {0, N, ..., kN} then everything from beta on (and symmetrically)
    spec = HypersurfaceSpec(2, beta, bigN)
    t = lipsat.hyp_T_saturation(spec)
    lo, hi = sorted((beta, bigN))
    for n in range(3 * (beta + bigN)):
        if lo == 1:
            expected = True
        elif n < hi:
            expected = n % lo == 0
        else:
            expected = True
        assert numsg.contains(t, n) == expected


def test_hyp_membership():
    spec = HypersurfaceSpec(3, 11, 5)
    assert lipsat.hyp_membership(spec, (3, 12))
    assert not lipsat.hyp_membership(spec, (0, 7))
    assert lipsat.hyp_membership(spec, (5, 10))
    assert not lipsat.hyp_membership(spec, (2, 11))


def test_hyp_min_generators_mirror_pair():
    r = lipsat.hyp_min_generators(HypersurfaceSpec(3, 11, 5))
    assert set(r.min_gens) == {(1, 0), (3, 11), (3, 12), (3, 13), (3, 14), (0, 5)}
    assert (r.multiplicity, r.embedding_dimension) == (5, 6)

    r2 = lipsat.hyp_min_generators(HypersurfaceSpec(3, 5, 11))
    assert set(r2.min_gens) == {
        (1, 0), (3, 5), (3, 10), (3, 12), (3, 13), (3, 14),
        (3, 15), (3, 17), (3, 18), (3, 19), (3, 20), (0, 11),
    }
    assert (r2.multiplicity, r2.embedding_dimension) == (11, 12)


def test_hyp_min_generators_beta_one_is_whitney_umbrella():
    r = lipsat.hyp_min_generators(HypersurfaceSpec(1, 1, 2))
    assert set(r.min_gens) == {(1, 0), (1, 1), (0, 2)}
    assert (r.multiplicity, r.embedding_dimension) == (2, 3)
    # beta = 1 means the semigroup is already saturated
    gamma = lipsat.hyp_semigroup(HypersurfaceSpec(1, 1, 2))
    assert set(gamma.generators) == set(r.min_gens)


def test_check_saturation_passes_on_all_families():
    spec = HypersurfaceSpec(3, 11, 5)
    lipsat.check_saturation(lipsat.hyp_semigroup(spec), lipsat.hyp_min_generators(spec))
    c = lipsat.mk_curve([[6], [9, 11], [9, 11]])
    lipsat.check_saturation(lipsat.curve_semigroup(c), lipsat.saturate_curve(c))
    c1 = lipsat.mk_curve([[4], [6], [7]])
    prod = lipsat.saturate_product([c1, c])
    original = affsg.product(lipsat.curve_semigroup(c1), lipsat.curve_semigroup(c))
    lipsat.check_saturation(original, prod)


def test_check_saturation_rejects_wrong_result():
    from toricsat.errors import SelfCheckFailed

    spec = HypersurfaceSpec(3, 11, 5)
    good = lipsat.hyp_min_generators(spec)
    bad = lipsat.SaturationResult(
        semigroup=good.semigroup,
        min_gens=good.min_gens,
        multiplicity=good.multiplicity + 1,
        embedding_dimension=good.embedding_dimension,
        parametrization=good.parametrization,
    )
    with pytest.raises(SelfCheckFailed):
        lipsat.check_saturation(lipsat.hyp_semigroup(spec), bad)
    # Whitney umbrella, and <(3,0),(0,3)> whose five escaping points pin the
    # lexicographic order in which the first escape is reported
    for gens, mult in (([(1, 0), (1, 1), (0, 2)], 2), ([(3, 0), (0, 3)], 9)):
        escaping = lipsat.SaturationResult(
            semigroup=affsg.mk_affine(2, [(1, 0), (0, 1)]),
            min_gens=((0, 1), (1, 0)),
            multiplicity=mult,
            embedding_dimension=2,
            parametrization=((1, 0), (0, 1)),
        )
        message = r"^saturation member \(0, 1\) escapes the hull K\+$"
        with pytest.raises(SelfCheckFailed, match=message):
            lipsat.check_saturation(affsg.mk_affine(2, gens), escaping)



def test_check_saturation_hull_is_exact_on_large_boxes():
    from toricsat.errors import SelfCheckFailed

    # hull edge coefficients times box coordinates exceed 64-bit integers
    for ygen, box in ((10**13, (10**6, 0)), (2**64, (2, 0))):
        original = affsg.mk_affine(2, [(1, 0), (0, ygen)])
        same = lipsat.SaturationResult(
            semigroup=original,
            min_gens=((0, ygen), (1, 0)),
            multiplicity=ygen,
            embedding_dimension=2,
            parametrization=((0, ygen), (1, 0)),
        )
        lipsat.check_saturation(original, same, box=box)
    original = affsg.mk_affine(2, [(1, 0), (0, 10**13)])
    escaping = lipsat.SaturationResult(
        semigroup=affsg.mk_affine(2, [(1, 0), (0, 1)]),
        min_gens=((0, 1), (1, 0)),
        multiplicity=10**13,
        embedding_dimension=2,
        parametrization=((1, 0), (0, 1)),
    )
    message = r"^saturation member \(0, 1\) escapes the hull K\+$"
    with pytest.raises(SelfCheckFailed, match=message):
        lipsat.check_saturation(original, escaping, box=(10**6, 1))


spec_strategy = st.tuples(st.integers(1, 6), st.integers(1, 9), st.integers(2, 9)).filter(
    lambda t: math.gcd(t[1], t[2]) == 1
)


@given(spec_strategy)
@settings(max_examples=40, deadline=None)
def test_hyp_generator_count_and_multiplicity(t):
    spec = HypersurfaceSpec(*t)
    r = lipsat.hyp_min_generators(spec)
    assert len(r.min_gens) == spec.bigN + 1
    assert r.multiplicity == spec.bigN
    for g in r.min_gens:
        assert lipsat.hyp_membership(spec, g)
