import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricsat import affsg, arccert, lipsat
from toricsat.arccert import (
    Arc,
    DiagonalIdeal,
    certificate_from_dict,
    certificate_to_dict,
    certify_hyp_point,
    certify_nonmembership,
    hyp_witness,
    hyp_witness_axis,
    hyp_witness_interior,
    hyp_witness_t_gap,
    ideal_order,
    pullback_order,
    verify_certificate,
    wu_witness,
)
from toricsat.cyclotomic import CyclotomicNumber, ZetaPoly
from toricsat.errors import BadExponent, BadRange, EvenExponent
from toricsat.lipsat import HypersurfaceSpec

WU_IDEAL = DiagonalIdeal(((1, 0), (1, 1), (0, 2)))
SPEC = HypersurfaceSpec(3, 11, 5)
SPEC_IDEAL = DiagonalIdeal.from_spec(SPEC)


def test_diagonal_ideal_from_semigroup():
    gamma = affsg.mk_affine(2, [(1, 0), (1, 1), (0, 2)])
    assert DiagonalIdeal.from_semigroup(gamma) == WU_IDEAL
    with pytest.raises(ValueError):
        DiagonalIdeal(())


def test_wu_pullback_orders():
    arc = wu_witness(3)
    assert pullback_order(arc, (0, 2)) == float("inf")  # x2^2 - y2^2 maps to 0
    assert pullback_order(arc, (1, 0)) == 4  # t^4 - t^5
    assert pullback_order(arc, (0, 3)) == 3  # 2 t^3
    assert pullback_order(arc, (1, 1)) == 5  # t^5 + t^6


def test_wu_ideal_order():
    assert ideal_order(wu_witness(3), WU_IDEAL) == 4


def test_wu_certificates():
    cert = certify_nonmembership(wu_witness(3), (0, 3), WU_IDEAL)
    assert (cert.ord_target, cert.ord_ideal, cert.verdict) == (3, 4, True)
    # (1,1) is a member, so the arc proves nothing
    inconclusive = certify_nonmembership(wu_witness(3), (1, 1), WU_IDEAL)
    assert (inconclusive.ord_target, inconclusive.ord_ideal) == (5, 4)
    assert not inconclusive.verdict and not inconclusive.conclusive


@pytest.mark.parametrize("r", [3, 5, 7, 9, 11, 13, 15])
def test_wu_family_orders(r):
    arc = wu_witness(r)
    assert ideal_order(arc, WU_IDEAL) == r + 1
    assert pullback_order(arc, (0, r)) == r


def test_wu_witness_validation():
    with pytest.raises(EvenExponent):
        wu_witness(2)
    with pytest.raises(BadRange):
        wu_witness(-3)


def test_axis_witness():
    arc = hyp_witness_axis(SPEC, 7)
    orders = [pullback_order(arc, e) for e in SPEC_IDEAL.exponents]
    assert orders == [8, 35, float("inf")]
    assert ideal_order(arc, SPEC_IDEAL) == 8
    cert = certify_nonmembership(arc, (0, 7), SPEC_IDEAL)
    assert (cert.ord_target, cert.ord_ideal, cert.verdict) == (7, 8, True)
    with pytest.raises(BadExponent):
        hyp_witness_axis(SPEC, 10)
    # exponents below N are allowed: the hull already excludes them, but the
    # arc argument works all the same
    low = certify_nonmembership(hyp_witness_axis(SPEC, 4), (0, 4), SPEC_IDEAL)
    assert low.verdict


def test_axis_witness_degenerates_to_wu():
    assert hyp_witness_axis(HypersurfaceSpec(1, 1, 2), 3) == wu_witness(3)


def test_interior_witness():
    arc = hyp_witness_interior(SPEC, 2, 7)
    # r = alpha*(b+1) + beta = 35
    assert arc.y1.terms[-1][0] == 35
    cert = certify_nonmembership(arc, (2, 7), SPEC_IDEAL)
    assert (cert.ord_target, cert.ord_ideal, cert.verdict) == (23, 35, True)
    with pytest.raises(BadRange):
        hyp_witness_interior(SPEC, 3, 7)
    with pytest.raises(BadRange):
        hyp_witness_interior(SPEC, 0, 7)
    with pytest.raises(BadExponent):
        hyp_witness_interior(SPEC, 2, 10)


def test_interior_witness_other_orientation():
    spec = HypersurfaceSpec(3, 5, 11)
    arc = hyp_witness_interior(spec, 1, 3)
    # r = alpha*(b+1) + beta = 17, so the ideal order is 17 and the target
    # order a*(b+1) + b = 7 wins
    assert arc.y1.terms[-1][0] == 17
    cert = certify_nonmembership(arc, (1, 3), DiagonalIdeal.from_spec(spec))
    assert (cert.ord_target, cert.ord_ideal, cert.verdict) == (7, 17, True)


def test_t_gap_witness():
    cert = certify_nonmembership(hyp_witness_t_gap(SPEC, 3, 7), (3, 7), SPEC_IDEAL)
    assert (cert.ord_target, cert.ord_ideal, cert.verdict) == (10, 14, True)
    cert2 = certify_nonmembership(hyp_witness_t_gap(SPEC, 6, 9), (6, 9), SPEC_IDEAL)
    assert (cert2.ord_target, cert2.ord_ideal, cert2.verdict) == (24, 25, True)
    spec = HypersurfaceSpec(3, 5, 11)
    cert3 = certify_nonmembership(
        hyp_witness_t_gap(spec, 3, 9), (3, 9), DiagonalIdeal.from_spec(spec)
    )
    assert (cert3.ord_target, cert3.ord_ideal, cert3.verdict) == (21, 22, True)
    with pytest.raises(BadRange):
        hyp_witness_t_gap(SPEC, 2, 7)
    with pytest.raises(BadExponent):
        hyp_witness_t_gap(SPEC, 3, 12)  # 12 is in the saturation of <5, 11>


def test_dispatcher_covers_all_regions():
    assert hyp_witness(SPEC, (0, 7)) == hyp_witness_axis(SPEC, 7)
    assert hyp_witness(SPEC, (2, 7)) == hyp_witness_interior(SPEC, 2, 7)
    assert hyp_witness(SPEC, (4, 7)) == hyp_witness_t_gap(SPEC, 4, 7)
    with pytest.raises(BadExponent):
        hyp_witness(SPEC, (3, 12))


@pytest.mark.parametrize("triple", [(2, 3, 4), (1, 7, 2), (3, 2, 9), (4, 9, 5), (2, 1, 6)])
def test_soundness_sweep_small_specs(triple):
    spec = HypersurfaceSpec(*triple)
    ideal = DiagonalIdeal.from_spec(spec)
    axis_like_families = (hyp_witness_axis, hyp_witness_interior, hyp_witness_t_gap)
    for a in range(0, 2 * spec.alpha + 1):
        for b in range(0, 2 * (spec.bigN + spec.beta) + 1):
            if lipsat.hyp_membership(spec, (a, b)):
                # no family may refute a member
                for family in axis_like_families:
                    try:
                        if family is hyp_witness_axis:
                            arc = family(spec, b)
                        else:
                            arc = family(spec, a, b)
                    except (BadExponent, BadRange):
                        continue
                    assert not certify_nonmembership(arc, (a, b), ideal).verdict
            else:
                assert certify_hyp_point(spec, (a, b)).verdict


@given(
    st.tuples(st.integers(1, 5), st.integers(1, 9), st.integers(2, 9)).filter(
        lambda t: math.gcd(t[1], t[2]) == 1
    ),
    st.integers(0, 30),
)
@settings(max_examples=80, deadline=None)
def test_witness_ideal_orders_match_their_formulas(triple, b):
    spec = HypersurfaceSpec(*triple)
    ideal = DiagonalIdeal.from_spec(spec)
    alpha, beta, n = spec.alpha, spec.beta, spec.bigN
    if b >= 1 and b % n:
        assert ideal_order(hyp_witness_axis(spec, b), ideal) == b + 1
        if alpha > 1:
            arc = hyp_witness_interior(spec, 1, b)
            assert ideal_order(arc, ideal) == alpha * (b + 1) + beta
    t_sat = lipsat.hyp_T_saturation(spec)
    a = alpha + (b % 3)
    if b >= 0 and not (b in t_sat):
        arc = hyp_witness_t_gap(spec, a, b)
        if n < beta:
            s = (a - alpha) // (beta - b) + 1
            assert ideal_order(arc, ideal) == alpha + s * beta
        else:
            s = a // (n - b) + 1
            assert ideal_order(arc, ideal) == s * n


def test_certificate_verification_is_independent():
    cert = certify_hyp_point(SPEC, (2, 7))
    assert verify_certificate(cert)
    tampered = arccert.NonMembershipCertificate(
        cert.arc, cert.ideal, cert.target, cert.ord_target, cert.ord_ideal + 1, cert.verdict
    )
    assert not verify_certificate(tampered)


def test_certificate_serialization_round_trip():
    for point in ((0, 7), (2, 7), (4, 9)):
        cert = certify_hyp_point(SPEC, point)
        blob = json.dumps(certificate_to_dict(cert))
        back = certificate_from_dict(json.loads(blob))
        assert back == cert
        assert verify_certificate(back)


def test_infinite_order_serializes_as_null():
    arc = wu_witness(3)
    cert = certify_nonmembership(arc, (0, 2), WU_IDEAL)
    data = certificate_to_dict(cert)
    assert data["ord_target"] is None
    back = certificate_from_dict(data)
    assert back.ord_target == float("inf")


def test_arc_coordinates_must_vanish_at_origin():
    with pytest.raises(ValueError):
        Arc(
            2,
            ZetaPoly.monomial(2, 0),
            ZetaPoly.monomial(2, 1),
            ZetaPoly.monomial(2, 1),
            ZetaPoly.monomial(2, 1),
        )


@pytest.mark.parametrize("k", [1, 2, 3, 4, 6, 7, 8, 9, 11])
def test_primitive_root_choice_does_not_change_verdicts(k):
    # any primitive N-th root in the fourth coordinate yields the same verdict
    n = SPEC.bigN
    for j in range(1, n):
        if math.gcd(j, n) != 1:
            continue
        arc = Arc(
            n,
            ZetaPoly.monomial(n, k + 1),
            ZetaPoly.monomial(n, 1),
            ZetaPoly.monomial(n, k + 2),
            ZetaPoly.monomial(n, 1, CyclotomicNumber.zeta(n, j)),
        )
        cert = certify_nonmembership(arc, (0, k), SPEC_IDEAL)
        assert cert.verdict == (k % n != 0)


@given(st.integers(0, 8), st.integers(0, 40))
@settings(max_examples=120, deadline=None)
def test_dispatcher_certifies_exactly_the_non_members(a, b):
    if lipsat.hyp_membership(SPEC, (a, b)):
        with pytest.raises(BadExponent):
            hyp_witness(SPEC, (a, b))
    else:
        cert = certify_hyp_point(SPEC, (a, b))
        assert cert.verdict and verify_certificate(cert)


@st.composite
def sparse_arcs(draw):
    """Random sparse arcs over Q(zeta_n), n <= 7.

    The y coordinates are either drawn freely, copied from x (every pullback
    vanishes identically), or perturbed copies: y1 = x1 plus terms above its
    lowest one and y2 = zeta^j x2, so lowest terms cancel for suitable
    exponents and the order is decided further up.  Every coordinate spans
    at most 3 degrees, so with exponents up to 5 no pullback spans more than
    30 and no truncated series can outgrow MAX_SERIES_TERMS.
    """
    n = draw(st.integers(1, 7))

    def coeff():
        unit = CyclotomicNumber.zeta(n, draw(st.integers(0, n - 1)))
        return unit * draw(st.sampled_from([1, -1, 2, Fraction(1, 3)]))

    def poly(lo, hi):
        size = draw(st.sampled_from([0, 1, 2, 3, 3]))
        return ZetaPoly.from_terms(n, [(draw(st.integers(lo, hi)), coeff()) for _ in range(size)])

    x1, x2 = poly(1, 4), poly(1, 4)
    mode = draw(st.sampled_from(["free", "equal", "perturbed"]))
    if mode == "free":
        y1, y2 = poly(1, 4), poly(1, 4)
    elif mode == "equal":
        y1, y2 = x1, x2
    else:
        low = x1.terms[0][0] if x1.terms else 1
        y1 = x1 + poly(low + 1, low + 3)
        j = draw(st.just(0) | st.integers(0, n - 1))
        y2 = x2 * ZetaPoly.monomial(n, 0, CyclotomicNumber.zeta(n, j))
    return Arc(n, x1, x2, y1, y2)


@given(sparse_arcs(), st.integers(0, 5), st.integers(0, 5))
@settings(max_examples=300, deadline=None)
def test_truncated_pullback_order_matches_full_expansion(arc, a1, a2):
    full = arc.x1**a1 * arc.x2**a2 - arc.y1**a1 * arc.y2**a2
    assert pullback_order(arc, (a1, a2)) == full.order_of_vanishing()


def test_pullback_order_with_cancelling_and_vanishing_sides():
    t = ZetaPoly.monomial(2, 1)
    t2 = ZetaPoly.monomial(2, 2)
    arc = Arc(2, t + t2, t, t + ZetaPoly.monomial(2, 40), t)
    # (t + t^2)^3 - (t + t^40)^3 = 3 t^4 + ...: the t^3 terms cancel
    assert pullback_order(arc, (3, 0)) == 4
    assert pullback_order(arc, (0, 5)) == float("inf")  # x2 = y2
    zero = ZetaPoly.zero(2)
    arc = Arc(2, zero, t, t2, t)
    assert pullback_order(arc, (1, 1)) == 3  # x side is 0, y side t^3
    assert pullback_order(arc, (0, 1)) == float("inf")
    assert pullback_order(Arc(2, zero, t, zero, t2), (2, 0)) == float("inf")
