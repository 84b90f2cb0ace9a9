import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricsat.cyclotomic import (
    MAX_CYCLOTOMIC_ORDER,
    MAX_SERIES_TERMS,
    CyclotomicNumber,
    ZetaPoly,
    cyclotomic_poly,
    euler_phi,
)
from toricsat.errors import BudgetExceeded


def test_cyclotomic_poly_small():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(2) == (1, 1)
    # dividing t^5 - 1 by t - 1 by hand
    assert cyclotomic_poly(5) == (1, 1, 1, 1, 1)
    # dividing t^6 - 1 by (t-1)(t+1)(t^2+t+1)
    assert cyclotomic_poly(6) == (1, -1, 1)
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)


@pytest.mark.parametrize("n", range(1, 31))
def test_cyclotomic_product_identity(n):
    # independent check: the product of Phi_d over divisors d of n is t^n - 1
    prod = [1]
    for d in range(1, n + 1):
        if n % d == 0:
            phi_d = cyclotomic_poly(d)
            out = [0] * (len(prod) + len(phi_d) - 1)
            for i, a in enumerate(prod):
                for j, b in enumerate(phi_d):
                    out[i + j] += a * b
            prod = out
    expected = [-1] + [0] * (n - 1) + [1]
    assert prod == expected


def test_euler_phi():
    assert [euler_phi(n) for n in (1, 2, 3, 4, 5, 6, 12)] == [1, 1, 2, 2, 4, 2, 4]


@pytest.mark.parametrize("n", [2, 3, 5, 6, 8, 12])
def test_zeta_relations(n):
    z = CyclotomicNumber.zeta(n)
    assert z**n == CyclotomicNumber.rational(n, 1)
    phi = cyclotomic_poly(n)
    value = sum((c * z**k for k, c in enumerate(phi)), CyclotomicNumber.rational(n, 0))
    assert value.is_zero()
    # every primitive power is also a root
    for j in range(1, n):
        if math.gcd(j, n) == 1:
            w = z**j
            value = sum((c * w**k for k, c in enumerate(phi)), CyclotomicNumber.rational(n, 0))
            assert value.is_zero()


def test_mixed_orders_rejected():
    with pytest.raises(ValueError):
        CyclotomicNumber.zeta(5) + CyclotomicNumber.zeta(3)


small_elt = st.builds(
    lambda coeffs: CyclotomicNumber(5, tuple(Fraction(c) for c in coeffs)),
    st.tuples(*([st.integers(-3, 3)] * 4)),
)


@given(small_elt, small_elt)
@settings(max_examples=80, deadline=None)
def test_no_zero_divisors(a, b):
    # Q(zeta_5) is a field, so products of nonzero elements stay nonzero
    if a and b:
        assert a * b
    assert (a + b) - b == a


def test_rational_arithmetic_is_exact():
    z = CyclotomicNumber.zeta(5)
    x = Fraction(1, 3) * z + Fraction(1, 6) * z
    assert x == Fraction(1, 2) * z


def test_zeta_poly_basics():
    p = ZetaPoly.monomial(2, 4) - ZetaPoly.monomial(2, 5)
    assert p.order_of_vanishing() == 4
    q = ZetaPoly.monomial(2, 3) - ZetaPoly.monomial(2, 3)
    assert q.is_zero() and q.order_of_vanishing() == float("inf")
    cube = (ZetaPoly.monomial(5, 1) + ZetaPoly.monomial(5, 2)) ** 3
    assert [e for e, _ in cube.terms] == [3, 4, 5, 6]


def test_zeta_poly_rejects_mixed_orders():
    with pytest.raises(ValueError):
        ZetaPoly.monomial(2, 1, CyclotomicNumber.zeta(5))


def test_cyclotomic_order_is_budgeted():
    assert euler_phi(MAX_CYCLOTOMIC_ORDER) >= 1
    with pytest.raises(BudgetExceeded, match=f"{MAX_CYCLOTOMIC_ORDER + 1} requested"):
        cyclotomic_poly(MAX_CYCLOTOMIC_ORDER + 1)


sparse_poly = st.builds(
    lambda terms: ZetaPoly.from_terms(
        3, [(e, CyclotomicNumber.zeta(3, j) * c) for e, j, c in terms]
    ),
    st.lists(st.tuples(st.integers(0, 9), st.integers(0, 2), st.integers(-2, 2)), max_size=4),
)


@given(sparse_poly, sparse_poly, st.integers(0, 5), st.integers(1, 12))
@settings(max_examples=80, deadline=None)
def test_truncated_products_match_full_expansion(p, q, k, below):
    def truncate(poly):
        return ZetaPoly(poly.order, tuple((e, c) for e, c in poly.terms if e < below))

    assert p.mul(q, below) == truncate(p * q)
    assert p.power(k, below) == truncate(p**k)


def test_truncated_series_size_is_budgeted():
    dense = ZetaPoly.from_terms(2, [(0, 1), (1, 1)])  # 1 + t
    width = MAX_SERIES_TERMS + 1
    assert len(dense.power(width).terms) == width + 1  # full products are not capped
    assert len(dense.power(width, below=MAX_SERIES_TERMS).terms) == MAX_SERIES_TERMS
    with pytest.raises(BudgetExceeded, match=f"{width} terms requested, at most"):
        dense.power(width, below=width)
