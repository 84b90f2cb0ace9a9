import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricsat import numsg
from toricsat.errors import EmptyGenerators, GcdNotOne, NonCoprime

from oracles import (
    conductor_from_members,
    min_generators_from_members,
    numerical_gaps,
    numerical_members,
    staged_union_members,
)


def test_whole_naturals():
    s = numsg.mk_numerical([1])
    assert s.conductor == 0
    assert numsg.gaps(s) == ()
    assert numsg.multiplicity_num(s) == 1
    assert numsg.min_generators_num(s) == (1,)


def test_five_eleven_conductor_and_gaps():
    # frozen from the enumeration oracle: 20 gaps, the largest being 39
    s = numsg.mk_numerical([5, 11])
    assert s.conductor == 40
    g = numsg.gaps(s)
    assert len(g) == 20 and g[-1] == 39
    assert g == tuple(numerical_gaps([5, 11], 60))


def test_conductor_of_saturated_generators():
    s = numsg.mk_numerical([6, 9, 11, 13, 14, 16])
    assert s.conductor == 11


def test_construction_errors():
    with pytest.raises(EmptyGenerators):
        numsg.mk_numerical([])
    with pytest.raises(NonCoprime):
        numsg.mk_numerical([4, 6])
    with pytest.raises(ValueError):
        numsg.mk_numerical([0, 3])


def test_contains():
    s = numsg.mk_numerical([5, 11])
    assert numsg.contains(s, 16)
    assert not numsg.contains(s, 13)
    assert numsg.contains(s, 0)
    assert 16 in s and 13 not in s


def test_gaps_small_cases():
    assert numsg.gaps(numsg.mk_numerical([2, 3])) == (1,)
    assert numsg.gaps(numsg.mk_numerical([1])) == ()


def test_min_generators():
    e = numsg.saturate_chars(numsg.char_exponents(6, [9, 11]))
    assert numsg.min_generators_num(e) == (6, 9, 11, 13, 14, 16)
    e2 = numsg.saturate_chars(numsg.char_exponents(4, [6, 7]))
    assert numsg.min_generators_num(e2) == (4, 6, 7, 9)


def test_char_exponents():
    assert numsg.char_exponents(6, [9, 11]).betas == (6, 9, 11)
    assert numsg.char_exponents(4, [6, 7]).betas == (4, 6, 7)
    assert numsg.char_exponents(1, []).betas == (1,)
    assert numsg.char_exponents(6, [9, 11]).gcd_chain == (6, 3, 1)
    # exponents divisible by the running gcd are skipped
    assert numsg.char_exponents(4, [6, 8, 9]).betas == (4, 6, 9)


def test_char_exponents_gcd_not_one():
    with pytest.raises(GcdNotOne):
        numsg.char_exponents(4, [6, 8])


def test_saturate_chars_space_curve():
    s = numsg.saturate_chars(numsg.char_exponents(6, [9, 11]))
    assert s.generators == (6, 9, 11, 13, 14, 16)
    assert s.conductor == 11


def test_saturate_chars_two_three():
    # by hand: stage 0 is {0,2,4,...} + {3}, stage 1 fills everything from 3
    s = numsg.saturate_chars(numsg.char_exponents(2, [3]))
    assert s.generators == (2, 3)
    assert s.conductor == 2
    assert s.small_elements == (0,)


def test_saturate_chars_five_eleven():
    s = numsg.saturate_chars(numsg.char_exponents(5, [11]))
    assert s.generators == (5, 11, 12, 13, 14)


def test_is_saturated():
    assert numsg.is_saturated(numsg.saturate_chars(numsg.char_exponents(6, [9, 11])))
    # s = 11 has d = gcd{5,10,11} = 1 but 12 is a gap
    assert not numsg.is_saturated(numsg.mk_numerical([5, 11]))
    assert numsg.is_saturated(numsg.mk_numerical([1]))


def test_multiplicity():
    assert numsg.multiplicity_num(numsg.mk_numerical([5, 11])) == 5
    assert numsg.multiplicity_num(numsg.saturate_chars(numsg.char_exponents(6, [9, 11]))) == 6


coprime_pairs = st.tuples(st.integers(2, 30), st.integers(2, 30)).filter(
    lambda p: math.gcd(*p) == 1 and p[0] != p[1]
)


@given(coprime_pairs)
@settings(max_examples=60, deadline=None)
def test_contains_matches_enumeration(pair):
    p, q = pair
    s = numsg.mk_numerical([p, q])
    members = numerical_members([p, q], 2 * p * q)
    for n in range(2 * p * q + 1):
        assert numsg.contains(s, n) == (n in members)
    assert s.conductor == conductor_from_members(members, 2 * p * q)


generator_sets = st.lists(st.integers(1, 60), min_size=1, max_size=5).filter(
    lambda g: math.gcd(*g) == 1
)


@given(generator_sets)
@settings(max_examples=60, deadline=None)
def test_generator_sets_match_enumeration(gens):
    s = numsg.mk_numerical(gens)
    # past the conductor: the Frobenius number is below (min - 1) * (max - 1)
    bound = min(gens) * max(gens)
    members = numerical_members(gens, bound)
    assert [n for n in range(bound + 1) if numsg.contains(s, n)] == sorted(members)
    assert s.conductor == conductor_from_members(members, bound)
    assert numsg.gaps(s) == tuple(n for n in range(bound + 1) if n not in members)
    # a generator is minimal iff the others do not generate it
    mingens = [g for g in sorted(set(gens)) if g not in numerical_members(set(gens) - {g}, g)]
    assert numsg.min_generators_num(s) == tuple(mingens)


@st.composite
def char_exponent_data(draw):
    m = draw(st.integers(2, 12))
    extras = draw(st.lists(st.integers(m + 1, 40), min_size=1, max_size=4, unique=True))
    support = sorted(extras)
    # keep only inputs whose gcd chain can reach 1
    if math.gcd(m, *support) != 1:
        support.append(draw(st.integers(m + 1, 41).filter(lambda x: math.gcd(m, x) == 1)))
    return m, sorted(set(support))


@given(char_exponent_data())
@settings(max_examples=40, deadline=None)
def test_saturation_properties(data):
    m, support = data
    try:
        exps = numsg.char_exponents(m, support)
    except GcdNotOne:
        return
    sat = numsg.saturate_chars(exps)
    for b in exps.betas:
        assert numsg.contains(sat, b)
    assert numsg.is_saturated(sat)
    assert numsg.multiplicity_num(sat) == exps.betas[0]
    # the saturated curve has as many minimal generators as its multiplicity
    assert len(sat.generators) == exps.betas[0]


@given(char_exponent_data())
@settings(max_examples=60, deadline=None)
def test_saturate_chars_matches_staged_union(data):
    m, support = data
    try:
        exps = numsg.char_exponents(m, support)
    except GcdNotOne:
        return
    sat = numsg.saturate_chars(exps)
    members, bound = staged_union_members(exps.betas, exps.gcd_chain)
    conductor = conductor_from_members(members, bound)
    assert sat.conductor == conductor
    assert sat.small_elements == tuple(n for n in range(conductor) if n in members)
    assert sat.generators == tuple(min_generators_from_members(members, bound))


@given(coprime_pairs)
@settings(max_examples=30, deadline=None)
def test_min_generators_regenerate(pair):
    s = numsg.mk_numerical(list(pair))
    t = numsg.mk_numerical(numsg.min_generators_num(s))
    assert t.conductor == s.conductor
    assert t.small_elements == s.small_elements
