"""Unit-group layer: fundamental units, invariant generators, power indices."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import field_reference
import lattice_reference as ref
import units_reference
from conftest import order_lattice, power, random_invariant_lattice, random_rational
from field_reference import ordered
from inoueaut import (
    FieldDescriptor,
    Lattice,
    fundamental_unit,
    invariant_unit_generator,
    unit_exponent,
    utheta_exponent,
)
from inoueaut.units import sigma1_sign

FIELDS = st.one_of(
    st.builds(FieldDescriptor, st.integers(3, 60), st.just(1)),
    st.builds(FieldDescriptor, st.integers(1, 60), st.just(-1)),
)


def test_fundamental_unit_desk_values():
    f6 = FieldDescriptor(6, 1)
    assert fundamental_unit(f6) == f6.element(-1, 1) / 2  # 1 + sqrt(2)
    f4 = FieldDescriptor(4, 1)
    assert fundamental_unit(f4) == f4.u()  # 2 + sqrt(3)
    f7 = FieldDescriptor(7, 1)
    assert fundamental_unit(f7) == f7.element(-2, 1) / 3  # (1 + sqrt(5))/2


def test_fundamental_unit_properties_across_fields():
    for theta in range(3, 26):
        for c0 in (1, -1):
            field = FieldDescriptor(theta, c0)
            eta = fundamental_unit(field)
            assert abs(eta.norm()) == 1
            assert ordered(eta.sigma1()) > 1
            # u is a positive power of eta
            assert utheta_exponent(field, eta) >= 1
    for theta in range(1, 3):
        field = FieldDescriptor(theta, -1)
        eta = fundamental_unit(field)
        assert abs(eta.norm()) == 1 and ordered(eta.sigma1()) > 1


def test_invariant_generator_desk_cases():
    f6 = FieldDescriptor(6, 1)
    eta6 = fundamental_unit(f6)
    gen, j, n = invariant_unit_generator(Lattice(f6.one(), eta6), eta6)
    assert gen == eta6 and j == 1 and n == 2
    f4 = FieldDescriptor(4, 1)
    gen, j, n = invariant_unit_generator(order_lattice(f4), fundamental_unit(f4))
    assert gen == f4.u() and j == 1 and n == 1
    f3 = FieldDescriptor(3, 1)
    gen, j, n = invariant_unit_generator(order_lattice(f3), fundamental_unit(f3))
    assert gen == f3.u() - f3.one()
    assert gen * gen == f3.u()
    assert j == 1 and n == 2


def test_invariant_generator_rejects_non_ideal():
    f6 = FieldDescriptor(6, 1)
    not_ideal = Lattice(f6.one(), f6.element(0, 1) / 2)
    with pytest.raises(ValueError):
        invariant_unit_generator(not_ideal, fundamental_unit(f6))
    # eta**3 maps Z<1, eta**3> onto itself, but u = eta**4 does not
    f7 = FieldDescriptor(7, 1)
    eta = fundamental_unit(f7)
    assert utheta_exponent(f7, eta) == 4
    with pytest.raises(ValueError):
        invariant_unit_generator(Lattice(f7.one(), power(eta, 3)), eta)


def test_invariant_generator_minimality():
    rng = random.Random(61)
    for theta, c0 in [(6, 1), (7, 1), (3, 1), (4, -1), (1, -1)]:
        field = FieldDescriptor(theta, c0)
        eta = fundamental_unit(field)
        for _ in range(12):
            lat = random_invariant_lattice(rng, field)
            gen, j, n = invariant_unit_generator(lat, eta)
            assert gen == power(eta, j)
            n_max = utheta_exponent(field, eta)
            assert n_max % j == 0
            assert utheta_exponent(field, eta) == j * utheta_exponent(field, gen)
            # n is the exponent the second walk over gen used to find
            assert n == utheta_exponent(field, gen)
            m1 = ref.Lattice(*lat.basis).mult_matrix(eta)
            assert (m1**j).is_integral()
            matrix_power = m1
            for k in range(1, j):
                assert not matrix_power.is_integral()
                assert lat.mult_matrix(power(eta, k)) is None
                matrix_power = matrix_power * m1
            m = lat.mult_matrix(gen)
            assert m is not None
            assert abs(m[0][0] * m[1][1] - m[0][1] * m[1][0]) == 1


def test_utheta_exponent_desk_cases():
    f6 = FieldDescriptor(6, 1)
    assert utheta_exponent(f6, f6.u()) == 1
    assert utheta_exponent(f6, fundamental_unit(f6)) == 2
    f7 = FieldDescriptor(7, 1)
    assert utheta_exponent(f7, fundamental_unit(f7)) == 4
    f18 = FieldDescriptor(18, 1)
    assert utheta_exponent(f18, fundamental_unit(f18)) == 6
    fm4 = FieldDescriptor(4, -1)
    assert utheta_exponent(fm4, fundamental_unit(fm4)) == 3


def test_utheta_exponent_past_the_old_cap():
    # theta = L_66 and L_67 (Lucas numbers) give u = eta**66 and u = eta**67
    plus = FieldDescriptor(62113250390418, 1)
    assert utheta_exponent(plus, fundamental_unit(plus)) == 66
    minus = FieldDescriptor(100501350283429, -1)
    assert utheta_exponent(minus, fundamental_unit(minus)) == 67


def test_utheta_exponent_errors():
    f6 = FieldDescriptor(6, 1)
    with pytest.raises(ValueError):
        utheta_exponent(f6, power(f6.u(), 2))  # u is not a power of u^2
    with pytest.raises(ValueError):
        utheta_exponent(f6, f6.u().inverse())  # sigma1 < 1
    with pytest.raises(ValueError):
        utheta_exponent(f6, f6.element(2))  # not a unit


@settings(max_examples=150, deadline=None)
@given(FIELDS, st.integers(-64, 64))
def test_unit_exponent_matches_the_capped_search(field, k):
    eta = fundamental_unit(field)
    for base in (eta, field.u()):
        value = power(base, k)
        assert unit_exponent(value, base) == k
        assert units_reference._power_exponent(value, base, 64) == k
    n = units_reference.utheta_exponent(field, eta)
    assert utheta_exponent(field, eta) == n
    assert utheta_exponent(field, power(eta, n)) == 1


@settings(max_examples=60, deadline=None)
@given(FIELDS, st.integers(-300, 300))
def test_unit_exponent_has_no_cap(field, k):
    eta = fundamental_unit(field)
    assert unit_exponent(power(eta, k), eta) == k


@settings(max_examples=150, deadline=None)
@given(FIELDS, st.integers(-64, 64), st.integers(2, 5))
def test_unit_exponent_rejects_values_outside_the_subgroup(field, k, m):
    eta = fundamental_unit(field)
    n = utheta_exponent(field, eta)
    u = field.u()
    # eta**k lies in <u> = <eta**n> only when n divides k
    expected = k // n if k % n == 0 else None
    assert unit_exponent(power(eta, k), u) == expected
    assert units_reference._power_exponent(power(eta, k), u, 64) == expected
    # u**k lies in <u**m> only when m divides k
    expected = k // m if k % m == 0 else None
    assert unit_exponent(power(u, k), power(u, m)) == expected
    assert units_reference._power_exponent(power(u, k), power(u, m), 64) == expected
    # a positive rational other than 1 times a power is never a power
    assert unit_exponent(power(eta, k) * m, eta) is None
    assert unit_exponent(power(eta, k) / m, eta) is None


@settings(max_examples=300, deadline=None)
@given(
    FIELDS,
    st.integers(-80, 80),
    st.integers(-3, 3),
    st.sampled_from((1, 1, 1, 2, 3)),
    st.booleans(),
)
def test_integer_walk_matches_the_field_walk(field, k, j, m, use_u):
    # values eta^k * u^j, scaled by 1/m, against bases eta and u: powers of
    # either sign, values outside the subgroup and non-units
    eta = fundamental_unit(field)
    base = field.u() if use_u else eta
    value = power(eta, k) * power(field.u(), j) / m
    assert unit_exponent(value, base) == units_reference.unit_exponent(value, base)


@st.composite
def sigma1_cases(draw):
    """x and c for sign(sigma1(x) - c): x a random element, a unit +-eta^k
    (sigma1 = +-1 exactly at k = 0), or a unit near 1, 1 +- eta^-m, whose
    sigma1 differs from 1 by sigma1(eta)^-m; c an integer around 0 and 1."""
    field = draw(FIELDS)
    eta = fundamental_unit(field)
    kind = draw(st.sampled_from(["element", "unit", "near one"]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    if kind == "element":
        x = field.element(random_rational(rng, 6), random_rational(rng, 6))
    elif kind == "unit":
        x = power(eta, draw(st.integers(-6, 6))) * draw(st.sampled_from([1, -1]))
    else:
        small = power(eta, -draw(st.integers(1, 12)))
        x = field.one() + small * draw(st.sampled_from([1, -1]))
    return field, x, draw(st.sampled_from([-2, -1, 0, 1, 2]))


@settings(max_examples=400, deadline=None)
@given(sigma1_cases())
def test_sigma1_sign_matches_the_dropped_sign_and_order(case):
    # the one integer sign test of sigma1, against QuadReal's sign and order
    # that the package dropped (tests/field_reference.py) and against the
    # Fraction reference
    field, x, c = case
    got = sigma1_sign(x.as_integer_triple(), field.theta, field.delta, c)
    value = ordered(x.sigma1())
    assert got == (value - c).sign()
    assert got == (value > c) - (value < c)
    fraction_value = field_reference.FieldElement(x.a, x.b, field).sigma1()
    assert got == (fraction_value - c).sign()
