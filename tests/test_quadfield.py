"""Quadratic field layer: reduction, norm/trace/Galois, embeddings, chi."""

import random
from fractions import Fraction

import pytest

from conftest import conjugate, is_rational, power, random_field_element, trace
from inoueaut import (
    FieldDescriptor,
    QuadReal,
    chi,
    fundamental_unit,
    parse_field_element,
)

F6 = FieldDescriptor(6, 1)
F7 = FieldDescriptor(7, 1)
FM3 = FieldDescriptor(3, -1)


def test_descriptor_validation():
    with pytest.raises(ValueError):
        FieldDescriptor(2, 1)  # plus family needs theta >= 3
    with pytest.raises(ValueError):
        FieldDescriptor(0, -1)  # minus family needs theta >= 1
    with pytest.raises(ValueError):
        FieldDescriptor(5, 2)
    assert FieldDescriptor(3, -1).delta == 13
    assert FieldDescriptor(6, 1).delta == 32
    assert FieldDescriptor.from_type("-", 1).c0 == -1


def test_u_square_reduction():
    u = F6.u()
    assert u * u == F6.element(-1, 6)  # u^2 = 6u - 1
    um = FM3.u()
    assert um * um == FM3.element(1, 3)  # u^2 = 3u + 1


def test_inverse():
    u = F6.u()
    assert u * u.inverse() == F6.one()
    x = F6.element(Fraction(2, 3), Fraction(-1, 2))
    assert x / x == F6.one()
    with pytest.raises(ZeroDivisionError):
        F6.zero().inverse()


def test_eta_fourth_power_is_u_for_theta7():
    eta = fundamental_unit(F7)
    assert eta == F7.element(Fraction(-2, 3), Fraction(1, 3))
    assert power(eta, 4) == F7.u()


def test_norm_desk_values():
    for field in (F6, F7, FM3):
        assert field.u().norm() == field.c0
        # Norm(1 - u) = minimal polynomial at 1 = 1 - theta + c0
        assert (field.one() - field.u()).norm() == 1 - field.theta + field.c0
    assert (F6.one() - F6.u()).norm() == 2 - 6
    assert (F7.one() - F7.u()).norm() == 2 - 7
    assert (FM3.one() - FM3.u()).norm() == -3
    # Norm(y) for y = sqrt(2)/2, i.e. y = -3/4 + u/4 at theta = 6
    y = F6.element(Fraction(-3, 4), Fraction(1, 4))
    assert y.norm() == Fraction(-1, 2)


def test_norm_trace_properties_randomized():
    rng = random.Random(23)
    for field in (F6, F7, FM3):
        for _ in range(150):
            x = random_field_element(rng, field)
            y = random_field_element(rng, field)
            assert (x * y).norm() == x.norm() * y.norm()
            assert trace(x + y) == trace(x) + trace(y)
            prod = x * conjugate(x)
            assert is_rational(prod) and prod.a == x.norm()


def test_galois():
    for field in (F6, FM3):
        c = field.element(Fraction(5, 7))
        assert conjugate(c) == c
        u = field.u()
        assert conjugate(u) == field.element(field.theta, -1)
        assert conjugate(u) == field.c0 * u.inverse()
    rng = random.Random(29)
    for _ in range(100):
        x = random_field_element(rng, F7)
        assert conjugate(conjugate(x)) == x


def test_embeddings_desk_values():
    assert F6.u().sigma1() == QuadReal(3, Fraction(1, 2), 32)
    eta7 = fundamental_unit(F7)
    assert eta7.sigma1() == QuadReal(Fraction(1, 2), Fraction(1, 6), 45)
    assert eta7.sigma1().reduced_str() == "1/2 + 1/2*sqrt(5)"


def test_embedding_product_is_norm():
    rng = random.Random(31)
    for field in (F6, F7, FM3):
        for _ in range(100):
            x = random_field_element(rng, field)
            prod = x.sigma1() * x.sigma2()
            assert prod.irr == 0 and prod.rat == x.norm()
            total = x.sigma1() + x.sigma2()
            assert total.irr == 0 and total.rat == trace(x)


def test_chi_desk_values():
    assert not chi(F6.u(), F6.u())
    assert chi(F6.one(), F6.u()) == QuadReal(0, -1, 32)
    eta = fundamental_unit(F6)
    assert chi(F6.one(), eta) == QuadReal(0, Fraction(-1, 2), 32)


def test_chi_matches_embedding_definition():
    rng = random.Random(37)
    for field in (F6, F7, FM3):
        for _ in range(120):
            x = random_field_element(rng, field)
            y = random_field_element(rng, field)
            direct = x.sigma1() * y.sigma2() - y.sigma1() * x.sigma2()
            assert chi(x, y) == direct
            assert chi(x, y).rat == 0


def test_chi_field_mismatch():
    with pytest.raises(ValueError):
        chi(F6.one(), F7.one())


def test_parse_and_format_round_trip():
    cases = ["-1/2 + 1/2*u", "u", "-u", "3", "0", "1 - u", "2/3*u", "-5/4 - 7*u"]
    for text in cases:
        x = parse_field_element(text, F6)
        assert parse_field_element(str(x), F6) == x
    assert parse_field_element("1/2*u + 1/2*u", F6) == F6.element(0, 1)
    assert str(F6.element(Fraction(-1, 2), Fraction(1, 2))) == "-1/2 + 1/2*u"
    assert str(F6.element(0, -1)) == "-u"
    for bad in ["", "1 +", "u*u", "1/2/3", "x"]:
        with pytest.raises(ValueError):
            parse_field_element(bad, F6)


def test_field_mismatch_raises():
    with pytest.raises(ValueError):
        F6.one() + F7.one()
