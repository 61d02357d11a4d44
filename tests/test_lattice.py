"""Lattice layer: membership, indices, quotients, matrices, and the integer
lattice arithmetic against the Fraction code it replaced
(`tests/lattice_reference.py`).  Equality of lattices, rational
coordinates, the index and the invariance test left the package; they are
read from the reference and from tests/conftest.py."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import lattice_reference as ref
from conftest import (
    coset_reps,
    is_invariant_under,
    lattice_coordinates,
    lattice_index,
    order_lattice,
    power,
    random_field_element,
    random_invariant_lattice,
)
from inoueaut import (
    FieldDescriptor,
    Lattice,
    QuadReal,
    chi,
    fundamental_unit,
)
import inoueaut.lattice as lattice
from inoueaut.lattice import InternalConsistencyError, _snf2, xgcd

F4 = FieldDescriptor(4, 1)
F6 = FieldDescriptor(6, 1)
F7 = FieldDescriptor(7, 1)


def ideal_theta6() -> Lattice:
    return Lattice(F6.one(), fundamental_unit(F6))


def test_rejects_dependent_basis():
    with pytest.raises(ValueError):
        Lattice(F6.element(2, 2), F6.element(1, 1))


def test_contains_zero_and_desk_cases():
    lat = ideal_theta6()
    assert lat.contains(F6.zero())
    # I(1-u) contains 2*sqrt(2) = u - 3
    scaled = lat.scale(F6.one() - F6.u())
    assert scaled.contains(F6.element(-3, 1))
    assert not lat.contains(F6.element(Fraction(1, 2)))


def test_scale_desk_cases():
    # theta=4: Z[u](1-u) = Z<1+sqrt(3), 2>, and 1+sqrt(3) = u - 1
    z4 = order_lattice(F4)
    assert ref.same_lattice(
        z4.scale(F4.one() - F4.u()), Lattice(F4.element(-1, 1), F4.element(2))
    )
    # theta=7: Z[eta](1-u) = Z<eta+2, 5>
    eta = fundamental_unit(F7)
    i7 = Lattice(F7.one(), eta)
    assert ref.same_lattice(i7.scale(F7.one() - F7.u()), Lattice(eta + 2, F7.element(5)))
    assert ref.same_lattice(z4.scale(F4.one()), z4)
    with pytest.raises(ValueError):
        z4.scale(F4.zero())


def test_index_desk_cases():
    lat = ideal_theta6()
    assert lattice_index(lat, lat) == 1
    assert lattice_index(order_lattice(F6), lat) == Fraction(1, 2)


def test_index_of_scaled_lattice_is_norm():
    rng = random.Random(41)
    for field in (F4, F6, F7):
        for _ in range(40):
            lat = random_invariant_lattice(rng, field)
            x = random_field_element(rng, field)
            if not x:
                continue
            grown = lat.scale(x.inverse())
            assert lattice_index(grown, lat) == abs(x.norm())
    # |Norm(1 - u)| = |2 - theta| for the plus family
    lat = ideal_theta6()
    assert lattice_index(lat.scale((F6.one() - F6.u()).inverse()), lat) == 4


def test_quotient_trivial():
    lat = ideal_theta6()
    quotient = lat.quotient(lat)
    assert quotient.invariant_factors == (1, 1)
    assert coset_reps(quotient) == [F6.zero()]


def test_quotient_theta6():
    lat = ideal_theta6()
    big = lat.scale((F6.one() - F6.u()).inverse())
    quotient = big.quotient(lat)
    assert quotient.order == 4
    assert quotient.invariant_factors == (2, 2)
    assert quotient.rep(0) == F6.zero()
    # congruent, up to cosets, to {0, 1/2, sqrt(2)/2, (1+sqrt(2))/2}
    classic_reps = [
        F6.zero(),
        F6.element(Fraction(1, 2)),
        F6.element(Fraction(-3, 4), Fraction(1, 4)),
        F6.element(Fraction(-1, 4), Fraction(1, 4)),
    ]
    matched = {quotient.index_of(y) for y in classic_reps}
    assert matched == {0, 1, 2, 3}


def test_quotient_theta7():
    eta = fundamental_unit(F7)
    lat = Lattice(F7.one(), eta)
    big = lat.scale((F7.one() - F7.u()).inverse())
    quotient = big.quotient(lat)
    assert quotient.order == 5
    assert quotient.invariant_factors == (1, 5)
    base = F7.element(Fraction(-1, 5), Fraction(1, 5))  # (1 + 3*eta)/5 = (u-1)/5
    matched = {quotient.index_of(k * base) for k in range(5)}
    assert matched == {0, 1, 2, 3, 4}


def test_quotient_rep_properties():
    rng = random.Random(43)
    for field in (F4, F6, F7):
        for _ in range(25):
            lat = random_invariant_lattice(rng, field)
            big = lat.scale((field.one() - field.u()).inverse())
            quotient = big.quotient(lat)
            reps = coset_reps(quotient)
            assert len(reps) == lattice_index(big, lat)
            for rep in reps:
                assert big.contains(rep)
            for i, a in enumerate(reps):
                assert quotient.index_of(a) == i
                for b in reps[i + 1 :]:
                    assert not lat.contains(a - b)


def test_quotient_requires_sublattice():
    lat = ideal_theta6()
    with pytest.raises(ValueError):
        lat.quotient(lat.scale(F6.element(Fraction(1, 2))))


def test_invariance():
    eta = fundamental_unit(F6)
    assert is_invariant_under(ideal_theta6(), eta)
    assert is_invariant_under(order_lattice(F4), F4.u())
    assert not is_invariant_under(order_lattice(F7), fundamental_unit(F7))
    with pytest.raises(ValueError):
        is_invariant_under(ideal_theta6(), F6.element(2))


def test_mult_matrix_desk_cases():
    assert ideal_theta6().mult_matrix(F6.one()) == ((1, 0), (0, 1))
    m = ideal_theta6().mult_matrix(fundamental_unit(F6))
    assert m == ((0, 1), (1, 2))
    m4 = order_lattice(F4).mult_matrix(F4.u())
    assert m4 == ((0, 1), (-1, 4))
    # eta does not map Z[u] into itself at theta = 7
    assert order_lattice(F7).mult_matrix(fundamental_unit(F7)) is None
    assert ideal_theta6().mult_matrix(F6.element(Fraction(1, 2))) is None
    with pytest.raises(ValueError):
        ideal_theta6().mult_matrix(F7.one())


def test_mult_matrix_properties():
    rng = random.Random(47)
    for field in (F4, F6, F7):
        for _ in range(30):
            lat = random_invariant_lattice(rng, field)
            rational = ref.Lattice(*lat.basis)
            v = random_field_element(rng, field)
            w = random_field_element(rng, field)
            assert rational.mult_matrix(v).det() == v.norm()
            assert rational.mult_matrix(v * w) == rational.mult_matrix(
                w
            ) * rational.mult_matrix(v)
            n = lat.mult_matrix(field.u())
            assert n is not None
            (n11, n12), (n21, n22) = n
            assert n11 * n22 - n12 * n21 == field.c0 and n11 + n22 == field.theta


def test_membership_invariant_under_rebasing():
    rng = random.Random(53)
    for _ in range(40):
        lat = random_invariant_lattice(rng, F6)
        b1, b2 = lat.basis
        m = rng.randint(-3, 3)
        rebased = Lattice(b1 + m * b2, b2) if rng.random() < 0.5 else Lattice(b2, -b1)
        assert ref.same_lattice(rebased, lat)
        probe = random_field_element(rng, F6)
        assert lat.contains(probe) == rebased.contains(probe)


def test_xgcd():
    for a, b in [(12, 18), (-5, 7), (0, 4), (3, 0), (0, 0), (-9, -6)]:
        g, x, y = xgcd(a, b)
        assert g == a * x + b * y
        assert g >= 0


def test_snf2_random():
    rng = random.Random(59)
    for _ in range(300):
        entries = [rng.randint(-9, 9) for _ in range(4)]
        a11, a12, a21, a22 = entries
        if a11 * a22 - a12 * a21 == 0:
            continue
        d1, d2, v = _snf2(a11, a12, a21, a22)
        assert d1 > 0 and d2 > 0 and d2 % d1 == 0
        assert d1 * d2 == abs(a11 * a22 - a12 * a21)
        det_v = v[0][0] * v[1][1] - v[0][1] * v[1][0]
        assert det_v in (1, -1)
        # rows of A*V and of diag(d1, d2) span the same sublattice of Z^2
        av = (
            (a11 * v[0][0] + a12 * v[1][0], a11 * v[0][1] + a12 * v[1][1]),
            (a21 * v[0][0] + a22 * v[1][0], a21 * v[0][1] + a22 * v[1][1]),
        )
        for row in av:
            assert row[0] % d1 == 0 and row[1] % d2 == 0
        lead = abs(av[0][0] * av[1][1] - av[0][1] * av[1][0])
        assert lead == d1 * d2


ENTRY = st.integers(min_value=-(2**200), max_value=2**200)


@settings(max_examples=400, deadline=None)
@given(ENTRY, ENTRY, ENTRY, ENTRY, st.integers(min_value=1, max_value=2**60))
def test_snf2_large_entries(a11, a12, a21, a22, scale):
    # a common factor makes d1 > 1; the sweep bound grows with the entries'
    # bit length, so huge entries must still converge
    a11, a12, a21, a22 = (scale * x for x in (a11, a12, a21, a22))
    det = a11 * a22 - a12 * a21
    if det == 0:
        return
    d1, d2, v = _snf2(a11, a12, a21, a22)
    assert d2 % d1 == 0
    assert d1 * d2 == abs(det)
    assert d1 == gcd(a11, a12, a21, a22)
    assert v[0][0] * v[1][1] - v[0][1] * v[1][0] in (1, -1)


def test_snf2_failure_is_an_internal_consistency_error(monkeypatch):
    # an xgcd that claims the pivot is the gcd stalls the reduction; the
    # sweep bound must end it as a consistency failure (CLI exit 5)
    monkeypatch.setattr(lattice, "xgcd", lambda a, b: (a, 1, 0))
    with pytest.raises(InternalConsistencyError):
        _snf2(2, 3, 5, 7)


def test_chi_based_equality_attributes():
    lat = ideal_theta6()
    assert chi(lat.b1, lat.b2) == QuadReal(0, Fraction(-1, 2), 32)
    assert hash(ref.Lattice(*lat.basis)) == hash(ref.Lattice(lat.b2, -lat.b1))


# -- the integer lattice against the Fraction reference ------------------------

FIELDS = [
    FieldDescriptor(t, c)
    for t, c in [(3, 1), (4, 1), (6, 1), (7, 1), (18, 1), (1, -1), (2, -1), (4, -1)]
]
RATIONAL = st.fractions(min_value=-20, max_value=20, max_denominator=12)


@st.composite
def elements(draw, field):
    return field.element(draw(RATIONAL), draw(RATIONAL))


@st.composite
def lattice_cases(draw):
    """A lattice over a field of either family (a fractional ideal of Z[u],
    or the span of any two independent elements), a multiplier v (a power
    of eta or of u, an integer, or any element, so that v maps the lattice
    into itself or not), and a probe x (in the lattice, in a 1/m multiple of
    it, or anywhere)."""
    field = draw(st.sampled_from(FIELDS))
    if draw(st.booleans()):
        seed = draw(st.integers(0, 2**32))
        lat = random_invariant_lattice(random.Random(seed), field)
    else:
        b1, b2 = draw(elements(field)), draw(elements(field))
        assume(chi(b1, b2))
        lat = Lattice(b1, b2)
    eta = fundamental_unit(field)
    v = draw(
        st.one_of(
            st.integers(-3, 3).map(lambda k: power(eta, k)),
            st.integers(-3, 3).map(lambda k: power(field.u(), k)),
            st.integers(-3, 3).map(field.element),
            elements(field),
        )
    )
    point = draw(st.integers(-9, 9)) * lat.b1 + draw(st.integers(-9, 9)) * lat.b2
    x = draw(
        st.one_of(
            st.just(point),
            st.integers(1, 6).map(lambda m: point / m),
            elements(field),
        )
    )
    return lat, v, x


@settings(max_examples=400, deadline=None)
@given(lattice_cases())
def test_integer_lattice_matches_reference(case):
    lat, v, x = case
    old = ref.Lattice(*lat.basis)
    # the Fraction construction's Hermite form is the package basis's, and
    # both reach the same least denominator
    assert old == lat and old._den == lat._den
    matrix = old.mult_matrix(v)
    assert lat.mult_matrix(v) == (matrix.int_rows() if matrix.is_integral() else None)
    for probe in (x, v):
        assert lattice_coordinates(lat, probe) == old.coordinates(probe)
        assert lat.integer_coordinates(probe) == old.integer_coordinates(probe)
        assert lat.contains(probe) == old.contains(probe)
    if v:
        image = lat.scale(v)
        assert lattice_index(lat, image) == old.index(image)
        assert lattice_index(image, lat) == ref.Lattice(*image.basis).index(lat)
    if v.is_unit():
        assert is_invariant_under(lat, v) == old.is_invariant_under(v)


def test_integer_lattice_field_mismatch_matches_reference():
    lat = ideal_theta6()
    old = ref.Lattice(*lat.basis)
    for method in ("integer_coordinates", "contains", "mult_matrix"):
        for impl in (lat, old):
            with pytest.raises(ValueError):
                getattr(impl, method)(F7.element(1, 1))
    for coordinates in (lambda x: lattice_coordinates(lat, x), old.coordinates):
        with pytest.raises(ValueError):
            coordinates(F7.element(1, 1))
