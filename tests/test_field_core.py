"""The integer core under QuadReal and FieldElement, against the Fraction
classes it replaced (`tests/field_reference.py`).

Every operation is run on both implementations from the same rationals, and
the outcomes must agree: the same value, or the same exception type.  The
families cover several deltas and fields of both signs of c0, and the
operands mix elements with int and Fraction on either side; the core has
no reflected - and /, so an int or Fraction on the left of those is refused.
Galois conjugate, trace and is_rational left the package for
tests/conftest.py and are held to the reference there.

The real values are `field_reference.OrderedQuadReal`s: the package's
QuadReal with the sign, order and cross-delta coercion it dropped, which
the Fraction reference still has.  Each ring operation is also run on the
package's QuadReal itself, which must give the same outcome, except that it
refuses two different deltas outright (ValueError) where the reference
re-tags a rational value.
"""

import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import field_reference as ref
from conftest import conjugate, in_discrete_subgroup, is_rational, trace
from field_reference import OrderedQuadReal
from inoueaut.exactnum import QuadReal
from inoueaut.quadfield import FieldDescriptor, FieldElement, chi

DELTAS = [2, 5, 8, 12, 13, 32, 45, 77]
FIELDS = [FieldDescriptor(t, c) for t, c in [(3, 1), (6, 1), (7, 1), (1, -1), (3, -1), (4, -1)]]

RATIONAL = st.one_of(
    st.sampled_from([0, 1, -1, 2, Fraction(1, 2)]).map(Fraction),
    st.fractions(min_value=-30, max_value=30, max_denominator=12),
    st.fractions(max_denominator=10**9),
)
SCALAR = st.one_of(st.integers(-10, 10), RATIONAL)
BINARY = [operator.add, operator.sub, operator.mul, operator.truediv]
REFLECTED_ONLY_IN_REFERENCE = (operator.sub, operator.truediv)
COMPARE = [operator.lt, operator.le, operator.gt, operator.ge]


def plain(x):
    """A comparable picture of a value of either implementation."""
    if isinstance(x, (QuadReal, ref.QuadReal)):
        return ("real", x.rat, x.irr, x.delta)
    if isinstance(x, (FieldElement, ref.FieldElement)):
        return ("field", x.a, x.b, x.field)
    return x


def outcome(fn, *args):
    try:
        return "value", plain(fn(*args))
    except Exception as exc:  # the exception type is part of the behaviour
        return "raises", type(exc)


@st.composite
def real_pair(draw, contexts=st.sampled_from(DELTAS)):
    """(new, reference) QuadReal built from the same three numbers."""
    rat, irr, delta = draw(RATIONAL), draw(RATIONAL), draw(contexts)
    if draw(st.booleans()):
        irr = Fraction(0)  # rational values re-tag across deltas
    return OrderedQuadReal(rat, irr, delta), ref.QuadReal(rat, irr, delta)


def package(x):
    """An OrderedQuadReal as the package's own QuadReal; anything else as is."""
    if isinstance(x, OrderedQuadReal):
        return QuadReal._raw(*x.as_integer_triple(), x.delta)
    return x


@st.composite
def field_pair(draw, contexts=st.sampled_from(FIELDS)):
    a, b, field = draw(RATIONAL), draw(RATIONAL), draw(contexts)
    return FieldElement(a, b, field), ref.FieldElement(a, b, field)


@st.composite
def operands(draw, pair):
    """x and y as (new, reference) pairs, y an element in the same context,
    an element in any context, an int or a Fraction."""
    x = draw(pair())
    context = x[0].delta if isinstance(x[0], QuadReal) else x[0].field
    y = draw(
        st.one_of(
            pair(st.just(context)),
            pair(),
            SCALAR.map(lambda s: (s, s)),
        )
    )
    if draw(st.booleans()):
        x, y = y, x
    return x, y


FAMILY = st.sampled_from([real_pair, field_pair])


@settings(max_examples=400, deadline=None)
@given(FAMILY.flatmap(operands))
def test_ring_operations_match_reference(xy):
    (x, rx), (y, ry) = xy
    for op in BINARY:
        if isinstance(x, (int, Fraction)) and op in REFLECTED_ONLY_IN_REFERENCE:
            assert outcome(op, x, y) == ("raises", TypeError), (op, rx, ry)
            continue
        expected = outcome(op, rx, ry)
        assert outcome(op, x, y) == expected, (op, rx, ry)
        if isinstance(x, QuadReal) and isinstance(y, QuadReal) and x.delta != y.delta:
            expected = ("raises", ValueError)
        assert outcome(op, package(x), package(y)) == expected, (op, rx, ry)
    assert outcome(operator.neg, x) == outcome(operator.neg, rx)
    assert outcome(bool, x) == outcome(bool, rx)


@settings(max_examples=300, deadline=None)
@given(field_pair(), field_pair())
def test_field_invariants_match_reference(xp, yp):
    (x, rx), (y, ry) = xp, yp
    for name in ("inverse", "norm", "sigma1", "sigma2", "is_unit", "__str__"):
        assert outcome(getattr(x, name)) == outcome(getattr(rx, name)), name
    for fn in (trace, conjugate, is_rational):
        assert outcome(fn, x) == outcome(getattr(rx, fn.__name__)), fn.__name__
    for which in (1, 2, 3):
        assert outcome(x.embed, which) == outcome(rx.embed, which)
    assert outcome(chi, x, y) == outcome(ref.chi, rx, ry)


@settings(max_examples=300, deadline=None)
@given(operands(real_pair))
def test_real_order_and_text_match_reference(xy):
    (x, rx), (y, ry) = xy
    for op in COMPARE:
        assert outcome(op, x, y) == outcome(op, rx, ry), op
    for value, rvalue in xy:
        if isinstance(value, QuadReal):
            for name in ("sign", "__str__", "reduced_str", "__float__"):
                assert outcome(getattr(value, name)) == outcome(getattr(rvalue, name))
            assert outcome(conjugate, value) == outcome(rvalue.conjugate)


@settings(max_examples=400, deadline=None)
@given(FAMILY.flatmap(operands))
def test_equality_and_hash_match_reference(xy):
    (x, rx), (y, ry) = xy
    assert (x == y) == (rx == ry)
    assert (x != y) == (rx != ry)
    if x == y:
        assert hash(x) == hash(y)
    if isinstance(x, QuadReal) and not x.irr:
        assert hash(x) == hash(x.rat) == hash(rx)


@st.composite
def discrete_cases(draw):
    """A nonzero generator g (usually a pure surd), a scale (usually
    positive), and a value that is often an integer multiple of scale * g,
    sometimes a fraction of one, and sometimes anything (of any delta)."""
    delta = draw(st.sampled_from(DELTAS))
    rat = draw(st.sampled_from([0] * 7 + [1]))
    gen = QuadReal(rat, draw(RATIONAL.filter(bool)), delta)
    scale = draw(
        st.one_of(
            st.just(1),
            st.fractions(min_value=Fraction(1, 12), max_value=30, max_denominator=12),
            st.integers(-1, 6),
        )
    )
    value = draw(
        st.one_of(
            st.integers(-40, 40).map(lambda k: k * gen * Fraction(scale)),
            st.tuples(st.integers(-40, 40), st.integers(1, 9)).map(
                lambda km: km[0] * gen * Fraction(scale) / km[1]
            ),
            real_pair().map(lambda pair: pair[0]),
        )
    )
    return value, gen, scale


@settings(max_examples=400, deadline=None)
@given(discrete_cases())
def test_in_discrete_subgroup_matches_reference(case):
    assert outcome(in_discrete_subgroup, *case) == outcome(
        ref.in_discrete_subgroup, *case
    )


def test_rational_values_across_deltas():
    assert QuadReal(3, 0, 8) == QuadReal(3, 0, 5) == 3
    assert len({QuadReal(3, 0, 8), QuadReal(3, 0, 5), 3, Fraction(3)}) == 1
    assert QuadReal(1, 1, 8) != QuadReal(1, 1, 5)
    # arithmetic takes one delta: the package refuses a rational of another
    # delta, which the dropped coercion re-tagged
    with pytest.raises(ValueError, match="delta mismatch"):
        QuadReal(3, 0, 5) + QuadReal(1, 1, 8)
    assert (OrderedQuadReal(3, 0, 5) + QuadReal(1, 1, 8)).delta == 8


# Each case keeps the id its position gave it, so removing one renames no
# other.
@pytest.mark.parametrize(
    "fn",
    [
        # sum across two deltas
        pytest.param(lambda QR, FE: QR(1, 1, 8) + QR(1, 1, 5), id="<lambda>0"),
        # product across two deltas
        pytest.param(lambda QR, FE: QR(1, 1, 8) * QR(0, 1, 12), id="<lambda>1"),
        # product across two fields
        pytest.param(
            lambda QR, FE: FE(1, 1, FIELDS[0]) * FE(1, 1, FIELDS[1]), id="<lambda>2"
        ),
        # difference across two fields
        pytest.param(
            lambda QR, FE: FE(1, 1, FIELDS[0]) - FE(0, 0, FIELDS[3]), id="<lambda>3"
        ),
        # square delta
        pytest.param(lambda QR, FE: QR(1, 1, 9), id="<lambda>4"),
        # zero delta
        pytest.param(lambda QR, FE: QR(1, 1, 0), id="<lambda>5"),
        # division by the integer 0
        pytest.param(lambda QR, FE: QR(2, 1, 8) / 0, id="<lambda>6"),
        # division by QuadReal zero
        pytest.param(lambda QR, FE: QR(1, 0, 8) / QR(0, 0, 8), id="<lambda>7"),
        # inverse of FieldElement zero
        pytest.param(lambda QR, FE: FE(0, 0, FIELDS[2]).inverse(), id="<lambda>8"),
        # division by FieldElement zero
        pytest.param(
            lambda QR, FE: FE(1, 2, FIELDS[2]) / FE(0, 0, FIELDS[2]), id="<lambda>9"
        ),
        # QuadReal to a negative power
        pytest.param(lambda QR, FE: QR(2, 1, 8) ** -1, id="<lambda>10"),
        # QuadReal plus FieldElement
        pytest.param(lambda QR, FE: QR(2, 1, 8) + FE(1, 0, FIELDS[1]), id="<lambda>11"),
        # QuadReal times a float
        pytest.param(lambda QR, FE: QR(2, 1, 8) * 0.5, id="<lambda>12"),
    ],
)
def test_errors_match_reference(fn):
    with pytest.raises(Exception) as new:
        fn(QuadReal, FieldElement)
    with pytest.raises(Exception) as old:
        fn(ref.QuadReal, ref.FieldElement)
    assert new.type is old.type


def test_constructors_keep_their_keywords():
    assert QuadReal(rat=1, irr=Fraction(1, 2), delta=8) == QuadReal(1, Fraction(1, 2), 8)
    assert FieldElement(a=1, b=2, field=FIELDS[0]) == FIELDS[0].element(1, 2)


def test_values_are_stored_reduced():
    x = QuadReal(Fraction(2, 4), Fraction(-6, 9), 8)
    assert (x.rat, x.irr) == (Fraction(1, 2), Fraction(-2, 3))
    y = FieldElement(Fraction(3, 6), Fraction(5, 10), FIELDS[1]) * 4
    assert (y.a, y.b) == (2, 2) and y == FIELDS[1].element(2, 2)
    assert repr(FIELDS[1].u()) == (
        "FieldElement(Fraction(0, 1), Fraction(1, 1), "
        "FieldDescriptor(theta=6, c0=1))"
    )
