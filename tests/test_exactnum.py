"""Exact scalar layer: field axioms, exact signs (taken on the integers by
surd_sign), discrete-subgroup tests, the complex formatter."""

import math
import random
from decimal import Decimal, getcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import in_discrete_subgroup
from inoueaut import QuadReal
from inoueaut.exactnum import (
    SQUAREFREE_TRIAL_LIMIT,
    ZERO_T,
    ValueTooLargeError,
    format_complex,
    is_perfect_square,
    square_decompose,
    surd_sign,
)
from units_reference import square_decompose_reference


def qr(rat, irr, delta=8) -> QuadReal:
    return QuadReal(Fraction(rat), Fraction(irr), delta)


def sign(x: QuadReal) -> int:
    """The sign of x, by surd_sign on its integers."""
    p, q, _ = x.as_integer_triple()
    return surd_sign(p, q, x.delta)


def test_construction_rejects_square_delta():
    for bad in (0, 1, 4, 9, 16, -3):
        with pytest.raises(ValueError):
            QuadReal(1, 1, bad)


def test_norm_of_unit_times_conjugate():
    # (3 + sqrt(8)) * (3 - sqrt(8)) = 1
    assert qr(3, 1) * qr(3, -1) == qr(1, 0)


def test_additive_inverse():
    assert qr(0, 1) + qr(0, -1) == qr(0, 0)
    assert not (qr(0, 1) + qr(0, -1))


def test_golden_ratio_square():
    # phi^2 = phi + 1, checked by symbolic expansion
    phi = qr(Fraction(1, 2), Fraction(1, 2), 5)
    assert phi * phi == phi + 1
    assert phi * phi == qr(Fraction(3, 2), Fraction(1, 2), 5)


def test_division_and_inverse():
    a = qr(Fraction(2, 3), Fraction(-5, 7), 12)
    assert a / a == qr(1, 0, 12)
    with pytest.raises(ZeroDivisionError):
        a / qr(0, 0, 12)


def test_mixed_scalars():
    a = qr(1, 1)
    assert a + 1 == qr(2, 1)
    assert 2 * a == qr(2, 2)
    assert a - Fraction(1, 2) == qr(Fraction(1, 2), 1)
    assert (a * 0) == 0


def test_rational_values_compare_across_deltas():
    assert qr(3, 0, 8) == qr(3, 0, 5)
    assert hash(qr(3, 0, 8)) == hash(qr(3, 0, 5))
    with pytest.raises(ValueError):
        qr(1, 1, 8) + qr(1, 1, 5)


def test_sign_desk_cases():
    assert sign(qr(3, -1, 8)) == 1  # 9 > 8
    assert sign(qr(1, -1, 5)) == -1  # 1 < 5
    assert sign(qr(Fraction(-7, 2), Fraction(3, 2), 5)) == -1  # 49 > 45
    assert sign(qr(0, 0)) == 0
    assert sign(qr(0, -3)) == -1


def test_sign_against_high_precision_decimal():
    getcontext().prec = 60
    rng = random.Random(101)
    for _ in range(400):
        delta = rng.choice((5, 8, 12, 32, 45, 53))
        a = QuadReal(
            Fraction(rng.randint(-40, 40), rng.randint(1, 9)),
            Fraction(rng.randint(-40, 40), rng.randint(1, 9)),
            delta,
        )
        approx = (
            Decimal(a.rat.numerator) / Decimal(a.rat.denominator)
            + Decimal(a.irr.numerator)
            / Decimal(a.irr.denominator)
            * Decimal(delta).sqrt()
        )
        expected = 0 if approx == 0 else (1 if approx > 0 else -1)
        assert sign(a) == expected


def test_sign_multiplicative():
    rng = random.Random(7)
    for _ in range(300):
        a = qr(rng.randint(-9, 9), rng.randint(-9, 9))
        b = qr(rng.randint(-9, 9), rng.randint(-9, 9))
        if a and b:
            assert sign(a * b) == sign(a) * sign(b)


def test_sign_agrees_with_rational_sign():
    for value in (-3, 0, Fraction(7, 5), Fraction(-1, 9)):
        assert sign(qr(value, 0)) == (value > 0) - (value < 0)


def test_field_axioms_randomized():
    rng = random.Random(13)
    for _ in range(300):
        a = qr(rng.randint(-6, 6), Fraction(rng.randint(-6, 6), rng.choice((1, 2))))
        b = qr(rng.randint(-6, 6), rng.randint(-6, 6))
        c = qr(rng.randint(-6, 6), rng.randint(-6, 6))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        if a:
            assert a * a.inverse() == 1


def test_canonical_form_idempotent():
    a = QuadReal(Fraction(2, 4), Fraction(-6, 9), 8)
    assert (a.rat, a.irr) == (Fraction(1, 2), Fraction(-2, 3))
    again = QuadReal(a.rat, a.irr, a.delta)
    assert again == a


def test_ordering():
    # a < b is sign(a - b) < 0; QuadReal keeps no order of its own
    assert sign(qr(3, -1) - 0) > 0
    assert sign(qr(1, -1, 5) - 0) < 0
    assert sign(qr(1, 1) - qr(1, 0)) > 0
    with pytest.raises(TypeError):
        qr(1, 1) < qr(1, 0)


def test_in_discrete_subgroup_examples():
    gen = qr(0, -1)  # -sqrt(8)
    assert in_discrete_subgroup(qr(0, 0), gen, Fraction(1, 6))
    # -1/2 = 3 * (-1/6): accepted
    assert in_discrete_subgroup(qr(0, Fraction(-1, 2)), gen, Fraction(1, 6))
    # 1/4 is not in (1/6)Z: rejected
    assert not in_discrete_subgroup(qr(0, Fraction(1, 4)), gen, Fraction(1, 6))


def test_in_discrete_subgroup_requires_pure_generator():
    with pytest.raises(ValueError):
        in_discrete_subgroup(qr(0, 1), qr(1, 1))
    with pytest.raises(ValueError):
        in_discrete_subgroup(qr(0, 1), qr(0, 0))
    with pytest.raises(ValueError):
        in_discrete_subgroup(qr(0, 1), qr(0, 1), 0)


def test_in_discrete_subgroup_rejects_rational_part():
    assert not in_discrete_subgroup(qr(1, 1), qr(0, 1))
    assert in_discrete_subgroup(qr(0, 0, 5), qr(0, 1, 8))  # zero needs no delta


def test_printing():
    assert str(qr(3, Fraction(1, 2), 32)) == "3 + 1/2*sqrt(32)"
    assert str(qr(0, -1)) == "-sqrt(8)"
    assert str(qr(Fraction(-1, 2), 0)) == "-1/2"
    assert str(qr(0, 0)) == "0"
    assert qr(1, Fraction(1, 4), 32).reduced_str() == "1 + sqrt(2)"
    assert qr(Fraction(1, 2), Fraction(1, 6), 45).reduced_str() == "1/2 + 1/2*sqrt(5)"


def _is_prime(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))


def _prime_after(n: int) -> int:
    n += 1
    while not _is_prime(n):
        n += 1
    return n


def _prime_before(n: int) -> int:
    n -= 1
    while not _is_prime(n):
        n -= 1
    return n


def _square_decompose_edge_cases() -> list[int]:
    """1, 2**k, p**2, p**3, 4 p**2, and p q, p**2 q, p q**2 with p on both
    sides of the cube root of the product (the p**3 <= rest boundary)."""
    primes = (2, 3, 5, 7, 101, 1009, 65537)
    cases = [1, *(2**k for k in range(41))]
    for p in primes:
        cases += [p * p, p**3, 4 * p * p]
    for p in primes[:-1]:  # on p * q * q the reference loops up to q, about p**2
        for q in (_prime_before(p * p), _prime_after(p * p)):  # p**2 <> q
            cases += [p * q, p * p * q, p * q * q]
    for p in primes:
        for q in primes:
            if p != q:
                cases += [p * q, p * p * q]
    return cases


def test_square_decompose():
    assert square_decompose(32) == (4, 2)
    assert square_decompose(45) == (3, 5)
    assert square_decompose(5) == (1, 5)
    assert square_decompose(8) == (2, 2)  # p**3, exactly at the boundary
    assert square_decompose(4 * 65537**2) == (2 * 65537, 1)
    assert is_perfect_square(49) and not is_perfect_square(48)
    for n in _square_decompose_edge_cases():
        assert square_decompose(n) == square_decompose_reference(n), n
    for bad in (0, -4):
        with pytest.raises(ValueError):
            square_decompose(bad)


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(
        st.integers(1, 10**12),
        st.builds(
            lambda theta, sign: theta * theta + 4 * sign,
            st.integers(3, 3 * 10**6),
            st.sampled_from((1, -1)),
        ),
    )
)
def test_square_decompose_matches_reference(n):
    assert square_decompose(n) == square_decompose_reference(n)


def test_square_decompose_refuses_past_the_trial_limit():
    # three primes just past the limit: no candidate up to it divides, and
    # the cofactor stays above the cube of every candidate
    p = _prime_after(SQUAREFREE_TRIAL_LIMIT)
    q = _prime_after(p)
    n = p * q * _prime_after(q)
    with pytest.raises(ValueTooLargeError, match="20 decimal digits"):
        square_decompose(n)
    # the same size decomposes once its cofactor drops below the limit cubed
    assert square_decompose(2**40 * p * q) == (2**20, p * q)


def test_format_complex_desk_cases():
    # t = re + i*im as two triples; a zero part is left out, and zero is "0"
    assert format_complex(ZERO_T, "sqrt(8)", "*i") == "0"
    half, surd = (1, 0, 2), (0, -2, 3)
    assert format_complex((half, (0, 0, 1)), "sqrtD", "i") == "1/2"
    assert format_complex(((0, 0, 1), surd), "sqrtD", "i") == "(-2/3*sqrtD)i"
    assert format_complex((half, surd), "sqrt(8)", "*i") == "1/2 + (-2/3*sqrt(8))*i"
    assert format_complex(((1, 1, 2), (3, 0, 1)), "sqrtD", "i") == (
        "1/2 + 1/2*sqrtD + (3)i"
    )
