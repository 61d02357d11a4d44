"""Shared builders: the four worked example parameter sets, random field
elements, random fractional ideals, the solved standard-form e of both
families (solve_standard_e, which only tests use, lives here), and random
standard-form parameter sets for both surface families, over random ideals
or over I = Z<1, eta>, with t drawn by random_t or, reaching the -2t term,
by random_surd_t."""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable

import pytest

from inoueaut import (
    AmbientGroup,
    CosetPair,
    FieldDescriptor,
    FieldElement,
    Lattice,
    ParameterError,
    QuadComplex,
    QuadReal,
    SurfaceParams,
    fundamental_unit,
    is_standard_form_direct,
)

# -- the worked examples -------------------------------------------------------


def example_theta6() -> SurfaceParams:
    """theta=6, r=6, I=Z<1, eta>, e=0, t=0; Q = Z/2 x Z/2."""
    field = FieldDescriptor(6, 1)
    return SurfaceParams.create(field, 6, field.one(), fundamental_unit(field))


def example_theta4_shifted() -> SurfaceParams:
    """theta=4, r=6, I=Z[u], e=1/(6(1-u)); Q = Z/2."""
    field = FieldDescriptor(4, 1)
    e = field.one() / (6 * (field.one() - field.u()))
    return SurfaceParams.create(field, 6, field.one(), field.u(), e)


def example_theta4_zero() -> SurfaceParams:
    """theta=4, r=6, I=Z[u], e=0; Q trivial."""
    field = FieldDescriptor(4, 1)
    return SurfaceParams.create(field, 6, field.one(), field.u())


def example_theta7() -> SurfaceParams:
    """theta=7, r=10, I=Z<1, eta>, e=0; Q = (Z/4) |x (Z/5), action 3."""
    field = FieldDescriptor(7, 1)
    return SurfaceParams.create(field, 10, field.one(), fundamental_unit(field))


def all_examples() -> list[SurfaceParams]:
    return [
        example_theta6(),
        example_theta4_shifted(),
        example_theta4_zero(),
        example_theta7(),
    ]


# -- random data ---------------------------------------------------------------


def random_rational(rng: random.Random, span: int = 4) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.choice((1, 1, 2, 3)))


def random_field_element(
    rng: random.Random, field: FieldDescriptor, span: int = 4
) -> FieldElement:
    return field.element(random_rational(rng, span), random_rational(rng, span))


def random_nonzero_element(
    rng: random.Random, field: FieldDescriptor, span: int = 4
) -> FieldElement:
    while True:
        x = random_field_element(rng, field, span)
        if x:
            return x


def unimodular_moves(
    rng: random.Random, b1: FieldElement, b2: FieldElement
) -> tuple[FieldElement, FieldElement]:
    """Up to three random elementary moves of a lattice basis."""
    for _ in range(rng.randint(0, 3)):
        move = rng.randrange(3)
        m = rng.randint(-2, 2)
        if move == 0:
            b1 = b1 + m * b2
        elif move == 1:
            b2 = b2 + m * b1
        else:
            b1, b2 = b2, b1
    return b1, b2


def random_invariant_lattice(rng: random.Random, field: FieldDescriptor) -> Lattice:
    """A fractional ideal of Z[u] with a randomized basis.

    Starts from an integral ideal Z<a, c + u> (a | Norm(c + u)), then applies
    unimodular basis moves and a nonzero field scaling, both of which keep
    invariance under u.
    """
    theta, c0 = field.theta, field.c0
    while True:
        a = rng.randint(1, 4)
        admissible = [c for c in range(a) if (c * c + theta * c + c0) % a == 0]
        if admissible:
            break
    c = rng.choice(admissible)
    b1, b2 = unimodular_moves(rng, field.element(a), field.element(c, 1))
    scale = random_nonzero_element(rng, field, span=2)
    b1 = scale * b1
    b2 = scale * b2
    lat = Lattice(b1, b2)
    assert lat.mult_matrix(field.u()) is not None
    return lat


def solve_standard_e(
    field: FieldDescriptor,
    r: int,
    x1: FieldElement,
    x2: FieldElement,
    p_int: int,
    q_int: int,
) -> FieldElement:
    """The unique e putting the plus-family group in standard form with
    central offsets (p_int, q_int):

        e = u/(1-u) * ((n11 n12/2 + p/r) x2 - (n21 n22/2 + q/r) x1)
    """
    if field.c0 != 1:
        raise ValueError("the solved form only exists for c0 = +1")
    n = Lattice(x1, x2).mult_matrix(field.u())
    if n is None:
        raise ParameterError("Z<x1, x2> is not a fractional ideal")
    (n11, n12), (n21, n22) = n
    u = field.u()
    factor = u / (field.one() - u)
    return factor * (
        (Fraction(n11 * n12, 2) + Fraction(p_int, r)) * x2
        - (Fraction(n21 * n22, 2) + Fraction(q_int, r)) * x1
    )


def _solve_standard_e_minus(
    field: FieldDescriptor,
    r: int,
    x1: FieldElement,
    x2: FieldElement,
    p_int: int,
    q_int: int,
) -> FieldElement:
    # The (u-1)-variant of the plus-family solved form; validated by the
    # direct conjugation check in random_standard_params.
    lattice = Lattice(x1, x2)
    (n11, n12), (n21, n22) = lattice.mult_matrix(field.u())
    u = field.u()
    factor = u / (u - field.one())
    return factor * (
        (Fraction(n11 * n12, 2) + Fraction(p_int, r)) * x2
        - (Fraction(n21 * n22, 2) + Fraction(q_int, r)) * x1
    )


def random_t(rng: random.Random, field: FieldDescriptor) -> QuadComplex:
    delta = field.delta
    roll = rng.random()
    if roll < 0.5:
        return QuadComplex.zero(delta)
    if roll < 0.65:
        return QuadComplex.from_real(
            QuadReal.from_rational(random_rational(rng, 3), delta)
        )
    if roll < 0.85:
        return QuadComplex.from_real(QuadReal(0, random_rational(rng, 3), delta))
    return QuadComplex(
        QuadReal(random_rational(rng, 2), random_rational(rng, 2), delta),
        QuadReal(random_rational(rng, 2), random_rational(rng, 2), delta),
    )


def random_surd_t(rng: random.Random, field: FieldDescriptor) -> QuadComplex:
    """A pure surd t = k/m * sqrt(delta) with m not dividing 6.

    random_t's surd parts have m | 6, which on the generated sets makes
    2rt/chi0 an integer; here it usually is not, so the -2t term of
    condition 2 (units of norm -1) decides membership.
    """
    k = rng.choice([k for k in range(-9, 10) if k])
    m = rng.choice((4, 5, 7, 8, 9, 10, 16))
    return QuadComplex.from_real(QuadReal(0, Fraction(k, m), field.delta))


def random_standard_params(
    rng: random.Random,
    c0: int,
    theta_range: tuple[int, int],
    r_range: tuple[int, int] = (1, 12),
    t_draw: Callable[[random.Random, FieldDescriptor], QuadComplex] = random_t,
) -> SurfaceParams:
    """A validated standard-form parameter set with randomized ideal and e;
    t_draw gives t for the plus family."""
    theta = rng.randint(*theta_range)
    field = FieldDescriptor(theta, c0)
    r = rng.randint(*r_range)
    x1, x2 = random_invariant_lattice(rng, field).basis
    return _standard_params(rng, field, r, x1, x2, t_draw)


def random_eta_params(
    rng: random.Random,
    c0: int,
    theta_range: tuple[int, int],
    r_range: tuple[int, int] = (1, 12),
    t_draw: Callable[[random.Random, FieldDescriptor], QuadComplex] = random_t,
) -> SurfaceParams:
    """A validated standard-form parameter set over I = Z<1, eta> with the
    basis moved at random, at a theta where u is a proper power of eta.

    Random ideals almost always give n = 1; here u_gen = eta and n > 1, so
    the unit part of H acts on the cosets.
    """
    while True:
        field = FieldDescriptor(rng.randint(*theta_range), c0)
        eta = fundamental_unit(field)
        if eta != field.u():
            break
    r = rng.randint(*r_range)
    x1, x2 = unimodular_moves(rng, field.one(), eta)
    return _standard_params(rng, field, r, x1, x2, t_draw)


def _standard_params(
    rng: random.Random,
    field: FieldDescriptor,
    r: int,
    x1: FieldElement,
    x2: FieldElement,
    t_draw: Callable[[random.Random, FieldDescriptor], QuadComplex] = random_t,
) -> SurfaceParams:
    """Completes the basis with a random standard-form e (and t for S(+))."""
    c0 = field.c0
    p_int = rng.randint(-2 * r, 2 * r)
    q_int = rng.randint(-2 * r, 2 * r)
    if c0 == 1:
        e = solve_standard_e(field, r, x1, x2, p_int, q_int)
        t = t_draw(rng, field)
    else:
        e = _solve_standard_e_minus(field, r, x1, x2, p_int, q_int)
        t = QuadComplex.zero(field.delta)
    params = SurfaceParams(field, r, x1, x2, e, t)
    assert is_standard_form_direct(params)
    return params


def random_unit(
    rng: random.Random, field: FieldDescriptor, eta: FieldElement
) -> FieldElement:
    """A random element of the positive unit group (norm +-1, sigma1 > 0)."""
    return (field.u() ** rng.randint(-2, 2)) * (eta ** rng.randint(-2, 2))


def ambient_mul(ambient: AmbientGroup, e1: CosetPair, e2: CosetPair) -> CosetPair:
    """The product of two elements of H by its integer law (mul_row)."""
    [key] = ambient.mul_row(ambient.key(e1), [ambient.key(e2)])
    return CosetPair(*divmod(key, ambient.quotient.order))


def ambient_inv(ambient: AmbientGroup, el: CosetPair) -> CosetPair:
    """(i, k)^{-1} = (-i, 0)(0, -k)."""
    d1, d2 = ambient.quotient.d1, ambient.quotient.d2
    minus_k = -(el.coset // d2) % d1 * d2 + -el.coset % d2
    return ambient_mul(
        ambient, CosetPair(-el.unit_exp % ambient.n, 0), CosetPair(0, minus_k)
    )


@pytest.fixture(scope="session")
def example_params() -> list[SurfaceParams]:
    return all_examples()
