"""Shared builders: the four worked example parameter sets, random field
elements, random fractional ideals, the solved standard-form e of both
families (solve_standard_e, which only tests use, lives here), and random
standard-form parameter sets for both surface families, over random ideals
or over I = Z<1, eta>, with t (two integer triples, built by surd_triple)
drawn by random_t or, reaching the -2t term, by random_surd_t, and the
Z[phi] set at the Lucas number theta = L_16 (lucas_params); and helpers
that only tests and the references read: the discrete-subgroup test on
QuadReals, a quotient's coset representatives, the lattice I/r and a real
t (real_t); and the API the package dropped because no command reaches it
(powers, Galois conjugate, trace, the affine identity, rational lattice
coordinates, lattice index and invariance, format_surd), kept here with its
old bodies for the tests that still read it."""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm
from typing import Callable

import pytest

from inoueaut import (
    AffineElement,
    AmbientGroup,
    FieldDescriptor,
    FieldElement,
    Lattice,
    LatticeQuotient,
    ParameterError,
    QuadReal,
    SurfaceParams,
    fundamental_unit,
    is_standard_form_direct,
)
from inoueaut.exactnum import ZERO_T, Complex, QuadCore, Scalar, format_quad

# -- test-only helpers ----------------------------------------------------------


def in_discrete_subgroup(
    value: QuadReal, gen: QuadReal, scale: Scalar = Fraction(1)
) -> bool:
    """True iff value = k * (scale * gen) for some integer k.

    gen must be a pure sqrt(delta) multiple: the cyclic groups this test
    serves (chi(I,I)/r and its relatives) are always generated by one, so a
    generator with a rational part signals an upstream bug and raises.
    Decided on the integer triples: with value = q sqrt(delta)/den, gen =
    g sqrt(delta)/gden and scale = m/n, k = q gden n / (den g m).
    """
    if gen._p or not gen._q:
        raise ValueError(f"generator must be a nonzero pure surd, got {gen}")
    scale = Fraction(scale)
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")
    if not value:
        return True
    if value._ctx != gen._ctx:
        raise ValueError(f"delta mismatch: {value.delta} vs {gen.delta}")
    if value._p:
        return False
    num = value._q * gen._den * scale.denominator
    return num % (value._den * gen._q * scale.numerator) == 0


def coset_reps(quotient: LatticeQuotient) -> list[FieldElement]:
    """Every coset representative of the quotient, in coset order."""
    return [quotient.rep(k) for k in range(quotient.order)]


def ideal_over_r(params: SurfaceParams) -> Lattice:
    """The lattice I/r of condition 1."""
    return params.ideal.scale(params.field.element(Fraction(1, params.r)))


# -- API the package dropped -----------------------------------------------------

AFFINE_IDENTITY = (1, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 1)


def affine_identity(field: FieldDescriptor) -> AffineElement:
    return AffineElement._of(field, AFFINE_IDENTITY)


def is_affine_identity(g: AffineElement) -> bool:
    return g._flat == AFFINE_IDENTITY


def power(x, n: int):
    """x**n for a FieldElement or an AffineElement, n of either sign, by
    square-and-multiply."""
    if isinstance(x, FieldElement):
        out = x.field.one()
    else:
        out = affine_identity(x.field)
    base = x.inverse() if n < 0 else x
    n = abs(n)
    while n:
        if n & 1:
            out = out * base
        base = base * base
        n >>= 1
    return out


def conjugate(x: QuadCore) -> QuadCore:
    """The nontrivial Galois automorphism w -> T - w of a FieldElement or a
    QuadReal."""
    t, _ = x._law()
    return x._raw(x._p + t * x._q, -x._q, x._den, x._ctx)


def trace(x: FieldElement) -> Fraction:
    return Fraction(2 * x._p + x._q * x.field.theta, x._den)


def is_rational(x: FieldElement) -> bool:
    return not x._q


def format_surd(rat: Scalar, coeff: Scalar, symbol: str) -> str:
    """Write rat + coeff*SYMBOL in the syntax parse_surd reads."""
    a, b = Fraction(rat).as_integer_ratio(), Fraction(coeff).as_integer_ratio()
    return format_quad(a[0] * b[1], b[0] * a[1], a[1] * b[1], symbol)


def order_lattice(field: FieldDescriptor) -> Lattice:
    """Z[u] with its standard basis (1, u)."""
    return Lattice(field.one(), field.u())


def lattice_coordinates(lat: Lattice, x: FieldElement) -> tuple[Fraction, Fraction]:
    """(m, n) with x = m*b1 + n*b2, as exact rationals."""
    if x.field != lat.field:
        raise ValueError("field mismatch")
    m, n, d = lat._solve(*x.as_integer_triple())
    return Fraction(m, d), Fraction(n, d)


def lattice_index(big: Lattice, small: Lattice) -> Fraction:
    """[big : small] = |det(small)/den(small)^2| / |det(big)/den(big)^2| for
    the basis matrices, i.e. the ratio of |chi| of the two bases.

    The usual group index when small is a sublattice of big.
    """
    return Fraction(
        abs(small._det) * big._den * big._den,
        abs(big._det) * small._den * small._den,
    )


def is_invariant_under(lat: Lattice, v: FieldElement) -> bool:
    """True iff v * lat = lat; v must be a unit."""
    if not v.is_unit():
        raise ValueError(f"{v} is not a unit (norm {v.norm()})")
    return lat.mult_matrix(v) is not None


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


def surd_triple(rat: Scalar, irr: Scalar) -> tuple[int, int, int]:
    """The reduced triple (p, q, den) of rat + irr*sqrt(delta) =
    (p + q*sqrt(delta))/den."""
    rat, irr = Fraction(rat), Fraction(irr)
    den = lcm(rat.denominator, irr.denominator)
    p, q = rat.numerator * den // rat.denominator, irr.numerator * den // irr.denominator
    return p, q, den


def real_t(x: QuadReal) -> Complex:
    """The real t = x, as two integer triples."""
    return x.as_integer_triple(), ZERO_T[1]


def random_t(rng: random.Random, field: FieldDescriptor) -> Complex:
    roll = rng.random()
    if roll < 0.5:
        return ZERO_T
    if roll < 0.65:
        return surd_triple(random_rational(rng, 3), 0), ZERO_T[1]
    if roll < 0.85:
        return surd_triple(0, random_rational(rng, 3)), ZERO_T[1]
    return (
        surd_triple(random_rational(rng, 2), random_rational(rng, 2)),
        surd_triple(random_rational(rng, 2), random_rational(rng, 2)),
    )


def random_surd_t(rng: random.Random, field: FieldDescriptor) -> Complex:
    """A pure surd t = k/m * sqrt(delta) with m not dividing 6.

    random_t's surd parts have m | 6, which on the generated sets makes
    2rt/chi0 an integer; here it usually is not, so the -2t term of
    condition 2 (units of norm -1) decides membership.
    """
    k = rng.choice([k for k in range(-9, 10) if k])
    m = rng.choice((4, 5, 7, 8, 9, 10, 16))
    return surd_triple(0, Fraction(k, m)), ZERO_T[1]


def random_standard_params(
    rng: random.Random,
    c0: int,
    theta_range: tuple[int, int],
    r_range: tuple[int, int] = (1, 12),
    t_draw: Callable[[random.Random, FieldDescriptor], Complex] = random_t,
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
    t_draw: Callable[[random.Random, FieldDescriptor], Complex] = random_t,
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
    t_draw: Callable[[random.Random, FieldDescriptor], Complex] = random_t,
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
        t = ZERO_T
    params = SurfaceParams(field, r, x1, x2, e, t)
    assert is_standard_form_direct(params)
    return params


F16 = 987  # the Fibonacci number F_16, with L_16 = 2207


def lucas_params(r: int) -> SurfaceParams:
    """theta = L_16 = 2207 and I = Z<1, phi>, phi = (F16 - theta)/(2 F16) +
    u/F16 the golden ratio: n = 16, C = Z/21 x Z/105 and |H| = 35 280."""
    field = FieldDescriptor(2207, 1)
    x1 = field.one()
    x2 = Fraction(F16 - 2207, 2 * F16) * x1 + Fraction(1, F16) * field.u()
    e = solve_standard_e(field, r, x1, x2, 0, 0)
    return SurfaceParams.create(field, r, x1, x2, e)


def random_unit(
    rng: random.Random, field: FieldDescriptor, eta: FieldElement
) -> FieldElement:
    """A random element of the positive unit group (norm +-1, sigma1 > 0)."""
    return power(field.u(), rng.randint(-2, 2)) * power(eta, rng.randint(-2, 2))


def ambient_mul(ambient: AmbientGroup, x: int, y: int) -> int:
    """The key of the product of two keys of H by its integer law (mul_row)."""
    [key] = ambient.mul_row(x, [y])
    return key


def ambient_inv(ambient: AmbientGroup, x: int) -> int:
    """(i, k)^{-1} = (-i, 0)(0, -k), on keys i*|C| + k."""
    c, d1, d2 = ambient.quotient.order, ambient.quotient.d1, ambient.quotient.d2
    i, k = divmod(x, c)
    minus_k = -(k // d2) % d1 * d2 + -k % d2
    return ambient_mul(ambient, -i % ambient.n * c, minus_k)


@pytest.fixture(scope="session")
def example_params() -> list[SurfaceParams]:
    return all_examples()
