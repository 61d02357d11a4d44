"""The Fraction implementations of the membership conditions, kept unchanged
as the differential references for tests/test_membership.py.

`membership_conditions` evaluates both conditions with field arithmetic, one
class [v, y] at a time; the integer membership forms replaced it.  v's
matrix on I comes from the Fraction lattice reference, since the package's
matrices are now integer rows.  `membership_form` builds those forms per
unit power from Fraction and field arithmetic, as the package did before it
built them from integer triples, and `member_keys` runs it over every coset
as the filter did.  Rational coordinates in I come from
`conftest.lattice_coordinates`, where `Lattice.coordinates` moved.  The
package's t, two integer triples, is read as a `QuadComplex` through
`field_reference.quad_complex`, and the sign of sigma1 through
`field_reference.ordered`, where the code the package dropped moved."""

from fractions import Fraction
from math import lcm
from typing import Callable, Sequence

import lattice_reference
from conftest import ideal_over_r, in_discrete_subgroup, lattice_coordinates
from field_reference import ordered, quad_complex
from inoueaut import FieldElement, SurfaceParams, chi
from inoueaut.components import _unit_matrix
from lattice_reference import Matrix2Q


def membership_conditions(
    params: SurfaceParams, v: FieldElement, y: FieldElement
) -> bool:
    """Exact evaluation of the two membership conditions for the class [v, y].

    Condition 1: (v-1)e + y - (m21 m22 v x1 - m11 m12 v x2)/2 in I/r.
    Condition 2: (Norm(v)-1)t + chi((u-1)y, e - y/2) + a*b*chi0/2 in chi0 Z/r,
    with (a, b) the coordinates of (1-u)y in (x1, x2).  For the minus family
    condition 2 is always solvable in the free central parameter, so only
    condition 1 constrains membership.
    """
    field = params.field
    (m11, m12), (m21, m22) = _validate_candidate(params, v, y).int_rows()
    one = field.one()
    correction = Fraction(m21 * m22, 2) * (v * params.x1) - Fraction(
        m11 * m12, 2
    ) * (v * params.x2)
    z = (v - one) * params.e + y - correction
    if not ideal_over_r(params).contains(z):
        return False
    if field.c0 == -1:
        return True
    expr = _central_expression(params, y)
    scale = Fraction(1, params.r)
    if v.norm() == 1:
        return in_discrete_subgroup(expr, params.chi0, scale)
    # Norm(v) = -1: the -2t contribution must itself be a rational multiple
    # of sqrt(delta) for membership in the discrete real group to make sense.
    t = quad_complex(params.t, field.delta)
    if t.im:
        return False
    return in_discrete_subgroup(expr - 2 * t.re, params.chi0, scale)


def _validate_candidate(
    params: SurfaceParams, v: FieldElement, y: FieldElement
) -> Matrix2Q:
    """Rejects a malformed candidate [v, y]; returns v's matrix on I."""
    if not v.is_unit() or ordered(v.sigma1()).sign() <= 0:
        raise ValueError(f"v must be a unit with sigma1 > 0, got {v}")
    m = lattice_reference.Lattice(*params.ideal.basis).mult_matrix(v)
    if not m.is_integral() or abs(m.det()) != 1:
        raise ValueError(f"{v} does not map the ideal onto itself")
    if not params.coset_cover.contains(y):
        raise ValueError(f"{y} lies outside I(1-u)^(-1)")
    return m


def _central_expression(params: SurfaceParams, y: FieldElement):
    """chi((u-1)y, e - y/2) + a*b*chi(x1, x2)/2, the t-free part of condition 2."""
    field = params.field
    one = field.one()
    u = field.u()
    coords = params.ideal.integer_coordinates((one - u) * y)
    if coords is None:
        raise ValueError(f"(1-u)*{y} is not in the ideal")
    a, b = coords
    return chi((u - one) * y, params.e - y / 2) + Fraction(a * b, 2) * params.chi0


# -- the Fraction membership forms that the integer forms replaced ------------


def _over_common_denominator(values: Sequence[Fraction]) -> tuple[int, list[int]]:
    den = lcm(*(x.denominator for x in values))
    return den, [int(x * den) for x in values]


def membership_form(
    params: SurfaceParams,
    v: FieldElement,
    basis: tuple[FieldElement, FieldElement],
) -> Callable[[int, int], bool]:
    """The membership test for [v, k1 b1 + k2 b2], (b1, b2) a basis of
    I(1-u)^{-1}, as integer forms in (k1, k2), each tested with one %.

    Condition 1: z = (v-1)e + y - (m21 m22 v x1 - m11 m12 v x2)/2 in I/r, m
    being v's matrix on (x1, x2); r times the coordinates of z in I are
    affine in k and must be integers.
    Condition 2: (Norm(v)-1)t + chi((u-1)y, e - y/2) + a*b*chi0/2 in chi0 Z/r,
    with (a, b) the coordinates of (1-u)y in (x1, x2).  Every term but -2t
    (present for Norm(v) = -1) is a multiple of sqrt(delta), so the test is
    r * value / chi0 in Z on a quadratic in k.  For the minus family
    condition 2 is always solvable in the free central parameter, so only
    condition 1 constrains membership.
    """
    field, ideal, r = params.field, params.ideal, params.r
    (m11, m12), (m21, m22) = _unit_matrix(params, v)
    one = field.one()
    correction = Fraction(m21 * m22, 2) * (v * params.x1) - Fraction(
        m11 * m12, 2
    ) * (v * params.x2)
    shift = lattice_coordinates(ideal, (v - one) * params.e - correction)
    steps = [lattice_coordinates(ideal, b) for b in basis]
    den1, (a0, a1, a2, b0, b1, b2) = _over_common_denominator(
        [r * x for col in (0, 1) for x in (shift[col], steps[0][col], steps[1][col])]
    )
    t = quad_complex(params.t, field.delta)
    if field.c0 == -1 or v.norm() == 1:
        const = Fraction(0)
    elif t.im or t.re.rat:
        # Norm(v) = -1: -2t must itself be a rational multiple of sqrt(delta)
        return lambda k1, k2: False
    else:
        const = -2 * t.re.irr
    den2, (c, p1, p2, q11, q12, q22) = 1, (0,) * 6
    if field.c0 == 1:
        g = [(field.u() - one) * b for b in basis]  # (u-1) b_i
        coords = [ideal.integer_coordinates(-x) for x in g]
        for b, pair in zip(basis, coords):
            if pair is None:
                raise ValueError(f"(1-u)*{b} is not in the ideal")
        # (a, b) = k1 (a_k, b_k) + k2 (a_l, b_l), from the coordinates of
        # (1-u) b1 and (1-u) b2
        (a_k, b_k), (a_l, b_l) = coords
        chi0 = params.chi0.irr

        def surd(x: FieldElement, w: FieldElement) -> Fraction:
            return chi(x, w).irr

        half = Fraction(1, 2)
        coefficients = (
            const,
            surd(g[0], params.e),
            surd(g[1], params.e),
            half * (a_k * b_k * chi0 - surd(g[0], basis[0])),
            half
            * ((a_k * b_l + a_l * b_k) * chi0 - surd(g[0], basis[1]) - surd(g[1], basis[0])),
            half * (a_l * b_l * chi0 - surd(g[1], basis[1])),
        )
        den2, (c, p1, p2, q11, q12, q22) = _over_common_denominator(
            [x * r / chi0 for x in coefficients]
        )

    def accepts(k1: int, k2: int) -> bool:
        return (
            (a0 + a1 * k1 + a2 * k2) % den1 == 0
            and (b0 + b1 * k1 + b2 * k2) % den1 == 0
            and (c + k1 * (p1 + q11 * k1 + q12 * k2) + k2 * (p2 + q22 * k2)) % den2
            == 0
        )

    return accepts


def member_keys(params: SurfaceParams, ambient) -> list[int]:
    """The keys the filter accepted with the Fraction forms: the body of
    `components._member_keys` before the integer forms, over the Smith
    basis as the quotient built it with field arithmetic."""
    quotient = ambient.quotient
    _, _, *basis = lattice_reference.smith_basis(quotient.big, quotient.small)
    c = ambient.quotient.order
    d1, d2 = ambient.quotient.invariant_factors
    keys = []
    for i, v in enumerate(ambient.unit_powers):
        accepts = membership_form(params, v, basis)
        keys.extend(
            i * c + k1 * d2 + k2
            for k1 in range(d1)
            for k2 in range(d2)
            if accepts(k1, k2)
        )
    return keys

