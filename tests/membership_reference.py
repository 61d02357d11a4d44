"""The Fraction implementation of the membership conditions that the integer
membership forms replaced, kept unchanged as the differential reference for
tests/test_membership.py.  It evaluates both conditions with field
arithmetic, one class [v, y] at a time.  v's matrix on I comes from the
Fraction lattice reference, since the package's matrices are now integer
rows."""

from fractions import Fraction

import lattice_reference
from inoueaut import FieldElement, SurfaceParams, chi, in_discrete_subgroup
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
    if not params.ideal_over_r.contains(z):
        return False
    if field.c0 == -1:
        return True
    expr = _central_expression(params, y)
    scale = Fraction(1, params.r)
    if v.norm() == 1:
        return in_discrete_subgroup(expr, params.chi0, scale)
    # Norm(v) = -1: the -2t contribution must itself be a rational multiple
    # of sqrt(delta) for membership in the discrete real group to make sense.
    if params.t.im:
        return False
    return in_discrete_subgroup(expr - 2 * params.t.re, params.chi0, scale)


def _validate_candidate(
    params: SurfaceParams, v: FieldElement, y: FieldElement
) -> Matrix2Q:
    """Rejects a malformed candidate [v, y]; returns v's matrix on I."""
    if not v.is_unit() or v.sigma1().sign() <= 0:
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
