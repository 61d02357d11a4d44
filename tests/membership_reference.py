"""The Fraction implementations of the membership conditions, kept unchanged
as the differential references for tests/test_membership.py.

`membership_conditions` evaluates both conditions with field arithmetic, one
class [v, y] at a time; the integer membership forms replaced it.  v's
matrix on I comes from the Fraction lattice reference, since the package's
matrices are now integer rows.  `membership_form` builds those forms per
unit power from Fraction and field arithmetic, as the package did before it
built them from integer triples, and `member_keys` runs it over every coset
as the filter did.  Rational coordinates in I come from
`conftest.lattice_coordinates`, where `Lattice.coordinates` moved.
`integer_membership_form` is the integer form as the package built it per
unit power, before it built the unit-free part once per surface;
`stepped_member_keys` is the integer filter as it was while it stepped
those forms over every coset, before it evaluated them on one period.  The
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
from inoueaut.components import MembershipForm, _reduced_form, _unit_matrix
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
    _, _, *basis = lattice_reference.smith_basis(quotient.big, params.ideal)
    c = ambient.quotient.order
    d1, d2 = ambient.quotient.d1, ambient.quotient.d2
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


def stepped_member_keys(params: SurfaceParams, ambient) -> list[int]:
    """Keys of the members of H, in order, as `components._member_keys`
    found them before it evaluated the forms on one period only: one
    membership form per unit power over the Smith basis, stepped over the
    cosets' coordinates (k1, k2) by integer adds (the quadratic form by its
    differences)."""
    d1, d2 = ambient.quotient.d1, ambient.quotient.d2
    basis = ambient.quotient.smith_basis
    keys = []
    for i, v in enumerate(ambient.unit_powers):
        form = integer_membership_form(params, v, basis)
        if form is None:
            continue
        den1, a0, a1, a2, b0, b1, b2, den2, c, p1, p2, q11, q12, q22 = form
        key = i * d1 * d2
        # the forms at (k1, 0), and the quadratic's step to (k1, 1)
        a, b, z, dz = a0, b0, c, p2 + q22
        for k1 in range(d1):
            x, y, w, dw = a, b, z, dz
            for _ in range(d2):
                if not (x % den1 or y % den1 or w % den2):
                    keys.append(key)
                key += 1
                x += a2
                y += b2
                w += dw
                dw += 2 * q22
            a += a1
            b += b1
            z += p1 + q11 * (2 * k1 + 1)
            dz += q12
    return keys


# -- the integer forms as built per unit power --------------------------------


def integer_membership_form(
    params: SurfaceParams,
    v: FieldElement,
    basis: tuple[tuple[int, int, int], tuple[int, int, int]],
) -> MembershipForm | None:
    """The membership test for [v, k1 b1 + k2 b2], (b1, b2) a basis of
    I(1-u)^{-1} given by its integer triples (p, q, den), as integer forms
    in (k1, k2); None when no class [v, y] is a member.

    Condition 1: z = (v-1)e + y - (m21 m22 v x1 - m11 m12 v x2)/2 in I/r, m
    being v's matrix on (x1, x2), so v x_i has the coordinates of m's row
    i; r times the coordinates of z in I are affine in k and must be
    integers.
    Condition 2: (Norm(v)-1)t + chi((u-1)y, e - y/2) + a*b*chi0/2 in chi0 Z/r,
    with (a, b) the coordinates of (1-u)y in (x1, x2).  Every term but -2t
    (present for Norm(v) = det m = -1) is a multiple of sqrt(delta), so the
    test is r * value / chi0 in Z on a quadratic in k, over the common
    denominator 2 den(chi0) den(b)^2 den(e) den(t) of its terms.  For the minus
    family condition 2 is always solvable in the free central parameter, so
    only condition 1 constrains membership.
    """
    field, ideal, r = params.field, params.ideal, params.r
    (m11, m12), (m21, m22) = _unit_matrix(params, v)
    (p1, q1, e1), (p2, q2, e2) = basis
    den = lcm(e1, e2)
    f1, f2 = den // e1, den // e2
    p1, q1, p2, q2 = p1 * f1, q1 * f1, p2 * f2, q2 * f2
    ep, eq, ed = params.e.as_integer_triple()
    # e = (me x1 + ne x2)/de and b_i = (s_i x1 + t_i x2)/db
    me, ne, de = ideal._solve(ep, eq, ed)
    s1, t1, db = ideal._solve(p1, q1, den)
    s2, t2, _ = ideal._solve(p2, q2, den)
    # z at k = 0, over 2 de: (v-1)e less the correction m11 m21 (m22 - m12)/2,
    # m12 m22 (m21 - m11)/2
    a0 = 2 * (me * (m11 - 1) + ne * m21) - de * m11 * m21 * (m22 - m12)
    b0 = 2 * (me * m12 + ne * (m22 - 1)) - de * m12 * m22 * (m21 - m11)
    den1 = lcm(2 * de, db)
    fz, fb = den1 // (2 * de) * r, den1 // db * r
    form1 = _reduced_form(
        den1, (a0 * fz, s1 * fb, s2 * fb, b0 * fz, t1 * fb, t2 * fb)
    )
    if field.c0 == -1:
        return MembershipForm(*form1, 1, 0, 0, 0, 0, 0, 0)
    (tp, tq, td), (ip, iq, _) = params.t
    if m11 * m22 - m12 * m21 == 1:  # Norm(v) = +1
        tq, td = 0, 1
    elif ip or iq or tp:
        # Norm(v) = -1: -2t must itself be a rational multiple of sqrt(delta)
        return None
    theta = field.theta
    _, x0, x0d = params.chi0.as_integer_triple()
    # g_i = (u-1) b_i = (gp_i + gq_i u)/den, by u^2 = theta u - 1, and
    # chi(x, w) = (p_w q_x - p_x q_w)/(d_x d_w) * sqrt(delta)
    rows = ((p1, q1), (p2, q2))
    (g1p, g1q), (g2p, g2q) = g = [(-q - p, p + (theta - 1) * q) for p, q in rows]
    coords = []
    for (gp, gq), (p, q) in zip(g, rows):
        pair = ideal.triple_coordinates(-gp, -gq, den)
        if pair is None:
            b = FieldElement._reduced(p, q, den, field)
            raise ValueError(f"(1-u)*{b} is not in the ideal")
        coords.append(pair)
    (ak, bk), (al, bl) = coords
    # the surd parts of chi(g_i, e) times den*ed, of chi(g_i, b_j) times den^2
    c1, c2 = ep * g1q - g1p * eq, ep * g2q - g2p * eq
    s11, s12 = p1 * g1q - g1p * q1, p2 * g1q - g1p * q2
    s21, s22 = p1 * g2q - g2p * q1, p2 * g2q - g2p * q2
    x0e, wide = x0 * den * den, 2 * x0d * den
    scale = r * x0d
    form2 = _reduced_form(
        abs(x0) * wide * den * ed * td,
        [
            x * scale
            for x in (
                -2 * tq * wide * den * ed,
                c1 * wide * td,
                c2 * wide * td,
                (ak * bk * x0e - s11 * x0d) * ed * td,
                ((ak * bl + al * bk) * x0e - (s12 + s21) * x0d) * ed * td,
                (al * bl * x0e - s22 * x0d) * ed * td,
            )
        ],
    )
    return MembershipForm(*form1, *form2)
