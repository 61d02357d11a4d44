"""The solvable group of affine transformations of H x C attached to the
field, the discrete surface group generated from (theta, r, x1, x2, e; t),
its word problem, the standard-form checks, and export to the classical
eigenvector data.

An element [v, x, t] acts as (w, z) -> (sigma1(v) w + sigma1(x),
Norm(v) z + sigma2(x) sigma1(v) w + Norm(x)/2 + t); only the algebra of the
triples is needed here, never the action itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .exactnum import QuadComplex, QuadReal, in_discrete_subgroup
from .lattice import IntMatrix, Lattice
from .quadfield import FieldDescriptor, FieldElement, chi
from .units import unit_exponent


class ParameterError(ValueError):
    """Surface parameters fail validation (bad r, dependent basis, non-ideal)."""


class StandardFormError(ValueError):
    """Parameters are valid but the generated group is not in standard form."""


@dataclass(frozen=True)
class AffineElement:
    """Group element [v, x, t]: v a positive unit, x a field element, t complex.

    The group law is
        [u, x, t][v, y, s] = [uv, x + uy, t + Norm(u)s - chi(x, uy)/2].
    The public constructor validates; products, inverses and the identity
    keep the invariants (v a unit with sigma1(v) > 0, one field and delta)
    and are built by the trusted _raw.
    """

    v: FieldElement
    x: FieldElement
    t: QuadComplex

    def __post_init__(self) -> None:
        if self.v.field != self.x.field:
            raise ValueError("v and x live in different fields")
        if self.t.delta != self.v.field.delta:
            raise ValueError("t has the wrong delta for this field")
        if abs(self.v.norm()) != 1:
            raise ValueError(f"v must be a unit, got norm {self.v.norm()}")
        if self.v.sigma1().sign() <= 0:
            raise ValueError(f"v must have sigma1 > 0, got {self.v}")

    @classmethod
    def _raw(
        cls, v: FieldElement, x: FieldElement, t: QuadComplex
    ) -> "AffineElement":
        self = object.__new__(cls)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "t", t)
        return self

    @property
    def field(self) -> FieldDescriptor:
        return self.v.field

    @classmethod
    def identity(cls, field: FieldDescriptor) -> "AffineElement":
        return cls._raw(field.one(), field.zero(), QuadComplex.zero(field.delta))

    def __mul__(self, other: "AffineElement") -> "AffineElement":
        if not isinstance(other, AffineElement):
            return NotImplemented
        if other.field != self.field:
            raise ValueError("field mismatch")
        uy = self.v * other.x
        # self.v is a unit, so Norm(u)s in the law is s or -s
        s = other.t if self.v._norm_num() > 0 else -other.t
        re = self.t.re + s.re - chi(self.x, uy) / 2
        t = QuadComplex._raw(re, self.t.im + s.im)
        return AffineElement._raw(self.v * other.v, self.x + uy, t)

    def inverse(self) -> "AffineElement":
        v_inv = self.v.inverse()
        t = -self.t if self.v._norm_num() > 0 else self.t
        return AffineElement._raw(v_inv, -(self.x * v_inv), t)

    def __pow__(self, n: int) -> "AffineElement":
        if not isinstance(n, int):
            return NotImplemented
        base = self
        if n < 0:
            base = self.inverse()
            n = -n
        out = AffineElement.identity(self.field)
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def is_identity(self) -> bool:
        return self.v == self.field.one() and not self.x and not self.t

    def __str__(self) -> str:
        return f"[{self.v}, {self.x}, {self.t}]"


@dataclass(frozen=True)
class SurfaceParams:
    """Validated defining data (theta, r, x1, x2, e; t) of one surface.

    x1, x2 must span a fractional ideal of Z[u] (u acts integrally and
    chi(x1, x2) != 0); t is pinned to 0 for the minus family.
    """

    field: FieldDescriptor
    r: int
    x1: FieldElement
    x2: FieldElement
    e: FieldElement
    t: QuadComplex

    def __post_init__(self) -> None:
        if not isinstance(self.r, int) or self.r <= 0:
            raise ParameterError(f"r must be a positive integer, got {self.r}")
        for name in ("x1", "x2", "e"):
            if getattr(self, name).field != self.field:
                raise ParameterError(f"{name} lives in a different field")
        if self.t.delta != self.field.delta:
            raise ParameterError("t has the wrong delta for this field")
        if not chi(self.x1, self.x2):
            raise ParameterError("x1, x2 are Q-linearly dependent (chi = 0)")
        if self.field.c0 == -1 and self.t:
            raise ParameterError("t must be 0 for the minus family")
        if self.n_matrix is None:
            raise ParameterError(
                "Z<x1, x2> is not a fractional ideal: u does not act integrally"
            )

    @classmethod
    def create(
        cls,
        field: FieldDescriptor,
        r: int,
        x1: FieldElement,
        x2: FieldElement,
        e: FieldElement | None = None,
        t: QuadComplex | None = None,
    ) -> "SurfaceParams":
        if e is None:
            e = field.zero()
        if t is None:
            t = QuadComplex.zero(field.delta)
        return cls(field, r, x1, x2, e, t)

    # -- derived data (cached; the dataclass is frozen but not slotted) -------

    @cached_property
    def ideal(self) -> Lattice:
        return Lattice(self.x1, self.x2)

    @cached_property
    def ideal_over_r(self) -> Lattice:
        return self.ideal.scale(Fraction(1, self.r))

    @cached_property
    def coset_cover(self) -> Lattice:
        """The lattice I*(1 - u)^{-1} containing all translation candidates."""
        one_minus_u = self.field.one() - self.field.u()
        return self.ideal.scale(one_minus_u.inverse())

    @cached_property
    def n_matrix(self) -> IntMatrix | None:
        """Integer matrix of u acting on (x1, x2), trace theta and det c0;
        None only while __post_init__ rejects a non-ideal."""
        return self.ideal.mult_matrix(self.field.u())

    @cached_property
    def chi0(self) -> QuadReal:
        return chi(self.x1, self.x2)

    @cached_property
    def generators(
        self,
    ) -> tuple[AffineElement, AffineElement, AffineElement, AffineElement]:
        return make_generators(self)


def make_generators(
    params: SurfaceParams,
) -> tuple[AffineElement, AffineElement, AffineElement, AffineElement]:
    """The four generators: [u, 0, t], [1, x_i, chi(x_i, e)], [1, 0, -chi0/r]."""
    field = params.field
    zero = field.zero()
    one = field.one()
    g0 = AffineElement(field.u(), zero, params.t)
    g1 = AffineElement(one, params.x1, QuadComplex.from_real(chi(params.x1, params.e)))
    g2 = AffineElement(one, params.x2, QuadComplex.from_real(chi(params.x2, params.e)))
    g3 = AffineElement(
        one, zero, QuadComplex.from_real(-params.chi0 / params.r)
    )
    return g0, g1, g2, g3


def _word_center(params: SurfaceParams, a: int, b: int, k: int) -> QuadComplex:
    """T(a, b, k), the central part of the word g1^a g2^b g0^k.

    chi is antisymmetric, so g_i^a = [1, a x_i, a c_i] with c_i = chi(x_i, e)
    and g1^a g2^b = [1, a x1 + b x2, a c1 + b c2 - ab chi0/2]; g0^k =
    [u^k, 0, k t], since Norm(u) = +1 in the plus family and t = 0 in the
    minus family.  So the word is [u^k, a x1 + b x2, T] with
        T = a c1 + b c2 - ab chi0/2 + k t.
    """
    g0, g1, g2, _ = params.generators
    re = a * g1.t.re + b * g2.t.re - Fraction(a * b, 2) * params.chi0
    return QuadComplex._raw(re + k * g0.t.re, k * g0.t.im)


def surface_group_contains(params: SurfaceParams, g: AffineElement) -> bool:
    """Word problem for the discrete surface group (standard form assumed).

    Writes g against the canonical word g1^a g2^b g0^k = [u^k, a x1 + b x2,
    T(a, b, k)] (see _word_center), with k the exact exponent g.v = u^k
    from unit_exponent and (a, b) the exact integer coordinates of g.x in I;
    g is rejected if either does not exist.  Then g word^{-1} =
    [1, 0, g.t - T]: its v- and x-parts are 1 and 0 by the choice of k and
    (a, b), so they need no check, and g lies in the group iff
    Im(g.t) = k Im(t) and Re(g.t) - Re(T) is an integer multiple of g3's t.
    """
    k = unit_exponent(g.v, params.field.u())
    if k is None:
        return False
    coords = params.ideal.integer_coordinates(g.x)
    if coords is None:
        return False
    center = _word_center(params, *coords, k)
    return g.t.im == center.im and in_discrete_subgroup(
        g.t.re - center.re, params.generators[3].t.re
    )


def is_standard_form_direct(params: SurfaceParams) -> bool:
    """Conjugation test: g0 g_i g0^{-1} (g1^{n_i1} g2^{n_i2})^{-1} in <g3>.

    With g0^{-1} = [u^{-1}, 0, -Norm(u) t] the group law gives
    g0 g_i g0^{-1} = [u, u x_i, t + Norm(u) c_i] g0^{-1} = [1, u x_i, Norm(u) c_i],
    c_i = chi(x_i, e) real and Norm(u) = c0.  The rows of N give
    u x_i = n_i1 x1 + n_i2 x2 exactly, so the conjugate and the word
    [1, u x_i, T(n_i1, n_i2, 0)] differ only in their central parts, both
    real, and the quotient is [1, 0, c0 c_i - T].  Works for both families;
    only the plus family also has the residue test below.
    """
    _, g1, g2, g3 = params.generators
    c0 = params.field.c0
    for gi, (ni1, ni2) in zip((g1, g2), params.n_matrix):
        t = c0 * gi.t.re - _word_center(params, ni1, ni2, 0).re
        if not in_discrete_subgroup(t, g3.t.re):
            return False
    return True


def is_standard_form_residue(params: SurfaceParams) -> bool:
    """Closed-form test for the plus family:
    (1-u)/u * e + (n21 n22 / 2) x1 - (n11 n12 / 2) x2 in I/r."""
    if params.field.c0 != 1:
        raise ValueError("the closed-form residue test only exists for c0 = +1")
    field = params.field
    u = field.u()
    (n11, n12), (n21, n22) = params.n_matrix
    z = (
        ((field.one() - u) / u) * params.e
        + Fraction(n21 * n22, 2) * params.x1
        - Fraction(n11 * n12, 2) * params.x2
    )
    return params.ideal_over_r.contains(z)


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


@dataclass(frozen=True)
class InoueData:
    """The classical data (N, p, q; eigenvectors and translation parts)."""

    matrix: IntMatrix
    p: int
    q: int
    alpha: QuadReal
    a1: QuadReal
    a2: QuadReal
    b1: QuadReal
    b2: QuadReal
    c1: QuadReal
    c2: QuadReal
    d: QuadReal


def to_inoue_data(params: SurfaceParams) -> InoueData:
    """Export to the classical matrix-and-eigenvector data.

    alpha = sigma1(u), a_i = sigma1(x_i), b_i = sigma2(x_i),
    c_i = Norm(x_i)/2 + chi(x_i, e), d = (b1 a2 - b2 a1)/r, and (p, q) the
    integers solving (N - c0 I)(c1; c2) = -(e1; e2) - d (p; q).  The solution
    is integral exactly when the group is in standard form.
    """
    field = params.field
    n = params.n_matrix
    (n11, n12), (n21, n22) = n
    alpha = field.u().sigma1()
    a1, b1 = params.x1.sigma1(), params.x1.sigma2()
    a2, b2 = params.x2.sigma1(), params.x2.sigma2()
    c1 = QuadReal.from_rational(params.x1.norm() / 2, field.delta) + chi(
        params.x1, params.e
    )
    c2 = QuadReal.from_rational(params.x2.norm() / 2, field.delta) + chi(
        params.x2, params.e
    )
    d = (b1 * a2 - b2 * a1) / params.r

    def trans(ni1: int, ni2: int) -> QuadReal:
        return (
            Fraction(ni1 * (ni1 - 1), 2) * (a1 * b1)
            + Fraction(ni2 * (ni2 - 1), 2) * (a2 * b2)
            + Fraction(ni1 * ni2) * (b1 * a2)
        )

    e1, e2 = trans(n11, n12), trans(n21, n22)
    lhs1 = (n11 - field.c0) * c1 + n12 * c2
    lhs2 = n21 * c1 + (n22 - field.c0) * c2
    p_val = (-e1 - lhs1) / d
    q_val = (-e2 - lhs2) / d
    if p_val.irr != 0 or q_val.irr != 0 or (
        p_val.rat.denominator != 1 or q_val.rat.denominator != 1
    ):
        raise StandardFormError(
            "no integer (p, q) solves the translation system; the group is "
            "not in standard form ((1-u)/u e + (n21 n22/2) x1 - (n11 n12/2) x2 "
            "is not in I/r)"
        )
    p_int, q_int = int(p_val.rat), int(q_val.rat)
    # Exact re-substitution; a failure here is an arithmetic bug.
    check1 = lhs1 + e1 + d * p_int
    check2 = lhs2 + e2 + d * q_int
    if check1 or check2:
        raise AssertionError("translation system re-substitution failed")
    return InoueData(n, p_int, q_int, alpha, a1, a2, b1, b2, c1, c2, d)
