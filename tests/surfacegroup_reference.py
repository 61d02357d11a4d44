"""Code that `inoueaut.surfacegroup` replaced, kept as the differential
reference for tests/test_surfacegroup.py and tests/test_components.py:

- `AffineElement`, the group law on `FieldElement`/`QuadComplex` values
  that the flat integer law replaced, and `make_generators` building the
  four generators with it;
- `surface_group_contains`, which builds the word g1^a g2^b g0^k from
  reference `AffineElement` powers, and `is_standard_form_direct`, which
  compares g0 g_i g0^{-1} with the powered word g1^{n_i1} g2^{n_i2};
- `is_standard_form_residue`, the closed-form plus-family gate, used only
  by tests;
- `normalizer_oracle`, the oracle on the reference law and word problem,
  with the minus-family shift from `membership_reference`.

Bodies unchanged, but for the word problem, the gate and the oracle, which
take the generators from the reference `make_generators` instead of
`params.generators`, and for the group law, which negates t by `_neg`, the
body of the `QuadComplex.__neg__` that the package dropped.  `QuadComplex`
and the sign of a `QuadReal` now come from `field_reference`, where the
package's dropped code moved: the sign test reads `ordered(...).sign()`,
and `make_generators` turns the package's t, two integer triples, into a
`QuadComplex` by `quad_complex`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from conftest import ideal_over_r, in_discrete_subgroup
from field_reference import QuadComplex, ordered, quad_complex
from inoueaut.quadfield import FieldDescriptor, FieldElement, chi
from inoueaut.surfacegroup import SurfaceParams
from inoueaut.units import unit_exponent
from membership_reference import _central_expression


def _neg(t: QuadComplex) -> QuadComplex:
    return QuadComplex._raw(-t.re, -t.im)


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
        if ordered(self.v.sigma1()).sign() <= 0:
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
        s = other.t if self.v._norm_num() > 0 else _neg(other.t)
        re = self.t.re + s.re - chi(self.x, uy) / 2
        t = QuadComplex._raw(re, self.t.im + s.im)
        return AffineElement._raw(self.v * other.v, self.x + uy, t)

    def inverse(self) -> "AffineElement":
        v_inv = self.v.inverse()
        t = _neg(self.t) if self.v._norm_num() > 0 else self.t
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


def make_generators(
    params: SurfaceParams,
) -> tuple[AffineElement, AffineElement, AffineElement, AffineElement]:
    """The four generators: [u, 0, t], [1, x_i, chi(x_i, e)], [1, 0, -chi0/r]."""
    field = params.field
    zero = field.zero()
    one = field.one()
    g0 = AffineElement(field.u(), zero, quad_complex(params.t, field.delta))
    g1 = AffineElement(one, params.x1, QuadComplex.from_real(chi(params.x1, params.e)))
    g2 = AffineElement(one, params.x2, QuadComplex.from_real(chi(params.x2, params.e)))
    g3 = AffineElement(
        one, zero, QuadComplex.from_real(-params.chi0 / params.r)
    )
    return g0, g1, g2, g3


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
    return ideal_over_r(params).contains(z)


def surface_group_contains(params: SurfaceParams, g: AffineElement) -> bool:
    """Word problem for the discrete surface group (standard form assumed).

    Writes g against the canonical word g1^a g2^b g0^k and accepts iff the
    leftover central part is an integer power of g3.
    """
    field = params.field
    k = unit_exponent(g.v, field.u())
    if k is None:
        return False
    coords = params.ideal.integer_coordinates(g.x)
    if coords is None:
        return False
    a, b = coords
    g0, g1, g2, g3 = make_generators(params)
    word = (g1 ** a) * (g2 ** b) * (g0 ** k)
    leftover = g * word.inverse()
    if leftover.v != field.one() or leftover.x:
        return False
    t = leftover.t
    return not t.im and in_discrete_subgroup(t.re, g3.t.re)


def is_standard_form_direct(params: SurfaceParams) -> bool:
    """Conjugation test: g0 g_i g0^{-1} (g1^{n_i1} g2^{n_i2})^{-1} in <g3>.

    Works for both families; the minus family has no closed form.
    """
    g0, g1, g2, g3 = make_generators(params)
    g0_inv = g0.inverse()
    for gi, (ni1, ni2) in zip((g1, g2), params.n_matrix):
        conj = g0 * gi * g0_inv
        word = (g1 ** ni1) * (g2 ** ni2)
        leftover = conj * word.inverse()
        if leftover.v != params.field.one() or leftover.x:
            return False
        t = leftover.t
        if t.im or not in_discrete_subgroup(t.re, g3.t.re):
            return False
    return True


def normalizer_oracle(params: SurfaceParams, v: FieldElement, y: FieldElement) -> bool:
    """h = [v, y, s] conjugates every generator into the group, both ways;
    s = 0 for the plus family, -central/2 for the minus family."""
    field = params.field
    if field.c0 == 1:
        s = QuadComplex.zero(field.delta)
    else:
        s = QuadComplex.from_real(-(_central_expression(params, y) / 2))
    h = AffineElement(v, y, s)
    h_inv = h.inverse()
    for gen in make_generators(params):
        if not surface_group_contains(params, h * gen * h_inv):
            return False
        if not surface_group_contains(params, h_inv * gen * h):
            return False
    return True
