"""Arithmetic in the real quadratic field K = Q[X]/(X^2 - theta*X + c0).

Elements are written in the basis {1, u}, where u is the distinguished root
with sigma1(u) > 1, and computed on the integer core of exactnum.  c0 = +1 is the theta >= 3 family, c0 = -1 the
theta >= 1 family; the two share formulas up to signs that are never
inferred, only read off the descriptor.
"""

from __future__ import annotations

from fractions import Fraction

from .exactnum import (
    QuadCore,
    QuadReal,
    Scalar,
    _FrozenRecord,
    format_quad,
    is_perfect_square,
    parse_surd,
)


class FieldDescriptor(_FrozenRecord):
    """The pair (theta, c0) defining K and its distinguished unit u."""

    _fields = ("theta", "c0")

    def __init__(self, theta: int, c0: int) -> None:
        self.__dict__.update(theta=theta, c0=c0)
        if self.c0 not in (1, -1):
            raise ValueError(f"c0 must be +1 or -1, got {self.c0}")
        min_theta = 3 if self.c0 == 1 else 1
        if self.theta < min_theta:
            raise ValueError(
                f"theta must be >= {min_theta} for c0 = {self.c0:+d}, got {self.theta}"
            )
        # Unreachable given the bounds above, but a square delta would make
        # the minimal polynomial reducible, so fail loudly rather than degrade.
        if self.delta <= 0 or is_perfect_square(self.delta):
            raise ValueError(f"theta**2 - 4*c0 = {self.delta} is not usable")

    @property
    def delta(self) -> int:
        return self.theta * self.theta - 4 * self.c0

    @property
    def surface_type(self) -> str:
        return "+" if self.c0 == 1 else "-"

    @classmethod
    def from_type(cls, surface_type: str, theta: int) -> "FieldDescriptor":
        if surface_type not in ("+", "-"):
            raise ValueError(f"surface type must be '+' or '-', got {surface_type!r}")
        return cls(theta, 1 if surface_type == "+" else -1)

    def element(self, a: Scalar, b: Scalar = 0) -> "FieldElement":
        return FieldElement(a, b, self)

    def zero(self) -> "FieldElement":
        return FieldElement._raw(0, 0, 1, self)

    def one(self) -> "FieldElement":
        return FieldElement._raw(1, 0, 1, self)

    def u(self) -> "FieldElement":
        """The distinguished root u (a unit of norm c0 with sigma1(u) > 1)."""
        return FieldElement._raw(0, 1, 1, self)


class FieldElement(QuadCore):
    """a + b*u in the basis {1, u}, held as QuadCore's integer triple
    (p + q*u)/den; arithmetic reduces by u^2 = theta*u - c0."""

    __slots__ = ()

    def __init__(self, a: Scalar, b: Scalar, field: FieldDescriptor) -> None:
        super().__init__(a, b, field)

    a, b = QuadCore._rational, QuadCore._coefficient

    @property
    def field(self) -> FieldDescriptor:
        return self._ctx

    def _law(self) -> tuple[int, int]:
        return self._ctx.theta, self._ctx.c0

    def _coerce(self, other: object) -> "FieldElement | None":
        if isinstance(other, FieldElement):
            if other._ctx is not self._ctx and other._ctx != self._ctx:
                raise ValueError(
                    f"field mismatch: {self.field} vs {other.field}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return self._scalar(other)
        return None

    def __mul__(self, other: object) -> "FieldElement":
        o = self._coerce(other)
        return NotImplemented if o is None else self._times(o)

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self._p == other._p
            and self._q == other._q
            and self._den == other._den
            and (self._ctx is other._ctx or self._ctx == other._ctx)
        )

    def __hash__(self) -> int:
        return hash((self._p, self._q, self._den, self._ctx))

    # -- invariants of the element -------------------------------------------

    def norm(self) -> Fraction:
        """Norm(a + b*u) = a^2 + a*b*theta + b^2*c0."""
        return Fraction(self._norm_num(), self._den * self._den)

    def embed(self, which: int) -> QuadReal:
        """Real embedding sigma_which; sigma1(u) = (theta + sqrt(delta))/2."""
        if which not in (1, 2):
            raise ValueError(f"embedding index must be 1 or 2, got {which}")
        field = self._ctx
        return QuadReal._reduced(
            2 * self._p + self._q * field.theta,
            self._q if which == 1 else -self._q,
            2 * self._den,
            field.delta,
        )

    def sigma1(self) -> QuadReal:
        return self.embed(1)

    def sigma2(self) -> QuadReal:
        return self.embed(2)

    def is_unit(self) -> bool:
        return abs(self._norm_num()) == self._den * self._den

    def __str__(self) -> str:
        return format_quad(self._p, self._q, self._den, "u")


def chi(x: FieldElement, y: FieldElement) -> QuadReal:
    """The antisymmetric form sigma1(x)sigma2(y) - sigma1(y)sigma2(x).

    Always a pure surd: -(x.a*y.b - y.a*x.b) * sqrt(delta).
    """
    if x._ctx is not y._ctx and x._ctx != y._ctx:
        raise ValueError(f"field mismatch: {x.field} vs {y.field}")
    return QuadReal._reduced(
        0, y._p * x._q - x._p * y._q, x._den * y._den, x._ctx.delta
    )


# -- text syntax: "a/b + c/d*u", the grammar of exactnum.parse_surd ----------


def parse_field_element(text: str, field: FieldDescriptor) -> FieldElement:
    return FieldElement._raw(*parse_surd(text, "u"), field)
