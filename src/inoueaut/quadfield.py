"""Arithmetic in the real quadratic field K = Q[X]/(X^2 - theta*X + c0).

Elements are stored in the basis {1, u}, where u is the distinguished root
with sigma1(u) > 1.  c0 = +1 is the theta >= 3 family, c0 = -1 the
theta >= 1 family; the two share formulas up to signs that are never
inferred, only read off the descriptor.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exactnum import (
    QuadReal,
    Rational,
    Scalar,
    format_surd,
    is_perfect_square,
    parse_surd,
)


@dataclass(frozen=True)
class FieldDescriptor:
    """The pair (theta, c0) defining K and its distinguished unit u."""

    theta: int
    c0: int

    def __post_init__(self) -> None:
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
        return FieldElement(Fraction(a), Fraction(b), self)

    def zero(self) -> "FieldElement":
        return self.element(0)

    def one(self) -> "FieldElement":
        return self.element(1)

    def u(self) -> "FieldElement":
        """The distinguished root u (a unit of norm c0 with sigma1(u) > 1)."""
        return self.element(0, 1)


@dataclass(frozen=True)
class FieldElement:
    """a + b*u in the basis {1, u}; arithmetic reduces by u^2 = theta*u - c0."""

    a: Fraction
    b: Fraction
    field: FieldDescriptor

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))

    def _coerce(self, other: object) -> "FieldElement | None":
        if isinstance(other, FieldElement):
            if other.field != self.field:
                raise ValueError(
                    f"field mismatch: {self.field} vs {other.field}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return FieldElement(Fraction(other), Fraction(0), self.field)
        return None

    # -- field operations ---------------------------------------------------

    def __add__(self, other: object) -> "FieldElement":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElement(self.a + o.a, self.b + o.b, self.field)

    __radd__ = __add__

    def __sub__(self, other: object) -> "FieldElement":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElement(self.a - o.a, self.b - o.b, self.field)

    def __rsub__(self, other: object) -> "FieldElement":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self) -> "FieldElement":
        return FieldElement(-self.a, -self.b, self.field)

    def __mul__(self, other: object) -> "FieldElement":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        theta, c0 = self.field.theta, self.field.c0
        bb = self.b * o.b
        return FieldElement(
            self.a * o.a - c0 * bb,
            self.a * o.b + self.b * o.a + theta * bb,
            self.field,
        )

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        nrm = self.norm()
        if nrm == 0:
            raise ZeroDivisionError("inverse of zero field element")
        conj = self.conjugate()
        return FieldElement(conj.a / nrm, conj.b / nrm, self.field)

    def __truediv__(self, other: object) -> "FieldElement":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other: object) -> "FieldElement":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n: int) -> "FieldElement":
        if not isinstance(n, int):
            return NotImplemented
        base = self
        if n < 0:
            base = self.inverse()
            n = -n
        out = self.field.one()
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __bool__(self) -> bool:
        return self.a != 0 or self.b != 0

    # -- invariants of the element -------------------------------------------

    def norm(self) -> Rational:
        """Norm(a + b*u) = a^2 + a*b*theta + b^2*c0."""
        return (
            self.a * self.a
            + self.a * self.b * self.field.theta
            + self.b * self.b * self.field.c0
        )

    def trace(self) -> Rational:
        return 2 * self.a + self.b * self.field.theta

    def conjugate(self) -> "FieldElement":
        """The nontrivial Galois automorphism: a + b*u -> (a + b*theta) - b*u."""
        return FieldElement(self.a + self.b * self.field.theta, -self.b, self.field)

    def embed(self, which: int) -> QuadReal:
        """Real embedding sigma_which; sigma1(u) = (theta + sqrt(delta))/2."""
        if which not in (1, 2):
            raise ValueError(f"embedding index must be 1 or 2, got {which}")
        half = Fraction(1, 2) if which == 1 else Fraction(-1, 2)
        return QuadReal(
            self.a + self.b * Fraction(self.field.theta, 2),
            self.b * half,
            self.field.delta,
        )

    def sigma1(self) -> QuadReal:
        return self.embed(1)

    def sigma2(self) -> QuadReal:
        return self.embed(2)

    def is_unit(self) -> bool:
        return abs(self.norm()) == 1

    def is_rational(self) -> bool:
        return self.b == 0

    def __str__(self) -> str:
        return format_field_element(self)


def chi(x: FieldElement, y: FieldElement) -> QuadReal:
    """The antisymmetric form sigma1(x)sigma2(y) - sigma1(y)sigma2(x).

    Always a pure surd: -(x.a*y.b - y.a*x.b) * sqrt(delta).
    """
    if x.field != y.field:
        raise ValueError(f"field mismatch: {x.field} vs {y.field}")
    return QuadReal(Fraction(0), -(x.a * y.b - y.a * x.b), x.field.delta)


# -- text syntax: "a/b + c/d*u", the grammar of exactnum.parse_surd ----------


def parse_field_element(text: str, field: FieldDescriptor) -> FieldElement:
    return FieldElement(*parse_surd(text, "u"), field)


def format_field_element(x: FieldElement) -> str:
    return format_surd(x.a, x.b, "u")
