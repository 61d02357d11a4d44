"""The Fraction implementations of `QuadReal`, `FieldElement`, `chi` and
`in_discrete_subgroup` that the integer core in `exactnum` replaced, kept as
the differential reference for tests/test_field_core.py; and, in the last
section, the complex type, the complex parser and formatter, and the
members of the integer `QuadReal` that the package dropped when it came to
carry t as integer triples.

The bodies are unchanged but for two lines: `FieldElement.__pow__` started
from `self.field.one()`, which now builds the package's `FieldElement`, so
here it starts from the reference's own one; and `FieldElement.__str__`
called the package's `format_field_element`, which the package dropped, so
here it spells out that function's body.  The adapter `format_surd` it and
`QuadReal` format with moved from `exactnum` to `tests/conftest.py`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering

from conftest import format_surd
from inoueaut import exactnum
from inoueaut.cli import ParamFileError
from inoueaut.exactnum import (
    Scalar,
    format_quad,
    is_perfect_square,
    parse_surd,
    square_decompose,
    surd_sign,
)
from inoueaut.quadfield import FieldDescriptor


def _sign_of(q: Fraction) -> int:
    return (q > 0) - (q < 0)


@dataclass(frozen=True)
class QuadReal:
    """Exact real number rat + irr*sqrt(delta), delta a positive non-square.

    Two values interoperate only when their deltas agree (a mismatch raises);
    purely rational values compare equal across deltas.
    """

    rat: Fraction
    irr: Fraction
    delta: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "rat", Fraction(self.rat))
        object.__setattr__(self, "irr", Fraction(self.irr))
        if self.delta <= 0 or is_perfect_square(self.delta):
            raise ValueError(
                f"delta must be a positive non-square integer, got {self.delta}"
            )

    # -- coercion ---------------------------------------------------------

    def _coerce(self, other: object) -> "tuple[QuadReal, QuadReal] | None":
        """Bring self and other to a common delta; rational values re-tag freely."""
        if isinstance(other, (int, Fraction)):
            return self, QuadReal(Fraction(other), Fraction(0), self.delta)
        if not isinstance(other, QuadReal):
            return None
        if other.delta == self.delta:
            return self, other
        if other.irr == 0:
            return self, QuadReal(other.rat, Fraction(0), self.delta)
        if self.irr == 0:
            return QuadReal(self.rat, Fraction(0), other.delta), other
        raise ValueError(f"delta mismatch: {self.delta} vs {other.delta}")

    # -- ring/field structure ---------------------------------------------

    def __add__(self, other: object) -> "QuadReal":
        pair = self._coerce(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return QuadReal(a.rat + b.rat, a.irr + b.irr, a.delta)

    __radd__ = __add__

    def __sub__(self, other: object) -> "QuadReal":
        pair = self._coerce(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return QuadReal(a.rat - b.rat, a.irr - b.irr, a.delta)

    def __rsub__(self, other: object) -> "QuadReal":
        pair = self._coerce(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return b - a

    def __neg__(self) -> "QuadReal":
        return QuadReal(-self.rat, -self.irr, self.delta)

    def __mul__(self, other: object) -> "QuadReal":
        pair = self._coerce(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return QuadReal(
            a.rat * b.rat + a.irr * b.irr * a.delta,
            a.rat * b.irr + a.irr * b.rat,
            a.delta,
        )

    __rmul__ = __mul__

    def __truediv__(self, other: object) -> "QuadReal":
        pair = self._coerce(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        nrm = b.rat * b.rat - b.irr * b.irr * b.delta
        if nrm == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt(delta))")
        return a * QuadReal(b.rat / nrm, -b.irr / nrm, a.delta)

    def __rtruediv__(self, other: object) -> "QuadReal":
        pair = self._coerce(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return b / a

    def __pow__(self, n: int) -> "QuadReal":
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out = QuadReal(1, 0, self.delta)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def conjugate(self) -> "QuadReal":
        return QuadReal(self.rat, -self.irr, self.delta)

    # -- comparisons --------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.irr == 0 and self.rat == other
        if isinstance(other, QuadReal):
            if self.irr == 0 and other.irr == 0:
                return self.rat == other.rat
            return (
                self.delta == other.delta
                and self.rat == other.rat
                and self.irr == other.irr
            )
        return NotImplemented

    def __hash__(self) -> int:
        if self.irr == 0:
            return hash(self.rat)
        return hash((self.rat, self.irr, self.delta))

    def sign(self) -> int:
        """Exact sign in {-1, 0, +1}, decided by integer case analysis."""
        p, q = self.rat, self.irr
        if q == 0:
            return _sign_of(p)
        if p == 0:
            return _sign_of(q)
        if p > 0 and q > 0:
            return 1
        if p < 0 and q < 0:
            return -1
        lhs = p * p
        rhs = q * q * self.delta
        if lhs == rhs:  # would force sqrt(delta) rational
            raise AssertionError("non-square delta invariant violated")
        if p > 0:
            return 1 if lhs > rhs else -1
        return 1 if rhs > lhs else -1

    def __bool__(self) -> bool:
        return self.rat != 0 or self.irr != 0

    def __lt__(self, other: object) -> bool:
        diff = self.__sub__(other)
        if diff is NotImplemented:
            return NotImplemented
        return diff.sign() < 0

    def __le__(self, other: object) -> bool:
        diff = self.__sub__(other)
        if diff is NotImplemented:
            return NotImplemented
        return diff.sign() <= 0

    def __gt__(self, other: object) -> bool:
        diff = self.__sub__(other)
        if diff is NotImplemented:
            return NotImplemented
        return diff.sign() > 0

    def __ge__(self, other: object) -> bool:
        diff = self.__sub__(other)
        if diff is NotImplemented:
            return NotImplemented
        return diff.sign() >= 0

    # -- presentation -------------------------------------------------------

    def __float__(self) -> float:
        return float(self.rat) + float(self.irr) * self.delta ** 0.5

    def __str__(self) -> str:
        return format_surd(self.rat, self.irr, f"sqrt({self.delta})")

    def reduced_str(self) -> str:
        """Like str(), but with the radicand reduced to its squarefree part."""
        s, m = square_decompose(self.delta)
        return format_surd(self.rat, self.irr * s, f"sqrt({m})")

    @classmethod
    def zero(cls, delta: int) -> "QuadReal":
        return cls(Fraction(0), Fraction(0), delta)

    @classmethod
    def from_rational(cls, value: Scalar, delta: int) -> "QuadReal":
        return cls(Fraction(value), Fraction(0), delta)


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
        out = FieldElement(Fraction(1), Fraction(0), self.field)
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __bool__(self) -> bool:
        return self.a != 0 or self.b != 0

    # -- invariants of the element -------------------------------------------

    def norm(self) -> Fraction:
        """Norm(a + b*u) = a^2 + a*b*theta + b^2*c0."""
        return (
            self.a * self.a
            + self.a * self.b * self.field.theta
            + self.b * self.b * self.field.c0
        )

    def trace(self) -> Fraction:
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
        return format_surd(self.a, self.b, "u")


def chi(x: FieldElement, y: FieldElement) -> QuadReal:
    """The antisymmetric form sigma1(x)sigma2(y) - sigma1(y)sigma2(x).

    Always a pure surd: -(x.a*y.b - y.a*x.b) * sqrt(delta).
    """
    if x.field != y.field:
        raise ValueError(f"field mismatch: {x.field} vs {y.field}")
    return QuadReal(Fraction(0), -(x.a * y.b - y.a * x.b), x.field.delta)


def in_discrete_subgroup(
    value: QuadReal, gen: QuadReal, scale: Scalar = Fraction(1)
) -> bool:
    """True iff value = k * (scale * gen) for some integer k.

    gen must be a pure sqrt(delta) multiple: the cyclic groups this test
    serves (chi(I,I)/r and its relatives) are always generated by one, so a
    generator with a rational part signals an upstream bug and raises.
    """
    if gen.rat != 0 or gen.irr == 0:
        raise ValueError(f"generator must be a nonzero pure surd, got {gen}")
    scale = Fraction(scale)
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")
    if not value:
        return True
    if value.delta != gen.delta:
        raise ValueError(f"delta mismatch: {value.delta} vs {gen.delta}")
    if value.rat != 0:
        return False
    return (value.irr / (scale * gen.irr)).denominator == 1


# -- code the package dropped when t became two integer triples ----------------
#
# `exactnum.QuadComplex`, and the members of the integer `exactnum.QuadReal`
# that no command needed once every sign of sigma1 was taken on integers: its
# sign, its order, its zero and the cross-delta branch of its coercion, with
# the `_check_delta` its zero called.  They are held here on a subclass of
# the package's QuadReal, `OrderedQuadReal`, so that the differential tests
# still run the package's integer core under them.  The bodies are unchanged
# but for names: the package's QuadReal is `exactnum.QuadReal` here, where
# `QuadReal` is the Fraction reference above.  `cli.parse_quad_complex`, its
# `_parse_complex` and `format_quad_complex` follow, with
# `QuadReal.zero`/`QuadReal._raw` read as `OrderedQuadReal.zero`/`._raw`.


def _check_delta(delta: int) -> None:
    if delta <= 0 or is_perfect_square(delta):
        raise ValueError(f"delta must be a positive non-square integer, got {delta}")


@total_ordering
class OrderedQuadReal(exactnum.QuadReal):
    """exactnum.QuadReal with the sign, order, zero and cross-delta
    coercion the package dropped."""

    __slots__ = ()

    def _coerce(self, other: object) -> "tuple[exactnum.QuadReal, exactnum.QuadReal] | None":
        """Bring self and other to a common delta; rational values re-tag freely."""
        if isinstance(other, (int, Fraction)):
            return self, self._scalar(other)
        if not isinstance(other, exactnum.QuadReal):
            return None
        if other._ctx == self._ctx:
            return self, other
        if not other._q:
            return self, other._raw(other._p, 0, other._den, self._ctx)
        if not self._q:
            return self._raw(self._p, 0, self._den, other._ctx), other
        raise ValueError(f"delta mismatch: {self._ctx} vs {other._ctx}")

    def sign(self) -> int:
        """Exact sign in {-1, 0, +1}, decided by integer case analysis."""
        return surd_sign(self._p, self._q, self._ctx)

    def __lt__(self, other: object) -> bool:  # <=, >, >= by total_ordering
        diff = self.__sub__(other)
        if diff is NotImplemented:
            return NotImplemented
        return diff.sign() < 0

    @classmethod
    def zero(cls, delta: int) -> "OrderedQuadReal":
        _check_delta(delta)
        return cls._raw(0, 0, 1, delta)


def ordered(x: exactnum.QuadReal) -> OrderedQuadReal:
    """The package's QuadReal x as an OrderedQuadReal."""
    return OrderedQuadReal._raw(*x.as_integer_triple(), x.delta)


@dataclass(frozen=True)
class QuadComplex:
    """Complex number with QuadReal real and imaginary parts (shared delta).

    The public constructor checks the shared delta; zero and from_real keep
    it and are built by the trusted _raw.
    """

    re: exactnum.QuadReal
    im: exactnum.QuadReal

    def __post_init__(self) -> None:
        if self.re.delta != self.im.delta:
            raise ValueError("real and imaginary parts must share delta")

    @classmethod
    def _raw(cls, re: exactnum.QuadReal, im: exactnum.QuadReal) -> "QuadComplex":
        self = object.__new__(cls)
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)
        return self

    @property
    def delta(self) -> int:
        return self.re.delta

    @classmethod
    def zero(cls, delta: int) -> "QuadComplex":
        """Zero over delta, which the caller has validated (a field's delta)."""
        zero = OrderedQuadReal._raw(0, 0, 1, delta)
        return cls._raw(zero, zero)

    @classmethod
    def from_real(cls, value: exactnum.QuadReal) -> "QuadComplex":
        return cls._raw(value, value._scalar(0))

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __str__(self) -> str:
        return self.to_text(f"sqrt({self.delta})", "*i")

    def to_text(self, symbol: str, imaginary: str) -> str:
        """"re + (im)<imaginary>", each part written by format_quad."""
        re_text = format_quad(*self.re.as_integer_triple(), symbol)
        if not self.im:
            return re_text
        im_text = f"({format_quad(*self.im.as_integer_triple(), symbol)}){imaginary}"
        return f"{re_text} + {im_text}" if self.re else im_text


def quad_complex(t: tuple, delta: int) -> QuadComplex:
    """The package's t, two integer triples over sqrt(delta), as a
    QuadComplex with OrderedQuadReal parts."""
    re, im = t
    return QuadComplex._raw(
        OrderedQuadReal._raw(*re, delta), OrderedQuadReal._raw(*im, delta)
    )


def complex_triples(t: QuadComplex) -> tuple:
    """A QuadComplex as the package's t: the triples of its parts."""
    return t.re.as_integer_triple(), t.im.as_integer_triple()


# "re", "(im)i" or "re + (im)i": the "+" is required after a real part.
_COMPLEX_RE = re.compile(r"^(?P<re>[^()]*?)(?:(?:^|\+)\((?P<im>[^()]+)\)i)?$")


def parse_quad_complex(text: str, delta: int, where: str = "t") -> QuadComplex:
    """Parse "re + (im)i", each part a surd in sqrtD; an empty part is 0.
    Errors are ParamFileErrors anchored at where."""
    try:
        return _parse_complex(text, delta)
    except ValueError as exc:
        raise ParamFileError(f"{where}: {exc}") from exc


def _parse_complex(text: str, delta: int) -> QuadComplex:
    """parse_quad_complex with unanchored ValueErrors.  delta is checked once,
    by QuadReal.zero; the parts are built trusted."""
    zero = OrderedQuadReal.zero(delta)
    match = _COMPLEX_RE.match(text.replace(" ", ""))
    if match is None:
        raise ValueError(f"bad complex value {text!r}")
    re_text, im_text = match.groups()
    re_part = OrderedQuadReal._raw(*parse_surd(re_text, "sqrtD"), delta) if re_text else zero
    im_part = OrderedQuadReal._raw(*parse_surd(im_text, "sqrtD"), delta) if im_text else zero
    return QuadComplex._raw(re_part, im_part)


def format_quad_complex(value: QuadComplex) -> str:
    return value.to_text("sqrtD", "i")
