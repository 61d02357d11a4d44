"""Exact scalar arithmetic: rationals, real quadratic irrationals p + q*sqrt(D),
and complex numbers over them.

Every comparison and membership decision downstream reduces to operations in
this module; nothing here ever touches floating point except the optional
``__float__`` conversions used for diagnostic printing.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Union

# Arbitrary-precision rationals.  fractions.Fraction already maintains the
# canonical form we rely on: reduced, with a positive denominator.
Rational = Fraction

Scalar = Union[int, Fraction]


def is_perfect_square(n: int) -> bool:
    if n < 0:
        return False
    r = isqrt(n)
    return r * r == n


def square_decompose(n: int) -> tuple[int, int]:
    """Write n = s**2 * m with m squarefree; returns (s, m).

    Trial division; the radicands in this package stay desk-sized.
    """
    if n <= 0:
        raise ValueError(f"expected a positive integer, got {n}")
    s, m = 1, n
    p = 2
    while p * p <= m:
        while m % (p * p) == 0:
            m //= p * p
            s *= p
        p += 1
    return s, m


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


@dataclass(frozen=True)
class QuadComplex:
    """Complex number with QuadReal real and imaginary parts (shared delta)."""

    re: QuadReal
    im: QuadReal

    def __post_init__(self) -> None:
        if self.re.delta != self.im.delta:
            raise ValueError("real and imaginary parts must share delta")

    @property
    def delta(self) -> int:
        return self.re.delta

    @classmethod
    def zero(cls, delta: int) -> "QuadComplex":
        return cls(QuadReal.zero(delta), QuadReal.zero(delta))

    @classmethod
    def from_real(cls, value: QuadReal) -> "QuadComplex":
        return cls(value, QuadReal.zero(value.delta))

    def _coerce(self, other: object) -> "QuadComplex | None":
        if isinstance(other, QuadComplex):
            return other
        if isinstance(other, QuadReal):
            return QuadComplex.from_real(other)
        if isinstance(other, (int, Fraction)):
            return QuadComplex.from_real(QuadReal.from_rational(other, self.delta))
        return None

    def __add__(self, other: object) -> "QuadComplex":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadComplex(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other: object) -> "QuadComplex":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadComplex(self.re - o.re, self.im - o.im)

    def __rsub__(self, other: object) -> "QuadComplex":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self) -> "QuadComplex":
        return QuadComplex(-self.re, -self.im)

    def __mul__(self, other: object) -> "QuadComplex":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadComplex(
            self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re
        )

    __rmul__ = __mul__

    def __truediv__(self, other: object) -> "QuadComplex":
        # Only scalar denominators occur here (norms are +-1, r is an integer).
        if isinstance(other, (int, Fraction, QuadReal)):
            return QuadComplex(self.re / other, self.im / other)
        return NotImplemented

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __str__(self) -> str:
        return self.to_text(f"sqrt({self.delta})", "*i")

    def to_text(self, symbol: str, imaginary: str) -> str:
        """"re + (im)<imaginary>", each part written by format_surd."""
        re_text = format_surd(self.re.rat, self.re.irr, symbol)
        if not self.im:
            return re_text
        im_text = f"({format_surd(self.im.rat, self.im.irr, symbol)}){imaginary}"
        return f"{re_text} + {im_text}" if self.re else im_text


# -- text syntax ---------------------------------------------------------------
#
# A value is "a/b + c/d*SYMBOL": each term is a rational, or SYMBOL after an
# optional coefficient "c/d*" or "c/d" (none means 1), e.g. "-1/2 + 1/2*u",
# "u", "3", "1 - u", "2/3*sqrtD".  Spaces are ignored, every term after the
# first starts with its sign, and repeated terms add up.  A rational is
# [+-]?[0-9]+(/[0-9]+)? with a nonzero denominator.  SYMBOL is "u" for field
# elements and "sqrtD" for the parts of a parameter file's t; the formatter
# also writes "sqrt(delta)".

_TERM_RE = re.compile(r"[+-]?[^+-]+")
_RATIONAL_RE = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


class ValueTooLargeError(ValueError):
    """A number has more digits than the interpreter converts to text."""


def parse_rational(text: str) -> Rational:
    text = text.strip(" ")
    if not _RATIONAL_RE.fullmatch(text):
        raise ValueError(f"bad rational: {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator: {text!r}") from None


def parse_surd(text: str, symbol: str) -> tuple[Fraction, Fraction]:
    """Parse "a/b + c/d*SYMBOL" into (rational part, coefficient of SYMBOL)."""
    compact = text.replace(" ", "")
    terms = _TERM_RE.findall(compact)
    if not terms or "".join(terms) != compact:
        raise ValueError(f"bad value: {text!r}")
    rat = coeff = Fraction(0)
    for term in terms:
        sign = -1 if term[0] == "-" else 1
        body = term.lstrip("+-")
        if body == symbol:
            coeff += sign
        elif body.endswith(symbol):
            coeff += sign * parse_rational(body[: -len(symbol)].removesuffix("*"))
        else:
            rat += sign * parse_rational(body)
    return rat, coeff


def format_surd(rat: Fraction, coeff: Fraction, symbol: str) -> str:
    """Write rat + coeff*SYMBOL in the syntax parse_surd reads."""
    try:
        rat_text, coeff_text = str(rat), str(abs(coeff))
    except ValueError as exc:  # past the interpreter's int -> str digit limit
        parts = (*rat.as_integer_ratio(), *coeff.as_integer_ratio())
        digits = int(max(abs(n).bit_length() for n in parts) * 0.30103)  # log10(2)
        raise ValueTooLargeError(f"a number of about {digits} decimal digits") from exc
    if coeff == 0:
        return rat_text
    part = symbol if abs(coeff) == 1 else f"{coeff_text}*{symbol}"
    if rat == 0:
        return part if coeff > 0 else f"-{part}"
    return f"{rat_text} {'-' if coeff < 0 else '+'} {part}"
