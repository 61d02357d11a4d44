"""Exact scalar arithmetic: one integer core for quadratic numbers, the real
quadratic irrationals p + q*sqrt(D) built on it, the exact sign of a surd,
and the value grammar with its parsers and formatters.

Every comparison and membership decision downstream reduces to operations in
this module; nothing here ever touches floating point except the optional
``__float__`` conversions used for diagnostic printing.
"""

from __future__ import annotations

import re
from collections.abc import Iterable
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import gcd, isqrt, lcm

Scalar = int | Fraction
# (p, q, den): the reduced (p + q*w)/den of QuadCore, den > 0
Triple = tuple[int, int, int]
# A complex t = Re t + i Im t as the triples of Re t and of Im t over
# w = sqrt(delta): the one form of t, from the parameter file to the report.
Complex = tuple[Triple, Triple]
ZERO_T: Complex = ((0, 0, 1), (0, 0, 1))


class InternalConsistencyError(RuntimeError):
    """A structural property failed that only an implementation bug can break."""


class _Record:
    """The field-wise repr and == of a dataclass, over the attributes that
    _fields names in constructor order; unhashable, as a mutable one is."""

    _fields: tuple[str, ...] = ()

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({args})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return [getattr(self, f) for f in self._fields] == [
            getattr(other, f) for f in self._fields
        ]


class _FrozenRecord(_Record):
    """A _Record hashed field-wise and read-only, as a frozen dataclass is;
    its constructor fills __dict__ directly."""

    def __hash__(self) -> int:
        return hash(tuple(getattr(self, f) for f in self._fields))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


def is_perfect_square(n: int) -> bool:
    if n < 0:
        return False
    r = isqrt(n)
    return r * r == n


# The largest trial divisor of square_decompose: a cofactor that still needs
# a larger one is at least its cube, 2**66.
SQUAREFREE_TRIAL_LIMIT = 1 << 22


@lru_cache(maxsize=1)
def square_decompose(n: int) -> tuple[int, int]:
    """Write n = s**2 * m with m squarefree; returns (s, m).

    Every delta = theta**2 - 4*c0 has one of two shapes, and each is
    decomposed by its own shortcut:
    - n + 4 = r**2, the plus family: n = (r - 2)(r + 2), and the gcd of the
      factors divides 4, so only 2 can lie in both squarefree parts.  Each
      factor is decomposed on its own, s = s1*s2 and m = m1*m2, with one
      factor 4 moved from m into s**2 when m1 and m2 are both even.
    - n - 4 = r**2, the minus family: every odd prime dividing r**2 + 4 is
      1 (mod 4), so the trial division tries 2 and then only the odd
      candidates 1 (mod 4).
    Any other n is trial-divided by 2 and every odd candidate.

    Trial division runs in cube-root time: each candidate p with
    p**3 <= rest, rest the cofactor left so far, is divided out completely,
    and its exponent e puts p**(e//2) into s and p into m when e is odd.
    Every prime factor of the final rest then exceeds its cube root, so
    rest is 1, a prime, a product of two distinct primes, or the square of
    a prime: it is a square exactly when isqrt(rest)**2 == rest, and
    squarefree otherwise.  Exact, with no primality test.

    The work is bounded: a candidate past SQUAREFREE_TRIAL_LIMIT raises
    ValueTooLargeError, whose message names the digits of n.  A number
    below 2**66 always decomposes, and so does a larger one whose cofactor
    drops below the limit cubed; for the plus family that holds of r - 2
    and r + 2 each.  The last result is kept, because one command
    decomposes the same delta several times (for the fundamental unit,
    then for each reduced_str).
    """
    if n <= 0:
        raise ValueError(f"expected a positive integer, got {n}")
    r = isqrt(n + 4)
    if r * r == n + 4:  # n >= 5, so r - 2 >= 1
        s1, m1 = _trial_decompose(r - 2, 2, n)
        s2, m2 = _trial_decompose(r + 2, 2, n)
        if m1 & 1 or m2 & 1:
            return s1 * s2, m1 * m2
        return 2 * s1 * s2, (m1 >> 1) * (m2 >> 1)
    return _trial_decompose(n, 4 if is_perfect_square(n - 4) else 2, n)


def _trial_decompose(n: int, step: int, delta: int) -> tuple[int, int]:
    """square_decompose(n) by cube-root trial division: 2, then the odd
    candidates from 3 by 2 (step 2) or from 5 by 4 (step 4, for n whose odd
    prime factors are all 1 (mod 4)).  A refusal names the digits of delta,
    the number being decomposed."""
    s, m, rest = 1, 1, n
    odd = range(3 if step == 2 else 5, SQUAREFREE_TRIAL_LIMIT + 1, step)
    for p in chain((2,), odd):
        if p * p * p > rest:
            break
        if rest % p == 0:
            e = 0
            while rest % p == 0:
                rest //= p
                e += 1
            s *= p ** (e // 2)
            if e & 1:
                m *= p
    else:  # SQUAREFREE_TRIAL_LIMIT + 1 is odd and 1 (mod 4): the next candidate
        if (SQUAREFREE_TRIAL_LIMIT + 1) ** 3 <= rest:
            raise ValueTooLargeError(
                f"value too large to factor: the squarefree part of a number "
                f"of about {_decimal_digits(delta)} decimal digits needs trial "
                f"division past {SQUAREFREE_TRIAL_LIMIT}"
            )
    root = isqrt(rest)
    if root * root == rest:
        return s * root, m
    return s, m * rest


class QuadCore:
    """(p + q*w)/den on integers, where w is a root of X^2 - T*X + C.

    The one arithmetic core under QuadReal (w = sqrt(delta)) and
    FieldElement (w = u).  Values are kept reduced: den > 0 and
    gcd(p, q, den) = 1, so the triple is canonical.  _ctx is the subclass's
    context (delta, or the field), from which its _law() gives (T, C); its
    _coerce(other) brings the operand into this value's context, or returns
    None for a foreign type.  Results are built by _raw/_reduced, which trust
    their input: Fraction coercion and validation happen only in the public
    constructors and in _coerce.
    """

    __slots__ = ("_p", "_q", "_den", "_ctx")

    def __init__(self, a: Scalar, b: Scalar, ctx) -> None:
        a, b = Fraction(a), Fraction(b)
        # over the lcm of two reduced denominators the triple is reduced
        den = lcm(a.denominator, b.denominator)
        self._p = a.numerator * (den // a.denominator)
        self._q = b.numerator * (den // b.denominator)
        self._den, self._ctx = den, ctx

    @classmethod
    def _raw(cls, p: int, q: int, den: int, ctx):
        self = object.__new__(cls)
        self._p, self._q, self._den, self._ctx = p, q, den, ctx
        return self

    @classmethod
    def _reduced(cls, p: int, q: int, den: int, ctx):
        g = gcd(p, q, den) if den > 0 else -gcd(p, q, den)
        return cls._raw(p // g, q // g, den // g, ctx)

    # read-only Fraction views, exposed by each subclass under its own names
    _rational = property(lambda self: Fraction(self._p, self._den))
    _coefficient = property(lambda self: Fraction(self._q, self._den))

    def _scalar(self, x: Scalar) -> "QuadCore":
        """The rational x in this value's family and context."""
        return self._raw(x.numerator, 0, x.denominator, self._ctx)

    def _plus(self, o: "QuadCore", sign: int) -> "QuadCore":
        return self._reduced(
            self._p * o._den + sign * o._p * self._den,
            self._q * o._den + sign * o._q * self._den,
            self._den * o._den,
            self._ctx,
        )

    def _times(self, o: "QuadCore") -> "QuadCore":
        t, c = self._law()
        qq = self._q * o._q
        return self._reduced(
            self._p * o._p - c * qq,
            self._p * o._q + self._q * o._p + t * qq,
            self._den * o._den,
            self._ctx,
        )

    def as_integer_triple(self) -> Triple:
        """(p, q, den) with self = (p + q*w)/den, den > 0, gcd(p, q, den) = 1."""
        return self._p, self._q, self._den

    def _norm_num(self) -> int:
        """den^2 * Norm(self) = p^2 + T*p*q + C*q^2."""
        t, c = self._law()
        p, q = self._p, self._q
        return p * p + t * p * q + c * q * q

    # -- ring/field structure ---------------------------------------------

    def __add__(self, other: object):
        o = self._coerce(other)
        return NotImplemented if o is None else self._plus(o, 1)

    __radd__ = __add__

    def __sub__(self, other: object):
        o = self._coerce(other)
        return NotImplemented if o is None else self._plus(o, -1)

    def __neg__(self):
        return self._raw(-self._p, -self._q, self._den, self._ctx)

    def __truediv__(self, other: object):
        o = self._coerce(other)
        return NotImplemented if o is None else self._times(o.inverse())

    def inverse(self):
        """1/x = den * conjugate(p + q*w) / Norm(p + q*w)."""
        nrm = self._norm_num()
        if nrm == 0:
            raise ZeroDivisionError("division by zero")
        t, _ = self._law()
        d = self._den
        return self._reduced(d * (self._p + t * self._q), -d * self._q, nrm, self._ctx)

    def __bool__(self) -> bool:
        return bool(self._p or self._q)

    def __repr__(self) -> str:
        parts = f"{self._rational!r}, {self._coefficient!r}, {self._ctx!r}"
        return f"{type(self).__name__}({parts})"


class QuadReal(QuadCore):
    """Exact real number rat + irr*sqrt(delta), delta a positive non-square.

    Two values interoperate only when their deltas agree (a mismatch raises);
    purely rational values compare equal across deltas.  Signs are taken on
    the integers, by surd_sign.
    """

    __slots__ = ()

    def __init__(self, rat: Scalar, irr: Scalar, delta: int) -> None:
        super().__init__(rat, irr, delta)
        if delta <= 0 or is_perfect_square(delta):
            raise ValueError(
                f"delta must be a positive non-square integer, got {delta}"
            )

    rat, irr = QuadCore._rational, QuadCore._coefficient

    @property
    def delta(self) -> int:
        return self._ctx

    def _law(self) -> tuple[int, int]:
        return 0, -self._ctx

    def _coerce(self, other: object) -> "QuadReal | None":
        if isinstance(other, (int, Fraction)):
            return self._scalar(other)
        if not isinstance(other, QuadReal):
            return None
        if other._ctx != self._ctx:
            raise ValueError(f"delta mismatch: {self._ctx} vs {other._ctx}")
        return other

    def __mul__(self, other: object) -> "QuadReal":
        o = self._coerce(other)
        return NotImplemented if o is None else self._times(o)

    __rmul__ = __mul__

    # -- comparisons --------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            return (
                not self._q
                and self._p == other.numerator
                and self._den == other.denominator
            )
        if isinstance(other, QuadReal):
            return (
                self._p == other._p
                and self._q == other._q
                and self._den == other._den
                and (not self._q or self._ctx == other._ctx)
            )
        return NotImplemented

    def __hash__(self) -> int:
        if not self._q:
            return hash(Fraction(self._p, self._den))
        return hash((self._p, self._q, self._den, self._ctx))

    # -- presentation -------------------------------------------------------

    def __float__(self) -> float:
        return float(self.rat) + float(self.irr) * self.delta ** 0.5

    def __str__(self) -> str:
        return format_quad(self._p, self._q, self._den, f"sqrt({self._ctx})")

    def reduced_str(self) -> str:
        """Like str(), but with the radicand reduced to its squarefree part."""
        s, m = square_decompose(self.delta)
        return format_quad(self._p, self._q * s, self._den, f"sqrt({m})")


def surd_sign(p: int, q: int, delta: int) -> int:
    """The sign of p + q*sqrt(delta), delta a positive non-square, in
    {-1, 0, +1}: the signs of p and q decide unless they differ, and then
    p*p against q*q*delta does."""
    if p * q >= 0:
        return (p > 0 or q > 0) - (p < 0 or q < 0)
    lhs, rhs = p * p, q * q * delta
    if lhs == rhs:  # would force sqrt(delta) rational
        raise InternalConsistencyError("non-square delta invariant violated")
    return (p > 0) - (p < 0) if lhs > rhs else (q > 0) - (q < 0)


# -- text syntax ---------------------------------------------------------------
#
# A value is "a/b + c/d*SYMBOL": each term is a rational, or SYMBOL after an
# optional coefficient "c/d*" or "c/d" (none means 1), e.g. "-1/2 + 1/2*u",
# "u", "3", "1 - u", "2/3*sqrtD".  Spaces are ignored, every term after the
# first starts with its sign, and repeated terms add up.  An integer is
# [+-]?[0-9]+ (also the grammar of theta and r), a rational an integer with an
# optional nonzero denominator "/[0-9]+".  SYMBOL is "u" for field elements and
# "sqrtD" for the parts of a parameter file's t; the formatter also writes
# "sqrt(delta)".

_TERM_RE = re.compile(r"[+-]?[^+-]+")
_INTEGER_RE = re.compile(r"[+-]?[0-9]+")


@lru_cache(maxsize=None)
def _surd_term_re(symbol: str) -> re.Pattern:
    """One term in SYMBOL: "[sign]rational", "[sign]rational[*]SYMBOL" or
    "[sign]SYMBOL".  Groups: sign, the rational's text, its numerator, its
    denominator, and the "[*]SYMBOL" after a rational."""
    sym = re.escape(symbol)
    return re.compile(rf"([+-]?)(?:(([0-9]+)(?:/([0-9]+))?)(\*?{sym})?|{sym})")


def _decimal_digits(n: int) -> int:
    """About how many decimal digits n has, without converting it to text."""
    return int(abs(n).bit_length() * 0.30103)  # log10(2)


class ValueTooLargeError(ValueError):
    """A number is too large for the work asked of it: it has more digits than
    the interpreter converts to text, or its squarefree part would need trial
    division past SQUAREFREE_TRIAL_LIMIT.  The CLI prints its message as is."""


def parse_integer(text: str) -> int:
    text = text.strip(" ")
    if not _INTEGER_RE.fullmatch(text):
        raise ValueError(f"bad integer: {text!r}")
    return int(text)


def _ratio(text: str, num: str, den: str | None) -> tuple[int, int]:
    """The integers of a matched rational's digit strings, numerator first
    (den None means 1); text is the rational as written, for the message.
    int() raises the interpreter's ValueError past its digit limit."""
    n = int(num)
    if den is None:
        return n, 1
    d = int(den)
    if not d:
        raise ValueError(f"zero denominator: {text!r}")
    return n, d


def parse_surd(text: str, symbol: str) -> tuple[int, int, int]:
    """Parse "a/b + c/d*SYMBOL" into the reduced triple (p, q, den) of
    (p + q*SYMBOL)/den: den > 0 and gcd(p, q, den) = 1."""
    compact = text.replace(" ", "")
    terms = _TERM_RE.findall(compact)
    if not terms or "".join(terms) != compact:
        raise ValueError(f"bad value: {text!r}")
    term_re = _surd_term_re(symbol)
    # rational part rn/rd and coefficient cn/cd, summed unreduced
    rn, rd, cn, cd = 0, 1, 0, 1
    for term in terms:
        match = term_re.fullmatch(term)
        if match is None:
            body = term.lstrip("+-")
            if body.endswith(symbol):
                body = body[: -len(symbol)].removesuffix("*")
            raise ValueError(f"bad rational: {body!r}")
        sign, rational, num, den, times = match.groups()
        n, d = (1, 1) if rational is None else _ratio(rational, num, den)
        if sign == "-":
            n = -n
        if rational is None or times:
            cn, cd = cn * d + n * cd, cd * d
        else:
            rn, rd = rn * d + n * rd, rd * d
    p, q, den = rn * cd, cn * rd, rd * cd
    g = gcd(p, q, den)
    return p // g, q // g, den // g


def format_quad(p: int, q: int, den: int, symbol: str) -> str:
    """Write (p + q*SYMBOL)/den, den > 0, in the syntax parse_surd reads:
    each part reduced on its own, "p/den + q/den*SYMBOL".  The triple need
    not be reduced."""
    return format_quads(((p, q),), den, symbol)[0]


def format_quads(
    pairs: Iterable[tuple[int, int]], den: int, symbol: str
) -> list[str]:
    """format_quad's text of (p + q*SYMBOL)/den for each pair (p, q), in one
    loop.  The one formatter of every surd and field element."""
    texts = []
    for p, q in pairs:
        g = gcd(p, den)
        rn, rd = p // g, den // g
        g = gcd(q, den)
        cn, cd = q // g, den // g
        try:
            rat_text = str(rn) if rd == 1 else f"{rn}/{rd}"
            coeff_text = str(abs(cn)) if cd == 1 else f"{abs(cn)}/{cd}"
        except ValueError as exc:  # past the interpreter's int -> str digit limit
            digits = max(_decimal_digits(n) for n in (rn, rd, cn, cd))
            raise ValueTooLargeError(
                f"value too large to print: a number of about {digits} decimal digits"
            ) from exc
        if not cn:
            texts.append(rat_text)
            continue
        part = symbol if cd == 1 and abs(cn) == 1 else f"{coeff_text}*{symbol}"
        if not rn:
            texts.append(part if cn > 0 else f"-{part}")
        else:
            texts.append(f"{rat_text} {'-' if cn < 0 else '+'} {part}")
    return texts


def format_complex(t: Complex, symbol: str, imaginary: str) -> str:
    """Write t = re + i*im, each part the triple (p, q, den) of
    (p + q*SYMBOL)/den, as "re + (im)IMAGINARY", a zero part left out
    ("0" when both are)."""
    (rp, rq, rd), (ip, iq, id_) = t
    re_text = format_quad(rp, rq, rd, symbol)
    if not (ip or iq):
        return re_text
    im_text = f"({format_quad(ip, iq, id_, symbol)}){imaginary}"
    return f"{re_text} + {im_text}" if rp or rq else im_text
