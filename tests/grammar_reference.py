"""The value parsers and formatters that `exactnum.parse_surd` and
`exactnum.format_surd` replaced, kept as the differential reference for
`tests/test_grammar.py`.

The bodies are unchanged; only the imports were added, and the method
`QuadComplex.__str__` became the function `quad_complex_str`.  `QuadComplex`,
and the `QuadReal` with the zero and the order these bodies call, are the
ones `tests/field_reference.py` keeps since the package dropped them.  The last
section holds `exactnum.format_surd` as it was on Fractions, before it became
an adapter over the integer formatter `exactnum.format_quad` (that adapter
now lives in `tests/conftest.py`).  The field-element
parser and the CLI's surd parser each had their own `_TERM_RE`; the two
regexes were identical, so one definition serves both here, and also the
`exactnum.parse_surd` of the last section.

That last section holds `exactnum.parse_surd` as it was on Fractions, before
it returned the reduced integer triple (p, q, den), with the
`exactnum.parse_rational` it called, renamed `parse_rational_fraction` here so
that the reference runs none of the code it checks.
"""

from __future__ import annotations

import re
from fractions import Fraction

from field_reference import OrderedQuadReal as QuadReal
from field_reference import QuadComplex
from inoueaut.cli import ParamFileError
from inoueaut.exactnum import ValueTooLargeError, _decimal_digits
from inoueaut.quadfield import FieldDescriptor, FieldElement


# -- quadfield.py ------------------------------------------------------------

_TERM_RE = re.compile(r"[+-]?[^+-]+")
_RAT_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


def parse_rational(text: str) -> Fraction:
    text = text.strip()
    if not _RAT_RE.match(text):
        raise ValueError(f"bad rational: {text!r}")
    return Fraction(text)


def parse_field_element(text: str, field: FieldDescriptor) -> FieldElement:
    compact = text.replace(" ", "")
    if not compact:
        raise ValueError("empty field element")
    terms = _TERM_RE.findall(compact)
    if "".join(terms) != compact:
        raise ValueError(f"bad field element: {text!r}")
    a = Fraction(0)
    b = Fraction(0)
    for term in terms:
        sign = Fraction(1)
        body = term
        if body[0] in "+-":
            if body[0] == "-":
                sign = Fraction(-1)
            body = body[1:]
        if body.endswith("u"):
            coeff = body[:-1].rstrip("*")
            b += sign * (Fraction(coeff) if coeff else Fraction(1))
        elif _RAT_RE.match(body):
            a += sign * Fraction(body)
        else:
            raise ValueError(f"bad term {term!r} in field element {text!r}")
    return FieldElement(a, b, field)


def format_field_element(x: FieldElement) -> str:
    if x.b == 0:
        return str(x.a)
    if x.b == 1:
        u_part = "u"
    elif x.b == -1:
        u_part = "-u"
    else:
        u_part = f"{x.b}*u"
    if x.a == 0:
        return u_part
    joiner = "-" if x.b < 0 else "+"
    return f"{x.a} {joiner} {u_part.lstrip('-')}"


# -- exactnum.py -------------------------------------------------------------


def _format_surd(rat: Fraction, coeff: Fraction, radicand: int) -> str:
    if coeff == 0:
        return str(rat)
    root = f"sqrt({radicand})"
    if coeff == 1:
        irr_part = root
    elif coeff == -1:
        irr_part = f"-{root}"
    else:
        irr_part = f"{coeff}*{root}"
    if rat == 0:
        return irr_part
    joiner = "-" if coeff < 0 else "+"
    return f"{rat} {joiner} {irr_part.lstrip('-')}"


# -- cli.py ------------------------------------------------------------------

_COMPLEX_RE = re.compile(r"^(?P<re>[^()]*?)(?:\+?\((?P<im>[^()]+)\)i)?$")


def _parse_surd(text: str, delta: int, where: str) -> QuadReal:
    """Parse "p/q + r/s*sqrtD" (either term omissible, empty means 0)."""
    compact = text.replace(" ", "")
    if not compact:
        return QuadReal.zero(delta)
    terms = _TERM_RE.findall(compact)
    if "".join(terms) != compact:
        raise ParamFileError(f"{where}: bad value {text!r}")
    rat = Fraction(0)
    irr = Fraction(0)
    for term in terms:
        sign = Fraction(1)
        body = term
        if body[0] in "+-":
            if body[0] == "-":
                sign = -sign
            body = body[1:]
        try:
            if body.endswith("sqrtD"):
                coeff = body[:-5].rstrip("*")
                irr += sign * (Fraction(coeff) if coeff else Fraction(1))
            else:
                rat += sign * Fraction(body)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParamFileError(f"{where}: bad term {term!r}") from exc
    return QuadReal(rat, irr, delta)


def parse_quad_complex(text: str, delta: int, where: str = "t") -> QuadComplex:
    compact = text.replace(" ", "")
    match = _COMPLEX_RE.match(compact)
    if match is None:
        raise ParamFileError(f"{where}: bad complex value {text!r}")
    re_part = _parse_surd(match.group("re") or "", delta, where)
    im_text = match.group("im")
    if im_text is None:
        return QuadComplex.from_real(re_part)
    return QuadComplex(re_part, _parse_surd(im_text, delta, where))


def format_surd_param(value: QuadReal) -> str:
    if value.irr == 0:
        return str(value.rat)
    if value.irr == 1:
        irr = "sqrtD"
    elif value.irr == -1:
        irr = "-sqrtD"
    else:
        irr = f"{value.irr}*sqrtD"
    if value.rat == 0:
        return irr
    joiner = "-" if value.irr < 0 else "+"
    return f"{value.rat} {joiner} {irr.lstrip('-')}"


def format_quad_complex(value: QuadComplex) -> str:
    if not value.im:
        return format_surd_param(value.re)
    im = f"({format_surd_param(value.im)})i"
    if not value.re:
        return im
    return f"{format_surd_param(value.re)} + {im}"


# -- exactnum.py: QuadComplex.__str__ -----------------------------------------
#
# The method's str(self.re) and str(self.im) called QuadReal.__str__, which was
# `_format_surd` at the value's delta; they are spelled out as that call here.


def _quad_real_str(value: QuadReal) -> str:
    return _format_surd(value.rat, value.irr, value.delta)


def quad_complex_str(self: QuadComplex) -> str:
    if not self.im:
        return _quad_real_str(self.re)
    if not self.re:
        return f"({_quad_real_str(self.im)})*i"
    return f"{_quad_real_str(self.re)} + ({_quad_real_str(self.im)})*i"


# -- exactnum.format_surd on Fractions -------------------------------------


def format_surd(rat: Fraction, coeff: Fraction, symbol: str) -> str:
    """Write rat + coeff*SYMBOL in the syntax parse_surd reads."""
    try:
        rat_text, coeff_text = str(rat), str(abs(coeff))
    except ValueError as exc:  # past the interpreter's int -> str digit limit
        parts = (*rat.as_integer_ratio(), *coeff.as_integer_ratio())
        digits = max(_decimal_digits(n) for n in parts)
        raise ValueTooLargeError(
            f"value too large to print: a number of about {digits} decimal digits"
        ) from exc
    if coeff == 0:
        return rat_text
    part = symbol if abs(coeff) == 1 else f"{coeff_text}*{symbol}"
    if rat == 0:
        return part if coeff > 0 else f"-{part}"
    return f"{rat_text} {'-' if coeff < 0 else '+'} {part}"


# -- exactnum.parse_surd on Fractions ------------------------------------------

_RATIONAL_RE = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def parse_rational_fraction(text: str) -> Fraction:
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
            coeff += sign * parse_rational_fraction(
                body[: -len(symbol)].removesuffix("*")
            )
        else:
            rat += sign * parse_rational_fraction(body)
    return rat, coeff
