"""One value grammar and one formatter, against the parsers and formatters
they replaced (`tests/grammar_reference.py`).

On documented-grammar strings the new parsers give the reference's values; on
arbitrary text they accept nothing the reference rejects, and every string the
reference accepted but the new parsers reject falls in one of the classes in
NEWLY_REJECTED.  `parse_surd`, which returns the reduced integer triple
(p, q, den), is held to the Fraction parser it replaced exactly: the same
values and the same error messages, past the int -> str digit limit too.
The integer grammar of theta and r is held to `int()`, which read them
before, in the same way.  The formatters are byte-identical on
arbitrary Fraction pairs, and the integer formatter under them on arbitrary
integer triples, past the int -> str digit limit too.
"""

import re
import sys
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import grammar_reference as ref
from conftest import format_surd
from inoueaut.cli import ParamFileError, format_quad_complex, parse_quad_complex
from inoueaut.exactnum import (
    QuadComplex,
    QuadReal,
    ValueTooLargeError,
    format_quad,
    parse_integer,
    parse_rational,
    parse_surd,
    square_decompose,
)
from inoueaut.quadfield import (
    FieldDescriptor,
    FieldElement,
    parse_field_element,
)

F6 = FieldDescriptor(6, 1)
DELTA = F6.delta
# The interpreter's int -> str digit limit, or 0 where there is none.
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()

# Text the reference parsers let through `fractions.Fraction`'s looser syntax
# and the grammar rejects, one predicate per class, on the text as written.
NEWLY_REJECTED = {
    "decimal point": lambda s: "." in s,
    "exponent": lambda s: "e" in s or "E" in s,
    "underscore": lambda s: "_" in s,
    "non-ASCII digit": lambda s: any(c.isdecimal() and not c.isascii() for c in s),
    "whitespace other than a space": lambda s: any(c.isspace() and c != " " for c in s),
    "bare '*' before the symbol": lambda s: bool(
        re.search(r"(^|[+\-(])\*+(u|sqrtD)", s.replace(" ", ""))
    ),
    "repeated '*'": lambda s: "**" in s.replace(" ", ""),
    "no '+' between the parts of t": lambda s: bool(
        re.search(r"[^+(]\(", s.replace(" ", ""))
    ),
}


def newly_rejected_classes(text: str) -> list[str]:
    return [name for name, test in NEWLY_REJECTED.items() if test(text)]


# -- strategies ----------------------------------------------------------------

NUMERAL = st.builds("{}{}".format, st.sampled_from(["", "0"]), st.integers(0, 10**12))
DENOMINATOR = NUMERAL.filter(lambda d: int(d) != 0)
RATIONAL = st.one_of(NUMERAL, st.tuples(NUMERAL, DENOMINATOR).map("/".join))
SPACES = st.sampled_from(["", " ", "  "])


@st.composite
def documented_value(draw, symbol):
    """Terms "a/b", "SYMBOL" or "a/b*SYMBOL" / "a/bSYMBOL", signed, spaced."""
    pieces = []
    for k in range(draw(st.integers(1, 4))):
        sign = draw(st.sampled_from(["+", "-"] if k else ["", "+", "-"]))
        kind = draw(st.sampled_from(["rational", "symbol", "product"]))
        if kind == "rational":
            body = draw(RATIONAL)
        elif kind == "symbol":
            body = symbol
        else:
            body = draw(RATIONAL) + draw(st.sampled_from(["*", ""])) + symbol
        pieces.append(draw(SPACES) + sign + draw(SPACES) + body)
    return "".join(pieces)


@st.composite
def documented_complex(draw):
    re_text = draw(documented_value("sqrtD"))
    im_text = draw(documented_value("sqrtD"))
    layout = draw(st.sampled_from(["re", "im", "both"]))
    if layout == "re":
        return re_text
    if layout == "im":
        return f"({im_text})i"
    return f"{re_text} + ({im_text})i"


LOOSE_ALPHABET = "0123456789/+-* u sqrtD()i" + ".eE_\t\xa0\n١３"
LOOSE_TEXT = st.one_of(
    st.text(alphabet=LOOSE_ALPHABET, max_size=16),
    st.text(max_size=8),
    documented_value("u"),
    documented_value("sqrtD"),
)

FRACTION = st.one_of(
    st.sampled_from([0, 1, -1]).map(Fraction),
    st.fractions(),
    st.fractions(max_denominator=10**40),
)
DELTAS = st.sampled_from([5, 8, 12, 13, 32, 45, 77])


def surd_reference(text, symbol):
    """The Fraction parse_surd's pair (rat, coeff) as the reduced triple
    (p, q, den) of (p + q*SYMBOL)/den: over the lcm of the two reduced
    denominators it is reduced."""
    rat, coeff = ref.parse_surd(text, symbol)
    den = lcm(rat.denominator, coeff.denominator)
    return (
        rat.numerator * (den // rat.denominator),
        coeff.numerator * (den // coeff.denominator),
        den,
    )


def reference_value(parse, *args):
    """The reference's value, or None where it raises (any exception)."""
    try:
        return parse(*args)
    except Exception:  # the reference also lets ZeroDivisionError out
        return None


# -- parsers -------------------------------------------------------------------


# (new parser, reference parser, extra arguments, the new parser's error)
PARSERS = [
    (parse_field_element, ref.parse_field_element, (F6,), ValueError),
    (parse_quad_complex, ref.parse_quad_complex, (DELTA,), ParamFileError),
    (parse_rational, ref.parse_rational, (), ValueError),
    (parse_integer, int, (), ValueError),
    (parse_surd, surd_reference, ("sqrtD",), ValueError),
]
SIGNED = st.tuples(st.sampled_from(["", "+", "-"]), NUMERAL).map("".join)


@settings(max_examples=200, deadline=None)
@given(
    documented_value("u"),
    documented_complex(),
    st.tuples(st.sampled_from(["", "+", "-"]), RATIONAL).map("".join),
    st.tuples(SPACES, SIGNED, SPACES).map("".join),
    documented_value("sqrtD"),
)
def test_parsers_match_reference_on_the_grammar(
    field_text, t_text, rational, integer, surd_text
):
    texts = (field_text, t_text, rational, integer, surd_text)
    assert len(texts) == len(PARSERS)
    for (parse, parse_reference, args, _), text in zip(PARSERS, texts):
        assert parse(text, *args) == parse_reference(text, *args)


@settings(max_examples=500, deadline=None)
@given(LOOSE_TEXT)
def test_parsers_only_drop_listed_classes(text):
    for parse, parse_reference, args, error in PARSERS:
        old = reference_value(parse_reference, text, *args)
        try:
            new = parse(text, *args)
        except error:
            assert old is None or newly_rejected_classes(text), (parse, text)
        else:
            assert new == old, (parse, text)


def test_each_listed_class_was_accepted_and_is_now_rejected():
    examples = {
        "decimal point": ("0.5*u", "1.5*sqrtD"),
        "exponent": ("1e3*u", "1E2"),
        "underscore": ("1_000*u", "1_0*sqrtD"),
        "non-ASCII digit": ("١/2", "３"),
        "whitespace other than a space": ("1 +\t3*u", "1\t"),
        "bare '*' before the symbol": ("1 - *u", "*sqrtD"),
        "repeated '*'": ("2**u", "(2**sqrtD)i"),
        "no '+' between the parts of t": (None, "1(2)i"),
    }
    assert set(examples) == set(NEWLY_REJECTED)
    for name, (field_text, t_text) in examples.items():
        assert newly_rejected_classes(t_text)
        assert ref.parse_quad_complex(t_text, DELTA) is not None, name
        with pytest.raises(ParamFileError):
            parse_quad_complex(t_text, DELTA)
        if field_text is None:  # the class only exists in t's layout
            continue
        assert newly_rejected_classes(field_text)
        assert ref.parse_field_element(field_text, F6) is not None, name
        with pytest.raises(ValueError):
            parse_field_element(field_text, F6)


@pytest.mark.parametrize("text", ["1/0", "u - 1/0", "1/00*u", "-3/0u"])
def test_zero_denominator_is_a_value_error(text):
    with pytest.raises(ZeroDivisionError):
        ref.parse_field_element(text, F6)
    with pytest.raises(ValueError):
        parse_field_element(text, F6)
    with pytest.raises(ParamFileError):
        parse_quad_complex(text.replace("u", "sqrtD"), DELTA)


def test_parse_surd_reads_each_symbol():
    assert parse_surd("-1/2 + 1/2*u", "u") == (-1, 1, 2)
    assert parse_surd("2sqrtD - sqrtD + 3", "sqrtD") == (3, 1, 1)
    for bad in ["", "sqrtD", "1 +", "u u", "+-1"]:
        with pytest.raises(ValueError):
            parse_surd(bad, "u")


@st.composite
def value_with_long_numeral(draw, symbol):
    """A value with one numeral at or past the digit limit, as a numerator
    or a denominator, between terms that may be bad themselves."""
    numeral = draw(st.sampled_from("170")) + "0" * (
        (DIGIT_LIMIT or 50) + draw(st.integers(-1, 2))
    )
    layout = draw(st.sampled_from(["{}", "{}/3", "3/{}", "{}*S", "1/{}S", "{}/0", "0/{}"]))
    term = layout.format(numeral).replace("S", symbol)
    head = draw(st.sampled_from(["", "-", "1/0 + ", "2**S - ", "S + "]))
    if draw(st.booleans()):
        head = draw(documented_value(symbol)) + " - "
    tail = draw(st.sampled_from(["", " + 1/0", " - x", " +", " - S"]))
    return (head + term + tail).replace("S", symbol)


def surd_outcome(parse, text, symbol):
    try:
        return "value", parse(text, symbol)
    except ValueError as exc:
        return "error", str(exc)


@settings(max_examples=500, deadline=None)
@given(st.data())
def test_parse_surd_same_values_and_messages_as_fraction_reference(data):
    symbol = data.draw(st.sampled_from(["u", "sqrtD"]))
    text = data.draw(st.one_of(LOOSE_TEXT, value_with_long_numeral(symbol)))
    assert surd_outcome(parse_surd, text, symbol) == surd_outcome(
        surd_reference, text, symbol
    )


# -- formatters ----------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(FRACTION, FRACTION, FRACTION, FRACTION, DELTAS)
def test_formatters_byte_identical_to_reference(rat, coeff, im_rat, im_coeff, delta):
    x = FieldElement(rat, coeff, F6)
    assert str(x) == ref.format_field_element(x)
    assert parse_surd(format_surd(rat, coeff, "u"), "u") == x.as_integer_triple()
    value = QuadReal(rat, coeff, delta)
    assert str(value) == ref._format_surd(rat, coeff, delta)
    s, m = square_decompose(delta)
    assert value.reduced_str() == ref._format_surd(rat, coeff * s, m)
    assert format_surd(rat, coeff, "sqrtD") == ref.format_surd_param(value)
    im, zero = QuadReal(im_rat, im_coeff, delta), QuadReal.zero(delta)
    for t in (QuadComplex(value, im), QuadComplex(zero, im), QuadComplex(value, zero)):
        assert format_quad_complex(t) == ref.format_quad_complex(t)
        assert str(t) == ref.quad_complex_str(t)
        assert parse_quad_complex(format_quad_complex(t), delta) == t


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="this interpreter converts integers of any size to text",
)
def test_value_too_large_to_print():
    huge = Fraction(10 ** (sys.get_int_max_str_digits() + 10), 3)
    for rat, coeff in [(huge, 0), (1, huge), (0, 1 / huge)]:
        with pytest.raises(ValueTooLargeError, match="decimal digits"):
            format_surd(Fraction(rat), Fraction(coeff), "u")
    with pytest.raises(ValueTooLargeError):
        str(QuadComplex.from_real(QuadReal(0, huge, 5)))


# Past the interpreter's int -> str digit limit, where there is one.
INTEGER = st.one_of(
    st.sampled_from([0, 1, -1]),
    st.integers(-(10**6), 10**6),
    st.integers(-(10**60), 10**60),
)
HUGE = st.builds(
    lambda k, sign, extra: sign * (10 ** (DIGIT_LIMIT + extra) + k),
    st.integers(0, 10**6),
    st.sampled_from([1, -1]),
    st.integers(0, 20),
)
TRIPLE_PART = st.one_of(INTEGER, HUGE) if DIGIT_LIMIT else INTEGER


def outcome(fn, *args):
    try:
        return "value", fn(*args)
    except ValueTooLargeError as exc:
        return "too large", str(exc)


@settings(max_examples=400, deadline=None)
@given(
    TRIPLE_PART,
    TRIPLE_PART,
    st.one_of(st.integers(1, 10**6), TRIPLE_PART.map(lambda n: abs(n) + 1)),
    st.sampled_from(["u", "sqrtD", "sqrt(12)"]),
)
def test_integer_formatter_matches_fraction_reference(p, q, den, symbol):
    # the integer formatter on any triple, reduced or not, writes what the
    # Fraction formatter wrote for its parts, or refuses with the same message
    expected = outcome(ref.format_surd, Fraction(p, den), Fraction(q, den), symbol)
    assert outcome(format_quad, p, q, den, symbol) == expected
    assert outcome(format_surd, Fraction(p, den), Fraction(q, den), symbol) == expected
    assert outcome(format_quad, 7 * p, 7 * q, 7 * den, symbol) == expected


@pytest.mark.skipif(not DIGIT_LIMIT, reason="no int -> str digit limit")
def test_integer_formatter_refuses_past_the_digit_limit():
    huge = 10 ** (DIGIT_LIMIT + 10)
    for p, q, den in [(huge, 0, 3), (1, huge, 3), (0, 3, huge), (huge, huge, huge + 1)]:
        assert outcome(format_quad, p, q, den, "u")[0] == "too large"
        assert outcome(format_quad, p, q, den, "u") == outcome(
            ref.format_surd, Fraction(p, den), Fraction(q, den), "u"
        )
