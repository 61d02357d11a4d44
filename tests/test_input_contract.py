"""Every parameter file ends in a documented exit code (0/2/3/4/5), never a
traceback: malformed values, numerals past the int -> str digit limit and
non-UTF-8 bytes exit 2, values too large to print exit 3, and fuzzed files
and values only ever give those codes."""

import codecs
import contextlib
import errno
import io
import os
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from inoueaut import components
from inoueaut.cli import main

VALID = {
    "surface_type": "+",
    "theta": "6",
    "r": "6",
    "x1": "1",
    "x2": "-1/2 + 1/2*u",
    "e": "0",
    "t": "0",
}
EXIT_CODES = {0, 2, 3, 4, 5}


def param_text(**values: str) -> str:
    return "".join(f"{key} = {value}\n" for key, value in {**VALID, **values}.items())


def run(path, *flags: str) -> tuple[int, str, str]:
    return run_command("analyze", path, *flags)


def run_command(command: str, path, *flags: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main([command, *flags, str(path)])
    return rc, out.getvalue(), err.getvalue()


# The minus_theta4_r2 golden, whose t is 0.
MINUS = {"surface_type": "-", "theta": "4", "r": "2"}


@pytest.mark.parametrize(
    "t",
    ["1/2", "-2*sqrtD", "(1/3)i", "1 + sqrtD + (1/3 - sqrtD)i"],
    ids=["real", "surd", "imaginary", "complex"],
)
def test_minus_family_nonzero_t_exits_3(tmp_path, t):
    path = tmp_path / "minus.params"
    path.write_text(param_text(**MINUS, t=t), encoding="utf-8")
    rc, out, err = run(path, "--no-oracle")
    assert (rc, out) == (3, "")
    assert "t must be 0 for the minus family" in err


def test_minus_family_zero_t_written_out_is_accepted(tmp_path):
    reports = []
    for t in ("0", "0 + (0*sqrtD)i", "sqrtD - sqrtD + (0/5)i"):
        path = tmp_path / "minus.params"
        path.write_text(param_text(**MINUS, t=t), encoding="utf-8")
        rc, out, err = run(path, "--no-oracle")
        assert (rc, err) == (0, "")
        reports.append(out)
    assert reports[0] == reports[1] == reports[2]


ZERO_DENOMINATORS = [
    (key, value)
    for key in ("x1", "x2", "e")
    for value in ("1/0", "u + 1/0", "3/00*u")
] + [("t", value) for value in ("1/0", "sqrtD + 1/0", "3/00*sqrtD", "(1/0)i")]


@pytest.mark.parametrize("key, value", ZERO_DENOMINATORS)
def test_zero_denominator_exits_2(tmp_path, key, value):
    path = tmp_path / "zero.params"
    path.write_text(param_text(**{key: value}), encoding="utf-8")
    rc, out, err = run(path)
    assert (rc, out) == (2, "")
    assert f"{path}:{list(VALID).index(key) + 1}: zero denominator" in err


@pytest.mark.parametrize(
    "key, value",
    [("theta", "６"), ("theta", "\u0666"), ("r", "6_0"), ("r", "1e1"), ("t", "1(2)i")],
)
def test_integer_and_complex_grammar_exit_2(tmp_path, key, value):
    path = tmp_path / "loose.params"
    path.write_text(param_text(**{key: value}), encoding="utf-8")
    rc, out, err = run(path, "--no-oracle")
    assert (rc, out) == (2, "") and "parse error" in err


def test_signed_theta_keeps_its_sign(tmp_path):
    path = tmp_path / "signed.params"
    path.write_text(param_text(theta="-6"), encoding="utf-8")
    assert run(path, "--no-oracle")[0] == 3
    path.write_text(param_text(theta="+6", r=" +6"), encoding="utf-8")
    assert run(path, "--no-oracle")[0] == 0


@pytest.mark.parametrize("theta", ["６", "6_0", " 6\t"])
def test_fundamental_unit_theta_grammar_exits_2(theta):
    with pytest.raises(SystemExit) as exc, contextlib.redirect_stderr(io.StringIO()):
        main(["fundamental-unit", theta, "+"])
    assert exc.value.code == 2


@pytest.mark.parametrize("head", [b"", codecs.BOM_UTF8], ids=["plain", "bom"])
def test_non_utf8_file_exits_2(tmp_path, head):
    path = tmp_path / "latin.params"
    data = head + param_text().encode() + b"# caf\x80\n"
    path.write_bytes(data)
    rc, out, err = run(path)
    assert (rc, out) == (2, "")
    # the position is the byte's offset in the file, a leading BOM counted
    position = data.index(b"\x80")
    assert err == (
        f"parse error: {path}: 'utf-8' codec can't decode byte 0x80 in "
        f"position {position}: invalid start byte\n"
    )


@pytest.mark.parametrize("command", ["analyze", "bound", "check-standard-form"])
def test_leading_byte_order_mark_is_skipped(tmp_path, command):
    plain, marked = tmp_path / "plain.params", tmp_path / "marked.params"
    plain.write_text(param_text(), encoding="utf-8")
    marked.write_text(param_text(), encoding="utf-8-sig")
    assert marked.read_bytes().startswith(codecs.BOM_UTF8)
    expected = run_command(command, plain)
    assert expected[0] == 0
    assert run_command(command, marked) == expected
    # only one leading mark is a byte-order mark
    marked.write_text("\ufeff" + param_text(), encoding="utf-8-sig")
    rc, out, err = run_command(command, marked)
    assert (rc, out) == (2, "")
    assert err == f"parse error: {marked}:1: unknown key '\\ufeffsurface_type'\n"


@pytest.mark.parametrize(
    "name, number",
    [("missing.params", errno.ENOENT), ("", errno.EISDIR)],
    ids=["missing", "directory"],
)
def test_unreadable_file_exits_2_with_the_os_message(tmp_path, name, number):
    path = tmp_path / name  # name "" leaves the directory itself
    rc, out, err = run(path)
    assert (rc, out) == (2, "")
    assert err == (
        f"parse error: {path}: [Errno {number}] {os.strerror(number)}: '{path}'\n"
    )


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="this interpreter converts integers of any size to text",
)
def test_value_too_large_to_print_exits_3(tmp_path):
    # c_i ~ Norm(x_i)/2 has about 6000 digits; the inputs have about 3000
    x1 = 10**3000
    path = tmp_path / "big.params"
    path.write_text(
        param_text(x1=str(x1), x2=f"-{x1 // 2} + {x1 // 2}*u"), encoding="utf-8"
    )
    rc, out, err = run(path, "--no-oracle", "--machine")
    assert (rc, out) == (3, "")
    assert "value too large to print" in err
    # the text report prints no c_i and still succeeds
    rc, out, err = run(path, "--no-oracle")
    assert rc == 0 and f"x1 = {x1}" in out
    # a 4201-digit r and a 101-digit shift: the Inoue q has about 4500 digits,
    # in the text report as well as in --machine
    path.write_text(
        param_text(theta="4", r=str(10**4200), x1="1", x2=f"{10**100} + u"),
        encoding="utf-8",
    )
    for flags in ((), ("--machine",)):
        rc, out, err = run(path, *flags)
        assert (rc, out) == (3, ""), flags
        assert err.startswith("value too large to print: a number of about "), flags


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="this interpreter converts integers of any size to text",
)
def test_value_too_large_to_print_is_refused_before_the_oracle(tmp_path, monkeypatch):
    # N, p and q are computed before the oracle check, so a report that
    # cannot print one of them exits 3 without running it (|H| = 9998 here)
    def check(*args, **kwargs):
        raise AssertionError("the oracle ran for a report it cannot print")

    monkeypatch.setattr(components, "oracle_crosscheck", check)
    path = tmp_path / "big.params"
    path.write_text(
        param_text(theta="10000", r=str(10**4200), x1="1", x2=f"{10**100} + u"),
        encoding="utf-8",
    )
    for flags in ((), ("--machine",), ("--double-r",)):
        rc, out, err = run(path, *flags)
        assert (rc, out) == (3, ""), flags
        assert err.startswith("value too large to print: a number of about "), flags


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="this interpreter converts integers of any size to text",
)
def test_machine_inoue_values_are_refused_before_the_oracle(tmp_path, monkeypatch):
    # c_i ~ Norm(x_i)/2 has about 4400 digits; --machine writes the c_i, so it
    # exits 3 before the first oracle call.  The text report writes none of
    # them, runs the oracle and succeeds.
    calls = []
    oracle = components.normalizer_oracle

    def counted(*args):
        calls.append(args)
        return oracle(*args)

    monkeypatch.setattr(components, "normalizer_oracle", counted)
    x = 10**2200
    path = tmp_path / "big.params"
    path.write_text(
        param_text(theta="2000", r="2", x1=str(x), x2=f"{x}*u"), encoding="utf-8"
    )
    rc, out, err = run(path, "--machine")
    assert (rc, out, len(calls)) == (3, "", 0)
    assert err.startswith("value too large to print: a number of about ")
    rc, out, err = run(path)
    assert rc == 0 and f"x1 = {x}" in out and calls


@pytest.mark.parametrize("newline", ["\r\n", "\r"])
def test_other_line_endings_read_as_newlines(tmp_path, newline):
    path = tmp_path / "lines.params"
    path.write_text(param_text(), encoding="utf-8")
    expected = run(path, "--no-oracle")
    assert expected[0] == 0
    path.write_bytes(param_text().replace("\n", newline).encode())
    assert run(path, "--no-oracle") == expected
    path.write_bytes(param_text(x1="1/0").replace("\n", newline).encode())
    assert run(path) == (2, "", f"parse error: {path}:4: zero denominator: '1/0'\n")


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="this interpreter converts integers of any size to text",
)
@pytest.mark.parametrize(
    "key, layout",
    [
        ("x1", "{}"),
        ("x1", "1/{}"),
        ("x1", "2 - {}*u"),
        ("t", "{}"),
        ("t", "1 + ({}/7*sqrtD)i"),
        ("theta", "{}"),
    ],
)
def test_numeral_past_the_digit_limit_exits_2(tmp_path, key, layout):
    numeral = "1" + "0" * sys.get_int_max_str_digits()
    path = tmp_path / "long.params"
    path.write_text(param_text(**{key: layout.format(numeral)}), encoding="utf-8")
    rc, out, err = run(path, "--no-oracle")
    assert (rc, out) == (2, "") and "parse error" in err


# -- fuzzing --------------------------------------------------------------------

VALID_BYTES = param_text().encode()
MUTATED_FILE = st.lists(
    st.tuples(st.integers(0, len(VALID_BYTES) - 1), st.integers(0, 255)),
    max_size=3,
).map(lambda edits: bytes(dict(edits).get(k, b) for k, b in enumerate(VALID_BYTES)))
VALUE_TEXT = st.one_of(
    st.text(alphabet="0123456789/+-* usqrtD()i.eE_\t", max_size=20),
    st.text(max_size=12),
)
FUZZ = settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@FUZZ
@given(st.one_of(st.binary(max_size=200), MUTATED_FILE))
def test_fuzz_file_bytes(tmp_path, data):
    path = tmp_path / "fuzz.params"
    path.write_bytes(data)
    assert run(path, "--no-oracle")[0] in EXIT_CODES


@FUZZ
@given(st.sampled_from(["x1", "x2", "e", "t"]), VALUE_TEXT)
def test_fuzz_values(tmp_path, key, value):
    path = tmp_path / "fuzz.params"
    path.write_text(param_text(**{key: value}), encoding="utf-8")
    assert run(path, "--no-oracle")[0] in EXIT_CODES
