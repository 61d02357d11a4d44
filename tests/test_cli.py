"""CLI layer: commands, exit codes, file parsing, machine report round trip."""

import json
import os
import random
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

import cli_reference
import inoueaut.components as components
from conftest import (
    example_theta4_shifted,
    example_theta4_zero,
    example_theta6,
    example_theta7,
)
from inoueaut.cli import (
    BUILTIN_EXAMPLES,
    EXIT_STDOUT_CLOSED,
    ParamFileError,
    _element_texts,
    _parse_complex,
    load_param_file,
    main,
    parse_params,
)
from inoueaut.exactnum import format_complex, square_decompose
from inoueaut.quadfield import FieldDescriptor, parse_field_element
from inoueaut.units import unit_exponent
from test_classify import parameter_sets, random_subgroups

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).resolve().parent.parent / "src"

EX319 = """\
# worked example: theta = 6
surface_type = +
theta = 6
r = 6
x1 = 1
x2 = -1/2 + 1/2*u
e = 0
t = 0
"""

EX321 = """\
surface_type = +
theta = 4
r = 6
x1 = 1
x2 = u
e = 1/4 - 1/12*u
"""

EX323 = """\
surface_type = +
theta = 7
r = 10
x1 = 1
x2 = -2/3 + 1/3*u
e = 0
"""


def write(tmp_path, text, name="surface.params"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_analyze_example_theta6(tmp_path, capsys):
    rc = main(["analyze", write(tmp_path, EX319)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "Z/2 x Z/2" in out
    assert "order 4" in out
    assert "N = [[1, 2], [2, 5]]" in out


def test_analyze_trivial_group(tmp_path, capsys):
    text = EX321.replace("e = 1/4 - 1/12*u", "e = 0")
    rc = main(["analyze", write(tmp_path, text)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "trivial" in out


def test_analyze_machine_round_trip(tmp_path, capsys):
    rc = main(["analyze", "--machine", write(tmp_path, EX319)])
    out = capsys.readouterr().out
    assert rc == 0
    payload = json.loads(out)
    assert payload["q_group"]["order"] == 4
    assert payload["q_group"]["invariant_factors"] == [2, 2]
    assert payload["bound"] == 8
    assert payload["kernel"] == "C*"
    assert payload["oracle"]["checked"] is True
    # canonical: re-serialization is byte-identical
    again = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    assert again == out.rstrip("\n")


def test_analyze_no_oracle_flag(tmp_path, capsys):
    rc = main(["analyze", "--no-oracle", "--machine", write(tmp_path, EX319)])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert payload["oracle"]["checked"] is False


def test_analyze_double_r(tmp_path, capsys):
    rc = main(["analyze", "--machine", "--double-r", write(tmp_path, EX323)])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert payload["double_r"]["r"] == 20
    assert payload["double_r"]["q_group"]["order"] >= 1


def test_exit_code_parse_error(tmp_path, capsys):
    rc = main(["analyze", write(tmp_path, "surface_type = +\ngarbage line\n")])
    assert rc == 2
    assert "parse error" in capsys.readouterr().err
    rc = main(["analyze", write(tmp_path, EX319.replace("x2 = -1/2 + 1/2*u", "x2 = oops"))])
    assert rc == 2
    rc = main(["analyze", str(tmp_path / "missing.params")])
    assert rc == 2


def test_exit_code_invalid_params(tmp_path, capsys):
    rc = main(["analyze", write(tmp_path, EX319.replace("r = 6", "r = 0"))])
    assert rc == 3
    assert "invalid parameters" in capsys.readouterr().err
    # theta out of range for the plus family
    rc = main(["analyze", write(tmp_path, EX319.replace("theta = 6", "theta = 2"))])
    assert rc == 3
    # chi(x1, x2) = 0
    rc = main(["analyze", write(tmp_path, EX319.replace("x2 = -1/2 + 1/2*u", "x2 = 7"))])
    assert rc == 3


def test_exit_code_not_standard_form(tmp_path, capsys):
    text = EX321.replace("e = 1/4 - 1/12*u", "e = 1/17 - 1/17*u")
    rc = main(["analyze", write(tmp_path, text)])
    assert rc == 4
    assert "standard form" in capsys.readouterr().err


def test_exit_code_internal_consistency(tmp_path, capsys, monkeypatch):
    # force a conditions/oracle disagreement; only a bug can produce one
    import inoueaut.components as components

    monkeypatch.setattr(components, "normalizer_oracle", lambda *a, **k: False)
    rc = main(["analyze", write(tmp_path, EX319)])
    assert rc == 5
    assert "internal consistency" in capsys.readouterr().err


def test_check_standard_form_command(tmp_path, capsys):
    rc = main(["check-standard-form", write(tmp_path, EX321)])
    assert rc == 0
    assert "standard form: yes" in capsys.readouterr().out
    text = EX321.replace("e = 1/4 - 1/12*u", "e = 1/17 - 1/17*u")
    rc = main(["check-standard-form", write(tmp_path, text)])
    assert rc == 4
    captured = capsys.readouterr()
    assert captured.out == "standard form: no\n"
    assert "(1-u)/u e + (n21 n22/2) x1 - (n11 n12/2) x2 is not in I/r" in captured.err
    minus = "surface_type = -\ntheta = 3\nr = 6\nx1 = 1\nx2 = u\ne = 1/5*u\n"
    rc = main(["check-standard-form", write(tmp_path, minus)])
    assert rc == 4
    captured = capsys.readouterr()
    assert captured.out == "standard form: no\n"
    assert captured.err == "a conjugate g0 g_i g0^{-1} leaves <g3>\n"


def test_bound_command(tmp_path, capsys):
    rc = main(["bound", write(tmp_path, EX323)])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "20"


def test_fundamental_unit_command(capsys):
    rc = main(["fundamental-unit", "6", "+"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "1 + sqrt(2)" in out
    assert "-1/2 + 1/2*u" in out
    rc = main(["fundamental-unit", "2", "+"])
    assert rc == 3


@pytest.mark.parametrize(
    "surface_type, theta, digits",
    [
        # theta - 2 is the product of the three primes after 2**22
        pytest.param("+", 73788542009189877705, 40, id="+"),
        # delta = 10**42 + 4 keeps a cofactor above the trial limit cubed
        pytest.param("-", 10**21, 42, id="-"),
    ],
)
def test_fundamental_unit_past_the_trial_limit_exits_3(
    capsys, surface_type, theta, digits
):
    rc = main(["fundamental-unit", str(theta), surface_type])
    captured = capsys.readouterr()
    assert (rc, captured.out) == (3, "")
    assert "value too large to factor" in captured.err
    assert f"{digits} decimal digits" in captured.err


def test_fundamental_unit_splits_a_plus_delta_past_2_to_the_66(capsys):
    # delta = 10**42 - 4 decomposes as (theta - 2)(theta + 2)
    theta = 10**21
    assert main(["fundamental-unit", str(theta), "+"]) == 0
    out = capsys.readouterr().out
    assert "norm: 1\n" in out
    coordinates = out.split("coordinates: ", 1)[1].split("\n", 1)[0]
    field = FieldDescriptor(theta, 1)
    eta = parse_field_element(coordinates, field)
    assert eta.norm() == 1
    assert unit_exponent(field.u(), eta) is not None


def test_delta_is_trial_divided_once_per_command(tmp_path, capsys):
    path = write(tmp_path, EX323)
    for argv in (
        ["analyze", "--no-oracle", path],
        ["analyze", "--machine", "--no-oracle", path],
        ["fundamental-unit", "7", "+"],
        ["bound", path],
    ):
        square_decompose.cache_clear()
        assert main(argv) == 0
        assert square_decompose.cache_info().misses == 1, argv
    capsys.readouterr()


EXAMPLES_OUT = """\
theta=6 r=6 I=Z<1,eta> e=0: expected Z/2 x Z/2 (order 4); computed Z/2 x Z/2 \
(order 4) ... ok
theta=4 r=6 I=Z[u] e=1/(6(1-u)): expected Z/2 (order 2); computed Z/2 \
(order 2) ... ok
theta=4 r=6 I=Z[u] e=0: expected trivial (order 1); computed trivial \
(order 1) ... ok
theta=7 r=10 I=Z<1,eta> e=0: expected (Z/4) ⋉ (Z/5), action = multiplication \
by 3 (order 20); computed (Z/4) ⋉ (Z/5), action = multiplication by 3 \
(order 20) ... ok
"""


def test_examples_command(capsys):
    rc = main(["examples"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out == EXAMPLES_OUT


EXAMPLE_GOLDENS = ["theta6", "theta4_shifted", "theta4_zero", "theta7"]


@pytest.mark.parametrize(
    "example, golden, build",
    zip(
        BUILTIN_EXAMPLES,
        EXAMPLE_GOLDENS,
        [example_theta6, example_theta4_shifted, example_theta4_zero, example_theta7],
    ),
    ids=EXAMPLE_GOLDENS,
)
def test_examples_have_one_source(example, golden, build):
    # the built-in text is the key lines of the golden file, and it, the file
    # and the programmatic construction are one parameter set
    path = GOLDEN / f"{golden}.params"
    assert example.text in path.read_text(encoding="utf-8")
    params = parse_params(example.text, example.name)
    assert params == load_param_file(str(path))
    assert params == build()


def test_examples_mismatch_exits_5(capsys, monkeypatch):
    # a built-in example whose group no longer matches can only be a bug
    import dataclasses

    import inoueaut.cli as cli

    first, *rest = cli.BUILTIN_EXAMPLES
    broken = dataclasses.replace(first, expected="Z/3 (order 3)")
    monkeypatch.setattr(cli, "BUILTIN_EXAMPLES", (broken, *rest))
    rc = main(["examples"])
    captured = capsys.readouterr()
    assert rc == 5
    assert "internal consistency" in captured.err
    lines = captured.out.splitlines()
    assert len(lines) == 4
    assert lines[0].endswith("... MISMATCH")
    assert all(line.endswith("... ok") for line in lines[1:])


# u = eta**66 (plus family) and u = eta**67 (minus family), eta = (1 + sqrt(5))/2:
# theta is the Lucas number L_66 or L_67, past the old exponent cap of 64.
LUCAS_SURFACES = {
    "+": (62113250390418, "62113250390416", 0),
    "-": (100501350283429, "100501350283429", 4),
}


@pytest.mark.parametrize("surface_type", sorted(LUCAS_SURFACES))
def test_bound_past_the_old_exponent_cap(tmp_path, capsys, surface_type):
    theta, bound, standard_form_rc = LUCAS_SURFACES[surface_type]
    path = write(
        tmp_path,
        f"surface_type = {surface_type}\ntheta = {theta}\nr = 1\n"
        "x1 = 1\nx2 = u\ne = 0\n",
    )
    assert main(["bound", path]) == 0
    assert capsys.readouterr().out == f"{bound}\n"
    assert main(["check-standard-form", path]) == standard_form_rc


def test_param_file_details(tmp_path):
    params = load_param_file(write(tmp_path, EX319))
    assert params.field.theta == 6 and params.r == 6
    with pytest.raises(ParamFileError):
        load_param_file(write(tmp_path, EX319 + "theta = 6\n"))  # duplicate
    with pytest.raises(ParamFileError):
        load_param_file(write(tmp_path, "surface_type = +\n"))  # missing keys
    with pytest.raises(ParamFileError):
        load_param_file(write(tmp_path, EX319.replace("surface_type = +", "surface_type = pm")))
    with pytest.raises(ParamFileError):
        load_param_file(write(tmp_path, EX319 + "unknown = 1\n"))


def test_t_parsing_and_formatting(tmp_path):
    # t is the pair of reduced triples (p, q, den) of (p + q*sqrt(delta))/den
    cases = [
        ("0", ((0, 0, 1), (0, 0, 1))),
        ("1/2", ((1, 0, 2), (0, 0, 1))),
        ("1/2 + 1/3*sqrtD", ((3, 2, 6), (0, 0, 1))),
        ("(1 + 2*sqrtD)i", ((0, 0, 1), (1, 2, 1))),
        ("-sqrtD + (1/2)i", ((0, -1, 1), (1, 0, 2))),
    ]
    for text, expected in cases:
        parsed = _parse_complex(text, "sqrtD")
        assert parsed == expected
        assert _parse_complex(format_complex(parsed, "sqrtD", "i"), "sqrtD") == parsed
    with pytest.raises(ValueError):
        _parse_complex("nonsense!", "sqrtD")
    with pytest.raises(ParamFileError, match=":8: bad complex value"):
        load_param_file(write(tmp_path, EX319.replace("t = 0", "t = 1(2)i")))
    complex_t = EX319.replace("t = 0", "t = 1/2 + (1/3*sqrtD)i")
    params = load_param_file(write(tmp_path, complex_t))
    assert params.t == ((1, 0, 2), (0, 1, 3))


@pytest.mark.parametrize("flags", [[], ["--no-oracle"], ["--machine", "--double-r"]])
@pytest.mark.parametrize("surface_type", ["+", "-"])
def test_huge_ambient_group_is_refused_before_it_is_built(
    tmp_path, capsys, surface_type, flags
):
    # |H| = n * |Norm(1 - u)| is about 10**9 at theta = 10**9; the cosets are
    # never built, so the refusal is quick and stdout stays empty
    path = write(
        tmp_path,
        f"surface_type = {surface_type}\ntheta = 1000000000\nr = 1\n"
        "x1 = 1\nx2 = u\ne = 0\n",
    )
    start = time.perf_counter()
    rc = main(["analyze", path, *flags])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert (rc, captured.out) == (3, "")
    assert "value too large to analyze" in captured.err
    assert f"more than {components.AMBIENT_LIMIT}" in captured.err
    assert elapsed < 1.0
    # the order itself needs no cosets
    assert main(["bound", path]) == 0
    bound = 999999998 if surface_type == "+" else 1000000000
    assert capsys.readouterr().out == f"{bound}\n"


@pytest.mark.parametrize("limit", ["AMBIENT_LIMIT", "ORACLE_LIMIT"])
def test_limits_refuse_only_past_them(tmp_path, capsys, monkeypatch, limit):
    path = write(tmp_path, EX323)  # |H| = 20
    expected = main(["analyze", "--machine", path])
    report = capsys.readouterr().out
    assert expected == 0
    monkeypatch.setattr(components, limit, 20)
    assert main(["analyze", "--machine", path]) == 0
    assert capsys.readouterr().out == report
    monkeypatch.setattr(components, limit, 19)
    rc = main(["analyze", "--machine", path])
    captured = capsys.readouterr()
    assert (rc, captured.out) == (3, "")
    assert "20 elements, more than 19" in captured.err
    # --no-oracle skips the sweep, and with it the oracle's limit
    rc = main(["analyze", "--no-oracle", path])
    captured = capsys.readouterr()
    assert rc == (3 if limit == "AMBIENT_LIMIT" else 0)
    assert ("value too large" in captured.err) == (limit == "AMBIENT_LIMIT")


def test_machine_refuses_a_table_past_its_limit(tmp_path, capsys, monkeypatch):
    path = write(tmp_path, EX323)  # |Q| = 20, so 400 table entries
    assert main(["analyze", "--machine", path]) == 0
    report = capsys.readouterr().out
    monkeypatch.setattr(components, "TABLE_LIMIT", 400)
    assert main(["analyze", "--machine", path]) == 0
    assert capsys.readouterr().out == report
    monkeypatch.setattr(components, "TABLE_LIMIT", 399)
    rc = main(["analyze", "--machine", path])
    captured = capsys.readouterr()
    assert (rc, captured.out) == (3, "")
    assert captured.err.count("\n") == 1
    assert "400 entries, more than 399" in captured.err
    # the text report builds no table
    assert main(["analyze", path]) == 0
    assert "order 20" in capsys.readouterr().out
    # the doubled-r group is checked too: |Q| = 3, doubled |Q| = 12
    doubled = str(GOLDEN / "minus_theta4_r1.params")
    monkeypatch.setattr(components, "TABLE_LIMIT", 144)
    assert main(["analyze", "--machine", "--double-r", doubled]) == 0
    assert capsys.readouterr().out == (GOLDEN / "minus_theta4_r1.json").read_text()
    monkeypatch.setattr(components, "TABLE_LIMIT", 143)
    rc = main(["analyze", "--machine", "--double-r", doubled])
    captured = capsys.readouterr()
    assert (rc, captured.out) == (3, "")
    assert "144 entries, more than 143" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", str(GOLDEN / "theta6.params")],
        ["examples"],
        ["fundamental-unit", "7", "+"],
    ],
    ids=["analyze", "examples", "fundamental-unit"],
)
def test_closed_stdout_exits_quietly(argv):
    # stdout is a pipe whose read end is closed before the command starts,
    # so the first write fails with EPIPE, as under `| head -n 0`
    proc = run_with_closed_pipe(argv, "stdout")
    stderr = proc.stderr.decode()
    assert "Traceback" not in stderr and "Exception ignored" not in stderr, stderr
    assert proc.returncode == EXIT_STDOUT_CLOSED


NOT_PARSED = "surface_type = +\ntheta = x\n"
NOT_STANDARD = EX321.replace("e = 1/4 - 1/12*u", "e = 1/17 - 1/17*u")


@pytest.mark.parametrize(
    "command, text, code, out",
    [
        ("analyze", NOT_PARSED, 2, ""),
        ("analyze", NOT_STANDARD, 4, ""),
        ("check-standard-form", NOT_STANDARD, 4, "standard form: no\n"),
    ],
    ids=["parse-error", "analyze-not-standard", "check-not-standard"],
)
def test_closed_stderr_keeps_the_exit_code(tmp_path, command, text, code, out):
    # stderr is a pipe whose read end is closed before the command starts,
    # so the diagnostic fails with EPIPE; the documented code still comes out
    proc = run_with_closed_pipe([command, write(tmp_path, text)], "stderr")
    assert (proc.returncode, proc.stdout.decode()) == (code, out)


def run_with_closed_pipe(argv: list[str], stream: str) -> subprocess.CompletedProcess:
    """Run the CLI in a subprocess whose stream ("stdout" or "stderr") is a
    pipe with its read end closed; the other stream is captured."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    streams = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, stream: write_end}
    try:
        return subprocess.run(
            [sys.executable, "-m", "inoueaut.cli", *argv],
            env=env,
            timeout=120,
            **streams,
        )
    finally:
        os.close(write_end)


def test_element_texts_match_one_text_per_key():
    # by blocks of a unit exponent against one f-string per key, on real
    # groups and on synthetic subgroups, many of which miss unit exponents
    groups = [
        (q.ambient, q.keys)
        for q in map(components.component_group, parameter_sets())
    ]
    groups += random_subgroups(random.Random(157), 300, 200)
    shapes = Counter()
    for ambient, keys in groups:
        expected = cli_reference.element_texts(ambient, keys)
        assert _element_texts(ambient, keys) == expected
        c = ambient.quotient.order
        shapes["gaps"] += len({key // c for key in keys}) < ambient.n
        shapes["repeated k"] += len(keys) > c
        shapes["distinct k"] += len(keys) <= c
    assert shapes["gaps"] and shapes["repeated k"] and shapes["distinct k"]
