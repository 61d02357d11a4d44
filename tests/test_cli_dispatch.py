"""Dispatch: `cli.main` matches a well-formed argv against its command's
declared signature and hands any other argv to the top-level parser.  It must
behave exactly as the full top-level parse does (`tests/cli_reference.py`):
the same exit code or SystemExit code, and byte-identical stdout and stderr,
help and usage text and every usage error included."""

import contextlib
import io
import itertools
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cli_reference
from inoueaut import cli

FILE = str(Path(__file__).parent / "golden" / "theta6.params")
FLAGS = ("--machine", "--no-oracle", "--double-r")


def analyze_orders() -> list[list[str]]:
    """analyze with every ordered choice of its flags, FILE at every place."""
    argvs = []
    for k in range(len(FLAGS) + 1):
        for flags in itertools.permutations(FLAGS, k):
            for at in range(k + 1):
                argvs.append(["analyze", *flags[:at], FILE, *flags[at:]])
    return argvs


CORPUS = analyze_orders() + [
    # repeated flags
    ["analyze", FILE, "--machine", "--machine"],
    ["analyze", "--no-oracle", FILE, "--no-oracle", "--double-r", "--double-r"],
    # abbreviations and explicit values
    ["analyze", FILE, "--mach"],
    ["analyze", "--no-o", FILE, "--d"],
    ["analyze", FILE, "--machine=1"],
    ["analyze", FILE, "--mach=yes"],
    # the "--" separator
    ["analyze", "--", FILE],
    ["analyze", "--machine", "--", FILE],
    ["analyze", FILE, "--", "--machine"],
    ["bound", "--", FILE],
    ["--", "bound", FILE],
    # help at both levels
    ["-h"],
    ["--help"],
    ["-h", "analyze"],
    ["analyze", "-h"],
    ["analyze", "--help"],
    ["analyze", FILE, "-h"],
    ["bound", FILE, "extra", "--help"],
    ["examples", "-h"],
    ["fundamental-unit", "--help"],
    ["check-standard-form", "-h"],
    ["bound", "--he"],
    # no command, an unknown one, options before it
    [],
    ["frobnicate"],
    ["analyse", FILE],
    ["--machine", "analyze", FILE],
    ["-x"],
    # missing and extra arguments
    ["analyze"],
    ["analyze", "--machine"],
    ["bound"],
    ["check-standard-form"],
    ["fundamental-unit"],
    ["fundamental-unit", "5"],
    ["bound", FILE, "extra"],
    ["bound", FILE, "extra", "more"],
    ["check-standard-form", FILE, "--machine"],
    ["examples", "extra"],
    ["fundamental-unit", "7", "+", "extra"],
    ["analyze", FILE, "--bogus"],
    # the theta and type arguments of fundamental-unit
    ["fundamental-unit", "６", "+"],
    ["fundamental-unit", "5", "x"],
    ["fundamental-unit", "--", "-5", "-"],
    ["fundamental-unit", "-5", "-"],
    ["fundamental-unit", "7", "+"],
    ["fundamental-unit", "+7", "-"],
    # commands that parse and then run or fail
    ["examples"],
    ["bound", FILE],
    ["check-standard-form", FILE],
    ["bound", FILE + ".missing"],
    # "-" is a positional, not an option
    ["fundamental-unit", "7", "-"],
    ["analyze", "-"],
    ["analyze", FILE, "-"],
    ["fundamental-unit", "-", "-"],
    ["bound", "--", "-"],
]

# The tokens the property test draws argv from: every command name and a
# misspelt one, each exact flag and some abbreviated or valued ones, the
# separator, "-", help, integers in several spellings, the type argument, a
# file and a missing one, and a spare argument.
COMMANDS = ("analyze", "examples", "fundamental-unit", "check-standard-form", "bound")
TOKENS = (
    *COMMANDS, "analyse",
    *FLAGS, "--mach", "--no-o", "--d", "--machine=1",
    "--", "-", "-h", "--help",
    "7", "+7", "-5", "６",
    "+", "x",
    FILE, FILE + ".missing", "extra",
)
# argv of up to five tokens, and (so that more of them are well-formed) a
# command's name followed by up to four
ARGV = st.lists(st.sampled_from(TOKENS), max_size=5) | st.builds(
    lambda name, rest: [name, *rest],
    st.sampled_from(COMMANDS),
    st.lists(st.sampled_from(TOKENS), max_size=4),
)


def outcome(main, argv: list[str]) -> tuple[object, bytes, bytes]:
    """(exit code or SystemExit code, stdout, stderr) of main(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = ("SystemExit", exc.code)
    return code, out.getvalue().encode(), err.getvalue().encode()


def argv_id(argv: list[str]) -> str:
    return " ".join(argv).replace(FILE, "FILE") or "(no arguments)"


@pytest.mark.parametrize("argv", CORPUS, ids=argv_id)
def test_dispatch_matches_the_full_parse(argv):
    assert outcome(cli.main, argv) == outcome(cli_reference.main, argv)


@settings(max_examples=1000, deadline=None)
@given(ARGV)
def test_dispatch_matches_the_full_parse_on_drawn_argv(argv):
    assert outcome(cli.main, argv) == outcome(cli_reference.main, argv)
    matched = cli._match_argv(argv)
    if matched is not None:
        full = vars(cli._build_parser().parse_args(argv))
        del full["command"]
        assert vars(matched) == full


def test_extra_argument_gets_the_top_level_usage():
    code, out, err = outcome(cli.main, ["bound", FILE, "extra"])
    assert (code, out) == (("SystemExit", 2), b"")
    assert err.startswith(b"usage: inoueaut [-h]")
    assert err.endswith(b"inoueaut: error: unrecognized arguments: extra\n")


def test_argv_none_reads_sys_argv(monkeypatch):
    monkeypatch.setattr(sys, "argv", ["inoueaut", "bound", FILE])
    assert outcome(cli.main, None) == outcome(cli.main, ["bound", FILE])
    assert outcome(cli.main, None)[:2] == (0, b"8\n")


WELL_FORMED = analyze_orders() + [
    ["bound", FILE],
    ["check-standard-form", FILE],
    ["fundamental-unit", "7", "+"],
    ["fundamental-unit", "7", "-"],
]


@pytest.mark.parametrize("argv", WELL_FORMED, ids=argv_id)
def test_a_well_formed_argv_builds_no_parser(monkeypatch, argv):
    def refuse():
        raise AssertionError("an argparse parser was built")

    monkeypatch.setattr(cli, "_build_parser", refuse)
    assert outcome(cli.main, argv)[0] == 0
