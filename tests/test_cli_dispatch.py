"""Dispatch: `cli.main` hands argv straight to the command's own parser, and
must behave exactly as the full top-level parse did (`tests/cli_reference.py`):
the same exit code or SystemExit code, and byte-identical stdout and stderr,
help and usage text and every usage error included."""

import contextlib
import io
import itertools
import sys
from pathlib import Path

import pytest

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
]


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


def test_extra_argument_gets_the_top_level_usage():
    code, out, err = outcome(cli.main, ["bound", FILE, "extra"])
    assert (code, out) == (("SystemExit", 2), b"")
    assert err.startswith(b"usage: inoueaut [-h]")
    assert err.endswith(b"inoueaut: error: unrecognized arguments: extra\n")


def test_argv_none_reads_sys_argv(monkeypatch):
    monkeypatch.setattr(sys, "argv", ["inoueaut", "bound", FILE])
    assert outcome(cli.main, None) == outcome(cli.main, ["bound", FILE])
    assert outcome(cli.main, None)[:2] == (0, b"8\n")


@pytest.mark.parametrize(
    "argv",
    [["bound", FILE], ["analyze", "--no-oracle", FILE], ["fundamental-unit", "7", "+"]],
    ids=argv_id,
)
def test_a_command_is_parsed_by_its_own_parser_alone(monkeypatch, argv):
    def refuse(*args, **kwargs):
        raise AssertionError("the top-level parser ran")

    parser = cli._build_parser()[0]
    monkeypatch.setattr(parser, "parse_args", refuse)
    monkeypatch.setattr(parser, "parse_known_args", refuse)
    assert outcome(cli.main, argv)[0] == 0
