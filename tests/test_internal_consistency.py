"""Failed internal checks raise one type, InternalConsistencyError, which
the package, exactnum, lattice and components all export and which main
turns into exit 5 with a diagnostic; src/inoueaut/ holds no assert, whose
AssertionError main would let escape as a traceback."""

import ast
from pathlib import Path

import pytest

import inoueaut
import inoueaut.components as components
import inoueaut.exactnum as exactnum
import inoueaut.lattice as lattice
import inoueaut.units as units
from inoueaut.cli import main
from inoueaut.exactnum import InternalConsistencyError, surd_sign

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "inoueaut"


def test_one_class_is_exported_everywhere():
    assert (
        inoueaut.InternalConsistencyError
        is lattice.InternalConsistencyError
        is components.InternalConsistencyError
        is exactnum.InternalConsistencyError
    )


def test_surd_sign_refuses_a_square_delta():
    # 2 - sqrt(4) = 0 makes p*p = q*q*delta, which a non-square delta rules out
    with pytest.raises(InternalConsistencyError, match="non-square delta"):
        surd_sign(2, -1, 4)


def test_fundamental_unit_failure_exits_5(capsys, monkeypatch):
    # (4 + sqrt(5))/2 has norm 11/4, so it is no unit
    monkeypatch.setattr(units, "_cf_unit", lambda disc: (4, 1))
    assert main(["fundamental-unit", "7", "+"]) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "internal consistency failure (bug): continued fraction produced a non-unit"
    )


def test_fundamental_unit_below_one_exits_5(capsys, monkeypatch):
    # (1 - sqrt(5))/2 is a unit, but sigma1 < 0: no silent repair to eta
    monkeypatch.setattr(units, "_cf_unit", lambda disc: (1, -1))
    assert main(["fundamental-unit", "7", "+"]) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "internal consistency failure (bug): continued fraction produced a unit "
        "with sigma1 <= 1"
    )


def test_the_package_holds_no_assert():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    found = []
    for source in sources:
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Assert):
                found.append(f"{source.name}:{node.lineno}: assert")
            elif isinstance(node, ast.Raise) and node.exc is not None:
                raised = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(raised, ast.Name) and raised.id == "AssertionError":
                    found.append(f"{source.name}:{node.lineno}: raise AssertionError")
    assert not found
