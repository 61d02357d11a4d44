"""The package imports nothing outside the standard library, and nothing
there that a command does not need: every import sits at module level, and
importing the CLI loads neither dataclasses nor typing, nor inspect, which
dataclasses pulls in."""

import ast
import os
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "inoueaut"


def test_every_absolute_import_is_stdlib():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    foreign = []
    for source in sources:
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [
                f"{source.name}: {name}"
                for name in names
                if name.partition(".")[0] not in sys.stdlib_module_names
            ]
    assert not foreign


def test_every_import_is_at_module_level():
    # an import inside a function would move its cost into the first
    # command that reaches it rather than remove it
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    nested = []
    for source in sources:
        tree = ast.parse(source.read_text(encoding="utf-8"))
        top = {id(node) for node in tree.body}
        nested += [
            f"{source.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top
        ]
    assert not nested


def test_cli_import_loads_no_dataclasses_typing_or_inspect():
    # -S: no site, so nothing preloads typing the way some site setups do
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    program = (
        "import sys, inoueaut.cli; "
        "print(*sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", program],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert proc.stdout.split() == []
