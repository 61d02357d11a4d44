"""Golden outputs: `analyze` reproduces the committed reports byte for byte.

Each case is a parameter file `golden/<name>.params` plus extra `analyze`
flags; `<name>.json` holds its `--machine` output and `<name>.txt` its text
report, both with the oracle on.  After a deliberate output change,
regenerate them with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
from pathlib import Path

import pytest

from inoueaut.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "theta6": [],
    "theta4_shifted": [],
    "theta4_zero": [],
    "theta7": [],
    "minus_theta4_r2": [],
    "minus_theta4_r1": ["--double-r"],
    "theta6_r3": ["--double-r"],
    "theta6_t": [],
    "theta6_t_imag": [],
    "theta34_nonsplit": [],
    "minus_theta36_nonsplit": [],
}
FORMATS = {"json": ["--machine"], "txt": []}


def analyze_output(name: str, fmt: str) -> tuple[int, bytes]:
    argv = ["analyze", str(GOLDEN / f"{name}.params"), *FORMATS[fmt], *CASES[name]]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(argv)
    return rc, out.getvalue().encode("utf-8")


@pytest.mark.parametrize("fmt", sorted(FORMATS))
@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, fmt):
    rc, out = analyze_output(name, fmt)
    assert rc == 0
    assert out == (GOLDEN / f"{name}.{fmt}").read_bytes()


if __name__ == "__main__":
    for name in CASES:
        for fmt in FORMATS:
            rc, out = analyze_output(name, fmt)
            assert rc == 0, (name, fmt, rc)
            (GOLDEN / f"{name}.{fmt}").write_bytes(out)
