"""Code named outside the package still exists and runs: every function the
benchmark's traced spans wrap (inoubench/spec.json), and the library
example in README.md as printed there."""

import contextlib
import importlib.util
import io
import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_tracing():
    """inoubench/tracing.py, loaded from its file: inoubench is no package."""
    spec = importlib.util.spec_from_file_location(
        "inoubench_tracing", ROOT / "inoubench" / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_span_resolves():
    tracing = load_tracing()
    spans = json.loads((ROOT / "inoubench" / "spec.json").read_text())["spans"]
    targets = [target for span in spans.values() for target in span["wraps"]]
    assert targets
    missing = []
    for target in targets:
        try:
            fn = tracing.resolve(target)
        except (ImportError, AttributeError) as exc:
            missing.append(f"{target}: {exc!r}")
            continue
        if not callable(fn):
            missing.append(f"{target}: not callable")
    assert not missing, missing


def test_readme_library_example_prints_its_comment():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    match = re.search(
        r"Example, straight from the library:\n\n```python\n(.*?)```", readme, re.S
    )
    assert match, "README.md lost its library example"
    code = match.group(1)
    printed = re.search(r"^print\(.*\)\s+# (.*)$", code, re.M)
    assert printed, "the example's print line lost its output comment"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code, {"__name__": "readme_example"})
    assert out.getvalue() == printed.group(1) + "\n"
    assert printed.group(1) == (
        "20 (Z/4) ⋉ (Z/5), action = multiplication by 3"
    )
