"""Code named outside the package still exists and runs: every function the
benchmark's traced spans wrap (inoubench/spec.json), firing on the workloads
it is mapped to, and the library example in README.md as printed there."""

import contextlib
import importlib.util
import io
import json
import re
from pathlib import Path

from inoueaut.cli import main

ROOT = Path(__file__).resolve().parent.parent


def load_tracing():
    """inoubench/tracing.py, loaded from its file: inoubench is no package."""
    spec = importlib.util.spec_from_file_location(
        "inoubench_tracing", ROOT / "inoubench" / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_bench_run(monkeypatch):
    """inoubench/run.py, loaded from its file, with inoubench/ on the path
    for the modules it imports by their bare names."""
    monkeypatch.syspath_prepend(str(ROOT / "inoubench"))
    spec = importlib.util.spec_from_file_location(
        "inoubench_run", ROOT / "inoubench" / "run.py"
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


def test_every_traced_span_fires_where_it_is_mapped(tmp_path, monkeypatch):
    # the traced run's own check: replay each workload's trace prefix under
    # the benchmark's spans, and the span that must fire on a workload (or
    # stay silent there) does, or the traced run is not correct
    run = load_bench_run(monkeypatch)
    spec = json.loads((ROOT / "inoubench" / "spec.json").read_text())
    wraps = {span: entry["wraps"] for span, entry in spec["spans"].items()}
    problems = []
    for workload, count in run.TRACE_OPS.items():
        ops = run.workloads.WORKLOADS[workload](run.workloads.DEFAULT_SEED)
        argvs = run.materialize(ops, tmp_path / workload)
        tracer = run.tracing.Tracer(list(spec["spans"]))
        undo = run.tracing.install(tracer, wraps, "inoueaut")
        try:
            for k in range(count):
                tracer.current_op = k
                run.call(main, argvs[k])
        finally:
            run.tracing.uninstall(undo)
        problems += run.per_layer(workload, spec, tracer, 1.0)[1]
    assert not problems, problems


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
