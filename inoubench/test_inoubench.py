"""Self-tests of the benchmark: python3 -m pytest inoubench -q"""

from __future__ import annotations

import json
import shutil

import pytest

import checks
import run
import tracing
import workloads

MAIN = run.load_program()
DEFECT = workloads.KNOWN_DEFECT


@pytest.fixture
def workdir(tmp_path):
    yield tmp_path / "files"
    shutil.rmtree(tmp_path / "files", ignore_errors=True)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic(name):
    build = workloads.WORKLOADS[name]
    assert build(5) == build(5)
    assert build(5) != build(6)


def survey_sample():
    """Two survey blocks: every reject kind, the worked examples, accepts."""
    return workloads.survey(11)[:32]


def test_expected_exit_labels_hold(workdir):
    ops = [op for op in survey_sample() if op.kind not in DEFECT]
    ops += [op for op in workloads.units(11)[:12] if op.kind != "fundamental-unit"]
    for op, argv in zip(ops, run.materialize(ops, workdir)):
        _, code, error, stdout = run.call(MAIN, argv)
        assert error is None and code == op.expect, (op.kind, op.text)
        assert checks.outcome(op, code, error, stdout) is None, op.kind


@pytest.mark.xfail(strict=True, raises=ZeroDivisionError,
                   reason="known defect: a zero denominator in x1, x2 or e escapes main")
@pytest.mark.parametrize("kind", DEFECT)
def test_zero_denominator_exits_2(kind, workdir):
    op = next(op for op in survey_sample() if op.kind == kind)
    (argv,) = run.materialize([op], workdir)
    assert MAIN(argv) == op.expect == 2


def test_digest_check_rejects_a_one_byte_change(workdir):
    ops = workloads.survey(workloads.DEFAULT_SEED)
    recorded = json.loads((run.BENCH / "digests.json").read_text())["survey"]
    k = next(k for k, op in enumerate(ops) if op.kind == "worked")
    (argv,) = run.materialize([ops[k]], workdir)
    wall, code, error, stdout = run.call(MAIN, argv)
    tally = run.Tally(ops, recorded)
    tally.record(k, wall, wall, code, error, stdout)
    assert tally.failed == 0
    changed = stdout[:100] + chr(ord(stdout[100]) ^ 1) + stdout[101:]
    tally.record(k, wall, wall, code, error, changed)
    assert tally.failed == 1 and tally.wrong == 1


def test_only_the_known_defect_escapes_main_without_a_wrong_answer():
    ops = workloads.survey(11)[:32]
    plain = next(k for k, op in enumerate(ops) if op.kind not in DEFECT)
    defect = next(k for k, op in enumerate(ops) if op.kind in DEFECT)
    tally = run.Tally(ops, None)
    tally.record(defect, 0.01, 0.01, None, "ZeroDivisionError", "")
    assert (tally.failed, tally.wrong) == (1, 0)
    tally.record(plain, 0.01, 0.01, None, "RuntimeError", "")
    assert (tally.failed, tally.wrong) == (2, 1)
    # A failing op counts once in failed, however often it fails.
    tally.record(defect, 0.01, 0.01, None, "AttributeError", "")
    assert (tally.failed, tally.wrong) == (2, 2)
    assert tally.attempted == 2


def test_self_time_on_a_synthetic_span_tree():
    # root [0, 100] with children a [10, 30], b [40, 70], c [60, 80] (overlaps
    # b) and d [90, 110] (runs past the root); b has child g [45, 50].
    start = [0, 10, 40, 45, 60, 90]
    end = [100, 30, 70, 50, 80, 110]
    parent = [-1, 0, 0, 2, 0, 0]
    # root: covered by [10, 30] + [40, 80] + [90, 100] = 70 -> 30.
    assert tracing.self_times(start, end, parent) == [30, 20, 25, 5, 20, 20]
    # Input order does not matter.
    perm = [3, 5, 0, 2, 4, 1]
    own = tracing.self_times(
        [start[i] for i in perm], [end[i] for i in perm],
        [perm.index(parent[i]) if parent[i] >= 0 else -1 for i in perm],
    )
    assert own == [[30, 20, 25, 5, 20, 20][i] for i in perm]


def test_tracing_wraps_every_binding():
    import inoueaut.exactnum as exactnum
    import inoueaut.quadfield as quadfield
    import inoueaut.units as units

    spans = {
        "exactnum.square_decompose": ["inoueaut.exactnum:square_decompose"],
        "quadfield.mul": ["inoueaut.quadfield:FieldElement.__mul__"],
    }
    originals = (exactnum.square_decompose, quadfield.FieldElement.__mul__)
    tracer = tracing.Tracer(list(spans))
    undo = tracing.install(tracer, spans, "inoueaut")
    try:
        assert units.square_decompose is exactnum.square_decompose
        assert units.square_decompose is not originals[0]
        assert quadfield.FieldElement.__rmul__ is quadfield.FieldElement.__mul__
        field = quadfield.FieldDescriptor(7, 1)
        tracer.current_op = 0
        units.fundamental_unit(field)  # via the name bound in units
        _ = 2 * field.u()  # __rmul__
        _ = field.u() * field.u()  # __mul__
    finally:
        tracing.uninstall(undo)
    assert exactnum.square_decompose is originals[0]
    assert quadfield.FieldElement.__mul__ is originals[1]
    assert quadfield.FieldElement.__rmul__ is originals[1]
    totals = tracer.totals()
    assert totals["exactnum.square_decompose"][0] == 1
    assert totals["quadfield.mul"][0] >= 2
    assert set(tracer.op) == {0}
