"""Benchmark of the inoueaut CLI: one closed-loop client, in process.

    python3 inoubench/run.py --workload {survey,ladder,units} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
``src/``.  Each operation is one ``inoueaut.cli.main(argv)`` call with stdout
and stderr captured, and each is checked after it is timed.  The last line
of stdout is one JSON object: end-to-end metrics with ``--trace 0``, the
per-layer metrics of a separate traced run with ``--trace 1``.  The traced
run replays a fixed prefix of the workload whatever ``--seconds`` says, so
its call counts repeat exactly for a seed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import checks
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# setup_s: pairs of launches, a bare interpreter then one importing the
# program.  Spawn and start-up time drift with the machine by ±20 % between
# runs; each import launch is reported relative to the bare launch made just
# before it, at the reference speed at which a bare interpreter starts in
# BARE_SECONDS.
SETUP_PAIRS = 15
BARE_SECONDS = 0.05

# Ops of the traced run: a fixed prefix of the workload, so call counts
# repeat exactly for a seed.  Survey: four blocks (every reject kind and the
# worked examples); ladder: one pass; units: two blocks.
TRACE_OPS = {"survey": 64, "ladder": len(workloads.LADDER_RUNGS), "units": 24}


# A fixed piece of pure-Python Fraction arithmetic that takes REF_SECONDS
# at the reference speed.  CPU speed on a shared or frequency-scaled machine
# drifts (by up to 2x within a minute on a shared 2-core VM), so every
# op timing is reported at the reference speed: the wall time times
# REF_SECONDS over the reference loop's time measured around it.
REF_TERMS = 140
REF_SECONDS = 0.001
SAMPLE_SECONDS = 0.2


def reference() -> float:
    """Best of three timings of the reference loop, in seconds."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        acc = Fraction(0)
        for i in range(1, REF_TERMS):
            acc += Fraction(i, 7) * Fraction(3, i + 1)
        best = min(best, time.perf_counter() - start)
    return best


class Clock:
    """Scales wall times to the reference speed.  The reference is the mean
    of the timings made just before and just after the timed region and,
    when sampling, every SAMPLE_SECONDS within it, from a SIGALRM handler
    whose own time is left out.  The speed drifts within seconds, so older
    timings would track it worse: on ladder, a median over the last five
    gave twice the spread."""

    def __init__(self, sample: bool = False):
        self.sample = sample
        self.samples = [reference()]
        self.spent = 0.0

    def _take_sample(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(reference())
        self.spent += time.perf_counter() - start

    def start(self) -> None:
        if self.sample:
            signal.signal(signal.SIGALRM, self._take_sample)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_SECONDS, SAMPLE_SECONDS)

    def stop(self) -> None:
        if self.sample:
            signal.setitimer(signal.ITIMER_REAL, 0)

    def scale(self, wall: float) -> float:
        """Call right after the timed region; also re-measures the reference."""
        self.samples.append(reference())
        scaled = (wall - self.spent) * REF_SECONDS / statistics.fmean(self.samples)
        self.samples, self.spent = self.samples[-1:], 0.0
        return scaled


def load_program():
    if not (SRC / "inoueaut" / "cli.py").is_file():
        raise SystemExit(f"no program source at {SRC / 'inoueaut'}")
    sys.path.insert(0, str(SRC))
    import inoueaut.cli

    if not Path(inoueaut.cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"imported {inoueaut.cli.__file__}, not the checkout")
    return inoueaut.cli.main


def materialize(ops, workdir: Path) -> list[list[str]]:
    """Writes the parameter files; returns each op's argv."""
    workdir.mkdir(parents=True)
    argvs = []
    for k, op in enumerate(ops):
        path = workdir / f"{k:04d}.params"
        if op.text is not None:
            path.write_text(op.text, encoding="utf-8")
        argvs.append([str(path) if a == "{file}" else a for a in op.argv])
    return argvs


def call(main, argv, clock: Clock | None = None):
    """One operation: (seconds, exit code, escaped exception name, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    code = error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        if clock:
            clock.start()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # an escaped exception is a failed op
            error = type(exc).__name__
        if clock:
            clock.stop()
        elapsed = time.perf_counter() - start
    return elapsed, code, error, out.getvalue()


class Tally:
    """Per-op results and the output check of each.  Every run of an op is
    checked, but ``attempted`` and ``failed`` count distinct ops: a run
    repeats its ops pass after pass until the time is up, and counting
    runs would make both depend on how many passes fitted."""

    def __init__(self, ops, digests):
        self.ops = ops
        self.digests = digests
        self.times: list[float] = []  # at the reference speed
        self.wall: list[float] = []
        self.index: list[int] = []
        self.failures: dict[str, int] = {}
        self.failed_ops: set[int] = set()
        self.wrong = 0

    def record(self, k: int, wall, scaled, code, error, stdout) -> None:
        op = self.ops[k]
        self.times.append(scaled)
        self.wall.append(wall)
        self.index.append(k)
        why = checks.outcome(op, code, error, stdout)
        if why is None and self.digests and error is None:
            if checks.digest(stdout) != self.digests[k]:
                why = "stdout differs from the recorded digest"
        if why is None:
            return
        # Only the known defect may escape main without making the run
        # incorrect; any other escaped exception counts as a wrong answer.
        if not (op.kind in workloads.KNOWN_DEFECT and error == "ZeroDivisionError"):
            self.wrong += 1
        key = f"{op.kind}: {why}"
        if key not in self.failures:
            print(f"op {k} ({op.kind}) failed: {why}", file=sys.stderr)
        self.failures[key] = self.failures.get(key, 0) + 1
        self.failed_ops.add(k)

    @property
    def attempted(self) -> int:
        return len(set(self.index))

    @property
    def failed(self) -> int:
        return len(self.failed_ops)


def closed_loop(main, argvs, tally: Tally, seconds: float):
    """Runs the ops in order, pass after pass, until the time is up and at
    least one whole pass is done."""
    clock = Clock(sample=True)
    k = 0
    start = time.perf_counter()
    while k < len(argvs) or time.perf_counter() - start < seconds:
        idx = k % len(argvs)
        wall, *rest = call(main, argvs[idx], clock)
        tally.record(idx, wall, clock.scale(wall), *rest)
        k += 1


def setup_seconds() -> float:
    """Median cold start of a fresh interpreter importing inoueaut.cli, at
    the reference speed."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    program = [sys.executable, "-c", "import inoueaut.cli"]
    bare = [sys.executable, "-c", "pass"]

    def launch(cmd) -> float:
        # No timeout: with one, the wait polls in steps of up to 50 ms,
        # which would quantize the measurement.
        start = time.perf_counter()
        subprocess.run(cmd, env=env, check=True)
        return time.perf_counter() - start

    launch(program)  # writes bytecode
    ratios = []
    for _ in range(SETUP_PAIRS):
        base = launch(bare)
        ratios.append(launch(program) / base)
    return statistics.median(ratios) * BARE_SECONDS


def nearest_rank(values, p: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered)) - 1)]


def slope(xs, ys) -> float:
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum(
        (x - mx) ** 2 for x in xs
    )


def end_to_end(workload: str, ops, tally: Tally, setup: float) -> dict:
    """Every end-to-end metric that applies to the workload, as (value, unit).

    An operation's time is its median over the run's passes, at the
    reference speed; the op_ms quantiles and ops_per_s are taken over
    operations, so each distinct input counts once."""
    by_op: dict[int, list[float]] = {}
    for k, t in zip(tally.index, tally.times):
        by_op.setdefault(k, []).append(t)
    samples = [statistics.median(ts) for ts in by_op.values()]
    per_op = dict(zip(by_op, samples))
    metrics = {}
    if workload == "ladder":
        rungs = [ops[k].facts["order"] for k in per_op]
        metrics["scaling_exponent"] = (
            slope([math.log(h) for h in rungs], [math.log(t) for t in samples]),
            "1",
        )
    metrics["setup_s"] = (setup, "s")
    metrics["op_ms_p50"] = (nearest_rank(samples, 0.5) * 1e3, "ms")
    metrics["op_ms_p90"] = (nearest_rank(samples, 0.9) * 1e3, "ms")
    metrics["ops_per_s"] = (1 / statistics.fmean(samples), "1/s")
    rejects = [t for k, t in per_op.items() if ops[k].expect != 0]
    if rejects:
        metrics["reject_ms_p50"] = (statistics.median(rejects) * 1e3, "ms")
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "MB",
    )
    metrics["error_rate"] = (tally.failed / tally.attempted, "ratio")
    metrics["passes"] = (len(tally.times) / len(ops), "1")
    metrics["wall_ms_p50"] = (statistics.median(tally.wall) * 1e3, "ms")
    metrics["reference_ms"] = (reference() * 1e3, "ms")
    return metrics


def per_layer(workload: str, spec: dict, tracer, overhead: float):
    """Per-layer metrics, plus the mapped spans that did not fire (or fired
    where they must stay silent)."""
    metrics = {}
    problems = []
    totals = tracer.totals()
    for span, entry in spec["spans"].items():
        calls, self_ms = totals[span]
        metrics[f"{span}.calls"] = (calls, "count")
        metrics[f"{span}.self_ms"] = (self_ms, "ms")
        if workload in entry["moves"] and calls == 0:
            problems.append(f"{span} is mapped to {workload} but never fired")
        if workload in entry.get("silent", ()) and calls:
            problems.append(f"{span} must not fire on {workload}: {calls} calls")
    member_calls = totals["components.membership"][0]
    word_calls = totals["surfacegroup.word_problem"][0]
    metrics["components.ambient_elements"] = (tracer.ambient_elements, "count")
    metrics["components.member_ratio"] = (
        tracer.q_elements / member_calls if member_calls else 0.0,
        "ratio",
    )
    metrics["surfacegroup.word_problem.accept_ratio"] = (
        tracer.words_accepted / word_calls if word_calls else 0.0,
        "ratio",
    )
    metrics["trace.overhead"] = (overhead, "ratio")
    return metrics, problems


def traced_run(main, workload, seed, argvs, tally, spec):
    """The fixed trace prefix untraced, traced, then untraced again; the
    overhead compares the traced pass with the mean of the other two."""
    tracer = tracing.Tracer(list(spec["spans"]))

    clock = Clock()

    def one_pass() -> float:
        total = 0.0
        for k in range(TRACE_OPS[workload]):
            tracer.current_op = k
            wall, *rest = call(main, argvs[k])
            scaled = clock.scale(wall)
            total += scaled
            tally.record(k, wall, scaled, *rest)
        return total

    before = one_pass()
    undo = tracing.install(
        tracer, {span: e["wraps"] for span, e in spec["spans"].items()}, "inoueaut"
    )
    try:
        traced = one_pass()
    finally:
        tracing.uninstall(undo)
    after = one_pass()
    tracer.write(OUT / f"trace-{workload}-seed{seed}.tsv.gz")
    return per_layer(workload, spec, tracer, 2 * traced / (before + after))


def main_cli(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    program = load_program()
    spec = json.loads((BENCH / "spec.json").read_text(encoding="utf-8"))
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ops = workloads.WORKLOADS[args.workload](args.seed)
    digests = None
    if args.seed == workloads.DEFAULT_SEED:
        recorded = json.loads((BENCH / "digests.json").read_text(encoding="utf-8"))
        digests = recorded[args.workload]
        if len(digests) != len(ops):
            raise SystemExit("digests.json does not match the generator")
    workdir = OUT / f"run-{os.getpid()}"
    tally = Tally(ops, digests)
    problems: list[str] = []
    try:
        argvs = materialize(ops, workdir)
        if args.trace:
            metrics, problems = traced_run(
                program, args.workload, args.seed, argvs, tally, spec
            )
            wanted = [m["name"] for m in bench["per_layer"]]
        else:
            setup = setup_seconds()
            call(program, ["fundamental-unit", "7", "+"])  # warm-up, untimed
            closed_loop(program, argvs, tally, args.seconds)
            metrics = end_to_end(args.workload, ops, tally, setup)
            wanted = [m["name"] for m in bench["end_to_end"]]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = tally.attempted
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(f"{args.workload} ops = {attempted} distinct, {len(tally.times)} runs, "
          f"failed = {tally.failed}")
    defect = sum(ops[k].kind in workloads.KNOWN_DEFECT for k in set(tally.index))
    if defect:
        print(f"  share of ops with a zero denominator in x1, x2 or e = "
              f"{defect / attempted:.6g} (a known defect: they escape main)")
    for key, count in sorted(tally.failures.items()):
        print(f"  failed {count} runs  {key}")
    for problem in problems:
        print(f"trace check: {problem}", file=sys.stderr)
    result = {
        "correct": tally.wrong == 0 and not problems,
        "attempted": attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": metrics[name][0], "unit": metrics[name][1]}
            for name in wanted
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main_cli())
