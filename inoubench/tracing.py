"""Spans around the program's layers, recorded from outside the program.

A span is opened around each call of a wrapped function.  Spans stay in
memory as parallel arrays (name, operation, parent, start, end) and are
written out when the run ends.  A layer's self time is its span's duration
minus the part of that interval its child spans cover.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
from array import array
from time import perf_counter_ns


class Tracer:
    """Span store plus the counters the ratio metrics need."""

    def __init__(self, names: list[str]):
        self.names = names
        self.name = array("H")
        self.op = array("l")
        self.parent = array("l")
        self.start = array("q")
        self.end = array("q")
        self.stack: list[int] = []
        self.current_op = -1
        self.ambient_elements = 0
        self.q_elements = 0
        self.words_accepted = 0

    def wrap(self, fn, span: str):
        name_id = self.names.index(span)
        observe = _OBSERVERS.get(span)
        stack = self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(name_id)
            self.op.append(self.current_op)
            self.parent.append(stack[-1] if stack else -1)
            self.end.append(0)
            stack.append(idx)
            self.start.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter_ns()
                stack.pop()
            if observe is not None:
                observe(self, result)
            return result

        return traced

    def totals(self) -> dict[str, tuple[int, float]]:
        """span name -> (calls, self time in ms)."""
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        for idx, own in enumerate(self_times(self.start, self.end, self.parent)):
            calls[self.name[idx]] += 1
            self_ns[self.name[idx]] += own
        return {
            name: (calls[k], self_ns[k] / 1e6) for k, name in enumerate(self.names)
        }

    def write(self, path) -> None:
        own = self_times(self.start, self.end, self.parent)
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span\top\tparent\tname\tstart_ns\tend_ns\tself_ns\n")
            for idx in range(len(self.start)):
                out.write(
                    f"{idx}\t{self.op[idx]}\t{self.parent[idx]}\t"
                    f"{self.names[self.name[idx]]}\t{self.start[idx]}\t"
                    f"{self.end[idx]}\t{own[idx]}\n"
                )


def _count_ambient(tracer: Tracer, ambient) -> None:
    tracer.ambient_elements += ambient.order


def _count_q(tracer: Tracer, q) -> None:
    tracer.q_elements += q.order


def _count_word(tracer: Tracer, accepted) -> None:
    tracer.words_accepted += bool(accepted)


_OBSERVERS = {
    "components.ambient": _count_ambient,
    "components.component_group": _count_q,
    "surfacegroup.word_problem": _count_word,
}


def self_times(start, end, parent) -> list[int]:
    """Duration of each span minus the union of its children's intervals
    (clipped to the parent), so overlapping children are not counted twice."""
    covered = [0] * len(start)
    reach: dict[int, int] = {}  # parent -> end of the children's union so far
    for idx in sorted(range(len(start)), key=start.__getitem__):
        p = parent[idx]
        if p < 0:
            continue
        lo = max(start[idx], reach.get(p, start[p]))
        hi = min(end[idx], end[p])
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    return [end[k] - start[k] - covered[k] for k in range(len(start))]


def resolve(target: str):
    """'pkg.module:Class.attr' -> the function object it names."""
    module_name, _, qualname = target.partition(":")
    obj = importlib.import_module(module_name)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    return obj


def install(tracer: Tracer, spans: dict[str, list[str]], package: str):
    """Replaces every binding of each wrapped function in the package's
    modules and classes (re-exports, ``from x import f`` copies and aliases
    such as ``__rmul__ = __mul__``).  Returns the undo list for uninstall."""
    wrappers = {}
    for span, targets in spans.items():
        for target in targets:
            fn = resolve(target)
            wrappers[id(fn)] = (fn, tracer.wrap(fn, span))
    owners = []
    for name, module in list(sys.modules.items()):
        if name != package and not name.startswith(package + "."):
            continue
        owners.append(module)
        owners.extend(
            obj for obj in vars(module).values()
            if isinstance(obj, type) and obj.__module__ == name
        )
    undo = []
    for owner in owners:
        for attr, value in list(vars(owner).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(owner, attr, hit[1])
                undo.append((owner, attr, value))
    return undo


def uninstall(undo) -> None:
    for owner, attr, value in reversed(undo):
        setattr(owner, attr, value)
