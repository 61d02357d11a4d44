"""Command-line front end.

Commands: analyze, examples, fundamental-unit, check-standard-form, bound.
Exit codes: 0 success, 2 parse error, 3 invalid parameters or a value too
large to print or to factor, 4 not in standard form, 5 internal consistency
failure (always a bug), 141 stdout closed before the report was written (the
reader of a pipe left early, as `| head` does; 128 + SIGPIPE, what a process
killed by SIGPIPE reports).  stdout carries reports, stderr carries
diagnostics.

Parameter files are flat UTF-8 "key = value" lines with '#' comments, a
leading byte-order mark skipped; values follow the grammar of
`exactnum.parse_surd`:

    surface_type = +
    theta = 6
    r = 6
    x1 = 1
    x2 = -1/2 + 1/2*u
    e = 0
    t = 0          # optional; "p/q + r/s*sqrtD + (p/q + r/s*sqrtD)i"

t is "re", "(im)i" or "re + (im)i", each part a value in the symbol sqrtD
(an absent part is 0); it is read into the pair of reduced integer triples
(p, q, den) of its parts (p + q*sqrt(delta))/den, which is how the library
carries t, and written back by `exactnum.format_complex`.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from bisect import bisect_left
from collections import namedtuple
from itertools import repeat
from operator import mod, sub

from .components import (
    AmbientGroup,
    AutReport,
    ComponentGroup,
    GroupStructure,
    InternalConsistencyError,
    automorphism_report,
    order_bound,
    require_standard_form,
)
from .exactnum import (
    ZERO_T,
    Complex,
    ValueTooLargeError,
    format_complex,
    parse_integer,
    parse_surd,
)
from .quadfield import FieldDescriptor, parse_field_element
from .surfacegroup import ParameterError, StandardFormError, SurfaceParams
from .units import fundamental_unit


class ParamFileError(ValueError):
    """A parameter file failed to parse; the message is line-anchored."""


_KEYS = ("surface_type", "theta", "r", "x1", "x2", "e", "t")
_REQUIRED = ("surface_type", "theta", "r", "x1", "x2", "e")
_VALUE_KEYS = ("x1", "x2", "e", "t")
# "re", "(im)i" or "re + (im)i": the "+" is required after a real part.
_COMPLEX_RE = re.compile(r"^(?P<re>[^()]*?)(?:(?:^|\+)\((?P<im>[^()]+)\)i)?$")


def _parse_complex(text: str, symbol: str) -> Complex:
    """Parse "re + (im)i", each part a value in symbol, into the pair of
    reduced triples of its parts; an empty part is 0."""
    match = _COMPLEX_RE.match(text.replace(" ", ""))
    if match is None:
        raise ValueError(f"bad complex value {text!r}")
    re_text, im_text = match.groups()
    return (
        parse_surd(re_text, symbol) if re_text else ZERO_T[0],
        parse_surd(im_text, symbol) if im_text else ZERO_T[1],
    )


def load_param_file(path: str) -> SurfaceParams:
    try:
        # one unbuffered read of the bytes: splitlines() in parse_params breaks
        # at "\r\n" and "\r" as text mode would, without a buffer or a text
        # wrapper
        with open(path, "rb", buffering=0) as handle:
            text = handle.read().decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParamFileError(f"{path}: {exc}") from exc
    return parse_params(text, path)


def _field(surface_type: str, theta: int) -> FieldDescriptor:
    try:
        return FieldDescriptor.from_type(surface_type, theta)
    except ValueError as exc:
        raise ParameterError(str(exc)) from exc


def parse_params(text: str, source: str) -> SurfaceParams:
    """The parameter set of a file's text; each error message is anchored at
    source (the file's path) and the line."""
    # a leading byte-order mark is dropped after decoding, as "utf-8-sig"
    # would, so that a decode error still names a byte offset into the file
    text = text.removeprefix("\ufeff")
    raw: dict[str, tuple[int, str]] = {}  # key -> (line number, value)
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.partition("#")[0].strip()
        if not stripped:
            continue
        key, eq, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if not eq:
            error = "expected 'key = value'"
        elif key not in _KEYS:
            error = f"unknown key {key!r}"
        elif key in raw:
            error = f"duplicate key {key!r}"
        elif not value:
            error = f"empty value for {key!r}"
        else:
            raw[key] = (lineno, value)
            continue
        raise ParamFileError(f"{source}:{lineno}: {error}")
    missing = [k for k in _REQUIRED if k not in raw]
    if missing:
        raise ParamFileError(f"{source}: missing keys: {', '.join(missing)}")
    surface_type = raw["surface_type"][1]
    if surface_type not in ("+", "-"):
        raise ParamFileError(
            f"{source}:{raw['surface_type'][0]}: surface_type must be '+' or '-'"
        )
    try:
        theta = parse_integer(raw["theta"][1])
        r = parse_integer(raw["r"][1])
    except ValueError as exc:
        raise ParamFileError(f"{source}: theta and r must be integers") from exc
    field = _field(surface_type, theta)
    values = []  # x1, x2, e and t, each parse error anchored at source:line
    for key in _VALUE_KEYS:
        if key not in raw:  # only t is optional
            values.append(ZERO_T)
            continue
        lineno, value = raw[key]
        try:
            if key == "t":
                values.append(_parse_complex(value, "sqrtD"))
            else:
                values.append(parse_field_element(value, field))
        except ValueError as exc:
            raise ParamFileError(f"{source}:{lineno}: {exc}") from exc
    return SurfaceParams(field, r, *values)


# -- built-in example parameter sets ------------------------------------------


class BuiltinExample(namedtuple("BuiltinExample", "name expected text")):
    """A worked example: its parameter text (the key lines of its golden
    file) and its published component group."""

    __slots__ = ()


BUILTIN_EXAMPLES: tuple[BuiltinExample, ...] = (
    BuiltinExample(
        "theta=6 r=6 I=Z<1,eta> e=0",
        "Z/2 x Z/2 (order 4)",
        "surface_type = +\ntheta = 6\nr = 6\nx1 = 1\nx2 = -1/2 + 1/2*u\ne = 0\n",
    ),
    BuiltinExample(
        "theta=4 r=6 I=Z[u] e=1/(6(1-u))",
        "Z/2 (order 2)",
        "surface_type = +\ntheta = 4\nr = 6\nx1 = 1\nx2 = u\ne = 1/4 - 1/12*u\n",
    ),
    BuiltinExample(
        "theta=4 r=6 I=Z[u] e=0",
        "trivial (order 1)",
        "surface_type = +\ntheta = 4\nr = 6\nx1 = 1\nx2 = u\ne = 0\n",
    ),
    BuiltinExample(
        "theta=7 r=10 I=Z<1,eta> e=0",
        "(Z/4) ⋉ (Z/5), action = multiplication by 3 (order 20)",
        "surface_type = +\ntheta = 7\nr = 10\nx1 = 1\nx2 = -2/3 + 1/3*u\ne = 0\n",
    ),
)


# -- report rendering ----------------------------------------------------------


def _structure_payload(structure: GroupStructure) -> dict:
    # the fields themselves: json.dumps writes their tuples as lists
    payload = structure._asdict()
    payload["description"] = structure.describe()
    return payload


def _q_payload(q: ComponentGroup) -> dict:
    # json.dumps writes tuples, the (i, k) pairs among them, as lists
    payload = _structure_payload(q.structure)
    payload["elements"] = list(map(q.ambient.pair, q.keys))
    payload["table"] = q.table
    return payload


def _kernel_name(params: SurfaceParams) -> str:
    """The kernel of Aut(X) -> Q: C* for S(+), Z/2 for S(-)."""
    return "C*" if params.field.c0 == 1 else "Z/2"


def _element_texts(ambient: AmbientGroup, keys: list[int]) -> str:
    """"[i,k]" for each key i*|C| + k (ascending), space-separated: written
    one unit exponent's block at a time, with "] [i," as the separator of
    the block's texts of k.  When some k must repeat (|Q| > |C|), each
    distinct k is formatted once."""
    c = ambient.quotient.order
    if len(keys) > c:
        distinct = set(map(mod, keys, repeat(c)))
        text = dict(zip(distinct, map(str, distinct))).__getitem__
    else:
        text = str
    blocks, lo = [], 0
    while lo < len(keys):
        i = keys[lo] // c
        hi = bisect_left(keys, (i + 1) * c, lo)
        ks = map(text, map(sub, keys[lo:hi], repeat(i * c)))
        blocks.append(f"[{i}," + f"] [{i},".join(ks) + "]")
        lo = hi
    return " ".join(blocks)


def machine_payload(report: AutReport) -> dict:
    params = report.params
    ambient = report.q.ambient
    inoue = report.inoue
    payload = {
        "params": {
            "surface_type": params.field.surface_type,
            "theta": params.field.theta,
            "r": params.r,
            "x1": str(params.x1),
            "x2": str(params.x2),
            "e": str(params.e),
            "t": format_complex(params.t, "sqrtD", "i"),
        },
        "standard_form": True,  # the report exists only in standard form
        "validation": {"fractional_ideal": True, "standard_form": True},
        "units": {
            "eta": str(ambient.eta),
            "eta_sigma1": ambient.eta.sigma1().reduced_str(),
            "j": ambient.j,
            "u_gen": str(ambient.u_gen),
            "n": ambient.n,
        },
        "ambient": {
            "order": ambient.order,
            "unit_order": ambient.n,
            "coset_count": ambient.quotient.order,
            "invariant_factors": (ambient.quotient.d1, ambient.quotient.d2),
            "coset_reps": ambient.quotient.rep_texts(),
        },
        "q_group": _q_payload(report.q),
        "bound": ambient.order,
        "kernel": _kernel_name(params),
        "inoue": {
            "N": inoue.matrix,
            "p": inoue.p,
            "q": inoue.q,
            "alpha": str(inoue.alpha),
            "a": [str(inoue.a1), str(inoue.a2)],
            "b": [str(inoue.b1), str(inoue.b2)],
            "c": [str(inoue.c1), str(inoue.c2)],
            "d": str(inoue.d),
        },
        "oracle": {
            "checked": report.oracle_checked,
            "elements": ambient.order if report.oracle_checked else 0,
        },
        "double_r": (
            {
                "r": 2 * params.r,
                "q_group": _q_payload(report.double_r),
                "bound": report.double_r.ambient.order,
            }
            if report.double_r is not None
            else None
        ),
    }
    return payload


def dump_machine(report: AutReport) -> str:
    return json.dumps(machine_payload(report), sort_keys=True, separators=(",", ":"))


def render_report(report: AutReport) -> str:
    params = report.params
    ambient = report.q.ambient
    inoue = report.inoue
    lines = []
    kind = "S(+)" if params.field.c0 == 1 else "S(-)"
    lines.append(
        f"surface {kind}: theta = {params.field.theta}, r = {params.r}, "
        f"delta = {params.field.delta}"
    )
    lines.append(f"  x1 = {params.x1}")
    lines.append(f"  x2 = {params.x2}")
    lines.append(f"  e  = {params.e}")
    lines.append(f"  t  = {format_complex(params.t, 'sqrtD', 'i')}")
    lines.append("validation: fractional ideal: yes; standard form: yes")
    lines.append(
        f"units: eta = {ambient.eta} (sigma1 = {ambient.eta.sigma1().reduced_str()}), "
        f"u_gen = eta^{ambient.j}, u = u_gen^{ambient.n}"
    )
    lines.append(
        f"ambient group: order {ambient.order} = {ambient.n} x "
        f"{ambient.quotient.order}, "
        f"coset factors ({ambient.quotient.d1}, {ambient.quotient.d2})"
    )
    lines.append("  coset reps: " + ", ".join(ambient.quotient.rep_texts()))
    lines.append(
        f"component group Q: order {report.q.order}, {report.q.structure.describe()}"
    )
    lines.append("  elements: " + _element_texts(ambient, report.q.keys))
    lines.append(f"bound: |Q| = {report.q.order} <= {ambient.order}")
    lines.append(f"kernel of Aut(X) -> Q: {_kernel_name(params)}")
    rows = inoue.matrix
    lines.append(
        f"Inoue data: N = [{list(rows[0])}, {list(rows[1])}], "
        f"(p, q) = ({inoue.p}, {inoue.q}), alpha = {inoue.alpha.reduced_str()}"
        f" ~ {float(inoue.alpha):.6f}"
    )
    if report.oracle_checked:
        lines.append(
            f"oracle: membership conditions agree with the normalizer test on "
            f"all {ambient.order} ambient elements"
        )
    else:
        lines.append("oracle: skipped (--no-oracle)")
    if report.double_r is not None:
        lines.append(
            f"double-r cross-check (r = {2 * params.r}): order "
            f"{report.double_r.order}, {report.double_r.structure.describe()}"
        )
    return "\n".join(lines)


# -- commands -------------------------------------------------------------------


def cmd_analyze(args: argparse.Namespace) -> int:
    params = load_param_file(args.file)
    report = automorphism_report(
        params,
        run_oracle=not args.no_oracle,
        with_double_r=args.double_r,
        machine=args.machine,
    )
    if args.machine:
        print(dump_machine(report))
    else:
        print(render_report(report))
    return 0


def cmd_examples(args: argparse.Namespace) -> int:
    all_ok = True
    for example in BUILTIN_EXAMPLES:
        report = automorphism_report(parse_params(example.text, example.name))
        structure = report.q.structure
        computed = f"{structure.describe()} (order {structure.order})"
        ok = computed == example.expected
        all_ok = all_ok and ok
        verdict = "ok" if ok else "MISMATCH"
        print(
            f"{example.name}: expected {example.expected}; computed "
            f"{computed} ... {verdict}"
        )
    if not all_ok:  # the examples' groups are known, so only a bug gets here
        raise InternalConsistencyError("a built-in example gave the wrong group")
    return 0


def cmd_fundamental_unit(args: argparse.Namespace) -> int:
    eta = fundamental_unit(_field(args.type, args.theta))
    print(f"fundamental unit: {eta.sigma1().reduced_str()}")
    print(f"coordinates: {eta}")
    print(f"norm: {eta.norm()}")
    return 0


def cmd_check_standard_form(args: argparse.Namespace) -> int:
    params = load_param_file(args.file)
    try:
        require_standard_form(params)
    except StandardFormError as exc:
        print("standard form: no")
        _diagnose(str(exc))
        return 4
    print("standard form: yes")
    return 0


def cmd_bound(args: argparse.Namespace) -> int:
    params = load_param_file(args.file)
    print(order_bound(params))
    return 0


# Each command's signature: name -> (handler, help, positionals as (dest,
# type, choices), store_true flags as (option string, help)).  The argparse
# parsers are built from it, and _match_argv reads it.
_FILE = (("file", None, None),)
_COMMANDS = {
    "analyze": (cmd_analyze, "full analysis of a parameter file", _FILE, (
        ("--machine", "emit a canonical JSON report"),
        ("--no-oracle", "skip the normalizer cross-check"),
        ("--double-r", "also compute Q for the doubled-r surface (odd-r cross-check)"),
    )),
    "examples": (cmd_examples, "run the built-in example parameter sets", (), ()),
    "fundamental-unit": (
        cmd_fundamental_unit, "fundamental unit of the field",
        (("theta", parse_integer, None), ("type", None, ("+", "-"))), (),
    ),
    "check-standard-form": (
        cmd_check_standard_form, "standard-form test for a parameter file", _FILE, ()
    ),
    "bound": (
        cmd_bound, "cardinality bound n * |Norm(1 - u)| for a parameter file", _FILE, ()
    ),
}


# Built only for an argv that _match_argv refuses, and then once: parse_args
# leaves the parser unchanged, and in-process callers run main many times.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The top-level parser, one subparser per command of _COMMANDS."""
    parser = argparse.ArgumentParser(
        prog="inoueaut",
        description=(
            "Exact computation of the automorphism component group of Inoue "
            "surfaces from quadratic-field data."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, summary, positionals, flags) in _COMMANDS.items():
        command = sub.add_parser(name, help=summary)
        for dest, convert, choices in positionals:
            command.add_argument(dest, type=convert, choices=choices)
        for option, text in flags:
            command.add_argument(option, action="store_true", help=text)
        command.set_defaults(func=func)
    return parser


def _match_argv(argv: list[str]) -> argparse.Namespace | None:
    """The namespace the top-level parser gives argv, less its command, when
    argv is a command's name and then only its exact flags and its declared
    number of positionals ("-" or a token not starting with "-"), each
    passing its type and choices; None for any other argv."""
    command = _COMMANDS.get(argv[0]) if argv else None
    if command is None:
        return None
    func, _, positionals, flags = command
    dests = {option: option[2:].replace("-", "_") for option, _ in flags}
    args = dict.fromkeys(dests.values(), False)
    values = []
    for token in argv[1:]:
        if token in dests:
            args[dests[token]] = True
        elif token == "-" or token[:1] != "-":
            values.append(token)
        else:
            return None
    if len(values) != len(positionals):
        return None
    for (dest, convert, choices), value in zip(positionals, values):
        try:
            value = convert(value) if convert else value
        except ValueError:
            return None
        if choices is not None and value not in choices:
            return None
        args[dest] = value
    return argparse.Namespace(func=func, **args)


def _parse_argv(argv: list[str]) -> argparse.Namespace:
    """argv parsed as the top-level parser would parse it: a well-formed argv
    builds no parser, and argparse writes all help, usage and error text."""
    args = _match_argv(argv)
    return _build_parser().parse_args(argv) if args is None else args


# The exit code when stdout is closed early.
EXIT_STDOUT_CLOSED = 141


def _to_devnull(stream) -> None:
    """Point the file descriptor under stream at the null device, so that the
    interpreter's final flush of what is still buffered stays silent."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, stream.fileno())
    os.close(devnull)


def _diagnose(message: str) -> None:
    """Print a diagnostic on stderr; when stderr's reader is gone, drop it."""
    try:
        print(message, file=sys.stderr, flush=True)
    except BrokenPipeError:
        _to_devnull(sys.stderr)


def main(argv: list[str] | None = None) -> int:
    args = _parse_argv(sys.argv[1:] if argv is None else argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        _to_devnull(sys.stdout)
        return EXIT_STDOUT_CLOSED
    except ParamFileError as exc:
        _diagnose(f"parse error: {exc}")
        return 2
    except ParameterError as exc:
        _diagnose(f"invalid parameters: {exc}")
        return 3
    except ValueTooLargeError as exc:
        _diagnose(str(exc))
        return 3
    except StandardFormError as exc:
        _diagnose(f"not in standard form: {exc}")
        return 4
    except InternalConsistencyError as exc:
        _diagnose(f"internal consistency failure (bug): {exc}")
        return 5


if __name__ == "__main__":
    sys.exit(main())
