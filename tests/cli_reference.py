"""`cli.main` as it was before `cli._parse_argv`: every argv went through the
full top-level parse, `parser.parse_args(argv)`.  Kept as the differential
reference for the dispatch tests in `tests/test_cli_dispatch.py`.

The body is unchanged; only the imports were added, and the parser is the
top-level one of the pair that `cli._build_parser` now returns.
"""

from __future__ import annotations

import sys

from inoueaut.cli import (
    EXIT_STDOUT_CLOSED,
    InternalConsistencyError,
    ParameterError,
    ParamFileError,
    StandardFormError,
    ValueTooLargeError,
    _build_parser,
    _diagnose,
    _to_devnull,
)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()[0]
    args = parser.parse_args(argv)
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
