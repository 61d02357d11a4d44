"""Output checks, applied to every operation outside the timed region.

Each check answers from the operation's exit code and stdout alone, against
facts the generator fixed when it built the input.  At the default seed the
stdout of every operation must also match the digest recorded for it.
"""

from __future__ import annotations

import hashlib
import json
import re
from fractions import Fraction

from workloads import Op

_ANCHORS = re.compile(r"ambient group: order (\d+) = (\d+) x (\d+),")
_Q_ORDER = re.compile(r"^component group Q: order (\d+),", re.M)
_TERM = re.compile(r"[+-]?[^+-]+")


def digest(stdout: str) -> str:
    return hashlib.sha256(stdout.encode("utf-8")).hexdigest()


def norm_one_minus_u(c0: int, theta: int) -> int:
    """|Norm(1 - u)| = |1 - theta + c0|, the number of cosets in I(1-u)^-1/I."""
    return abs(1 - theta + c0)


def outcome(op: Op, code, error: str | None, stdout: str) -> str | None:
    """None when the operation did what the contract says, else why not."""
    if error is not None:
        return f"{error} escaped main"
    if code == 5:
        return "exit 5 (internal consistency failure)"
    if code != op.expect:
        return f"exit {code}, expected {op.expect}"
    try:
        return _CHECKS[op.kind.partition(":")[0]](op, stdout)
    except (ValueError, KeyError, TypeError, IndexError, AttributeError,
            ArithmeticError) as exc:
        return f"unreadable output: {exc!r}"


def _reject(op: Op, stdout: str) -> str | None:
    return None if stdout == "" else "a rejected input wrote to stdout"


def _machine(op: Op, stdout: str) -> str | None:
    doc = json.loads(stdout)
    facts = op.facts
    h = doc["ambient"]["order"]
    q = doc["q_group"]["order"]
    n = doc["units"]["n"]
    cosets = norm_one_minus_u(facts["c0"], facts["theta"])
    if h % q:
        return f"|Q| = {q} does not divide |H| = {h}"
    if h != n * cosets or doc["ambient"]["coset_count"] != cosets:
        return f"|H| = {h} is not n * |Norm(1-u)| = {n} * {cosets}"
    if doc["oracle"] != {"checked": True, "elements": h}:
        return "the oracle did not sweep all of H"
    if doc["params"]["r"] % 2:
        double = doc["double_r"]
        if double is None or h % double["q_group"]["order"]:
            return "odd r without a consistent --double-r result"
    for key, value in facts.get("q", {}).items():
        if doc["q_group"][key] != value:
            return f"worked example: Q {key} = {doc['q_group'][key]}, published {value}"
    return None


def _ladder(op: Op, stdout: str) -> str | None:
    facts = op.facts
    h, n, cosets = map(int, _ANCHORS.search(stdout).groups())
    q = int(_Q_ORDER.search(stdout).group(1))
    if cosets != norm_one_minus_u(facts["c0"], facts["theta"]) or h != n * cosets:
        return f"|H| = {h} is not n * |Norm(1-u)|"
    if h != facts["order"] or q != h:
        return f"|H| = {h}, |Q| = {q}; the rung has |Q| = |H| = {facts['order']}"
    if not stdout.rstrip("\n").endswith("oracle: skipped (--no-oracle)"):
        return "the oracle ran under --no-oracle"
    return None


def parse_elem(text: str) -> tuple[Fraction, Fraction]:
    """a + b*u as printed by the CLI ("1/2 - 3*u", "u", "-7")."""
    a = b = Fraction(0)
    compact = text.replace(" ", "")
    for term in _TERM.findall(compact):
        if term.endswith("u"):
            coeff = term[:-1].rstrip("*")
            b += Fraction(coeff + "1" if coeff in ("", "+", "-") else coeff)
        else:
            a += Fraction(term)
    return a, b


def _surd_sign(p: Fraction, q: Fraction, delta: int) -> int:
    """Sign of p + q*sqrt(delta), delta a positive non-square."""
    if p >= 0 and q >= 0:
        return int(p > 0 or q > 0)
    if p <= 0 and q <= 0:
        return -1
    sign = 1 if p > 0 else -1
    return sign if p * p > q * q * delta else -sign


def _fundamental_unit(op: Op, stdout: str) -> str | None:
    theta, c0 = op.facts["theta"], op.facts["c0"]
    lines = dict(line.split(": ", 1) for line in stdout.splitlines())
    a, b = parse_elem(lines["coordinates"])
    nrm = a * a + a * b * theta + b * b * c0
    if nrm not in (1, -1) or Fraction(lines["norm"]) != nrm:
        return f"eta = {lines['coordinates']} is not a unit of the printed norm"
    delta = theta * theta - 4 * c0
    # sigma1(eta) = a + b*(theta + sqrt(delta))/2 must exceed 1.
    if _surd_sign(a + b * Fraction(theta, 2) - 1, b / 2, delta) <= 0:
        return "sigma1(eta) <= 1"
    power = (a, b)
    for _ in range(64):
        if power == (0, 1):
            return None
        bb = power[1] * b
        power = (power[0] * a - c0 * bb, power[0] * b + power[1] * a + theta * bb)
    return "u is not a power of eta"


def _bound(op: Op, stdout: str) -> str | None:
    bound = int(stdout)
    cosets = norm_one_minus_u(op.facts["c0"], op.facts["theta"])
    if bound <= 0 or bound % cosets:
        return f"bound {bound} is not a positive multiple of |Norm(1-u)| = {cosets}"
    return None


def _standard_form(op: Op, stdout: str) -> str | None:
    want = "standard form: yes\n" if op.expect == 0 else "standard form: no\n"
    return None if stdout == want else f"printed {stdout!r}"


_CHECKS = {
    "analyze": _machine,
    "worked": _machine,
    "ladder": _ladder,
    "fundamental-unit": _fundamental_unit,
    "bound": _bound,
    "check-standard-form": _standard_form,
    "reject": _reject,
}
