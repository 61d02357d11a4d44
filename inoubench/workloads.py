"""Seeded inputs for the three workloads.

Every operation is one ``inoueaut.cli.main(argv)`` call.  The generator
builds its parameter files with its own exact arithmetic in
K = Q[u]/(u^2 - theta*u + c0), so the inputs (and the exit code each one
must produce under the CLI contract) do not depend on the code under test.

A workload is a short list of operations that each run repeats, so every
operation is timed several times.  The list is a sequence of
fixed-composition blocks: the same mix of families, commands and reject
kinds in every block, the seed choosing the values in each slot.  The
properties that set an operation's cost (theta, r and the ideal class on
survey, the rungs on ladder, the theta strata on units) are fixed or
stratified, so runs on different seeds measure comparable work; the seed
picks bases, scalings, e, t and the order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt

F = Fraction
Elem = tuple  # (a, b) with Fraction entries, meaning a + b*u

DEFAULT_SEED = 1


@dataclass(frozen=True)
class Op:
    """One CLI call: argv (``{file}`` stands for the parameter file), the
    file text if any, the exit code the contract prescribes, a kind tag and
    the facts the output check needs."""

    argv: tuple[str, ...]
    text: str | None
    expect: int
    kind: str
    facts: dict = field(default_factory=dict)


# -- exact arithmetic in K ----------------------------------------------------


def mul(x: Elem, y: Elem, theta: int, c0: int) -> Elem:
    bb = x[1] * y[1]
    return (x[0] * y[0] - c0 * bb, x[0] * y[1] + x[1] * y[0] + theta * bb)


def norm(x: Elem, theta: int, c0: int) -> Fraction:
    return x[0] * x[0] + x[0] * x[1] * theta + x[1] * x[1] * c0


def inv(x: Elem, theta: int, c0: int) -> Elem:
    n = norm(x, theta, c0)
    return ((x[0] + x[1] * theta) / n, -x[1] / n)


def add(x: Elem, y: Elem) -> Elem:
    return (x[0] + y[0], x[1] + y[1])


def scale(q, x: Elem) -> Elem:
    return (q * x[0], q * x[1])


def coords(z: Elem, x1: Elem, x2: Elem) -> tuple[Fraction, Fraction]:
    """(m, n) with z = m*x1 + n*x2."""
    det = x1[0] * x2[1] - x2[0] * x1[1]
    return (z[0] * x2[1] - z[1] * x2[0]) / det, (x1[0] * z[1] - x1[1] * z[0]) / det


def u_matrix(x1: Elem, x2: Elem, theta: int, c0: int) -> tuple[int, int, int, int]:
    """Integer matrix of multiplication by u on the basis (x1, x2)."""
    u = (F(0), F(1))
    n11, n12 = coords(mul(u, x1, theta, c0), x1, x2)
    n21, n22 = coords(mul(u, x2, theta, c0), x1, x2)
    entries = (n11, n12, n21, n22)
    if any(v.denominator != 1 for v in entries):
        raise ValueError("basis does not span a fractional ideal")
    return tuple(int(v) for v in entries)


def standard_e(theta, c0, r, x1, x2, p, q) -> Elem:
    """The e putting the group in standard form with central offsets (p, q):
    e = u/(1-u) * ((n11 n12/2 + p/r) x2 - (n21 n22/2 + q/r) x1), with
    u/(u-1) in place of u/(1-u) for the minus family."""
    n11, n12, n21, n22 = u_matrix(x1, x2, theta, c0)
    u = (F(0), F(1))
    one_minus_u = (F(1), F(-1)) if c0 == 1 else (F(-1), F(1))
    factor = mul(u, inv(one_minus_u, theta, c0), theta, c0)
    w = add(scale(F(n11 * n12, 2) + F(p, r), x2), scale(-(F(n21 * n22, 2) + F(q, r)), x1))
    return mul(factor, w, theta, c0)


def off_standard_e(theta, r, x1, e) -> Elem:
    """Plus family: shifts the standard-form residue
    (1-u)/u e + (n21 n22/2) x1 - (n11 n12/2) x2 by x1/(2r), which is not in
    I/r, so the group leaves standard form."""
    u = (F(0), F(1))
    factor = mul(u, inv((F(1), F(-1)), theta, 1), theta, 1)
    return add(e, mul(factor, scale(F(1, 2 * r), x1), theta, 1))


def fundamental_unit_lucas(theta: int, c0: int) -> Elem:
    """(1 + sqrt5)/2 in the basis {1, u}, for theta with theta^2 - 4c0 = 5 s^2."""
    delta = theta * theta - 4 * c0
    s = isqrt(delta // 5)
    if 5 * s * s != delta:
        raise ValueError(f"theta = {theta} is not a Lucas number for c0 = {c0}")
    return (F(s - theta, 2 * s), F(1, s))


# -- text syntax of the CLI parameter files -----------------------------------


def fmt_elem(x: Elem) -> str:
    a, b = x
    if b == 0:
        return str(a)
    coeff = "" if abs(b) == 1 else f"{abs(b)}*"
    if a == 0:
        return f"{'-' if b < 0 else ''}{coeff}u"
    return f"{a} {'-' if b < 0 else '+'} {coeff}u"


def fmt_surd(rat: Fraction, irr: Fraction) -> str:
    if irr == 0:
        return str(rat)
    coeff = "" if abs(irr) == 1 else f"{abs(irr)}*"
    if rat == 0:
        return f"{'-' if irr < 0 else ''}{coeff}sqrtD"
    return f"{rat} {'-' if irr < 0 else '+'} {coeff}sqrtD"


def fmt_t(t) -> str:
    re, im = t
    if im == (0, 0):
        return fmt_surd(*re)
    return f"{fmt_surd(*re)} + ({fmt_surd(*im)})i"


def param_text(kind, theta, r, x1, x2, e, t=None, override=None) -> str:
    values = {
        "surface_type": kind,
        "theta": str(theta),
        "r": str(r),
        "x1": fmt_elem(x1),
        "x2": fmt_elem(x2),
        "e": fmt_elem(e),
    }
    if t is not None:
        values["t"] = fmt_t(t)
    values.update(override or {})
    return "".join(f"{k} = {v}\n" for k, v in values.items())


# -- random data --------------------------------------------------------------


def rand_rational(rng: random.Random, span: int) -> Fraction:
    return F(rng.randint(-span, span), rng.choice((1, 1, 2, 3)))


def ideal_class(rng: random.Random, theta: int, c0: int) -> tuple[int, int]:
    """(a, c) with a | Norm(c + u), naming the integral ideal Z<a, c + u>."""
    while True:
        a = rng.randint(1, 4)
        admissible = [c for c in range(a) if (c * c + theta * c + c0) % a == 0]
        if admissible:
            return a, rng.choice(admissible)


def rand_ideal(rng: random.Random, theta: int, c0: int, a: int, c: int):
    """A basis of the fractional ideal s * Z<a, c + u>: unimodular basis
    moves and a random nonzero scaling s, which keep it an ideal of Z[u]."""
    b1, b2 = unimodular_moves(rng, (F(a), F(0)), (F(c), F(1)))
    while True:
        s = (rand_rational(rng, 2), rand_rational(rng, 2))
        if norm(s, theta, c0):
            break
    return mul(s, b1, theta, c0), mul(s, b2, theta, c0)


def unimodular_moves(rng: random.Random, b1: Elem, b2: Elem) -> tuple[Elem, Elem]:
    for _ in range(rng.randint(0, 3)):
        move = rng.randrange(3)
        m = rng.randint(-2, 2)
        if move == 0:
            b1 = add(b1, scale(m, b2))
        elif move == 1:
            b2 = add(b2, scale(m, b1))
        else:
            b1, b2 = b2, b1
    return b1, b2


def rand_t(rng: random.Random):
    zero = (F(0), F(0))
    roll = rng.random()
    if roll < 0.5:
        return (zero, zero)
    if roll < 0.65:
        return ((rand_rational(rng, 3), F(0)), zero)
    if roll < 0.85:
        return ((F(0), rand_rational(rng, 3)), zero)
    return (
        (rand_rational(rng, 2), rand_rational(rng, 2)),
        (rand_rational(rng, 2), rand_rational(rng, 2)),
    )


def rand_surface(rng: random.Random, c0: int, theta: int, r: int, ideal):
    """A standard-form parameter set (x1, x2, e, t) of family c0 whose ideal
    is a scaled Z<a, c + u>, ideal = (a, c)."""
    x1, x2 = rand_ideal(rng, theta, c0, *ideal)
    p, q = rng.randint(-2 * r, 2 * r), rng.randint(-2 * r, 2 * r)
    e = standard_e(theta, c0, r, x1, x2, p, q)
    t = rand_t(rng) if c0 == 1 else None
    return x1, x2, e, t


def family(c0: int) -> str:
    return "+" if c0 == 1 else "-"


# -- survey -------------------------------------------------------------------

# The four worked examples with their published component groups.
WORKED_EXAMPLES = (
    (6, 6, (F(1), F(0)), (F(-1, 2), F(1, 2)), (F(0), F(0)),
     {"order": 4, "invariant_factors": [2, 2]}),
    (4, 6, (F(1), F(0)), (F(0), F(1)), (F(1, 4), F(-1, 12)),
     {"order": 2, "invariant_factors": [2]}),
    (4, 6, (F(1), F(0)), (F(0), F(1)), (F(0), F(0)),
     {"order": 1, "invariant_factors": []}),
    (7, 10, (F(1), F(0)), (F(-2, 3), F(1, 3)), (F(0), F(0)),
     {"order": 20, "quotient_order": 4, "kernel_factors": [5], "action": [[3]],
      "split": True}),
)

# Reject kinds, four per block, so every two blocks hold each kind once.
# Zero denominators in x1, x2 or e are a known defect of the parser: the
# contract says exit 2, but the error escapes main.  They stay in the mix
# and count as failures.
SURVEY_REJECTS = (
    "nonstandard_e", "bad_theta", "dependent_basis", "malformed",
    "zero_den_x1", "zero_den_t", "zero_den_x2", "zero_den_e",
)
KNOWN_DEFECT = ("reject:zero_den_x1", "reject:zero_den_x2", "reject:zero_den_e")
SURVEY_BLOCK_ACCEPTS = (1, 1, 1, 1, 1, 1, 1, 1, -1, -1, -1, -1)  # c0 per slot
SURVEY_BLOCKS = 7


def survey_analyze(text: str, r: int, expect: int, kind: str, facts: dict) -> Op:
    argv = ["analyze", "--machine", "{file}"]
    if r % 2:
        argv.append("--double-r")
    return Op(tuple(argv), text, expect, kind, facts)


def survey_shape(shapes: random.Random, c0: int):
    """(theta, r, ideal class) of a small surface; drawn from a generator
    that ignores the seed, so |H| and the --double-r share, which set an
    analysis' cost, have the same mix on every seed."""
    theta = shapes.randint(3, 12) if c0 == 1 else shapes.randint(1, 12)
    return theta, shapes.randint(1, 12), ideal_class(shapes, theta, c0)


def survey_accept(rng: random.Random, shapes: random.Random, c0: int) -> Op:
    theta, r, ideal = survey_shape(shapes, c0)
    x1, x2, e, t = rand_surface(rng, c0, theta, r, ideal)
    text = param_text(family(c0), theta, r, x1, x2, e, t)
    return survey_analyze(text, r, 0, "analyze", {"c0": c0, "theta": theta})


def survey_reject(rng: random.Random, shapes: random.Random, why: str) -> Op:
    c0 = 1 if why in ("nonstandard_e", "zero_den_t") else shapes.choice((1, -1))
    theta, r, ideal = survey_shape(shapes, c0)
    x1, x2, e, t = rand_surface(rng, c0, theta, r, ideal)
    override: dict[str, str] = {}
    expect = 2
    if why == "nonstandard_e":
        e, expect = off_standard_e(theta, r, x1, e), 4
    elif why == "bad_theta":
        bad = rng.randint(-3, 2) if c0 == 1 else rng.randint(-3, 0)
        override["theta"], expect = str(bad), 3
    elif why == "dependent_basis":
        k = F(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2, 3)))
        x2, expect = scale(k, x1), 3
    elif why == "malformed":
        key, bad = rng.choice((
            ("x1", "1//2"), ("x2", "2 + + u"), ("e", "1/2*v"), ("theta", "six"),
            ("r", "1.5"), ("surface_type", "*"), ("e", "u*u"),
        ))
        override[key] = bad
    elif why == "zero_den_t":
        override["t"] = rng.choice(("1/0", "1/0*sqrtD", "(1/0)i"))
    else:  # zero denominator in x1, x2 or e
        key = why.rsplit("_", 1)[1]
        override[key] = rng.choice(("1/0", "3/0", "1/0*u", "1 + 2/0*u"))
    text = param_text(family(c0), theta, r, x1, x2, e, t, override)
    return survey_analyze(text, r, expect, f"reject:{why}", {"c0": c0})


def survey(seed: int) -> list[Op]:
    """Everyday analyze --machine calls with the oracle on, odd r adding
    --double-r: small surfaces of both families, the four worked examples,
    and a quarter rejects."""
    rng = random.Random(f"survey-{seed}")
    shapes = random.Random("survey-shapes")
    ops: list[Op] = []
    for block in range(SURVEY_BLOCKS):
        slots = [survey_accept(rng, shapes, c0) for c0 in SURVEY_BLOCK_ACCEPTS]
        if block == 0:
            for k, (theta, r, x1, x2, e, q) in enumerate(WORKED_EXAMPLES):
                text = param_text("+", theta, r, x1, x2, e)
                slots[k] = survey_analyze(
                    text, r, 0, "worked", {"c0": 1, "theta": theta, "q": q}
                )
        for k in range(4):
            why = SURVEY_REJECTS[(4 * block + k) % len(SURVEY_REJECTS)]
            slots.append(survey_reject(rng, shapes, why))
        if block:
            rng.shuffle(slots)
        ops.extend(slots)
    return ops


# -- ladder -------------------------------------------------------------------

# (family c0, theta, ideal, r choices, offset step, |H|).  "eta" is
# I = Z<1, eta> with eta = (1 + sqrt5)/2 and u = eta^n (theta a Lucas
# number); "order" is I = Z[u] at a theta where u is fundamental (n = 1).
# The r choices and offsets (multiples of the step) make Q all of H, so
# the coset tables, the |Q|^2 Cayley table and the classification run at
# full size on every rung.
LADDER_RUNGS = (
    (1, 18, "eta", (4, 8, 12), 4, 96),
    (1, 100, "order", (196,), 98, 98),
    (-1, 100, "order", (100, 200), 100, 100),
    (1, 200, "order", (396,), 198, 198),
    (-1, 200, "order", (200, 400), 200, 200),
    (-1, 29, "eta", (29, 58), 29, 203),
    (1, 47, "eta", (15, 30, 45), 15, 360),
    (-1, 76, "eta", (38, 76), 38, 684),
    (1, 123, "eta", (11, 22), 11, 1210),
)


def ladder(seed: int) -> list[Op]:
    """analyze --no-oracle with the text report over a fixed ladder of |H|,
    one op per rung; the seed picks r, the ideal basis and e."""
    rng = random.Random(f"ladder-{seed}")
    ops = []
    for c0, theta, ideal, rs, step, order in LADDER_RUNGS:
        x2 = fundamental_unit_lucas(theta, c0) if ideal == "eta" else (F(0), F(1))
        x1, x2 = unimodular_moves(rng, (F(1), F(0)), x2)
        r = rng.choice(rs)
        p, q = step * rng.randint(-3, 3), step * rng.randint(-3, 3)
        e = standard_e(theta, c0, r, x1, x2, p, q)
        text = param_text(family(c0), theta, r, x1, x2, e)
        facts = {"c0": c0, "theta": theta, "order": order}
        ops.append(Op(("analyze", "{file}", "--no-oracle"), text, 0, "ladder", facts))
    return ops


# -- units --------------------------------------------------------------------

UNITS_THETA = (10**4, 3 * 10**6)
UNITS_PER_COMMAND = 4  # ops of each command in a block
UNITS_BLOCKS = 9


def units(seed: int) -> list[Op]:
    """fundamental-unit, bound and check-standard-form at theta drawn
    log-uniformly from 1e4 to 3e6; H is never built.

    Each command's log-theta range is cut into UNITS_PER_COMMAND *
    UNITS_BLOCKS strata.  Slot k of block j takes the k-th quarter's stratum
    at the block's golden-ratio rank, so any prefix of whole blocks covers
    the range evenly.  Trial division costs about sqrt(theta^2 -+ 4) over
    its small square factors, which a theta drawn per seed would make a
    lottery of up to 4x per operation; so theta comes from a fixed draw and
    the seed picks the ideals, r, e, t and the order."""
    rng = random.Random(f"units-{seed}")
    shapes = random.Random("units-shapes")
    lo, hi = UNITS_THETA
    golden = (5**0.5 - 1) / 2
    rank = sorted(range(UNITS_BLOCKS), key=lambda j: (j * golden) % 1)
    ops = []
    for j in range(UNITS_BLOCKS):

        def theta_at(k: int) -> int:
            stratum = k * UNITS_BLOCKS + rank.index(j)
            share = (stratum + shapes.random()) / (UNITS_PER_COMMAND * UNITS_BLOCKS)
            return int(lo * (hi / lo) ** share)

        block = []
        for k in range(UNITS_PER_COMMAND):
            theta, c0 = theta_at(k), (1, -1)[k % 2]
            block.append(Op(("fundamental-unit", str(theta), family(c0)), None, 0,
                            "fundamental-unit", {"c0": c0, "theta": theta}))
        for k in range(UNITS_PER_COMMAND):
            theta, c0, r = theta_at(k), (-1, 1)[k % 2], rng.randint(1, 12)
            x1, x2, e, t = rand_surface(rng, c0, theta, r, ideal_class(rng, theta, c0))
            text = param_text(family(c0), theta, r, x1, x2, e, t)
            block.append(Op(("bound", "{file}"), text, 0, "bound", {"c0": c0, "theta": theta}))
        for k in range(UNITS_PER_COMMAND):
            theta, c0, r = theta_at(k), (-1 if k == 0 else 1), rng.randint(1, 12)
            x1, x2, e, t = rand_surface(rng, c0, theta, r, ideal_class(rng, theta, c0))
            expect = 0
            if k == 3:
                e, expect = off_standard_e(theta, r, x1, e), 4
            text = param_text(family(c0), theta, r, x1, x2, e, t)
            block.append(Op(("check-standard-form", "{file}"), text, expect,
                            "check-standard-form", {"c0": c0, "theta": theta}))
        rng.shuffle(block)
        ops.extend(block)
    return ops


WORKLOADS = {"survey": survey, "ladder": ladder, "units": units}
