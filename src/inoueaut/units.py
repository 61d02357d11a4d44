"""Unit-group computations for the quadratic orders in play.

Fundamental units come from the classical continued-fraction expansion with
the exact (P, Q) integer recurrence; everything downstream (generator of the
lattice-fixing units, power indices) is exact repeated multiplication, never
logarithms.
"""

from __future__ import annotations

from math import gcd, isqrt

from .exactnum import InternalConsistencyError, Triple, square_decompose, surd_sign
from .lattice import Lattice
from .quadfield import FieldDescriptor, FieldElement


def _cf_unit(disc: int) -> tuple[int, int]:
    """Fundamental unit (p + q*sqrt(disc))/2 of the order of discriminant disc.

    Expands the reduced quadratic irrational (b + sqrt(disc))/2, b the largest
    integer below sqrt(disc) with b = disc (mod 2); the expansion is purely
    periodic, and the convergent denominators over one period give the unit.
    """
    d0 = isqrt(disc)
    b = d0 if (d0 - disc) % 2 == 0 else d0 - 1
    p_state, q_state = b, 2
    start = (p_state, q_state)
    km2, km1 = 1, 0  # convergent denominators q_{-2}, q_{-1}
    while True:
        a = (p_state + d0) // q_state
        km2, km1 = km1, a * km1 + km2
        p_state = a * q_state - p_state
        q_state = (disc - p_state * p_state) // q_state
        if (p_state, q_state) == start:
            break
    return km1 * b + 2 * km2, km1


def fundamental_unit(field: FieldDescriptor) -> FieldElement:
    """The fundamental unit eta of the maximal order, with sigma1(eta) > 1."""
    s, m = square_decompose(field.delta)
    if m % 4 == 1:
        disc, scale = m, 1
    else:
        disc, scale = 4 * m, 2
    p, q = _cf_unit(disc)
    # eta = (p + q*sqrt(disc))/2 with sqrt(disc) = scale*sqrt(m) and
    # sqrt(m) = (2u - theta)/s, so eta = (p*s - q*scale*theta + 2*q*scale*u)/(2s).
    eta = FieldElement._reduced(
        p * s - q * scale * field.theta, 2 * q * scale, 2 * s, field
    )
    if not eta.is_unit():
        raise InternalConsistencyError(f"continued fraction produced a non-unit: {eta}")
    # p, q > 0 for the reduced seed, so sigma1(eta) > 1 always holds
    if sigma1_sign(eta.as_integer_triple(), field.theta, field.delta, 1) <= 0:
        raise InternalConsistencyError(
            f"continued fraction produced a unit with sigma1 <= 1: {eta}"
        )
    return eta


def unit_exponent(value: FieldElement, base: FieldElement) -> int | None:
    """The k in Z with value = base**k, or None if there is none.

    Needs sigma1(base) > 1 and sigma1(value) > 0; see triple_exponent.
    """
    field = base.field
    if value.field is not field and value.field != field:
        raise ValueError(f"field mismatch: {value.field} vs {field}")
    return triple_exponent(
        value.as_integer_triple(), base.as_integer_triple(), field.theta, field.c0
    )


def sigma1_sign(x: Triple, theta: int, delta: int, c: int = 0) -> int:
    """The sign of sigma1(x) - c, for the integer c and x = (p + q*u)/den:
    with sigma1(u) = (theta + sqrt(delta))/2,
        2 den (sigma1(x) - c) = 2p + theta q - 2c den + q sqrt(delta)."""
    p, q, den = x
    return surd_sign(2 * p + theta * q - 2 * c * den, q, delta)


def triple_exponent(value: Triple, base: Triple, theta: int, c0: int) -> int | None:
    """unit_exponent on the integer triples (p, q, den) of (p + q*u)/den.

    sigma1(base**k) grows strictly with k, so the search walks from k = 0
    towards value and stops once sigma1 of the power passes sigma1(value):
    O(log sigma1(value)) products, bounded by the input alone.  sigma1 is
    compared by the exact sign of
        2 den(b) den(a) (sigma1(a) - sigma1(b)) = A + B sqrt(delta),
    A = (2 p_a + theta q_a) den_b - (2 p_b + theta q_b) den_a and
    B = q_a den_b - q_b den_a.
    """
    delta = theta * theta - 4 * c0
    p, q, d = value
    sign = 1
    if sigma1_sign(value, theta, delta, 1) < 0:
        # sigma1(value) < 1, so k < 0: search for value^-1 = base**-k
        nrm = p * p + theta * p * q + c0 * q * q
        if nrm == 0:
            raise ZeroDivisionError("division by zero")
        p, q, d = d * (p + theta * q), -d * q, nrm
        g = gcd(p, q, d) if d > 0 else -gcd(p, q, d)
        p, q, d, sign = p // g, q // g, d // g, -1
    bp, bq, bd = base
    a = 2 * p + theta * q
    pp, pq, pd, k = 1, 0, 1, 0
    while pp != p or pq != q or pd != d:
        if surd_sign((2 * pp + theta * pq) * d - a * pd, pq * d - q * pd, delta) > 0:
            return None
        qq = pq * bq
        pp, pq, pd = pp * bp - c0 * qq, pp * bq + pq * bp + theta * qq, pd * bd
        g = gcd(pp, pq, pd)
        pp, pq, pd, k = pp // g, pq // g, pd // g, k + 1
    return sign * k


def utheta_exponent(field: FieldDescriptor, base: FieldElement) -> int:
    """The integer n >= 1 with base**n = u."""
    if base.field is not field and base.field != field:
        raise ValueError("base lives in a different field")
    if not base.is_unit():
        raise ValueError(f"base must be a unit, got norm {base.norm()}")
    if sigma1_sign(base.as_integer_triple(), field.theta, field.delta, 1) <= 0:
        raise ValueError(f"base must have sigma1 > 1, got {base}")
    n = unit_exponent(field.u(), base)
    if n is None:
        raise ValueError(f"u is not a power of {base}")
    return n


def invariant_unit_generator(
    lat: Lattice, eta: FieldElement
) -> tuple[FieldElement, int, int]:
    """(u_gen, j, n): for eta the fundamental unit, the generator
    u_gen = eta**j of the positive units mapping the lattice onto itself,
    and the n >= 1 with u_gen**n = u.

    j is the least positive exponent with eta**j mapping the lattice into
    itself; the search is bounded by the exponent n_max with
    eta**n_max = u, which exists because the lattice is required to be a
    fractional ideal of Z[u].  Then n = n_max / j.
    """
    field = lat.field
    n_max = utheta_exponent(field, eta)
    power_unit = eta
    for j in range(1, n_max + 1):
        if lat.mult_matrix(power_unit) is not None:
            # The exponents k with eta**k acting integrally are the multiples
            # of j, so u = eta**n_max acts integrally iff j divides n_max.
            if n_max % j:
                break
            return power_unit, j, n_max // j
        power_unit = power_unit * eta
    raise ValueError(f"{lat} is not a fractional ideal: u does not act integrally")
