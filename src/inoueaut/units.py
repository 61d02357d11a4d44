"""Unit-group computations for the quadratic orders in play.

Fundamental units come from the classical continued-fraction expansion with
the exact (P, Q) integer recurrence; everything downstream (generator of the
lattice-fixing units, power indices) is exact repeated multiplication, never
logarithms.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

from .exactnum import square_decompose
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
    # sqrt(m) = (2u - theta)/s.
    a = Fraction(p, 2) - Fraction(q * scale * field.theta, 2 * s)
    b = Fraction(q * scale, s)
    eta = FieldElement(a, b, field)
    if abs(eta.norm()) != 1:
        raise AssertionError(f"continued fraction produced a non-unit: {eta}")
    # The reduced seed already lands at sigma1 > 1; keep the normalization as
    # a guard (sigma1 = 1 only at +-1, so there is no tie to break).
    if eta.sigma1().sign() < 0:
        eta = -eta
    if eta.sigma1() < 1:
        eta = eta.inverse()
        if eta.sigma1().sign() < 0:
            eta = -eta
    return eta


def unit_exponent(value: FieldElement, base: FieldElement) -> int | None:
    """The k in Z with value = base**k, or None if there is none.

    Needs sigma1(base) > 1 and sigma1(value) > 0.  sigma1(base**k) grows
    strictly with k, so the search walks from k = 0 towards value and stops
    once sigma1 of the power passes sigma1(value): O(log sigma1(value))
    products, bounded by the input alone.
    """
    sign = 1
    if value.sigma1() < 1:  # k < 0: search for value^-1 = base**-k
        value, sign = value.inverse(), -1
    target = value.sigma1()
    power, k = base.field.one(), 0
    while power != value:
        if power.sigma1() > target:
            return None
        power, k = power * base, k + 1
    return sign * k


def utheta_exponent(field: FieldDescriptor, base: FieldElement) -> int:
    """The integer n >= 1 with base**n = u."""
    if base.field != field:
        raise ValueError("base lives in a different field")
    if not base.is_unit():
        raise ValueError(f"base must be a unit, got norm {base.norm()}")
    if not base.sigma1() > 1:
        raise ValueError(f"base must have sigma1 > 1, got {base}")
    n = unit_exponent(field.u(), base)
    if n is None:
        raise ValueError(f"u is not a power of {base}")
    return n


def invariant_unit_generator(
    lat: Lattice, eta: FieldElement | None = None
) -> tuple[FieldElement, int]:
    """Generator eta**j of the positive units mapping the lattice onto itself.

    j is the least positive exponent with eta**j mapping the lattice into
    itself; the search is bounded by the exponent n_max with
    eta**n_max = u, which exists because the lattice is required to be a
    fractional ideal of Z[u].
    """
    field = lat.field
    if eta is None:
        eta = fundamental_unit(field)
    n_max = utheta_exponent(field, eta)
    power_unit = eta
    for j in range(1, n_max + 1):
        if lat.mult_matrix(power_unit) is not None:
            # The exponents k with eta**k acting integrally are the multiples
            # of j, so u = eta**n_max acts integrally iff j divides n_max.
            if n_max % j:
                break
            return power_unit, j
        power_unit = power_unit * eta
    raise ValueError(f"{lat} is not a fractional ideal: u does not act integrally")
