"""Code that the unit layer replaced, kept as differential references.

For tests/test_units.py, the capped exponent searches that
`inoueaut.units.unit_exponent` replaced: the word problem's
`_power_exponent` (from `inoueaut.surfacegroup`) and the capped
`utheta_exponent` (from `inoueaut.units`), with their default cap of 64.
Also `unit_exponent`, the walk on `FieldElement` powers and `QuadReal`
comparisons that the integer-triple walk (`inoueaut.units.triple_exponent`)
replaced.  For tests/test_exactnum.py, `square_decompose_reference`: the trial
division up to sqrt(n) that the cube-root `inoueaut.exactnum.square_decompose`
replaced, without its cache; and `square_decompose_trial`: that cube-root
trial division over 2 and every odd candidate, for any n, before
`square_decompose` split a plus-family delta = (theta - 2)(theta + 2) and
skipped the candidates 3 (mod 4) on a minus-family delta = theta**2 + 4.
Bodies unchanged, but for the comparisons of sigma1, which take the
package's QuadReal through `field_reference.ordered` since the package
dropped the order of QuadReal.
"""

from __future__ import annotations

from math import isqrt

from field_reference import ordered
from inoueaut.exactnum import (
    SQUAREFREE_TRIAL_LIMIT,
    ValueTooLargeError,
    _decimal_digits,
)
from inoueaut.quadfield import FieldDescriptor, FieldElement

# Far above any exponent reachable at desk scale; exceeding it means the
# input was not an honest unit below u and is reported instead of looping.
DEFAULT_POWER_CAP = 64


def utheta_exponent(
    field: FieldDescriptor, base: FieldElement, cap: int = DEFAULT_POWER_CAP
) -> int:
    """The integer n >= 1 with base**n = u, by exact repeated multiplication."""
    if base.field != field:
        raise ValueError("base lives in a different field")
    if not base.is_unit():
        raise ValueError(f"base must be a unit, got norm {base.norm()}")
    if not ordered(base.sigma1()) > 1:
        raise ValueError(f"base must have sigma1 > 1, got {base}")
    target = field.u()
    power = base
    for n in range(1, cap + 1):
        if power == target:
            return n
        power = power * base
    raise ValueError(f"u is not a power of {base} with exponent <= {cap}")


def _power_exponent(
    value: FieldElement, base: FieldElement, cap: int
) -> int | None:
    """k with value = base**k, searching both directions up to the cap."""
    field = base.field
    if value == field.one():
        return 0
    pos = base
    neg = base.inverse()
    inv_base = neg
    for k in range(1, cap + 1):
        if pos == value:
            return k
        if neg == value:
            return -k
        pos = pos * base
        neg = neg * inv_base
    return None


def unit_exponent(value: FieldElement, base: FieldElement) -> int | None:
    """The k in Z with value = base**k, or None if there is none.

    Needs sigma1(base) > 1 and sigma1(value) > 0.  sigma1(base**k) grows
    strictly with k, so the search walks from k = 0 towards value and stops
    once sigma1 of the power passes sigma1(value): O(log sigma1(value))
    products, bounded by the input alone.
    """
    sign = 1
    if ordered(value.sigma1()) < 1:  # k < 0: search for value^-1 = base**-k
        value, sign = value.inverse(), -1
    target = value.sigma1()
    power, k = base.field.one(), 0
    while power != value:
        if ordered(power.sigma1()) > target:
            return None
        power, k = power * base, k + 1
    return sign * k


def square_decompose_reference(n: int) -> tuple[int, int]:
    """Write n = s**2 * m with m squarefree; returns (s, m)."""
    if n <= 0:
        raise ValueError(f"expected a positive integer, got {n}")
    s, m = 1, n
    p = 2
    while p * p <= m:
        while m % (p * p) == 0:
            m //= p * p
            s *= p
        p += 1
    return s, m


def square_decompose_trial(n: int) -> tuple[int, int]:
    """Write n = s**2 * m with m squarefree; returns (s, m).

    Trial division in cube-root time: each prime p with p**3 <= rest, rest
    the cofactor left so far, is divided out completely, and its exponent
    e puts p**(e//2) into s and p into m when e is odd.  Every prime factor
    of the final rest then exceeds its cube root, so rest is 1, a prime, a
    product of two distinct primes, or the square of a prime: it is a
    square exactly when isqrt(rest)**2 == rest, and squarefree otherwise.
    Exact, with no primality test.

    The work is bounded: a candidate past SQUAREFREE_TRIAL_LIMIT raises
    ValueTooLargeError.  Every n < 2**66 decomposes, and so does any larger
    n whose cofactor drops below the limit cubed.
    """
    if n <= 0:
        raise ValueError(f"expected a positive integer, got {n}")
    s, m, rest = 1, 1, n
    p = 2
    while p * p * p <= rest:
        if p > SQUAREFREE_TRIAL_LIMIT:
            raise ValueTooLargeError(
                f"value too large to factor: the squarefree part of a number "
                f"of about {_decimal_digits(n)} decimal digits needs trial "
                f"division past {SQUAREFREE_TRIAL_LIMIT}"
            )
        if rest % p == 0:
            e = 0
            while rest % p == 0:
                rest //= p
                e += 1
            s *= p ** (e // 2)
            if e & 1:
                m *= p
        p += 1 if p == 2 else 2
    root = isqrt(rest)
    if root * root == rest:
        return s * root, m
    return s, m * rest
