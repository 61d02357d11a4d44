"""The Fraction implementations that the integer lattice arithmetic in
`inoueaut.lattice` replaced, kept as the differential reference for
tests/test_lattice.py: the rational matrix `Matrix2Q`, and `Lattice`'s
construction, membership, coordinates, index, invariance test and
multiplication matrix; and a quotient's Smith basis and coset
representatives as the quotient built them eagerly with field arithmetic
(`smith_basis`, `quotient_reps`).

`Lattice` here subclasses the package's and overrides exactly those methods
with their old bodies, unchanged; scale and quotient are inherited.  So
`Lattice.mult_matrix` gives a `Matrix2Q` for any v, integral or not.

Equality and hashing went through the row Hermite form `_hnf2`, which the
package dropped with them: no command compares two lattices.  Both live
here now, with `hermite_key`, the canonical form the package's constructor
computed, which makes any lattice of either class comparable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

import inoueaut.lattice
from inoueaut.lattice import _snf2, xgcd
from inoueaut.quadfield import FieldElement, chi


def _hnf2(
    m11: int, m12: int, m21: int, m22: int
) -> tuple[int, int, int]:
    """Row Hermite form of an invertible integer 2x2 matrix.

    Returns (h11, h12, h22) for [[h11, h12], [0, h22]] with positive pivots
    and 0 <= h12 < h22.
    """
    if m21 != 0:
        g, x, y = xgcd(m11, m21)
        r1 = (x * m11 + y * m21, x * m12 + y * m22)
        r2 = (0, (-m21 // g) * m12 + (m11 // g) * m22)
        (m11, m12), (_, m22) = r1, r2
    if m11 < 0:
        m11, m12 = -m11, -m12
    if m22 < 0:
        m22 = -m22
    if m11 == 0 or m22 == 0:
        raise ValueError("matrix is singular")
    m12 %= m22
    return m11, m12, m22


def hermite_key(lat: inoueaut.lattice.Lattice) -> tuple:
    """(field, least denominator, primitive Hermite rows) of the lattice, from
    its basis on integers: the key of lattice equality and hashing."""
    (p1, q1, d1), (p2, q2, d2) = lat.b1.as_integer_triple(), lat.b2.as_integer_triple()
    den = lcm(d1, d2)
    h11, h12, h22 = _hnf2(
        p1 * (den // d1), q1 * (den // d1), p2 * (den // d2), q2 * (den // d2)
    )
    # g divides the Hermite rows, hence every row of the basis as well
    g = gcd(den, h11, h12, h22)
    return lat.field, den // g, (h11 // g, h12 // g, h22 // g)


def same_lattice(a: inoueaut.lattice.Lattice, b: inoueaut.lattice.Lattice) -> bool:
    """True iff the two lattices are the same set."""
    return hermite_key(a) == hermite_key(b)


@dataclass(frozen=True)
class Matrix2Q:
    """2x2 rational matrix in row-major order."""

    m11: Fraction
    m12: Fraction
    m21: Fraction
    m22: Fraction

    def __post_init__(self) -> None:
        for name in ("m11", "m12", "m21", "m22"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))

    @classmethod
    def identity(cls) -> "Matrix2Q":
        return cls(Fraction(1), Fraction(0), Fraction(0), Fraction(1))

    def __mul__(self, other: "Matrix2Q") -> "Matrix2Q":
        if not isinstance(other, Matrix2Q):
            return NotImplemented
        return Matrix2Q(
            self.m11 * other.m11 + self.m12 * other.m21,
            self.m11 * other.m12 + self.m12 * other.m22,
            self.m21 * other.m11 + self.m22 * other.m21,
            self.m21 * other.m12 + self.m22 * other.m22,
        )

    def __pow__(self, n: int) -> "Matrix2Q":
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out = Matrix2Q.identity()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def det(self) -> Fraction:
        return self.m11 * self.m22 - self.m12 * self.m21

    def trace(self) -> Fraction:
        return self.m11 + self.m22

    def is_integral(self) -> bool:
        return all(
            v.denominator == 1 for v in (self.m11, self.m12, self.m21, self.m22)
        )

    def int_rows(self) -> tuple[tuple[int, int], tuple[int, int]]:
        if not self.is_integral():
            raise ValueError(f"matrix is not integral: {self}")
        return (int(self.m11), int(self.m12)), (int(self.m21), int(self.m22))

    def apply(self, c1, c2):
        """Matrix times the column (c1; c2); entries may be any scalars that
        multiply with Fractions."""
        return (self.m11 * c1 + self.m12 * c2, self.m21 * c1 + self.m22 * c2)

    def __str__(self) -> str:
        return f"[[{self.m11}, {self.m12}], [{self.m21}, {self.m22}]]"


class Lattice(inoueaut.lattice.Lattice):
    """Z-span of two Q-linearly independent field elements."""

    def __init__(self, b1: FieldElement, b2: FieldElement):
        if b1.field != b2.field:
            raise ValueError("basis elements live in different fields")
        if not chi(b1, b2):
            raise ValueError("basis is Q-linearly dependent (chi(b1, b2) = 0)")
        self.b1 = b1
        self.b2 = b2
        self.field = b1.field
        den = lcm(
            b1.a.denominator, b1.b.denominator, b2.a.denominator, b2.b.denominator
        )
        rows = [
            int(b1.a * den), int(b1.b * den),
            int(b2.a * den), int(b2.b * den),
        ]
        h11, h12, h22 = _hnf2(*rows)
        g = gcd(den, gcd(h11, gcd(h12, h22)))
        self._den = den // g
        self._hnf = (h11 // g, h12 // g, h22 // g)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, inoueaut.lattice.Lattice):
            return NotImplemented
        return (self.field, self._den, self._hnf) == hermite_key(other)

    def __hash__(self) -> int:
        return hash((self.field, self._den, self._hnf))

    # -- membership and coordinates -----------------------------------------

    def contains(self, x: FieldElement) -> bool:
        if x.field != self.field:
            raise ValueError("field mismatch")
        h11, h12, h22 = self._hnf
        q1 = x.a * self._den
        q2 = x.b * self._den
        m = q1 / h11
        if m.denominator != 1:
            return False
        n = (q2 - m * h12) / h22
        return n.denominator == 1

    def coordinates(self, x: FieldElement) -> tuple[Fraction, Fraction]:
        """(m, n) with x = m*b1 + n*b2, as exact rationals."""
        if x.field != self.field:
            raise ValueError("field mismatch")
        det = self.b1.a * self.b2.b - self.b1.b * self.b2.a
        m = (x.a * self.b2.b - x.b * self.b2.a) / det
        n = (self.b1.a * x.b - self.b1.b * x.a) / det
        return m, n

    def integer_coordinates(self, x: FieldElement) -> tuple[int, int] | None:
        m, n = self.coordinates(x)
        if m.denominator != 1 or n.denominator != 1:
            return None
        return int(m), int(n)

    # -- lattice operations ---------------------------------------------------

    def index(self, other: "Lattice") -> Fraction:
        """[self : other] = |chi(other basis) / chi(self basis)|.

        The usual group index when other is a sublattice of self.
        """
        ratio = chi(other.b1, other.b2).irr / chi(self.b1, self.b2).irr
        return abs(ratio)

    def is_invariant_under(self, v: FieldElement) -> bool:
        """True iff v * self = self; v must be a unit."""
        if not v.is_unit():
            raise ValueError(f"{v} is not a unit (norm {v.norm()})")
        return self.scale(v) == self

    def mult_matrix(self, v: FieldElement) -> Matrix2Q:
        """The matrix M with M*(b1; b2)^T = (v*b1; v*b2)^T."""
        r1 = self.coordinates(v * self.b1)
        r2 = self.coordinates(v * self.b2)
        return Matrix2Q(r1[0], r1[1], r2[0], r2[1])


def smith_basis(
    big: Lattice, small: Lattice
) -> tuple[int, int, FieldElement, FieldElement]:
    """(d1, d2, e1, e2) for big/small as `LatticeQuotient.__init__` found
    them, with field arithmetic, before it kept the Smith basis e1, e2 as
    integer rows; the body is that constructor's, with its attributes as
    locals."""
    c1 = big.integer_coordinates(small.b1)
    c2 = big.integer_coordinates(small.b2)
    if c1 is None or c2 is None:
        raise ValueError(f"{small} is not a sublattice of {big}")
    d1, d2, v = _snf2(c1[0], c1[1], c2[0], c2[1])
    det_v = v[0][0] * v[1][1] - v[0][1] * v[1][0]  # +-1
    # V^{-1} rows give the Smith basis of the covering lattice.
    inv = (
        (v[1][1] * det_v, -v[0][1] * det_v),
        (-v[1][0] * det_v, v[0][0] * det_v),
    )
    _e1 = inv[0][0] * big.b1 + inv[0][1] * big.b2
    _e2 = inv[1][0] * big.b1 + inv[1][1] * big.b2
    return d1, d2, _e1, _e2


def quotient_reps(big: Lattice, small: Lattice) -> tuple[FieldElement, ...]:
    """The coset representatives of big/small as `LatticeQuotient.__init__`
    built them, all up front with field arithmetic, before they were built
    on request from integer rows."""
    d1, d2, _e1, _e2 = smith_basis(big, small)
    return tuple(
        k1 * _e1 + k2 * _e2
        for k1 in range(d1)
        for k2 in range(d2)
    )
