"""Rank-2 Z-lattices inside a quadratic field.

A lattice keeps its defining basis but is normalized eagerly to a canonical
form (primitive integer matrix in {1, u}-coordinates over a common
denominator, rows in Hermite normal form); equality, hashing and membership
all go through that form, so lattices behave as the sets they denote.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .exactnum import Rational
from .quadfield import FieldDescriptor, FieldElement, chi


class InternalConsistencyError(RuntimeError):
    """A structural property failed that only an implementation bug can break."""


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with g = gcd(a, b) >= 0 and a*x + b*y = g."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


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

    def det(self) -> Rational:
        return self.m11 * self.m22 - self.m12 * self.m21

    def trace(self) -> Rational:
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


def _snf2(
    a11: int, a12: int, a21: int, a22: int
) -> tuple[int, int, tuple[tuple[int, int], tuple[int, int]]]:
    """Smith form of an invertible integer 2x2 matrix.

    Returns (d1, d2, V) with d1 | d2, d1, d2 > 0 and U*A*V = diag(d1, d2) for
    some unimodular U (not tracked); V is returned row-major.
    """
    a = [[a11, a12], [a21, a22]]
    v = [[1, 0], [0, 1]]

    def col_combine(x: int, y: int, p: int, q: int) -> None:
        # (c1, c2) <- (x*c1 + y*c2, p*c1 + q*c2), applied to a and v alike
        for m in (a, v):
            for row in m:
                c1, c2 = row
                row[0] = x * c1 + y * c2
                row[1] = p * c1 + q * c2

    def clear_lower_left() -> None:
        if a[1][0] == 0:
            return
        if a[0][0] != 0 and a[1][0] % a[0][0] == 0:
            # plain elementary step; the xgcd combine below could swap the
            # rows forever when the pivot already divides the entry
            q = a[1][0] // a[0][0]
            a[1][0] -= q * a[0][0]
            a[1][1] -= q * a[0][1]
            return
        g, x, y = xgcd(a[0][0], a[1][0])
        r1 = [x * a[0][0] + y * a[1][0], x * a[0][1] + y * a[1][1]]
        r2 = [0, (-(a[1][0] // g)) * a[0][1] + (a[0][0] // g) * a[1][1]]
        a[0], a[1] = r1, r2

    def clear_upper_right() -> None:
        if a[0][1] == 0:
            return
        if a[0][0] != 0 and a[0][1] % a[0][0] == 0:
            col_combine(1, 0, -(a[0][1] // a[0][0]), 1)
            return
        g, x, y = xgcd(a[0][0], a[0][1])
        col_combine(x, y, -(a[0][1] // g), a[0][0] // g)

    # After the first sweep |a11| divides an entry.  Every later sweep that
    # does not finish replaces a11 by a proper divisor, or ends in the row
    # coupling, after which the next sweep does; so |a11| halves at least
    # every second sweep until it is 1, and then the next sweep finishes.
    sweeps = 2 * max(abs(a11), abs(a12), abs(a21), abs(a22)).bit_length() + 2
    for _ in range(sweeps):
        clear_lower_left()
        clear_upper_right()
        if a[1][0] == 0 and a[0][1] == 0:
            if a[0][0] < 0:
                a[0][0] = -a[0][0]
            if a[1][1] < 0:
                a[1][1] = -a[1][1]
            if a[0][0] == 0 or a[1][1] == 0:
                raise ValueError("matrix is singular")
            if a[1][1] % a[0][0] == 0:
                return a[0][0], a[1][1], (tuple(v[0]), tuple(v[1]))
            # Couple the diagonal back up with a row op (V untouched) so the
            # next sweep replaces it by (gcd, lcm).
            a[0][0] += a[1][0]
            a[0][1] += a[1][1]
    raise InternalConsistencyError(
        f"Smith reduction of [[{a11}, {a12}], [{a21}, {a22}]] did not converge "
        f"in {sweeps} sweeps"
    )


class Lattice:
    """Z-span of two Q-linearly independent field elements."""

    __slots__ = ("b1", "b2", "field", "_den", "_hnf")

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

    @classmethod
    def order_lattice(cls, field: FieldDescriptor) -> "Lattice":
        """Z[u] with its standard basis (1, u)."""
        return cls(field.one(), field.u())

    @property
    def basis(self) -> tuple[FieldElement, FieldElement]:
        return self.b1, self.b2

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Lattice):
            return NotImplemented
        return (
            self.field == other.field
            and self._den == other._den
            and self._hnf == other._hnf
        )

    def __hash__(self) -> int:
        return hash((self.field, self._den, self._hnf))

    def __str__(self) -> str:
        return f"Z<{self.b1}, {self.b2}>"

    __repr__ = __str__

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

    def coordinates(self, x: FieldElement) -> tuple[Rational, Rational]:
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

    def scale(self, x) -> "Lattice":
        """The lattice x * self; x is a nonzero field element or rational."""
        if isinstance(x, (int, Fraction)):
            x = self.field.element(x)
        if not x:
            raise ValueError("cannot scale a lattice by zero")
        return Lattice(x * self.b1, x * self.b2)

    def index(self, other: "Lattice") -> Rational:
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

    def quotient(self, sub: "Lattice") -> "LatticeQuotient":
        return LatticeQuotient(self, sub)


class LatticeQuotient:
    """The finite group big/small, with deterministic Smith-basis cosets.

    Representatives carry the lexicographically minimal non-negative
    coordinates (k1, k2), 0 <= ki < di, in the Smith basis; rep 0 is first
    and stands for the identity coset.
    """

    __slots__ = ("big", "small", "d1", "d2", "reps", "_v", "_e1", "_e2")

    def __init__(self, big: Lattice, small: Lattice):
        c1 = big.integer_coordinates(small.b1)
        c2 = big.integer_coordinates(small.b2)
        if c1 is None or c2 is None:
            raise ValueError(f"{small} is not a sublattice of {big}")
        d1, d2, v = _snf2(c1[0], c1[1], c2[0], c2[1])
        self.big = big
        self.small = small
        self.d1, self.d2 = d1, d2
        self._v = v
        det_v = v[0][0] * v[1][1] - v[0][1] * v[1][0]  # +-1
        # V^{-1} rows give the Smith basis of the covering lattice.
        inv = (
            (v[1][1] * det_v, -v[0][1] * det_v),
            (-v[1][0] * det_v, v[0][0] * det_v),
        )
        self._e1 = inv[0][0] * big.b1 + inv[0][1] * big.b2
        self._e2 = inv[1][0] * big.b1 + inv[1][1] * big.b2
        self.reps = tuple(
            k1 * self._e1 + k2 * self._e2
            for k1 in range(d1)
            for k2 in range(d2)
        )

    @property
    def order(self) -> int:
        return self.d1 * self.d2

    @property
    def invariant_factors(self) -> tuple[int, int]:
        return self.d1, self.d2

    @property
    def smith_basis(self) -> tuple[FieldElement, FieldElement]:
        return self._e1, self._e2

    def index_of(self, x: FieldElement) -> int:
        """Index of the representative congruent to x modulo the sublattice."""
        coords = self.big.integer_coordinates(x)
        if coords is None:
            raise ValueError(f"{x} is not in the covering lattice")
        w1, w2 = coords
        k1 = (w1 * self._v[0][0] + w2 * self._v[1][0]) % self.d1
        k2 = (w1 * self._v[0][1] + w2 * self._v[1][1]) % self.d2
        return k1 * self.d2 + k2
