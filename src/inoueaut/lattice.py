"""Rank-2 Z-lattices inside a quadratic field, and their finite quotients.

A lattice holds its basis as one integer matrix in {1, u}-coordinates over
the least common denominator of its basis; integer coordinates, membership
and multiplication matrices are integer adjugate arithmetic on it.  A
quotient big/small is read off the Smith form of small's basis in big's
coordinates.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import chain, repeat
from math import lcm

from .exactnum import InternalConsistencyError, format_quads
from .quadfield import FieldElement

# Row-major 2x2 integer matrix ((m11, m12), (m21, m22)).
IntMatrix = tuple[tuple[int, int], tuple[int, int]]


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

    __slots__ = ("b1", "b2", "field", "_den", "_rows", "_det")

    def __init__(self, b1: FieldElement, b2: FieldElement):
        if b1.field is not b2.field and b1.field != b2.field:
            raise ValueError("basis elements live in different fields")
        (p1, q1, d1), (p2, q2, d2) = b1.as_integer_triple(), b2.as_integer_triple()
        den = lcm(d1, d2)
        p1, q1 = p1 * (den // d1), q1 * (den // d1)
        p2, q2 = p2 * (den // d2), q2 * (den // d2)
        det = p1 * q2 - q1 * p2
        if not det:
            raise ValueError("basis is Q-linearly dependent (chi(b1, b2) = 0)")
        self.b1 = b1
        self.b2 = b2
        self.field = b1.field
        self._den = den
        self._rows = ((p1, q1), (p2, q2))
        self._det = det

    @property
    def basis(self) -> tuple[FieldElement, FieldElement]:
        return self.b1, self.b2

    def __str__(self) -> str:
        return f"Z<{self.b1}, {self.b2}>"

    __repr__ = __str__

    # -- membership and coordinates -----------------------------------------

    def _solve(self, p: int, q: int, d: int) -> tuple[int, int, int]:
        """(m, n, e) with (p + q*u)/d = (m*b1 + n*b2)/e, by the adjugate of
        the basis matrix: e = d * det and (m, n) = den * (p, q) * adj.  Any
        triple of the value will do, reduced or not."""
        (p1, q1), (p2, q2) = self._rows
        return (
            self._den * (p * q2 - q * p2),
            self._den * (p1 * q - q1 * p),
            d * self._det,
        )

    def contains(self, x: FieldElement) -> bool:
        return self.integer_coordinates(x) is not None

    def integer_coordinates(self, x: FieldElement) -> tuple[int, int] | None:
        if x.field is not self.field and x.field != self.field:
            raise ValueError("field mismatch")
        return self.triple_coordinates(*x.as_integer_triple())

    def triple_coordinates(self, p: int, q: int, d: int) -> tuple[int, int] | None:
        """integer_coordinates of (p + q*u)/d, a value of this lattice's field."""
        m, n, d = self._solve(p, q, d)
        if m % d or n % d:
            return None
        return m // d, n // d

    # -- lattice operations ---------------------------------------------------

    def scale(self, x: FieldElement) -> "Lattice":
        """The lattice x * self; x is a nonzero field element."""
        if not x:
            raise ValueError("cannot scale a lattice by zero")
        return Lattice(x * self.b1, x * self.b2)

    def mult_matrix(self, v: FieldElement) -> IntMatrix | None:
        """The integer matrix M with M*(b1; b2) = (v*b1; v*b2), as rows, or
        None when v does not map the lattice into itself.

        With v = (vp + vq*u)/vd and b = (p + q*u)/den a row, u^2 = theta*u - c0
        gives v*b = (vp*p - c0*vq*q + (vp*q + vq*p + theta*vq*q)*u)/(vd*den),
        whose coordinates triple_coordinates reads; no field product is built.
        """
        field = v.field
        if field is not self.field and field != self.field:
            raise ValueError("field mismatch")
        theta, c0 = field.theta, field.c0
        vp, vq, vd = v.as_integer_triple()
        d = vd * self._den
        r1, r2 = (
            self.triple_coordinates(
                vp * p - c0 * vq * q, vp * q + vq * p + theta * vq * q, d
            )
            for p, q in self._rows
        )
        return None if r1 is None or r2 is None else (r1, r2)

    def quotient(self, sub: "Lattice") -> "LatticeQuotient":
        return LatticeQuotient(self, sub)


class LatticeQuotient:
    """The finite group big/small, with deterministic Smith-basis cosets.

    The Smith basis e1, e2 of the covering lattice is kept as two integer
    rows over one denominator.  Coset k = k1*d2 + k2 has the representative
    k1*e1 + k2*e2, 0 <= ki < di, built only on request (rep 0 is 0, the
    identity coset).
    """

    __slots__ = ("big", "d1", "d2", "_v", "_rows", "_den")

    def __init__(self, big: Lattice, small: Lattice):
        c1 = big.integer_coordinates(small.b1)
        c2 = big.integer_coordinates(small.b2)
        if c1 is None or c2 is None:
            raise ValueError(f"{small} is not a sublattice of {big}")
        d1, d2, v = _snf2(c1[0], c1[1], c2[0], c2[1])
        self.big = big
        self.d1, self.d2 = d1, d2
        self._v = v
        det_v = v[0][0] * v[1][1] - v[0][1] * v[1][0]  # +-1
        # V^{-1} rows give the Smith basis of the covering lattice, over the
        # denominator of big's rows.
        (p1, q1), (p2, q2) = big._rows
        m1, m2 = v[1][1] * det_v, -v[0][1] * det_v
        n1, n2 = -v[1][0] * det_v, v[0][0] * det_v
        self._rows = (
            (m1 * p1 + m2 * p2, m1 * q1 + m2 * q2),
            (n1 * p1 + n2 * p2, n1 * q1 + n2 * q2),
        )
        self._den = big._den

    @property
    def order(self) -> int:
        return self.d1 * self.d2

    @property
    def smith_basis(self) -> tuple[tuple[int, int, int], tuple[int, int, int]]:
        """The Smith basis as integer triples (p, q, den) over one den."""
        (p1, q1), (p2, q2) = self._rows
        return (p1, q1, self._den), (p2, q2, self._den)

    def rep(self, k: int) -> FieldElement:
        """The representative of coset k."""
        k1, k2 = divmod(k, self.d2)
        (p1, q1), (p2, q2) = self._rows
        return FieldElement._reduced(
            k1 * p1 + k2 * p2, k1 * q1 + k2 * q2, self._den, self.big.field
        )

    def rep_texts(self) -> list[str]:
        """Every representative's text over u in coset order, written by
        format_quads from the Smith rows: row k1 of each coordinate,
        k1 c1 + k2 c2 for k2 < d2, is one range of step c2."""
        d1, d2 = self.d1, self.d2

        def column(c1: int, c2: int) -> Iterator[int]:
            return chain.from_iterable(
                range(k1 * c1, k1 * c1 + d2 * c2, c2) if c2 else repeat(k1 * c1, d2)
                for k1 in range(d1)
            )

        (p1, q1), (p2, q2) = self._rows
        return format_quads(zip(column(p1, p2), column(q1, q2)), self._den, "u")

    def index_of(self, x: FieldElement) -> int:
        """Index of the representative congruent to x modulo the sublattice."""
        coords = self.big.integer_coordinates(x)
        if coords is None:
            raise ValueError(f"{x} is not in the covering lattice")
        w1, w2 = coords
        k1 = (w1 * self._v[0][0] + w2 * self._v[1][0]) % self.d1
        k2 = (w1 * self._v[0][1] + w2 * self._v[1][1]) % self.d2
        return k1 * self.d2 + k2
