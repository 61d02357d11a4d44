"""The record classes as the package defined them before they became plain
classes and collections.namedtuple subclasses: the eight dataclasses
(FieldDescriptor, SurfaceParams, InoueData, AmbientGroup, GroupStructure,
ComponentGroup, AutReport, BuiltinExample) and the two typing.NamedTuples
(WordData, MembershipForm), with their old bodies; test_records.py compares
each with the class that replaced it."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from math import gcd, lcm
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple

from inoueaut.components import TABLE_LIMIT, _elements
from inoueaut.exactnum import (
    ZERO_T,
    Complex,
    QuadReal,
    Scalar,
    ValueTooLargeError,
    is_perfect_square,
)
from inoueaut.lattice import IntMatrix, Lattice, LatticeQuotient
from inoueaut.quadfield import FieldElement, chi
from inoueaut.surfacegroup import AffineElement, Flat, ParameterError, _is_complex


@dataclass(frozen=True)
class FieldDescriptor:
    """The pair (theta, c0) defining K and its distinguished unit u."""

    theta: int
    c0: int

    def __post_init__(self) -> None:
        if self.c0 not in (1, -1):
            raise ValueError(f"c0 must be +1 or -1, got {self.c0}")
        min_theta = 3 if self.c0 == 1 else 1
        if self.theta < min_theta:
            raise ValueError(
                f"theta must be >= {min_theta} for c0 = {self.c0:+d}, got {self.theta}"
            )
        # Unreachable given the bounds above, but a square delta would make
        # the minimal polynomial reducible, so fail loudly rather than degrade.
        if self.delta <= 0 or is_perfect_square(self.delta):
            raise ValueError(f"theta**2 - 4*c0 = {self.delta} is not usable")

    @property
    def delta(self) -> int:
        return self.theta * self.theta - 4 * self.c0

    @property
    def surface_type(self) -> str:
        return "+" if self.c0 == 1 else "-"

    @classmethod
    def from_type(cls, surface_type: str, theta: int) -> "FieldDescriptor":
        if surface_type not in ("+", "-"):
            raise ValueError(f"surface type must be '+' or '-', got {surface_type!r}")
        return cls(theta, 1 if surface_type == "+" else -1)

    def element(self, a: Scalar, b: Scalar = 0) -> "FieldElement":
        return FieldElement(a, b, self)

    def zero(self) -> "FieldElement":
        return FieldElement._raw(0, 0, 1, self)

    def one(self) -> "FieldElement":
        return FieldElement._raw(1, 0, 1, self)

    def u(self) -> "FieldElement":
        """The distinguished root u (a unit of norm c0 with sigma1(u) > 1)."""
        return FieldElement._raw(0, 1, 1, self)


@dataclass(frozen=True)
class SurfaceParams:
    """Validated defining data (theta, r, x1, x2, e; t) of one surface.

    e defaults to None, which validation replaces by the field's 0, and t
    defaults to ZERO_T.  x1, x2 must span a fractional ideal of Z[u] (u acts
    integrally and chi(x1, x2) != 0); t is a Complex, pinned to 0 for the
    minus family.  Validation computes, and keeps as plain attributes,
    chi0 = chi(x1, x2), the lattice ideal = Z<x1, x2> and n_matrix, the
    integer matrix of u acting on (x1, x2), of trace theta and det c0.
    """

    field: FieldDescriptor
    r: int
    x1: FieldElement
    x2: FieldElement
    e: FieldElement | None = None
    t: Complex = ZERO_T

    def __post_init__(self) -> None:
        if self.e is None:
            self.__dict__["e"] = self.field.zero()
        if not isinstance(self.r, int) or self.r <= 0:
            raise ParameterError(f"r must be a positive integer, got {self.r}")
        for name in ("x1", "x2", "e"):
            field = getattr(self, name).field
            if field is not self.field and field != self.field:
                raise ParameterError(f"{name} lives in a different field")
        if not _is_complex(self.t):
            raise ParameterError(
                f"t must be two reduced integer triples (p, q, den), den > 0, "
                f"got {self.t!r}"
            )
        chi0 = chi(self.x1, self.x2)
        if not chi0:
            raise ParameterError("x1, x2 are Q-linearly dependent (chi = 0)")
        if self.field.c0 == -1 and self.t != ZERO_T:
            raise ParameterError("t must be 0 for the minus family")
        ideal = Lattice(self.x1, self.x2)
        n_matrix = ideal.mult_matrix(self.field.u())
        if n_matrix is None:
            raise ParameterError(
                "Z<x1, x2> is not a fractional ideal: u does not act integrally"
            )
        # past the frozen __setattr__; dataclass equality and hashing read
        # only the fields
        self.__dict__.update(chi0=chi0, ideal=ideal, n_matrix=n_matrix)

    # -- derived data (cached; the dataclass is frozen but not slotted) -------

    @cached_property
    def coset_cover(self) -> Lattice:
        """The lattice I*(1 - u)^{-1} containing all translation candidates."""
        one_minus_u = self.field.one() - self.field.u()
        return self.ideal.scale(one_minus_u.inverse())

    @cached_property
    def generators(
        self,
    ) -> tuple[AffineElement, AffineElement, AffineElement, AffineElement]:
        """The four generators [u, 0, t], [1, x_i, chi(x_i, e)] and
        [1, 0, -chi0/r], read off the word data: chi(x_i, e) =
        C_i/den * sqrt(delta) and -chi0/r = -X0/(den r) * sqrt(delta)."""
        data = self.word_data
        field, den = self.field, data.den

        def real(x: tuple[int, int, int], q: int, d: int) -> Flat:
            g = gcd(q, d)
            return (1, 0, 1, *x, 0, q // g, d // g, 0, 0, 1)

        return (
            AffineElement._of(field, (0, 1, 1, 0, 0, 1, *self.t[0], *self.t[1])),
            AffineElement._of(field, real(self.x1.as_integer_triple(), data.c1, den)),
            AffineElement._of(field, real(self.x2.as_integer_triple(), data.c2, den)),
            AffineElement._of(field, real((0, 0, 1), -data.x0, den * self.r)),
        )

    @cached_property
    def word_data(self) -> "WordData":
        values = (
            chi(self.x1, self.e).as_integer_triple(),
            chi(self.x2, self.e).as_integer_triple(),
            self.chi0.as_integer_triple(),
            *self.t,
        )
        den = lcm(*(d for _, _, d in values))
        (_, c1), (_, c2), (_, x0), t_re, t_im = (
            (p * (den // d), q * (den // d)) for p, q, d in values
        )
        field = self.field
        return WordData(field.theta, field.c0, self.r, den, c1, c2, x0, *t_re, *t_im)


class WordData(NamedTuple):
    """The integers of the word problem, once per parameter set: over one
    common denominator den, c_i = chi(x_i, e) = C_i/den * sqrt(delta),
    chi0 = X0/den * sqrt(delta) and t = (TP + TQ sqrt(delta))/den +
    i (IP + IQ sqrt(delta))/den."""

    theta: int
    c0: int
    r: int
    den: int
    c1: int
    c2: int
    x0: int
    tp: int
    tq: int
    ip: int
    iq: int


@dataclass(frozen=True)
class InoueData:
    """The classical data (N, p, q; eigenvectors and translation parts)."""

    matrix: IntMatrix
    p: int
    q: int
    alpha: QuadReal
    a1: QuadReal
    a2: QuadReal
    b1: QuadReal
    b2: QuadReal
    c1: QuadReal
    c2: QuadReal
    d: QuadReal


@dataclass
class AmbientGroup:
    """The finite group (units fixing I / <u>) x| (I(1-u)^{-1} / I).

    Coset k1*d2 + k2 has Smith coordinates (k1, k2) mod (d1, d2), so this is
    (Z/n) x| (Z/d1 x Z/d2), with u_gen^i acting by the integer matrix
    _actions[i] (rows: images of the Smith basis).  An element (i, k), the
    class [u_gen^i, rep(k)], is the integer key i*|C| + k, so the keys
    range(order) list H in lexicographic order.
    """

    eta: FieldElement
    u_gen: FieldElement
    j: int
    n: int
    quotient: LatticeQuotient
    unit_powers: tuple[FieldElement, ...]
    _actions: tuple[IntMatrix, ...]

    @property
    def order(self) -> int:
        return self.n * self.quotient.order

    def pair(self, key: int) -> tuple[int, int]:
        """The pair (i, k) of the key i*|C| + k."""
        return divmod(key, self.quotient.order)

    def mul_row(self, x: int, ys: Iterable[int]) -> list[int]:
        """Keys of x*y for each key y, by (i, k)(j, l) = (i + j mod n, k + A^i l)."""
        n, c = self.n, self.quotient.order
        d1, d2 = self.quotient.d1, self.quotient.d2
        i, k = divmod(x, c)
        k1, k2 = divmod(k, d2)
        (a11, a12), (a21, a22) = self._actions[i]
        row = []
        for y in ys:
            j, l = divmod(y, c)
            l1, l2 = divmod(l, d2)
            row.append(
                (i + j) % n * c
                + (k1 + l1 * a11 + l2 * a21) % d1 * d2
                + (k2 + l1 * a12 + l2 * a22) % d2
            )
        return row

    def apply(self, m: IntMatrix, ks: Iterable[int]) -> Iterator[int]:
        """Keys of (k1, k2) m mod (d1, d2) for each key k = k1 d2 + k2 of C."""
        d1, d2 = self.quotient.d1, self.quotient.d2
        (m11, m12), (m21, m22) = m
        return (
            (k1 * m11 + k2 * m21) % d1 * d2 + (k1 * m12 + k2 * m22) % d2
            for k1, k2 in map(divmod, ks, repeat(d2))
        )

    def power_map(self, i: int, m: int) -> IntMatrix:
        """The sum of A^(i j) over j < m: (i, k)^m = (m i mod n, k times it)."""
        n = self.n
        e = n // gcd(i, n)  # A^(i j) has period e in j
        t11 = t12 = t21 = t22 = 0
        for j in range(min(m, e)):
            w = (m - 1 - j) // e + 1  # the j' < m with j' = j mod e
            (a11, a12), (a21, a22) = self._actions[i * j % n]
            t11, t12 = t11 + w * a11, t12 + w * a12
            t21, t22 = t21 + w * a21, t22 + w * a22
        return (t11, t12), (t21, t22)


class MembershipForm(NamedTuple):
    """The two membership conditions for [v, k1 b1 + k2 b2] as integer forms
    in (k1, k2): the class is a member iff
        a0 + a1 k1 + a2 k2 = b0 + b1 k1 + b2 k2 = 0 (mod den1) and
        c + p1 k1 + p2 k2 + q11 k1^2 + q12 k1 k2 + q22 k2^2 = 0 (mod den2)."""

    den1: int
    a0: int
    a1: int
    a2: int
    b0: int
    b1: int
    b2: int
    den2: int
    c: int
    p1: int
    p2: int
    q11: int
    q12: int
    q22: int

    def accepts(self, k1: int, k2: int) -> bool:
        return (
            (self.a0 + self.a1 * k1 + self.a2 * k2) % self.den1 == 0
            and (self.b0 + self.b1 * k1 + self.b2 * k2) % self.den1 == 0
            and (
                self.c
                + k1 * (self.p1 + self.q11 * k1 + self.q12 * k2)
                + k2 * (self.p2 + self.q22 * k2)
            )
            % self.den2
            == 0
        )


@dataclass(frozen=True)
class GroupStructure:
    """Isomorphism data for the component group Q, read off its place in
    H = (Z/n) x| (Z/d1 x Z/d2).

    Abelian groups carry their invariant factors (ascending divisibility,
    1s dropped).  Nonabelian groups carry the cyclic-by-abelian presentation
    over the kernel K = Q n (Z/d1 x Z/d2): the order n' of the cyclic
    quotient Q/K, K's invariant factors, the conjugation action of the
    quotient generator q0 = (step, k) on K's basis as an exponent matrix
    (it is A^step), and, when no such q0 has order n', the twist q0^n'
    written in K's basis.
    """

    order: int
    abelian: bool
    invariant_factors: tuple[int, ...] | None = None
    quotient_order: int | None = None
    kernel_factors: tuple[int, ...] | None = None
    action: tuple[tuple[int, ...], ...] | None = None
    split: bool | None = None
    twist: tuple[int, ...] | None = None

    def describe(self) -> str:
        if self.abelian:
            if not self.invariant_factors:
                return "trivial"
            return " x ".join(f"Z/{d}" for d in self.invariant_factors)
        kernel = " x ".join(f"Z/{d}" for d in self.kernel_factors)
        head = f"(Z/{self.quotient_order}) ⋉ ({kernel})"
        if len(self.kernel_factors) == 1:
            act = f"action = multiplication by {self.action[0][0]}"
        else:
            act = f"action matrix {list(map(list, self.action))}"
        if self.split:
            return f"{head}, {act}"
        return f"{head}, {act}, non-split with twist {list(self.twist)}"


@dataclass
class ComponentGroup:
    """The group of connected components of the automorphism group: its
    elements as H's keys (ascending, identity first) and its classification."""

    keys: list[int]
    structure: GroupStructure
    ambient: AmbientGroup

    @property
    def order(self) -> int:
        return len(self.keys)

    @cached_property
    def table(self) -> tuple[tuple[int, ...], ...]:
        """The Cayley table on element indices, built from H's law on first
        access; only the --machine output reads it.  A table of more than
        TABLE_LIMIT entries is refused before it is built."""
        if self.order * self.order > TABLE_LIMIT:
            raise ValueTooLargeError(
                f"value too large for the --machine table: Q has "
                f"{_elements(self.order)}, so its Cayley table would have "
                f"{self.order * self.order} entries, more than {TABLE_LIMIT}"
            )
        # Row x*g is row x composed with row g: (x g) y = x (g y).  So only
        # the rows of a generating set, each first element outside the span
        # of those before, come from H's law; every other row is a lookup.
        keys = self.keys
        index = {key: k for k, key in enumerate(keys)}
        rows: list[tuple[int, ...] | None] = [None] * len(keys)
        rows[0] = tuple(range(len(keys)))  # keys[0] is the identity
        reached, gens = [0], []
        for x, key in enumerate(keys):
            if rows[x] is not None:
                continue
            rows[x] = tuple(map(index.__getitem__, self.ambient.mul_row(key, keys)))
            gens.append(x)
            reached.append(x)
            for y in reached:  # grows as the span does
                row = rows[y]
                for g in gens:
                    z = row[g]
                    if rows[z] is None:
                        rows[z] = itemgetter(*rows[g])(row)
                        reached.append(z)
        return tuple(rows)


@dataclass
class AutReport:
    """Everything the analysis produces for one parameter set."""

    params: SurfaceParams
    q: ComponentGroup
    inoue: InoueData
    oracle_checked: bool
    double_r: ComponentGroup | None = None


@dataclass(frozen=True)
class BuiltinExample:
    """A worked example: its parameter text (the key lines of its golden
    file) and its published component group."""

    name: str
    expected: str
    text: str
