"""The solvable group of affine transformations of H x C attached to the
field, the discrete surface group generated from (theta, r, x1, x2, e; t),
its word problem, the standard-form checks, and export to the classical
eigenvector data.

An element [v, x, t] acts as (w, z) -> (sigma1(v) w + sigma1(x),
Norm(v) z + sigma2(x) sigma1(v) w + Norm(x)/2 + t); only the algebra of the
triples is needed here, never the action itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd, lcm
from typing import NamedTuple

from .exactnum import ZERO_T, Complex, QuadReal, format_complex
from .lattice import IntMatrix, InternalConsistencyError, Lattice
from .quadfield import FieldDescriptor, FieldElement, chi
from .units import sigma1_sign, triple_exponent


class ParameterError(ValueError):
    """Surface parameters fail validation (bad r, dependent basis, non-ideal)."""


class StandardFormError(ValueError):
    """Parameters are valid but the generated group is not in standard form."""


# [v, x, t] as one flat tuple of twelve integers: the triples (p, q, den) of
# v = (p + q*u)/den and x likewise in the basis {1, u}, then those of t; each
# triple is reduced (den > 0, gcd(p, q, den) = 1), so the tuple is canonical.
Flat = tuple[int, int, int, int, int, int, int, int, int, int, int, int]


def _is_complex(t: object) -> bool:
    """Whether t is a Complex: two reduced integer triples with den > 0."""
    return (
        isinstance(t, tuple) and len(t) == 2 and _is_triple(t[0]) and _is_triple(t[1])
    )


def _is_triple(part: object) -> bool:
    """Whether part is a reduced integer triple (p, q, den) with den > 0;
    tested without a generator, as every parameter file load runs it."""
    return (
        isinstance(part, tuple)
        and len(part) == 3
        and type(part[0]) is type(part[1]) is type(part[2]) is int
        and part[2] > 0
        and gcd(*part) == 1
    )


def _compose(a: Flat, b: Flat, theta: int, c0: int) -> Flat:
    """The group law [u, x, t][v, y, s] = [uv, x + uy, t + Norm(u)s - chi(x, uy)/2]
    on flat tuples, by u^2 = theta*u - c0; one gcd reduction per triple.
    u is a unit, so Norm(u) is the sign of its integer norm, and
    -chi(x, uy)/2 = (p_x q_uy - p_uy q_x)/(2 den_x den_uy) * sqrt(delta)."""
    up, uq, ud, xp, xq, xd, rp, rq, rd, ip, iq, id_ = a
    vp, vq, vd, yp, yq, yd, sp, sq, sd, jp, jq, jd = b
    qq = uq * vq
    p, q, d = up * vp - c0 * qq, up * vq + uq * vp + theta * qq, ud * vd
    g = gcd(p, q, d)
    wp, wq, wd = p // g, q // g, d // g
    qq = uq * yq
    zp, zq, zd = up * yp - c0 * qq, up * yq + uq * yp + theta * qq, ud * yd  # uy
    p, q, d = xp * zd + zp * xd, xq * zd + zq * xd, xd * zd
    g = gcd(p, q, d)
    mp, mq, md = p // g, q // g, d // g
    if up * up + theta * up * uq + c0 * uq * uq < 0:  # Norm(u) = -1
        sp, sq, jp, jq = -sp, -sq, -jp, -jq
    p, q, d = rp * sd + sp * rd, rq * sd + sq * rd, rd * sd
    c = xp * zq - zp * xq
    if c:
        cd = 2 * xd * zd
        p, q, d = p * cd, q * cd + c * d, d * cd
    g = gcd(p, q, d)
    rp, rq, rd = p // g, q // g, d // g
    if jp or jq:
        p, q, d = ip * jd + jp * id_, iq * jd + jq * id_, id_ * jd
        g = gcd(p, q, d)
        ip, iq, id_ = p // g, q // g, d // g
    return wp, wq, wd, mp, mq, md, rp, rq, rd, ip, iq, id_


def _invert(a: Flat, theta: int, c0: int) -> Flat:
    """[v, x, t]^-1 = [1/v, -x/v, -Norm(v) t]; for a unit v = (p + q*u)/den,
    1/v = Norm(v) (p + theta*q - q*u)/den, already reduced."""
    vp, vq, vd, xp, xq, xd, rp, rq, rd, ip, iq, id_ = a
    n = 1 if vp * vp + theta * vp * vq + c0 * vq * vq > 0 else -1
    wp, wq = n * (vp + theta * vq), -n * vq
    qq = xq * wq
    p, q, d = c0 * qq - xp * wp, -(xp * wq + xq * wp + theta * qq), xd * vd
    g = gcd(p, q, d)
    return (
        wp, wq, vd, p // g, q // g, d // g,
        -n * rp, -n * rq, rd, -n * ip, -n * iq, id_,
    )  # fmt: skip


class AffineElement:
    """Group element [v, x, t]: v a positive unit, x a field element, t a
    Complex.

    The group law is
        [u, x, t][v, y, s] = [uv, x + uy, t + Norm(u)s - chi(x, uy)/2],
    computed on the element's flat integer tuple (see _compose).  The public
    constructor validates (v a unit with sigma1(v) > 0, one field, t a
    Complex); products and inverses keep those invariants and are built by
    the trusted _of.  v, x and t are read off the tuple.
    """

    __slots__ = ("field", "_flat")

    def __init__(self, v: FieldElement, x: FieldElement, t: Complex) -> None:
        field = v.field
        if field is not x.field and field != x.field:
            raise ValueError("v and x live in different fields")
        if not _is_complex(t):
            raise ValueError(f"t must be two reduced integer triples, got {t!r}")
        if abs(v.norm()) != 1:
            raise ValueError(f"v must be a unit, got norm {v.norm()}")
        if sigma1_sign(v.as_integer_triple(), field.theta, field.delta) <= 0:
            raise ValueError(f"v must have sigma1 > 0, got {v}")
        _set_field(self, field)
        _set_flat(self, v.as_integer_triple() + x.as_integer_triple() + t[0] + t[1])

    @classmethod
    def _of(cls, field: FieldDescriptor, flat: Flat) -> "AffineElement":
        self = object.__new__(cls)
        _set_field(self, field)
        _set_flat(self, flat)
        return self

    @classmethod
    def _real(
        cls, v: FieldElement, x: FieldElement, t: tuple[int, int, int]
    ) -> "AffineElement":
        """[v, x, t] for a real t given by its reduced triple over
        sqrt(delta), from parts the caller has validated."""
        flat = v.as_integer_triple() + x.as_integer_triple() + t + (0, 0, 1)
        return cls._of(v.field, flat)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"AffineElement is immutable: cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"AffineElement is immutable: cannot delete {name!r}")

    def __reduce__(self):  # copy and pickle past __setattr__
        return AffineElement._of, (self.field, self._flat)

    @property
    def v(self) -> FieldElement:
        return FieldElement._raw(*self._flat[0:3], self.field)

    @property
    def x(self) -> FieldElement:
        return FieldElement._raw(*self._flat[3:6], self.field)

    @property
    def t(self) -> Complex:
        return self._flat[6:9], self._flat[9:12]

    def __mul__(self, other: "AffineElement") -> "AffineElement":
        if other.__class__ is not AffineElement:
            return NotImplemented
        field = self.field
        if other.field is not field and other.field != field:
            raise ValueError("field mismatch")
        return self._of(field, _compose(self._flat, other._flat, field.theta, field.c0))

    def inverse(self) -> "AffineElement":
        field = self.field
        return self._of(field, _invert(self._flat, field.theta, field.c0))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not AffineElement:
            return NotImplemented
        return self._flat == other._flat and self.field == other.field

    def __hash__(self) -> int:
        return hash((self.field, self._flat))

    def __repr__(self) -> str:
        return f"AffineElement(v={self.v!r}, x={self.x!r}, t={self.t!r})"

    def __str__(self) -> str:
        t = format_complex(self.t, f"sqrt({self.field.delta})", "*i")
        return f"[{self.v}, {self.x}, {t}]"


# the slots' own setters, past the __setattr__ that keeps elements immutable
_set_field = AffineElement.field.__set__
_set_flat = AffineElement._flat.__set__


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


def _center(data: WordData, a: int, b: int) -> int:
    """2 den/sqrt(delta) times Re T(a, b, 0) (see surface_group_contains):
    W = 2a C1 + 2b C2 - ab X0."""
    return 2 * (a * data.c1 + b * data.c2) - a * b * data.x0


def surface_group_contains(params: SurfaceParams, g: AffineElement) -> bool:
    """Word problem for the discrete surface group (standard form assumed).

    Writes g against the canonical word g1^a g2^b g0^k, with k the exact
    exponent g.v = u^k from triple_exponent and (a, b) the exact integer
    coordinates of g.x in I; g is rejected if either does not exist.  chi
    is antisymmetric, so g_i^a = [1, a x_i, a c_i] with c_i = chi(x_i, e)
    and g1^a g2^b = [1, a x1 + b x2, a c1 + b c2 - ab chi0/2]; g0^k =
    [u^k, 0, k t], since Norm(u) = +1 in the plus family and t = 0 in the
    minus family.  So the word is [u^k, a x1 + b x2, T] with
        T = a c1 + b c2 - ab chi0/2 + k t,
    and g word^{-1} = [1, 0, g.t - T]: g lies in the group iff
    Im(g.t) = k Im(t) and Re(g.t) - Re(T) is an integer multiple of
    g3's t = -chi0/r.  Decided on integers: with c1, c2, chi0 = (C1, C2,
    X0)/den * sqrt(delta) and t = (TP + TQ sqrt(delta) + i(IP + IQ
    sqrt(delta)))/den (WordData), the multiple is
    r (2 den q - d (W + 2k TQ)) / (2 d X0) for Re(g.t) = (p + q
    sqrt(delta))/d and W = 2a C1 + 2b C2 - ab X0.
    """
    field = params.field
    if g.field is not field and g.field != field:
        raise ValueError("field mismatch")
    data = params.word_data
    vp, vq, vd, xp, xq, xd, rp, rq, rd, ip, iq, id_ = g._flat
    k = triple_exponent((vp, vq, vd), (0, 1, 1), data.theta, data.c0)
    if k is None:
        return False
    coords = params.ideal.triple_coordinates(xp, xq, xd)
    if coords is None:
        return False
    den = data.den
    w = _center(data, *coords) + 2 * k * data.tq
    return (
        ip * den == k * data.ip * id_
        and iq * den == k * data.iq * id_
        and rp * den == k * data.tp * rd
        and (2 * den * rq - rd * w) * data.r % (2 * rd * data.x0) == 0
    )


def is_standard_form_direct(params: SurfaceParams) -> bool:
    """Conjugation test: g0 g_i g0^{-1} (g1^{n_i1} g2^{n_i2})^{-1} in <g3>.

    With g0^{-1} = [u^{-1}, 0, -Norm(u) t] the group law gives
    g0 g_i g0^{-1} = [u, u x_i, t + Norm(u) c_i] g0^{-1} = [1, u x_i, Norm(u) c_i],
    c_i = chi(x_i, e) real and Norm(u) = c0.  The rows of N give
    u x_i = n_i1 x1 + n_i2 x2 exactly, so the conjugate and the word
    [1, u x_i, T(n_i1, n_i2, 0)] differ only in their central parts, both
    pure surds, and the quotient is [1, 0, c0 c_i - T]: a multiple of
    -chi0/r iff r (2 c0 C_i - W) / (2 X0) is an integer (notation of
    surface_group_contains).  Works for both families.
    """
    data = params.word_data
    for ci, row in zip((data.c1, data.c2), params.n_matrix):
        if (2 * data.c0 * ci - _center(data, *row)) * data.r % (2 * data.x0):
            return False
    return True


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


def to_inoue_data(params: SurfaceParams) -> InoueData:
    """Export to the classical matrix-and-eigenvector data.

    alpha = sigma1(u), a_i = sigma1(x_i), b_i = sigma2(x_i),
    c_i = Norm(x_i)/2 + chi(x_i, e), d = (b1 a2 - b2 a1)/r, and (p, q) the
    integers solving (N - c0 I)(c1; c2) = -(e1; e2) - d (p; q), with
    e_i = n_i1(n_i1-1)/2 a1 b1 + n_i2(n_i2-1)/2 a2 b2 + n_i1 n_i2 b1 a2.
    The solution is integral exactly when the group is in standard form.

    Solved on integers.  For x = (p + q u)/d_x, sigma1 and sigma2 give
    (T_x +- q sqrt(delta))/(2 d_x) with T_x = 2p + q theta; so
    Norm(x) = M_x/(4 d_x^2) with M_x = T_x^2 - delta q^2, and
    chi(x_i, e) = G_i/(2 d_i d_e) sqrt(delta) with G_i = T_e q_i - T_i q_e.
    With D = T_1 q_2 - T_2 q_1, b1 a2 has surd part D/(4 d1 d2) and
    d = D/(2 d1 d2 r) sqrt(delta), D != 0 as chi0 != 0.  The rational part
    of equation i is (Norm(u x_i) - c0 Norm(x_i))/2 = 0; its surd part,
    times 4 d1 d2 d_e r, is r K_i + 2 d_e D P_i = 0 for (P_1, P_2) = (p, q),
        K_i = 2 d2 G_1 (n_i1 - c0 [i = 1]) + 2 d1 G_2 (n_i2 - c0 [i = 2])
              + n_i1 n_i2 d_e D.
    The solution is checked against r (W_i - 2 c0 C_i)/(2 X0), the quotient
    is_standard_form_direct reads off the word data (chi's triples over
    their common denominator), and each rational part, times 8 d1^2 d2^2,
    is checked to vanish.  The printed values are built from their triples; only d is a
    QuadReal product.
    """
    field = params.field
    theta, c0, delta, r = field.theta, field.c0, field.delta, params.r
    n = params.n_matrix
    p1, q1, d1 = params.x1.as_integer_triple()
    p2, q2, d2 = params.x2.as_integer_triple()
    pe, qe, de = params.e.as_integer_triple()
    tr1, tr2, tre = 2 * p1 + q1 * theta, 2 * p2 + q2 * theta, 2 * pe + qe * theta
    cross = tr1 * q2 - tr2 * q1
    g1, g2 = tre * q1 - tr1 * qe, tre * q2 - tr2 * qe
    m1, m2 = tr1 * tr1 - delta * q1 * q1, tr2 * tr2 - delta * q2 * q2
    a1 = QuadReal._reduced(tr1, q1, 2 * d1, delta)
    b1 = QuadReal._reduced(tr1, -q1, 2 * d1, delta)
    a2 = QuadReal._reduced(tr2, q2, 2 * d2, delta)
    b2 = QuadReal._reduced(tr2, -q2, 2 * d2, delta)
    c1 = QuadReal._reduced(m1 * de, 4 * d1 * g1, 8 * d1 * d1 * de, delta)
    c2 = QuadReal._reduced(m2 * de, 4 * d2 * g2, 8 * d2 * d2 * de, delta)
    d = (b1 * a2 - b2 * a1) / r
    data = params.word_data
    solution = []
    for i, ((ni1, ni2), ci) in enumerate(zip(n, (data.c1, data.c2))):
        k = (
            2 * d2 * g1 * (ni1 - c0 * (i == 0))
            + 2 * d1 * g2 * (ni2 - c0 * (i == 1))
            + ni1 * ni2 * de * cross
        )
        value, rest = divmod(-r * k, 2 * de * cross)
        if rest:
            raise StandardFormError(
                "no integer (p, q) solves the translation system; the group is "
                "not in standard form ((1-u)/u e + (n21 n22/2) x1 - (n11 n12/2) x2 "
                "is not in I/r)"
            )
        # Exact re-substitution; a failure here is an arithmetic bug.
        rational = (
            (ni1 * ni1 - c0 * (i == 0)) * m1 * d2 * d2
            + (ni2 * ni2 - c0 * (i == 1)) * m2 * d1 * d1
            + 2 * ni1 * ni2 * (tr1 * tr2 - delta * q1 * q2) * d1 * d2
        )
        quotient = r * (_center(data, ni1, ni2) - 2 * c0 * ci)
        if rational or quotient != 2 * data.x0 * value:
            raise InternalConsistencyError("translation system re-substitution failed")
        solution.append(value)
    alpha = field.u().sigma1()
    return InoueData(n, *solution, alpha, a1, a2, b1, b2, c1, c2, d)
