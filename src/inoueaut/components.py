"""The finite ambient group of normalizer candidates, the exact membership
conditions cutting the component group out of it, the component group with
its classification (read off the ambient group's integer law) and its lazily
built multiplication table, and an independent normalizer oracle used to
cross-check every answer.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import namedtuple
from collections.abc import Callable, Iterable, Iterator, Sequence
from functools import cached_property
from itertools import chain, repeat
from math import gcd, lcm
from operator import itemgetter

from .exactnum import ValueTooLargeError, _Record, _decimal_digits, format_quads
from .lattice import IntMatrix, InternalConsistencyError, LatticeQuotient
from .quadfield import FieldElement
from .surfacegroup import (
    AffineElement,
    StandardFormError,
    SurfaceParams,
    InoueData,
    is_standard_form_direct,
    surface_group_contains,
    to_inoue_data,
)
from .units import fundamental_unit, invariant_unit_generator, sigma1_sign


class AmbientGroup(_Record):
    """The finite group (units fixing I / <u>) x| (I(1-u)^{-1} / I).

    Coset k1*d2 + k2 has Smith coordinates (k1, k2) mod (d1, d2), so this is
    (Z/n) x| (Z/d1 x Z/d2), with u_gen^i acting by the integer matrix
    _actions[i] (rows: images of the Smith basis).  An element (i, k), the
    class [u_gen^i, rep(k)], is the integer key i*|C| + k, so the keys
    range(order) list H in lexicographic order.
    """

    _fields = ("eta", "u_gen", "j", "n", "quotient", "unit_powers", "_actions")

    def __init__(
        self,
        eta: FieldElement,
        u_gen: FieldElement,
        j: int,
        n: int,
        quotient: LatticeQuotient,
        unit_powers: tuple[FieldElement, ...],
        _actions: tuple[IntMatrix, ...],
    ) -> None:
        self.eta, self.u_gen, self.j, self.n = eta, u_gen, j, n
        self.quotient, self.unit_powers, self._actions = quotient, unit_powers, _actions

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


# The largest ambient group analyze builds; a larger one is refused (exit 3)
# before its cosets are built.  The report prints every coset, and
# analyze --no-oracle at Q = H (Z[u], plus family, r = 2(theta-2)) takes
# about 0.23-0.31 s and 32 MB peak RSS at 10**5 elements, 0.58-0.73 s and
# 64 MB at 3*10**5 (2 vCPU, CPython 3.11).
AMBIENT_LIMIT = 10**6

# The largest ambient group the normalizer oracle checks.  The check makes a
# few oracle calls (2-3 at |Q| = 1: theta = 2000, 10**4 and 10**5 + 1, Z[u],
# plus family, r = 2) and integer work linear in |H|.  At theta = 10**5 + 1
# (99 999 elements, same machine) it takes 93-128 ms at |Q| = 1, where the
# candidate scan maps every key, and 9-13 ms at Q = H, where it maps none.
ORACLE_LIMIT = 10**5


# The largest Cayley table (|Q|^2 entries) --machine writes; a larger one is
# refused (exit 3) before it is built.  analyze --no-oracle --machine takes
# about 1.1-1.5 s and 167 MB peak RSS at |Q| = 2998 (9.0*10**6 entries, 42 MB
# of JSON; same machine), most of the time in json.dumps, so
# about 185 MB at the limit.
TABLE_LIMIT = 10**7


def _elements(order: int) -> str:
    if order.bit_length() < 256:
        return f"{order} elements"
    return f"about 10^{_decimal_digits(order)} elements"


def _unit_head(
    params: SurfaceParams,
) -> tuple[FieldElement, FieldElement, int, int, int]:
    """(eta, u_gen, j, n, order): the fundamental unit eta, the unit
    generator u_gen = eta**j with u_gen**n = u, and the ambient order
    n * |Norm(1 - u)|."""
    field = params.field
    eta = fundamental_unit(field)
    u_gen, j, n = invariant_unit_generator(params.ideal, eta)
    return eta, u_gen, j, n, n * abs(1 - field.theta + field.c0)


def build_ambient(params: SurfaceParams) -> AmbientGroup:
    """Runs the unit and quotient steps and packages the ambient group;
    refuses a group of more than AMBIENT_LIMIT elements before building
    its cosets."""
    field = params.field
    eta, u_gen, j, n, order = _unit_head(params)
    if order > AMBIENT_LIMIT:
        raise ValueTooLargeError(
            f"value too large to analyze: the ambient group would have "
            f"{_elements(order)}, more than {AMBIENT_LIMIT}"
        )
    quotient = params.coset_cover.quotient(params.ideal)
    if quotient.order * n != order:
        raise InternalConsistencyError(
            f"coset count {quotient.order} != |Norm(1-u)| = {order // n}"
        )
    unit_powers = [field.one()]
    for _ in range(1, n):
        unit_powers.append(unit_powers[-1] * u_gen)
    d1, d2 = quotient.d1, quotient.d2
    (a11, a12), (a21, a22) = (
        divmod(quotient.index_of(u_gen * FieldElement._reduced(*b, field)), d2)
        for b in quotient.smith_basis
    )
    actions = [((1 % d1, 0), (0, 1 % d2))]
    for _ in range(n):
        actions.append(
            tuple(
                ((x * a11 + y * a21) % d1, (x * a12 + y * a22) % d2)
                for x, y in actions[-1]
            )
        )
    # u_gen^n = u, and (u-1) I(1-u)^{-1} = I, so A^n is the identity; that
    # makes every A^i a bijection of the cosets.
    if actions.pop() != actions[0]:
        raise InternalConsistencyError("u_gen^n does not fix every coset")
    return AmbientGroup(
        eta, u_gen, j, n, quotient, tuple(unit_powers), tuple(actions)
    )


class MembershipForm(
    namedtuple("MembershipForm", "den1 a0 a1 a2 b0 b1 b2 den2 c p1 p2 q11 q12 q22")
):
    """The two membership conditions for [v, k1 b1 + k2 b2] as integer forms
    in (k1, k2): the class is a member iff
        a0 + a1 k1 + a2 k2 = b0 + b1 k1 + b2 k2 = 0 (mod den1) and
        c + p1 k1 + p2 k2 + q11 k1^2 + q12 k1 k2 + q22 k2^2 = 0 (mod den2)."""

    __slots__ = ()

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


def _reduced_form(den: int, coefficients: Sequence[int]) -> list[int]:
    """den and the coefficients of a form tested mod den, divided by their
    gcd, the coefficients then taken mod den."""
    g = gcd(den, *coefficients)
    den //= g
    return [den, *(x // g % den for x in coefficients)]


def membership_forms(
    params: SurfaceParams,
    basis: tuple[tuple[int, int, int], tuple[int, int, int]],
) -> Callable[[FieldElement], MembershipForm | None]:
    """The membership test for [v, k1 b1 + k2 b2], (b1, b2) a basis of
    I(1-u)^{-1} given by its integer triples (p, q, den), as integer forms
    in (k1, k2): the returned function maps a unit power v to its
    MembershipForm, or to None when no class [v, y] is a member.

    Condition 1: z = (v-1)e + y - (m21 m22 v x1 - m11 m12 v x2)/2 in I/r, m
    being v's matrix on (x1, x2), so v x_i has the coordinates of m's row
    i; r times the coordinates of z in I are affine in k and must be
    integers.
    Condition 2: (Norm(v)-1)t + chi((u-1)y, e - y/2) + a*b*chi0/2 in chi0 Z/r,
    with (a, b) the coordinates of (1-u)y in (x1, x2).  Every term but -2t
    (present for Norm(v) = det m = -1) is a multiple of sqrt(delta), so the
    test is r * value / chi0 in Z on a quadratic in k, over the common
    denominator 2 den(chi0) den(b)^2 den(e) den(t) of its terms.  For the minus
    family condition 2 is always solvable in the free central parameter, so
    only condition 1 constrains membership.

    v enters only through m: form 1's constant and, by det m, which of the
    two forms 2 applies.  So the rest is built here, once per basis.
    """
    field, ideal, r = params.field, params.ideal, params.r
    (p1, q1, e1), (p2, q2, e2) = basis
    den = lcm(e1, e2)
    f1, f2 = den // e1, den // e2
    p1, q1, p2, q2 = p1 * f1, q1 * f1, p2 * f2, q2 * f2
    ep, eq, ed = params.e.as_integer_triple()
    # e = (me x1 + ne x2)/de and b_i = (s_i x1 + t_i x2)/db
    me, ne, de = ideal._solve(ep, eq, ed)
    s1, t1, db = ideal._solve(p1, q1, den)
    s2, t2, _ = ideal._solve(p2, q2, den)
    den1 = lcm(2 * de, db)
    fz, fb = den1 // (2 * de) * r, den1 // db * r
    s1, s2, t1, t2 = s1 * fb, s2 * fb, t1 * fb, t2 * fb
    # form 2 for Norm(v) = -1, +1; None when no class [v, y] is a member
    if field.c0 == -1:
        form2 = ((1, 0, 0, 0, 0, 0, 0),) * 2
    else:
        form2 = _central_forms(params, ((p1, q1), (p2, q2)), den)

    def unit_form(v: FieldElement) -> MembershipForm | None:
        (m11, m12), (m21, m22) = _unit_matrix(params, v)
        central = form2[m11 * m22 - m12 * m21 == 1]  # Norm(v) = det m
        if central is None:
            return None
        # z at k = 0, over 2 de: (v-1)e less the correction m11 m21 (m22 - m12)/2,
        # m12 m22 (m21 - m11)/2
        a0 = 2 * (me * (m11 - 1) + ne * m21) - de * m11 * m21 * (m22 - m12)
        b0 = 2 * (me * m12 + ne * (m22 - 1)) - de * m12 * m22 * (m21 - m11)
        form1 = _reduced_form(den1, (a0 * fz, s1, s2, b0 * fz, t1, t2))
        return MembershipForm(*form1, *central)

    return unit_form


def _central_forms(
    params: SurfaceParams, rows: tuple[tuple[int, int], tuple[int, int]], den: int
) -> tuple[list[int] | None, list[int]]:
    """Form 2 of the plus family over the basis b_i = (p_i + q_i u)/den,
    rows = ((p1, q1), (p2, q2)), for Norm(v) = -1 and for Norm(v) = +1;
    None for Norm(v) = -1 when -2t is not a rational multiple of
    sqrt(delta)."""
    field, ideal, r = params.field, params.ideal, params.r
    (p1, q1), (p2, q2) = rows
    ep, eq, ed = params.e.as_integer_triple()
    theta = field.theta
    _, x0, x0d = params.chi0.as_integer_triple()
    # g_i = (u-1) b_i = (gp_i + gq_i u)/den, by u^2 = theta u - 1, and
    # chi(x, w) = (p_w q_x - p_x q_w)/(d_x d_w) * sqrt(delta)
    (g1p, g1q), (g2p, g2q) = g = [(-q - p, p + (theta - 1) * q) for p, q in rows]
    coords = []
    for (gp, gq), (p, q) in zip(g, rows):
        pair = ideal.triple_coordinates(-gp, -gq, den)
        if pair is None:
            b = FieldElement._reduced(p, q, den, field)
            raise ValueError(f"(1-u)*{b} is not in the ideal")
        coords.append(pair)
    (ak, bk), (al, bl) = coords
    # the surd parts of chi(g_i, e) times den*ed, of chi(g_i, b_j) times den^2
    c1, c2 = ep * g1q - g1p * eq, ep * g2q - g2p * eq
    s11, s12 = p1 * g1q - g1p * q1, p2 * g1q - g1p * q2
    s21, s22 = p1 * g2q - g2p * q1, p2 * g2q - g2p * q2
    x0e, wide = x0 * den * den, 2 * x0d * den
    scale = r * x0d

    def form2(tq: int, td: int) -> list[int]:
        return _reduced_form(
            abs(x0) * wide * den * ed * td,
            [
                x * scale
                for x in (
                    -2 * tq * wide * den * ed,
                    c1 * wide * td,
                    c2 * wide * td,
                    (ak * bk * x0e - s11 * x0d) * ed * td,
                    ((ak * bl + al * bk) * x0e - (s12 + s21) * x0d) * ed * td,
                    (al * bl * x0e - s22 * x0d) * ed * td,
                )
            ],
        )

    (tp, tq, td), (ip, iq, _) = params.t
    # Norm(v) = -1: -2t must itself be a rational multiple of sqrt(delta)
    return None if ip or iq or tp else form2(tq, td), form2(0, 1)


def membership_conditions(
    params: SurfaceParams, v: FieldElement, y: FieldElement
) -> bool:
    """Exact evaluation of the two membership conditions for the class [v, y]:
    membership_forms over the basis of I(1-u)^{-1}, at y's coordinates."""
    cover = params.coset_cover
    basis = tuple(b.as_integer_triple() for b in cover.basis)
    form = membership_forms(params, basis)(v)
    coords = cover.integer_coordinates(y)
    if coords is None:
        raise ValueError(f"{y} lies outside I(1-u)^(-1)")
    return form is not None and form.accepts(*coords)


def _unit_matrix(params: SurfaceParams, v: FieldElement) -> IntMatrix:
    """Rejects v unless it is a unit with sigma1 > 0 mapping I onto itself;
    returns v's matrix on I (of determinant Norm(v) = +-1)."""
    field = params.field
    positive = sigma1_sign(v.as_integer_triple(), field.theta, field.delta) > 0
    if not (v.is_unit() and positive):
        raise ValueError(f"v must be a unit with sigma1 > 0, got {v}")
    m = params.ideal.mult_matrix(v)
    if m is None:
        raise ValueError(f"{v} does not map the ideal onto itself")
    return m


def _central_expression(params: SurfaceParams, y: FieldElement) -> tuple[int, int]:
    """chi((u-1)y, e - y/2) + a*b*chi(x1, x2)/2, the t-free part of condition 2,
    as (q, den) for the pure surd q/den * sqrt(delta), reduced; (a, b) are
    the coordinates of (1-u)y in (x1, x2).  On integer triples:
    (u-1)y = (-c0 q - p + (p + (theta-1) q) u)/d for y = (p + q u)/d, and
    chi(x, w) = (p_w q_x - p_x q_w)/(d_x d_w) * sqrt(delta)."""
    field = params.field
    yp, yq, yd = y.as_integer_triple()
    gp, gq = -field.c0 * yq - yp, yp + (field.theta - 1) * yq
    coords = params.ideal.triple_coordinates(-gp, -gq, yd)
    if coords is None:
        raise ValueError(f"(1-u)*{y} is not in the ideal")
    a, b = coords
    ep, eq, ed = params.e.as_integer_triple()
    wp, wq, wd = 2 * ep * yd - yp * ed, 2 * eq * yd - yq * ed, 2 * ed * yd
    _, x0, x0d = params.chi0.as_integer_triple()
    q = 2 * x0d * (wp * gq - gp * wq) + a * b * x0 * yd * wd
    d = 2 * x0d * yd * wd
    g = gcd(q, d)
    return q // g, d // g


def normalizer_oracle(params: SurfaceParams, v: FieldElement, y: FieldElement) -> bool:
    """Decides [v, y] membership by conjugating the generators directly.

    Forms h = [v, y, s] (s = 0 for the plus family; for the minus family the
    unique-up-to-lattice s = -central/2 solving the affine central
    condition), conjugates every generator by h and by h^{-1} with the
    group law, and settles each of the eight memberships with the word
    problem.  Shares nothing with membership_conditions beyond the group
    law itself.
    """
    field = params.field
    _unit_matrix(params, v)
    if not params.coset_cover.contains(y):
        raise ValueError(f"{y} lies outside I(1-u)^(-1)")
    if field.c0 == 1:
        s = (0, 0, 1)
    else:
        q, d = _central_expression(params, y)
        g = gcd(q, 2)  # q/d is reduced
        s = (0, -q // g, 2 * d // g)
    h = AffineElement._real(v, y, s)
    h_inv = h.inverse()
    for gen in params.generators:
        if not surface_group_contains(params, h * gen * h_inv):
            return False
        if not surface_group_contains(params, h_inv * gen * h):
            return False
    return True


# -- classification ----------------------------------------------------------


class GroupStructure(
    namedtuple(
        "GroupStructure",
        "order abelian invariant_factors quotient_order kernel_factors action "
        "split twist",
        defaults=(None,) * 6,
    )
):
    """Isomorphism data for the component group Q, read off its place in
    H = (Z/n) x| (Z/d1 x Z/d2).

    Abelian groups carry their invariant factors (ascending divisibility,
    1s dropped).  Nonabelian groups carry the cyclic-by-abelian presentation
    over the kernel K = Q n (Z/d1 x Z/d2): the order n' of the cyclic
    quotient Q/K, K's invariant factors, the conjugation action of the
    quotient generator q0 = (step, k) on K's basis as an exponent matrix
    (it is A^step), and, when no such q0 has order n', the twist q0^n'
    written in K's basis.  Fields that do not apply are None.
    """

    __slots__ = ()

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


def _invariant_factors(a: int, b: int, x: int, y: int, n: int) -> tuple[int, ...]:
    """The invariant factors (1s dropped) of Z^3 / <(a, 0, 0), (0, b, 0),
    (-x, -y, n)>: the quotients of its determinantal divisors, the gcds of
    its 1x1, 2x2 and 3x3 minors."""
    g1 = gcd(a, b, x, y, n)
    g2 = gcd(a * b, a * y, a * n, b * x, b * n)
    return tuple(f for f in (g1, g2 // g1, a * b * n // g2) if f > 1)


def _classify(
    ambient: AmbientGroup, keys: list[int]
) -> tuple[GroupStructure, list[int]]:
    """Reads the structure of Q off H's integer law from its members' keys
    (ascending), with at most three keys that generate Q: low and top where
    their order is above 1, and q0 unless Q = K.  Raises
    InternalConsistencyError unless the keys form a subgroup of H.

    K = Q n (Z/d1 x Z/d2), the keys below |C|, has rank <= 2, and its law is
    addition mod (d1, d2) in Smith coordinates.  So K is a group iff its keys
    are the rows of a Hermite normal form: row 0 the multiples of a row_step
    dividing d2, and the other nonempty rows, every gap-th with gap | d1,
    the cosets j (gap, t) + row 0, j < rows, with rows t = 0 mod row_step.
    Its basis is top, the first key of the top order exp = lcm(|row 0|,
    order of (gap, t)), and low, the first key of order |K|/exp whose span
    meets <top> only in 0 (one gcd of the six 2x2 minors).  An element's
    coordinates on them come from a walk along top to a multiple of low.
    Q/K is cyclic of order n' = n/step, where step is the unit exponent of
    the first key past K (n when there is none), and it is generated by any
    member q0 = (step, k), i.e. any of keys[|K| : 2|K|].  Conjugation by q0
    acts on K as A^step, and q0^n' = (0, N k) with the norm matrix
    N = sum_{j<n'} A^(j step).  Once q0 normalizes K, the coset q0^a K is the
    translate (a step, k_a + K) of q0^a = (a step, k_a); K is the translate
    a = 0.  A step that does not divide n, or any translate that differs from
    the keys in its place, means Q is no group.
    """
    n, c = ambient.n, ambient.quotient.order
    d1, d2 = ambient.quotient.d1, ambient.quotient.d2
    actions = ambient._actions
    kernel = keys[: bisect_left(keys, c)]
    size = len(kernel)
    per_row = bisect_left(kernel, d2)
    if not per_row:
        raise InternalConsistencyError("the unit kernel is not a group")
    rows = size // per_row
    row_step, gap = d2 // per_row, d1 // rows
    t = kernel[per_row] % d2 if rows > 1 else 0
    starts = [j * t % row_step for j in range(rows)]  # row j is starts[j] + row 0

    def translate(a1: int, a2: int, base: int) -> list[int]:
        """The keys base + (a1, a2) + K in order, one range per row: K's row
        j lands on row a1 + j gap mod d1, its start moved by a2 mod row_step."""
        first = base + a1 % gap * d2  # the first row's key
        j = -(a1 // gap) % rows  # the row of K that lands there
        out = []
        for s0, row in zip(starts[j:] + starts[:j], range(first, first + c, gap * d2)):
            out.extend(range(row + (s0 + a2) % row_step, row + d2, row_step))
        return out

    # (row 0 equals range(0, d2, row_step) only if per_row divides d2)
    if d1 % rows or rows * t % row_step or translate(0, 0, 0) != kernel:
        raise InternalConsistencyError("the unit kernel is not a group")

    f = d2 // d1

    def order(k: int) -> int:  # lcm(d1/gcd(k1, d1), d2/gcd(k2, d2)), as d1 | d2
        return d2 // gcd(k // d2 * f, k % d2, d2)

    exp = lcm(per_row, order(gap * d2 + t))
    top = next(k for k in kernel if order(k) == exp)
    t1, t2 = divmod(top, d2)

    def meets_top_trivially(k: int) -> bool:
        k1, k2 = divmod(k, d2)
        minors = gcd(c, d1 * k2, d1 * t2, d2 * k1, d2 * t1, k1 * t2 - k2 * t1)
        return minors * size == c

    low = next(
        k for k in kernel if order(k) * exp == size and meets_top_trivially(k)
    )
    basis = ((low, size // exp), (top, exp))
    gens = [(g, o) for g, o in basis if o > 1]
    l1, l2 = divmod(low, d2)
    low_multiples = {e * l1 % d1 * d2 + e * l2 % d2: e for e in range(size // exp)}

    def coordinates(x: int) -> tuple[int, ...]:
        x1, x2 = divmod(x, d2)
        for e in range(exp):  # x - e top is a multiple of low for one e < exp
            e_low = low_multiples.get((x1 - e * t1) % d1 * d2 + (x2 - e * t2) % d2)
            if e_low is not None:
                return tuple(a for a, (_, o) in zip((e_low, e), basis) if o > 1)
        raise InternalConsistencyError("the quotient generator does not normalize K")

    s = keys[size] // c if size < len(keys) else 0  # q0's unit exponent
    step = s or n
    if n % step:
        raise InternalConsistencyError("membership set is not closed")
    quotient_order = n // step
    base = s * c  # the candidates for q0 are the keys base + k, k < |C|
    candidates = keys[size : 2 * size] if s else kernel
    norm = ambient.power_map(s, quotient_order)
    images = ambient.apply(norm, (k - base for k in candidates))
    split = next((k for k, z in zip(candidates, images) if z == 0), None)
    q0 = (candidates[0] if split is None else split) - base
    conjugates = list(ambient.apply(actions[s], (gen for gen, _ in gens)))
    action = [coordinates(x) for x in conjugates]
    twist = coordinates(next(ambient.apply(norm, (q0,))))
    # K is a group normalized by q0 and holds q0^n', so the cosets q0^a K,
    # a < n', form a group; Q is a group iff it is that one.  In key order
    # the members are K and then, for 0 < a < n', the translates in turn.
    if len(keys) != quotient_order * size:
        raise InternalConsistencyError("membership set is not closed")
    (m11, m12), (m21, m22) = actions[s]
    q1, q2 = a1, a2 = divmod(q0, d2)  # q0^a = (a step, a1 d2 + a2)
    for lo in range(size, len(keys), size):
        if keys[lo : lo + size] != translate(a1, a2, lo // size * step * c):
            raise InternalConsistencyError("membership set is not closed")
        a1, a2 = (a1 * m11 + a2 * m21 + q1) % d1, (a1 * m12 + a2 * m22 + q2) % d2

    generators = [gen for gen, _ in gens]
    if conjugates == generators:
        # Q = <low, top, q0 | orders, n' q0 = twist>; a generator of order 1
        # has twist coordinate 0.
        x, y = ((0, 0) + twist)[-2:]
        factors = _invariant_factors(size // exp, exp, x, y, quotient_order)
        structure = GroupStructure(len(keys), True, invariant_factors=factors)
    else:
        structure = GroupStructure(
            len(keys),
            False,
            quotient_order=quotient_order,
            kernel_factors=tuple(o for _, o in gens),
            action=tuple(action),
            split=split is not None,
            twist=None if split is not None else twist,
        )
    if s:
        generators.append(base + q0)
    return structure, generators


# -- the component group ------------------------------------------------------


class ComponentGroup(_Record):
    """The group of connected components of the automorphism group: its
    elements as H's keys (ascending, identity first) and its classification."""

    _fields = ("keys", "structure", "ambient")

    def __init__(
        self, keys: list[int], structure: GroupStructure, ambient: AmbientGroup
    ) -> None:
        self.keys, self.structure, self.ambient = keys, structure, ambient

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


def require_standard_form(params: SurfaceParams) -> None:
    """Raises StandardFormError unless the generated group is in standard form."""
    if is_standard_form_direct(params):
        return
    if params.field.c0 == 1:
        raise StandardFormError(
            "(1-u)/u e + (n21 n22/2) x1 - (n11 n12/2) x2 is not in I/r"
        )
    raise StandardFormError("a conjugate g0 g_i g0^{-1} leaves <g3>")


def _member_keys(params: SurfaceParams, ambient: AmbientGroup) -> list[int]:
    """Keys of the members of H, in order: one membership form per unit
    power over the Smith basis (the surface's part of the forms built once),
    evaluated on one period of its accepted set.

    Each reduced form is a function of the coset: its residue does not move
    when k1 moves by d1 or k2 by d2.  An integer form mod L = lcm(den1,
    den2) also repeats with period L, so the accepted (k1, k2) repeat with
    periods g1 = gcd(d1, L) in k1 and g2 = gcd(d2, L) in k2.  The forms are
    stepped over the g1 x g2 grid by integer adds (the quadratic form by its
    differences).  An accepted grid point (k1, k2) stands for the keys
    k1 d2 + k2 + m g2 of its row, or, when g1 = 1, of every row; the first
    g1 rows, shifted by g1 d2 at a time, make up the unit power's block."""
    d1, d2 = ambient.quotient.d1, ambient.quotient.d2
    c = d1 * d2
    unit_form = membership_forms(params, ambient.quotient.smith_basis)
    keys = []
    for i, v in enumerate(ambient.unit_powers):
        form = unit_form(v)
        if form is None:
            continue
        den1, a0, a1, a2, b0, b1, b2, den2, c0, p1, p2, q11, q12, q22 = form
        period = lcm(den1, den2)
        g1, g2 = gcd(d1, period), gcd(d2, period)
        width = c if g1 == 1 else d2  # how far a run of step g2 goes
        runs = []  # the accepted keys of the first g1 rows, as ranges
        # the forms at (k1, 0), and the quadratic's step to (k1, 1)
        a, b, z, dz = a0, b0, c0, p2 + q22
        for k1 in range(g1):
            row = i * c + k1 * d2
            x, y, w, dw = a, b, z, dz
            for key in range(row, row + g2):
                if not (x % den1 or y % den1 or w % den2):
                    runs.append(range(key, row + width, g2))
                x += a2
                y += b2
                w += dw
                dw += 2 * q22
            a += a1
            b += b1
            z += p1 + q11 * (2 * k1 + 1)
            dz += q12
        if not runs:
            continue
        block = runs[0] if len(runs) == 1 else sorted(chain.from_iterable(runs))
        keys.extend(block)
        for shift in range(g1 * width, c, g1 * width):
            keys.extend(map(shift.__add__, block))
    return keys


def component_group(
    params: SurfaceParams, ambient: AmbientGroup | None = None
) -> ComponentGroup:
    """Gates standard form, filters the ambient group through the membership
    conditions and classifies the component group they cut out."""
    require_standard_form(params)
    if ambient is None:
        ambient = build_ambient(params)
    keys = _member_keys(params, ambient)
    if not keys or keys[0] != 0:
        raise InternalConsistencyError("identity failed the membership conditions")
    # A spot check: the scalar conditions build their form over
    # I(1-u)^{-1}'s own basis and take y's coordinates there, so at H's last
    # element they check the filter's Smith coordinates and key layout
    # against the last coset representative.
    last = ambient.order - 1
    i, k = ambient.pair(last)
    y = ambient.quotient.rep(k)
    if membership_conditions(params, ambient.unit_powers[i], y) != (
        keys[-1] == last
    ):
        raise InternalConsistencyError(
            f"filter and membership_conditions disagree at [{i},{k}]"
        )
    structure, _ = _classify(ambient, keys)
    if ambient.order % len(keys) != 0:
        raise InternalConsistencyError("component order does not divide the bound")
    return ComponentGroup(keys, structure, ambient)


def order_bound(params: SurfaceParams) -> int:
    """The exact cardinality bound n * |Norm(1 - u)| (= the ambient order),
    computed without building the ambient group."""
    *_, order = _unit_head(params)
    return order


def _check_law(ambient: AmbientGroup) -> None:
    """Checks H's integer law against field multiplication: u_gen^i times
    each Smith basis vector must land in the coset that row s of
    _actions[i] names.  index_of is additive, so these 2n values are all
    that mul_row and power_map read beyond the unit exponents mod n."""
    quotient, d2 = ambient.quotient, ambient.quotient.d2
    field = ambient.u_gen.field
    basis = [FieldElement._reduced(*b, field) for b in quotient.smith_basis]
    for i, (v, action) in enumerate(zip(ambient.unit_powers, ambient._actions)):
        for s, (b, (a1, a2)) in enumerate(zip(basis, action), 1):
            if quotient.index_of(v * b) != a1 * d2 + a2:
                raise InternalConsistencyError(
                    f"H's integer law disagrees with the field: u_gen^{i} b{s} "
                    f"is not in coset {a1 * d2 + a2}"
                )


def oracle_crosscheck(params: SurfaceParams, q: ComponentGroup) -> int:
    """Checks the member set S of Q against the normalizer oracle on the
    whole ambient group H; returns |H|, raises on any disagreement (which is
    always a bug, never a data problem).

    The keys whose class normalizes the surface group form a subgroup N of
    H, the image of the normalizer, so N = S follows from three checks:
    (a) _classify accepts S, so S is a subgroup, and it names at most
        three generators of S;
    (b) each generator passes the oracle, so S <= N;
    (c) each minimal candidate, an x outside S of order a power of a prime
        p with x^p in S, fails it or is marked.  If N != S, an x in N - S
        of least order has x^q in S for each prime q | ord(x): it is one.
        When the oracle refuses x, x^k for 0 < k < p is outside N (with
        x^p it would put x in N), and so are x^k S and S x^k: the one of
        the two with fewer product rows is marked.
    The scan reads x^p and x^(p^b), p^b >= |H|, off power_map, one unit
    exponent at a time.  _classify, the scan and the marks trust H's
    integer law, which is checked first.  Where (a) or (b) fails, the
    oracle is run on every element in key order and the first disagreement
    is raised.
    """
    ambient = q.ambient
    _check_law(ambient)

    def expect(key: int, member: bool) -> None:
        """Runs the oracle on key; raises a disagreement unless its verdict
        is member."""
        i, k = ambient.pair(key)
        v, y = ambient.unit_powers[i], ambient.quotient.rep(k)
        oracle = normalizer_oracle(params, v, y)
        if oracle != member:
            raise InternalConsistencyError(
                f"filter/oracle disagreement at [{i},{k}] = [{v}, {y}]: "
                f"filter={member}, oracle={oracle}"
            )

    keys = q.keys
    try:
        _, generators = _classify(ambient, keys)
        for gen in generators:
            expect(gen, True)
    except InternalConsistencyError:
        # a bug, as component_group accepted the same keys: name the first
        # element where the oracle and S disagree, if there is one
        members = set(keys)
        for key in range(ambient.order):
            expect(key, key in members)
        raise
    covered = bytearray(ambient.order)  # S, then the marks
    for key in keys:
        covered[key] = 1
    n, c, d2 = ambient.n, ambient.quotient.order, ambient.quotient.d2
    in_s = bytes(covered)  # S, before any mark
    big = (n * c).bit_length()  # p^big >= |H| for every p
    for i in range(n):  # row i: the keys of unit exponent i
        lo, e = i * c, n // gcd(i, n)  # e: the order of i in Z/n
        if covered.find(0, lo, lo + c) < 0:
            continue
        m = e if i else d2  # ord(x) is e times a divisor of d2
        primes = [p for p in range(2, m + 1) if m % p == 0]  # then the primes:
        primes = [p for p in primes if all(p % f for f in primes if f < p)]
        if i and len(primes) > 1:
            continue
        found = []  # (x, p) for the row's candidates x of order a power of p
        for p in primes:
            target = p * i % n * c  # (i, k)^p = (p i, k power_map(i, p))
            if in_s.find(1, target, target + c) < 0:
                continue
            images = ambient.apply(ambient.power_map(i, p), range(c))
            # the k with x^p in S and x not in S, then those with x^(p^big) = 1
            hits = [k for k, z in enumerate(images) if in_s[target + z] > in_s[lo + k]]
            kill = ambient.apply(ambient.power_map(i, p**big), hits)
            found += ((lo + k, p) for k, z in zip(hits, kill) if not z)
        for x, p in sorted(found):
            if covered[x]:
                continue
            expect(x, False)
            powers = [x]  # x^k for 0 < k < p, by doubling
            while len(powers) < p - 1:
                powers += ambient.mul_row(powers[-1], powers)
            del powers[p - 1 :]
            if len(keys) < len(powers):  # S x^k, one product row per s
                rows = (ambient.mul_row(s, powers) for s in keys)
            else:  # x^k S, one product row per power
                rows = (ambient.mul_row(y, keys) for y in powers)
            for z in chain.from_iterable(rows):
                covered[z] = 1
    return ambient.order


# -- the full report ----------------------------------------------------------


class AutReport(
    namedtuple(
        "AutReport", "params q inoue oracle_checked double_r", defaults=(None,)
    )
):
    """Everything the analysis produces for one parameter set: the
    SurfaceParams, its ComponentGroup q, its InoueData, whether the oracle
    checked q, and the ComponentGroup at 2r when asked for."""

    __slots__ = ()


def automorphism_report(
    params: SurfaceParams,
    run_oracle: bool = True,
    with_double_r: bool = False,
    machine: bool = False,
) -> AutReport:
    """Runs the whole pipeline: standard form gate, ambient group, component
    group, bound, classical-data export, and (optionally) the oracle check
    and the doubled-r cross-check for odd r.  With machine (--machine), the
    Inoue values the JSON writes are checked for printing too, and each
    Cayley table is built (or refused, exit 3) once its group is known."""
    q = component_group(params)
    ambient = q.ambient
    if run_oracle and ambient.order > ORACLE_LIMIT:
        raise ValueTooLargeError(
            f"value too large for the oracle: the ambient group has "
            f"{_elements(ambient.order)}, more than {ORACLE_LIMIT} (--no-oracle "
            f"skips the oracle)"
        )
    inoue = to_inoue_data(params)
    # N, p, q and the doubled r grow with the input, and so do the Inoue
    # values --machine writes: one with more digits than the interpreter
    # converts to text is refused (exit 3) here, before the oracle check,
    # rather than when the report is written
    doubled = (2 * params.r,) if with_double_r else ()
    numbers = (*inoue.matrix[0], *inoue.matrix[1], inoue.p, inoue.q, *doubled)
    format_quads(zip(numbers, repeat(0)), 1, "")
    if machine:
        a_b_c = (inoue.a1, inoue.a2, inoue.b1, inoue.b2, inoue.c1, inoue.c2)
        list(map(str, (inoue.alpha, *a_b_c, inoue.d)))
        q.table
    if run_oracle:
        oracle_crosscheck(params, q)
    double_r = None
    if with_double_r:
        doubled = SurfaceParams(
            params.field, 2 * params.r, params.x1, params.x2, params.e, params.t
        )
        double_r = component_group(doubled, ambient)  # H does not depend on r
        if machine:
            double_r.table
    return AutReport(
        params=params,
        q=q,
        inoue=inoue,
        oracle_checked=run_oracle,
        double_r=double_r,
    )
