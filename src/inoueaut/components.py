"""The finite ambient group of normalizer candidates, the exact membership
conditions cutting the component group out of it, the component group with
its multiplication table and classification, and an independent normalizer
oracle used to cross-check every answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, NamedTuple, Sequence

from .exactnum import QuadComplex, in_discrete_subgroup
from .lattice import LatticeQuotient, Matrix2Q
from .quadfield import FieldElement, chi
from .surfacegroup import (
    AffineElement,
    StandardFormError,
    SurfaceParams,
    InoueData,
    is_standard_form_direct,
    surface_group_contains,
    to_inoue_data,
)
from .units import (
    DEFAULT_POWER_CAP,
    fundamental_unit,
    invariant_unit_generator,
    utheta_exponent,
)


class InternalConsistencyError(RuntimeError):
    """A structural property failed that only an implementation bug can break."""


class CosetPair(NamedTuple):
    """Index pair (unit_exp, coset) naming the class [u_gen^unit_exp, rep]."""

    unit_exp: int
    coset: int


@dataclass
class AmbientGroup:
    """The finite group (units fixing I / <u>) x| (I(1-u)^{-1} / I).

    Coset k1*d2 + k2 has Smith coordinates (k1, k2) mod (d1, d2), so this is
    (Z/n) x| (Z/d1 x Z/d2), with u_gen^i acting by the integer matrix
    _actions[i] (rows: images of the Smith basis).  Elements are CosetPairs
    (i, k) in lexicographic order, keyed i*|C| + k for mul_row.
    """

    eta: FieldElement
    u_gen: FieldElement
    j: int
    n: int
    quotient: LatticeQuotient
    unit_powers: tuple[FieldElement, ...]
    _actions: tuple[tuple[tuple[int, int], tuple[int, int]], ...]

    @property
    def order(self) -> int:
        return self.n * self.quotient.order

    @property
    def coset_reps(self) -> tuple[FieldElement, ...]:
        return self.quotient.reps

    @property
    def invariant_factors(self) -> tuple[int, int]:
        return self.quotient.invariant_factors

    @property
    def identity(self) -> CosetPair:
        return CosetPair(0, 0)

    def elements(self) -> list[CosetPair]:
        return [
            CosetPair(i, m)
            for i in range(self.n)
            for m in range(self.quotient.order)
        ]

    def unit_of(self, el: CosetPair) -> FieldElement:
        return self.unit_powers[el.unit_exp]

    def rep_of(self, el: CosetPair) -> FieldElement:
        return self.quotient.reps[el.coset]

    def key(self, el: CosetPair) -> int:
        return el.unit_exp * self.quotient.order + el.coset

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

    def mul(self, e1: CosetPair, e2: CosetPair) -> CosetPair:
        [key] = self.mul_row(self.key(e1), [self.key(e2)])
        return CosetPair(*divmod(key, self.quotient.order))

    def inv(self, el: CosetPair) -> CosetPair:
        """(i, k)^{-1} = (-i, 0)(0, -k)."""
        d1, d2 = self.quotient.d1, self.quotient.d2
        minus_k = -(el.coset // d2) % d1 * d2 + -el.coset % d2
        return self.mul(CosetPair(-el.unit_exp % self.n, 0), CosetPair(0, minus_k))


def build_ambient(params: SurfaceParams) -> AmbientGroup:
    """Runs the unit and quotient steps and packages the ambient group."""
    field = params.field
    eta = fundamental_unit(field)
    u_gen, j = invariant_unit_generator(params.ideal, eta)
    n = utheta_exponent(field, u_gen)
    quotient = params.coset_cover.quotient(params.ideal)
    expected = abs((field.one() - field.u()).norm())
    if quotient.order != expected:
        raise InternalConsistencyError(
            f"coset count {quotient.order} != |Norm(1-u)| = {expected}"
        )
    unit_powers = [field.one()]
    for _ in range(1, n):
        unit_powers.append(unit_powers[-1] * u_gen)
    d1, d2 = quotient.invariant_factors
    (a11, a12), (a21, a22) = (
        divmod(quotient.index_of(u_gen * b), d2) for b in quotient.smith_basis
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


def membership_conditions(
    params: SurfaceParams, v: FieldElement, y: FieldElement
) -> bool:
    """Exact evaluation of the two membership conditions for the class [v, y].

    Condition 1: (v-1)e + y - (m21 m22 v x1 - m11 m12 v x2)/2 in I/r.
    Condition 2: (Norm(v)-1)t + chi((u-1)y, e - y/2) + a*b*chi0/2 in chi0 Z/r,
    with (a, b) the coordinates of (1-u)y in (x1, x2).  For the minus family
    condition 2 is always solvable in the free central parameter, so only
    condition 1 constrains membership.
    """
    field = params.field
    (m11, m12), (m21, m22) = _validate_candidate(params, v, y).int_rows()
    one = field.one()
    u = field.u()
    correction = Fraction(m21 * m22, 2) * (v * params.x1) - Fraction(
        m11 * m12, 2
    ) * (v * params.x2)
    z = (v - one) * params.e + y - correction
    if not params.ideal_over_r.contains(z):
        return False
    if field.c0 == -1:
        return True
    expr = _central_expression(params, y)
    scale = Fraction(1, params.r)
    if v.norm() == 1:
        return in_discrete_subgroup(expr, params.chi0, scale)
    # Norm(v) = -1: the -2t contribution must itself be a rational multiple
    # of sqrt(delta) for membership in the discrete real group to make sense.
    if params.t.im:
        return False
    return in_discrete_subgroup(expr - 2 * params.t.re, params.chi0, scale)


def _validate_candidate(
    params: SurfaceParams, v: FieldElement, y: FieldElement
) -> Matrix2Q:
    """Rejects a malformed candidate [v, y]; returns v's matrix on I."""
    if not v.is_unit() or v.sigma1().sign() <= 0:
        raise ValueError(f"v must be a unit with sigma1 > 0, got {v}")
    m = params.ideal.mult_matrix(v)
    if not m.is_integral() or abs(m.det()) != 1:
        raise ValueError(f"{v} does not map the ideal onto itself")
    if not params.coset_cover.contains(y):
        raise ValueError(f"{y} lies outside I(1-u)^(-1)")
    return m


def _central_expression(params: SurfaceParams, y: FieldElement):
    """chi((u-1)y, e - y/2) + a*b*chi(x1, x2)/2, the t-free part of condition 2."""
    field = params.field
    one = field.one()
    u = field.u()
    coords = params.ideal.integer_coordinates((one - u) * y)
    if coords is None:
        raise ValueError(f"(1-u)*{y} is not in the ideal")
    a, b = coords
    return chi((u - one) * y, params.e - y / 2) + Fraction(a * b, 2) * params.chi0


def normalizer_oracle(
    params: SurfaceParams,
    v: FieldElement,
    y: FieldElement,
    cap: int = DEFAULT_POWER_CAP,
) -> bool:
    """Decides [v, y] membership by conjugating the generators directly.

    Forms h = [v, y, s] (s = 0 for the plus family; for the minus family the
    unique-up-to-lattice s solving the affine central condition), conjugates
    every generator by h and by h^{-1}, and settles each of the eight
    memberships with the word problem.  Shares nothing with
    membership_conditions beyond the group law itself.
    """
    field = params.field
    _validate_candidate(params, v, y)
    if field.c0 == 1:
        s = QuadComplex.zero(field.delta)
    else:
        s = QuadComplex.from_real(-(_central_expression(params, y) / 2))
    h = AffineElement(v, y, s)
    h_inv = h.inverse()
    for gen in params.generators:
        if not surface_group_contains(params, h * gen * h_inv, cap):
            return False
        if not surface_group_contains(params, h_inv * gen * h, cap):
            return False
    return True


# -- classification ----------------------------------------------------------


@dataclass(frozen=True)
class GroupStructure:
    """Isomorphism data for the component group.

    Abelian groups carry their invariant factors (ascending divisibility,
    1s dropped).  Nonabelian groups carry the cyclic-by-abelian presentation:
    the cyclic quotient order, the kernel's invariant factors with the
    conjugation action of the chosen quotient generator as an exponent
    matrix, and, when the extension fails to split, the twist q0^n' written
    in the kernel basis.
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


def _factorint(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _int_log(n: int, p: int) -> int:
    count = 0
    while n > 1:
        if n % p:
            raise InternalConsistencyError(f"{n} is not a power of {p}")
        n //= p
        count += 1
    return count


def _element_orders(table: Sequence[Sequence[int]]) -> list[int]:
    orders = []
    for k in range(len(table)):
        acc = k
        count = 1
        while acc != 0:
            acc = table[acc][k]
            count += 1
        orders.append(count)
    return orders


def _abelian_invariant_factors(orders: list[int]) -> tuple[int, ...]:
    """Invariant factors of an abelian group from its element orders.

    For each prime, the counts of elements killed by p^k determine the
    p-partition (the counts' log-p increments are its conjugate).
    """
    total = len(orders)
    if total == 1:
        return ()
    partitions: dict[int, list[int]] = {}
    for p in _factorint(total):
        nu: list[int] = []
        prev = 0
        k = 1
        while True:
            pk = p**k
            count = sum(1 for o in orders if pk % o == 0)
            level = _int_log(count, p)
            if level == prev:
                break
            nu.append(level - prev)
            prev = level
            k += 1
        lam = []
        i = 1
        while True:
            rows = sum(1 for depth in nu if depth >= i)
            if rows == 0:
                break
            lam.append(rows)
            i += 1
        partitions[p] = lam  # descending exponents
    rank = max(len(lam) for lam in partitions.values())
    descending = []
    for idx in range(rank):
        val = 1
        for p, lam in partitions.items():
            if idx < len(lam):
                val *= p ** lam[idx]
        descending.append(val)
    return tuple(reversed(descending))


def _cyclic_span(table: Sequence[Sequence[int]], k: int) -> set[int]:
    span = {0}
    acc = k
    while acc != 0:
        span.add(acc)
        acc = table[acc][k]
    return span


def _abelian_basis(
    member_indices: list[int], table: Sequence[Sequence[int]], orders: list[int]
) -> list[tuple[int, int]]:
    """Generators [(index, order)] realizing the invariant-factor splitting
    of an abelian subgroup of rank <= 2, ascending factor order."""
    sub_orders = [orders[k] for k in member_indices]
    factors = _abelian_invariant_factors(sub_orders)
    if not factors:
        return []
    if len(factors) > 2:
        raise InternalConsistencyError(
            "kernel of the unit projection has rank > 2"
        )
    top = factors[-1]
    a = next(k for k in member_indices if orders[k] == top)
    if len(factors) == 1:
        return [(a, top)]
    low = factors[0]
    a_span = _cyclic_span(table, a)
    for k in member_indices:
        if orders[k] == low and _cyclic_span(table, k) & a_span == {0}:
            return [(k, low), (a, top)]
    raise InternalConsistencyError("no complement found for the abelian basis")


def _span_coordinates(
    gens: list[tuple[int, int]], table: Sequence[Sequence[int]]
) -> dict[int, tuple[int, ...]]:
    """Exponent coordinates of every element of the span of the generators."""
    coords: dict[int, tuple[int, ...]] = {}

    def powers(k: int, order: int) -> list[int]:
        out = [0]
        for _ in range(order - 1):
            out.append(table[out[-1]][k])
        return out

    if len(gens) == 1:
        for e1, el in enumerate(powers(*gens[0])):
            coords[el] = (e1,)
        return coords
    p1 = powers(*gens[0])
    p2 = powers(*gens[1])
    for e1, el1 in enumerate(p1):
        for e2, el2 in enumerate(p2):
            coords[table[el1][el2]] = (e1, e2)
    return coords


def _classify(
    elements: list[CosetPair], table: Sequence[Sequence[int]], unit_order: int
) -> GroupStructure:
    order = len(elements)
    orders = _element_orders(table)
    abelian = all(
        table[i][k] == table[k][i]
        for i in range(order)
        for k in range(i + 1, order)
    )
    if abelian:
        return GroupStructure(
            order, True, invariant_factors=_abelian_invariant_factors(orders)
        )
    # Project onto the cyclic unit part; the kernel sits inside the abelian
    # coset group, so it has rank <= 2 and the presentation always exists.
    step = gcd(unit_order, *[el.unit_exp for el in elements if el.unit_exp])
    quotient_order = unit_order // step
    kernel_indices = [k for k, el in enumerate(elements) if el.unit_exp == 0]
    gens = _abelian_basis(kernel_indices, table, orders)
    kernel_factors = tuple(order_ for _, order_ in gens)
    span = _span_coordinates(gens, table)
    candidates = [k for k, el in enumerate(elements) if el.unit_exp == step]
    q0 = None
    split = False
    for k in candidates:
        if orders[k] == quotient_order:
            q0 = k
            split = True
            break
    if q0 is None:
        q0 = candidates[0]
    q0_inv = table[q0].index(0)
    action = []
    for gen_idx, _ in gens:
        conj = table[table[q0][gen_idx]][q0_inv]
        action.append(span[conj])
    twist = None
    if not split:
        acc = 0
        for _ in range(quotient_order):
            acc = table[acc][q0]
        twist = span[acc]
    return GroupStructure(
        order,
        False,
        quotient_order=quotient_order,
        kernel_factors=kernel_factors,
        action=tuple(action),
        split=split,
        twist=twist,
    )


# -- the component group ------------------------------------------------------


@dataclass
class ComponentGroup:
    """The group of connected components of the automorphism group."""

    elements: tuple[CosetPair, ...]
    table: tuple[tuple[int, ...], ...]
    structure: GroupStructure
    kernel_kind: str  # "complex-torus-star" for S(+), "order-two" for S(-)
    ambient: AmbientGroup

    @property
    def order(self) -> int:
        return len(self.elements)


def component_group(
    params: SurfaceParams, ambient: AmbientGroup | None = None
) -> ComponentGroup:
    """Filters the ambient group through the membership conditions and
    assembles the component group with its table and classification."""
    if ambient is None:
        ambient = build_ambient(params)
    members = [
        el
        for el in ambient.elements()
        if membership_conditions(params, ambient.unit_of(el), ambient.rep_of(el))
    ]
    if not members or members[0] != ambient.identity:
        raise InternalConsistencyError("identity failed the membership conditions")
    keys = [ambient.key(el) for el in members]
    index = {key: k for k, key in enumerate(keys)}
    table: list[tuple[int, ...]] = []
    for e1, x in zip(members, keys):
        row = tuple(map(index.get, ambient.mul_row(x, keys)))
        if None in row:
            e2 = members[row.index(None)]
            raise InternalConsistencyError(
                f"membership set is not closed: {e1} * {e2} fell outside"
            )
        table.append(row)
    for k, row in enumerate(table):
        if 0 not in row:
            raise InternalConsistencyError(f"element {members[k]} has no inverse")
    if ambient.order % len(members) != 0:
        raise InternalConsistencyError("component order does not divide the bound")
    structure = _classify(members, table, ambient.n)
    kernel_kind = (
        "complex-torus-star" if params.field.c0 == 1 else "order-two"
    )
    return ComponentGroup(
        tuple(members),
        tuple(table),
        structure,
        kernel_kind,
        ambient,
    )


def order_bound(params: SurfaceParams, ambient: AmbientGroup | None = None) -> int:
    """The exact cardinality bound n * |Norm(1 - u)| (= the ambient order)."""
    if ambient is not None:
        return ambient.order
    u_gen, _ = invariant_unit_generator(params.ideal)
    n = utheta_exponent(params.field, u_gen)
    norm = (params.field.one() - params.field.u()).norm()
    return n * abs(int(norm))


def oracle_crosscheck(
    params: SurfaceParams,
    ambient: AmbientGroup | None = None,
    cap: int = DEFAULT_POWER_CAP,
) -> int:
    """Checks membership_conditions against the normalizer oracle on every
    element of the ambient group; returns the element count, raises on any
    disagreement (which is always a bug, never a data problem)."""
    if ambient is None:
        ambient = build_ambient(params)
    for el in ambient.elements():
        v = ambient.unit_of(el)
        y = ambient.rep_of(el)
        conditions = membership_conditions(params, v, y)
        oracle = normalizer_oracle(params, v, y, cap)
        if conditions != oracle:
            raise InternalConsistencyError(
                f"conditions/oracle disagreement at [{v}, {y}]: "
                f"conditions={conditions}, oracle={oracle}"
            )
    return ambient.order


# -- the full report ----------------------------------------------------------


@dataclass
class AutReport:
    """Everything the analysis produces for one parameter set."""

    params: SurfaceParams
    standard_form: bool
    ambient: AmbientGroup
    q: ComponentGroup
    inoue: InoueData
    oracle_checked: bool
    oracle_elements: int
    double_r: ComponentGroup | None = None


def automorphism_report(
    params: SurfaceParams,
    run_oracle: bool = True,
    with_double_r: bool = False,
) -> AutReport:
    """Runs the whole pipeline: standard form gate, ambient group, component
    group, bound, classical-data export, and (optionally) the oracle sweep
    and the doubled-r cross-check for odd r."""
    if not is_standard_form_direct(params):
        if params.field.c0 == 1:
            raise StandardFormError(
                "(1-u)/u e + (n21 n22/2) x1 - (n11 n12/2) x2 is not in I/r"
            )
        raise StandardFormError("a conjugate g0 g_i g0^{-1} leaves <g3>")
    ambient = build_ambient(params)
    q = component_group(params, ambient)
    if q.order > ambient.order:
        raise InternalConsistencyError("component group exceeds its bound")
    inoue = to_inoue_data(params)
    oracle_elements = 0
    if run_oracle:
        oracle_elements = oracle_crosscheck(params, ambient)
    double_r = None
    if with_double_r:
        doubled = SurfaceParams(
            params.field, 2 * params.r, params.x1, params.x2, params.e, params.t
        )
        double_r = component_group(doubled, ambient)  # H does not depend on r
    return AutReport(
        params=params,
        standard_form=True,
        ambient=ambient,
        q=q,
        inoue=inoue,
        oracle_checked=run_oracle,
        oracle_elements=oracle_elements,
        double_r=double_r,
    )
