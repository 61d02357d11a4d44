"""The classifiers that components._classify replaced, and the Cayley table
that ComponentGroup.table replaced, kept with their logic unchanged as
differential references: the table-driven classifier (_classify) reads the
structure of the component group off element orders in its full Cayley
table and its elements' unit exponents; the law-driven one (law_classify)
reads it off H's integer law from the members' keys, building K's span and
the cosets q0^a K through mul_row; sorted_translate_classify is the integer
classifier as it was while it checked closure by building each translate
q0^a K element by element and sorting it, and K by spanning the basis that
_kernel_basis reads off every element's order; mul_row_table builds every
row of the table from H's law; _minor_gcd, the gcd of every k x k minor,
gave the abelian invariant factors before three closed-form gcds did."""

from __future__ import annotations

from bisect import bisect_left
from itertools import combinations
from math import gcd, lcm
from typing import Sequence

from inoueaut.components import AmbientGroup, GroupStructure, InternalConsistencyError


def mul_row_table(
    ambient: AmbientGroup, keys: list[int]
) -> tuple[tuple[int, ...], ...]:
    """The Cayley table of the subgroup with these keys, on element indices,
    one mul_row call per row."""
    index = {key: k for k, key in enumerate(keys)}
    return tuple(
        tuple(map(index.__getitem__, ambient.mul_row(x, keys))) for x in keys
    )


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
    unit_exps: list[int], table: Sequence[Sequence[int]], unit_order: int
) -> GroupStructure:
    order = len(unit_exps)
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
    step = gcd(unit_order, *[i for i in unit_exps if i])
    quotient_order = unit_order // step
    kernel_indices = [k for k, i in enumerate(unit_exps) if i == 0]
    gens = _abelian_basis(kernel_indices, table, orders)
    kernel_factors = tuple(order_ for _, order_ in gens)
    span = _span_coordinates(gens, table)
    candidates = [k for k, i in enumerate(unit_exps) if i == step]
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


def _coset_order(k: int, d1: int, d2: int) -> int:
    k1, k2 = divmod(k, d2)
    return lcm(d1 // gcd(k1, d1), d2 // gcd(k2, d2))


def _det(m: list[list[int]]) -> int:
    if not m:
        return 1
    return sum(
        (-1) ** j * m[0][j] * _det([row[:j] + row[j + 1 :] for row in m[1:]])
        for j in range(len(m))
    )


def _minor_gcd(rows: list[list[int]], size: int) -> int:
    """The gcd of the size x size minors, i.e. the determinantal divisor."""
    return gcd(
        *(
            _det([[rows[i][j] for j in cols] for i in picked])
            for picked in combinations(range(len(rows)), size)
            for cols in combinations(range(len(rows[0])), size)
        )
    )


def law_classify(ambient: AmbientGroup, keys: Sequence[int]) -> GroupStructure:
    """Reads the structure of Q off H's integer law from its members' keys
    (ascending); raises InternalConsistencyError unless they form a subgroup
    of H.

    K = Q n (Z/d1 x Z/d2) has rank <= 2, and Q/K is cyclic of order
    n' = n/step, step = gcd(n, unit exponents), generated by any member
    q0 = (step, k).  Conjugation by q0 acts on K as A^step, and
    q0^n' = (0, N k) with the norm matrix N = sum_{j<n'} A^(j step).
    """
    n, c = ambient.n, ambient.quotient.order
    d1, d2 = ambient.quotient.d1, ambient.quotient.d2
    actions = ambient._actions

    def image(m, k: int) -> int:
        (m11, m12), (m21, m22) = m
        k1, k2 = divmod(k, d2)
        return (k1 * m11 + k2 * m21) % d1 * d2 + (k1 * m12 + k2 * m22) % d2

    def meets_top_trivially(k: int) -> bool:  # |<k, top>| = |K|, by minors
        rows = [[d1, 0], [0, d2], list(divmod(k, d2)), list(divmod(top, d2))]
        return _minor_gcd(rows, 2) * len(kernel) == d1 * d2

    # K's basis: the first element of the top order exp, then the first of
    # order |K|/exp whose span meets <top> only in 0.
    members = [divmod(x, c) for x in keys]  # the pairs (unit exponent, coset)
    kernel = [k for i, k in members if i == 0]
    orders = [_coset_order(k, d1, d2) for k in kernel]
    exp = lcm(*orders)
    top = next((k for k, o in zip(kernel, orders) if o == exp), None)
    low = None
    if top is not None and len(kernel) % exp == 0:
        low = next(
            (
                k
                for k, o in zip(kernel, orders)
                if o * exp == len(kernel) and meets_top_trivially(k)
            ),
            None,
        )
    if low is None:
        raise InternalConsistencyError("the unit kernel is not a group")
    gens = [(g, o) for g, o in ((low, len(kernel) // exp), (top, exp)) if o > 1]
    span: dict[int, tuple[int, ...]] = {0: ()}
    for gen, order in gens:
        layer, span, x = span, {}, 0
        for e in range(order):
            for y, coords in zip(ambient.mul_row(x, layer), layer.values()):
                span[y] = coords + (e,)
            [x] = ambient.mul_row(x, [gen])
    if span.keys() != set(kernel):
        raise InternalConsistencyError("the unit kernel is not a group")

    step = gcd(n, *(i for i, _ in members))
    quotient_order = n // step
    s = step % n
    candidates = [k for i, k in members if i == s]
    if not candidates:
        raise InternalConsistencyError(f"no member has unit exponent {s}")
    powers = [actions[j * s % n] for j in range(quotient_order)]
    norm = [[sum(a[i][col] for a in powers) for col in (0, 1)] for i in (0, 1)]
    split = next((k for k in candidates if image(norm, k) == 0), None)
    q0 = candidates[0] if split is None else split
    conjugates = [image(actions[s], gen) for gen, _ in gens]
    power = image(norm, q0)
    if any(x not in span for x in (*conjugates, power)):
        raise InternalConsistencyError("the quotient generator does not normalize K")
    # K is a group normalized by q0 and holds q0^n', so the cosets q0^a K,
    # a < n', form a group; Q is a group iff it is that one.
    generated, x = set(), 0
    for _ in range(quotient_order):
        generated.update(ambient.mul_row(x, span))
        [x] = ambient.mul_row(x, [s * c + q0])
    if generated != set(keys):
        raise InternalConsistencyError("membership set is not closed")

    twist = span[power]
    if conjugates == [gen for gen, _ in gens]:
        # Q = <gens, q0 | orders, n' q0 = twist>; the Smith form of these
        # relations gives the invariant factors as determinantal quotients.
        size = len(gens) + 1
        relations = [
            [o if j == i else 0 for j in range(size)] for i, (_, o) in enumerate(gens)
        ]
        relations.append([-t for t in twist] + [quotient_order])
        divisors = [_minor_gcd(relations, k) for k in range(size + 1)]
        factors = tuple(b // a for a, b in zip(divisors, divisors[1:]) if b != a)
        return GroupStructure(len(members), True, invariant_factors=factors)
    return GroupStructure(
        len(members),
        False,
        quotient_order=quotient_order,
        kernel_factors=tuple(o for _, o in gens),
        action=tuple(span[x] for x in conjugates),
        split=split is not None,
        twist=None if split is not None else twist,
    )


def _kernel_basis(kernel: list[int], d1: int, d2: int) -> list[tuple[int, int]]:
    """K's basis as (key, order) pairs of order > 1, low before top: top is
    the first element of the top order exp, low the first of order |K|/exp
    whose span meets <top> only in 0, i.e. for which the gcd of the 2x2
    minors of the rows (d1, 0), (0, d2), low, top is |C|/|K|.  Raises
    InternalConsistencyError when there is no such pair."""
    c, size = d1 * d2, len(kernel)

    def meets_top_trivially(k: int) -> bool:
        k1, k2 = divmod(k, d2)
        minors = gcd(c, d1 * k2, d1 * t2, d2 * k1, d2 * t1, k1 * t2 - k2 * t1)
        return minors * size == c

    # (k1, k2) has order lcm(d1/gcd(k1, d1), d2/gcd(k2, d2)), which is
    # d2/gcd(k1 d2/d1, k2, d2) as d1 | d2
    f = d2 // d1
    orders = [d2 // gcd(k // d2 * f, k % d2, d2) for k in kernel]
    exp = lcm(*orders)
    top = next((k for k, o in zip(kernel, orders) if o == exp), None)
    low = None
    if top is not None and size % exp == 0:
        t1, t2 = divmod(top, d2)
        low = next(
            (
                k
                for k, o in zip(kernel, orders)
                if o * exp == size and meets_top_trivially(k)
            ),
            None,
        )
    if low is None:
        raise InternalConsistencyError("the unit kernel is not a group")
    return [(g, o) for g, o in ((low, size // exp), (top, exp)) if o > 1]


def sorted_translate_classify(ambient: AmbientGroup, keys: list[int]) -> GroupStructure:
    """Reads the structure of Q off H's integer law from its members' keys
    (ascending); raises InternalConsistencyError unless they form a subgroup
    of H.

    K = Q n (Z/d1 x Z/d2), the keys below |C|, has rank <= 2, and its law is
    addition mod (d1, d2) in Smith coordinates, so its span is the sums of
    multiples of its basis.  Q/K is cyclic of order n' = n/step, step =
    gcd(n, unit exponents), generated by any member q0 = (step, k).
    Conjugation by q0 acts on K as A^step, and q0^n' = (0, N k) with the
    norm matrix N = sum_{j<n'} A^(j step).  Once q0 normalizes K, the coset
    q0^a K is the translate (a step, k_a + K) of q0^a = (a step, k_a).
    """
    n, c = ambient.n, ambient.quotient.order
    d1, d2 = ambient.quotient.d1, ambient.quotient.d2
    actions = ambient._actions

    def image(m, k: int) -> int:
        (m11, m12), (m21, m22) = m
        k1, k2 = divmod(k, d2)
        return (k1 * m11 + k2 * m21) % d1 * d2 + (k1 * m12 + k2 * m22) % d2

    kernel = keys[: bisect_left(keys, c)]
    size = len(kernel)
    gens = _kernel_basis(kernel, d1, d2)
    # span lists e_low low + e_top top at position e_low + e_top o_low
    span = [0]
    for gen, order in gens:
        g1, g2 = divmod(gen, d2)
        layer = [divmod(x, d2) for x in span]
        span = [
            (x1 + e * g1) % d1 * d2 + (x2 + e * g2) % d2
            for e in range(order)
            for x1, x2 in layer
        ]
    if sorted(span) != kernel:
        raise InternalConsistencyError("the unit kernel is not a group")

    def coordinates(x: int) -> tuple[int, ...]:
        try:
            p, out = span.index(x), []
        except ValueError:
            raise InternalConsistencyError(
                "the quotient generator does not normalize K"
            ) from None
        for _, order in gens:
            p, e = divmod(p, order)
            out.append(e)
        return tuple(out)

    exps, lo = [], size  # the unit exponents present, by bisection
    while lo < len(keys):
        exps.append(keys[lo] // c)
        lo = bisect_left(keys, (exps[-1] + 1) * c, lo)
    step = gcd(n, *exps)
    quotient_order = n // step
    s = step % n
    base = s * c  # the candidates for q0 are the keys base + k, k < |C|
    lo = bisect_left(keys, base)
    candidates = keys[lo : bisect_left(keys, base + c, lo)]
    if not candidates:
        raise InternalConsistencyError(f"no member has unit exponent {s}")
    powers = [actions[j * s % n] for j in range(quotient_order)]
    norm = [[sum(a[i][col] for a in powers) for col in (0, 1)] for i in (0, 1)]
    split = next((k for k in candidates if image(norm, k - base) == 0), None)
    q0 = (candidates[0] if split is None else split) - base
    conjugates = [image(actions[s], gen) for gen, _ in gens]
    action = [coordinates(x) for x in conjugates]
    twist = coordinates(image(norm, q0))
    # K is a group normalized by q0 and holds q0^n', so the cosets q0^a K,
    # a < n', form a group; Q is a group iff it is that one.  In key order
    # the members are K and then, for 0 < a < n', the translates in turn.
    if len(keys) != quotient_order * size:
        raise InternalConsistencyError("membership set is not closed")
    (m11, m12), (m21, m22) = actions[s]
    q1, q2 = a1, a2 = divmod(q0, d2)  # q0^a = (a step, a1 d2 + a2)
    for lo in range(size, len(keys), size):
        offset = lo // size * step * c
        translate = [
            offset + (k // d2 + a1) % d1 * d2 + (k % d2 + a2) % d2 for k in kernel
        ]
        translate.sort()
        if keys[lo : lo + size] != translate:
            raise InternalConsistencyError("membership set is not closed")
        a1, a2 = (a1 * m11 + a2 * m21 + q1) % d1, (a1 * m12 + a2 * m22 + q2) % d2

    if conjugates == [gen for gen, _ in gens]:
        # Q = <gens, q0 | orders, n' q0 = twist>; the Smith form of these
        # relations gives the invariant factors as determinantal quotients.
        rank = len(gens) + 1
        relations = [
            [o if j == i else 0 for j in range(rank)] for i, (_, o) in enumerate(gens)
        ]
        relations.append([-t for t in twist] + [quotient_order])
        divisors = [_minor_gcd(relations, k) for k in range(rank + 1)]
        factors = tuple(b // a for a, b in zip(divisors, divisors[1:]) if b != a)
        return GroupStructure(len(keys), True, invariant_factors=factors)
    return GroupStructure(
        len(keys),
        False,
        quotient_order=quotient_order,
        kernel_factors=tuple(o for _, o in gens),
        action=tuple(action),
        split=split is not None,
        twist=None if split is not None else twist,
    )
