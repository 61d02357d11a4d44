"""The table-driven classifier that components._classify replaced, kept
unchanged as the differential reference: it reads the structure of the
component group off element orders in its full Cayley table."""

from __future__ import annotations

from math import gcd
from typing import Sequence

from inoueaut.components import (
    CosetPair,
    GroupStructure,
    InternalConsistencyError,
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
