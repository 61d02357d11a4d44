"""The component-group classifier, which reads Q off H's integer law, against
the classifiers it replaced (tests/classify_reference.py): the table-driven
one, the law-driven one built on mul_row and the one that sorted each
translate of K.  On real parameter sets, on every subgroup generated by
random elements of synthetic ambient groups, and on member sets one element
away from a subgroup or with one member moved within its unit exponent,
which it must reject exactly when they are not subgroups.  The Cayley table
built by composing rows against the one built row by row from H's law."""

import random
from collections import Counter
from itertools import chain
from types import SimpleNamespace

import pytest

from classify_reference import (
    _classify as table_classify,
    law_classify,
    mul_row_table,
    sorted_translate_classify,
)
from conftest import (
    all_examples,
    example_theta7,
    random_eta_params,
    random_standard_params,
    solve_standard_e,
)
from inoueaut import (
    FieldDescriptor,
    SurfaceParams,
    automorphism_report,
    build_ambient,
    component_group,
    fundamental_unit,
)
from inoueaut.components import (
    AmbientGroup,
    ComponentGroup,
    InternalConsistencyError,
    _classify,
)
from inoueaut.cli import dump_machine, render_report


def reference_structure(ambient, keys):
    table = mul_row_table(ambient, keys)
    unit_exps = [x // ambient.quotient.order for x in keys]
    return table_classify(unit_exps, table, ambient.n)


def parameter_sets():
    """80 seeded standard-form sets of both families, half with I = Z<1, eta>."""
    rng = random.Random(127)
    for k in range(40):
        c0 = 1 if k % 2 else -1
        low = 3 if c0 == 1 else 1
        yield random_standard_params(rng, c0, (low, 12))
        yield random_eta_params(rng, c0, (low, 40))


def test_classify_matches_table_reference_on_parameter_sets():
    unit_orders = []
    for params in parameter_sets():
        q = component_group(params)
        assert q.structure == reference_structure(q.ambient, q.keys)
        unit_orders.append(q.ambient.n)
    assert sum(n > 1 for n in unit_orders) >= 40
    # ladder size: theta = 47, I = Z<1, eta>, r = 15 makes Q all of H
    field = FieldDescriptor(47, 1)
    x1, x2 = field.one(), fundamental_unit(field)
    e = solve_standard_e(field, 15, x1, x2, 0, 0)
    params = SurfaceParams.create(field, 15, x1, x2, e)
    q = component_group(params)
    assert q.order == 360 and q.ambient.n == 8
    assert q.structure == reference_structure(q.ambient, q.keys)


def synthetic_ambient(rng: random.Random) -> AmbientGroup:
    """(Z/n) x| (Z/d1 x Z/d2) with d1 | d2 <= 18, n <= 12 and a random
    action matrix A with A^n = I; only the integer law is filled in."""
    while True:
        d2 = rng.randint(1, 18)
        d1 = rng.choice([d for d in range(1, d2 + 1) if d2 % d == 0])
        # the image of the order-d1 basis vector must have order dividing d1
        (a11, a12), (a21, a22) = (
            (rng.randrange(d1), d2 // d1 * rng.randrange(d1)),
            (rng.randrange(d1), rng.randrange(d2)),
        )
        identity = ((1 % d1, 0), (0, 1 % d2))
        powers = [identity]
        while len(powers) <= 12:
            powers.append(
                tuple(
                    ((x * a11 + y * a21) % d1, (x * a12 + y * a22) % d2)
                    for x, y in powers[-1]
                )
            )
            if powers[-1] == identity:
                break
        if powers[-1] != identity:
            continue
        order = len(powers) - 1
        n = order * rng.randint(1, 12 // order)
        quotient = SimpleNamespace(order=d1 * d2, d1=d1, d2=d2)
        actions = tuple(powers[i % order] for i in range(n))
        return AmbientGroup(None, None, 0, n, quotient, (), actions)


def generated_subgroup(ambient: AmbientGroup, gens: list[int]) -> list[int]:
    keys, frontier = {0}, {0}
    while frontier:
        frontier = {y for x in frontier for y in ambient.mul_row(x, gens)} - keys
        keys |= frontier
    return sorted(keys)


def random_subgroups(rng: random.Random, count: int, max_ambient: int):
    made = 0
    while made < count:
        ambient = synthetic_ambient(rng)
        if ambient.order > max_ambient:
            continue
        gens = [rng.randrange(ambient.order) for _ in range(rng.randint(1, 3))]
        yield ambient, generated_subgroup(ambient, gens)
        made += 1


def test_classify_matches_table_reference_on_synthetic_subgroups():
    rng = random.Random(131)
    non_split = rank_three = 0
    for ambient, members in random_subgroups(rng, 1500, 200):
        structure = _classify(ambient, members)
        assert structure == reference_structure(ambient, members)
        non_split += structure.split is False
        rank_three += len(structure.invariant_factors or ()) == 3
    # cases the real parameter sets above never reach
    assert non_split and rank_three


def test_classify_rejects_unions_of_kernel_cosets():
    # Each member set is the union of the cosets q0^a K, a < n', of a
    # subgroup K, so only the checks that q0 normalizes K and that q0^n'
    # lies in K reject it.
    quotient = SimpleNamespace(order=4, d1=2, d2=2)
    swap = ((0, 1), (1, 0))
    ambient = AmbientGroup(None, None, 0, 2, quotient, (), (((1, 0), (0, 1)), swap))
    not_normal = [0, 2, 4, 6]  # A moves K = <(1, 0)>
    with pytest.raises(InternalConsistencyError):
        _classify(ambient, not_normal)
    quotient = SimpleNamespace(order=3, d1=1, d2=3)
    ambient = AmbientGroup(None, None, 0, 2, quotient, (), (((0, 0), (0, 1)),) * 2)
    with pytest.raises(InternalConsistencyError):  # (1, 1)^2 = (0, 2)
        _classify(ambient, sorted({0, 4}))


def is_subgroup(ambient: AmbientGroup, keys: set[int]) -> bool:
    return 0 in keys and all(set(ambient.mul_row(x, keys)) <= keys for x in keys)


def mutated_key_sets():
    """(ambient, key set) one element away from a subgroup: of 150 synthetic
    subgroups, their trivial subgroups, the worked examples and one eta set."""
    rng = random.Random(137)
    cases = []
    for ambient, members in random_subgroups(rng, 150, 60):
        # adding one element to the trivial group reaches q0^n' outside K
        cases += [(ambient, members), (ambient, members[:1])]
    for params in all_examples() + [random_eta_params(rng, -1, (1, 12))]:
        q = component_group(params, build_ambient(params))
        cases.append((q.ambient, q.keys))
    for ambient, members in cases:
        keys = set(members)
        removed = [keys - {x} for x in keys]
        added = [keys | {y} for y in range(ambient.order) if y not in keys]
        for mutated in removed + added:
            yield ambient, mutated


def test_classify_rejects_exactly_the_non_subgroups():
    still_groups = 0
    for ambient, mutated in mutated_key_sets():
        if is_subgroup(ambient, mutated):
            still_groups += 1
            _classify(ambient, sorted(mutated))
        else:
            with pytest.raises(InternalConsistencyError):
                _classify(ambient, sorted(mutated))
    assert still_groups > 0


def classified(classify, ambient: AmbientGroup, members):
    try:
        return classify(ambient, members)
    except InternalConsistencyError:
        return None


def test_classify_matches_law_reference():
    # the same structure, or a refusal on the same member sets, as the
    # mul_row classifier it replaced, over the cases of the tests above
    cases = chain(
        random_subgroups(random.Random(131), 1500, 200),
        ((a, sorted(keys)) for a, keys in mutated_key_sets()),
        ((q.ambient, q.keys) for q in map(component_group, parameter_sets())),
    )
    outcomes = Counter()
    for ambient, members in cases:
        new = classified(_classify, ambient, members)
        assert new == classified(law_classify, ambient, members)
        outcomes[new is None] += 1
    assert outcomes[True] and outcomes[False]


def test_classify_rejects_moves_within_a_unit_exponent():
    # One member of a subgroup moved to a free key of its unit exponent keeps
    # the count and the unit exponents, so inside K only the span check and
    # outside K only the translate check can reject it.
    rng = random.Random(139)
    rejected = Counter()
    for ambient, members in random_subgroups(rng, 400, 120):
        keys = set(members)
        c = ambient.quotient.order
        x = rng.choice(sorted(keys))
        free = [y for y in range(x - x % c, x - x % c + c) if y not in keys]
        if not free:
            continue
        moved = keys - {x} | {rng.choice(free)}
        structure = classified(_classify, ambient, sorted(moved))
        assert (structure is not None) == is_subgroup(ambient, moved)
        reference = classified(law_classify, ambient, sorted(moved))
        assert structure == reference
        rejected[x < c] += structure is None
    assert rejected[True] and rejected[False]


def test_only_machine_output_builds_the_table():
    report = automorphism_report(example_theta7(), False, with_double_r=True)
    render_report(report)
    assert "table" not in vars(report.q) and "table" not in vars(report.double_r)
    dump_machine(report)
    assert "table" in vars(report.q)


def moved_key_sets():
    """(ambient, key set) with one member of a synthetic subgroup moved to
    a free key of its unit exponent."""
    rng = random.Random(139)
    for ambient, members in random_subgroups(rng, 400, 120):
        c = ambient.quotient.order
        x = rng.choice(members)
        free = [y for y in range(x - x % c, x - x % c + c) if y not in members]
        if free:
            yield ambient, sorted(set(members) - {x} | {rng.choice(free)})


def test_classify_matches_sorted_translate_reference():
    # the translates of K built from its rows by ranges against the ones
    # built element by element and sorted: the same structure or the same
    # refusal
    cases = chain(
        random_subgroups(random.Random(131), 1500, 200),
        ((a, sorted(keys)) for a, keys in mutated_key_sets()),
        moved_key_sets(),
    )
    outcomes = Counter()
    for ambient, members in cases:
        new = classified(_classify, ambient, members)
        assert new == classified(sorted_translate_classify, ambient, members)
        outcomes[new is None] += 1
    assert outcomes[True] and outcomes[False]


def test_table_matches_mul_row_reference():
    # rows composed from a generating set's rows against every row from H's
    # law, on real and synthetic groups, among them Q = H at |Q| = 598
    field = FieldDescriptor(600, 1)
    x1, x2 = field.one(), field.u()
    r = 2 * (600 - 2)
    e = solve_standard_e(field, r, x1, x2, 0, 0)
    large = component_group(SurfaceParams.create(field, r, x1, x2, e))
    groups = chain(
        ((q.ambient, q.keys) for q in map(component_group, parameter_sets())),
        random_subgroups(random.Random(151), 300, 200),
        [(large.ambient, large.keys)],
    )
    sizes = set()
    for ambient, keys in groups:
        table = ComponentGroup(keys, None, "", ambient).table
        assert table == mul_row_table(ambient, keys)
        sizes.add(len(keys))
    assert {1, 598} <= sizes
