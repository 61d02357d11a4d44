"""Component-group layer: ambient group, membership conditions, Q assembly,
classification, oracle, bound, and the report pipeline."""

import random
from collections import Counter
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

import inoueaut.components
import membership_reference
import oracle_reference
from classify_reference import _abelian_invariant_factors, _classify
from conftest import (
    ambient_inv,
    ambient_mul,
    coset_reps,
    example_theta4_shifted,
    example_theta4_zero,
    example_theta6,
    example_theta7,
    ideal_over_r,
    lucas_params,
    random_eta_params,
    random_standard_params,
)
from field_reference import quad_complex
from inoueaut import (
    AffineElement,
    AmbientGroup,
    ComponentGroup,
    FieldDescriptor,
    FieldElement,
    InternalConsistencyError,
    QuadReal,
    StandardFormError,
    SurfaceParams,
    automorphism_report,
    build_ambient,
    component_group,
    fundamental_unit,
    membership_conditions,
    normalizer_oracle,
    oracle_crosscheck,
    order_bound,
)
from inoueaut.cli import load_param_file, render_report
from inoueaut.exactnum import QuadCore


def test_build_ambient_desk_cases():
    for params, n, cosets in (
        (example_theta6(), 2, 4),
        (example_theta4_shifted(), 1, 2),
        (example_theta7(), 4, 5),
    ):
        ambient = build_ambient(params)
        assert ambient.n == n
        assert ambient.quotient.order == cosets
        assert ambient.order == n * cosets


def test_ambient_group_axioms():
    ambient = build_ambient(example_theta7())
    elements = range(ambient.order)
    identity = 0
    for e1 in elements:
        assert ambient_mul(ambient, e1, identity) == e1
        assert ambient_mul(ambient, identity, e1) == e1
        assert ambient_mul(ambient, e1, ambient_inv(ambient, e1)) == identity
    for e1 in elements[:8]:
        for e2 in elements[:8]:
            for e3 in elements[:8]:
                left = ambient_mul(ambient, ambient_mul(ambient, e1, e2), e3)
                right = ambient_mul(ambient, e1, ambient_mul(ambient, e2, e3))
                assert left == right


@pytest.mark.parametrize(
    "name", ["theta7", "theta34_nonsplit", "minus_theta36_nonsplit", "minus_theta4_r2"]
)
def test_power_map_follows_the_law(name):
    # (i, k)^m is (m i mod n, k power_map(i, m)), against products one at a
    # time by mul_row, for m up to twice the unit order and two large m
    params = load_param_file(str(Path(__file__).parent / "golden" / f"{name}.params"))
    ambient = build_ambient(params)
    n, c = ambient.n, ambient.quotient.order
    big = 2 ** ambient.order.bit_length()
    for x in range(ambient.order):
        i, k = divmod(x, c)
        power = 0
        for m in range(2 * n + 2):
            [image] = ambient.apply(ambient.power_map(i, m), [k])
            assert m * i % n * c + image == power
            power = ambient_mul(ambient, x, power)
        for m in (big, big + 1):  # x^big, by powers of x^2, x^4, ...
            square, power, e = x, 0, m
            while e:
                if e & 1:
                    power = ambient_mul(ambient, square, power)
                square, e = ambient_mul(ambient, square, square), e >> 1
            [image] = ambient.apply(ambient.power_map(i, m), [k])
            assert m * i % n * c + image == power


def field_arithmetic_law(ambient):
    """The table law the integer law replaced, as the differential reference:
    u_gen^i acts on a representative and representatives add in the field,
    each result resolved to its coset by index_of."""
    quotient = ambient.quotient
    c = quotient.order
    reps = coset_reps(quotient)
    act = [[quotient.index_of(p * rep) for rep in reps] for p in ambient.unit_powers]
    add = [[quotient.index_of(r1 + r2) for r2 in reps] for r1 in reps]

    def mul(x1, x2):
        (i1, k1), (i2, k2) = divmod(x1, c), divmod(x2, c)
        return (i1 + i2) % ambient.n * c + add[k1][act[i1][k2]]

    def inv(x):
        i0, k = divmod(x, c)
        i = (-i0) % ambient.n
        y = -(ambient.unit_powers[i] * quotient.rep(k))
        return i * c + quotient.index_of(y)

    return mul, inv


def assert_law_matches(ambient):
    ref_mul, ref_inv = field_arithmetic_law(ambient)
    elements = range(ambient.order)
    for e1 in elements:
        assert ambient_inv(ambient, e1) == ref_inv(e1)
        for e2 in elements:
            assert ambient_mul(ambient, e1, e2) == ref_mul(e1, e2)
    return ref_mul


def test_integer_law_matches_field_arithmetic():
    rng = random.Random(113)
    for k in range(80):
        if k % 2:
            params = random_standard_params(rng, 1, (3, 12), (1, 12))
        else:
            params = random_standard_params(rng, -1, (1, 12), (1, 12))
        ambient = build_ambient(params)
        ref_mul = assert_law_matches(ambient)
        q = component_group(params, ambient)
        index = {x: k for k, x in enumerate(q.keys)}
        for e1, row in zip(q.keys, q.table):
            assert row == tuple(index[ref_mul(e1, e2)] for e2 in q.keys)
    # Random ideals mostly give n = 1; I = Z<1, eta> over these fields gives
    # n = 6, 8, 3, 5, 7 with coset groups (4, 4), (3, 15), (2, 2), (1, 11),
    # (1, 29), so the unit action is exercised in full.
    for theta, c0 in ((18, 1), (47, 1), (4, -1), (11, -1), (29, -1)):
        field = FieldDescriptor(theta, c0)
        params = SurfaceParams(field, 1, field.one(), fundamental_unit(field))
        ambient = build_ambient(params)
        assert ambient.n > 2
        assert_law_matches(ambient)


def test_membership_conditions_desk_cases():
    params = example_theta6()
    field = params.field
    eta = fundamental_unit(field)
    y_good = field.element(Fraction(-3, 4), Fraction(1, 4))  # sqrt(2)/2
    y_bad = field.element(Fraction(1, 2))
    assert membership_conditions(params, eta, y_good)
    assert membership_conditions(params, field.one(), y_good)
    assert not membership_conditions(params, field.one(), y_bad)
    assert not membership_conditions(params, eta, y_bad)
    # theta=4, e=0: y = (u-1)/2 has norm -1/2 and is rejected
    zero_e = example_theta4_zero()
    y = zero_e.field.element(Fraction(-1, 2), Fraction(1, 2))
    assert not membership_conditions(zero_e, zero_e.field.one(), y)
    # same y is accepted once e = 1/(6(1-u))
    shifted = example_theta4_shifted()
    assert membership_conditions(shifted, shifted.field.one(), y)


def test_membership_conditions_validation():
    params = example_theta6()
    field = params.field
    with pytest.raises(ValueError):
        membership_conditions(params, field.element(2), field.zero())
    with pytest.raises(ValueError):
        membership_conditions(params, field.one(), field.element(Fraction(1, 3)))


def test_component_groups_of_examples():
    q6 = component_group(example_theta6())
    assert q6.order == 4
    assert q6.structure.abelian and q6.structure.invariant_factors == (2, 2)
    report = automorphism_report(example_theta6(), run_oracle=False)
    assert "\nkernel of Aut(X) -> Q: C*\n" in render_report(report)

    q_shift = component_group(example_theta4_shifted())
    assert q_shift.structure.invariant_factors == (2,)

    q_zero = component_group(example_theta4_zero())
    assert q_zero.order == 1 and q_zero.structure.describe() == "trivial"

    q7 = component_group(example_theta7())
    assert q7.order == 20
    assert not q7.structure.abelian
    assert q7.structure.quotient_order == 4
    assert q7.structure.kernel_factors == (5,)
    assert q7.structure.action == ((3,),)
    assert q7.structure.split is True


def test_component_group_accepted_cosets_theta6():
    params = example_theta6()
    q = component_group(params)
    ambient = q.ambient
    field = params.field
    zero_idx = ambient.quotient.index_of(field.zero())
    sqrt2_half_idx = ambient.quotient.index_of(
        field.element(Fraction(-3, 4), Fraction(1, 4))
    )
    pairs = [ambient.pair(x) for x in q.keys]
    assert {k for _, k in pairs} == {zero_idx, sqrt2_half_idx}
    assert {i for i, _ in pairs} == {0, 1}


def test_group_table_is_a_group():
    for params in (example_theta6(), example_theta7()):
        q = component_group(params)
        size = q.order
        table = q.table
        for i in range(size):
            assert sorted(table[i]) == list(range(size))  # latin square rows
            assert sorted(row[i] for row in table) == list(range(size))
        assert table[0] == tuple(range(size))


def test_order_bound_desk_cases():
    assert order_bound(example_theta6()) == 8
    assert order_bound(example_theta4_shifted()) == 2
    assert order_bound(example_theta7()) == 20


def test_normalizer_oracle_identity_and_examples():
    for params in (example_theta6(), example_theta4_zero()):
        field = params.field
        assert normalizer_oracle(params, field.one(), field.zero())
    for params, order in ((example_theta6(), 8), (example_theta7(), 20)):
        assert oracle_crosscheck(params, component_group(params)) == order


def test_oracle_checks_each_value_once(monkeypatch):
    # With the generators built, the sweep's products, inverses and powers
    # keep their invariants without re-checking them: no public QuadReal
    # construction, and no Fraction norm inside the group law.  The
    # law and the word problem run on flat integer tuples, so nothing inside
    # them builds a QuadCore value (every result goes through _reduced), and
    # the whole sweep builds no Fraction.
    params = example_theta7()
    q = component_group(params)
    params.generators
    calls = Counter()
    depth = [0]

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def group_law(fn):
        def wrapper(*args, **kwargs):
            depth[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] -= 1

        return wrapper

    def norm(self):
        calls["norm in the group law"] += depth[0] > 0
        return original_norm(self)

    def reduced(cls, *args):
        calls["QuadCore._reduced in the group law"] += depth[0] > 0
        return original_reduced(cls, *args)

    original_norm = FieldElement.norm
    original_reduced = QuadCore.__dict__["_reduced"].__func__
    monkeypatch.setattr(FieldElement, "norm", norm)
    monkeypatch.setattr(QuadCore, "_reduced", classmethod(reduced))
    for name in ("__mul__", "inverse"):
        monkeypatch.setattr(AffineElement, name, group_law(getattr(AffineElement, name)))
    monkeypatch.setattr(
        inoueaut.components,
        "surface_group_contains",
        group_law(inoueaut.components.surface_group_contains),
    )
    monkeypatch.setattr(QuadReal, "__init__", counted("QuadReal", QuadReal.__init__))
    monkeypatch.setattr(Fraction, "__new__", counted("Fraction", Fraction.__new__))
    if hasattr(Fraction, "_from_coprime_ints"):  # Python >= 3.12 arithmetic
        original = Fraction.__dict__["_from_coprime_ints"].__func__
        monkeypatch.setattr(
            Fraction, "_from_coprime_ints", classmethod(counted("Fraction", original))
        )
    assert oracle_crosscheck(params, q) == 20
    assert calls == Counter()
    # the counters do count: one product with a Fraction norm check
    depth[0] += 1
    AffineElement(params.field.u(), params.x1, params.t)
    params.field.u() * Fraction(1, 2)
    depth[0] -= 1
    assert calls["Fraction"] > 0 and calls["QuadCore._reduced in the group law"] > 0
    assert calls["norm in the group law"] > 0


def test_minus_shift_on_integers_matches_reference():
    # _central_expression gives the shift s of h = [v, y, s] in the minus
    # family; its integer (q, den) against the Fraction body it replaced, at
    # every coset representative of random minus-family parameters.
    rng = random.Random(127)
    for k in range(40):
        build = random_eta_params if k % 4 == 0 else random_standard_params
        params = build(rng, -1, (1, 12), (1, 12))
        ambient = build_ambient(params)
        for y in coset_reps(ambient.quotient):
            q, den = inoueaut.components._central_expression(params, y)
            assert den > 0 and gcd(q, den) == 1
            expected = membership_reference._central_expression(params, y)
            assert QuadReal(0, Fraction(q, den), params.field.delta) == expected


@pytest.mark.parametrize("name", ["theta7", "minus_theta4_r2", "theta6"])
def test_oracle_does_not_read_the_membership_filter(monkeypatch, name):
    # Q comes from the filter; with every function of the filter made to
    # raise, the oracle alone must still reproduce Q's member set on every
    # element of H (Q = H for the first two, a proper subgroup for theta6).
    # _unit_matrix is input validation that both sides share, so it stays.
    params = load_param_file(str(Path(__file__).parent / "golden" / f"{name}.params"))
    q = component_group(params)

    def refuse(*args, **kwargs):
        raise AssertionError("the oracle read the membership filter")

    for attr in (
        "membership_forms",
        "_central_forms",
        "_reduced_form",
        "_member_keys",
        "membership_conditions",
    ):
        monkeypatch.setattr(inoueaut.components, attr, refuse)
    ambient = q.ambient
    accepted = set()
    for key in range(ambient.order):
        i, k = ambient.pair(key)
        if normalizer_oracle(params, ambient.unit_powers[i], ambient.quotient.rep(k)):
            accepted.add(key)
    assert accepted == set(q.keys)
    # and the coset check, which reads H's law but not the filter, passes
    assert oracle_crosscheck(params, q) == ambient.order


def test_e_shift_by_ideal_over_r_preserves_q():
    rng = random.Random(103)
    for _ in range(10):
        params = random_standard_params(rng, 1, (3, 8), (1, 8))
        base = component_group(params)
        m, n = rng.randint(-3, 3), rng.randint(-3, 3)
        shift = (m * params.x1 + n * params.x2) / params.r
        shifted = SurfaceParams(
            params.field, params.r, params.x1, params.x2, params.e + shift, params.t
        )
        moved = component_group(shifted)
        assert moved.keys == base.keys
        assert moved.table == base.table


def test_even_r_simplified_conditions_agree():
    rng = random.Random(107)
    checked = 0
    while checked < 12:
        params = random_standard_params(rng, 1, (3, 8), (1, 6))
        if params.r % 2:
            continue
        ambient = build_ambient(params)
        field = params.field
        one, u = field.one(), field.u()
        from inoueaut import chi as chi_form
        from conftest import in_discrete_subgroup

        def simplified(v, y):
            if not ideal_over_r(params).contains((v - one) * params.e + y):
                return False
            expr = chi_form((u - one) * y, params.e - y / 2)
            scale = Fraction(1, params.r)
            if v.norm() == 1:
                return in_discrete_subgroup(expr, params.chi0, scale)
            t = quad_complex(params.t, field.delta)
            if t.im:
                return False
            return in_discrete_subgroup(expr - 2 * t.re, params.chi0, scale)

        for key in range(ambient.order):
            i, k = ambient.pair(key)
            v = ambient.unit_powers[i]
            y = ambient.quotient.rep(k)
            assert membership_conditions(params, v, y) == simplified(v, y)
        checked += 1


def test_oracle_crosscheck_catches_one_changed_key():
    # Q is half of H = (Z/2) x| (Z/2 x Z/2) here; one member key dropped, or
    # one non-member key added, at the first, a middle and the last position
    # must each end the sweep at that element.
    params = example_theta6()
    q = component_group(params)
    ambient = q.ambient
    assert ambient.n > 1 and ambient.quotient.d1 > 1
    members = set(q.keys)
    others = [x for x in range(ambient.order) if x not in members]

    def spread(keys):
        return keys[0], keys[len(keys) // 2], keys[-1]

    changes = [(members - {x}, x, True) for x in spread(q.keys)]
    changes += [(members | {x}, x, False) for x in spread(others)]
    for keys, x, oracle in changes:
        i, k = ambient.pair(x)
        v, y = ambient.unit_powers[i], ambient.quotient.rep(k)
        changed = ComponentGroup(sorted(keys), q.structure, q.ambient)
        with pytest.raises(InternalConsistencyError) as info:
            oracle_crosscheck(params, changed)
        message = str(info.value)
        assert f"at [{i},{k}] = [{v}, {y}]:" in message
        assert f"filter={not oracle}, oracle={oracle}" in message
    assert oracle_crosscheck(params, q) == ambient.order


def crosscheck_message(check, params, q) -> str:
    with pytest.raises(InternalConsistencyError) as info:
        check(params, q)
    return str(info.value)


def element_text(ambient, key) -> str:
    i, k = ambient.pair(key)
    return f"[{i},{k}] = [{ambient.unit_powers[i]}, {ambient.quotient.rep(k)}]"


def test_oracle_crosscheck_refuses_a_proper_subgroup():
    # theta7: Q = H = (Z/4) x| (Z/5).  Its kernel Z/5, the keys below |C|, is
    # a subgroup whose generator passes the oracle, so only the candidate
    # scan can refuse it.  Row 1 holds none: x^2 lands on row 2, which has no
    # key of S.  The first candidate is [2,0], of order 2 with x^2 = 1, and
    # the oracle accepts it.
    params = example_theta7()
    q = component_group(params)
    ambient = q.ambient
    assert q.order == ambient.order == 20 and ambient.quotient.order == 5
    kernel = ComponentGroup(list(range(5)), q.structure, q.ambient)
    message = crosscheck_message(oracle_crosscheck, params, kernel)
    assert f"at {element_text(ambient, 10)}: filter=False, oracle=True" in message


def test_oracle_crosscheck_refuses_a_larger_subgroup():
    # theta6: Q is half of H.  All of H is a subgroup with no other coset, so
    # only the generator check can refuse it, at the first key outside Q.
    params = example_theta6()
    q = component_group(params)
    ambient = q.ambient
    outside = min(set(range(ambient.order)) - set(q.keys))
    whole = ComponentGroup(list(range(ambient.order)), q.structure, q.ambient)
    message = crosscheck_message(oracle_crosscheck, params, whole)
    assert f"at {element_text(ambient, outside)}: filter=True, oracle=False" in message


def test_oracle_crosscheck_checks_the_integer_law():
    # theta7's unit generator acts on Z/5 by a nontrivial A; a law that acts
    # by the identity must be refused before any element is decided
    params = example_theta7()
    q = component_group(params)
    ambient = q.ambient
    identity = ambient._actions[0]  # u_gen^0 acts by the identity mod (d1, d2)
    assert ambient._actions[1] != identity
    flat = AmbientGroup(
        ambient.eta,
        ambient.u_gen,
        ambient.j,
        ambient.n,
        ambient.quotient,
        ambient.unit_powers,
        (identity,) * ambient.n,
    )
    mutant = ComponentGroup(q.keys, q.structure, flat)
    message = crosscheck_message(oracle_crosscheck, params, mutant)
    assert message.startswith("H's integer law disagrees with the field: u_gen^1")


def single_key_mutants(q):
    """Q's member set with one key dropped, or one key of H outside Q added,
    at the first, a middle and the last position."""
    members = set(q.keys)
    others = [x for x in range(q.ambient.order) if x not in members]
    for keys, pick in ((q.keys, members.__sub__), (others, members.__or__)):
        for x in sorted({keys[0], keys[len(keys) // 2], keys[-1]} if keys else ()):
            yield ComponentGroup(sorted(pick({x})), q.structure, q.ambient)


def crosscheck_verdict(check, params, q):
    try:
        return check(params, q)
    except InternalConsistencyError as error:
        return str(error)


GOLDEN_DIR = Path(__file__).parent / "golden"


def differential_sets():
    yield from (
        pytest.param(load_param_file(str(path)), id=path.stem)
        for path in sorted(GOLDEN_DIR.glob("*.params"))
    )
    rng = random.Random(131)
    for c0 in (1, -1):
        for build in (random_standard_params, random_eta_params):
            for k in range(6):
                params = build(rng, c0, (3 if c0 == 1 else 1, 30))
                yield pytest.param(params, id=f"{build.__name__}{c0:+d}-{k}")


def first_accepted_candidate(ambient, members, accepted):
    """The first key of the oracle's member set accepted, in key order, that
    is a minimal candidate for S = members: outside S, of order a power of a
    prime p, with x^p in S.  Orders and powers come from products under H's
    law, one at a time."""
    for x in sorted(accepted - members):
        powers = [0, x]  # x^0, x^1, ... up to x^ord = 0
        while powers[-1]:
            powers.append(ambient_mul(ambient, x, powers[-1]))
        order = len(powers) - 1
        p = next(f for f in range(2, order + 1) if order % f == 0)
        rest = order
        while rest % p == 0:
            rest //= p
        if rest == 1 and powers[p] in members:
            return x
    return None


def assert_matches_sweep(params, q, mutants):
    """The candidate check against the per-element sweep it replaced, on Q
    and on each mutant member set: the same |H| where the sweep passes, and
    otherwise the sweep's message, or, where the sweep and the check name
    different elements, the first minimal candidate the check can reach.
    That is the first one in key order that the oracle accepts: each
    candidate before it is refused or marked, and a marked one is outside the
    oracle's member set too.  The sweep passes on Q, so Q's keys are the
    oracle's member set."""
    ambient = q.ambient
    sweep = oracle_reference.oracle_crosscheck
    assert crosscheck_verdict(sweep, params, q) == ambient.order
    assert crosscheck_verdict(oracle_crosscheck, params, q) == ambient.order
    for mutant in mutants:
        expected = crosscheck_verdict(sweep, params, mutant)
        verdict = crosscheck_verdict(oracle_crosscheck, params, mutant)
        if verdict == expected:
            continue
        assert isinstance(expected, str)
        x = first_accepted_candidate(ambient, set(mutant.keys), set(q.keys))
        assert x is not None
        i, k = ambient.pair(x)
        v, y = ambient.unit_powers[i], ambient.quotient.rep(k)
        assert normalizer_oracle(params, v, y)
        assert verdict == (
            f"filter/oracle disagreement at {element_text(ambient, x)}: "
            f"filter=False, oracle=True"
        )


def group_mutants(q):
    """Q's subgroup {1} and its supergroup H, where they differ from Q."""
    ambient = q.ambient
    if q.order < ambient.order:
        yield ComponentGroup(list(range(ambient.order)), q.structure, q.ambient)
    if q.order > 1:
        yield ComponentGroup([0], q.structure, q.ambient)


@pytest.mark.parametrize("params", differential_sets())
def test_oracle_crosscheck_matches_the_sweep(params):
    # Q, its single-key mutants, and its subgroup and supergroup mutants;
    # the scan's element moved on minus_theta36_nonsplit and
    # random_eta_params+1-3
    q = component_group(params)
    assert_matches_sweep(params, q, [*single_key_mutants(q), *group_mutants(q)])


@pytest.mark.parametrize("params", differential_sets())
def test_oracle_crosscheck_names_the_first_minimal_candidate(params):
    # each proper cyclic subgroup S of Q passes the walk and the generator
    # calls, so the scan refuses it, at the first minimal candidate for S
    # that the oracle accepts
    q = component_group(params)
    ambient = q.ambient
    subgroups = set()
    for g in q.keys:
        powers, y = {0}, g
        while y:
            powers.add(y)
            y = ambient_mul(ambient, g, y)
        if len(powers) < q.order:
            subgroups.add(frozenset(powers))
    for members in subgroups:
        x = first_accepted_candidate(ambient, members, set(q.keys))
        mutant = ComponentGroup(sorted(members), q.structure, q.ambient)
        assert crosscheck_message(oracle_crosscheck, params, mutant) == (
            f"filter/oracle disagreement at {element_text(ambient, x)}: "
            f"filter=False, oracle=True"
        )


def z_u_params(theta: int, r: int) -> SurfaceParams:
    """Z[u], plus family, e = 0."""
    field = FieldDescriptor(theta, 1)
    return SurfaceParams(field, r, field.one(), field.u())


@pytest.mark.parametrize("r", [2, 6])
def test_oracle_crosscheck_matches_the_sweep_at_theta_2000(r):
    # |H| = 1998 = 2 * 27 * 37 (n = 1), |Q| = 1 at r = 2 and 3 at r = 6
    params = z_u_params(2000, r)
    q = component_group(params)
    assert q.ambient.order == 1998 and q.order == (1 if r == 2 else 3)
    assert_matches_sweep(params, q, [*single_key_mutants(q), *group_mutants(q)])


def test_oracle_crosscheck_matches_the_sweep_at_lucas_16():
    # |H| = 35 280, |Q| = 8; Q and two mutants only, as each sweep on Q makes
    # |H| oracle calls
    params = lucas_params(2)
    q = component_group(params)
    assert q.ambient.order == 35280 and q.order == 8
    outside = min(set(range(q.ambient.order)) - set(q.keys))
    added = ComponentGroup(sorted([*q.keys, outside]), q.structure, q.ambient)
    trivial = ComponentGroup([0], q.structure, q.ambient)
    assert_matches_sweep(params, q, [added, trivial])


@pytest.mark.parametrize(
    "params, most", [(z_u_params(10**4, 2), 3), (lucas_params(2), 20)],
    ids=["theta_10000_r2", "lucas_16_r2"],
)
def test_oracle_crosscheck_calls_the_oracle_a_few_times(monkeypatch, params, most):
    # one call per generator and per refused class of minimal candidates:
    # the coset check made |H|/|Q| + m - 1, 9997 and 4410 calls here
    calls = []
    oracle = inoueaut.components.normalizer_oracle

    def counted(*args):
        calls.append(args)
        return oracle(*args)

    q = component_group(params)
    monkeypatch.setattr(inoueaut.components, "normalizer_oracle", counted)
    assert oracle_crosscheck(params, q) == q.ambient.order
    assert 0 < len(calls) <= most


def test_minus_family_membership_reduces_to_condition_one():
    rng = random.Random(109)
    for _ in range(8):
        params = random_standard_params(rng, -1, (1, 6), (1, 8))
        ambient = build_ambient(params)
        q = component_group(params, ambient)
        report = automorphism_report(params, run_oracle=False)
        assert "\nkernel of Aut(X) -> Q: Z/2\n" in render_report(report)
        assert oracle_crosscheck(params, q) == ambient.order


def test_minus_family_alternating_group():
    # theta=4 minus family over the maximal order Z<1, (u-1)/2>: the ambient
    # group is Z/3 x| (Z/2)^2; for even r the whole of it survives (Q = A4),
    # for r = 1 only a diagonal Z/3 does.
    field = FieldDescriptor(4, -1)
    phi = field.element(Fraction(-1, 2), Fraction(1, 2))
    even = SurfaceParams(field, 2, field.one(), phi)
    q = component_group(even)
    quotient = q.ambient.quotient
    assert q.ambient.n == 3 and (quotient.d1, quotient.d2) == (2, 2)
    assert q.order == 12 and not q.structure.abelian
    assert q.structure.quotient_order == 3
    assert q.structure.kernel_factors == (2, 2)
    assert q.structure.split is True
    # the action matrix has order 3 over F_2
    rows = q.structure.action
    square = [
        [
            sum(rows[i][k] * rows[k][j] for k in range(2)) % 2
            for j in range(2)
        ]
        for i in range(2)
    ]
    cube = [
        [sum(square[i][k] * rows[k][j] for k in range(2)) % 2 for j in range(2)]
        for i in range(2)
    ]
    assert cube == [[1, 0], [0, 1]] and rows != ((1, 0), (0, 1))
    assert oracle_crosscheck(even, q) == 12

    odd = SurfaceParams(field, 1, field.one(), phi)
    q1 = component_group(odd)
    assert q1.order == 3 and q1.structure.invariant_factors == (3,)
    # diagonal copy: the nontrivial unit classes pair with nonzero cosets
    pairs = [q1.ambient.pair(x) for x in q1.keys]
    assert {i for i, _ in pairs} == {0, 1, 2}
    assert [k for i, k in pairs if i][0] != 0
    assert oracle_crosscheck(odd, q1) == 12


def test_double_r_report():
    params = example_theta7()  # r = 10 -> doubled 20
    report = automorphism_report(params, run_oracle=False, with_double_r=True)
    doubled = SurfaceParams(
        params.field, 20, params.x1, params.x2, params.e, params.t
    )
    direct = component_group(doubled)
    assert report.double_r.ambient is report.q.ambient  # H does not depend on r
    assert report.double_r.keys == direct.keys
    assert report.double_r.table == direct.table
    assert report.double_r.structure == direct.structure


def test_report_rejects_non_standard_form():
    field = FieldDescriptor(4, 1)
    e_bad = field.one() / (17 * (field.one() - field.u()))
    bad = SurfaceParams(field, 6, field.one(), field.u(), e_bad)
    with pytest.raises(StandardFormError):
        automorphism_report(bad)


def test_matrix_convention_pinned_by_oracle():
    # M = [[-1, 2], [-1, 3]] is asymmetric, so the half-integer correction in
    # condition 1 distinguishes the row convention from its transpose; the
    # independent normalizer oracle agrees only with the row reading.
    field = FieldDescriptor(6, 1)
    x1 = field.element(Fraction(-8, 3), -8)
    x2 = field.element(Fraction(4, 3), Fraction(-44, 3))
    e = field.element(-14, 42)
    params = SurfaceParams(field, 1, x1, x2, e)
    v = field.element(Fraction(-1, 2), Fraction(1, 2))  # the fundamental unit
    assert params.ideal.mult_matrix(v) == ((-1, 2), (-1, 3))
    cases = [
        (field.zero(), True),
        (field.element(Fraction(-10, 3), Fraction(-2, 3)), False),
    ]
    for y, expected in cases:
        assert membership_conditions(params, v, y) is expected
        assert normalizer_oracle(params, v, y) is expected


def test_abelian_invariant_factors_synthetic():
    # element-order profiles of known groups
    assert _abelian_invariant_factors([1, 2, 2, 2, 4, 4, 4, 4]) == (2, 4)  # Z/2 x Z/4
    assert _abelian_invariant_factors([1, 2, 2, 2]) == (2, 2)
    assert _abelian_invariant_factors([1]) == ()
    assert _abelian_invariant_factors([1, 5, 5, 5, 5]) == (5,)
    z2_z6 = [1, 6, 3, 2, 3, 6, 2, 6, 6, 2, 6, 6]
    assert _abelian_invariant_factors(z2_z6) == (2, 6)


def test_classify_synthetic_cyclic():
    # Z/6 as a table
    table = [[(i + j) % 6 for j in range(6)] for i in range(6)]
    structure = _classify([0] * 6, table, 1)
    assert structure.abelian and structure.invariant_factors == (6,)
    assert structure.describe() == "Z/6"
