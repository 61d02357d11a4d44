"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is exact (the only tolerances in this package are
none at all), and the timed criteria allot one second apiece.
"""

import random
import time
from fractions import Fraction
from math import isqrt

import pytest

from conftest import (
    all_examples,
    conjugate,
    example_theta4_shifted,
    example_theta4_zero,
    example_theta6,
    example_theta7,
    is_affine_identity,
    order_lattice,
    power,
    random_eta_params,
    random_field_element,
    random_standard_params,
    random_surd_t,
    random_t,
    random_unit,
    real_t,
)
from field_reference import quad_complex
from inoueaut import (
    AffineElement,
    FieldDescriptor,
    QuadReal,
    SurfaceParams,
    build_ambient,
    chi,
    component_group,
    fundamental_unit,
    invariant_unit_generator,
    is_standard_form_direct,
    membership_conditions,
    normalizer_oracle,
)
from inoueaut.exactnum import square_decompose
from surfacegroup_reference import is_standard_form_residue


def verdict(num: int, ok: bool, text: str) -> None:
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} - {text}")
    assert ok


@pytest.fixture(scope="module")
def splus_sets() -> list[SurfaceParams]:
    rng = random.Random(20240521)
    return [random_standard_params(rng, 1, (3, 12), (1, 12)) for _ in range(55)]


@pytest.fixture(scope="module")
def sminus_sets() -> list[SurfaceParams]:
    rng = random.Random(20240522)
    return [random_standard_params(rng, -1, (1, 8), (1, 12)) for _ in range(22)]


@pytest.fixture(scope="module")
def reach_sets() -> list[SurfaceParams]:
    """Sets that reach every term of the conditions: plus-family t with surd
    denominators not dividing 6 (so the -2t term decides membership at units
    of norm -1), and I = Z<1, eta> sets, where n > 1."""
    rng = random.Random(20240524)
    return (
        [random_standard_params(rng, 1, (3, 12), (1, 12), random_surd_t) for _ in range(20)]
        + [random_eta_params(rng, 1, (3, 12), (1, 12), random_surd_t) for _ in range(12)]
        + [random_eta_params(rng, -1, (1, 12), (1, 12)) for _ in range(8)]
    )


def test_criterion_01_example_theta6():
    start = time.monotonic()
    params = example_theta6()
    q = component_group(params)
    ambient = q.ambient
    field = params.field
    accepted = {ambient.pair(x)[1] for x in q.keys}
    expected = {
        ambient.quotient.index_of(field.zero()),
        ambient.quotient.index_of(field.element(Fraction(-3, 4), Fraction(1, 4))),
    }
    elapsed = time.monotonic() - start
    ok = (
        q.order == 4
        and q.structure.abelian
        and q.structure.invariant_factors == (2, 2)
        and ambient.order == 8
        and accepted == expected
        and elapsed < 1.0
    )
    verdict(1, ok, f"theta=6: Q = Z/2 x Z/2, |H| = 8, cosets {{0, sqrt2/2}} ({elapsed:.3f}s)")


def test_criterion_02_example_theta4_shifted():
    start = time.monotonic()
    params = example_theta4_shifted()
    standard = is_standard_form_direct(params)
    q = component_group(params)
    elapsed = time.monotonic() - start
    ok = standard and q.order == 2 and q.structure.invariant_factors == (2,)
    ok = ok and elapsed < 1.0
    verdict(2, ok, f"theta=4, e=1/(6(1-u)): standard form, Q = Z/2 ({elapsed:.3f}s)")


def test_criterion_03_example_theta4_zero():
    start = time.monotonic()
    q = component_group(example_theta4_zero())
    elapsed = time.monotonic() - start
    ok = q.order == 1 and q.structure.describe() == "trivial" and elapsed < 1.0
    verdict(3, ok, f"theta=4, e=0: Q trivial ({elapsed:.3f}s)")


def test_criterion_04_example_theta7():
    start = time.monotonic()
    q = component_group(example_theta7())
    s = q.structure
    elapsed = time.monotonic() - start
    ok = (
        q.order == 20
        and not s.abelian
        and s.quotient_order == 4
        and s.kernel_factors == (5,)
        and s.action == ((3,),)
        and s.split is True
        and q.order == q.ambient.order
        and elapsed < 1.0
    )
    verdict(4, ok, f"theta=7: Q = (Z/4) x| (Z/5) by 3, order 20 = |H| ({elapsed:.3f}s)")


def test_criterion_05_oracle_equivalence(splus_sets, sminus_sets, reach_sets):
    sets = all_examples() + splus_sets + sminus_sets + reach_sets
    checked = 0
    disagreements = 0
    for params in sets:
        ambient = build_ambient(params)
        for key in range(ambient.order):
            i, k = ambient.pair(key)
            v = ambient.unit_powers[i]
            y = ambient.quotient.rep(k)
            if membership_conditions(params, v, y) != normalizer_oracle(params, v, y):
                disagreements += 1
            checked += 1
    ambients = [build_ambient(params) for params in reach_sets]
    minus_2t_decides = sum(
        any(v.norm() == -1 for v in ambient.unit_powers)
        and (2 * params.r * quad_complex(params.t, params.field.delta).re / params.chi0)
        .rat.denominator != 1
        for params, ambient in zip(reach_sets, ambients)
    )
    ok = (
        disagreements == 0
        and len(splus_sets) >= 50
        and len(sminus_sets) >= 20
        and minus_2t_decides > 0
        and any(ambient.n > 1 for ambient in ambients)
    )
    verdict(
        5,
        ok,
        f"conditions == normalizer oracle on {checked} elements over "
        f"{len(sets)} parameter sets ({disagreements} disagreements; "
        f"{minus_2t_decides} with a norm -1 unit and r*2t/chi0 not integral)",
    )


def test_criterion_06_residue_equals_direct():
    rng = random.Random(20240523)
    agree = 0
    total = 0
    standard_seen = 0
    nonstandard_seen = 0
    while total < 110:
        params = random_standard_params(rng, 1, (3, 12), (1, 12))
        if rng.random() < 0.5:
            noise = random_field_element(rng, params.field, span=3)
            params = SurfaceParams(
                params.field, params.r, params.x1, params.x2,
                params.e + noise, params.t,
            )
        direct = is_standard_form_direct(params)
        residue = is_standard_form_residue(params)
        if direct:
            standard_seen += 1
        else:
            nonstandard_seen += 1
        agree += direct == residue
        total += 1
    ok = agree == total and standard_seen > 0 and nonstandard_seen > 0
    verdict(
        6,
        ok,
        f"residue == direct standard-form check on {total} sets "
        f"({standard_seen} standard, {nonstandard_seen} not)",
    )


def test_criterion_07_cardinality_bound(splus_sets, sminus_sets):
    sets = all_examples() + splus_sets + sminus_sets
    ok = True
    for params in sets:
        ambient = build_ambient(params)
        q = component_group(params, ambient)
        norm_term = abs(int((params.field.one() - params.field.u()).norm()))
        ok = ok and ambient.order == ambient.n * norm_term
        ok = ok and q.order <= ambient.order
    strict = component_group(example_theta6())
    equal = component_group(example_theta7())
    ok = ok and strict.order == 4 and strict.ambient.order == 8
    ok = ok and equal.order == 20 and equal.ambient.order == 20
    verdict(
        7,
        ok,
        f"|Q| <= n*|Norm(1-u)| on {len(sets)} sets; strict at theta=6 (4 < 8), "
        "equality at theta=7 (20 = 20)",
    )


def test_criterion_08_principal_ideal_generators():
    ok = True
    for theta in range(4, 21):
        field = FieldDescriptor(theta, 1)
        eta = fundamental_unit(field)
        gen, _, _ = invariant_unit_generator(order_lattice(field), eta)
        ok = ok and gen == field.u()
    f3 = FieldDescriptor(3, 1)
    gen3, _, _ = invariant_unit_generator(order_lattice(f3), fundamental_unit(f3))
    ok = ok and gen3 == f3.u() - f3.one() and gen3 * gen3 == f3.u()
    verdict(
        8,
        ok,
        "principal ideals: u_gen = u for theta in 4..20; u_gen = u - 1 with "
        "(u - 1)^2 = u at theta = 3",
    )


def _minimal_unit_by_search(m: int, bound: int) -> QuadReal:
    """Least unit > 1 of the maximal order of Q(sqrt(m)), by brute force.

    Scans coefficient pairs (A + B sqrt(m))/2 with A^2 - m B^2 = +-4 and
    B <= 2*bound; smallest B (then smallest A) gives the least unit > 1.
    """
    for b_coeff in range(1, 2 * bound + 1):
        for sign in (-4, 4):
            a_squared = m * b_coeff * b_coeff + sign
            if a_squared <= 0:
                continue
            a_coeff = isqrt(a_squared)
            if a_coeff * a_coeff != a_squared:
                continue
            return QuadReal(Fraction(a_coeff, 2), Fraction(b_coeff, 2), m)
    raise AssertionError(f"no unit found below the search bound for m = {m}")


def test_criterion_09_fundamental_unit_desk_checks():
    expected = {
        6: QuadReal(1, 1, 2),  # 1 + sqrt(2)
        7: QuadReal(Fraction(1, 2), Fraction(1, 2), 5),  # (1 + sqrt(5))/2
        4: QuadReal(2, 1, 3),  # 2 + sqrt(3)
    }
    ok = True
    for theta, target in expected.items():
        field = FieldDescriptor(theta, 1)
        eta = fundamental_unit(field)
        sigma = eta.sigma1()
        scale, m = square_decompose(field.delta)
        assert m == target.delta
        # rewrite sigma1(eta) over sqrt(m) and compare exactly
        rewritten = QuadReal(sigma.rat, sigma.irr * scale, m)
        ok = ok and rewritten == target
        ok = ok and _minimal_unit_by_search(m, 1000) == target
    verdict(
        9,
        ok,
        "fundamental units 1+sqrt2, (1+sqrt5)/2, 2+sqrt3 match the brute-force "
        "minimum over |a|, |b| <= 10^3",
    )


def test_criterion_10_property_suites():
    rng = random.Random(20240524)
    fields = [
        FieldDescriptor(3, 1),
        FieldDescriptor(6, 1),
        FieldDescriptor(7, 1),
        FieldDescriptor(2, -1),
        FieldDescriptor(3, -1),
    ]
    etas = {f: fundamental_unit(f) for f in fields}

    chi_checked = 0
    for _ in range(10_000):
        field = rng.choice(fields)
        x = random_field_element(rng, field, span=3)
        y1 = random_field_element(rng, field, span=3)
        y2 = random_field_element(rng, field, span=3)
        assert chi(x, y1) == -chi(y1, x)
        assert chi(x * y1, y2) == chi(y1, conjugate(x) * y2)
        assert chi(x * y1, x * y2) == x.norm() * chi(y1, y2)
        chi_checked += 1

    law_checked = 0
    for _ in range(10_000):
        field = rng.choice(fields)
        eta = etas[field]
        a = AffineElement(
            random_unit(rng, field, eta),
            random_field_element(rng, field, span=2),
            random_t(rng, field),
        )
        b = AffineElement(
            random_unit(rng, field, eta),
            random_field_element(rng, field, span=2),
            random_t(rng, field),
        )
        c = AffineElement(
            random_unit(rng, field, eta),
            random_field_element(rng, field, span=2),
            random_t(rng, field),
        )
        assert (a * b) * c == a * (b * c)
        assert is_affine_identity(a * a.inverse())
        law_checked += 1

    commutator_checked = 0
    while commutator_checked < 10_000:
        field = rng.choice(fields)
        x1 = random_field_element(rng, field, span=3)
        x2 = random_field_element(rng, field, span=3)
        if not chi(x1, x2):
            continue
        e = random_field_element(rng, field, span=3)
        r = rng.randint(1, 12)
        one = field.one()
        g1 = AffineElement(one, x1, real_t(chi(x1, e)))
        g2 = AffineElement(one, x2, real_t(chi(x2, e)))
        g3 = AffineElement(one, field.zero(), real_t(-chi(x1, x2) / r))
        assert g1 * g2 * g1.inverse() * g2.inverse() == power(g3, r)
        commutator_checked += 1

    ok = chi_checked >= 10_000 and law_checked >= 10_000 and commutator_checked >= 10_000
    verdict(
        10,
        ok,
        f"chi identities x{chi_checked}, group-law axioms x{law_checked}, "
        f"[g1, g2] = g3^r x{commutator_checked}",
    )
