"""The membership filter, which evaluates both conditions as integer forms in
the Smith coordinates once per unit power, against the Fraction
implementations it replaced (tests/membership_reference.py); its evaluation
on one period of the forms against the sweep over every coset, with the
premise that makes the forms periodic; the coset representatives and their
text against the eager field arithmetic and the Fraction formatter; the
standard-form gate of component_group; and the filter's work count."""

import importlib.util
import random
import sys
from collections import Counter
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

import pytest

import grammar_reference
import lattice_reference
import membership_reference as reference
from classify_reference import sorted_translate_classify
from conftest import (
    coset_reps,
    example_theta7,
    lucas_params,
    random_eta_params,
    random_standard_params,
    solve_standard_e,
)
from inoueaut import (
    FieldDescriptor,
    Lattice,
    StandardFormError,
    SurfaceParams,
    automorphism_report,
    build_ambient,
    component_group,
    fundamental_unit,
    is_standard_form_direct,
    membership_conditions,
)
import inoueaut.components as components
from inoueaut.cli import load_param_file

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"


def ladder_sized_params(e_solved: bool = True) -> SurfaceParams:
    """theta = 47, r = 15, I = Z<1, eta>: |H| = 360 with n = 8."""
    field = FieldDescriptor(47, 1)
    x1, x2 = field.one(), fundamental_unit(field)
    e = solve_standard_e(field, 15, x1, x2, 0, 0) if e_solved else field.zero()
    return SurfaceParams.create(field, 15, x1, x2, e)


def differential_sample() -> list[SurfaceParams]:
    rng = random.Random(131)
    sample = []
    for k in range(40):
        c0 = 1 if k % 2 else -1
        low = 3 if c0 == 1 else 1
        sample.append(random_standard_params(rng, c0, (low, 12)))
        sample.append(random_eta_params(rng, c0, (low, 40)))
    sample.append(ladder_sized_params())
    # The random t have surd parts with denominators dividing 6, which make
    # 2rt/chi0 an integer on these sets; t = sqrt(delta)/40 at theta = 7,
    # r = 10 does not, so there the -2t term decides the Norm(v) = -1 classes.
    theta7 = example_theta7()
    t = (0, 1, 40), (0, 0, 1)
    sample.append(
        SurfaceParams(theta7.field, 10, theta7.x1, theta7.x2, theta7.e, t)
    )
    return sample


def t_kind(params: SurfaceParams) -> str:
    (p, q, _), (ip, iq, _) = params.t
    if ip or iq:
        return "imaginary"
    if p:
        return "rational"
    if q:
        return "surd"
    return "zero"


def test_filter_matches_fraction_reference():
    sample = differential_sample()
    seen = set()
    for params in sample:
        ambient = build_ambient(params)
        q = component_group(params, ambient)
        expected = []
        for key in range(ambient.order):
            i, k = ambient.pair(key)
            v, y = ambient.unit_powers[i], ambient.quotient.rep(k)
            verdict = reference.membership_conditions(params, v, y)
            assert membership_conditions(params, v, y) == verdict
            if verdict:
                expected.append(key)
            if params.field.c0 == 1 and v.norm() == -1:
                seen.add(t_kind(params))
        assert q.keys == expected
    # condition 2's branches for Norm(v) = -1 in the plus family
    assert {"imaginary", "rational", "surd"} <= seen
    assert {p.r % 2 for p in sample} == {0, 1}
    assert {p.field.c0 for p in sample} == {1, -1}
    assert sum(build_ambient(p).n > 1 for p in sample) >= 40


def test_scalar_conditions_on_unreduced_representatives():
    # y + w for w in I lies in the same class as y, but its coordinates in
    # the basis of I(1-u)^{-1} leave the range of the Smith representatives
    rng = random.Random(137)
    for params in differential_sample()[::4]:
        ambient = build_ambient(params)
        for key in rng.sample(range(ambient.order), min(12, ambient.order)):
            i, k = ambient.pair(key)
            v = ambient.unit_powers[i]
            w = rng.randint(-9, 9) * params.x1 + rng.randint(-9, 9) * params.x2
            y = ambient.quotient.rep(k) + w
            assert membership_conditions(
                params, v, y
            ) == reference.membership_conditions(params, v, y)


def test_component_group_rejects_non_standard_form():
    params = ladder_sized_params(e_solved=False)
    assert not is_standard_form_direct(params)
    with pytest.raises(StandardFormError):
        component_group(params)
    with pytest.raises(StandardFormError):
        automorphism_report(params, run_oracle=False)


def test_standard_form_gate_runs_once_per_parameter_set(monkeypatch):
    calls = []
    real = components.is_standard_form_direct

    def counted(params):
        calls.append(params.r)
        return real(params)

    monkeypatch.setattr(components, "is_standard_form_direct", counted)
    params = ladder_sized_params()
    automorphism_report(params, run_oracle=False, with_double_r=True)
    # the given set, then the doubled-r set
    assert calls == [15, 30]


def test_doubled_r_keeps_standard_form():
    # the leftovers of the standard-form test do not depend on r, so a
    # standard-form set stays standard with r doubled
    rng = random.Random(139)
    for k in range(30):
        c0 = 1 if k % 2 else -1
        params = random_eta_params(rng, c0, (3 if c0 == 1 else 1, 30), (1, 9))
        assert is_standard_form_direct(params)
        doubled = SurfaceParams(
            params.field, 2 * params.r, params.x1, params.x2, params.e, params.t
        )
        assert is_standard_form_direct(doubled)


def test_filter_computes_one_mult_matrix_per_unit_power(monkeypatch):
    field = FieldDescriptor(3000, 1)
    x1, x2 = field.one(), field.u()
    params = SurfaceParams.create(
        field, 1, x1, x2, solve_standard_e(field, 1, x1, x2, 0, 0)
    )
    calls = []
    real = Lattice.mult_matrix

    def counted(self, v):
        calls.append(v)
        return real(self, v)

    monkeypatch.setattr(Lattice, "mult_matrix", counted)
    q = component_group(params)
    assert q.ambient.order == 2998
    assert len(calls) <= q.ambient.n + 2
    assert q.ambient.order % q.order == 0


def doubled_r(params: SurfaceParams) -> SurfaceParams:
    return SurfaceParams(
        params.field, 2 * params.r, params.x1, params.x2, params.e, params.t
    )


def test_integer_forms_accept_the_fraction_forms_keys():
    # the forms built from integer triples and stepped by adds against the
    # Fraction forms evaluated per coset, on the sample and its doubled-r
    # sets (H does not depend on r)
    for params in differential_sample():
        ambient = build_ambient(params)
        for p in (params, doubled_r(params)):
            assert components._member_keys(p, ambient) == reference.member_keys(
                p, ambient
            )


def test_coset_rep_text_matches_field_arithmetic():
    # the representatives built on request, and their text written from the
    # integer rows, against the eager field arithmetic and the Fraction
    # formatter
    families = set()
    for params in differential_sample():
        ambient = build_ambient(params)
        quotient = ambient.quotient
        reps = lattice_reference.quotient_reps(quotient.big, quotient.small)
        assert coset_reps(quotient) == list(reps)
        expected = [grammar_reference.format_surd(y.a, y.b, "u") for y in reps]
        assert quotient.rep_texts("u") == expected
        assert [str(y) for y in coset_reps(quotient)] == expected
        families.add(params.field.c0)
    assert families == {1, -1}


@pytest.mark.parametrize("name", ["ladder_sized", "minus_theta4_r2"])
def test_filter_builds_no_fraction(monkeypatch, name):
    if name == "ladder_sized":
        params = ladder_sized_params()
    else:
        params = load_param_file(str(GOLDEN / f"{name}.params"))
    ambient = build_ambient(params)
    expected = component_group(params, ambient).keys
    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(args)
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(Fraction, "__new__", counted(Fraction.__new__))
    if hasattr(Fraction, "_from_coprime_ints"):  # Python >= 3.12 arithmetic
        original = Fraction.__dict__["_from_coprime_ints"].__func__
        monkeypatch.setattr(
            Fraction, "_from_coprime_ints", classmethod(counted(original))
        )
    assert components._member_keys(params, ambient) == expected
    assert calls == []
    # the counter does count
    Fraction(1, 2) + Fraction(1, 3)
    assert calls


# -- the filter on one period of its accepted set -------------------------------


def ladder_params(tmp_path, monkeypatch) -> list[SurfaceParams]:
    """The surfaces of the benchmark's ladder workload (seed 1), read from
    the parameter files it writes."""
    name = "inoubench_workloads"
    spec = importlib.util.spec_from_file_location(
        name, ROOT / "inoubench" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)  # dataclass looks it up there
    spec.loader.exec_module(module)
    params = []
    for k, op in enumerate(module.ladder(1)):
        path = tmp_path / f"rung{k}.params"
        path.write_text(op.text)
        params.append(load_param_file(str(path)))
    return params


def random_sets(count: int):
    """Seeded standard-form sets of both families, half over Z<1, eta>, with
    r up to 40 so that the denominators share more factors with |C|."""
    rng = random.Random(149)
    for k in range(count):
        c0 = 1 if k % 2 else -1
        low = 3 if c0 == 1 else 1
        draw = random_standard_params if k % 4 < 2 else random_eta_params
        yield draw(rng, c0, (low, 60), (1, 40))


def filter_cases(tmp_path, monkeypatch):
    yield from differential_sample()
    yield from map(doubled_r, differential_sample())
    yield from random_sets(600)
    yield from ladder_params(tmp_path, monkeypatch)
    yield lucas_params(2)
    yield lucas_params(2 * (2207 - 2))


def test_reduced_forms_are_functions_of_the_coset(tmp_path, monkeypatch):
    # the premise of the periodic filter: moving k1 by d1 or k2 by d2 moves
    # no reduced form's residue
    for params in filter_cases(tmp_path, monkeypatch):
        ambient = build_ambient(params)
        d1, d2 = ambient.quotient.d1, ambient.quotient.d2
        unit_form = components.membership_forms(params, ambient.quotient.smith_basis)
        for v in ambient.unit_powers:
            form = unit_form(v)
            if form is None:
                continue
            den1, a0, a1, a2, b0, b1, b2, den2, c, p1, p2, q11, q12, q22 = form

            def residues(k1: int, k2: int) -> tuple[int, int, int]:
                return (
                    (a0 + a1 * k1 + a2 * k2) % den1,
                    (b0 + b1 * k1 + b2 * k2) % den1,
                    (c + k1 * (p1 + q11 * k1 + q12 * k2) + k2 * (p2 + q22 * k2))
                    % den2,
                )

            for k1 in range(d1):
                for k2 in range(d2):
                    here = residues(k1, k2)
                    assert residues(k1 + d1, k2) == here
                    assert residues(k1, k2 + d2) == here


def test_membership_forms_match_the_per_unit_forms(tmp_path, monkeypatch):
    # the forms built in two parts, the surface's once and then the unit
    # power's, against the reference that built them whole for each unit
    # power; over the Smith basis the filter reads and the cover basis that
    # membership_conditions reads
    seen = Counter()
    for params in filter_cases(tmp_path, monkeypatch):
        ambient = build_ambient(params)
        cover = tuple(b.as_integer_triple() for b in params.coset_cover.basis)
        for basis in (ambient.quotient.smith_basis, cover):
            unit_form = components.membership_forms(params, basis)
            for v in ambient.unit_powers:
                expected = reference.integer_membership_form(params, v, basis)
                form = unit_form(v)
                assert form == expected and type(form) is type(expected)
                key = params.field.c0, v.norm(), expected is not None
                seen[key] += 1
                if key == (1, -1, True):
                    seen[t_kind(params)] += 1
    # both families and both norms; in the plus family a Norm(v) = -1 form
    # for a surd or zero t, and none for a rational or imaginary t
    assert {(1, 1, True), (1, -1, True), (1, -1, False)} <= set(seen)
    assert {(-1, 1, True), (-1, -1, True)} <= set(seen)
    assert seen["surd"] and seen["zero"]


def test_filter_builds_the_surface_part_once(monkeypatch):
    params = ladder_sized_params()
    ambient = build_ambient(params)
    expected = components._member_keys(params, ambient)
    calls = []
    real = components.membership_forms

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(components, "membership_forms", counted)
    assert components._member_keys(params, ambient) == expected
    assert ambient.n == 8 and len(calls) == 1


def test_periodic_filter_and_classifier_match_the_code_they_replaced(
    tmp_path, monkeypatch
):
    # the filter against the one that stepped over every coset, and the
    # classifier against the one that sorted each translate of K
    shapes = Counter()
    for params in filter_cases(tmp_path, monkeypatch):
        ambient = build_ambient(params)
        keys = components._member_keys(params, ambient)
        assert keys == reference.stepped_member_keys(params, ambient)
        assert components._classify(ambient, keys) == sorted_translate_classify(
            ambient, keys
        )
        d1, d2 = ambient.quotient.d1, ambient.quotient.d2
        unit_form = components.membership_forms(params, ambient.quotient.smith_basis)
        for v in ambient.unit_powers:
            form = unit_form(v)
            if form is not None:
                period = lcm(form.den1, form.den2)
                g1, g2 = gcd(d1, period), gcd(d2, period)
                shapes["shifted periods"] += 1 < g1 < d1
                shapes["runs through every row"] += g1 == 1 < g2 < d2
    assert shapes["shifted periods"] and shapes["runs through every row"]
