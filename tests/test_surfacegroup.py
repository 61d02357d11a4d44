"""Surface-group layer: group law, generators, word problem, standard form,
solved e, and the classical-data export; the flat integer group law, the
closed-form word problem, the standard-form gate and the normalizer oracle
against the code they replaced (`tests/surfacegroup_reference.py`)."""

import copy
import pickle
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import surfacegroup_reference as ref
from conftest import (
    _solve_standard_e_minus,
    all_examples,
    example_theta4_shifted,
    example_theta4_zero,
    example_theta6,
    example_theta7,
    affine_identity,
    lucas_params,
    lucas_minus_params,
    is_affine_identity,
    power,
    random_field_element,
    random_eta_params,
    random_invariant_lattice,
    random_standard_params,
    random_surd_t,
    random_t,
    random_unit,
    real_t,
    solve_standard_e,
    surd_triple,
)
from field_reference import quad_complex
from inoueaut import (
    AffineElement,
    FieldDescriptor,
    InternalConsistencyError,
    ParameterError,
    QuadReal,
    StandardFormError,
    SurfaceParams,
    build_ambient,
    chi,
    fundamental_unit,
    is_standard_form_direct,
    normalizer_oracle,
    surface_group_contains,
    to_inoue_data,
)
import inoueaut.quadfield as quadfield
import inoueaut.surfacegroup as surfacegroup
from inoueaut.cli import load_param_file
from inoueaut.exactnum import ZERO_T
from surfacegroup_reference import is_standard_form_residue

F4 = FieldDescriptor(4, 1)
F6 = FieldDescriptor(6, 1)


def random_affine(rng, field, eta) -> AffineElement:
    return AffineElement(
        random_unit(rng, field, eta), random_field_element(rng, field), random_t(rng, field)
    )


def test_group_law_identity_and_inverse():
    rng = random.Random(67)
    for c0, theta in [(1, 6), (-1, 3)]:
        field = FieldDescriptor(theta, c0)
        eta = fundamental_unit(field)
        identity = affine_identity(field)
        for _ in range(150):
            g = random_affine(rng, field, eta)
            assert g * identity == g
            assert identity * g == g
            assert is_affine_identity(g * g.inverse())
            assert is_affine_identity(g.inverse() * g)


def test_group_law_associativity_with_mixed_norms():
    rng = random.Random(71)
    field = FieldDescriptor(3, -1)  # Norm(u) = -1 exercises the sign logic
    eta = fundamental_unit(field)
    for _ in range(200):
        a = random_affine(rng, field, eta)
        b = random_affine(rng, field, eta)
        c = random_affine(rng, field, eta)
        assert (a * b) * c == a * (b * c)


def test_affine_element_is_immutable_and_copies():
    g = example_theta7().generators[0]
    with pytest.raises(AttributeError):
        g.v = g.v
    with pytest.raises(AttributeError):
        del g.x
    for copied in (copy.copy(g), copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
        assert copied == g and hash(copied) == hash(g) and str(copied) == str(g)


def half_of(t):
    """t/2 for a real t."""
    (p, q, den), _ = t
    return surd_triple(Fraction(p, 2 * den), Fraction(q, 2 * den)), ZERO_T[1]


def test_affine_element_validation():
    with pytest.raises(ValueError):
        AffineElement(F6.element(2), F6.zero(), ZERO_T)  # not a unit
    with pytest.raises(ValueError):
        AffineElement(-F6.u(), F6.zero(), ZERO_T)  # sigma1 < 0


# t values that are not two reduced integer triples with den > 0
MALFORMED_T = [
    ((0, 0, 1),),  # one part
    ((0, 0, 1), (0, 0, 1), (0, 0, 1)),  # three parts
    ((1, 0, 1), (0, 0)),  # a part of two numbers
    ((1, 0, -1), (0, 0, 1)),  # den < 0
    ((1, 0, 0), (0, 0, 1)),  # den = 0
    ((0, 0, 1), (2, 4, 6)),  # not reduced
    ((0, 0, 1), (0, 0, 2)),  # zero, not reduced
    ((Fraction(1, 2), 0, 1), (0, 0, 1)),  # not integers
    ((True, 0, 1), (0, 0, 1)),  # a bool is no integer here
    [(0, 0, 1), (0, 0, 1)],  # a list
    ((0, 0, 1), [0, 0, 1]),  # a list part
    0,
    None,
    "0",
]


def test_surface_params_validation():
    field = F6
    with pytest.raises(ParameterError):
        SurfaceParams(field, 0, field.one(), fundamental_unit(field))
    with pytest.raises(ParameterError):
        SurfaceParams(field, 6, field.one(), field.element(2))  # chi = 0
    with pytest.raises(ParameterError):
        # Z<1, u/2> is not a fractional ideal
        SurfaceParams(field, 6, field.one(), field.u() / 2)
    minus = FieldDescriptor(3, -1)
    for t in [((1, 0, 1), (0, 0, 1)), ((0, 0, 1), (0, 1, 3))]:
        with pytest.raises(ParameterError, match="t must be 0 for the minus family"):
            SurfaceParams(minus, 4, minus.one(), minus.u(), t=t)


def test_malformed_t_is_refused():
    # t must be two reduced integer triples with den > 0: SurfaceParams
    # refuses any other t with ParameterError in both families, as it refused
    # a t over the wrong delta when t was a complex type, and so does the
    # public AffineElement constructor, with ValueError
    for field in (F6, FieldDescriptor(3, -1)):
        for bad_t in MALFORMED_T:
            with pytest.raises(ParameterError, match="t must be two reduced"):
                SurfaceParams(field, 6, field.one(), field.u(), t=bad_t)
            with pytest.raises(ValueError, match="t must be two reduced"):
                AffineElement(field.u(), field.zero(), bad_t)


def test_generators_desk_values():
    params = example_theta6()
    g0, g1, g2, g3 = params.generators
    assert g1.x == params.x1
    assert g0.x == params.field.zero() and g0.t == params.t
    # g3.t = -chi(x1, x2)/6 = (1/12) sqrt(32)
    assert g3.t == ((0, 1, 12), (0, 0, 1))
    zero_e = example_theta4_zero()
    assert zero_e.generators[2].t == ZERO_T


def test_commutator_is_g3_to_the_r():
    rng = random.Random(73)
    count = 0
    while count < 400:
        c0 = rng.choice((1, -1))
        theta = rng.randint(3 if c0 == 1 else 1, 9)
        field = FieldDescriptor(theta, c0)
        x1 = random_field_element(rng, field)
        x2 = random_field_element(rng, field)
        if not chi(x1, x2):
            continue
        e = random_field_element(rng, field)
        r = rng.randint(1, 12)
        one = field.one()
        g1 = AffineElement(one, x1, real_t(chi(x1, e)))
        g2 = AffineElement(one, x2, real_t(chi(x2, e)))
        g3 = AffineElement(one, field.zero(), real_t(-chi(x1, x2) / r))
        commutator = g1 * g2 * g1.inverse() * g2.inverse()
        assert commutator == power(g3, r)
        count += 1


def test_g0_conjugates_g3_by_norm():
    for params in (example_theta6(),):
        g0, _, _, g3 = params.generators
        assert g0 * g3 * g0.inverse() == g3  # Norm(u) = 1
    minus = FieldDescriptor(2, -1)
    params = SurfaceParams(minus, 4, minus.one(), minus.u())
    g0, _, _, g3 = params.generators
    assert g0 * g3 * g0.inverse() == power(g3, -1)  # Norm(u) = -1


def test_word_problem_accepts_generator_words():
    rng = random.Random(79)
    for params in (example_theta6(), example_theta7()):
        g0, g1, g2, g3 = params.generators
        gens = [g0, g1, g2, g3, g0.inverse(), g1.inverse(), g2.inverse(), g3.inverse()]
        assert surface_group_contains(params, affine_identity(params.field))
        assert surface_group_contains(params, g0 * g1 * g3.inverse())
        for _ in range(60):
            word = affine_identity(params.field)
            for _ in range(rng.randint(0, 6)):
                word = word * rng.choice(gens)
            assert surface_group_contains(params, word)


def test_word_problem_has_no_power_cap():
    params = example_theta7()
    g0, _, _, g3 = params.generators
    assert surface_group_contains(params, power(g0, 65))
    assert surface_group_contains(params, power(g0, -65))
    assert surface_group_contains(params, power(g0, 200) * g3)
    half_central = AffineElement(
        params.field.one(), params.field.zero(), half_of(g3.t)
    )
    assert not surface_group_contains(params, power(g0, 65) * half_central)


def test_word_problem_rejects_fractional_central_parts():
    params = example_theta6()
    g3 = params.generators[3]
    half_central = AffineElement(
        params.field.one(), params.field.zero(), half_of(g3.t)
    )
    assert not surface_group_contains(params, half_central)
    # a unit outside <u> is rejected at the first stage
    eta = fundamental_unit(params.field)
    assert not surface_group_contains(
        params, AffineElement(eta, params.field.zero(), ZERO_T)
    )
    # x outside the ideal is rejected at the second stage
    assert not surface_group_contains(
        params,
        AffineElement(
            params.field.one(), params.field.element(Fraction(1, 2)), ZERO_T
        ),
    )


def test_standard_form_desk_cases():
    assert is_standard_form_direct(example_theta4_shifted())
    assert is_standard_form_residue(example_theta4_shifted())
    assert is_standard_form_direct(example_theta6())
    assert is_standard_form_direct(example_theta7())
    # e = x1/(17(1-u)) at theta=4, r=6 is not standard
    e_bad = F4.one() / (17 * (F4.one() - F4.u()))
    bad = SurfaceParams(F4, 6, F4.one(), F4.u(), e_bad)
    assert not is_standard_form_direct(bad)
    assert not is_standard_form_residue(bad)


def test_residue_form_is_plus_family_only():
    minus = FieldDescriptor(2, -1)
    params = SurfaceParams(minus, 4, minus.one(), minus.u())
    with pytest.raises(ValueError):
        is_standard_form_residue(params)
    assert is_standard_form_direct(params) in (True, False)


def test_residue_equals_direct_randomized():
    rng = random.Random(83)
    for _ in range(60):
        theta = rng.randint(3, 9)
        field = FieldDescriptor(theta, 1)
        lat = random_invariant_lattice(rng, field)
        x1, x2 = lat.basis
        r = rng.randint(1, 8)
        e = random_field_element(rng, field)
        params = SurfaceParams(field, r, x1, x2, e)
        assert is_standard_form_direct(params) == is_standard_form_residue(params)


def test_solve_standard_e():
    e = solve_standard_e(F4, 6, F4.one(), F4.u(), 0, 0)
    params = SurfaceParams(F4, 6, F4.one(), F4.u(), e)
    assert is_standard_form_direct(params)
    # shifting p by r moves e by u/(1-u) * x2
    e_shift = solve_standard_e(F4, 6, F4.one(), F4.u(), 6, 0)
    assert e_shift - e == (F4.u() / (F4.one() - F4.u())) * F4.u()
    rng = random.Random(89)
    for _ in range(40):
        theta = rng.randint(3, 9)
        field = FieldDescriptor(theta, 1)
        lat = random_invariant_lattice(rng, field)
        r = rng.randint(1, 10)
        p_int, q_int = rng.randint(-9, 9), rng.randint(-9, 9)
        e = solve_standard_e(field, r, lat.b1, lat.b2, p_int, q_int)
        assert is_standard_form_direct(
            SurfaceParams(field, r, lat.b1, lat.b2, e)
        )
    with pytest.raises(ValueError):
        solve_standard_e(FieldDescriptor(2, -1), 4, F4.one(), F4.u(), 0, 0)


def apply(matrix, c1, c2):
    """The integer matrix times the column (c1; c2)."""
    (m11, m12), (m21, m22) = matrix
    return m11 * c1 + m12 * c2, m21 * c1 + m22 * c2


def test_to_inoue_data_theta6():
    params = example_theta6()
    data = to_inoue_data(params)
    assert data.matrix == ((1, 2), (2, 5))
    assert data.alpha == QuadReal(3, Fraction(1, 2), 32)
    assert (data.p, data.q) == (-6, -30)
    # e = 0 makes c_i = Norm(x_i)/2
    assert data.c1 == QuadReal(Fraction(1, 2), 0, 32)
    assert data.c2 == QuadReal(Fraction(-1, 2), 0, 32)
    # eigenvector relations N a = alpha a and N b = (c0/alpha) b
    for column, value in ((
        (data.a1, data.a2), data.alpha), ((data.b1, data.b2), data.alpha.inverse())):
        lhs = apply(data.matrix, *column)
        assert lhs[0] == value * column[0]
        assert lhs[1] == value * column[1]


def test_to_inoue_data_round_trip():
    rng = random.Random(97)
    for _ in range(30):
        theta = rng.randint(3, 8)
        field = FieldDescriptor(theta, 1)
        lat = random_invariant_lattice(rng, field)
        r = rng.randint(1, 8)
        p_int, q_int = rng.randint(-8, 8), rng.randint(-8, 8)
        e = solve_standard_e(field, r, lat.b1, lat.b2, p_int, q_int)
        params = SurfaceParams(field, r, lat.b1, lat.b2, e)
        data = to_inoue_data(params)
        assert (data.p, data.q) == (p_int, q_int)
        again = solve_standard_e(field, r, lat.b1, lat.b2, data.p, data.q)
        assert again == e


def test_to_inoue_data_minus_family():
    minus = FieldDescriptor(2, -1)
    params = SurfaceParams(minus, 4, minus.one(), minus.u())
    assert is_standard_form_direct(params)
    data = to_inoue_data(params)
    (n11, n12), (n21, n22) = data.matrix
    assert n11 * n22 - n12 * n21 == -1
    lhs = apply(data.matrix, data.b1, data.b2)
    assert lhs[0] == -data.alpha.inverse() * data.b1
    assert lhs[1] == -data.alpha.inverse() * data.b2


def test_to_inoue_data_rejects_non_standard():
    e_bad = F4.one() / (17 * (F4.one() - F4.u()))
    bad = SurfaceParams(F4, 6, F4.one(), F4.u(), e_bad)
    with pytest.raises(StandardFormError):
        to_inoue_data(bad)


def test_to_inoue_data_checks_its_solution():
    # the re-substitution is not true by construction: a wrong row of N
    # leaves a rational part, and wrong word data a different quotient
    params = example_theta6()
    params.__dict__["n_matrix"] = ((1, 3), (2, 5))
    with pytest.raises(InternalConsistencyError, match="re-substitution failed"):
        to_inoue_data(params)
    params = example_theta6()
    params.__dict__["word_data"] = params.word_data._replace(c2=1)
    with pytest.raises(InternalConsistencyError, match="re-substitution failed"):
        to_inoue_data(params)
    assert to_inoue_data(example_theta6()).p == -6


def inoue_fields(data) -> list:
    """All eleven fields of an InoueData, each value as its type, triple,
    radicand and text, so that equal lists mean equal printed data."""
    values = data.alpha, data.a1, data.a2, data.b1, data.b2, data.c1, data.c2, data.d
    return [data.matrix, data.p, data.q] + [
        (type(x), x.as_integer_triple(), x.delta, str(x)) for x in values
    ]


def inoue_cases() -> list[SurfaceParams]:
    """The eleven goldens, seeded standard-form sets of both families over
    random ideals and over Z<1, eta> (r up to 40), and the Z[phi] Lucas
    sets at theta = L_16."""
    cases = list(GOLDEN.values())
    rng = random.Random(157)
    for k in range(160):
        c0 = 1 if k % 2 else -1
        draw = random_standard_params if k % 4 < 2 else random_eta_params
        t_draw = random_surd_t if k % 8 < 4 else random_t
        cases.append(draw(rng, c0, (3 if c0 == 1 else 1, 60), (1, 40), t_draw))
    return cases + [lucas_params(2), lucas_params(2 * (2207 - 2))]


def test_to_inoue_data_matches_the_quadreal_solver():
    # the integer solver against the QuadReal one it replaced: the same
    # eleven values on standard sets, the same StandardFormError off them
    rng = random.Random(163)
    cases = inoue_cases()
    assert len(cases) == 173 and {p.field.c0 for p in cases} == {1, -1}
    refused = 0
    for params in cases:
        expected = inoue_fields(ref.to_inoue_data(params))
        assert inoue_fields(to_inoue_data(params)) == expected
        # e moved by x1/(k r): off standard form unless k divides the
        # leftover's denominator
        k = rng.choice((2, 3, 5, 7))
        e = params.e + params.x1 / (k * params.r)
        moved = SurfaceParams(
            params.field, params.r, params.x1, params.x2, e, params.t
        )
        try:
            expected = inoue_fields(ref.to_inoue_data(moved))
        except StandardFormError as exc:
            with pytest.raises(StandardFormError) as got:
                to_inoue_data(moved)
            assert str(got.value) == str(exc)
            assert not is_standard_form_direct(moved)
            refused += 1
        else:
            assert inoue_fields(to_inoue_data(moved)) == expected
    assert refused >= 100


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_inoue_p_q_is_the_word_data_quotient(data):
    # (p, q) = r (W_i - 2 c0 C_i)/(2 X0), W_i = 2 n_i1 C1 + 2 n_i2 C2 -
    # n_i1 n_i2 X0, the quotient the standard-form gate tests
    params = data.draw(standard_params())
    words = params.word_data
    expected = []
    for (ni1, ni2), ci in zip(params.n_matrix, (words.c1, words.c2)):
        w = 2 * ni1 * words.c1 + 2 * ni2 * words.c2 - ni1 * ni2 * words.x0
        value, rest = divmod(words.r * (w - 2 * words.c0 * ci), 2 * words.x0)
        assert rest == 0
        expected.append(value)
    inoue = to_inoue_data(params)
    assert [inoue.p, inoue.q] == expected


# -- the closed form against the square-and-multiply reference -----------------

GOLDEN = {
    path.stem: load_param_file(str(path))
    for path in sorted((Path(__file__).parent / "golden").glob("*.params"))
}


@st.composite
def standard_params(draw):
    """A golden parameter set (both families; theta6_t_imag has a complex t)
    or a random standard-form set of either family."""
    if draw(st.booleans()):
        return GOLDEN[draw(st.sampled_from(sorted(GOLDEN)))]
    rng = random.Random(draw(st.integers(0, 2**32)))
    c0 = draw(st.sampled_from((1, -1)))
    t_draw = draw(st.sampled_from((random_t, random_surd_t)))
    return random_standard_params(rng, c0, (3 if c0 == 1 else 1, 9), t_draw=t_draw)


def perturbations(params):
    """Elements that take a group element out of the group: a half-central
    element, an imaginary central offset, a unit outside <u> (when there is
    one) and an x outside I."""
    field = params.field
    zero = field.zero()
    g3_t = params.generators[3].t
    out = [
        AffineElement(field.one(), zero, half_of(g3_t)),
        AffineElement(field.one(), zero, (ZERO_T[0], g3_t[0])),
        AffineElement(field.one(), params.x1 / 2, ZERO_T),
        AffineElement(field.one(), params.x2 / 3, ZERO_T),
    ]
    eta = fundamental_unit(field)
    if eta != field.u():
        out.append(AffineElement(eta, zero, ZERO_T))
    return out


@st.composite
def word_cases(draw):
    """Standard-form parameters, a random word in the generators with g0
    exponents up to +-200, and either nothing or a perturbation multiplied
    on the left or on the right."""
    params = draw(standard_params())
    gens = params.generators
    word = affine_identity(params.field)
    for _ in range(draw(st.integers(0, 5))):
        i = draw(st.integers(0, 3))
        exponent = draw(st.integers(-200, 200) if i == 0 else st.integers(-6, 6))
        word = word * power(gens[i], exponent)
    if not draw(st.booleans()):
        return params, word, True
    bad = draw(st.sampled_from(perturbations(params)))
    return params, word * bad if draw(st.booleans()) else bad * word, False


def as_ref(g: AffineElement) -> ref.AffineElement:
    return ref.AffineElement(g.v, g.x, quad_complex(g.t, g.field.delta))


@settings(max_examples=250, deadline=None)
@given(word_cases())
def test_closed_form_word_problem_matches_reference(case):
    params, g, is_word = case
    accepted = surface_group_contains(params, g)
    assert accepted == ref.surface_group_contains(params, as_ref(g))
    if is_word:
        assert accepted


@st.composite
def gate_cases(draw):
    """Parameters of either family over a random ideal, with a standard e
    (solved from random central offsets), that e moved by a random element,
    or a random e, so both verdicts occur; t is random for the plus family."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    c0 = draw(st.sampled_from((1, -1)))
    field = FieldDescriptor(draw(st.integers(3 if c0 == 1 else 1, 12)), c0)
    x1, x2 = random_invariant_lattice(rng, field).basis
    r = draw(st.integers(1, 12))
    solve = solve_standard_e if c0 == 1 else _solve_standard_e_minus
    e = solve(field, r, x1, x2, rng.randint(-2 * r, 2 * r), rng.randint(-2 * r, 2 * r))
    kind = draw(st.sampled_from(("standard", "moved", "random")))
    if kind == "moved":
        e = e + random_field_element(rng, field)
    elif kind == "random":
        e = random_field_element(rng, field)
    t = random_t(rng, field) if c0 == 1 else ZERO_T
    return SurfaceParams(field, r, x1, x2, e, t)


@settings(max_examples=300, deadline=None)
@given(st.one_of(gate_cases(), st.sampled_from(sorted(GOLDEN)).map(GOLDEN.get)))
def test_closed_form_standard_form_gate_matches_reference(params):
    assert is_standard_form_direct(params) == ref.is_standard_form_direct(params)


# -- the flat integer law against the reference AffineElement ------------------


@st.composite
def law_cases(draw):
    """Standard-form parameters of either family and a random h = [v, y, s]
    over their field: v = u^i eta^j (Norm(v) = -1 whenever an odd power of
    a norm -1 unit occurs, which every minus-family u is), y a random field
    element and s from random_t, which gives Im(s) != 0 in 15% of draws."""
    params = draw(standard_params())
    field = params.field
    rng = random.Random(draw(st.integers(0, 2**32)))
    eta = fundamental_unit(field)
    v = power(field.u(), draw(st.integers(-3, 3))) * power(eta, draw(st.integers(-3, 3)))
    h = AffineElement(v, random_field_element(rng, field), random_t(rng, field))
    return params, h


@settings(max_examples=300, deadline=None)
@given(law_cases())
def test_flat_law_matches_reference(case):
    params, h = case
    rh, rh_inv = as_ref(h), as_ref(h).inverse()
    h_inv = h.inverse()
    assert as_ref(h_inv) == rh_inv
    assert is_affine_identity(h * h_inv) and is_affine_identity(h_inv * h)
    for gen, rgen in zip(params.generators, ref.make_generators(params)):
        assert as_ref(gen) == rgen
        assert as_ref(h * gen) == rh * rgen
        assert as_ref(gen * h) == rgen * rh
        conjugates = (
            (h * gen * h_inv, rh * rgen * rh_inv),
            (h_inv * gen * h, rh_inv * rgen * rh),
        )
        for conj, rconj in conjugates:
            assert as_ref(conj) == rconj
            assert str(conj) == str(rconj)
            accepted = surface_group_contains(params, conj)
            assert accepted == ref.surface_group_contains(params, rconj)


def assert_generators_match_reference(params):
    # the generators read off the word data hold the reference generators'
    # v, x, Re t and Im t, triple by triple
    for gen, rgen in zip(params.generators, ref.make_generators(params)):
        parts = (rgen.v, rgen.x, rgen.t.re, rgen.t.im)
        assert gen._flat == sum((x.as_integer_triple() for x in parts), ())
        assert str(gen) == str(rgen)


@settings(max_examples=150, deadline=None)
@given(standard_params())
def test_make_generators_flats_match_reference(params):
    assert_generators_match_reference(params)


def test_generators_match_reference_on_goldens_and_seeded_sets():
    cases = [*inoue_cases(), *all_examples(), lucas_minus_params()]
    assert len(cases) == 178
    for params in cases:
        assert_generators_match_reference(params)


def test_generators_read_the_word_data(monkeypatch):
    # With the word data built, the generators come from its integers and
    # the set's own triples: no chi, no Fraction and no validating
    # AffineElement constructor.
    cases = [*GOLDEN.values(), lucas_minus_params()]
    cases = [  # copies with nothing cached
        SurfaceParams(p.field, p.r, p.x1, p.x2, p.e, p.t) for p in cases
    ]
    for params in cases:
        params.word_data
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    chi_counted = counted("chi", quadfield.chi)
    monkeypatch.setattr(quadfield, "chi", chi_counted)
    monkeypatch.setattr(surfacegroup, "chi", chi_counted)
    monkeypatch.setattr(
        AffineElement, "__init__", counted("AffineElement", AffineElement.__init__)
    )
    monkeypatch.setattr(Fraction, "__new__", counted("Fraction", Fraction.__new__))
    if hasattr(Fraction, "_from_coprime_ints"):  # Python >= 3.12 arithmetic
        original = Fraction.__dict__["_from_coprime_ints"].__func__
        monkeypatch.setattr(
            Fraction, "_from_coprime_ints", classmethod(counted("Fraction", original))
        )
    for params in cases:
        assert len(params.generators) == 4
    assert calls == Counter()
    # the counters do count: chi through the surfacegroup binding, and the
    # public constructor with its Fraction norm check
    field = F4
    surfacegroup.chi(field.one(), field.u())
    AffineElement(field.u(), field.zero(), ZERO_T)
    assert calls["chi"] == 1 and calls["AffineElement"] == 1 and calls["Fraction"] > 0


def test_default_e_and_t_equal_the_explicit_zeros():
    for params in inoue_cases():
        field, r, x1, x2 = params.field, params.r, params.x1, params.x2
        short = SurfaceParams(field, r, x1, x2)
        full = SurfaceParams(field, r, x1, x2, field.zero(), ZERO_T)
        assert short == full and hash(short) == hash(full)
        assert short.e == field.zero() and short.t == ZERO_T


def test_flat_law_covers_norm_minus_one_and_complex_t():
    # The cases law_cases is meant to reach, fixed: theta = 6 (eta = 1 +
    # sqrt(2), Norm -1) and theta = 3 minus (Norm(u) = -1), with complex t.
    for field in (F6, FieldDescriptor(3, -1)):
        eta = fundamental_unit(field)
        assert eta.norm() == -1
        t = surd_triple(Fraction(1, 3), 2), surd_triple(-1, Fraction(1, 2))
        minus_t = surd_triple(Fraction(-1, 3), -2), surd_triple(1, Fraction(-1, 2))
        for v in (eta, eta.inverse(), power(eta, 3) * field.u()):
            h = AffineElement(v, field.element(Fraction(1, 2), -1), t)
            g = AffineElement(field.u(), field.element(2, Fraction(-1, 3)), minus_t)
            rh, rg = as_ref(h), as_ref(g)
            assert as_ref(h * g) == rh * rg
            assert as_ref(g * h) == rg * rh
            assert as_ref(h.inverse()) == rh.inverse()
            assert as_ref(h * g * h.inverse()) == rh * rg * rh.inverse()


def reference_oracle_agrees_on_all_of_h(params):
    ambient = build_ambient(params)
    for key in range(ambient.order):
        i, k = ambient.pair(key)
        v, y = ambient.unit_powers[i], ambient.quotient.rep(k)
        assert normalizer_oracle(params, v, y) == ref.normalizer_oracle(params, v, y)
    return ambient.order


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_oracle_matches_reference_on_goldens(name):
    assert reference_oracle_agrees_on_all_of_h(GOLDEN[name]) > 0


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 2**32),
    st.sampled_from((1, -1)),
    st.sampled_from((random_standard_params, random_eta_params)),
    st.sampled_from((random_t, random_surd_t)),
)
def test_oracle_matches_reference_on_random_params(seed, c0, build, t_draw):
    rng = random.Random(seed)
    params = build(rng, c0, (3 if c0 == 1 else 1, 9), t_draw=t_draw)
    reference_oracle_agrees_on_all_of_h(params)
