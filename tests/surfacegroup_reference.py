"""The square-and-multiply word problem and standard-form gate that the
closed form in `inoueaut.surfacegroup` replaced, kept as the differential
reference for tests/test_surfacegroup.py: `surface_group_contains`, which
builds the word g1^a g2^b g0^k from `AffineElement` powers, and
`is_standard_form_direct`, which compares g0 g_i g0^{-1} with the powered
word g1^{n_i1} g2^{n_i2}.  Bodies unchanged.
"""

from __future__ import annotations

from inoueaut.exactnum import in_discrete_subgroup
from inoueaut.surfacegroup import AffineElement, SurfaceParams
from inoueaut.units import unit_exponent


def surface_group_contains(params: SurfaceParams, g: AffineElement) -> bool:
    """Word problem for the discrete surface group (standard form assumed).

    Writes g against the canonical word g1^a g2^b g0^k and accepts iff the
    leftover central part is an integer power of g3.
    """
    field = params.field
    k = unit_exponent(g.v, field.u())
    if k is None:
        return False
    coords = params.ideal.integer_coordinates(g.x)
    if coords is None:
        return False
    a, b = coords
    g0, g1, g2, g3 = params.generators
    word = (g1 ** a) * (g2 ** b) * (g0 ** k)
    leftover = g * word.inverse()
    if leftover.v != field.one() or leftover.x:
        return False
    t = leftover.t
    return not t.im and in_discrete_subgroup(t.re, g3.t.re)


def is_standard_form_direct(params: SurfaceParams) -> bool:
    """Conjugation test: g0 g_i g0^{-1} (g1^{n_i1} g2^{n_i2})^{-1} in <g3>.

    Works for both families; the minus family has no closed form.
    """
    g0, g1, g2, g3 = params.generators
    g0_inv = g0.inverse()
    for gi, (ni1, ni2) in zip((g1, g2), params.n_matrix):
        conj = g0 * gi * g0_inv
        word = (g1 ** ni1) * (g2 ** ni2)
        leftover = conj * word.inverse()
        if leftover.v != params.field.one() or leftover.x:
            return False
        t = leftover.t
        if t.im or not in_discrete_subgroup(t.re, g3.t.re):
            return False
    return True
