"""The record classes against the dataclasses and typing.NamedTuples they
replaced (`tests/records_reference.py`): the same constructor signature
(field order, names and defaults), repr, ==, hash, read-only fields,
copy, deepcopy and pickle, on the eleven goldens and the seeded sets."""

import copy
import dataclasses
import inspect
import pickle
import re

import pytest

import records_reference as ref
from conftest import all_examples, lucas_minus_params
from inoueaut import (
    AmbientGroup,
    AutReport,
    ComponentGroup,
    FieldDescriptor,
    GroupStructure,
    InoueData,
    SurfaceParams,
    automorphism_report,
)
from inoueaut.cli import BUILTIN_EXAMPLES, BuiltinExample
from inoueaut.components import MembershipForm, membership_forms
from inoueaut.surfacegroup import WordData
from test_surfacegroup import GOLDEN, inoue_cases

# new class -> (the class it replaced, whether that one was read-only)
PAIRS = {
    FieldDescriptor: (ref.FieldDescriptor, True),
    SurfaceParams: (ref.SurfaceParams, True),
    WordData: (ref.WordData, True),
    InoueData: (ref.InoueData, True),
    AmbientGroup: (ref.AmbientGroup, False),
    MembershipForm: (ref.MembershipForm, True),
    GroupStructure: (ref.GroupStructure, True),
    ComponentGroup: (ref.ComponentGroup, False),
    AutReport: (ref.AutReport, False),
    BuiltinExample: (ref.BuiltinExample, True),
}


def field_names(old_cls) -> tuple[str, ...]:
    if dataclasses.is_dataclass(old_cls):
        return tuple(f.name for f in dataclasses.fields(old_cls))
    return old_cls._fields


def parameters(cls) -> list[tuple[str, object]]:
    """The constructor's parameters and their defaults, in order."""
    return [(p.name, p.default) for p in inspect.signature(cls).parameters.values()]


@pytest.mark.parametrize("new_cls", PAIRS, ids=lambda cls: cls.__name__)
def test_signature_and_field_order_match(new_cls):
    old_cls, _ = PAIRS[new_cls]
    assert new_cls.__name__ == old_cls.__name__
    assert new_cls._fields == field_names(old_cls)
    assert parameters(new_cls) == parameters(old_cls)


def hash_or_error(x):
    try:
        return hash(x)
    except TypeError:  # a mutable dataclass, or a tuple holding one
        return "unhashable"


def text(x) -> str:
    """repr(x) with object addresses dropped: LatticeQuotient, a field of
    AmbientGroup, keeps object's repr, which a copy changes."""
    return re.sub(r" at 0x[0-9a-f]+>", ">", repr(x))


def assert_pair_matches(new):
    """new against the old class built from the same field values."""
    old_cls, frozen = PAIRS[type(new)]
    names = new._fields
    values = [getattr(new, name) for name in names]
    old = old_cls(*values)
    assert [getattr(old, name) for name in names] == values
    assert repr(new) == repr(old)
    assert hash_or_error(new) == hash_or_error(old)
    # keyword construction, and == with a fresh instance of equal fields
    by_keyword = type(new)(**dict(zip(names, values)))
    assert by_keyword == new and not by_keyword != new
    assert (old_cls(**dict(zip(names, values))) == old) is True
    for copied in (copy.copy(new), copy.deepcopy(new), pickle.loads(pickle.dumps(new))):
        assert type(copied) is type(new)
        assert text(copied) == text(new)
        assert hash_or_error(copied) == hash_or_error(new)
    assert text(copy.deepcopy(new)) == text(copy.deepcopy(old))
    assert text(pickle.loads(pickle.dumps(old))) == text(new)
    # the frozen records refuse assignment; the mutable ones take it, except
    # AutReport, now a namedtuple like the other records without validation
    if frozen or type(new) is AutReport:
        with pytest.raises(AttributeError):
            setattr(new, names[0], values[0])
        assert getattr(new, names[0]) is values[0]
    else:
        setattr(new, names[0], values[0])
        setattr(old, names[0], values[0])
        assert repr(new) == repr(old)
    if frozen:
        with pytest.raises(AttributeError):
            setattr(old, names[0], values[0])


def records_of(params: SurfaceParams) -> list:
    """Every record the analysis of params builds, unit power forms too."""
    report = automorphism_report(params, run_oracle=False, with_double_r=True)
    q, ambient = report.q, report.q.ambient
    basis = ambient.quotient.smith_basis
    forms = map(membership_forms(params, basis), ambient.unit_powers)
    return [
        params.field,
        params,
        SurfaceParams(params.field, params.r, params.x1, params.x2),  # e = 0
        params.word_data,
        report.inoue,
        ambient,
        *(form for form in forms if form is not None),
        q.structure,
        q,
        report.double_r.structure,
        report,
    ]


def test_records_match_the_classes_they_replaced():
    cases = [*inoue_cases(), *all_examples(), lucas_minus_params()]
    assert len(cases) == 178
    assert len(GOLDEN) == 11 and all(p in cases for p in GOLDEN.values())
    seen = set()
    for params in cases:
        for record in records_of(params):
            assert_pair_matches(record)
            seen.add(type(record))
    for example in BUILTIN_EXAMPLES:
        assert_pair_matches(example)
    assert seen | {BuiltinExample} == set(PAIRS)


def test_equality_verdicts_match_the_classes_they_replaced():
    # == and hash between different records agree with the old classes
    cases = [*GOLDEN.values(), *all_examples()]
    records = [records_of(params) for params in cases]
    for row_a in records:
        for row_b in records:
            for a, b in zip(row_a, row_b):
                if type(a) is not type(b):
                    continue
                old_cls, _ = PAIRS[type(a)]
                old_a = old_cls(*(getattr(a, name) for name in a._fields))
                old_b = old_cls(*(getattr(b, name) for name in b._fields))
                assert (a == b) == (old_a == old_b)
                if a == b:
                    assert hash_or_error(a) == hash_or_error(b)


def test_cached_data_stays_out_of_equality_and_copies_with_the_record():
    params = GOLDEN["theta6"]
    fresh = SurfaceParams(params.field, params.r, params.x1, params.x2, params.e)
    params.generators  # cached in __dict__
    assert "generators" in vars(params) and "generators" not in vars(fresh)
    assert fresh == params and hash(fresh) == hash(params)
    assert repr(fresh) == repr(params)
    copied = copy.deepcopy(params)
    assert "generators" in vars(copied) and copied.generators == params.generators
    q = automorphism_report(params, run_oracle=False).q
    table = q.table
    unpickled = pickle.loads(pickle.dumps(q))
    assert "table" in vars(unpickled) and unpickled.table == table
    assert text(unpickled) == text(q)
    with pytest.raises(AttributeError):
        del params.field
