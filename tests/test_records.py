"""The record classes: their constructors, equality, hashing, repr,
immutability and argument checks.  A value record compares and hashes
field by field; a grid, a table or a model compares and hashes by
identity; a frozen record refuses every assignment and deletion."""

import inspect
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from latcurve import (
    E1Entry,
    GermModel,
    HilbertGrid,
    HomologyReport,
    LaurentSeries,
    MarginTooSmall,
    MinimalCycleGroup,
    MultiPoly,
    QPoly,
    RationalSeries,
    SemigroupTable,
    Verdict,
    WeightGrid,
    build_model,
    get,
    omega_substitution,
)
from latcurve.catalog import CatalogEntry, get_entry

from oracles import omega_by_points

A2 = build_model(get("A", 2))
DESC = A2.descriptor
ONE = MultiPoly(1, (((0,), 1),))


def _grid(values):
    return np.array(values, dtype=np.int64)


# class -> (positional arguments, the same as keywords, repr of the record)
RECORDS = {
    CatalogEntry: (
        ("A", (2,), DESC, {"delta": 1}),
        dict(name="A", params=(2,), descriptor=DESC, expected={"delta": 1}),
        f"CatalogEntry(name='A', params=(2,), descriptor={DESC!r}, "
        "expected={'delta': 1})",
    ),
    Verdict: (
        ("finite", "A", None, None, {"weights": {}}),
        dict(cmtype="finite", subtype="A", growth=None, family=None,
             routes={"weights": {}}),
        "Verdict(cmtype='finite', subtype='A', growth=None, family=None, "
        "agreement=True)",
    ),
    GermModel: (
        (DESC, 1, A2.semigroup, A2.hilbert, A2.weight),
        dict(descriptor=DESC, r=1, semigroup=A2.semigroup, hilbert=A2.hilbert,
             weight=A2.weight),
        f"GermModel(descriptor={DESC!r}, r=1, "
        "semigroup=SemigroupTable(r=1, conductor=(2,)), "
        "hilbert=HilbertGrid(r=1, bound=(6,)), "
        "weight=WeightGrid(r=1, bound=(6,), multiplicity=(2,), conductor=(2,)), "
        "name=None)",
    ),
    HomologyReport: (
        (1, 0, 1, {0: [(1, [])], 1: [(1, [])]}, {}),
        dict(r=1, n_min=0, n_top=1, table={0: [(1, [])], 1: [(1, [])]}, u_ranks={}),
        "HomologyReport(r=1, n_min=0, n_top=1)",
    ),
    SemigroupTable: (
        (1, (2,), np.array([True, False, True])),
        dict(r=1, conductor=(2,), mask=np.array([True, False, True])),
        "SemigroupTable(r=1, conductor=(2,))",
    ),
    HilbertGrid: (
        (1, (3,), _grid([0, 1, 1, 2])),
        dict(r=1, bound=(3,), values=_grid([0, 1, 1, 2])),
        "HilbertGrid(r=1, bound=(3,))",
    ),
    WeightGrid: (
        (1, (3,), _grid([0, 1, 0, 1]), (2,), (2,)),
        dict(r=1, bound=(3,), values=_grid([0, 1, 0, 1]), multiplicity=(2,),
             conductor=(2,)),
        "WeightGrid(r=1, bound=(3,), multiplicity=(2,), conductor=(2,))",
    ),
    QPoly: (
        (((0, 1), (2, -1)),),
        dict(coeffs=((0, 1), (2, -1))),
        "QPoly(coeffs=((0, 1), (2, -1)))",
    ),
    LaurentSeries: (
        (-2, (1, 0, 3), 1),
        dict(order=-2, coeffs=(1, 0, 3), truncation=1),
        "LaurentSeries(order=-2, coeffs=(1, 0, 3), truncation=1)",
    ),
    MultiPoly: (
        (2, (((0, 0), 1), ((1, 2), -3))),
        dict(r=2, terms=(((0, 0), 1), ((1, 2), -3))),
        "MultiPoly(r=2, terms=(((0, 0), 1), ((1, 2), -3)))",
    ),
    RationalSeries: (
        (ONE, ((2,),)),
        dict(numerator=ONE, denominator=((2,),)),
        "RationalSeries(numerator=MultiPoly(r=1, terms=(((0,), 1),)), "
        "denominator=((2,),))",
    ),
    E1Entry: (
        ((1, 2), 3, 0, 1, 1),
        dict(ell=(1, 2), d=3, k=0, n=1, rank=1),
        "E1Entry(ell=(1, 2), d=3, k=0, n=1, rank=1)",
    ),
    MinimalCycleGroup: (
        (1, 0, 2, 1),
        dict(k=1, n=0, j=2, rank=1),
        "MinimalCycleGroup(k=1, n=0, j=2, rank=1)",
    ),
}

# class -> its parameters and their defaults, in order
SIGNATURES = {
    CatalogEntry: "name, params, descriptor, expected",
    Verdict: "cmtype, subtype, growth, family, routes, agreement=True, model=None",
    GermModel: "descriptor, r, semigroup, hilbert, weight, name=None",
    HomologyReport: "r, n_min, n_top, table, u_ranks",
    SemigroupTable: "r, conductor, mask",
    HilbertGrid: "r, bound, values",
    WeightGrid: "r, bound, values, multiplicity, conductor",
    QPoly: "coeffs=()",
    LaurentSeries: "order, coeffs, truncation",
    MultiPoly: "r, terms=()",
    RationalSeries: "numerator, denominator=()",
    E1Entry: "ell, d, k, n, rank",
    MinimalCycleGroup: "k, n, j, rank",
}

BY_IDENTITY = (GermModel, SemigroupTable, HilbertGrid, WeightGrid)
NOT_FROZEN = (Verdict, HomologyReport)
UNHASHABLE_FIELDS = (CatalogEntry,)  # its descriptor and expectations hold lists


def _changed(value):
    """Another value of the same kind."""
    if isinstance(value, MultiPoly):
        return MultiPoly(value.r, value.terms * 2)
    return value + value


def _ids(classes):
    return [cls.__name__ for cls in classes]


def _params(cls) -> str:
    return ", ".join(
        name if p.default is inspect.Parameter.empty else f"{name}={p.default!r}"
        for name, p in inspect.signature(cls).parameters.items()
    )


@pytest.mark.parametrize("cls", RECORDS, ids=_ids(RECORDS))
def test_records_take_the_same_arguments(cls):
    args, kwargs, _ = RECORDS[cls]
    assert _params(cls) == SIGNATURES[cls]
    by_position, by_keyword = cls(*args), cls(**kwargs)
    for arg, (name, kwarg) in zip(args, kwargs.items(), strict=True):
        assert getattr(by_position, name) is arg
        assert getattr(by_keyword, name) is kwarg


@pytest.mark.parametrize("cls", RECORDS, ids=_ids(RECORDS))
def test_repr_is_unchanged(cls):
    args, _, want = RECORDS[cls]
    assert repr(cls(*args)) == want


def test_defaults_fill_the_trailing_fields():
    assert QPoly().coeffs == () and MultiPoly(3).terms == ()
    assert RationalSeries(ONE).denominator == ()
    verdict = Verdict("wild", None, None, None, {})
    assert (verdict.agreement, verdict.model) == (True, None)
    model = GermModel(DESC, 1, A2.semigroup, A2.hilbert, A2.weight)
    assert model.name is None


def test_a_laurent_series_reads_zero_below_its_order_and_refuses_past_its_truncation():
    series = LaurentSeries(-2, (3, 4, 5), 0)
    assert [series.coeff(n) for n in (-5, -3, -2, -1, 0)] == [0, 0, 3, 4, 5]
    with pytest.raises(MarginTooSmall, match=r"^series only known through order 0$"):
        series.coeff(1)


def test_the_zero_polynomial_has_no_order():
    assert QPoly(((2, 1), (5, -1))).order() == 2
    with pytest.raises(ValueError, match=r"^the zero polynomial has no order$"):
        QPoly().order()


def test_each_model_keeps_its_own_subcurve_cache():
    args, _, _ = RECORDS[GermModel]
    first, second = GermModel(*args), GermModel(*args)
    assert first._subcurves == {} and first._subcurves is not second._subcurves
    assert "_subcurves" not in _params(GermModel)


FROZEN = [cls for cls in RECORDS if cls not in NOT_FROZEN]


@pytest.mark.parametrize("cls", FROZEN, ids=_ids(FROZEN))
def test_frozen_records_refuse_assignment_and_deletion(cls):
    args, kwargs, _ = RECORDS[cls]
    record = cls(*args)
    field = next(iter(kwargs))
    with pytest.raises(FrozenInstanceError, match=f"cannot assign to field '{field}'"):
        setattr(record, field, None)
    with pytest.raises(FrozenInstanceError, match="cannot assign to field 'extra'"):
        record.extra = 1
    with pytest.raises(FrozenInstanceError, match=f"cannot delete field '{field}'"):
        delattr(record, field)
    assert getattr(record, field) is args[0] or getattr(record, field) == args[0]


@pytest.mark.parametrize("cls", NOT_FROZEN, ids=_ids(NOT_FROZEN))
def test_verdicts_and_reports_may_be_changed(cls):
    args, kwargs, _ = RECORDS[cls]
    record = cls(*args)
    field = next(iter(kwargs))
    setattr(record, field, "changed")
    assert getattr(record, field) == "changed"
    with pytest.raises(TypeError, match="unhashable"):
        hash(record)


VALUES = [cls for cls in RECORDS if cls not in BY_IDENTITY]


@pytest.mark.parametrize("cls", VALUES, ids=_ids(VALUES))
def test_value_records_compare_field_by_field(cls):
    args, kwargs, _ = RECORDS[cls]
    first, second = cls(*args), cls(**kwargs)
    assert first == second and not first != second
    assert first != args and first.__eq__(args) is NotImplemented
    if cls not in NOT_FROZEN + UNHASHABLE_FIELDS:
        assert hash(first) == hash(second) == hash(tuple(args))
    field = next(iter(kwargs))
    assert first != cls(**dict(kwargs, **{field: _changed(args[0])}))


def test_a_verdict_compares_without_its_model():
    args, _, _ = RECORDS[Verdict]
    assert Verdict(*args) == Verdict(*args, model=A2)
    assert Verdict(*args) != Verdict(*args, agreement=False)
    assert Verdict(*args) != Verdict(*args[:4], {"homology": {}})


def test_a_report_compares_its_tables():
    args, _, _ = RECORDS[HomologyReport]
    assert HomologyReport(*args) != HomologyReport(*args[:4], {(0, 0): 1})


def test_hash_of_a_catalog_entry_reads_its_fields():
    with pytest.raises(TypeError, match="unhashable type: 'list'"):
        hash(get_entry("A", 2))
    assert get_entry("A", 2) == get_entry("A", 2)


@pytest.mark.parametrize("cls", BY_IDENTITY, ids=_ids(BY_IDENTITY))
def test_array_holders_compare_by_identity(cls):
    args, _, _ = RECORDS[cls]
    first, second = cls(*args), cls(*args)
    assert first == first and first != second
    assert hash(first) == object.__hash__(first)
    assert len({first, second}) == 2


@pytest.mark.parametrize("cls", [SemigroupTable, HilbertGrid, WeightGrid],
                         ids=["SemigroupTable", "HilbertGrid", "WeightGrid"])
def test_array_holders_make_their_array_read_only(cls):
    args, _, _ = RECORDS[cls]
    array = args[2].copy()
    cls(*args[:2], array, *args[3:])
    assert not array.flags.writeable


def test_a_laurent_series_of_the_oracle_equals_the_engines():
    m = build_model(get("D", 5))
    series = omega_substitution(m.hilbert, m.weight, 2)
    oracle = omega_by_points(m.hilbert, m.weight, 2)
    assert series == oracle and hash(series) == hash(oracle)
    assert repr(series) == repr(oracle)


@pytest.mark.parametrize(
    "denominator,message",
    [(((1, 2),), "bad denominator exponent (1, 2)"),
     (((0,),), "bad denominator exponent (0,)"),
     (((-1,),), "bad denominator exponent (-1,)")],
    ids=["length", "zero", "negative"],
)
def test_a_rational_series_checks_its_denominator(denominator, message):
    with pytest.raises(ValueError) as exc:
        RationalSeries(ONE, denominator)
    assert str(exc.value) == message


def test_min_cycle_groups_are_true_when_of_positive_rank():
    assert MinimalCycleGroup(1, 0, 2, 1) and not MinimalCycleGroup(1, 0, 2, 0)
