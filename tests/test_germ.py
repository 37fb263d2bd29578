"""A germ model is a value: growing it returns a new model, and no
computation changes a model it is given."""

import argparse
import re
from dataclasses import replace

import numpy as np
import pytest

from latcurve import DescriptorError, GermDescriptor, build_model, classify, germ, get
from latcurve.cli import cmd_motivic, main
from latcurve.germ import descriptor_from_json, descriptor_from_json_dict

from oracles import gorenstein_motivic_check_by_points


def _arrays(model):
    return [model.semigroup.mask, model.hilbert.values, model.weight.values]


def _snapshot(model):
    return model.bound, [a.copy() for a in _arrays(model)]


def _assert_unchanged(model, snapshot):
    bound, arrays = snapshot
    assert model.bound == bound
    for now, before in zip(_arrays(model), arrays):
        assert np.array_equal(now, before)


@pytest.mark.parametrize(
    "spec,bound,final",
    [(("A", 16), (17,), (18,)), (("E13",), (10, 6), (11, 7)), (("D", 5), None, (8, 8))],
)
def test_classify_leaves_its_argument_unchanged(spec, bound, final):
    m = build_model(replace(get(*spec), bound=bound))
    snapshot = _snapshot(m)
    verdict = classify(m)
    _assert_unchanged(m, snapshot)
    assert verdict.model.bound == final


def test_grid_arrays_are_read_only(model_of):
    m = model_of("D", 5)
    for model in (m, m.branch(1), m.ensure_bound((9, 9))):
        assert not any(a.flags.writeable for a in _arrays(model))
    with pytest.raises(ValueError):
        m.weight.values[0, 0] = 5
    with pytest.raises(ValueError):
        m.hilbert.values[tuple(slice(0, c + 1) for c in m.conductor)] += 1


def test_models_and_grids_compare_and_hash_by_identity():
    """Two builds of one germ are two values: ``==`` is identity and
    ``hash`` works, where comparing or hashing the arrays would raise."""
    desc = get("D", 5)
    a, b = build_model(desc), build_model(desc)
    pairs = [(a, b)] + [
        (getattr(a, name), getattr(b, name))
        for name in ("semigroup", "hilbert", "weight")
    ]
    for x, y in pairs:
        assert (x == y) is False
        assert x == x and x != y
        assert hash(x) == hash(x) and len({x, x, y}) == 2


def test_ensure_bound_returns_a_new_model(model_of):
    m = model_of("D", 5)
    snapshot = _snapshot(m)
    assert m.ensure_bound(m.bound) is m
    grown = m.ensure_bound((9, 9))
    assert grown is not m
    assert grown.bound == (9, 9)
    _assert_unchanged(m, snapshot)
    inside = tuple(slice(0, b + 1) for b in m.bound)
    assert np.array_equal(grown.weight.values[inside], m.weight.values)


@pytest.mark.parametrize("requested", [(20,), (9, 9, 9), ()])
def test_ensure_bound_refuses_a_point_of_the_wrong_length(model_of, requested):
    m = model_of("D", 5)
    want = f"l={requested} has {len(requested)} coordinates, not r = 2"
    with pytest.raises(DescriptorError, match=re.escape(want)):
        m.ensure_bound(requested)


def test_ensure_bound_keeps_the_arrays(model_of, monkeypatch):
    """A grown model holds the very arrays of its parent on the new
    bound, and no grid is rebuilt."""
    m = model_of("D", 5)
    built = []
    real = germ.hilbert_from_semigroup
    monkeypatch.setattr(
        germ, "hilbert_from_semigroup", lambda *a: built.append(a) or real(*a)
    )
    grown = m.ensure_bound((30, 20))
    assert grown.bound == grown.hilbert.bound == grown.weight.bound == (30, 20)
    assert grown.semigroup is m.semigroup
    assert grown.hilbert.held is m.hilbert.held
    assert grown.weight.held is m.weight.held
    assert built == []
    assert grown.hilbert.values.shape == (31, 21)


def test_models_hold_their_conductor_box():
    """D_40 answers for R(0, (35, 35, 35)), 46656 points, and each of its
    grids holds every cube of R(0, c), R(0, c + e) = R(0, (21, 21, 3)),
    1936 values."""
    m = build_model(get("D", 40))
    assert m.bound == (35, 35, 35) and m.conductor == (20, 20, 2)
    assert m.hilbert.held.size == m.weight.held.size == 1936
    assert m.hilbert.values.size == m.weight.values.size == 46656
    # a smooth branch has c = 0 and m = 1: its grids hold R(0, m + e)
    smooth = build_model(get("A", 0))
    assert (smooth.conductor, smooth.multiplicity) == ((0,), (1,))
    assert smooth.hilbert.held.tolist() == [0, 1, 2]


def test_motivic_command_leaves_the_model_unchanged(model_of, capsys):
    m = model_of("D", 4)
    snapshot = _snapshot(m)
    cmd_motivic(m, argparse.Namespace(depth=8, format="json"))
    assert '"omega_order":-1' in capsys.readouterr().out
    _assert_unchanged(m, snapshot)


def test_motivic_command_grows_once_for_its_levels(monkeypatch, capsys):
    bounds = []
    ensure_bound = germ.GermModel.ensure_bound

    def recording(model, requested):
        grown = ensure_bound(model, requested)
        if grown is not model:
            bounds.append(grown.bound)
        return grown

    monkeypatch.setattr(germ.GermModel, "ensure_bound", recording)
    assert main(["motivic", "--builtin", "D,5", "--depth", "9"]) == 0
    # D_5 is a poincare source built on (8, 8): one growth to (depth + 1)e
    # for the levels, one for the certified omega series
    assert bounds == [(10, 10), (14, 14)]
    assert "p_9(q)" in capsys.readouterr().out


def test_gorenstein_check_leaves_the_model_unchanged():
    # D_5 from its semigroup on the tightest bound c + e; the check needs
    # c + 2e, so it works on a grown copy
    d5 = GermDescriptor(
        r=2,
        kind="semigroup",
        payload=((4, 2), [(0, 0), (2, 1), (2, 2), (3, 1), (4, 2)]),
        bound=(5, 3),
    )
    m = build_model(d5)
    snapshot = _snapshot(m)
    assert m.bound == (5, 3)
    assert gorenstein_motivic_check_by_points(m)
    _assert_unchanged(m, snapshot)


@pytest.mark.parametrize("branches", [(0,), (), (3,)], ids=["zero", "none", "past-r"])
def test_a_subcurve_outside_the_branches_is_a_descriptor_error(branches):
    m = build_model(get("D", 5))
    want = f"branch indices {list(branches)} outside 1..2"
    with pytest.raises(DescriptorError, match=re.escape(want)):
        m.subcurve(branches)


def test_a_descriptor_refuses_an_unknown_kind_when_made():
    with pytest.raises(DescriptorError, match=re.escape("unknown source kind 'bogus'")):
        GermDescriptor(r=1, kind="bogus", payload=None)


def test_a_builtin_descriptor_round_trips_through_its_json():
    desc = GermDescriptor(r=2, kind="builtin", payload=("D", (5,)), name="d5",
                          gorenstein=True, bound=(6, 3))
    doc = desc.to_json_dict()
    assert doc["source"] == {"kind": "builtin", "name": "D", "params": [5]}
    assert descriptor_from_json_dict(doc) == desc
    assert descriptor_from_json(desc.to_json()) == desc
