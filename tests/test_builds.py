"""Each germ model is built with one validation per source.  The builds
equal the ones they replaced (kept in ``tests/oracles.py``) on every
catalog spec, on large ladder rungs, on every subcurve of each, and on
random germs rewritten as ``hilbert`` and ``poincare`` descriptors."""

import importlib.util
import itertools
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import latcurve
from latcurve import GermDescriptor, build_model, cli, germ, get, lattice
from latcurve.catalog import numerical_semigroup
from latcurve.errors import InvalidSeries
from latcurve.lattice import box, leq, semigroup_from_low_points
from latcurve.series import (
    MultiPoly,
    RationalSeries,
    all_nonempty_subsets,
    conductor_bound,
    geometric,
    hilbert_from_poincare,
    poly,
)

from germ_strategies import (
    _branch_conductor,
    _intersection,
    conductor_of,
    monomial_plane_germs,
    numerical_semigroups,
)
from oracles import (
    fixed_point_poincare_build,
    poincare_from_hilbert,
    promoted_hilbert_build,
    rebuilt_subcurve,
    restrict_to_subcurve,
)
from test_catalog import ALL_SPECS
from test_e1_engine import count_calls
from test_identity import bench_workloads, ladder_keys, ladder_model

LARGE = [("A", 61), ("D", 69), ("T", 3, 67), ("T", 9, 13)]
POINCARE_SPECS = [s for s in ALL_SPECS + LARGE if get(*s).kind == "poincare"]


def _id(spec):
    return "_".join(map(str, spec))


def old_build(desc):
    if desc.kind == "poincare":
        return fixed_point_poincare_build(desc)
    if desc.kind == "hilbert":
        return promoted_hilbert_build(desc)
    return build_model(desc)


def assert_same_model(new, old):
    assert new.descriptor.to_json() == old.descriptor.to_json()
    assert new.name == old.name
    assert (new.bound, new.conductor, new.multiplicity) == (
        old.bound,
        old.conductor,
        old.multiplicity,
    )
    assert new.semigroup.conductor == old.semigroup.conductor
    assert np.array_equal(new.semigroup.mask, old.semigroup.mask)
    assert np.array_equal(new.hilbert.values, old.hilbert.values)
    assert np.array_equal(new.weight.values, old.weight.values)
    assert new.weight.conductor == old.weight.conductor


def assert_same_subcurves(new, old):
    for size in range(1, new.r):
        for J in itertools.combinations(range(1, new.r + 1), size):
            assert_same_model(new.subcurve(J), rebuilt_subcurve(old, J))


def assert_same_germ(new, old):
    """The same conductor, multiplicity and table, and the same h and w
    on the common window of the two grids."""
    assert (new.conductor, new.multiplicity) == (old.conductor, old.multiplicity)
    assert np.array_equal(new.semigroup.mask, old.semigroup.mask)
    common = lattice.window(lattice.pmin(new.bound, old.bound))
    assert np.array_equal(new.hilbert.values[common], old.hilbert.values[common])
    assert np.array_equal(new.weight.values[common], old.weight.values[common])


def assert_builds_match(desc):
    new, old = build_model(desc), old_build(desc)
    assert_same_model(new, old)
    assert_same_subcurves(new, old)
    return new


def hilbert_descriptor(model):
    return GermDescriptor(
        r=model.r,
        kind="hilbert",
        payload=(model.bound, model.hilbert.values),
        name=model.name,
    )


def poincare_descriptor(model):
    """Every subset's series from ``poincare_from_hilbert`` on the face of
    the model's Hilbert grid; a branch's series is its numerator over
    (1 - t), and its coefficients are exact on R(0, bound - e)."""
    series = {}
    for J in all_nonempty_subsets(model.r):
        p = poincare_from_hilbert(restrict_to_subcurve(model.hilbert, J))
        if len(J) == 1:
            p = p.as_dict()
            num = {
                (k,): p.get((k,), 0) - p.get((k - 1,), 0)
                for k in range(model.bound[J[0] - 1])
            }
            series[J] = RationalSeries(MultiPoly.from_dict(1, num), ((1,),))
        else:
            series[J] = RationalSeries(p)
    return GermDescriptor(r=model.r, kind="poincare", payload=series, name=model.name)


@pytest.mark.parametrize("spec", ALL_SPECS + LARGE, ids=_id)
def test_builds_match_the_old_builds(spec):
    model = assert_builds_match(get(*spec))
    assert_builds_match(hilbert_descriptor(model))


@settings(max_examples=15, deadline=None)
@given(monomial_plane_germs())
def test_builds_match_on_random_plane_germs(germ_data):
    _, c, desc = germ_data
    model = assert_builds_match(desc)
    assert model.conductor == c
    assert assert_builds_match(poincare_descriptor(model)).conductor == c


def assert_poincare_rebuild_matches(model):
    """Rebuild ``model`` from the Poincare series of every subcurve: the
    same germ, and a conductor bound that holds its conductor."""
    series = poincare_descriptor(model)
    assert leq(model.conductor, conductor_bound(series.payload, model.r))
    rebuilt = build_model(series)
    assert_same_germ(rebuilt, model)
    # every accepted bound holds three stabilization layers above c
    assert leq(tuple(c + 3 for c in rebuilt.conductor), rebuilt.bound)
    return rebuilt


@settings(max_examples=30, deadline=None)
@given(numerical_semigroups())
@example([4, 7])  # the grid (17,) shows a run of members 14..16 at its edge
def test_builds_match_on_random_branches(gens):
    c = conductor_of(gens)
    desc = GermDescriptor(
        r=1, kind="semigroup", payload=((c,), numerical_semigroup(gens, c))
    )
    model = build_model(desc)
    assert assert_builds_match(hilbert_descriptor(model)).conductor == (c,)
    series = poincare_descriptor(model)
    grid = hilbert_from_poincare(series.payload, model.bound, 1)
    assert np.array_equal(grid.values, model.hilbert.values)
    new, old = assert_poincare_rebuild_matches(model), old_build(series)
    # the old loop can accept a run of members at the edge of a small
    # grid as the conductor (<4, 7> on the grid (17,) reads c = 14)
    if old.conductor == (c,):
        assert_same_model(new, old)


def semigroup_descriptor(model, stated=None):
    """``model``'s table as a ``semigroup`` source: its members on
    R(0, stated), stated >= c (c when not given), filled in by the
    extension rule."""
    stated = stated or model.conductor
    members = [p for p in box(stated) if model.semigroup.contains(p)]
    return GermDescriptor(r=model.r, kind="semigroup", payload=(stated, members))


def assert_same_build(new, old):
    """The same germ on the same bound, held on the same boxes."""
    assert_same_germ(new, old)
    assert new.bound == old.bound
    for grid in ("hilbert", "weight"):
        assert np.array_equal(getattr(new, grid).held, getattr(old, grid).held)


def assert_read_at_the_least_conductor(model, extra):
    """The members of ``model`` stated on c + extra build the model that
    they build on c, subcurves included."""
    least = build_model(semigroup_descriptor(model))
    stated = lattice.padd(least.conductor, extra)
    new = build_model(semigroup_descriptor(model, stated))
    assert new.descriptor.payload[0] == stated
    assert_same_build(new, least)
    for size in range(1, model.r):
        for J in itertools.combinations(range(1, model.r + 1), size):
            assert_same_build(new.subcurve(J), least.subcurve(J))


SEMIGROUP_SPECS = [s for s in ALL_SPECS if get(*s).kind == "semigroup"]


@pytest.mark.parametrize("spec", SEMIGROUP_SPECS, ids=_id)
def test_a_semigroup_source_is_read_at_its_least_conductor(spec):
    model = build_model(get(*spec))
    r = model.r
    for extra in [(0,) * r, (1,) * r, (3,) + (0,) * (r - 1), (0,) * (r - 1) + (2,)]:
        assert_read_at_the_least_conductor(model, extra)


@settings(max_examples=20, deadline=None)
@given(numerical_semigroups(), st.integers(min_value=1, max_value=12))
def test_random_branches_are_read_at_their_least_conductor(gens, extra):
    c = conductor_of(gens)
    model = build_model(
        GermDescriptor(r=1, kind="semigroup", payload=((c,), numerical_semigroup(gens, c)))
    )
    assert_read_at_the_least_conductor(model, (extra,))


@settings(max_examples=10, deadline=None)
@given(monomial_plane_germs(), st.data())
def test_random_plane_germs_are_read_at_their_least_conductor(germ_data, data):
    _, c, desc = germ_data
    model = build_model(desc)
    assert model.conductor == c
    extra = data.draw(st.tuples(*[st.integers(min_value=0, max_value=2)] * model.r))
    assert_read_at_the_least_conductor(model, extra)


def _semigroup_doc(name, stated, members, plane=None):
    return {"version": 1, "germ": name, "r": len(stated), "flags": {"plane": plane},
            "bound": None, "source": {"kind": "semigroup", "conductor": stated,
                                      "elements": members}}


A2_ON_6 = _semigroup_doc("A_2", [6], [[0], [2], [3], [4], [5], [6]])
A2_ON_2 = _semigroup_doc("A_2", [2], [[0], [2]])
_D5 = [[0, 0], [2, 1], [2, 2], [3, 1], [4, 2]]
# the points l of R(0, (5, 3)) with min(l, (4, 2)) a member of D_5
D5_ON_5_3 = _semigroup_doc(
    "D_5", [5, 3], _D5[:3] + [[2, 3], [3, 1], [4, 2], [4, 3], [5, 2], [5, 3]],
    plane=True,
)
D5_ON_4_2 = _semigroup_doc("D_5", [4, 2], _D5, plane=True)
COMMANDS = [["invariants"], ["table"], ["homology"], ["spectral"],
            ["motivic", "--depth", "4"], ["classify"]]


def _stdout(tmp_path, capsys, command, doc):
    path = tmp_path / "germ.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return _json_stdout(capsys, [*command, "--germ", str(path)])


def _json_stdout(capsys, argv):
    code = cli.main([*argv, "--format", "json"])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    return out


@pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c[0])
@pytest.mark.parametrize(
    "stated,least", [(A2_ON_6, A2_ON_2), (D5_ON_5_3, D5_ON_4_2)], ids=["A2-on-6", "D5-on-5,3"]
)
def test_every_command_prints_the_least_conductors_bytes(
    tmp_path, capsys, command, stated, least
):
    """A member list stated on a larger conductor prints the bytes of the
    list on its least conductor; D_5 on (5, 3) keeps its plane flag."""
    out = _stdout(tmp_path, capsys, command, stated)
    assert out == _stdout(tmp_path, capsys, command, least)


def test_a2_stated_on_6_is_the_builtin_a2(tmp_path, capsys):
    out = _stdout(tmp_path, capsys, ["invariants"], A2_ON_6)
    assert out == _json_stdout(capsys, ["invariants", "--builtin", "A,2"])
    doc = json.loads(out)
    assert (doc["invariants"]["conductor"], doc["invariants"]["gorenstein"]) == ([2], True)
    assert doc["bound"] == [6]


def test_a_list_that_breaks_the_extension_rule_exits_1(tmp_path, capsys):
    """{0, (1, 1), (1, 2), (2, 2)} on (2, 2) is a table there, but its
    least conductor is (1, 2), where (2, 1) is no member while
    min((2, 1), (1, 2)) = (1, 1) is: an InconsistentSemigroup, not the
    window's MarginTooSmall."""
    doc = _semigroup_doc("edge", [2, 2], [[0, 0], [1, 1], [1, 2], [2, 2]])
    path = tmp_path / "germ.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = cli.main(["invariants", "--germ", str(path)])
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert err == (
        "error: the extension rule fails at the least conductor (1, 2): (2, 1) is "
        "no member, but min((2, 1), (1, 2)) = (1, 1) is\n"
    )


@settings(max_examples=15, deadline=None)
@given(monomial_plane_germs())
def test_poincare_rebuild_matches_on_random_plane_germs(germ_data):
    _, c, desc = germ_data
    model = build_model(semigroup_descriptor(build_model(desc)))
    assert model.conductor == c
    assert_poincare_rebuild_matches(model)
    for size in range(1, model.r):
        for J in itertools.combinations(range(1, model.r + 1), size):
            assert_poincare_rebuild_matches(model.subcurve(J))


def _ladder_keys():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return sorted({
        key
        for name in ("homology-ladder", "classify-ladder")
        for band in workloads.BANDS[name]
        for key in band
    })


def test_conductor_bound_holds_on_the_catalog_and_the_ladders():
    specs = {tuple(s) for s in ALL_SPECS + LARGE}
    for key in _ladder_keys():
        name, *params = key.split(",")
        specs.add((name, *map(int, params)))
    seen = 0
    for spec in sorted(specs, key=str):
        desc = get(*spec)
        if desc.kind != "poincare":
            continue
        seen += 1
        model = build_model(desc)
        assert leq(model.conductor, conductor_bound(desc.payload, desc.r)), spec
    assert seen > 100


@pytest.mark.parametrize("spec", POINCARE_SPECS, ids=_id)
def test_each_guess_is_expanded_once(spec, monkeypatch):
    # one expansion per build: the guesses are replayed on its table
    guesses = []
    expand_grid = hilbert_from_poincare

    def recording(series, bound, r=None):
        guesses.append(tuple(bound))
        return expand_grid(series, bound, r)

    monkeypatch.setattr("latcurve.series.hilbert_from_poincare", recording)
    build_model(get(*spec))
    assert len(guesses) == 1


def increment_members(model):
    """Members on R(0, bound - e), read off the Hilbert grid: the points
    where every forward step of h is 1."""
    h, r = model.hilbert, model.r
    inner = tuple(b - 1 for b in model.bound)
    return {
        p
        for p in box(inner)
        if all(h.h(tuple(x + (i == j) for j, x in enumerate(p))) - h.h(p) == 1
               for i in range(r))
    }


def assert_table_on_conductor_box(model):
    table = model.semigroup
    assert table.mask.shape == tuple(ci + 1 for ci in model.conductor)
    inner = tuple(b - 1 for b in model.bound)
    assert {p for p in box(inner) if table.contains(p)} == (
        increment_members(model)
    )


TABLE_SOURCES = {
    "semigroup": lambda: get("E13"),
    "hilbert": lambda: hilbert_descriptor(build_model(get("D", 6))),
    "poincare": lambda: get("D", 5),
    "builtin": lambda: GermDescriptor(r=4, kind="builtin", payload=("T", (4, 4))),
}


@pytest.mark.parametrize("source", sorted(TABLE_SOURCES))
def test_every_table_holds_the_conductor_box(source):
    model = build_model(TABLE_SOURCES[source]())
    assert_table_on_conductor_box(model)
    for size in range(1, model.r):
        for J in itertools.combinations(range(1, model.r + 1), size):
            assert_table_on_conductor_box(model.subcurve(J))
    grown = model.ensure_bound(tuple(b + 3 for b in model.bound))
    assert grown.semigroup is model.semigroup
    assert_table_on_conductor_box(grown)


def test_min_closure_runs_once_per_table(monkeypatch, cold_memos):
    calls = []
    upset_minima = lattice.upset_minima

    def counting(mask):
        calls.append(mask.shape)
        return upset_minima(mask)

    monkeypatch.setattr(lattice, "upset_minima", counting)
    model = build_model(get("Z11"))  # a semigroup source
    assert len(calls) == 1
    build_model(hilbert_descriptor(model))
    assert len(calls) == 2
    model.subcurve((1,))
    assert len(calls) == 3
    model.ensure_bound(tuple(b + 5 for b in model.bound))
    model.subcurve((1,)).ensure_bound((40,))
    assert len(calls) == 3


def test_one_table_reader_per_table(monkeypatch, cold_memos):
    """Each table costs one ``lattice.table_on_window`` call, the one
    maker: a ``semigroup`` build (its member list read as the window of
    its stated conductor), a ``poincare`` build whose replay detects
    nothing, a ``hilbert`` build, a subcurve, and a replayed guess that
    detects a conductor."""
    calls = []
    reader = lattice.table_on_window

    def counting(members, inner, stated=None):
        calls.append((inner, stated))
        return reader(members, inner, stated)

    monkeypatch.setattr(lattice, "table_on_window", counting)
    monkeypatch.setattr(germ, "table_on_window", counting)
    z11 = build_model(get("Z11"))
    assert get("Z11").kind == "semigroup"
    assert calls == [(lattice.padd(z11.conductor, (1, 1)), z11.conductor)]
    model = build_model(get("D", 5))  # c + 2e lies inside the first guess
    assert get("D", 5).kind == "poincare" and len(calls) == 2
    build_model(hilbert_descriptor(model))
    assert len(calls) == 3
    model.subcurve((1,))
    assert len(calls) == 4
    # <4, 7> has conductor 18; the grid (17,) reads 14
    table = semigroup_from_low_points(1, (18,), numerical_semigroup([4, 7], 18))
    assert germ._detected(table, (17,)) == ((14,), (4,))
    assert [stated for _, stated in calls] == [
        z11.conductor, None, None, None, (18,), None
    ]


_GAP = np.array([0, 1, 1, 2, 2, 2, 3, 4, 5], dtype=np.int64)  # S = {0, 2, 5, ...}
_A1 = {(1,): geometric(1, (1,)), (2,): geometric(1, (1,))}
_FIVE = RationalSeries(poly(2, {(0, 0): 5}))  # h(1, 1) = 5 breaks the unit steps
# a valid Hilbert-function grid that its own semigroup does not reproduce
_OFF_TABLE = np.array([[0, 1, 2, 2], [1, 1, 2, 3], [2, 2, 3, 4], [3, 3, 4, 5]])


@pytest.mark.parametrize(
    "desc",
    [
        GermDescriptor(r=1, kind="poincare", payload={(1,): geometric(1, (2,))}),
        GermDescriptor(r=2, kind="poincare", payload={**_A1, (1, 2): _FIVE}),
        GermDescriptor(r=2, kind="poincare", payload=_A1),
        GermDescriptor(r=1, kind="hilbert", payload=((8,), _GAP)),
        GermDescriptor(r=1, kind="hilbert", payload=((3,), np.array([0, 1, 1, 1]))),
        GermDescriptor(r=1, kind="hilbert", payload=((3,), np.array([0, 0, 1, 2]))),
        GermDescriptor(r=1, kind="hilbert", payload=((3,), np.array([1, 1, 2, 3]))),
        GermDescriptor(r=2, kind="hilbert", payload=((3, 3), _OFF_TABLE)),
    ],
    ids=[
        "no-conductor", "bad-series", "missing-subset",
        "gap", "no-stable-region", "zero-missing", "h0", "not-its-own-table",
    ],
)
def test_invalid_descriptors_fail_as_before(desc, request):
    with pytest.raises(Exception) as new:
        build_model(desc)
    if request.node.callspec.id == "no-conductor":
        # the old loop gave up with MarginTooSmall, but no grid can help
        assert type(new.value) is InvalidSeries
        assert str(new.value) == (
            "series '1' does not divide out: (1 - t) times it is not a polynomial"
        )
        return
    with pytest.raises(Exception) as old:
        old_build(desc)
    assert type(new.value) is type(old.value)
    assert str(new.value) == str(old.value)


def _window(r, n, *lows):
    """The members {0} and every l >= low, for each low, on R(0, n e)."""
    members = np.zeros((n + 1,) * r, dtype=bool)
    members[(0,) * r] = True
    for low in lows:
        members[tuple(slice(x, None) for x in low)] = True
    return members


_NO_CORNER = np.array([True, False, True, False])
_EDGE_GAP = _window(2, 3, (1, 1))
# c = (1, 2), and the extension rule reads the gap (3, 1) at the member (1, 1)
_EDGE_GAP[3, 1] = False


@pytest.mark.parametrize(
    "members,reason",
    [(_NO_CORNER, "no stable region: bound does not dominate the conductor"),
     (_window(2, 3, (1, 3), (3, 1)),
      "stable region has no unique minimal point near (1, 1); enlarge the grid"),
     (_EDGE_GAP, "membership table is inconsistent with its detected conductor; "
      "the true conductor lies outside the grid")],
    ids=["corner-not-a-member", "two-minimal-points", "extension-rule"],
)
def test_a_window_without_a_table_is_an_invalid_series(members, reason):
    """``_certified_table`` reads a window R(0, U) as the window
    R(0, U + e) of ``lattice.table_on_window`` and turns its
    MarginTooSmall into one InvalidSeries that names R(0, U)."""
    U = [n - 1 for n in members.shape]
    with pytest.raises(InvalidSeries) as refused:
        germ._certified_table(members)
    assert type(refused.value) is InvalidSeries
    assert str(refused.value) == f"the members on R(0, {U}) give no table: {reason}"


def test_poincare_grid_must_follow_the_closed_form(monkeypatch, capsys):
    """An expansion that leaves the closed form past c, with the same
    members on R(0, U), is refused; it was printed as the model's grid."""
    expand = hilbert_from_poincare

    def lowered(series, bound, r):
        h = expand(series, bound, r)
        values = h.values.copy()
        values[tuple(bound)] -= 1  # the steps into the far corner drop to 0
        grid = lattice.HilbertGrid(r=r, bound=h.bound, values=values)
        grid.validate()
        U = conductor_bound(series, r)
        assert leq(lattice.padd(U, lattice.ones(r)), bound)
        assert np.array_equal(
            lattice.unit_step_members(grid, U), lattice.unit_step_members(h, U)
        )
        return grid

    monkeypatch.setattr("latcurve.series.hilbert_from_poincare", lowered)
    with pytest.raises(InvalidSeries, match="break the closed form of h past c"):
        build_model(get("D", 5))
    code = cli.main(["invariants", "--builtin", "D,5"])
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1


@settings(max_examples=30, deadline=None)
@given(monomial_plane_germs())
def test_subcurve_delta_is_hironakas_sum(germ_data):
    """delta_J = sum of delta_i over J plus sum of C_i . C_j over i < j in
    J, for every subcurve J of a plane germ: the branch delta is half its
    conductor, and C_i . C_j the order of C_j's equation along C_i."""
    branches, _, desc = germ_data
    model = build_model(desc)
    for J in all_nonempty_subsets(model.r):
        picked = [branches[j - 1] for j in J]
        expected = sum(_branch_conductor(b) for b in picked) // 2 + sum(
            _intersection(bi, bj) for bi, bj in itertools.combinations(picked, 2)
        )
        assert model.subcurve(J).delta == expected


# ---------------------------------------------------------------------------
# the process-wide subcurve map: one table and one pair of grids per window


def test_t44_reads_two_tables_for_its_eight_subcurves(monkeypatch, cold_memos):
    """T_{4,4} has four smooth branches and four complements of three
    lines: two windows, so two ``table_on_window`` calls.  Each request
    gets its own model, named after its branches, on the table and the
    grids of its window."""
    model = build_model(get("T", 4, 4))
    calls = count_calls(monkeypatch, germ, "table_on_window")
    subs = [model.branch(i) for i in range(1, 5)] + [model.complement(i) for i in range(1, 5)]
    assert len(calls) == 2
    assert len(set(map(id, subs))) == 8
    assert [sub.name for sub in subs] == [
        f"T_{{4,4}}|{J}" for J in ("1", "2", "3", "4", "2,3,4", "1,3,4", "1,2,4", "1,2,3")
    ]
    for group in (subs[:4], subs[4:]):
        assert all(sub.semigroup is group[0].semigroup for sub in group)
        assert all(sub.weight is group[0].weight for sub in group)
    assert_same_subcurves(model, model)


def test_every_ladder_subcurve_from_a_warm_map_equals_its_rebuild(monkeypatch, cold_memos):
    """Once every ladder germ has asked for its proper subcurves, a fresh
    build of each reads every subcurve from the map (no table is read
    again), and each equals its rebuild from a ``semigroup`` descriptor:
    descriptor JSON, name, bound and arrays."""
    keys = ladder_keys()
    for key in keys:
        model = ladder_model(key)
        for size in range(1, model.r):
            for J in itertools.combinations(range(1, model.r + 1), size):
                model.subcurve(J)
    models = [ladder_model(key) for key in keys]
    misses = count_calls(monkeypatch, germ, "_certified_table")
    for model in models:
        assert_same_subcurves(model, model)
    assert misses == []


def test_classify_ladder_verdicts_are_the_same_cold_and_warm(cold_memos):
    """The benchmark's verdict digests of every classify-ladder job, with
    the memos emptied before each job and then with all of them warm,
    equal the recorded ones."""
    workloads = bench_workloads()
    keys = workloads.all_jobs("classify-ladder")
    reference = workloads.load_reference("classify-ladder")
    cold = {}
    for key in keys:
        cold_memos()
        cold[key] = workloads.classify_job(latcurve, key)()
    warm = {key: workloads.classify_job(latcurve, key)() for key in keys}
    assert cold == warm == {key: reference[key] for key in keys}


def test_windows_planted_past_the_point_bound_evict_the_oldest(monkeypatch, cold_memos):
    """With the bound lowered to the points of two windows, a third window
    evicts the oldest, and then fits; the map stays within its bound, and
    a new request for the evicted window reads its table again."""
    shelf = germ._SUBCURVES
    for n in (9, 7):
        build_model(get("D", n)).branch(1)
    oldest, kept = shelf
    monkeypatch.setattr(germ, "MAX_GRID_POINTS", shelf.points)
    build_model(get("D", 5)).branch(1)
    newest = next(key for key in shelf if key not in (oldest, kept))
    assert list(shelf) == [kept, newest]
    assert shelf.points == sum(entry[-1] for entry in shelf.values()) <= germ.MAX_GRID_POINTS
    model = build_model(get("D", 9))
    misses = count_calls(monkeypatch, germ, "_certified_table")
    model.branch(1)
    assert len(misses) == 1
