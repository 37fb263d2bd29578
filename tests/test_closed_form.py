"""Reading past the conductor in closed form, against the whole-grid code
it replaced (``tests/oracles.py``).

* ``hilbert_from_semigroup`` finds, integrates and checks the increments
  on R(0, c) only and writes h(l) = h(min(l, c)) + |l - min(l, c)| past
  c; ``oracles.full_grid_hilbert_from_semigroup`` does all of it on the
  whole grid.  Same values on valid tables, same exception class and
  message on invalid ones.
* ``GermModel.subcurve`` projects the germ's table on R(0, c) to the
  axes of the subcurve; ``oracles.full_face_table`` reads the whole face
  of the Hilbert grid.
* A ``poincare`` grid is the expansion on R(0, c) written past c; its
  R(0, c) block is what the members alone force
  (``oracles.hilbert_forced_by_members``), and so H(S).
* ``omega_substitution`` sums the terms of the points of R(0, c) with
  w(l) <= depth, each copied to the orders of the points past c that
  repeat it; ``oracles.omega_by_points`` sums every point of
  R(0, bound - e), and ``oracles.omega_on_window`` the window of whole
  grids that the substitution read before.
* A model's grids hold R(0, min(max(c, e) + e, bound)), every cube of
  R(0, c), and every read past it follows the closed form;
  ``oracles.whole_grids`` writes both grids out on R(0, bound), and
  every read of them must agree: points, corner gathers (also on the
  rows l_i = top_i - 2 .. top_i + 1 around the held box), the
  truncation certificate, the omega series and the univariate levels.
  The omega series and ``pe_series(w, c)`` read cubes of R(0, c) only,
  so each of their gathers lies inside the held box.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latcurve import (
    InconsistentInput,
    InconsistentSemigroup,
    LatcurveError,
    build_model,
    get,
    hilbert_from_semigroup,
    omega_substitution,
)
from latcurve.catalog import numerical_semigroup
from latcurve.classify import certified_omega
from latcurve.germ import GermDescriptor
from latcurve.errors import TruncationUnsound
from latcurve.lattice import (
    SemigroupTable,
    corner_values,
    leq,
    ones,
    padd,
    pmax,
    pmin,
    scale,
    unit,
    values_at,
)
from latcurve import motivic, spectral
from latcurve.motivic import certify_truncation, univariate_levels
from latcurve.spectral import pe_series

from germ_strategies import conductor_of, monomial_plane_germs, numerical_semigroups
from oracles import (
    certify_on_faces,
    full_face_table,
    full_grid_hilbert_from_semigroup,
    hilbert_forced_by_members,
    levels_on_whole,
    omega_by_points,
    omega_on_window,
    whole_grid_corners,
    whole_grids,
)
from test_catalog import ALL_SPECS
from test_identity import ladder_keys


def _outcome(fn, *args):
    """The grid values, or the exception class and message."""
    try:
        return fn(*args).values.tolist()
    except LatcurveError as exc:
        return type(exc), str(exc)


def assert_grids_match(table, bound):
    got = _outcome(hilbert_from_semigroup, table, bound)
    assert got == _outcome(full_grid_hilbert_from_semigroup, table, bound)
    return got


def assert_model_matches(model):
    """The grid of the model's table on its bound and on bounds around c,
    and every proper subcurve, against the whole-grid oracles."""
    c, e = model.conductor, ones(model.r)
    for bound in (model.bound, c, padd(c, e), padd(model.bound, scale(3, e))):
        assert not isinstance(assert_grids_match(model.semigroup, bound), tuple)
    for size in range(1, model.r):
        for J in itertools.combinations(range(1, model.r + 1), size):
            sub, table = model.subcurve(J), full_face_table(model, J)
            assert sub.conductor == table.conductor
            assert np.array_equal(sub.semigroup.mask, table.mask)
            oracle = full_grid_hilbert_from_semigroup(table, sub.bound)
            assert np.array_equal(sub.hilbert.values, oracle.values)


def _semigroup_model(gens):
    c = conductor_of(gens)
    return build_model(
        GermDescriptor(
            r=1, kind="semigroup", payload=((c,), numerical_semigroup(gens, c))
        )
    )


@pytest.mark.parametrize("key", ladder_keys())
def test_closed_form_matches_the_full_grid_on_the_ladders(key):
    name, *params = key.split(",")
    assert_model_matches(build_model(get(name, *map(int, params))))


@settings(max_examples=30, deadline=None)
@given(monomial_plane_germs())
def test_closed_form_matches_the_full_grid_on_random_plane_germs(germ):
    assert_model_matches(build_model(germ[2]))


@settings(max_examples=30, deadline=None)
@given(numerical_semigroups(), st.integers(0, 6))
def test_closed_form_matches_the_full_grid_on_random_branches(gens, extra):
    model = _semigroup_model(gens)
    assert_model_matches(model)
    assert_grids_match(model.semigroup, (model.conductor[0] + extra,))


def assert_forced_by_members(model):
    """The model's R(0, c) block is the one its members force, and
    ``hilbert_from_semigroup`` of its table."""
    c, table = model.conductor, model.semigroup
    forced = hilbert_forced_by_members(table)
    assert np.array_equal(model.hilbert.values[tuple(slice(x + 1) for x in c)], forced)
    assert np.array_equal(hilbert_from_semigroup(table, c).values, forced)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: "_".join(map(str, s)))
def test_members_force_the_grid_on_the_catalog(spec, model_of):
    model = model_of(*spec)
    assert_forced_by_members(model)
    for J in itertools.combinations(range(1, model.r + 1), model.r - 1):
        if J:
            assert_forced_by_members(model.subcurve(J))


@settings(max_examples=30, deadline=None)
@given(monomial_plane_germs())
def test_members_force_the_grid_on_random_plane_germs(germ):
    assert_forced_by_members(build_model(germ[2]))


@st.composite
def _tables(draw):
    """A random mask on R(0, c) with 0 and c members, so neither the
    round trip nor the path check need hold, and a bound >= c."""
    r = draw(st.integers(1, 3))
    c = tuple(draw(st.lists(st.integers(1, 3), min_size=r, max_size=r)))
    size = int(np.prod([x + 1 for x in c]))
    flags = draw(st.lists(st.booleans(), min_size=size, max_size=size))
    mask = np.array(flags, dtype=bool).reshape(tuple(x + 1 for x in c))
    mask[(0,) * r] = mask[c] = True
    extra = draw(st.lists(st.integers(0, 3), min_size=r, max_size=r))
    return SemigroupTable(r=r, conductor=c, mask=mask), padd(c, tuple(extra))


@settings(max_examples=300, deadline=None)
@given(_tables())
def test_closed_form_matches_the_full_grid_on_random_tables(case):
    # valid or not, both paths give the same grid or the same error
    assert_grids_match(*case)


def test_closed_form_refuses_a_table_without_its_conductor():
    # {0} with "conductor" 2: the whole-grid code returned a constant h
    table = SemigroupTable(r=1, conductor=(2,), mask=np.array([True, False, False]))
    with pytest.raises(InconsistentSemigroup, match="conductor itself must be a member"):
        hilbert_from_semigroup(table, (5,))


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: "_".join(map(str, s)))
def test_omega_window_matches_every_point(spec, model_of):
    model = model_of(*spec)
    # below min_w no term is left, past it the window is what binds
    for depth in range(model.min_w - 1, 4):
        if depth < model.min_w:
            for series_of in (omega_substitution, omega_by_points):
                with pytest.raises(InconsistentInput, match="vanished entirely"):
                    series_of(model.hilbert, model.weight, depth)
            continue
        series, grown = certified_omega(model, depth)
        assert series == omega_by_points(grown.hilbert, grown.weight, depth)


@settings(max_examples=20, deadline=None)
@given(monomial_plane_germs(), st.integers(0, 5))
def test_omega_window_matches_every_point_on_random_germs(germ, depth):
    model = build_model(germ[2])
    series, grown = certified_omega(model, depth)
    assert series == omega_by_points(grown.hilbert, grown.weight, depth)
    assert omega_substitution(grown.hilbert, grown.weight, depth) == series


# ---------------------------------------------------------------------------
# conductor-box grids against whole grids


def _series_or_error(fn, *args):
    try:
        return fn(*args)
    except LatcurveError as exc:
        return type(exc), str(exc)


def assert_reads_match(model):
    """Every read of the model's grids, which hold
    R(0, min(max(c, e) + e, bound)), equals the same read of its grids
    written out on R(0, bound)."""
    r, c, bound = model.r, model.conductor, model.bound
    e = ones(r)
    assert model.hilbert.top == model.weight.top == pmin(padd(pmax(c, e), e), bound)
    h, w = whole_grids(model)
    assert np.array_equal(model.hilbert.values, h.values)
    assert np.array_equal(model.weight.values, w.values)
    # points: the corners of R(0, bound), c, its neighbours and a sample
    rng = np.random.default_rng(sum(bound))
    points = [tuple(b * (J >> i & 1) for i, b in enumerate(bound)) for J in range(1 << r)]
    points += [c, padd(c, e), padd(c, unit(r, 0))]
    points += [tuple(int(rng.integers(0, b + 1)) for b in bound) for _ in range(20)]
    for p in points:
        if leq(p, bound):
            assert model.hilbert.h(p) == h.h(p) and model.weight.w(p) == w.w(p), p
    rows = np.argwhere(np.ones([b + 1 for b in bound], dtype=bool))
    assert np.array_equal(values_at(model.weight, rows), w.values[tuple(rows.T)])
    # the corners of every cube of the grid
    rows = np.argwhere(np.ones([b for b in bound], dtype=bool))
    for grid, whole in ((model.hilbert, h), (model.weight, w)):
        assert np.array_equal(corner_values(grid, rows), whole_grid_corners(whole.values, rows))
    # the certificate, with the faces of R(0, b - e) below, at and past c
    bounds = [c, padd(c, unit(r, 0)), padd(c, e), padd(padd(c, e), unit(r, 0)), bound]
    for b in bounds:
        _, whole_w = whole_grids(model, b)
        for depth in range(model.min_w - 1, 4):
            assert certify_truncation(model.weight.grown(b), depth) == certify_on_faces(
                whole_w, depth
            ), (b, depth)
    # the omega series, certified as ``certified_omega`` grows the model
    for depth in range(9):
        grown = model
        for _ in range(6):
            if certify_truncation(grown.weight, depth):
                break
            grown = grown.ensure_bound(padd(grown.bound, scale(4, e)))
        wh, ww = whole_grids(model, grown.bound)
        assert _series_or_error(omega_substitution, grown.hilbert, grown.weight, depth) == (
            _series_or_error(omega_on_window, wh, ww, depth)
        ), depth
    # the univariate levels
    grown = model.ensure_bound(scale(9, e))
    want = levels_on_whole(whole_grids(model, grown.bound)[0], 8)
    for depth in range(9):
        assert univariate_levels(grown.hilbert, depth) == want[: depth + 1]


def assert_model_reads_match(model):
    assert_reads_match(model)
    for size in range(1, model.r):
        for J in itertools.combinations(range(1, model.r + 1), size):
            assert_reads_match(model.subcurve(J))


@pytest.mark.parametrize("key", ladder_keys())
def test_reads_match_whole_grids_on_the_ladders(key):
    name, *params = key.split(",")
    assert_model_reads_match(build_model(get(name, *map(int, params))))


@settings(max_examples=15, deadline=None)
@given(monomial_plane_germs())
def test_reads_match_whole_grids_on_random_plane_germs(germ):
    assert_model_reads_match(build_model(germ[2]))


@settings(max_examples=15, deadline=None)
@given(numerical_semigroups())
def test_reads_match_whole_grids_on_random_branches(gens):
    assert_reads_match(_semigroup_model(gens))


def _around_the_box(top, bound):
    """Rows with each l_i in {0, 1} or top_i - 2 .. top_i + 1, where l + e
    lies in R(0, bound)."""
    axes = [sorted({0, 1, *range(t - 2, t + 2)} & set(range(b))) for t, b in zip(top, bound)]
    return np.array(list(itertools.product(*axes)), dtype=np.int64)


@pytest.mark.parametrize("key", ladder_keys())
def test_gathers_around_the_held_box_match_whole_grids(key):
    """Each ladder germ and proper subcurve, on its bound and grown two
    layers past its held box, so rows reach top_i + 1 on every axis."""
    name, *params = key.split(",")
    model = build_model(get(name, *map(int, params)))
    subcurves = [
        model.subcurve(J)
        for size in range(1, model.r)
        for J in itertools.combinations(range(1, model.r + 1), size)
    ]
    for sub in (model, *subcurves):
        e = ones(sub.r)
        for grown in (sub, sub.ensure_bound(padd(sub.hilbert.top, scale(2, e)))):
            rows = _around_the_box(grown.hilbert.top, grown.bound)
            h, w = whole_grids(grown)
            for grid, whole in ((grown.hilbert, h), (grown.weight, w)):
                assert np.array_equal(
                    corner_values(grid, rows), whole_grid_corners(whole.values, rows)
                ), (key, sub.name, grown.bound)


def test_conductor_reads_gather_inside_the_box(monkeypatch):
    """On every ladder germ the omega series (depths 0 and 3) and
    ``pe_series(w, c)`` make only gathers whose corners lie in the held
    box: they read the cubes of R(0, c)."""
    inside = []
    for module in (motivic, spectral):
        real = module.corner_values

        def gather(grid, at, real=real):
            inside.append(not len(at) or bool((at.max(axis=0) < np.array(grid.top)).all()))
            return real(grid, at)

        monkeypatch.setattr(module, "corner_values", gather)
    for key in ladder_keys():
        name, *params = key.split(",")
        model = build_model(get(name, *map(int, params)))
        for depth in (0, 3):
            certified_omega(model, depth)
        pe_series(model.weight, model.conductor)
    assert len(inside) >= 3 * len(ladder_keys())
    assert all(inside)


def test_omega_past_c_is_a_sum_of_copies():
    """D_5's series through omega^8 on a grid certified at 8 sums points
    as far as (12, 9); the substitution reads R(0, c) = R(0, (4, 2))."""
    model = build_model(get("D", 5))
    series, grown = certified_omega(model, 8)
    assert grown.bound == (16, 16)
    h, w = whole_grids(model, grown.bound)
    assert series == omega_on_window(h, w, 8) == omega_by_points(h, w, 8)
    with pytest.raises(TruncationUnsound):
        omega_substitution(model.hilbert, model.weight, 8)
