"""The E1 engine against the scalar engine it replaced.

``spectral`` answers every query with one read of the rows it needs: it
gathers the 2^r corners of each row (``lattice.corner_values``), ORs
the refused subsets up to their supersets (``_masks``), and reduces
each distinct bitmask once per read.  The reference is
``oracles.scalar_e1_refined``: one dict of cube maxima and
one Smith form per dimension at every point, with ``e1_level``,
``pe_series`` and ``minimal_spectral_cycles`` as loops over it.  Every
query gives the same rank, or raises the same exception class; a point
or level query also gives the same message.  The 5- and 6-fold points
take the engine to r = 5 and 6, where the reference answers a level, a
minimal-cycle group or a small table in seconds.  Each query makes one
corner gather (one per degree for ``pe_series``), and every point reader
refuses a point of the wrong length as a ``DescriptorError``.
"""

import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings

from latcurve import DescriptorError, LatcurveError, MarginTooSmall, TorsionFound, build_model
from latcurve import motivic, motivic_coeff, spectral
from latcurve.lattice import WeightGrid, box, corner_values, norm, ones, pmin

from germ_strategies import monomial_plane_germs
from line_arrangements import line_arrangement
from oracles import (
    admissible_subsets,
    down_sets,
    e1_level_by_points,
    minimal_spectral_cycles_by_points,
    pe_series_by_points,
    pe_substitution_check_by_points,
    pe_univariate,
    rank_by_row_positions,
    scalar_e1_refined,
)
from test_catalog import ALL_SPECS
from test_homology import _value_grids

# (k, n) of the level and minimal-cycle queries: the weights where the
# classifier and the acceptance tables read them, and their neighbours
LEVEL_QUERIES = [(0, 0), (1, -1), (1, 0), (2, -1)]
CYCLE_QUERIES = [(0, 0), (1, -1), (1, 0), (1, -2), (2, -1), (0, -2), (1, 2)]


def outcome(f, *args, message=True):
    """f's result, or its exception class (and message)."""
    try:
        return f(*args)
    except Exception as exc:  # every class the engines raise is compared
        return (type(exc), str(exc)) if message else type(exc)


def inner_of(w):
    return tuple(b - 1 for b in w.bound)


def assert_same_points(w, points):
    """e1_refined at every point, k = -1..r+1, n = w(l) + k - 1..w(l) + k + 1."""
    for ell in points:
        for k in range(-1, w.r + 2):
            for n in range(w.w(ell) + k - 1, w.w(ell) + k + 2):
                got = outcome(lambda *a: spectral.e1_refined(*a).rank, w, ell, k, n)
                want = outcome(lambda *a: scalar_e1_refined(*a).rank, w, ell, k, n)
                assert got == want, (ell, k, n)


def assert_same_patterns(w, ns):
    """The reader's bitmasks agree with the reference at every base."""
    points = list(box(inner_of(w)))
    corners = corner_values(w, np.array(points, dtype=np.int64))
    for n in ns:
        patterns, index = spectral._masks(corners, n, w.r)
        for ell, i in zip(points, index):
            want = sum(1 << sub for sub in admissible_subsets(w, ell, n))
            assert patterns[i] == want


def assert_same_windows(w, levels, bounds):
    """e1_level, minimal_spectral_cycles and pe_series."""
    for k, n in LEVEL_QUERIES:
        for d in levels:
            assert outcome(spectral.e1_level, w, d, k, n) == outcome(
                e1_level_by_points, w, d, k, n
            )
    for k, n in CYCLE_QUERIES:
        got = outcome(spectral.minimal_spectral_cycles, w, k, n, message=False)
        assert got == outcome(minimal_spectral_cycles_by_points, w, k, n, message=False)
    got = outcome(spectral.pe_series, w, bounds, message=False)
    assert got == outcome(pe_series_by_points, w, bounds, message=False)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: "_".join(map(str, s)))
def test_e1_matches_scalar_engine_on_catalog(spec, model_of):
    m = model_of(*spec)
    w = m.weight
    inner = inner_of(w)
    assert_same_points(w, box(pmin(m.conductor, inner)))
    assert_same_patterns(w, range(-2, 3))
    assert_same_windows(w, range(norm(inner) + 2), m.conductor)


@settings(max_examples=15, deadline=None)
@given(monomial_plane_germs())
def test_e1_matches_scalar_engine_on_random_multi_branch_germs(germ):
    _, _, desc = germ
    m = build_model(desc)
    w = m.weight
    inner = inner_of(w)
    assert_same_points(w, box(pmin(m.conductor, inner)))
    assert_same_patterns(w, range(-2, 3))
    assert_same_windows(w, range(norm(inner) + 2), m.conductor)


@settings(max_examples=100, deadline=None)
@given(_value_grids())
def test_e1_matches_scalar_engine_on_random_value_grids(w):
    """Values that are no germ's weights: the support law, the vanishing
    check and the grid margins all fail somewhere."""
    inner = inner_of(w)
    if min(inner) < 0:  # no base has l + e inside the grid
        assert_same_windows(w, range(2), w.bound)
        return
    assert_same_points(w, box(inner))
    assert_same_patterns(w, range(-3, 4))
    assert_same_windows(w, range(norm(inner) + 2), inner)


@pytest.mark.parametrize("r,count", [(1, 3), (2, 6), (3, 20), (4, 168), (5, 7581)])
def test_rank_matches_the_position_map_on_every_down_set(r, count):
    """The faces keyed by their own bits give the (rank, torsion) of the
    cells listed by degree and rows looked up by position, for every
    down-set of r <= 5 axes (the Dedekind numbers, empty set included)
    and every degree."""
    masks = down_sets(r)
    assert len(masks) == len(set(masks)) == count
    for mask in masks:
        for k in range(r + 1):
            assert spectral._rank.__wrapped__(mask, r, k) == rank_by_row_positions(
                mask, r, k
            ), (mask, k)


# the 6-vertex real projective plane: every edge lies in two triangles
RP2 = [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 5, 1),
       (1, 2, 4), (2, 3, 5), (3, 4, 1), (4, 5, 2), (5, 1, 3)]


def test_a_planted_projective_plane_raises_its_torsion(cold_memos):
    """w(e_J) = 0 on the faces J of RP^2 and 1 elsewhere on R(0, e) at
    r = 6: at l = 0 and n = 0 the admissible subsets are its faces.  The
    boundary out of the triangles (degree 3) has the invariant factor 2
    of H_1(RP^2) = Z/2, and the degree-2 entry has rank 15 - 5 - 10 = 0."""
    faces = {sum(1 << v for v in face) for t in RP2 for k in range(4)
             for face in itertools.combinations(t, k)}
    assert len(faces) == 1 + 6 + 15 + 10
    values = np.ones((2,) * 6, dtype=np.int64)
    for J in faces:
        values[tuple(J >> i & 1 for i in range(6))] = 0
    w = WeightGrid(r=6, bound=(1,) * 6, values=values, multiplicity=(1,) * 6,
                   conductor=(1,) * 6)
    mask = sum(1 << J for J in faces)
    assert spectral._rank(mask, 6, 2) == rank_by_row_positions(mask, 6, 2) == (0, (2,))
    want = "E1 entry at l=(0, 0, 0, 0, 0, 0), k=2, n=0 has torsion [2]"
    with pytest.raises(TorsionFound, match=re.escape(want)):
        spectral.e1_refined(w, (0,) * 6, 2, 0)


def test_pe_series_reduces_each_distinct_pattern_once_per_degree(
    model_of, monkeypatch, cold_memos
):
    """pe_series(T_{4,4}) reduces the boundaries of degrees k and k + 1
    once for each distinct admissible bitmask met in degree k."""
    w = model_of("T", 4, 4).weight
    c = model_of("T", 4, 4).conductor
    calls = []
    real = spectral.smith_invariants
    monkeypatch.setattr(
        spectral, "smith_invariants", lambda cols: calls.append(1) or real(cols)
    )
    table = spectral.pe_series(w, c)
    assert table == pe_series_by_points(w, c)
    want = 0
    for k in range(w.r):
        distinct = {
            frozenset(admissible_subsets(w, ell, w.w(ell) + k))
            for ell in box(c)
        }
        for subsets in distinct:
            sizes = {bin(sub).count("1") for sub in subsets}
            want += len(sizes & {k, k + 1} - {0})
    assert len(calls) == want


def test_failures_on_a_value_grid_name_the_first_level_and_point():
    """Values (no germ's weights) whose level entries below j*|m| = 3 do
    not vanish.  The grid (2, 2, 2) cannot hold level 2 whole, so both
    engines refuse before reading an entry.  On the grid (3, 3, 3), with
    the same values on R(0, (2, 2, 2)) and weight 9 past it, levels 0..2
    are read whole.  For (k, n) = (0, -1) the support law also fails, on
    level 2: the scan, one window, reports that entry check, where the
    loop over levels reported the vanishing on level 1 first.  On level 1
    at (k, n) = (1, 1) the support law fails at (0, 0, 1) and at
    (0, 1, 0)."""
    values = np.array([-1, -1, 0, -1, 0, 2, 2, 0, -1, 0, 0, -1, -2, 2, 1, 1, 0, -1,
                       -1, -1, 1, 1, -2, -2, -1, 1, -2]).reshape(3, 3, 3)
    engines = (spectral.minimal_spectral_cycles, minimal_spectral_cycles_by_points)
    small = WeightGrid(r=3, bound=(2, 2, 2), values=values, multiplicity=(1, 1, 1),
                       conductor=(2, 2, 2))
    want = "level 2 needs every axis bound >= 3, grid is (2, 2, 2)"
    for engine in engines:
        with pytest.raises(MarginTooSmall, match=re.escape(want)):
            engine(small, 2, 1)
    grown = np.full((4, 4, 4), 9)
    grown[:3, :3, :3] = values
    w = WeightGrid(r=3, bound=(3, 3, 3), values=grown, multiplicity=(1, 1, 1),
                   conductor=(3, 3, 3))
    want = "vanishing below level 3 fails at d=0 (rank 1)"
    for engine in engines:
        with pytest.raises(LatcurveError, match=re.escape(want)):
            engine(w, 2, 1)
    with pytest.raises(LatcurveError, match=r"vanishing .* d=1 \(rank 1\)"):
        minimal_spectral_cycles_by_points(w, 0, -1)
    with pytest.raises(LatcurveError, match=r"support law violated: .* l=\(1, 1, 0\)"):
        spectral.minimal_spectral_cycles(w, 0, -1)
    want = "support law violated: nonzero entry at l=(0, 0, 1), k=1, n=1"
    for engine in (spectral.e1_level, e1_level_by_points):
        with pytest.raises(LatcurveError, match=re.escape(want)):
            engine(w, 1, 1, 1)


def refusal(f, *args):
    """The message of the MarginTooSmall f raises, or None if it answers."""
    try:
        f(*args)
    except MarginTooSmall as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: "_".join(map(str, s)))
def test_e1_and_motivic_levels_refuse_the_same_levels(spec, model_of):
    """A level is one set of points in both gradings: read whole, or
    refused with the same message (the last two levels never fit)."""
    m = model_of(*spec)
    top = min(m.bound) + 1
    got = [refusal(spectral.e1_level, m.weight, d, 0, 0) for d in range(top + 1)]
    want = [refusal(motivic.univariate_motivic, m.hilbert, d) for d in range(top + 1)]
    assert got == want
    assert None not in got[-2:]


def test_a_level_past_the_grid_is_refused_not_cut(model_of):
    """D_5's grid (8, 8) holds level 10 only in part; the whole level,
    read on (20, 20), has rank 5, as the refined table says."""
    m = model_of("D", 5)
    want = "level 10 needs every axis bound >= 11, grid is (8, 8)"
    with pytest.raises(MarginTooSmall, match=re.escape(want)):
        spectral.e1_level(m.weight, 10, 0, 4)
    w = m.ensure_bound((20, 20)).weight
    table = pe_univariate(spectral.pe_series(w, (18, 18)))
    assert spectral.e1_level(w, 10, 0, 4).rank == table[(10, 4, 0)] == 5


@pytest.mark.parametrize(
    "spec", [("A", 4), ("D", 5), ("T", 4, 4)], ids=lambda s: "_".join(map(str, s))
)
def test_a_negative_level_is_zero(spec, model_of):
    w = model_of(*spec).weight
    for d in (-1, -2):
        assert spectral.e1_level(w, d, 0, 0).rank == 0


def test_negative_points_are_outside_the_lattice(model_of):
    m = model_of("D", 5)
    with pytest.raises(MarginTooSmall, match="negative coordinate"):
        spectral.e1_refined(m.weight, (-2, 3), 0, 4)
    with pytest.raises(MarginTooSmall, match="negative coordinate"):
        motivic_coeff(m.hilbert, (-2, 3))


@pytest.mark.parametrize("r", [5, 6])
def test_e1_matches_scalar_engine_on_the_ordinary_fold_points(r):
    """r general lines through 0: the levels up to 6, the minimal cycles
    (M(1, 3 - r) has rank r - 1, the ceiling C(|m| - 1, 1)), a table on
    R(0, e) against the reference, and the table on R(0, c) against the
    motivic coefficients."""
    m = build_model(line_arrangement(r))
    w = m.weight
    for k, n in LEVEL_QUERIES:
        for d in range(7):
            assert outcome(spectral.e1_level, w, d, k, n) == outcome(
                e1_level_by_points, w, d, k, n
            )
    for k, n in CYCLE_QUERIES + [(1, 3 - r)]:
        got = outcome(spectral.minimal_spectral_cycles, w, k, n)
        assert got == outcome(minimal_spectral_cycles_by_points, w, k, n)
    assert spectral.minimal_spectral_cycles(w, 1, 3 - r).rank == r - 1
    assert spectral.pe_series(w, ones(r)) == pe_series_by_points(w, ones(r))
    table = spectral.pe_series(w, m.conductor)
    assert pe_substitution_check_by_points(table, m.hilbert, m.conductor, strict=True)


def count_calls(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a: calls.append(1) or real(*a))
    return calls


def test_each_query_gathers_its_corners_once(model_of, monkeypatch):
    """One gather per E1 query (one per degree for ``pe_series``), with
    no separate point read for the minimal-cycle entry, and one per
    ``coefficient_counts`` call."""
    m = model_of("T", 4, 4)
    w = m.weight
    reads = count_calls(monkeypatch, spectral, "corner_values")
    points = count_calls(monkeypatch, spectral, "e1_refined")
    assert spectral.minimal_spectral_cycles(w, 1, -1).rank == 3
    assert (len(reads), len(points)) == (1, 0)
    spectral.e1_level(w, 3, 1, -1)
    assert len(reads) == 2
    spectral.pe_series(w, m.conductor)
    assert len(reads) == 2 + w.r
    gathers = count_calls(monkeypatch, motivic, "corner_values")
    terms = count_calls(monkeypatch, motivic, "coefficient_counts")
    motivic_coeff(m.hilbert, (2, 1, 1, 0))
    motivic.univariate_levels(m.hilbert, 3)
    motivic.omega_substitution(m.hilbert, w, 0)
    assert len(gathers) == len(terms) == 3


D5_READERS = {
    "e1_refined": lambda m, p: spectral.e1_refined(m.weight, p, 1, 0),
    "motivic_coeff": lambda m, p: motivic_coeff(m.hilbert, p),
    "pe_series": lambda m, p: spectral.pe_series(m.weight, p),
    "WeightGrid.w": lambda m, p: m.weight.w(p),
    "HilbertGrid.h": lambda m, p: m.hilbert.h(p),
    "SemigroupTable.contains": lambda m, p: m.semigroup.contains(p),
}


@pytest.mark.parametrize("point", [(2,), (2, 1, 0)], ids=["short", "long"])
@pytest.mark.parametrize("reader", D5_READERS.values(), ids=D5_READERS.keys())
def test_a_point_of_the_wrong_length_is_a_descriptor_error(model_of, reader, point):
    with pytest.raises(DescriptorError, match=re.escape(f"l={point} has {len(point)} "
                                                        "coordinates, not r = 2")):
        reader(model_of("D", 5), point)
