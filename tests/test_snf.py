"""The sparse Smith reduction against sympy's dense one (on hand-built
and sparse random matrices that need non-unit pivots; the catalog's E1
queries need none), and the filtered reduction (clearing, apparent
pairs, apparent edges and a union-find for the others) against the
plain one on hand-built complexes and on random complexes of edges and
squares."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latcurve import classify, snf, spectral
from latcurve.homology import filtered_reduction
from latcurve.snf import smith_invariants
from latcurve.spectral import pe_series

from oracles import (
    as_pairs,
    plain_filtered_reduction,
    reference_pairs,
    smith_invariants_full_scan,
)
from test_catalog import ALL_SPECS


def boundary_arrays(cells):
    """``filtered_reduction`` input from {k: [(j, rows, coefficients)]},
    the cells of each dimension in increasing j."""
    return {k: tuple(map(np.array, zip(*column))) for k, column in cells.items()}


def reduction_of(cells):
    """(pairs, unit_pivots) of ``filtered_reduction``, pairs sorted by j."""
    born, killer, unit_pivots = filtered_reduction(boundary_arrays(cells))
    return as_pairs(born, killer), unit_pivots


def to_columns(rows):
    ncols = len(rows[0]) if rows else 0
    cols = []
    for j in range(ncols):
        cols.append({i: rows[i][j] for i in range(len(rows)) if rows[i][j]})
    return cols


def sympy_reference(rows):
    from sympy import Matrix
    from sympy.matrices.normalforms import smith_normal_form

    m = Matrix(rows)
    rank = m.rank()
    snf = smith_normal_form(m)
    diag = [abs(snf[i, i]) for i in range(min(snf.shape)) if snf[i, i] != 0]
    torsion = sorted(d for d in diag if d > 1)
    return rank, torsion


def test_zero_matrix():
    assert smith_invariants([]) == (0, [])
    assert smith_invariants([{}, {}]) == (0, [])


def test_known_torsion():
    # Z^2 --(multiplication table)--> torsion Z/2 x Z/6
    rows = [[2, 0], [0, 6]]
    rank, torsion = smith_invariants(to_columns(rows))
    assert rank == 2
    assert torsion == [2, 6]


def test_torsion_needs_normalization():
    rows = [[4, 0], [0, 6]]
    rank, torsion = smith_invariants(to_columns(rows))
    assert rank == 2
    assert torsion == [2, 12]


def test_projective_plane_boundary():
    # d2 for RP^2 with two 2-cells glued by degree-2 maps onto one 1-cell
    rows = [[2]]
    assert smith_invariants(to_columns(rows)) == (1, [2])


@pytest.mark.parametrize("seed", range(8))
def test_random_vs_sympy(seed):
    rng = random.Random(seed)
    nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
    rows = [
        [rng.choice([0, 0, 0, 1, -1, 2, -2, 3]) for _ in range(ncols)]
        for _ in range(nrows)
    ]
    assert smith_invariants(to_columns(rows)) == sympy_reference(rows)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(min_value=-4, max_value=4), min_size=1, max_size=5),
        min_size=1,
        max_size=5,
    ).filter(lambda rows: len({len(r) for r in rows}) == 1)
)
def test_hypothesis_vs_sympy(rows):
    assert smith_invariants(to_columns(rows)) == sympy_reference(rows)


@pytest.mark.parametrize(
    "rows, expected",
    [
        ([[2], [3]], (1, [])),  # the pivot 2 does not divide its column
        ([[2, 3]], (1, [])),  # nor its row
        ([[2, 3], [3, 0]], (2, [9])),  # nor either
        ([[2, 0], [0, 3]], (2, [6])),  # pivots 2 and 3 normalize to [1, 6]
        ([[0, 4, 0], [6, 0, 0], [0, 0, 10]], (3, [2, 2, 60])),
    ],
)
def test_non_unit_pivots_vs_sympy(rows, expected):
    assert smith_invariants(to_columns(rows)) == expected == sympy_reference(rows)


@st.composite
def sparse_rows(draw):
    """Up to 10 x 10, at least half of the entries 0, the rest in -4..4."""
    nrows, ncols = draw(st.integers(1, 10)), draw(st.integers(1, 10))
    cells = [(i, j) for i in range(nrows) for j in range(ncols)]
    filled = draw(
        st.lists(st.sampled_from(cells), max_size=len(cells) // 2, unique=True)
    )
    rows = [[0] * ncols for _ in range(nrows)]
    for i, j in filled:
        rows[i][j] = draw(st.sampled_from([-4, -3, -2, -1, 1, 2, 3, 4]))
    return rows


@settings(max_examples=60, deadline=None)
@given(sparse_rows())
def test_sparse_hypothesis_vs_sympy(rows):
    assert smith_invariants(to_columns(rows)) == sympy_reference(rows)


# the loop scans every row for every pivot, after a remainder round too;
# the reference is a separate loop that scans the entries column by column


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 8).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-9, 9), min_size=n, max_size=n), min_size=1, max_size=8
        )
    )
)
def test_dense_matrices_match_the_full_scan(rows):
    cols = to_columns(rows)
    assert smith_invariants(cols) == smith_invariants_full_scan(cols)


@settings(max_examples=10, deadline=None)
@given(st.lists(st.sampled_from([-1, 1, 2]), min_size=30 * 25, max_size=30 * 25))
def test_30_by_25_matrices_match_the_full_scan(entries):
    cols = to_columns([entries[25 * i : 25 * (i + 1)] for i in range(30)])
    assert smith_invariants(cols) == smith_invariants_full_scan(cols)


@pytest.mark.parametrize("shape, values", [((8, 8), range(-9, 10)), ((30, 25), (-1, 1, 2))])
def test_seeded_matrices_reach_remainder_rounds(shape, values):
    """Seeded draws of both kinds match the full scan, and reach
    remainder rounds, after which the loop picks its pivot again."""
    rng = random.Random(shape[0])
    rounds = []
    for _ in range(10):
        rows = [[rng.choice(values) for _ in range(shape[1])] for _ in range(shape[0])]
        cols = to_columns(rows)
        assert smith_invariants(cols) == smith_invariants_full_scan(cols, rounds)
    assert rounds


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: "_".join(map(str, s)))
def test_catalog_e1_traffic_has_unit_pivots_only(spec, model_of, monkeypatch, cold_memos):
    # every Smith reduction of pe_series and classify eliminates only +-1
    # pivots, so none reaches _invariant_factors, which normalizes the rest
    calls, normalized = [], []
    real = spectral.smith_invariants
    monkeypatch.setattr(
        spectral, "smith_invariants", lambda cols: calls.append(1) or real(cols)
    )
    monkeypatch.setattr(snf, "_invariant_factors", normalized.append)
    model = model_of(*spec)
    pe_series(model.weight, model.conductor)
    classify(model)
    assert spec == ("A", 0) or calls
    assert not normalized


def test_filtered_reduction_filled_triangle():
    # v0 v1 v2, edges v0v1 v1v2 v0v2, then the triangle: the edge v0v2
    # closes a loop, which the triangle kills
    columns = [{}, {}, {}, {1: 1, 0: -1}, {2: 1, 1: -1}, {2: 1, 0: -1},
               {3: 1, 4: 1, 5: -1}]
    cells = {
        1: [(3, [1, 0], [1, -1]), (4, [2, 1], [1, -1]), (5, [2, 0], [1, -1])],
        2: [(6, [3, 4, 5], [1, 1, -1])],
    }
    pairs, unit_pivots = reduction_of(cells)
    assert pairs == [(1, 3), (2, 4), (5, 6)]
    assert unit_pivots
    # the same pairs as the plain reduction: union-find joins v1 and v2 to
    # v0, and clearing skips the edge v0v2 that the triangle kills
    assert (pairs, unit_pivots) == plain_filtered_reduction(columns)
    assert (pairs, unit_pivots) == reference_pairs(boundary_arrays(cells))


def test_filtered_reduction_degree_two_cell():
    # a vertex, a loop, a 2-cell attached by degree 2 (RP^2), and a second
    # 2-cell attached by degree 3: over Q the loop dies at cell 2 and
    # cell 3 is a 2-cycle; over Z, H_1 of the first three cells is Z/2
    columns = [{}, {}, {1: 2}, {1: 3}]
    pairs, unit_pivots = reduction_of(
        {1: [(1, [0, 0], [1, -1])], 2: [(2, [1], [2]), (3, [1], [3])]}
    )
    assert pairs == [(1, 2)]
    assert not unit_pivots
    assert (pairs, unit_pivots) == plain_filtered_reduction(columns)
    assert smith_invariants(columns[:3]) == (1, [2])
    # betti numbers over Q: unpaired cells by dimension
    dims = [0, 1, 2, 2]
    paired = {i for pair in pairs for i in pair}
    assert sorted(dims[j] for j in range(4) if j not in paired) == [0, 2]


def test_filtered_reduction_cross_multiplication_keeps_q_rank():
    # two loops e2 (row 1) and e1 (row 2); the 2-cells have boundaries
    # 2 e1 and 3 e1 + e2, so clearing the second against the first needs
    # col <- 2 col - 3 col_first = 2 e2, which is a new non-unit pivot;
    # the first 2-cell's row 1 has coefficient 0, to fill the array
    columns = [{}, {}, {}, {2: 2}, {2: 3, 1: 1}]
    pairs, unit_pivots = reduction_of({
        1: [(1, [0, 0], [1, -1]), (2, [0, 0], [1, -1])],
        2: [(3, [2, 1], [2, 0]), (4, [2, 1], [3, 1])],
    })
    assert pairs == [(2, 3), (1, 4)]
    assert not unit_pivots
    assert (pairs, unit_pivots) == plain_filtered_reduction(columns)
    assert len(pairs) == smith_invariants(columns)[0]
    assert smith_invariants(columns) == (2, [2])


def test_filtered_reduction_lowest_row_already_owned():
    # a square v0 v1 v2 v3 with the diagonal v0v2 (cell 8), filled by the
    # triangles 9 = (v0, v1, v2) and 10 = (v0, v2, v3); both have the
    # diagonal as lowest row, so 9 owns it and 10 is reduced against 9,
    # down to the edge v0v3 (cell 7)
    columns = [{}, {}, {}, {}, {1: 1, 0: -1}, {2: 1, 1: -1}, {3: 1, 2: -1},
               {3: 1, 0: -1}, {2: 1, 0: -1}, {4: 1, 5: 1, 8: -1},
               {8: 1, 6: 1, 7: -1}]
    cells = {
        1: [(4, [1, 0], [1, -1]), (5, [2, 1], [1, -1]), (6, [3, 2], [1, -1]),
            (7, [3, 0], [1, -1]), (8, [2, 0], [1, -1])],
        2: [(9, [4, 5, 8], [1, 1, -1]), (10, [8, 6, 7], [1, 1, -1])],
    }
    pairs, unit_pivots = reduction_of(cells)
    assert pairs == [(1, 4), (2, 5), (3, 6), (8, 9), (7, 10)]
    assert unit_pivots
    assert (pairs, unit_pivots) == plain_filtered_reduction(columns)
    assert (pairs, unit_pivots) == reference_pairs(boundary_arrays(cells))


def test_filtered_reduction_reduced_column_takes_a_later_claim():
    # a vertex and four loops e1..e4 (cells 1..4); the 2-cells are
    # 5 = e2 + e4, 6 = e3 + e4 and 7 = e1 + e3.  Cell 7 is the first to
    # have e3 as lowest row, but 6 reduces to e3 - e2 first and takes it;
    # then 7 is reduced against 6, to e1 + e2, and pairs with e2
    columns = [{}, {}, {}, {}, {}, {2: 1, 4: 1}, {3: 1, 4: 1}, {1: 1, 3: 1}]
    cells = {
        1: [(j, [0, 0], [1, -1]) for j in range(1, 5)],
        2: [(5, [2, 4], [1, 1]), (6, [3, 4], [1, 1]), (7, [1, 3], [1, 1])],
    }
    pairs, unit_pivots = reduction_of(cells)
    assert pairs == [(4, 5), (3, 6), (2, 7)]
    assert unit_pivots
    assert (pairs, unit_pivots) == plain_filtered_reduction(columns)
    assert (pairs, unit_pivots) == reference_pairs(boundary_arrays(cells))


def test_filtered_reduction_ignores_a_zero_coefficient():
    # the filled triangle with a second edge v0v2 (cell 6) that the
    # triangle names with coefficient 0: its lowest row is the edge 5,
    # and the edge 6 closes a loop that never dies
    columns = [{}, {}, {}, {1: 1, 0: -1}, {2: 1, 1: -1}, {2: 1, 0: -1},
               {2: 1, 0: -1}, {3: 1, 4: 1, 5: -1, 6: 0}]
    pairs, unit_pivots = reduction_of({
        1: [(3, [1, 0], [1, -1]), (4, [2, 1], [1, -1]), (5, [2, 0], [1, -1]),
            (6, [2, 0], [1, -1])],
        2: [(7, [3, 4, 5, 6], [1, 1, -1, 0])],
    })
    assert pairs == [(1, 3), (2, 4), (5, 7)]
    assert unit_pivots
    assert (pairs, unit_pivots) == plain_filtered_reduction(columns)


# H_0 on generic input: the apparent edges and the union-find over the
# roots of their forest, against the plain reduction


@st.composite
def edge_complexes(draw):
    """A random filtered complex of dimension <= 2 as ``(cells, columns)``,
    for ``reduction_of`` and ``plain_filtered_reduction``.  Cells come in
    the order drawn: vertices, edges u -> v (boundary v - u) between
    earlier vertices, loops and parallel edges among them, and squares on
    four distinct earlier vertices whose sides are earlier edges or new
    ones; a square clears the edge that is its lowest row.  A vertex
    drawn after the last edge, or never picked, is touched by no edge."""
    columns = [{}]  # vertex 0
    vertices, cells = [0], {1: [], 2: []}
    between = {}  # (u, v) -> the edges u -> v

    def edge(u, v):
        j = len(columns)
        columns.append({v: 1, u: -1} if u != v else {})
        cells[1].append((j, [v, u], [1, -1]))
        between.setdefault((u, v), []).append(j)
        return j

    steps = st.sampled_from(["vertex", "edge", "edge", "square"])
    for step in draw(st.lists(steps, max_size=40)):
        if step == "vertex":
            vertices.append(len(columns))
            columns.append({})
        elif step == "edge":
            edge(draw(st.sampled_from(vertices)), draw(st.sampled_from(vertices)))
        elif len(vertices) >= 4:
            corners = draw(st.permutations(vertices))[:4]
            sides = {}  # edge -> its coefficient in the square a -> b -> c -> d -> a
            for x, y in zip(corners, corners[1:] + corners[:1]):
                old = [(j, 1) for j in between.get((x, y), [])]
                old += [(j, -1) for j in between.get((y, x), [])]
                if old and draw(st.booleans()):
                    j, s = draw(st.sampled_from(old))
                elif draw(st.booleans()):
                    j, s = edge(x, y), 1
                else:
                    j, s = edge(y, x), -1
                sides[j] = s
            cells[2].append((len(columns), list(sides), list(sides.values())))
            columns.append(sides)
    if not cells[1]:
        edge(0, 0)
    return {k: c for k, c in cells.items() if c}, columns


@settings(max_examples=300, deadline=None)
@given(edge_complexes())
def test_filtered_reduction_pairs_generic_edges_as_the_plain_reduction(complex_):
    cells, columns = complex_
    pairs = reduction_of(cells)
    assert pairs == plain_filtered_reduction(columns)
    assert pairs == reference_pairs(boundary_arrays(cells))
