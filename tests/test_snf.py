"""The sparse Smith reduction against sympy's dense one (on hand-built
and sparse random matrices that need non-unit pivots; the catalog's E1
queries need none), and the filtered reduction (clearing, apparent
pairs, apparent edges and a union-find for the others) against the
plain one on hand-built and seeded complexes of edges and closed
squares, and on random ones."""

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


# the signs of an edge x -> y on its faces (y, x), and of a square on its
# sides (b -> d, a -> c, c -> d, a -> b) for corners a, b, c, d at (0, 0),
# (1, 0), (0, 1) and (1, 1): per axis +s on the upper side and -s on the
# lower one, s alternating from +1, as ``oracles.boundary`` signs a cube
SIGNS = {1: (1, -1), 2: (1, -1, -1, 1)}


def boundary_arrays(cells):
    """``filtered_reduction`` input from {k: [(j, faces)]}, the cells of
    each dimension in increasing j."""
    return {
        k: (np.array([j for j, _ in column]), np.array([faces for _, faces in column]))
        for k, column in cells.items()
    }


def plain_columns(cells):
    """The boundary of every cell as {row: coefficient}, for
    ``plain_filtered_reduction``; a cell that ``cells`` does not list is a
    vertex.  Every square must be closed (its boundary a cycle), or
    clearing is not valid."""
    size = 1 + max(j for column in cells.values() for j, _ in column)
    columns = [{} for _ in range(size)]
    for k, column in cells.items():
        for j, faces in column:
            columns[j] = dict(zip(faces, SIGNS[k]))
    for j, sides in cells.get(2, []):
        cycle = {}
        for side, s in zip(sides, SIGNS[2]):
            for v, t in columns[side].items():
                cycle[v] = cycle.get(v, 0) + s * t
        assert not any(cycle.values()), f"square {j} is not closed"
    return columns


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


def test_filtered_reduction_filled_square():
    # corners a b c d = 0 1 2 3, sides a -> b, a -> c, b -> d, c -> d, then
    # the square: the side c -> d closes a loop, which the square kills
    cells = {
        1: [(4, [1, 0]), (5, [2, 0]), (6, [3, 1]), (7, [3, 2])],
        2: [(8, [6, 5, 7, 4])],
    }
    pairs, unit_pivots = reduction_of(cells)
    assert pairs == [(1, 4), (2, 5), (3, 6), (7, 8)]
    assert unit_pivots
    # the same pairs as the plain reduction: the first three sides each
    # touch their younger corner first, and clearing skips the side c -> d
    # that the square kills
    assert (pairs, unit_pivots) == plain_filtered_reduction(plain_columns(cells))
    assert (pairs, unit_pivots) == reference_pairs(boundary_arrays(cells))


# two closed-square complexes from a seeded search of random complexes on
# 4-7 vertices (seeds 32245 and 106736): their reductions meet a non-unit
# pivot, and over Z the boundary of the second has the invariant factor 2,
# so H_1 of the whole complex is Z/2
NON_UNIT_PIVOT = {
    1: [(4, [1, 2]), (5, [1, 0]), (6, [3, 2]), (7, [1, 3]), (8, [0, 2]), (10, [3, 2]),
        (11, [0, 1]), (12, [3, 0]), (13, [2, 1]), (15, [3, 1]), (16, [0, 2]), (18, [2, 1]),
        (19, [2, 3]), (20, [2, 0]), (22, [0, 3]), (24, [3, 2]), (26, [1, 0])],
    2: [(9, [5, 6, 7, 8]), (14, [10, 11, 12, 13]), (17, [12, 4, 15, 16]),
        (21, [19, 11, 20, 15]), (23, [5, 19, 4, 22]), (25, [18, 22, 20, 7]),
        (27, [22, 4, 11, 10])],
}
TWO_TORSION = {
    1: [(4, [2, 3]), (5, [1, 0]), (6, [2, 1]), (7, [3, 0]), (9, [0, 1]), (10, [0, 3]),
        (11, [2, 0]), (12, [1, 3]), (14, [2, 0]), (15, [1, 0]), (16, [3, 2]), (17, [3, 1]),
        (19, [0, 2]), (21, [1, 2]), (24, [2, 0])],
    2: [(8, [4, 5, 6, 7]), (13, [6, 10, 11, 12]), (18, [16, 5, 17, 11]),
        (20, [19, 12, 9, 4]), (22, [10, 21, 9, 16]), (23, [7, 21, 17, 19])],
}


def assert_reduced_as_the_plain_reduction(cells):
    """The pairs of a complex whose reduction meets a non-unit pivot:
    clearing a column against one with pivot p needs p * col, which can
    leave a pivot other than +-1.  They are those of the plain reduction,
    and still give the rank over Q, the Smith rank of the whole boundary
    matrix; returns that matrix's Smith invariants."""
    columns = plain_columns(cells)
    pairs, unit_pivots = reduction_of(cells)
    assert not unit_pivots
    assert (pairs, unit_pivots) == plain_filtered_reduction(columns)
    assert (pairs, unit_pivots) == reference_pairs(boundary_arrays(cells))
    rank, torsion = smith_invariants(columns)
    assert rank == len(pairs)
    return torsion


def test_filtered_reduction_cross_multiplication_keeps_q_rank():
    # one column is cleared against a reduced column whose pivot is 2, by
    # col <- 2 col - col_other; H_1 of the whole complex is free
    assert assert_reduced_as_the_plain_reduction(NON_UNIT_PIVOT) == []


def test_filtered_reduction_degree_two_cell():
    # a 2-chain of the squares has twice a loop as boundary, as the
    # degree-two cell of RP^2 has: H_1 is Z/2 plus the free part, whose
    # rank over Q counts the edges in no pair
    assert assert_reduced_as_the_plain_reduction(TWO_TORSION) == [2]
    pairs, _ = reduction_of(TWO_TORSION)
    paired = {i for pair in pairs for i in pair}
    dims = {j: k for k, column in TWO_TORSION.items() for j, _ in column}
    unpaired = [dims.get(j, 0) for j in range(25) if j not in paired]
    assert sorted(unpaired) == [0] + [1] * 6


def test_filtered_reduction_lowest_row_already_owned():
    # the squares 13 on corners 0 1 2 3 and 14 on corners 2 3 4 5 share
    # their latest side 2 -> 3 (cell 12) as lowest row, so 13 owns it and
    # 14 is reduced against 13, down to the side 4 -> 5 (cell 11)
    cells = {
        1: [(6, [1, 0]), (7, [2, 0]), (8, [3, 1]), (9, [5, 3]), (10, [4, 2]), (11, [5, 4]),
            (12, [3, 2])],
        2: [(13, [8, 7, 12, 6]), (14, [9, 10, 11, 12])],
    }
    pairs, unit_pivots = reduction_of(cells)
    assert pairs == [(1, 6), (2, 7), (3, 8), (5, 9), (4, 10), (12, 13), (11, 14)]
    assert unit_pivots
    assert (pairs, unit_pivots) == plain_filtered_reduction(plain_columns(cells))
    assert (pairs, unit_pivots) == reference_pairs(boundary_arrays(cells))


def test_filtered_reduction_reduced_column_takes_a_later_claim():
    # a row of three squares, 18 on corners 0 1 2 3, 19 on 2 3 4 5 and 20
    # on 4 5 6 7.  18 and 19 share their lowest row, the side 2 -> 3 (cell
    # 17); cell 20 is the first to have the side 4 -> 5 (cell 16) as
    # lowest row, but 19 reduces against 18 to that row first and takes
    # it; then 20 is reduced against 19 and pairs with the side 6 -> 7
    cells = {
        1: [(8, [1, 0]), (9, [2, 0]), (10, [3, 1]), (11, [5, 3]), (12, [4, 2]), (13, [7, 5]),
            (14, [6, 4]), (15, [7, 6]), (16, [5, 4]), (17, [3, 2])],
        2: [(18, [10, 9, 17, 8]), (19, [11, 12, 16, 17]), (20, [13, 14, 15, 16])],
    }
    pairs, unit_pivots = reduction_of(cells)
    assert pairs == [(1, 8), (2, 9), (3, 10), (5, 11), (4, 12), (7, 13), (6, 14),
                     (17, 18), (16, 19), (15, 20)]
    assert unit_pivots
    assert (pairs, unit_pivots) == plain_filtered_reduction(plain_columns(cells))
    assert (pairs, unit_pivots) == reference_pairs(boundary_arrays(cells))


# H_0 on generic input: the apparent edges and the union-find seeded with
# their forest, against the plain reduction


@st.composite
def edge_complexes(draw):
    """A random filtered complex of dimension <= 2 as ``cells``, for
    ``reduction_of`` and ``plain_columns``.  Cells come in the order
    drawn: vertices, edges x -> y between two distinct earlier vertices,
    parallel edges among them, and closed squares on four distinct
    earlier corners a, b, c, d whose sides b -> d, a -> c, c -> d and
    a -> b are earlier edges or new ones; a square clears the edge that
    is its lowest row.  A vertex drawn after the last edge, or never
    picked, is touched by no edge."""
    vertices, cells = [0], {1: [], 2: []}
    between = {}  # (x, y) -> the edges x -> y

    def new_cell():
        return len(vertices) + len(cells[1]) + len(cells[2])

    def edge(x, y):
        j = new_cell()
        cells[1].append((j, [y, x]))
        between.setdefault((x, y), []).append(j)
        return j

    steps = st.sampled_from(["vertex", "edge", "edge", "square"])
    for step in draw(st.lists(steps, max_size=40)):
        if step == "vertex":
            vertices.append(new_cell())
        elif step == "edge" and len(vertices) >= 2:
            edge(*draw(st.permutations(vertices))[:2])
        elif step == "square" and len(vertices) >= 4:
            a, b, c, d = draw(st.permutations(vertices))[:4]
            sides = []
            for x, y in [(b, d), (a, c), (c, d), (a, b)]:
                old = between.get((x, y))
                reuse = old and draw(st.booleans())
                sides.append(draw(st.sampled_from(old)) if reuse else edge(x, y))
            cells[2].append((new_cell(), sides))
    if not cells[1]:
        vertices.append(new_cell())
        edge(0, vertices[-1])
    return {k: c for k, c in cells.items() if c}


@settings(max_examples=300, deadline=None)
@given(edge_complexes())
def test_filtered_reduction_pairs_generic_edges_as_the_plain_reduction(cells):
    pairs = reduction_of(cells)
    assert pairs == plain_filtered_reduction(plain_columns(cells))
    assert pairs == reference_pairs(boundary_arrays(cells))
