"""The sparse Smith reduction against sympy's dense one, and the filtered
reduction (clearing, union-find for the edges) against the plain one."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latcurve.snf import filtered_reduction, smith_invariants

from oracles import plain_filtered_reduction


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


def test_filtered_reduction_filled_triangle():
    # v0 v1 v2, edges v0v1 v1v2 v0v2, then the triangle: the edge v0v2
    # closes a loop, which the triangle kills
    columns = [{}, {}, {}, {1: 1, 0: -1}, {2: 1, 1: -1}, {2: 1, 0: -1},
               {3: 1, 4: 1, 5: -1}]
    edges = [(3, 0, 1), (4, 1, 2), (5, 0, 2)]
    pairs, unit_pivots = filtered_reduction(edges, [[(6, [3, 4, 5], [1, 1, -1])]])
    assert pairs == [(1, 3), (2, 4), (5, 6)]
    assert unit_pivots
    # the same pairs as the plain reduction: union-find joins v1 and v2 to
    # v0, and clearing skips the edge v0v2 that the triangle kills
    assert (pairs, unit_pivots) == plain_filtered_reduction(columns)


def test_filtered_reduction_degree_two_cell():
    # a vertex, a loop, a 2-cell attached by degree 2 (RP^2), and a second
    # 2-cell attached by degree 3: over Q the loop dies at cell 2 and
    # cell 3 is a 2-cycle; over Z, H_1 of the first three cells is Z/2
    columns = [{}, {}, {1: 2}, {1: 3}]
    pairs, unit_pivots = filtered_reduction(
        [(1, 0, 0)], [[(2, [1], [2]), (3, [1], [3])]]
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
    # col <- 2 col - 3 col_first = 2 e2, which is a new non-unit pivot
    columns = [{}, {}, {}, {2: 2}, {2: 3, 1: 1}]
    pairs, unit_pivots = filtered_reduction(
        [(1, 0, 0), (2, 0, 0)], [[(3, [2], [2]), (4, [2, 1], [3, 1])]]
    )
    assert pairs == [(2, 3), (1, 4)]
    assert not unit_pivots
    assert (pairs, unit_pivots) == plain_filtered_reduction(columns)
    assert len(pairs) == smith_invariants(columns)[0]
    assert smith_invariants(columns) == (2, [2])
