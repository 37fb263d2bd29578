import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latcurve import (
    EulerMismatch,
    build_model,
    euler_characteristic,
    get,
    lattice_homology,
    min_weight,
)
from latcurve.homology import (
    _cell_order,
    _faces,
    _signs,
    filtered_pairs,
)
from latcurve.lattice import WeightGrid, conductor_values

from germ_strategies import monomial_plane_germs
from line_arrangements import line_arrangement
from oracles import (
    SublevelComplex,
    as_pairs,
    assert_same_homology,
    boundary,
    column_pairs,
    homology,
    max_weight_conductor_box,
    per_level_lattice_homology,
    reference_pairs,
    relative_homology,
    sublevel_complex,
    total_rank,
)
from test_catalog import ALL_SPECS
from test_identity import ladder_keys
from test_snf import TWO_TORSION, boundary_arrays


def test_boundary_squares_to_zero(model_of):
    m = model_of("T", 4, 4)
    cx = sublevel_complex(m.weight, 1)
    for cubes in cx.cells.values():
        for cube in cubes[:50]:
            if not cube[1]:
                continue
            acc = {}
            for face, s in boundary(cube):
                for face2, s2 in boundary(face):
                    acc[face2] = acc.get(face2, 0) + s * s2
            assert all(v == 0 for v in acc.values())


def test_face_arrays_match_boundary(model_of):
    # the index arrays of the filtered reduction give every cube of the
    # r = 4 conductor box the faces and signs of ``boundary``
    w = model_of("T", 4, 4).weight
    _, _, position = _cell_order(conductor_values(w), w.r)
    for mask in range(1, 1 << w.r):
        signs = _signs(bin(mask).count("1")).tolist()
        bases = np.ndindex(position[mask].shape)  # row-major, as the rows
        for base, row in zip(bases, _faces(position, mask, w.r).tolist()):
            cube = boundary((base, mask))
            expected = {position[fm][fb]: sign for (fb, fm), sign in cube}
            assert dict(zip(row, signs)) == expected


def test_empty_below_min(model_of):
    m = model_of("D", 5)
    cx = sublevel_complex(m.weight, min_weight(m.weight) - 1)
    assert not cx.cell_set()


def test_sublevel_smooth(model_of):
    m = model_of("A", 0)
    cx = sublevel_complex(m.weight, 0, bound=m.bound)
    assert cx.cells[0] == [((0,), 0)]
    assert 1 not in cx.cells or not cx.cells[1]


def test_sublevel_d5_wedge(model_of):
    # S_0 of D_5: the cross through (2,1) (the thick wedge), plus the
    # isolated origin and the isolated conductor; no loops anywhere
    # (cross-checked by euler = delta, which pins the component count)
    m = model_of("D", 5)
    cx = sublevel_complex(m.weight, 0)
    (b0, t0), (b1, t1) = homology(cx)[:2]
    assert (b0, b1) == (3, 0)
    assert not t0 and not t1
    cross = {(1, 1), (2, 1), (3, 1), (2, 0), (2, 2)}
    vertices = {c[0] for c in cx.cells[0]}
    assert vertices == cross | {(0, 0), (4, 2)}


def test_monotone_filtration(model_of):
    m = model_of("E", 7)
    prev = set()
    for n in range(min_weight(m.weight), 3):
        cur = sublevel_complex(m.weight, n).cell_set()
        assert prev <= cur
        prev = cur


def test_homology_contractible_top(model_of):
    m = model_of("D", 5)
    top = max_weight_conductor_box(m.weight)
    res = homology(sublevel_complex(m.weight, top))
    assert res[0][0] == 1
    assert all(rank == 0 for rank, _ in res[1:])


def test_relative_homology_self_is_zero(model_of):
    m = model_of("D", 5)
    cx = sublevel_complex(m.weight, 0)
    res = relative_homology(cx, cx)
    assert all(rank == 0 and not tor for rank, tor in res)


def test_relative_homology_not_subcomplex(model_of):
    m = model_of("D", 5)
    big = sublevel_complex(m.weight, 1)
    small = sublevel_complex(m.weight, 0)
    with pytest.raises(ValueError):
        relative_homology(small, big)


def test_lattice_homology_a2(model_of):
    rep = lattice_homology(model_of("A", 2).weight)
    assert rep.betti(0, 0) == 2
    assert rep.betti(0, 1) == 1
    assert rep.u_rank(0, 0) == 1


def test_lattice_homology_t57(model_of):
    # a = 1, b = 2: total H_1 rank is ab - 2 = 0
    rep = lattice_homology(model_of("T", 5, 7).weight)
    assert total_rank(rep, 1) == 0


def test_lattice_homology_t77(model_of):
    rep = lattice_homology(model_of("T", 7, 7).weight)
    assert total_rank(rep, 1) == 2


def test_lattice_homology_t79(model_of):
    rep = lattice_homology(model_of("T", 7, 9).weight)
    assert total_rank(rep, 1) == 4


def test_d5_h1_vanishes_but_cycle_group_does_not(model_of):
    m = model_of("D", 5)
    rep = lattice_homology(m.weight)
    assert total_rank(rep, 1) == 0
    from latcurve import minimal_spectral_cycles

    assert minimal_spectral_cycles(m.weight, 1, 0).rank == 1


def test_torsion_absent_on_catalog(model_of):
    for spec in [("D", 4), ("T", 3, 6), ("E13",)]:
        rep = lattice_homology(model_of(*spec).weight)
        for n in rep.table:
            for _, torsion in rep.table[n]:
                assert not torsion


@pytest.mark.parametrize(
    "spec,expected",
    [(("A", 0), 0), (("A", 2), 1), (("D", 4), 3), (("T", 4, 4), 6), (("E12",), 6)],
)
def test_euler_characteristic(spec, expected, model_of):
    m = model_of(*spec)
    rep = lattice_homology(m.weight)
    assert euler_characteristic(rep, m.weight) == expected


def test_euler_mismatch_detected(model_of):
    m = model_of("A", 2)
    rep = lattice_homology(m.weight)
    bad = {n: list(rows) for n, rows in rep.table.items()}
    bad[0] = [(5, [])]
    broken = type(rep)(
        r=rep.r, n_min=rep.n_min, n_top=rep.n_top, table=bad, u_ranks=rep.u_ranks
    )
    with pytest.raises(EulerMismatch):
        euler_characteristic(broken, m.weight)


def test_u_rank_bottom_level(model_of):
    for spec in [("D", 5), ("T", 3, 6), ("E", 8)]:
        m = model_of(*spec)
        rep = lattice_homology(m.weight)
        assert rep.u_rank(0, rep.n_min) >= 1


def _pair_complexes(m, base, level):
    """S_level intersected with B = R(base, base+e), and with A = B minus
    the open star of the base vertex."""
    r = m.r
    full = sublevel_complex(m.weight, level, bound=m.bound)
    inside = {
        c
        for c in full.cell_set()
        if all(b >= x for b, x in zip(c[0], base))
        and all(
            c[0][i] + (1 if c[1] >> i & 1 else 0) <= base[i] + 1 for i in range(r)
        )
    }
    def pack(cells):
        by_dim = {}
        for c in sorted(cells):
            by_dim.setdefault(bin(c[1]).count("1"), []).append(c)
        return SublevelComplex(level=level, r=r, bound=m.bound, cells=by_dim)

    b_cx = pack(inside)
    a_cx = pack({c for c in inside if c[0] != tuple(base)})
    return b_cx, a_cx


def test_relative_pair_d5(model_of):
    # the excised pair at the semigroup point (2,1) on level 0 carries a
    # relative 1-cycle
    m = model_of("D", 5)
    b_cx, a_cx = _pair_complexes(m, (2, 1), 0)
    res = relative_homology(b_cx, a_cx)
    assert res[1] == (1, [])


def test_relative_pair_e7(model_of):
    # at the multiplicity vector of E_7 the same pair has no 1-cycle
    m = model_of("E", 7)
    b_cx, a_cx = _pair_complexes(m, m.multiplicity, 0)
    res = relative_homology(b_cx, a_cx)
    assert res[1] == (0, [])


# ---------------------------------------------------------------------------
# the filtered reduction against the per-level Smith engine it replaced, and
# its pairs (cleared, apparent pairs and edges in numpy, union-find for the
# other edges) against the dict-per-column engine before it and the plain
# reduction of every boundary column


def assert_same_pairs(w):
    values = conductor_values(w)
    _, _, boundaries, born, killer, unit_pivots = filtered_pairs(values, w.r)
    pairs = (as_pairs(born, killer), unit_pivots)
    assert pairs == reference_pairs(boundaries)
    assert pairs == column_pairs(values, w.r)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: "_".join(map(str, s)))
def test_filtered_reduction_matches_per_level_engine(spec, model_of):
    w = model_of(*spec).weight
    assert_same_homology(lattice_homology(w), per_level_lattice_homology(w))
    assert_same_pairs(w)


@settings(max_examples=20, deadline=None)
@given(monomial_plane_germs())
def test_filtered_reduction_on_random_multi_branch_germs(germ):
    branches, conductor, desc = germ
    m = build_model(desc)
    assert m.conductor == conductor
    rep = lattice_homology(m.weight)
    assert_same_homology(rep, per_level_lattice_homology(m.weight))
    assert euler_characteristic(rep, m.weight) == m.delta
    assert_same_pairs(m.weight)


def test_filtered_reduction_on_every_ladder_germ():
    for key in ladder_keys():
        name, *params = key.split(",")
        assert_same_pairs(build_model(get(name, *map(int, params))).weight)


@pytest.mark.parametrize("r", [4, 5])
def test_filtered_reduction_on_line_arrangements(r):
    # the ordinary r-fold point: 7^4 and 9^5 cubes, against the
    # dict-per-column engine, and the Euler characteristic is delta
    m = build_model(line_arrangement(r))
    values = conductor_values(m.weight)
    _, _, boundaries, born, killer, unit_pivots = filtered_pairs(values, r)
    assert (as_pairs(born, killer), unit_pivots) == reference_pairs(boundaries)
    rep = lattice_homology(m.weight)
    assert euler_characteristic(rep, m.weight) == m.delta == r * (r - 1) // 2


@st.composite
def _value_grids(draw):
    """Random integer values on a small box, as a weight grid whose
    conductor is its bound; not the weights of a germ, so any filtration
    order, tie and interval pattern may occur.  Up to 4 points per axis
    for r <= 3, up to 3 for r = 4."""
    r = draw(st.integers(min_value=1, max_value=4))
    side = 4 if r < 4 else 3
    shape = tuple(draw(st.lists(st.integers(1, side), min_size=r, max_size=r)))
    size = int(np.prod(shape))
    values = draw(st.lists(st.integers(-3, 3), min_size=size, max_size=size))
    bound = tuple(n - 1 for n in shape)
    return WeightGrid(
        r=r,
        bound=bound,
        values=np.array(values, dtype=np.int64).reshape(shape),
        multiplicity=(1,) * r,
        conductor=bound,
    )


@settings(max_examples=150, deadline=None)
@given(_value_grids())
def test_filtered_reduction_on_random_value_grids(w):
    assert_same_homology(lattice_homology(w), per_level_lattice_homology(w))
    assert_same_pairs(w)


# the slow path of the filtered reduction: the columns that no apparent pair
# settles are popped off a queue and reduced in Python


def python_reductions(monkeypatch, w):
    """``(report, count)``: ``lattice_homology(w)`` and the columns it
    reduces in Python, counted as the pops of the queue of
    ``homology.filtered_reduction``."""
    import importlib

    hom = importlib.import_module("latcurve.homology")
    pops = []
    real = hom.heappop
    monkeypatch.setattr(hom, "heappop", lambda queue: pops.append(1) or real(queue))
    return hom.lattice_homology(w), len(pops)


def reduced_columns(monkeypatch, w) -> int:
    """The columns that ``lattice_homology(w)`` reduces in Python; the
    report must equal the per-level engine's."""
    report, count = python_reductions(monkeypatch, w)
    assert_same_homology(report, per_level_lattice_homology(w))
    return count


def test_the_python_loop_reduces_columns_of_t5_15(monkeypatch, model_of):
    # 15 of its 96 squares, under the descending-base tie-break of
    # ``_cell_order``
    assert reduced_columns(monkeypatch, model_of("T", 5, 15).weight) > 0


@pytest.mark.parametrize("spec", [("D", 41), ("T", 3, 31)], ids=lambda s: "_".join(map(str, s)))
def test_the_descending_base_pairs_every_column_apparent(spec, monkeypatch, model_of):
    # 19 and 27 columns under ascending bases
    assert reduced_columns(monkeypatch, model_of(*spec).weight) == 0


def test_the_descending_base_leaves_few_columns_of_the_six_fold_point(monkeypatch):
    # 28 of its 1,491,625 higher cubes, against 448 under ascending bases;
    # the per-level engine is too slow for 11^6 cubes, so the report is
    # checked by its Euler characteristic
    m = build_model(line_arrangement(6))
    report, count = python_reductions(monkeypatch, m.weight)
    assert count <= 28
    assert euler_characteristic(report, m.weight) == m.delta == 15


def test_the_python_loop_reduces_a_collision_of_one_base(monkeypatch):
    """On the cube R(0, e) of r = 3, weight 0 at 0, 1 at e and -1
    elsewhere, the squares at 0 along (e_1, e_3) and along (e_2, e_3)
    enter at 0, and the last edge of each is the edge at 0 along e_3:
    the three edges of weight 0 share the base 0, so their masks order
    them, whatever the order of the bases.  The cube enters at 1 and
    takes a square through e, so neither square is cleared, and the
    second of them is reduced."""
    values = np.full((2, 2, 2), -1)
    values[0, 0, 0], values[1, 1, 1] = 0, 1
    w = WeightGrid(r=3, bound=(1, 1, 1), values=values, multiplicity=(1, 1, 1),
                   conductor=(1, 1, 1))
    assert reduced_columns(monkeypatch, w) > 0


def test_torsion_from_smith_forms_without_unit_pivot_certificate(monkeypatch, model_of):
    import importlib

    hom = importlib.import_module("latcurve.homology")
    real = hom.filtered_reduction
    monkeypatch.setattr(
        hom, "filtered_reduction", lambda boundaries: (*real(boundaries)[:2], False)
    )
    w = model_of("D", 5).weight
    assert_same_homology(hom.lattice_homology(w), per_level_lattice_homology(w))


# ---------------------------------------------------------------------------
# the torsion fallback: with the unit-pivot certificate forced off, each
# level's torsion comes from the Smith forms of its prefix of the columns


def homology_without_certificate(w):
    """``lattice_homology`` with ``filtered_reduction`` patched as in the
    D_5 test above, so that ``unit_pivots`` reads False."""
    import importlib

    hom = importlib.import_module("latcurve.homology")
    real = hom.filtered_reduction
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            hom, "filtered_reduction", lambda boundaries: (*real(boundaries)[:2], False)
        )
        return hom.lattice_homology(w)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: "_".join(map(str, s)))
def test_torsion_fallback_matches_per_level_engine(spec, model_of):
    w = model_of(*spec).weight
    assert_same_homology(homology_without_certificate(w), per_level_lattice_homology(w))


@settings(max_examples=150, deadline=None)
@given(_value_grids())
def test_torsion_fallback_on_random_value_grids(w):
    assert_same_homology(homology_without_certificate(w), per_level_lattice_homology(w))


@settings(max_examples=20, deadline=None)
@given(monomial_plane_germs())
def test_torsion_fallback_on_random_multi_branch_germs(germ):
    m = build_model(germ[2])
    rep = homology_without_certificate(m.weight)
    assert_same_homology(rep, per_level_lattice_homology(m.weight))


def test_torsion_fallback_reduces_each_level_prefix(monkeypatch, model_of):
    # report each Smith reduction's column count as its torsion: the one
    # for H_k(S_n) must see exactly the (k+1)-cubes of S_n
    import importlib

    snf = importlib.import_module("latcurve.snf")
    monkeypatch.setattr(snf, "smith_invariants", lambda columns: (0, [len(columns)]))
    for spec in [("D", 5), ("T", 3, 6), ("T", 4, 4)]:
        w = model_of(*spec).weight
        for n, row in homology_without_certificate(w).table.items():
            cx = sublevel_complex(w, n)
            assert [tors for _, tors in row] == [[cx.n_cells(k + 1)] for k in range(w.r)]


def test_level_torsion_reads_a_prefix_of_the_columns():
    # the seeded closed-square complex of ``test_snf`` whose H_1 is Z/2:
    # the torsion appears at a cut that holds every cell, and is absent
    # at a cut before the first square, cell 8
    from latcurve.homology import _level_torsion

    boundaries = boundary_arrays(TWO_TORSION)
    assert _level_torsion(boundaries, 25) == [[], [2]]
    assert _level_torsion(boundaries, 8) == [[], []]
