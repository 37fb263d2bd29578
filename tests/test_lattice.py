import re

import numpy as np
import pytest

from latcurve import (
    DescriptorError,
    GermDescriptor,
    InconsistentSemigroup,
    MarginTooSmall,
    PathInconsistency,
    build_model,
    delta,
    gorenstein_symmetry,
    hilbert_from_semigroup,
    semigroup_from_hilbert,
    semigroup_from_low_points,
    weight_from_hilbert,
)
from latcurve.catalog import numerical_semigroup
from latcurve.lattice import (
    HilbertGrid,
    SemigroupTable,
    WeightGrid,
    box,
    corner_values,
    table_on_window,
)

from oracles import restrict_to_subcurve, validate_semigroup_consistency


def build_r1(gens, conductor):
    return semigroup_from_low_points(
        1, (conductor,), numerical_semigroup(gens, conductor)
    )


def members_on(table, bound):
    return {p for p in box(bound) if table.contains(p)}


def test_extend_semigroup_a2():
    table = build_r1([2, 3], 2)
    assert sorted(p[0] for p in members_on(table, (6,))) == [0, 2, 3, 4, 5, 6]


def test_extend_semigroup_smooth():
    table = semigroup_from_low_points(1, (0,), [(0,)])
    assert sorted(p[0] for p in members_on(table, (5,))) == [0, 1, 2, 3, 4, 5]


def test_extend_semigroup_a1():
    # two transverse lines: brute-force valuations of g = a*x + b*y + ...
    # give S = {0} union {l >= (1,1)}
    table = semigroup_from_low_points(2, (1, 1), [(0, 0), (1, 1)])
    expected = {(0, 0)} | {(i, j) for i in range(1, 4) for j in range(1, 4)}
    assert members_on(table, (3, 3)) == expected


def test_extension_requires_bound_above_conductor():
    small = semigroup_from_low_points(1, (4,), numerical_semigroup([2, 5], 4))
    with pytest.raises(MarginTooSmall):
        hilbert_from_semigroup(small, (3,))


def test_round_trip_guard_fires_on_a_table_built_directly():
    # min((1,2),(2,1)) = (1,1) is missing, but every step out of (1,1)
    # has a witness, so the increments claim (1,1) as a member
    mask = np.zeros((3, 3), dtype=bool)
    for p in [(0, 0), (1, 2), (2, 1), (2, 2)]:
        mask[p] = True
    table = SemigroupTable(r=2, conductor=(2, 2), mask=mask)
    with pytest.raises(
        InconsistentSemigroup, match="extension failed the round-trip check"
    ):
        hilbert_from_semigroup(table, (4, 4))


def test_min_closure_violation_detected():
    # min((1,2),(2,1)) = (1,1) missing
    with pytest.raises(
        InconsistentSemigroup, match=r"up-set of \(0, 1\) .* \(min \(1, 1\) absent\)"
    ):
        semigroup_from_low_points(2, (2, 2), [(0, 0), (1, 2), (2, 1), (2, 2)])


def test_min_closure_reports_the_first_failure_in_row_major_order():
    # 0, c and the edges l_0 = 60, l_1 = 60: every point off the edges
    # but 0 fails, and (0, 1) comes first
    c = 60
    edges = [(c, j) for j in range(1, c + 1)] + [(i, c) for i in range(1, c + 1)]
    with pytest.raises(
        InconsistentSemigroup, match=r"up-set of \(0, 1\) .* \(min \(1, 1\) absent\)"
    ):
        semigroup_from_low_points(2, (c, c), [(0, 0), *edges])


def test_validate_checks_additive_closure():
    # {0, 2} with conductor 5 is min-closed but misses 2 + 2 = 4: the one
    # maker checks closure on a window read with no stated conductor too
    mask = np.array([True, False, True, False, False, True])
    with pytest.raises(InconsistentSemigroup, match=r"\(2,\) \+ \(2,\) = \(4,\)"):
        table_on_window(mask, (6,))


def test_additive_closure_violation_detected():
    # {0, 2} with conductor 5 misses 2 + 2 = 4
    with pytest.raises(InconsistentSemigroup, match=r"\(2,\) \+ \(2,\) = \(4,\)"):
        semigroup_from_low_points(1, (5,), [(0,), (2,), (5,)])
    # r = 2: (1,1) + (1,1) = (2,2) clamps to the conductor (2,2), a member
    semigroup_from_low_points(2, (2, 2), [(0, 0), (1, 1), (2, 2)])
    with pytest.raises(InconsistentSemigroup, match="not closed under addition"):
        semigroup_from_low_points(2, (3, 3), [(0, 0), (1, 1), (3, 3)])


def test_additive_closure_checked_for_hilbert_sources():
    # h of S = {0, 2, 5, 6, ...}: the table read off a hilbert source is
    # checked for additive closure too, so the same gap is caught
    values = np.array([0, 1, 1, 2, 2, 2, 3, 4, 5], dtype=np.int64)
    desc = GermDescriptor(r=1, kind="hilbert", payload=((8,), values))
    with pytest.raises(InconsistentSemigroup, match="not closed under addition"):
        build_model(desc)


def test_hilbert_from_semigroup_a2():
    table = build_r1([2, 3], 2)
    h = hilbert_from_semigroup(table, (6,))
    assert [h.h((i,)) for i in range(5)] == [0, 1, 1, 2, 3]
    assert h.h((0,)) == 0


def test_hilbert_d5_value(model_of):
    m = model_of("D", 5)
    assert m.hilbert.h((2, 1)) == 1
    assert m.weight.w((2, 1)) == -1


def test_reads_outside_the_grid_are_rejected(model_of):
    m = model_of("D", 5)
    assert m.bound == (8, 8)
    for read, p in [
        (m.weight.w, (-1, 0)),
        (m.hilbert.h, (-2, 3)),
        (m.semigroup.contains, (-1, 2)),
    ]:
        with pytest.raises(MarginTooSmall, match=re.escape(f"l={p} has a negative")):
            read(p)
    for read, p in [(m.weight.w, (9, 0)), (m.hilbert.h, (0, 9))]:
        with pytest.raises(
            MarginTooSmall, match=re.escape(f"l={p} lies outside the grid R(0, (8, 8))")
        ):
            read(p)
    # above the conductor (4, 2) membership is read at min(l, c)
    assert m.semigroup.contains((100, 0)) == m.semigroup.contains((4, 0))
    assert m.semigroup.contains((2, 100)) and not m.semigroup.contains((3, 100))


def test_weight_from_hilbert_rows(model_of):
    m = model_of("E", 6)
    assert [m.weight.w((i,)) for i in range(7)] == [0, 1, 0, -1, 0, 1, 0]
    t = model_of("T", 4, 4)
    assert t.weight.w((2, 2, 2, 2)) == -2


def test_semigroup_from_hilbert_examples(model_of):
    d5 = model_of("D", 5)
    assert d5.semigroup.contains((2, 1))
    assert not d5.semigroup.contains((1, 1))
    e8 = model_of("E", 8)
    members = sorted(p[0] for p in e8.semigroup.points() if p[0] <= 8)
    assert members == [0, 3, 5, 6, 8]
    assert e8.semigroup.contains((0,))


def test_detect_conductor():
    h = hilbert_from_semigroup(build_r1([2, 3], 2), (6,))
    assert semigroup_from_hilbert(h).conductor == (2,)


def test_detect_conductor_examples(model_of):
    assert model_of("D", 5).conductor == (4, 2)
    assert model_of("T", 3, 6).conductor == (4, 4, 4)
    assert model_of("A", 2).conductor == (2,)


def test_detect_conductor_needs_margin():
    small = semigroup_from_low_points(1, (4,), numerical_semigroup([2, 5], 4))
    h = hilbert_from_semigroup(small, (5,))
    # semigroup_from_hilbert lands on bound (4,) = c with no spare layer
    with pytest.raises(MarginTooSmall):
        semigroup_from_hilbert(h)


@pytest.mark.parametrize("bound", [(0,), (0, 3), (3, 0)])
def test_semigroup_from_hilbert_needs_a_step_along_every_axis(bound):
    values = np.zeros(tuple(b + 1 for b in bound), dtype=np.int64)
    h = HilbertGrid(r=len(bound), bound=bound, values=values)
    with pytest.raises(MarginTooSmall, match=r"^grid too small to test any point$"):
        semigroup_from_hilbert(h)


# members on R(0, (4, 6)): closed under min and under addition, and the
# extension rule holds, yet the steps of h do not integrate: summed along
# axis 0 first, h rises from (3, 4) to (4, 4), where the step along axis
# 0 says it stays
PATHS_ONLY = [(0, 0), (2, 3), (2, 5), (3, 3), (4, 3), (4, 6)]


def test_only_the_path_check_refuses_a_table():
    table = semigroup_from_low_points(2, (4, 6), PATHS_ONLY)
    assert table.conductor == (4, 6)
    assert table_on_window(table.mask, (5, 7), stated=(4, 6)).conductor == (4, 6)
    with pytest.raises(PathInconsistency) as refused:
        hilbert_from_semigroup(table, (5, 7))
    assert str(refused.value) == "monotone paths disagree along axis 0; input semigroup invalid"


def test_delta(model_of):
    assert delta(model_of("A", 2).hilbert, (2,)) == 1
    assert model_of("A", 0).delta == 0
    assert model_of("E", 7).delta == 4


def test_gorenstein_symmetry(model_of):
    assert gorenstein_symmetry(model_of("E", 6).weight)
    assert gorenstein_symmetry(model_of("D", 4).weight)


def test_non_gorenstein_germ():
    # the germ with semigroup {0, 3, 4, 5, ...}: the w row on R(0,c) is
    # not palindromic (h = [0,1,1,1] gives w = [0,1,0,-1] vs [-1,0,1,0])
    table = build_r1([3, 4, 5], 3)
    h = hilbert_from_semigroup(table, (8,))
    w = weight_from_hilbert(h, semigroup=table)
    assert [w.w((i,)) for i in range(4)] == [0, 1, 0, -1]
    assert not gorenstein_symmetry(w, (3,))


def test_restrict_to_subcurve_d4(model_of):
    d4 = model_of("D", 4)
    sub = restrict_to_subcurve(d4.weight, (1, 2))
    # branches 1 and 2 of D_4 form the two transverse lines
    assert sub.conductor == (1, 1)
    assert sub.w((1, 1)) == 0
    assert sub.w((1, 0)) == 1


def test_restrict_to_subcurve_d5_branch(model_of):
    d5 = model_of("D", 5)
    sub = restrict_to_subcurve(d5.weight, (1,))
    assert [sub.w((i,)) for i in range(4)] == [0, 1, 0, 1]
    assert sub.conductor == (2,)


def test_restrict_identity(model_of):
    d5 = model_of("D", 5)
    full = restrict_to_subcurve(d5.hilbert, (1, 2))
    assert np.array_equal(full.values, d5.hilbert.values)


def test_restriction_commutes(model_of):
    t = model_of("T", 4, 4)
    one = restrict_to_subcurve(t.hilbert, (1, 3, 4))
    two = restrict_to_subcurve(one, (1, 3))  # positions inside (1,3,4)
    direct = restrict_to_subcurve(t.hilbert, (1, 4))
    assert np.array_equal(two.values, direct.values)


def test_round_trip_consistency(model_of):
    for spec in [("A", 2), ("A", 3), ("D", 5), ("T", 4, 4), ("E13",)]:
        m = model_of(*spec)
        assert validate_semigroup_consistency(m.semigroup, m.hilbert)


def test_validation_catches_mutation(model_of):
    m = model_of("D", 5)
    table = m.semigroup
    # dropping (2,1) = min((2,2),(3,1)) breaks min-closure
    with pytest.raises(
        InconsistentSemigroup, match=r"up-set of \(0, 1\) .* \(min \(2, 1\) absent\)"
    ):
        semigroup_from_low_points(
            2, table.conductor, [p for p in table.points() if p != (2, 1)]
        )


def test_multiplicity_readoff(model_of):
    assert model_of("D", 5).multiplicity == (2, 1)
    assert model_of("Z11").multiplicity == (3, 1)
    assert model_of("A", 0).multiplicity == (1,)


def test_multiplicity_is_found_once_and_stored(model_of):
    table = semigroup_from_low_points(2, (4, 2), model_of("D", 5).semigroup.points())
    first = table.multiplicity()
    assert first == (2, 1)
    assert table.multiplicity() is first
    # the stored value is no field: the repr and the identity ignore it
    assert repr(table) == "SemigroupTable(r=2, conductor=(4, 2))"
    assert "_multiplicity" not in table._fields
    # a model build takes m from its table, for the bound and the weights
    m = model_of("T", 4, 4)
    assert m.weight.multiplicity is m.semigroup.multiplicity()


def _weights_of(model, multiplicity, bound=None):
    """The weights of ``model`` on R(0, bound), with the given m."""
    bound = bound or model.bound
    values = model.weight.values[tuple(slice(0, b + 1) for b in bound)].copy()
    return WeightGrid(
        r=model.r, bound=bound, values=values, multiplicity=multiplicity,
        conductor=model.conductor,
    )


def test_weight_validate_rejects_an_axis_row_past_m(model_of):
    """With m too small on one axis, w = 2 - |l| still holds on
    0 < l <= m, but the axis row goes on as 2 - k past it."""
    e6 = model_of("E", 6)  # w = 0, 1, 0, -1, 0, ... and m = (3,)
    _weights_of(e6, (3,)).validate()
    with pytest.raises(
        InconsistentSemigroup, match=re.escape("w(k e_i) = 2 - k goes on past m = (2,)")
    ):
        _weights_of(e6, (2,)).validate()
    # D_5 has m = (2, 1): w(2, 0) = 0 = 1 - 1, while w(0, 2) = 2
    d5 = model_of("D", 5)
    with pytest.raises(
        InconsistentSemigroup, match=re.escape("w(k e_i) = 2 - k goes on past m = (1, 1)")
    ):
        _weights_of(d5, (1, 1)).validate()
    # a grid that ends at m_i has no point past it to read
    _weights_of(e6, (3,), bound=(3,)).validate()


def test_weight_validate_needs_a_grid_that_holds_m(model_of):
    d5 = model_of("D", 5)
    with pytest.raises(
        MarginTooSmall, match=re.escape("grid R(0, (1, 8)) does not hold m = (2, 1)")
    ):
        _weights_of(d5, (2, 1), bound=(1, 8)).validate()
    with pytest.raises(InconsistentSemigroup, match="below the multiplicity vector"):
        _weights_of(d5, (2, 2)).validate()


def test_a_point_of_the_wrong_length_is_a_descriptor_error():
    for point in [(1,), (1, 1, 1)]:
        with pytest.raises(
            DescriptorError,
            match=re.escape(f"l={point} has {len(point)} coordinates, not r = 2"),
        ):
            semigroup_from_low_points(2, (1, 1), [(0, 0), (1, 1), point])
    with pytest.raises(
        DescriptorError, match=re.escape("l=(3,) has 1 coordinates, not r = 2")
    ):
        semigroup_from_low_points(2, (3,), [(0,), (3,)])


def test_the_first_low_point_outside_the_box_is_named():
    with pytest.raises(
        InconsistentSemigroup, match=re.escape("low point (3, 1) outside R(0, (2, 2))")
    ):
        semigroup_from_low_points(2, (2, 2), [(0, 0), (3, 1), (1, -1), (2, 2)])
    with pytest.raises(
        InconsistentSemigroup, match=re.escape("low point (1, -1) outside R(0, (2, 2))")
    ):
        semigroup_from_low_points(2, (2, 2), [(0, 0), (1, -1), (3, 1), (2, 2)])
    # a coordinate past int64 is outside the box too, not an OverflowError
    with pytest.raises(
        InconsistentSemigroup, match=re.escape(f"low point ({10**30},) outside R(0, (4,))")
    ):
        semigroup_from_low_points(1, (4,), [(0,), (10**30,), (4,)])


def test_only_zero_lies_on_a_coordinate_hyperplane():
    """With r >= 2 a member s with s_i = 0 is a unit, so 0 is the only
    member with a zero coordinate; the first other one is named, in
    row-major order."""
    with pytest.raises(
        InconsistentSemigroup, match=re.escape("nonzero member (1, 0) has a zero coordinate")
    ):
        semigroup_from_low_points(2, (1, 1), [(0, 0), (1, 0), (1, 1)])
    with pytest.raises(
        InconsistentSemigroup,
        match=re.escape("nonzero member (0, 2, 1) has a zero coordinate"),
    ):
        semigroup_from_low_points(
            3, (2, 2, 2), [(0, 0, 0), (2, 1, 0), (0, 2, 1), (2, 2, 2)]
        )
    # one branch: every member has the one coordinate
    assert semigroup_from_low_points(1, (0,), [(0,)]).multiplicity() == (1,)


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_corner_values_reads_every_corner_of_each_row(r):
    """values[l + e_J] at column J (bit i for axis i), against one read per
    corner, on random grids with rows up to the last layer."""
    rng = np.random.default_rng(r)
    for _ in range(10):
        shape = tuple(rng.integers(2, 6, size=r).tolist())
        values = rng.integers(-50, 50, size=shape)
        last = [b - 2 for b in shape]
        at = np.vstack([rng.integers(0, np.array(shape) - 1, size=(20, r)), [last]])
        got = corner_values(HilbertGrid(r, tuple(n - 1 for n in shape), values), at)
        for row, ell in zip(got.tolist(), at.tolist()):
            corners = [
                values[tuple(x + (J >> i & 1) for i, x in enumerate(ell))]
                for J in range(1 << r)
            ]
            assert row == corners
