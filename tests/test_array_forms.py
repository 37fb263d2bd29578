"""The array forms against the point-by-point code they replaced.

* min-closure: ``lattice._validate_min_closure`` (suffix minima)
  against ``oracles.reverse_sweep_min_closure``: same accept/reject and
  the same message, hence the same first failing point.
* additive closure: ``SemigroupTable.validate_additive_closure`` (one
  broadcast over all pairs of members) against
  ``oracles.additive_closure_by_members``: same accept/reject and the
  same message, hence the same first failing pair.
* multiplicity: ``SemigroupTable.multiplicity`` (one minimum over the
  nonzero members, stored on the table) against
  ``oracles.multiplicity_by_axis_rows``, the per-axis read off w that
  ``weight_from_hilbert`` made before, on the catalog, the benchmark
  ladders and random germs of one, two and three branches; the weight
  grid carries the table's tuple itself.
* up-set minima: the m and unit steps a table keeps from its up-set
  minima (or finds from ``upset_minima`` when nobody validated it)
  against ``oracles.multiplicity_by_member_scan`` and
  ``oracles.suffix_or_steps``, on every ladder germ, its proper
  subcurves, the cut tables of ``hilbert`` sources and random plane
  germs; and ``germ._detected``, which reads the table's own box,
  against ``oracles.detected_on_window`` at every guess the replay
  visits: the same (c', m') or the same MarginTooSmall text.
* motivic: ``coefficient_counts`` (the one reader, at the points a
  caller sums) against the scalar loop over subsets,
  ``oracles.motivic_coeff_by_subsets``, and ``univariate_levels`` and
  ``omega_substitution`` against the per-point sums
  ``oracles.univariate_by_points`` and ``oracles.omega_by_points``, on
  the catalog, the benchmark ladders, random multi-branch germs and the
  4-fold point; ``univariate_levels`` (one call for every level)
  against ``univariate_motivic`` level by level; and ``motivic_coeff``
  (the counts of one point) against that loop point by point, errors
  included.  The verdict and the depth-0 omega series of the 5- and
  6-fold points are pinned to the values the box reader computed
  before it was replaced.
* motivic identities: the package keeps no copy of them, so the
  per-point loops (``oracles.*_by_points``) check the array readers
  against each other: the substitution identity between ``pe_series``
  and the motivic coefficients on every catalog germ, every ladder germ,
  random germs and mutated tables; the functional equation of the
  Gorenstein numerator (the true delta holds, a shifted delta and a
  changed coefficient fail) and its gate; and the Hilbert grid read
  back from the coefficients.  On every catalog germ the coefficient
  table of R(0, c + e) is read by one ``coefficient_counts`` call and
  matched with the subset loop first.
* one-call table passes: ``upset_minima``, ``SemigroupTable._keep_minima``,
  ``validate_additive_closure`` and ``table_on_window`` on random masks
  of r = 1..4, tables or not, against ``oracles.upset_minima_by_points``,
  ``oracles.suffix_or_steps``, ``oracles.additive_closure_by_members``
  and ``oracles.table_on_window_by_points``: the same values, the same
  first failure and the same error text, every text shown to occur, and
  ``table_on_window`` on every mask of the 3 x 3 and 4 x 4 boxes; and
  the stored ``GermModel.min_w`` and the read-only per-r tables.
* weight table: ``cli.render_weight_table`` (two arrays on R(0, c))
  against ``oracles.weight_table_by_points`` (two checked point reads a
  cell) line by line, on the catalog, the 3-, 4- and 5-fold points and
  random germs of one, two and three branches, each again on a larger
  bound, where the lines stay the same.
"""

import itertools
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latcurve import (
    InconsistentInput,
    InconsistentSemigroup,
    MarginTooSmall,
    QPoly,
    build_model,
    classify,
    get,
    motivic_coeff,
    omega_substitution,
    pe_series,
    univariate_motivic,
)
from latcurve.catalog import numerical_semigroup
from latcurve.classify import certified_omega
from latcurve.cli import render_weight_table
from latcurve import germ
from latcurve.germ import GermDescriptor
from latcurve.lattice import (
    Point,
    SemigroupTable,
    _clamped,
    _corner_tables,
    _validate_min_closure,
    box,
    leq,
    min_weight,
    norm,
    ones,
    padd,
    table_on_window,
    upset_minima,
    window,
)
from latcurve.motivic import (
    LaurentSeries,
    _subset_signs,
    coefficient_counts,
    univariate_levels,
)

from germ_strategies import conductor_of, monomial_plane_germs, numerical_semigroups
from line_arrangements import line_arrangement
from oracles import (
    additive_closure_by_members,
    detected_on_window,
    gorenstein_functional_check_by_points,
    gorenstein_motivic_check_by_points,
    hilbert_from_motivic_by_points,
    motivic_coeff_by_subsets,
    multiplicity_by_axis_rows,
    multiplicity_by_member_scan,
    numerator_coeffs_by_points,
    omega_by_points,
    pe_substitution_check_by_points,
    reverse_sweep_min_closure,
    suffix_or_steps,
    table_on_window_by_points,
    univariate_by_points,
    upset_minima_by_points,
    weight_table_by_points,
)
from test_builds import hilbert_descriptor
from test_catalog import ALL_SPECS
from test_identity import ladder_keys


def _outcome(check, table):
    """None when ``check`` accepts the table, else its message."""
    try:
        check(table)
    except InconsistentSemigroup as exc:
        return str(exc)
    return None


def assert_same_min_closure(table):
    got = _outcome(lambda t: _validate_min_closure(t.mask), table)
    assert got == _outcome(reverse_sweep_min_closure, table)
    return got


def assert_same_additive_closure(table):
    got = _outcome(SemigroupTable.validate_additive_closure, table)
    assert got == _outcome(additive_closure_by_members, table)
    return got


def _without(table, drop):
    """A copy of the table without the member ``drop`` (None drops
    nothing)."""
    mask = table.mask.copy()
    if drop is not None:
        mask[drop] = False
    return SemigroupTable(r=table.r, conductor=table.conductor, mask=mask)


# ---------------------------------------------------------------------------
# min-closure


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: "_".join(map(str, s)))
def test_min_closure_matches_sweep_on_catalog(spec, model_of):
    table = model_of(*spec).semigroup
    assert assert_same_min_closure(table) is None
    # drop each member of R(0, c) but the conductor in turn; a member that
    # is the minimum of two others leaves a table both checks reject
    for p in table.points()[:-1]:
        assert_same_min_closure(_without(table, p))


def test_min_closure_matches_sweep_on_hand_broken_tables():
    cases = [
        # min((1,2),(2,1)) = (1,1) missing
        ((2, 2), [(0, 0), (1, 2), (2, 1), (2, 2)]),
        # the up-set of (0,1) has (0,2) and (2,1) but not their min (0,1)
        ((2, 2), [(0, 0), (0, 2), (2, 1), (2, 2)]),
        # r = 3: min((1,1,2),(2,2,1)) = (1,1,1) missing
        ((2, 2, 2), [(0, 0, 0), (1, 1, 2), (2, 2, 1), (2, 2, 2)]),
    ]
    for c, members in cases:
        mask = np.zeros(tuple(ci + 1 for ci in c), dtype=bool)
        for p in members:
            mask[p] = True
        table = SemigroupTable(r=len(c), conductor=c, mask=mask)
        assert assert_same_min_closure(table) is not None


@st.composite
def _random_tables(draw):
    r = draw(st.integers(min_value=1, max_value=3))
    shape = tuple(draw(st.lists(st.integers(1, 5), min_size=r, max_size=r)))
    bits = draw(st.lists(st.booleans(), min_size=int(np.prod(shape)),
                         max_size=int(np.prod(shape))))
    mask = np.array(bits, dtype=bool).reshape(shape)
    bound = tuple(n - 1 for n in shape)
    mask[bound] = True  # as validate() guarantees: every up-set is nonempty
    return SemigroupTable(r=r, conductor=bound, mask=mask)


@settings(max_examples=150, deadline=None)
@given(_random_tables())
def test_min_closure_matches_sweep_on_random_masks(table):
    assert_same_min_closure(table)


# ---------------------------------------------------------------------------
# additive closure


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: "_".join(map(str, s)))
def test_additive_closure_matches_loop_on_catalog(spec, model_of):
    table = model_of(*spec).semigroup
    assert assert_same_additive_closure(table) is None
    for p in table.points()[:-1]:
        assert_same_additive_closure(_without(table, p))


@settings(max_examples=150, deadline=None)
@given(_random_tables())
def test_additive_closure_matches_loop_on_random_masks(table):
    assert_same_additive_closure(table)


@settings(max_examples=15, deadline=None)
@given(monomial_plane_germs(), st.data())
def test_array_forms_on_random_multi_branch_germs(germ, data):
    _, _, desc = germ
    m = build_model(desc)
    assert assert_same_min_closure(m.semigroup) is None
    assert assert_same_additive_closure(m.semigroup) is None
    drop = data.draw(st.sampled_from(m.semigroup.points()[:-1] or [None]))
    assert_same_min_closure(_without(m.semigroup, drop))
    assert_same_additive_closure(_without(m.semigroup, drop))
    assert omega_substitution(m.hilbert, m.weight, 0) == omega_by_points(
        m.hilbert, m.weight, 0
    )
    for d in range(min(m.bound)):
        assert univariate_motivic(m.hilbert, d) == univariate_by_points(m.hilbert, d)


# ---------------------------------------------------------------------------
# multiplicity


def assert_multiplicity_matches_axis_rows(m, key=None):
    got = m.semigroup.multiplicity()
    assert got == multiplicity_by_axis_rows(m.weight.values), key
    assert m.weight.multiplicity is got, key


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: "_".join(map(str, s)))
def test_multiplicity_matches_the_axis_rows_on_catalog(spec, model_of):
    assert_multiplicity_matches_axis_rows(model_of(*spec))


def test_multiplicity_matches_the_axis_rows_on_every_ladder_germ():
    for key in ladder_keys():
        name, *params = key.split(",")
        assert_multiplicity_matches_axis_rows(
            build_model(get(name, *map(int, params))), key
        )


@settings(max_examples=25, deadline=None)
@given(monomial_plane_germs())
def test_multiplicity_matches_the_axis_rows_on_random_plane_germs(germ):
    assert_multiplicity_matches_axis_rows(build_model(germ[2]))


@settings(max_examples=25, deadline=None)
@given(numerical_semigroups())
def test_multiplicity_matches_the_axis_rows_on_random_semigroups(gens):
    c = conductor_of(gens)
    desc = GermDescriptor(
        r=1, kind="semigroup", payload=((c,), numerical_semigroup(gens, c))
    )
    m = build_model(desc)
    assert_multiplicity_matches_axis_rows(m)
    assert m.multiplicity == (min(gens),)


# ---------------------------------------------------------------------------
# m and the unit steps from the up-set minima; the replay reads its table's box


def _ladder_descriptor(key):
    name, *params = key.split(",")
    return get(name, *map(int, params))


def _proper_subcurves(model):
    return [
        model.subcurve(J)
        for size in range(1, model.r)
        for J in itertools.combinations(range(1, model.r + 1), size)
    ]


def assert_table_reads_match(table, key=None):
    """The m and unit steps the table keeps, and those a copy of its mask
    that nobody validated finds, equal the member scan and the suffix-OR
    increments."""
    copy = SemigroupTable(r=table.r, conductor=table.conductor, mask=table.mask.copy())
    want = suffix_or_steps(table)
    for t in (table, copy):
        assert t.multiplicity() == multiplicity_by_member_scan(table), key
        steps = t._kept()[1]
        assert len(steps) == len(want), key
        assert all(np.array_equal(a, b) for a, b in zip(steps, want)), key


def _detection(detect, table, guess):
    try:
        return detect(table, guess)
    except MarginTooSmall as exc:
        return str(exc)


def test_table_reads_match_on_every_ladder_germ():
    """229 ladder germs, their 342 proper subcurves, and the cut table of
    each ladder germ rewritten as a ``hilbert`` source."""
    keys = ladder_keys()
    subcurves = 0
    for key in keys:
        model = build_model(_ladder_descriptor(key))
        assert_table_reads_match(model.semigroup, key)
        for sub in _proper_subcurves(model):
            assert_table_reads_match(sub.semigroup, (key, sub.name))
            subcurves += 1
        assert_table_reads_match(build_model(hilbert_descriptor(model)).semigroup, key)
    assert (len(keys), subcurves) == (229, 342)


def test_replay_detects_on_the_tables_box(monkeypatch):
    """Every guess the replay visits on every ``poincare`` ladder germ,
    and the bound it accepts: the same (c', m'), or the same
    MarginTooSmall text, as the window written out."""
    visits = []
    real = germ._detected

    def visited(table, guess):
        visits.append((table, guess))
        return real(table, guess)

    monkeypatch.setattr(germ, "_detected", visited)
    for key in ladder_keys():
        desc = _ladder_descriptor(key)
        if desc.kind == "poincare":
            model = build_model(desc)
            visits.append((model.semigroup, model.bound))
    monkeypatch.undo()
    detects = (germ._detected, detected_on_window)
    outcomes = [tuple(_detection(d, table, guess) for d in detects) for table, guess in visits]
    assert [got for got, _ in outcomes] == [want for _, want in outcomes]
    # both kinds of outcome are compared
    assert {type(got) for got, _ in outcomes} == {tuple, str}


@settings(max_examples=25, deadline=None)
@given(monomial_plane_germs())
def test_table_reads_match_on_random_plane_germs(plane):
    model = build_model(plane[2])
    for t in (model, *_proper_subcurves(model)):
        table = t.semigroup
        assert_table_reads_match(table)
        c, e = table.conductor, ones(table.r)
        guesses = [(g,) * table.r for g in range(max(c) + 3)]
        guesses += [c, padd(c, e), padd(padd(c, e), e)]
        for guess in guesses:
            assert _detection(germ._detected, table, guess) == _detection(
                detected_on_window, table, guess
            ), guess


# ---------------------------------------------------------------------------
# motivic counts

MOTIVIC_SPECS = [
    ("A", 0), ("A", 4), ("D", 5), ("D", 6), ("E", 6), ("T", 3, 7),
    ("T", 4, 4), ("Z11",), ("W1_0",),
]


def counts_by_subsets(h, at) -> tuple[np.ndarray, np.ndarray]:
    """``coefficient_counts`` from the subset loop, one point at a time:
    h(l), and the coefficient of q^(h(l)+i) at column i."""
    base = np.array([h.h(tuple(ell)) for ell in at.tolist()], dtype=np.int64)
    counts = np.zeros((len(at), h.r), dtype=np.int64)
    for row, ell in enumerate(at.tolist()):
        for e, c in motivic_coeff_by_subsets(h, ell).coeffs:
            counts[row, e - base[row]] = c
    return base, counts


def assert_same_counts(h, at):
    at = np.asarray(at, dtype=np.int64).reshape(-1, h.r)
    got = coefficient_counts(h, at)
    assert [a.dtype for a in got] == [np.int64, np.int64]
    want = counts_by_subsets(h, at)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


def assert_reader_matches_oracles(m):
    """The counts at every point of R(0, bound - e), the levels below
    min(bound) and the omega series through omega^0 and omega^2 against
    the per-point oracles."""
    h = m.hilbert
    inner = tuple(b - 1 for b in h.bound)
    assert_same_counts(h, list(box(inner)))
    assert_same_counts(h, [])
    depth = min(m.bound) - 1
    assert univariate_levels(h, depth) == [
        univariate_by_points(h, d) for d in range(depth + 1)
    ]
    for depth in (0, 2):
        series, grown = certified_omega(m, depth)
        assert series == omega_by_points(grown.hilbert, grown.weight, depth)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: "_".join(map(str, s)))
def test_terms_match_the_oracles_on_catalog(spec, model_of):
    assert_reader_matches_oracles(model_of(*spec))


@pytest.mark.parametrize(
    "rows,message",
    [
        ([[0, 0], [2, 8], [-1, 3]], "need (2, 8) + e inside the grid (8, 8)"),
        ([[8, 8]], "need (8, 8) + e inside the grid (8, 8)"),
        ([[1, 1], [-1, 3]], "l=(-1, 3) has a negative coordinate"),
    ],
    ids=["past-one-axis", "past-both-axes", "negative"],
)
def test_terms_refuse_a_row_off_the_grid(model_of, rows, message):
    """Every l + e must lie in the grid and l in N^r: the gather names
    the first row that is not, where it read wrong corners, crashed or
    answered outside N^r before.  The grid grown to (12, 12) holds the
    true counts at (2, 8): p_l(q) = q^8 - q^9."""
    m = model_of("D", 5)
    with pytest.raises(MarginTooSmall, match=re.escape(message)):
        coefficient_counts(m.hilbert, np.array(rows, dtype=np.int64))
    grown = m.ensure_bound((12, 12)).hilbert
    base, counts = coefficient_counts(grown, np.array([[2, 8]], dtype=np.int64))
    assert (base.tolist(), counts.tolist()) == ([8], [[1, -1]])


@settings(max_examples=15, deadline=None)
@given(monomial_plane_germs())
def test_terms_match_the_oracles_on_random_multi_branch_germs(germ):
    assert_reader_matches_oracles(build_model(germ[2]))


def test_terms_match_the_oracles_on_the_four_fold_point():
    assert_reader_matches_oracles(build_model(line_arrangement(4)))


def test_terms_match_the_oracles_on_every_ladder_germ():
    """On the ladder, the points ``classify`` reads: the levels up to |m|
    against ``univariate_by_points``, and the counts at the points with
    w(l) <= 0 of the model the depth-0 omega series is certified on.
    Every other point has w(l) > 0, so its terms land past omega^0 (at
    order w(l) + 2i), and the series is the oracle's sum over these."""
    for key in ladder_keys():
        name, *params = key.split(",")
        m = build_model(get(name, *map(int, params)))
        mu = norm(m.multiplicity)
        grown = m.ensure_bound((mu + 1,) * m.r)
        assert univariate_levels(grown.hilbert, mu) == [
            univariate_by_points(grown.hilbert, d) for d in range(mu + 1)
        ], key
        series, grown = certified_omega(m, 0)
        inner = tuple(b - 1 for b in grown.bound)
        at = np.argwhere(grown.weight.values[window(inner)] <= 0)
        assert_same_counts(grown.hilbert, at)
        acc = {}
        for ell in at.tolist():
            for e, c in motivic_coeff_by_subsets(grown.hilbert, ell).coeffs:
                if 2 * e - sum(ell) <= 0:
                    acc[2 * e - sum(ell)] = acc.get(2 * e - sum(ell), 0) + c
        lo = min(o for o, c in acc.items() if c)
        want = tuple(acc.get(o, 0) for o in range(lo, 1))
        assert series == LaurentSeries(order=lo, coeffs=want, truncation=0), key


# r -> (the omega series through omega^0 and its model's bound, the
# motivic route), recorded with the box reader that the motivic reader
# replaced; every route of both points says wild.
LINE_ARRANGEMENTS = {
    5: ((-4, (1, 7, 21, 17, 18), 10),
        {"ord f": -4, "leading": 1, "verdict": "wild", "conditions": {"a": False}}),
    6: ((-6, (2, 12, 34, 44, 34, 32, 34), 11),
        {"ord f": -6, "leading": 2, "verdict": "wild", "conditions": {"a": False}}),
}


@pytest.mark.parametrize("r", sorted(LINE_ARRANGEMENTS))
def test_line_arrangements_keep_their_verdict_and_omega_series(r):
    (order, coeffs, side), route = LINE_ARRANGEMENTS[r]
    m = build_model(line_arrangement(r))
    series, grown = certified_omega(m, 0)
    assert series == LaurentSeries(order=order, coeffs=coeffs, truncation=0)
    assert grown.bound == (side,) * r
    verdict = classify(m)
    assert (verdict.cmtype, verdict.subtype, verdict.growth, verdict.family) == (
        "wild", None, None, None
    )
    assert {ev["verdict"] for ev in verdict.routes.values()} == {"wild"}
    assert verdict.routes["motivic"] == route
    assert verdict.model.bound == (side,) * r


@pytest.mark.parametrize("spec", MOTIVIC_SPECS, ids=lambda s: "_".join(map(str, s)))
def test_motivic_array_matches_scalar_coefficients(spec, model_of):
    m = model_of(*spec)
    for depth in (0, 1, 3):
        series, grown = certified_omega(m, depth)
        assert series == omega_by_points(grown.hilbert, grown.weight, depth)
    for d in range(min(m.bound)):
        assert univariate_motivic(m.hilbert, d) == univariate_by_points(m.hilbert, d)


@pytest.mark.parametrize("spec", MOTIVIC_SPECS, ids=lambda s: "_".join(map(str, s)))
def test_univariate_levels_match_each_level(spec, model_of):
    m = model_of(*spec)
    depth = min(m.bound) - 1
    assert univariate_levels(m.hilbert, depth) == [
        univariate_motivic(m.hilbert, d) for d in range(depth + 1)
    ]
    assert _returns(univariate_levels, m.hilbert, depth + 1) == _returns(
        univariate_motivic, m.hilbert, depth + 1
    )


def test_omega_array_matches_scalar_after_certified_retry(model_of):
    m = model_of("D", 5)
    series, grown = certified_omega(m, 8)
    assert grown.bound != m.bound  # the canonical grid could not certify depth 8
    assert series == omega_by_points(grown.hilbert, grown.weight, 8)


def assert_same_coefficients(h):
    """``motivic_coeff`` against the subset loop on every point of
    R(0, bound - e), and the same MarginTooSmall message off it."""
    inner = tuple(b - 1 for b in h.bound)
    for ell in np.ndindex(*(b + 1 for b in inner)):
        assert motivic_coeff(h, ell) == motivic_coeff_by_subsets(h, ell)
    for ell in (tuple(b + 1 for b in inner), (-1,) + inner[1:]):
        messages = []
        for coeff in (motivic_coeff, motivic_coeff_by_subsets):
            with pytest.raises(MarginTooSmall) as exc:
                coeff(h, ell)
            messages.append(str(exc.value))
        assert messages[0] == messages[1]


@pytest.mark.parametrize("spec", MOTIVIC_SPECS, ids=lambda s: "_".join(map(str, s)))
def test_scalar_coefficient_matches_the_subset_loop(spec, model_of):
    assert_same_coefficients(model_of(*spec).hilbert)


@settings(max_examples=15, deadline=None)
@given(monomial_plane_germs())
def test_scalar_coefficient_matches_the_subset_loop_on_random_germs(germ):
    assert_same_coefficients(build_model(germ[2]).hilbert)


# ---------------------------------------------------------------------------
# motivic identities


def _returns(call, *args, **kwargs):
    """("ok", the value) or (the exception type, its message); a Hilbert
    grid is compared by its bound and values."""
    try:
        value = call(*args, **kwargs)
    except Exception as exc:
        return type(exc), str(exc)
    if hasattr(value, "values"):
        value = (value.bound, value.values.tolist())
    return "ok", value


def assert_identities_hold(m):
    """Every motivic identity through its per-point loop on one model:
    the substitution of ``pe_series`` on R(0, c) (strict); on R(0, c + e)
    the functional equation (the true delta holds and a shifted one
    fails, with and without ``outer``) when m is Gorenstein, and the
    gate when it is not; the Hilbert grid read back from the
    coefficients, not read back with one support point dropped, and
    refused with every exponent raised by one."""
    pe = pe_series(m.weight, m.conductor)
    assert pe_substitution_check_by_points(pe, m.hilbert, m.conductor, strict=True)
    outer = padd(m.conductor, ones(m.r))
    grown = m.ensure_bound(padd(outer, ones(m.r)))
    coeffs = {p: motivic_coeff(grown.hilbert, p) for p in box(outer)}
    if m.is_gorenstein:
        for region in (None, outer):
            for delta in (m.delta, m.delta + 1):
                args = (coeffs, m.conductor, delta, region)
                assert gorenstein_functional_check_by_points(*args) == (delta == m.delta)
        assert gorenstein_motivic_check_by_points(m)
    else:
        with pytest.raises(InconsistentInput, match="not Gorenstein"):
            gorenstein_motivic_check_by_points(m)
    want = ("ok", (outer, grown.hilbert.values[window(outer)].tolist()))
    assert _returns(hilbert_from_motivic_by_points, coeffs, m.r, outer) == want
    members = [p for p, q in coeffs.items() if not q.is_zero()]
    dropped = {p: q for p, q in coeffs.items() if p != members[len(members) // 2]}
    assert _returns(hilbert_from_motivic_by_points, dropped, m.r, outer) != want
    shifted = {
        p: QPoly.from_dict({e + 1: c for e, c in q.coeffs}) for p, q in coeffs.items()
    }
    with pytest.raises(InconsistentInput, match=re.escape("h(0) must be 0")):
        hilbert_from_motivic_by_points(shifted, m.r, outer)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: "_".join(map(str, s)))
def test_motivic_identities_match_the_point_loops_on_catalog(spec, model_of):
    assert_identities_hold(model_of(*spec))


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: "_".join(map(str, s)))
def test_gorenstein_array_check_matches_the_dict_path(spec, model_of):
    """Every catalog germ is plane, hence Gorenstein.  The coefficient
    table of R(0, c + e) is read by one ``coefficient_counts`` call, the
    array read, and equals the subset loop's dict; on it the functional
    equation holds, and fails with the wrong delta or with a changed
    coefficient."""
    m = model_of(*spec)
    assert m.is_gorenstein
    outer = padd(m.conductor, ones(m.r))
    h = m.ensure_bound(padd(outer, ones(m.r))).hilbert
    coeffs = {p: motivic_coeff_by_subsets(h, p) for p in box(outer)}
    assert_same_counts(h, list(box(outer)))
    changed = dict(coeffs)
    changed[m.conductor] = coeffs[m.conductor] + QPoly.from_dict({h.h(m.conductor): 1})
    for delta in (m.delta, m.delta + 1):
        for table in (coeffs, changed):
            got = gorenstein_functional_check_by_points(table, m.conductor, delta, outer)
            assert got == (table is coeffs and delta == m.delta)


def test_gorenstein_gate_message_is_unchanged():
    desc = GermDescriptor(
        r=1, kind="semigroup", payload=((3,), [(0,), (3,)]), name="t3t4t5"
    )
    assert _returns(gorenstein_motivic_check_by_points, build_model(desc)) == (
        InconsistentInput,
        "precondition unmet: the germ is not Gorenstein (weight symmetry fails)",
    )


@settings(max_examples=15, deadline=None)
@given(monomial_plane_germs())
def test_motivic_identities_match_the_point_loops_on_random_plane_germs(germ):
    assert_identities_hold(build_model(germ[2]))


@settings(max_examples=25, deadline=None)
@given(numerical_semigroups())
def test_motivic_identities_match_the_point_loops_on_random_semigroups(gens):
    c = conductor_of(gens)
    desc = GermDescriptor(
        r=1, kind="semigroup", payload=((c,), numerical_semigroup(gens, c))
    )
    assert_identities_hold(build_model(desc))


# D_5: r = 2, c = (4, 2), grid (8, 8); (2, 1) is a member
@pytest.mark.parametrize(
    "extra,want",
    [
        ({((2, 1), 0, -1): 1}, "fails"),  # k below 0
        ({((2, 1), 0, 2): 1}, "fails"),  # k = r
        ({((2, 1), 0, 5): 1, ((2, 1), 1, 5): -1}, "holds"),  # strays that cancel
        ({((2, 1), 0, 1): 7}, "fails"),  # a rank changed
        ({((6, 6), 0, 0): 5}, "holds"),  # past R(0, c), inside the grid
        ({((9, 0), 0, 0): 1}, MarginTooSmall),  # past the grid
        ({((-1, 0), 0, 0): 1}, MarginTooSmall),  # a negative coordinate
    ],
    ids=["k-negative", "k-past-r", "strays-cancel", "rank", "past-bounds",
         "past-grid", "negative"],
)
def test_substitution_on_mutated_tables(extra, want, model_of):
    m = model_of("D", 5)
    pe = {**pe_series(m.weight, m.conductor), **extra}
    plain, strict = (
        _returns(pe_substitution_check_by_points, pe, m.hilbert, m.conductor, strict)
        for strict in (False, True)
    )
    if want == "holds":
        assert plain == strict == ("ok", True)
    elif want == "fails":
        assert plain == ("ok", False)
        assert strict[0] is InconsistentInput
        assert strict[1].startswith("substitution identity fails at t^(2, 1) q^")
    else:
        assert plain[0] is strict[0] is want


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_substitution_on_random_mutations(data):
    spec = data.draw(st.sampled_from([("A", 4), ("D", 5), ("E", 6), ("T", 4, 4)]))
    m = build_model(get(*spec))
    base = pe_series(m.weight, m.conductor)
    pe = dict(base)
    keys = sorted(pe)
    for _ in range(data.draw(st.integers(1, 3))):
        if keys and data.draw(st.booleans()):
            key = data.draw(st.sampled_from(keys))
            pe[key] = data.draw(st.integers(-2, 2))
        else:
            ell = tuple(data.draw(st.integers(-1, b + 1)) for b in m.bound)
            k = data.draw(st.integers(-2, m.r + 1))
            pe[(ell, data.draw(st.integers(-3, 3)), k)] = data.draw(st.integers(-2, 2))
    # the unmutated table holds, so the identity holds iff the ranks summed
    # per (l, k) are unchanged for every l in R(0, c); an l off the grid
    # is a MarginTooSmall first
    net = {}
    for key in set(pe) | set(base):
        ell, _, k = key
        net[ell, k] = net.get((ell, k), 0) + pe.get(key, 0) - base.get(key, 0)
    holds = all(v == 0 for (ell, k), v in net.items() if leq(ell, m.conductor))
    off = any(min(ell) < 0 or not leq(ell, m.bound) for ell, _, _ in pe)
    plain, strict = (
        _returns(pe_substitution_check_by_points, pe, m.hilbert, m.conductor, strict)
        for strict in (False, True)
    )
    if off:
        assert plain[0] is strict[0] is MarginTooSmall
    else:
        assert plain == ("ok", holds)
        assert strict[0] is ("ok" if holds else InconsistentInput)


def test_substitution_identity_on_every_ladder_germ():
    for key in ladder_keys():
        name, *params = key.split(",")
        m = build_model(get(name, *map(int, params)))
        pe = pe_series(m.weight, m.conductor)
        assert pe_substitution_check_by_points(pe, m.hilbert, m.conductor, True), key


def test_identities_on_hand_tables():
    # P = 1 + q t: the numerator (1 + q t)(1 - q t) = 1 - q^2 t^2 on R(0, 2)
    coeffs = {(0,): QPoly.from_dict({0: 1}), (1,): QPoly.from_dict({1: 1})}
    assert numerator_coeffs_by_points(coeffs, 1, (2,)) == {((0,), 0): 1, ((2,), 2): -1}
    # a numerator term at t^2, past c = 1, fails the equation
    lone = {(2,): QPoly.from_dict({0: 1})}
    assert not gorenstein_functional_check_by_points(lone, (1,), 2, outer=(2,))


# ---------------------------------------------------------------------------
# the one-call passes of the table maker on random masks, r = 1..4, tables
# or not, against the per-point oracles

# the longest axis per r, so that a box holds at most a few hundred points
_SIDE = {1: 7, 2: 5, 3: 4, 4: 3}


@st.composite
def _masks(draw):
    """A random boolean box of r = 1..4 axes.  Some draws fill the up-set
    of a random point and set 0, so that tables, near-tables and masks
    that are no table all occur."""
    r = draw(st.integers(1, 4))
    shape = tuple(draw(st.lists(st.integers(1, _SIDE[r]), min_size=r, max_size=r)))
    size = int(np.prod(shape))
    mask = np.array(draw(st.lists(st.booleans(), min_size=size, max_size=size)))
    mask = mask.reshape(shape)
    if draw(st.booleans()):
        corner = tuple(draw(st.integers(0, n - 1)) for n in shape)
        mask[tuple(slice(ci, None) for ci in corner)] = True
    if draw(st.booleans()):
        mask[(0,) * r] = True
    return mask


def _top(mask) -> Point:
    return tuple(n - 1 for n in mask.shape)


def _read(read, *args, **kwargs):
    """The conductor a table read finds, or the type and text of its
    error."""
    try:
        found = read(*args, **kwargs)
    except (MarginTooSmall, InconsistentSemigroup) as exc:
        return type(exc).__name__, str(exc)
    return getattr(found, "conductor", found)


@settings(max_examples=200, deadline=None)
@given(_masks())
def test_upset_minima_match_the_points_on_random_masks(mask):
    mins, first = upset_minima(mask)
    want, want_first = upset_minima_by_points(mask)
    assert mins.flags.c_contiguous
    assert mins.shape == want.shape and (mins == want).all()
    assert first == want_first


@settings(max_examples=200, deadline=None)
@given(_masks())
def test_kept_minima_match_the_points_on_random_masks(mask):
    """m = M(e) (e for a box with a zero side) and the unit steps
    [M(l)_i = l_i], which are the suffix-OR steps, on any mask."""
    r, c = mask.ndim, _top(mask)
    table = SemigroupTable(r=r, conductor=c, mask=mask.copy())
    table._keep_minima(upset_minima(mask)[0])
    m, steps = table._kept()
    want = upset_minima_by_points(mask)[0]
    e = ones(r)
    assert m == (tuple(want[e].tolist()) if min(c) else e)
    assert steps.flags.c_contiguous
    own = np.indices(mask.shape)
    assert (steps == (np.moveaxis(want, -1, 0) == own)).all()
    assert (steps == np.array(suffix_or_steps(table))).all()


@settings(max_examples=200, deadline=None)
@given(_masks())
def test_additive_closure_matches_the_members_on_random_masks(mask):
    table = SemigroupTable(r=mask.ndim, conductor=_top(mask), mask=mask)
    assert_same_additive_closure(table)


@settings(max_examples=300, deadline=None)
@given(_masks(), st.data())
def test_table_on_window_matches_the_points_on_random_masks(mask, data):
    """The conductor, or the same MarginTooSmall or InconsistentSemigroup
    text, on a window up to two points past the box on each axis, and on
    the box read as a member list stated on its top corner."""
    b = _top(mask)
    inner = tuple(x + data.draw(st.integers(0, 2)) for x in b)
    assert _read(table_on_window, mask, inner) == _read(
        table_on_window_by_points, mask, inner
    )
    stated = padd(b, ones(mask.ndim))
    assert _read(table_on_window, mask, stated, stated=b) == _read(
        table_on_window_by_points, mask, stated, stated=b
    )


# the text of every error a table read raises, up to its first varying part
_READ_ERRORS = {
    ("MarginTooSmall", "no stable region"),
    ("MarginTooSmall", "stable region has no unique minimal point"),
    ("MarginTooSmall", "conductor "),  # ... detected without a full layer
    ("MarginTooSmall", "membership table is inconsistent"),
    ("InconsistentSemigroup", "0 must be a member"),
    ("InconsistentSemigroup", "a point above the conductor is missing"),
    ("InconsistentSemigroup", "conductor "),  # ... has a zero coordinate
    ("InconsistentSemigroup", "nonzero member "),
    ("InconsistentSemigroup", "up-set of "),
    ("InconsistentSemigroup", "not closed under addition"),
    ("InconsistentSemigroup", "the extension rule fails"),
}


def _kind(outcome):
    if isinstance(outcome, tuple) and isinstance(outcome[0], str):
        name, text = outcome
        return next(k for k in _READ_ERRORS if k[0] == name and text.startswith(k[1]))
    return "table"


def test_table_on_window_matches_the_points_on_every_outcome(model_of):
    """Seeded random masks of r = 1..4, and the catalog's tables, each read
    on windows from R(0, e) to two points past its conductor and as its
    stated member list, whole or with one member dropped: the table
    maker and the per-point reads agree, and every outcome occurs, a
    table and each error text."""
    rng = np.random.default_rng(7)
    reads = []
    for _ in range(400):
        r = int(rng.integers(1, 5))
        mask = rng.random(rng.integers(1, _SIDE[r] + 1, size=r)) < rng.random()
        if rng.random() < 0.5:
            mask[tuple(slice(int(rng.integers(0, n)), None) for n in mask.shape)] = True
        mask[(0,) * r] |= rng.random() < 0.7
        b = _top(mask)
        reads.append((mask, tuple(x + int(rng.integers(0, 3)) for x in b), None))
        reads.append((mask, padd(b, ones(r)), b))
    # a min-closed box whose least conductor (2, 1) breaks the extension
    # rule at (1, 2), as a member list on (2, 2) and as a window
    broken = np.zeros((3, 3), dtype=bool)
    for p in [(0, 0), (1, 1), (2, 1), (2, 2)]:
        broken[p] = True
    reads += [(broken, (3, 3), (2, 2)), (broken, (3, 3), None)]
    for spec in ALL_SPECS:
        table = model_of(*spec).semigroup
        c, e = table.conductor, ones(table.r)
        for drop in [None, *table.points()[:-1]]:
            mask = _without(table, drop).mask
            reads.append((mask.copy(), padd(c, e), c))
            if drop is None:
                for g in range(1, max(c) + 3):
                    inner = tuple(min(g, ci + 2) for ci in c)
                    reads.append((_clamped(mask, c, inner), inner, None))
    kinds = set()
    for mask, inner, stated in reads:
        got = _read(table_on_window, mask, inner, stated=stated)
        assert got == _read(table_on_window_by_points, mask, inner, stated=stated)
        kinds.add(_kind(got))
    assert kinds == _READ_ERRORS | {"table"}


@pytest.mark.parametrize(
    "side, counts",
    [(3, {"table": 5, "MarginTooSmall": 305, "InconsistentSemigroup": 202}),
     (4, {"table": 14, "MarginTooSmall": 39_174, "InconsistentSemigroup": 26_348})],
)
def test_table_on_window_matches_the_points_on_every_mask_of_a_small_box(side, counts):
    """Every mask of the r = 2 box R(0, (side - 1) e), 2^(side^2) of them,
    read on the window one point past its corner: the table maker and the
    per-point reads find the same conductor, or raise the same error
    class and text, and the outcomes come in the counts pinned."""
    inner = (side, side)
    bits = np.arange(1 << side * side)[:, None] >> np.arange(side * side) & 1
    found = {}
    for mask in bits.astype(bool).reshape(-1, side, side):
        got = _read(table_on_window, mask, inner)
        assert got == _read(table_on_window_by_points, mask, inner)
        kind = got[0] if isinstance(got[0], str) else "table"
        found[kind] = found.get(kind, 0) + 1
    assert found == counts


# ---------------------------------------------------------------------------
# the stored minimum weight and the per-r constants


def test_min_w_is_the_minimum_weight_on_every_germ_copy_and_subcurve(
    model_of, cold_memos
):
    for spec in ALL_SPECS:
        model = model_of(*spec)
        grown = model.ensure_bound(tuple(b + 3 for b in model.bound))
        for m in (model, grown, *_proper_subcurves(model)):
            assert m.min_w == min_weight(m.weight), (spec, m.name)
            assert vars(m)["_min_w"] == m.min_w  # stored on first read
        assert "_min_w" not in model._fields


@pytest.mark.parametrize("r", [1, 2, 3, 4, 6])
def test_the_per_r_constant_tables_are_read_only(r):
    tables = [_subset_signs(r), *_corner_tables((3,) * r)]
    for table in tables:
        with pytest.raises(ValueError):
            table[(0,) * table.ndim] = 0
    # each r builds its tables once
    assert _subset_signs(r) is tables[0]


# ---------------------------------------------------------------------------
# the weight table


def assert_same_weight_table(desc):
    """The lines of the array renderer and of the cell-by-cell one agree
    on the model of ``desc``, and again on the model of a larger bound:
    the table reads R(0, c) only, so its lines stay the same."""
    model = build_model(desc)
    lines = render_weight_table(model)
    assert lines == weight_table_by_points(model)
    wider = build_model(replace(desc, bound=tuple(b + 2 for b in model.bound)))
    assert all(x > y for x, y in zip(wider.bound, model.bound))
    assert render_weight_table(wider) == weight_table_by_points(wider) == lines


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: "_".join(map(str, s)))
def test_weight_table_matches_the_cell_reads_on_catalog(spec):
    assert_same_weight_table(get(*spec))


@pytest.mark.parametrize("r", [3, 4, 5])
def test_weight_table_matches_the_cell_reads_on_line_arrangements(r):
    assert_same_weight_table(line_arrangement(r))


@settings(max_examples=25, deadline=None)
@given(monomial_plane_germs())
def test_weight_table_matches_the_cell_reads_on_random_plane_germs(germ):
    assert_same_weight_table(germ[2])


@settings(max_examples=25, deadline=None)
@given(numerical_semigroups())
def test_weight_table_matches_the_cell_reads_on_random_semigroups(gens):
    c = conductor_of(gens)
    assert_same_weight_table(
        GermDescriptor(r=1, kind="semigroup", payload=((c,), numerical_semigroup(gens, c)))
    )
