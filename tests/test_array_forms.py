"""The array forms against the point-by-point code they replaced.

* min-closure: ``lattice._validate_min_closure`` (suffix minima)
  against ``oracles.reverse_sweep_min_closure``: same accept/reject and
  the same message, hence the same first failing point.
* additive closure: ``SemigroupTable.validate_additive_closure`` (one
  broadcast over all pairs of members) against
  ``oracles.additive_closure_by_members``: same accept/reject and the
  same message, hence the same first failing pair.
* motivic: ``omega_substitution`` and ``univariate_motivic`` (one
  coefficient array) against sums of the scalar loop over subsets,
  ``oracles.motivic_coeff_by_subsets``; ``univariate_levels`` (one array
  for every level) against ``univariate_motivic`` level by level; and
  ``motivic_coeff`` (the array on one cube) against that loop point by
  point, errors included.
* motivic identities: ``pe_substitution_check``, ``numerator_coeffs``,
  ``gorenstein_functional_check``, ``hilbert_from_motivic`` and
  ``GermModel.gorenstein_motivic_check`` (dense arrays) against the
  per-point loops they replaced (``oracles.*_by_points``), on the
  catalog, on random germs and on mutated inputs: the same values, the
  same exception types and the same messages; and
  ``gorenstein_array_check`` (the coefficient array, no polynomial per
  point) against the dict path of ``gorenstein_functional_check`` on
  every catalog germ.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latcurve import (
    GridTooLarge,
    InconsistentInput,
    InconsistentSemigroup,
    MarginTooSmall,
    QPoly,
    build_model,
    get,
    gorenstein_functional_check,
    hilbert_from_motivic,
    motivic_coeff,
    omega_substitution,
    pe_series,
    pe_substitution_check,
    univariate_motivic,
)
from latcurve.catalog import numerical_semigroup
from latcurve.classify import certified_omega
from latcurve.germ import GermDescriptor
from latcurve.lattice import SemigroupTable, _validate_min_closure, box, ones, padd
from latcurve.motivic import (
    coefficient_array,
    gorenstein_array_check,
    numerator_coeffs,
    univariate_levels,
)

from germ_strategies import conductor_of, monomial_plane_germs, numerical_semigroups
from oracles import (
    additive_closure_by_members,
    gorenstein_functional_check_by_points,
    gorenstein_motivic_check_by_points,
    hilbert_from_motivic_by_points,
    motivic_coeff_by_subsets,
    numerator_coeffs_by_points,
    omega_by_points,
    pe_substitution_check_by_points,
    reverse_sweep_min_closure,
    univariate_by_points,
)
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
# motivic coefficient array

MOTIVIC_SPECS = [
    ("A", 0), ("A", 4), ("D", 5), ("D", 6), ("E", 6), ("T", 3, 7),
    ("T", 4, 4), ("Z11",), ("W1_0",),
]


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


def assert_same_substitution(pe, h, bounds):
    """``pe_substitution_check`` against its oracle, plain and strict."""
    for strict in (False, True):
        got = _returns(pe_substitution_check, pe, h, bounds, strict)
        assert got == _returns(pe_substitution_check_by_points, pe, h, bounds, strict)
    return got


def assert_same_identities(m):
    """Every motivic identity against its per-point oracle on one model:
    the substitution on R(0, c), the numerator and the functional equation
    (true and shifted delta, with and without ``outer``) on R(0, c + e),
    the Hilbert grid recovered from the coefficients, also with one
    support point dropped and with every exponent raised by one, and the
    model's Gorenstein check."""
    assert assert_same_substitution(
        pe_series(m.weight, m.conductor), m.hilbert, m.conductor
    ) == ("ok", True)
    outer = padd(m.conductor, ones(m.r))
    grown = m.ensure_bound(padd(outer, ones(m.r)))
    coeffs = {p: motivic_coeff(grown.hilbert, p) for p in box(outer)}
    num = numerator_coeffs(coeffs, m.r, outer)
    assert num == numerator_coeffs_by_points(coeffs, m.r, outer)
    for delta in (m.delta, m.delta + 1):
        for region in (None, outer):
            args = (coeffs, m.conductor, delta, region)
            assert gorenstein_functional_check(*args) == (
                gorenstein_functional_check_by_points(*args)
            )
    members = [p for p, q in coeffs.items() if not q.is_zero()]
    dropped = {p: q for p, q in coeffs.items() if p != members[len(members) // 2]}
    shifted = {
        p: QPoly.from_dict({e + 1: c for e, c in q.coeffs}) for p, q in coeffs.items()
    }
    for table in (coeffs, dropped, shifted):
        got = _returns(hilbert_from_motivic, table, m.r, outer)
        assert got == _returns(hilbert_from_motivic_by_points, table, m.r, outer)
    assert _returns(m.gorenstein_motivic_check) == _returns(
        gorenstein_motivic_check_by_points, m
    )


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: "_".join(map(str, s)))
def test_motivic_identities_match_the_point_loops_on_catalog(spec, model_of):
    assert_same_identities(model_of(*spec))


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: "_".join(map(str, s)))
def test_gorenstein_array_check_matches_the_dict_path(spec, model_of):
    """Every catalog germ is plane, hence Gorenstein; the wrong delta and
    a changed coefficient must fail on both paths alike."""
    m = model_of(*spec)
    assert m.is_gorenstein
    outer = padd(m.conductor, ones(m.r))
    h = m.ensure_bound(padd(outer, ones(m.r))).hilbert
    rows = coefficient_array(h, outer)
    changed = rows.copy()
    changed[m.conductor] += 1
    for array in (rows, changed):
        coeffs = {
            p: QPoly.from_dict(dict(enumerate(array[p].tolist(), h.h(p))))
            for p in np.ndindex(array.shape[:-1])
        }
        for delta in (m.delta, m.delta + 1):
            got = gorenstein_array_check(h, array, m.conductor, delta)
            assert got == gorenstein_functional_check(coeffs, m.conductor, delta, outer)
            assert got == (array is rows and delta == m.delta)
    assert m.gorenstein_motivic_check()


def test_gorenstein_gate_message_is_unchanged():
    desc = GermDescriptor(
        r=1, kind="semigroup", payload=((3,), [(0,), (3,)]), name="t3t4t5"
    )
    assert _returns(build_model(desc).gorenstein_motivic_check) == (
        InconsistentInput,
        "precondition unmet: the germ is not Gorenstein (weight symmetry fails)",
    )


@settings(max_examples=15, deadline=None)
@given(monomial_plane_germs())
def test_motivic_identities_match_the_point_loops_on_random_plane_germs(germ):
    assert_same_identities(build_model(germ[2]))


@settings(max_examples=25, deadline=None)
@given(numerical_semigroups())
def test_motivic_identities_match_the_point_loops_on_random_semigroups(gens):
    c = conductor_of(gens)
    desc = GermDescriptor(
        r=1, kind="semigroup", payload=((c,), numerical_semigroup(gens, c))
    )
    assert_same_identities(build_model(desc))


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
    got = assert_same_substitution(pe, m.hilbert, m.conductor)
    if want == "holds":
        assert got == ("ok", True)
    elif want == "fails":
        assert got[1].startswith("substitution identity fails at t^(2, 1) q^")
    else:
        assert got[0] is want


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_substitution_on_random_mutations(data):
    spec = data.draw(st.sampled_from([("A", 4), ("D", 5), ("E", 6), ("T", 4, 4)]))
    m = build_model(get(*spec))
    pe = pe_series(m.weight, m.conductor)
    keys = sorted(pe)
    for _ in range(data.draw(st.integers(1, 3))):
        if keys and data.draw(st.booleans()):
            key = data.draw(st.sampled_from(keys))
            pe[key] = data.draw(st.integers(-2, 2))
        else:
            ell = tuple(data.draw(st.integers(-1, b + 1)) for b in m.bound)
            k = data.draw(st.integers(-2, m.r + 1))
            pe[(ell, data.draw(st.integers(-3, 3)), k)] = data.draw(st.integers(-2, 2))
    assert_same_substitution(pe, m.hilbert, m.conductor)


def test_substitution_identity_on_every_ladder_germ():
    for key in ladder_keys():
        name, *params = key.split(",")
        m = build_model(get(name, *map(int, params)))
        pe = pe_series(m.weight, m.conductor)
        assert pe_substitution_check(pe, m.hilbert, m.conductor, strict=True), key


def test_identities_on_hand_tables():
    # P = 1 + q t: the numerator (1 + q t)(1 - q t) = 1 - q^2 t^2 on R(0, 2)
    coeffs = {(0,): QPoly.from_dict({0: 1}), (1,): QPoly.from_dict({1: 1})}
    want = {((0,), 0): 1, ((2,), 2): -1}
    assert numerator_coeffs(coeffs, 1, (2,)) == want
    assert numerator_coeffs_by_points(coeffs, 1, (2,)) == want
    # a numerator term at t^2, past c = 1, is its own mirror modulo the
    # array's length (delta = |p| = 2): it fails all the same
    lone = {(2,): QPoly.from_dict({0: 1})}
    for check in (gorenstein_functional_check, gorenstein_functional_check_by_points):
        assert not check(lone, (1,), 2, outer=(2,))
    # a dense table 10^12 exponents wide is refused before it is allocated
    wide = {(0,): QPoly.from_dict({0: 1, 10**12: 1})}
    with pytest.raises(GridTooLarge, match=r"R\(0, \[2, 1000000000001\]\)"):
        numerator_coeffs(wide, 1, (2,))
