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
  ``oracles.motivic_coeff_by_subsets``; and ``motivic_coeff`` (the array
  on one cube) against that loop point by point, errors included.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latcurve import (
    InconsistentSemigroup,
    MarginTooSmall,
    build_model,
    motivic_coeff,
    omega_substitution,
    univariate_motivic,
)
from latcurve.classify import certified_omega
from latcurve.lattice import SemigroupTable, _validate_min_closure

from germ_strategies import monomial_plane_germs
from oracles import (
    additive_closure_by_members,
    motivic_coeff_by_subsets,
    omega_by_points,
    reverse_sweep_min_closure,
    univariate_by_points,
)
from test_catalog import ALL_SPECS


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
