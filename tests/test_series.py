import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from latcurve import (
    InvalidSeries,
    RationalSeries,
    expand,
    hilbert_from_poincare,
    poincare_from_hilbert,
)
from latcurve.series import MultiPoly, geometric, poly

from oracles import two_branch_expand


def test_expand_geometric():
    s = geometric(1, (1,))
    assert expand(s, (3,)).tolist() == [1, 1, 1, 1]


def test_expand_long_division():
    # (1 + t^3)/(1 - t^2) enumerates membership of <2, 3>
    s = RationalSeries(poly(1, {(0,): 1, (3,): 1}), ((2,),))
    assert expand(s, (5,)).tolist() == [1, 0, 1, 1, 1, 1]


def test_expand_polynomial():
    s = RationalSeries(poly(3, {(0, 0, 0): 1, (1, 1, 1): -1}))
    a = expand(s, (2, 2, 2))
    assert a[0, 0, 0] == 1 and a[1, 1, 1] == -1
    assert int(np.abs(a).sum()) == 2


def test_expand_diagonal_denominator():
    s = geometric(2, (1, 1))
    a = expand(s, (3, 3))
    assert all(a[i, i] == 1 for i in range(4))
    assert a[1, 0] == 0 and a[2, 1] == 0


@st.composite
def _series_on_boxes(draw):
    """r = 1..4; exponents reach past the box, so numerator terms fall
    outside it and factors pass it on any axis, not only the first."""
    r = draw(st.integers(min_value=1, max_value=4))
    hi = tuple(draw(st.lists(st.integers(0, 4), min_size=r, max_size=r)))
    exps = st.tuples(*[st.integers(0, 6)] * r)
    terms = draw(st.dictionaries(exps, st.integers(-3, 3), max_size=4))
    den = draw(st.lists(exps.filter(any), max_size=3))
    return RationalSeries(MultiPoly.from_dict(r, terms), tuple(den)), hi


@settings(max_examples=200, deadline=None)
@given(_series_on_boxes())
@example((geometric(2, (1, 5)), (3, 3)))
@example((geometric(3, (0, 2, 7), (1, 1, 0)), (2, 4, 3)))
def test_expand_matches_two_branch_expansion(case):
    series, hi = case
    assert np.array_equal(expand(series, hi), two_branch_expand(series, hi))


def test_hilbert_from_poincare_a1():
    series = {
        (1,): geometric(1, (1,)),
        (2,): geometric(1, (1,)),
        (1, 2): RationalSeries(poly(2, {(0, 0): 1})),
    }
    h = hilbert_from_poincare(series, (4, 4))
    assert h.h((1, 1)) == 1
    assert 2 * h.h((1, 1)) - 2 == 0  # w(1,1) = 0
    # on R(0, (3,3)): |l1 - l2| inside the conductor box, growth beyond
    def w(i, j):
        return 2 * h.h((i, j)) - i - j

    assert [[w(i, j) for i in range(4)] for j in (3, 2, 1, 0)] == [
        [3, 2, 3, 4],
        [2, 1, 2, 3],
        [1, 0, 1, 2],
        [0, 1, 2, 3],
    ]


def test_hilbert_from_poincare_univariate():
    # a single branch: H(t) = t P(t) / (1 - t)
    series = {(1,): RationalSeries(poly(1, {(0,): 1, (3,): 1}), ((2,),))}
    h = hilbert_from_poincare(series, (7,))
    assert [h.h((i,)) for i in range(6)] == [0, 1, 1, 2, 3, 4]


def test_hilbert_from_poincare_missing_subset():
    with pytest.raises(InvalidSeries):
        hilbert_from_poincare({(1,): geometric(1, (1,))}, (3, 3), r=2)


def test_hilbert_from_poincare_invalid_inputs():
    series = {
        (1,): geometric(1, (1,)),
        (2,): geometric(1, (1,)),
        (1, 2): RationalSeries(poly(2, {(0, 0): 5})),
    }
    with pytest.raises(InvalidSeries):
        hilbert_from_poincare(series, (4, 4))


def test_poincare_from_hilbert_smooth(model_of):
    p = poincare_from_hilbert(model_of("A", 0).hilbert)
    assert all(c == 1 for _, c in p.terms)


def test_poincare_from_hilbert_a1(model_of):
    m = model_of("A", 1)
    p = poincare_from_hilbert(m.hilbert, conductor=m.conductor).as_dict()
    assert p.get((0, 0)) == 1
    assert all(e == (0, 0) for e in p if sum(e) <= 2)


def test_poincare_from_hilbert_d4(model_of):
    m = model_of("D", 4)
    p = poincare_from_hilbert(m.hilbert, conductor=m.conductor).as_dict()
    assert p.get((0, 0, 0)) == 1
    assert p.get((1, 1, 1)) == -1  # matches 1 - t1^(k-1) t2^(k-1) t3 at k = 2


@pytest.mark.parametrize(
    "spec", [("A", 3), ("A", 5), ("D", 5), ("D", 6), ("E", 7), ("T", 4, 4), ("T", 3, 6), ("T", 3, 7), ("T", 5, 7)]
)
def test_round_trip_poincare(spec, model_of, entry_of):
    """Recovered Poincare coefficients equal the catalog input series."""
    m = model_of(*spec)
    got = poincare_from_hilbert(m.hilbert, conductor=m.conductor).as_dict()
    full = tuple(range(1, m.r + 1))
    reference = expand(entry_of(*spec).descriptor.payload[full], m.bound)
    inner = tuple(b - 1 for b in m.bound)
    for ell in np.ndindex(tuple(b + 1 for b in inner)):
        assert got.get(tuple(ell), 0) == int(reference[tuple(ell)])
