import re
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from latcurve import (
    InvalidSeries,
    RationalSeries,
    build_model,
    expand,
    get,
    hilbert_from_poincare,
)
from latcurve.series import (
    MultiPoly,
    _expansion_size,
    all_nonempty_subsets,
    conductor_bound,
    geometric,
    poly,
    require_polynomials,
)

from oracles import (
    embedded_hilbert_from_poincare,
    poincare_from_hilbert,
    two_branch_expand,
)
from test_builds import LARGE, poincare_descriptor
from test_catalog import ALL_SPECS


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


@settings(max_examples=200, deadline=None)
@given(_series_on_boxes())
@example((geometric(1, (1,)), (4,)))
def test_the_expansion_size_bounds_the_expansion(case):
    series, hi = case
    size = _expansion_size(series, hi)
    assert int(np.abs(expand(series, hi)).sum()) <= size
    if series == geometric(1, (1,)):
        assert size == 5  # 1/(1 - t) on R(0, 4): the bound is reached


@pytest.mark.parametrize("extra", [0, 1])
def test_the_range_certificate_refuses_from_2_to_the_63(extra):
    """P_{1} = 1 - a t with 1 + a = 2^63 - 1 + extra: at 2^63 - 1 the sums
    are certified and the grid is refused as a Hilbert grid, with no
    overflow; at 2^63 the series is refused before it is expanded."""
    a = (1 << 63) - 2 + extra
    series = {(1,): RationalSeries(poly(1, {(0,): 1, (1,): -a}))}
    want = "pass 64 bits on R(0, [1])" if extra else "invalid Hilbert grid"
    with pytest.raises(InvalidSeries, match=re.escape(want)):
        hilbert_from_poincare(series, (2,), 1)


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
    # a key outside 1..r is no subset of it, so it holds none of the three
    want = "no subcurve series for 2 of the 3 branch subsets, the first (2,)"
    for extra in [{}, {(3,): geometric(1, (1,))}, {(1, 1): geometric(2, (1, 1))}]:
        with pytest.raises(InvalidSeries, match=re.escape(want)):
            hilbert_from_poincare({(1,): geometric(1, (1,)), **extra}, (3, 3), r=2)


def test_hilbert_from_poincare_invalid_inputs():
    series = {
        (1,): geometric(1, (1,)),
        (2,): geometric(1, (1,)),
        (1, 2): RationalSeries(poly(2, {(0, 0): 5})),
    }
    with pytest.raises(InvalidSeries):
        hilbert_from_poincare(series, (4, 4))


def _outcome(build, series, bound, r):
    """The grid values, or the class and message of what was raised."""
    try:
        return build(series, bound, r).values.tolist()
    except Exception as exc:
        return type(exc), str(exc)


def assert_face_expansion_matches(series, bound, r):
    got = _outcome(hilbert_from_poincare, series, bound, r)
    assert got == _outcome(embedded_hilbert_from_poincare, series, bound, r)
    return got


@lru_cache(maxsize=None)
def _poincare_source(spec):
    """The catalog series, or those read off the model's faces."""
    desc = get(*spec)
    return desc if desc.kind == "poincare" else poincare_descriptor(build_model(desc))


@pytest.mark.parametrize("spec", ALL_SPECS + LARGE, ids=lambda s: "_".join(map(str, s)))
def test_face_expansion_matches_the_embedded_expansion(spec, monkeypatch):
    """On every grid the build loop tries, on the grid it settles on with
    one axis cut to 0, and on the one-point grid."""
    desc = _poincare_source(spec)
    guesses = []
    expand_grid = hilbert_from_poincare

    def recording(series, bound, r=None):
        guesses.append(tuple(bound))
        return expand_grid(series, bound, r)

    monkeypatch.setattr("latcurve.series.hilbert_from_poincare", recording)
    bound = build_model(desc).bound
    for b in guesses + [(0, *bound[1:]), (0,) * desc.r]:
        assert_face_expansion_matches(desc.payload, b, desc.r)


def _times_one_minus(num, v):
    """num * (1 - t^v) on exponent -> coefficient dicts."""
    out = dict(num)
    for e, c in num.items():
        shifted = tuple(x + y for x, y in zip(e, v))
        out[shifted] = out.get(shifted, 0) - c
    return out


@st.composite
def _subcurve_series(draw):
    """(series, bound, r, exact) for r = 1..4.  An exact draw rewrites the
    series of a catalog germ without changing it: each |J| >= 2 series
    may gain a diagonal factor (1 - t^v) above and below, and numerator
    terms past its face box.  Any other draw is random.  Bounds may have
    zero coordinates."""
    exact = draw(st.booleans())
    if exact:
        spec = draw(st.sampled_from([("A", 2), ("E", 6), ("A", 5), ("D", 5),
                                     ("D", 4), ("T", 3, 6), ("Z12",), ("T", 4, 4)]))
        source = _poincare_source(spec)
        r, base = source.r, source.payload
    else:
        r = draw(st.integers(min_value=1, max_value=4))
    bound = tuple(draw(st.lists(st.integers(0, 9 - r), min_size=r, max_size=r)))
    series = {}
    for J in all_nonempty_subsets(r):
        k = len(J)
        exps = st.tuples(*[st.integers(0, 6)] * k)
        if exact:
            num, den = base[J].numerator.as_dict(), list(base[J].denominator)
            if k >= 2 and draw(st.booleans()):
                v = tuple(draw(st.lists(st.integers(1, 3), min_size=k, max_size=k)))
                num, den = _times_one_minus(num, v), den + [v]
            for e in draw(st.lists(exps, max_size=2)):
                i = draw(st.integers(0, k - 1))
                e = e[:i] + (bound[J[i] - 1] + e[i],) + e[i + 1 :]
                num[e] = num.get(e, 0) + draw(st.integers(-3, 3))
        else:
            num = draw(st.dictionaries(exps, st.integers(-3, 3), max_size=3))
            den = draw(st.lists(exps.filter(any), max_size=2))
            if k >= 2 and draw(st.booleans()):
                den.append((draw(st.integers(1, 3)),) * k)
        series[J] = RationalSeries(MultiPoly.from_dict(k, num), tuple(den))
    return series, bound, r, exact


@settings(max_examples=150, deadline=None)
@given(_subcurve_series())
def test_face_expansion_matches_on_random_series(case):
    series, bound, r, exact = case
    got = assert_face_expansion_matches(series, bound, r)
    if exact:  # a rewritten catalog series still gives a Hilbert grid
        assert isinstance(got, list)


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


def _times_one_minus(terms: dict, v: tuple) -> dict:
    """terms * (1 - t^v)."""
    out = dict(terms)
    for e, c in terms.items():
        shifted = tuple(x + y for x, y in zip(e, v))
        out[shifted] = out.get(shifted, 0) - c
    return {e: c for e, c in out.items() if c}


@st.composite
def _divisible_series(draw):
    """A nonzero polynomial Q in |J| = 1..3 variables and factors v; the
    series Q * prod (1 - t^v) over prod (1 - t^v) is the polynomial Q."""
    n = draw(st.integers(min_value=1, max_value=3))
    exps = st.tuples(*[st.integers(0, 4)] * n)
    q = draw(st.dictionaries(exps, st.integers(-2, 2).filter(bool), min_size=1, max_size=4))
    den = draw(st.lists(exps.filter(any), max_size=3))
    num = q
    for v in den:
        num = _times_one_minus(num, v)
    return q, num, tuple(den)


@settings(max_examples=60, deadline=None)
@given(_divisible_series(), st.data())
def test_exact_division_reads_polynomials_and_their_degrees(case, data):
    q, num, den = case
    n = len(next(iter(q)))
    J = tuple(range(1, n + 1))
    series = RationalSeries(MultiPoly.from_dict(n, num), den)
    if n == 1:
        # a branch: (1 - t) P must divide out; over an extra factor (1 - t)
        # it is Q itself, and its degree is the branch conductor
        branch = RationalSeries(series.numerator, den + ((1,),))
        require_polynomials({J: branch})
        assert conductor_bound({J: branch}, 1) == (max(0, max(e[0] for e in q)),)
    else:
        require_polynomials({J: series})
        subsets = {K: geometric(1, (1,)) for K in all_nonempty_subsets(n) if len(K) == 1}
        subsets.update({K: RationalSeries(poly(len(K), {(0,) * len(K): 1}))
                        for K in all_nonempty_subsets(n) if len(K) > 1})
        subsets[J] = series
        degree = [max(e[k] for e in q) for k in range(n)]
        assert conductor_bound(subsets, n) == tuple(d + 1 for d in degree)
    # one more monomial leaves no polynomial quotient when there is a factor
    # to divide by (for a branch, besides the (1 - t) that (1 - t) P cancels)
    extra = data.draw(st.tuples(*[st.integers(0, 6)] * n))
    broken = dict(num)
    broken[extra] = broken.get(extra, 0) + 1
    bad = RationalSeries(MultiPoly.from_dict(n, broken), branch.denominator if n == 1 else den)
    if den:
        with pytest.raises(InvalidSeries, match="does not divide out"):
            require_polynomials({J: bad})
    else:
        require_polynomials({J: bad})
