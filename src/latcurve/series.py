"""Multivariate integer polynomials, rational series, and the translation
between subcurve Poincare series and the Hilbert grid.

A rational series is carried exactly as numerator polynomial plus a list
of denominator factors (1 - t^v); expansion on a rectangle is exact
integer arithmetic, each factor contributing one strided running-sum pass.

The reconstruction of the Hilbert series from the Poincare series of all
subcurves is

    H(t) = [ sum over nonempty J of (-1)^(|J|-1) t^(e_J) P_J(t_J) ]
           / prod_i (1 - t_i).

Each P_J lives on the J-face: it is expanded in its own |J| variables on
the face box R(0, bound_J - e) and added into the numerator grid at e_J,
every coordinate outside J being 0; the division is one cumulative sum
per axis.

Before any expansion the series give a bound U >= c on the conductor
(``conductor_bound``), read off the degrees of P_J for |J| >= 2 and of
(1 - t) P_{i}; both must divide out to polynomials by exact division by
their (1 - t^v) factors (``require_polynomials``).
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import InvalidSeries
from .lattice import HilbertGrid, Point, Record, leq

Subset = tuple[int, ...]  # sorted 1-based branch indices


class MultiPoly(Record):
    """Integer polynomial in r variables, sparse exponent -> coefficient."""

    _fields = ("r", "terms")

    def __init__(self, r: int, terms: tuple = ()):
        # terms: a tuple of (exponent Point, coeff)
        vars(self).update(r=r, terms=terms)

    @staticmethod
    def from_dict(r: int, d: dict[Point, int]) -> "MultiPoly":
        items = []
        for e, c in sorted(d.items()):
            if c == 0:
                continue
            if len(e) != r or any(x < 0 for x in e):
                raise ValueError(f"bad exponent {e} for r={r}")
            items.append((tuple(e), int(c)))
        return MultiPoly(r=r, terms=tuple(items))

    def as_dict(self) -> dict[Point, int]:
        return dict(self.terms)


class RationalSeries(Record):
    """numerator / prod (1 - t^v) with each v a nonzero exponent vector
    in the numerator's r variables."""

    _fields = ("numerator", "denominator")

    def __init__(self, numerator: MultiPoly, denominator: tuple = ()):
        # denominator: a tuple of Points
        vars(self).update(numerator=numerator, denominator=denominator)
        for v in self.denominator:
            if len(v) != self.r or all(x == 0 for x in v) or any(x < 0 for x in v):
                raise ValueError(f"bad denominator exponent {v}")

    @property
    def r(self) -> int:
        return self.numerator.r


def poly(r: int, d: dict) -> MultiPoly:
    return MultiPoly.from_dict(r, {tuple(k): v for k, v in d.items()})


def geometric(r: int, *exps: Point) -> RationalSeries:
    """1 / prod (1 - t^v) for the given exponent vectors."""
    return RationalSeries(numerator=poly(r, {(0,) * r: 1}), denominator=tuple(exps))


def expand(series: RationalSeries, hi: Point) -> np.ndarray:
    """Exact power-series coefficients of the series on R(0, hi); each
    factor 1/(1 - t^v) runs a[l] += a[l - v] one layer at a time along the
    first axis v moves, with the slices of the other axes clamped to the box."""
    shape = tuple(x + 1 for x in hi)
    a = np.zeros(shape, dtype=np.int64)
    for e, c in series.numerator.terms:
        if leq(e, hi):
            a[e] += c
    for v in series.denominator:
        axis = next(i for i, x in enumerate(v) if x)
        dst = [slice(x, n) for x, n in zip(v, shape)]
        src = [slice(0, max(n - x, 0)) for x, n in zip(v, shape)]
        for pos in range(v[axis], shape[axis]):
            dst[axis], src[axis] = pos, pos - v[axis]
            a[tuple(dst)] += a[tuple(src)]
    return a


def all_nonempty_subsets(r: int):
    for size in range(1, r + 1):
        yield from itertools.combinations(range(1, r + 1), size)


def _by_subset(subseries: dict, r: int | None) -> tuple[dict, int]:
    """The series keyed by sorted subset, and r; InvalidSeries when a
    nonempty subset of 1..r has no series."""
    table = {tuple(sorted(k)): v for k, v in subseries.items()}
    if r is None:
        r = len(max(table, key=len))
    missing = [J for J in all_nonempty_subsets(r) if J not in table]
    if missing:
        raise InvalidSeries(f"missing subcurve series for branch subsets {missing}")
    return table, r


def conductor_bound(subseries: dict[Subset, RationalSeries], r: int) -> Point:
    """A bound U >= c on the conductor, read off the series alone:

        U_i = max(c(S_i), 1 + max{a_i : a in supp P_J, |J| >= 2, i in J}),

    where c(S_i) is the degree of the polynomial (1 - t) P_{i}.  Nothing
    is expanded: a polynomial Q with Q * prod (1 - t^v) = N has degree
    deg_i N - sum_v v_i in each variable, since the top t_i-degree parts
    multiply to a nonzero product.  So U needs the degrees of the
    numerators only, and it is a bound once ``require_polynomials`` has
    passed.  InvalidSeries when a subset has no series or a branch series
    is 0.

    Proof that U >= c.  Write the numerator of H as
    N = sum_J (-1)^(|J|-1) t^(e_J) P_J.  The step h(l + e_i) - h(l) is
    the sum of N over the slice {l' <= l + e_i : l'_i = l_i + 1}.  Only
    the P_J with i in J reach that slice.  If l_i >= 1 + a_i for every
    term a of every P_J with |J| >= 2 and i in J, only t_i P_{i} is left,
    and the step is the coefficient of t^(l_i) in P_{i}.  If also
    l_i >= c(S_i), that coefficient is the sum of the coefficients of
    (1 - t) P_{i}, which is 1 for a germ.  So every step along axis i at
    a point with l_i >= U_i is 1.  Now let p = c with p_i = min(c_i, U_i)
    and take l >= p.  If l_i >= c_i then l >= c is a member.  Otherwise
    l_i >= U_i, so the step along i at l is 1, and for j != i the member
    max(l, c) has j-th coordinate l_j and lies above l, so the step along
    j is 1 too.  A point whose r steps are all 1 is a member (the minimum
    of its r witnesses, by min-closure), so p + N^r lies in S.  The
    points q with q + N^r inside S are closed under componentwise minima
    (l >= min(q, q') is the minimum of max(l, q) and max(l, q')), and c is
    the least of them, so c <= p and c_i <= U_i.
    """
    table, r = _by_subset(subseries, r)
    bound = [0] * r
    for J, series in table.items():
        exps = [e for e, _ in series.numerator.terms]
        if not exps:
            if len(J) == 1:
                raise InvalidSeries(f"series '{J[0]}' is 0, so the branch has no conductor")
            continue
        # deg (1 - t) P_{i} = deg P_{i} + 1, and U_i >= 1 + deg_i P_J
        degrees = [max(column) + 1 for column in zip(*exps)]
        for v in series.denominator:
            degrees = [d - x for d, x in zip(degrees, v)]
        for i, d in zip(J, degrees):
            bound[i - 1] = max(bound[i - 1], d)
    return tuple(bound)


def _lines(terms: dict[Point, int], v: Point) -> dict[Point, list]:
    """The terms grouped by line l0 + k v, as (k, coefficient) pairs."""
    lines: dict[Point, list] = {}
    for e, c in terms.items():
        k = min(x // y for x, y in zip(e, v) if y)
        base = tuple(x - k * y for x, y in zip(e, v))
        lines.setdefault(base, []).append((k, c))
    return lines


def _quotient(lines: dict[Point, list], v: Point) -> dict[Point, int]:
    """terms / (1 - t^v) from the lines of terms that each add up to 0:
    the quotient q has q(l) = terms(l) + q(l - v), so on each line it is
    the running sum of the terms."""
    quotient = {}
    for base, line in lines.items():
        line.sort()
        run = 0
        for (k, c), (stop, _) in zip(line, line[1:]):
            run += c
            if run:
                for j in range(k, stop):
                    quotient[tuple(x + j * y for x, y in zip(base, v))] = run
    return quotient


def _times_one_minus_t(terms: dict[Point, int]) -> dict[Point, int]:
    times = {}
    for (k,), c in terms.items():
        times[(k,)] = times.get((k,), 0) + c
        times[(k + 1,)] = times.get((k + 1,), 0) - c
    return {e: c for e, c in times.items() if c}


def require_polynomials(subseries: dict[Subset, RationalSeries]) -> None:
    """Every P_J with |J| >= 2, and (1 - t) P_{i} for every branch, must
    divide out to a polynomial by exact division by each (1 - t^v): the
    series of a germ do, and ``conductor_bound`` reads their degrees.
    InvalidSeries names the first subset that does not.  A quotient by
    (1 - t^v) is a polynomial iff the terms on every line l0 + k v add up
    to 0; it is formed only where another factor is left to divide."""
    for J in sorted(subseries):
        series = subseries[J]
        terms, den = series.numerator.as_dict(), list(series.denominator)
        if len(J) == 1 and (1,) in den:
            den.remove((1,))  # (1 - t) P_J is the numerator over the rest
        elif len(J) == 1:
            terms = _times_one_minus_t(terms)
        for k, v in enumerate(den):
            lines = _lines(terms, v)
            if any(sum(c for _, c in line) for line in lines.values()):
                key = ",".join(map(str, J))
                what = "(1 - t) times it" if len(J) == 1 else "it"
                raise InvalidSeries(
                    f"series '{key}' does not divide out: {what} is not a polynomial"
                )
            if k + 1 < len(den):
                terms = _quotient(lines, v)


def hilbert_from_poincare(
    subseries: dict[Subset, RationalSeries], bound: Point, r: int | None = None
) -> HilbertGrid:
    """Hilbert grid on R(0, bound) from the Poincare series of every
    nonempty branch subset, each expanded on its own face.

    Raises InvalidSeries when the inputs are inconsistent (the resulting
    grid violates a Hilbert-function invariant).
    """
    table, r = _by_subset(subseries, r)
    num = np.zeros(tuple(b + 1 for b in bound), dtype=np.int64)
    for J in all_nonempty_subsets(r):
        # a face with a zero bound gives an empty box and adds nothing
        coeffs = expand(table[J], tuple(bound[j - 1] - 1 for j in J))
        at = tuple(slice(1, None) if i in J else 0 for i in range(1, r + 1))
        num[at] += coeffs if len(J) % 2 else -coeffs
    # divide by prod (1 - t_i): cumulative sums
    for axis in range(r):
        np.cumsum(num, axis=axis, out=num)
    grid = HilbertGrid(r=r, bound=tuple(bound), values=num)
    try:
        grid.validate()
    except Exception as exc:
        raise InvalidSeries(f"series inputs produce an invalid Hilbert grid: {exc}")
    return grid
