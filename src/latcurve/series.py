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
per axis.  The inverse direction recovers the Poincare coefficients as
the alternating sum p(l) = sum_J (-1)^(|J|+1) h(l + e_J).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidSeries, MarginTooSmall
from .lattice import HilbertGrid, Point, leq

Subset = tuple[int, ...]  # sorted 1-based branch indices


@dataclass(frozen=True)
class MultiPoly:
    """Integer polynomial in r variables, sparse exponent -> coefficient."""

    r: int
    terms: tuple = field(default=())  # tuple of (exponent Point, coeff)

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


@dataclass(frozen=True)
class RationalSeries:
    """numerator / prod (1 - t^v) with each v a nonzero exponent vector
    in the numerator's r variables."""

    numerator: MultiPoly
    denominator: tuple = ()  # tuple of Points

    def __post_init__(self):
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


def hilbert_from_poincare(
    subseries: dict[Subset, RationalSeries], bound: Point, r: int | None = None
) -> HilbertGrid:
    """Hilbert grid on R(0, bound) from the Poincare series of every
    nonempty branch subset, each expanded on its own face.

    Raises InvalidSeries when the inputs are inconsistent (the resulting
    grid violates a Hilbert-function invariant).
    """
    table = {tuple(sorted(k)): v for k, v in subseries.items()}
    if r is None:
        r = len(max(table, key=len))
    missing = [J for J in all_nonempty_subsets(r) if J not in table]
    if missing:
        raise InvalidSeries(f"missing subcurve series for branch subsets {missing}")
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


def poincare_from_hilbert(h: HilbertGrid, conductor: Point | None = None) -> MultiPoly:
    """Poincare coefficients p(l) = sum_J (-1)^(|J|+1) h(l+e_J) on
    R(0, bound - e)."""
    r = h.r
    if any(b < 1 for b in h.bound):
        raise MarginTooSmall("need at least one unit of margin in every axis")
    if conductor is not None and not leq(
        tuple(c + 1 for c in conductor), h.bound
    ):
        raise MarginTooSmall(
            f"support may be truncated: bound {h.bound} < conductor {conductor} + e"
        )
    # p = (-1)^(r+1) * (forward difference in every axis)
    diff = h.values.astype(np.int64)
    for axis in range(r):
        lo = tuple(slice(0, -1) if j == axis else slice(None) for j in range(r))
        hi = tuple(slice(1, None) if j == axis else slice(None) for j in range(r))
        diff = diff[hi] - diff[lo]
    out = {}
    for idx in np.argwhere(diff):
        p = tuple(int(x) for x in idx)
        out[p] = int(diff[p]) if r % 2 == 1 else -int(diff[p])
    return MultiPoly.from_dict(r, out)
