"""Motivic Poincare series coefficients and their specializations.

The coefficient of t^l is the q-polynomial

    p_l(q) = sum over J of (-1)^(|J|+1) * (q^h(l) + ... + q^(h(l+e_J)-1)).

With D_J(l) = h(l+e_J) - h(l), the coefficient of q^(h(l)+i) is therefore

    C[l, i] = sum over J of (-1)^(|J|+1) * [D_J(l) > i],    0 <= i < r,

a signed count.  ``coefficient_terms`` reads it at the points a caller
sums, and only there, as exact int64 rows (l, e, c) of the nonzero
terms c q^e t^l; no rational arithmetic ever happens.  The substitution
t_i -> 1/omega, q -> omega^2 sends q^e t^l to omega^(2e - |l|); its
truncations sum all of N^r, on a grid bound certified through the
coordinatewise growth of w beyond the conductor.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import (
    InconsistentInput,
    MarginTooSmall,
    TruncationUnsound,
)
from .lattice import (
    HilbertGrid,
    Point,
    Record,
    WeightGrid,
    conductor_values,
    corner_values,
    leq,
    level_rows,
    require_cube,
    rows_where,
)


class QPoly(Record):
    """Integer polynomial in q, sparse and normalized."""

    _fields = ("coeffs",)

    def __init__(self, coeffs: tuple = ()):
        # coeffs: a tuple of (exponent, coefficient), sorted
        vars(self).update(coeffs=coeffs)

    @staticmethod
    def from_dict(d: dict[int, int]) -> "QPoly":
        return QPoly(tuple(sorted((e, c) for e, c in d.items() if c)))

    def as_dict(self) -> dict[int, int]:
        return dict(self.coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs

    def order(self) -> int:
        if not self.coeffs:
            raise ValueError("the zero polynomial has no order")
        return self.coeffs[0][0]

    def coeff(self, j: int) -> int:
        return dict(self.coeffs).get(j, 0)

    def __add__(self, other: "QPoly") -> "QPoly":
        d = dict(self.coeffs)
        for e, c in other.coeffs:
            d[e] = d.get(e, 0) + c
        return QPoly.from_dict(d)


class LaurentSeries(Record):
    """Integer Laurent series known exactly up to a truncation order."""

    _fields = ("order", "coeffs", "truncation")

    def __init__(self, order: int, coeffs: tuple, truncation: int):
        # coeffs: the coefficients of omega^order .. omega^truncation
        vars(self).update(order=order, coeffs=coeffs, truncation=truncation)

    def coeff(self, n: int) -> int:
        if n > self.truncation:
            raise MarginTooSmall(f"series only known through order {self.truncation}")
        if n < self.order:
            return 0
        return self.coeffs[n - self.order]

    def leading(self) -> int:
        return self.coeffs[0]


def motivic_coeff(h: HilbertGrid, ell: Point) -> QPoly:
    """The coefficient polynomial of t^l; zero exactly when l is not a
    semigroup value.  Checked by ``lattice.require_cube``."""
    ell = require_cube(ell, h.bound)
    terms = coefficient_terms(h, np.array([ell], dtype=np.int64))
    return QPoly(tuple(zip(terms[:, h.r].tolist(), terms[:, h.r + 1].tolist())))


def coefficient_terms(h: HilbertGrid, at: np.ndarray) -> np.ndarray:
    """The nonzero terms c q^e t^l of p_l(q) for each point l, a row of
    the int64 array ``at``, as int64 rows (l_1, ..., l_r, e, c), by point
    and then by exponent.  The row of l reads h at each l + e_J
    (``lattice.corner_values``), so every l + e must lie in the grid.
    Each c is a signed count over the 2^r - 1 subsets J, so int64 is exact:
    C[l, i] is the product of [D_J(l) > i] with the subset signs, one
    matrix product per level i for every l at once."""
    r = h.r
    signs = _per_r(r)[0]
    tops = corner_values(h, at)
    rise = tops - tops[:, :1]  # D_J(l), one column per subset J
    counts = np.empty((len(at), r), dtype=np.int64)  # C[l, i]
    for i in range(r):
        counts[:, i] = (rise > i) @ signs
    row, i = counts.nonzero()
    terms = np.empty((len(row), r + 2), dtype=np.int64)
    terms[:, :r] = at[row]
    terms[:, r] = tops[row, 0] + i
    terms[:, r + 1] = counts[row, i]
    return terms


@functools.lru_cache(maxsize=16)
def _per_r(r: int) -> tuple[np.ndarray, np.ndarray]:
    """Built once for each r, read-only: the sign (-1)^(|J|+1) of each
    subset J of r axes, in order of J, and the weights (-1, ..., -1, 2)
    that take a term row (l, e) to its omega order 2e - |l|."""
    signs = np.array([(-1) ** (bin(J).count("1") + 1) for J in range(1 << r)])
    lift = np.array([-1] * r + [2])
    signs.flags.writeable = lift.flags.writeable = False
    return signs, lift


def _tally(keys: np.ndarray, values: np.ndarray) -> dict[int, int]:
    """Exact integer sums of ``values`` grouped by ``keys`` (nonzero sums)."""
    if keys.size == 0:
        return {}
    lo = int(keys.min())
    acc = np.zeros(int(keys.max()) - lo + 1, dtype=np.int64)
    np.add.at(acc, keys - lo, values)
    return {lo + k: int(v) for k, v in enumerate(acc.tolist()) if v}


def univariate_motivic(h: HilbertGrid, d: int) -> QPoly:
    """Sum of the coefficient polynomials over |l| = d."""
    return _levels(h, d, d)[0]


def univariate_levels(h: HilbertGrid, depth: int) -> list[QPoly]:
    """``univariate_motivic(h, d)`` for d = 0..depth, from one terms read."""
    return _levels(h, 0, depth)


def _levels(h: HilbertGrid, lo: int, hi: int) -> list[QPoly]:
    """The level sums over |l| = d for each d = lo..hi, each level read
    whole (``lattice.level_rows``), from the terms of those points only."""
    r = h.r
    terms = coefficient_terms(h, level_rows(lo, hi, h.bound))
    span = hi + r  # every e = h(l) + i <= |l| + r - 1 is below it
    sums = _tally(terms[:, :r].sum(axis=1) * span + terms[:, r], terms[:, r + 1])
    levels = {d: {} for d in range(lo, hi + 1)}
    for key, c in sums.items():
        levels[key // span][key % span] = c
    return [QPoly.from_dict(level) for level in levels.values()]


def certify_truncation(w: WeightGrid, depth: int) -> bool:
    """True when every point outside R(0, bound - e) has weight > depth:
    the rule that the bound of an omega series through omega^depth obeys.

    Uses: w strictly increases along axis i from any point with
    l_i >= c_i, so omitted points dominate boundary points by at least 1.
    The faces are read in closed form: with b_i - 1 >= c_i, the least w on
    the face l_i = b_i - 1 of R(0, bound - e) is the least w on the face
    l_i = c_i of R(0, c), plus b_i - 1 - c_i (l' = min(l, c) lies on that
    face, and the least w is at l = l' where l_j <= c_j for j != i).
    """
    c = w.conductor
    inner = tuple(b - 1 for b in w.bound)
    if not leq(c, inner):
        return False
    sub = conductor_values(w)
    faces = (int(sub.take([-1], axis=i).min()) + inner[i] - c[i] for i in range(w.r))
    return min(faces) >= depth


def omega_substitution(h: HilbertGrid, w: WeightGrid, depth: int) -> LaurentSeries:
    """Coefficients of the substituted series through omega^depth.

    The term c q^e t^l lands at order 2e - |l| = w(l) + 2i for
    e = h(l) + i, and a point of weight w(l) > depth has no term through
    omega^depth.  The series is the sum over all of N^r whatever the
    bound; a bound that ``certify_truncation`` rejects raises
    TruncationUnsound, and ``classify.certified_omega`` grows past it.

    Past the conductor every point repeats one of R(0, c).  With
    l' = min(l, c) and the closed form h(l) = h(l') + |l - l'| of
    ``hilbert_from_semigroup``, each step D_J(l) equals D_J(l') (a step
    along an axis with l_i >= c_i is 1 at both), so the terms of l are
    those of l' moved |l - l'| orders up.  The points with min(l, c) = l'
    are l' + x for x >= 0 on the a axes where l'_i = c_i, and
    C(n + a - 1, n) of them have |x| = n (one, x = 0, when a = 0), the
    coefficient of t^n in 1 / (1 - t)^a.  So the series sums the
    ``coefficient_terms`` of the points of R(0, c) with w(l') <= depth
    only: the terms of each a are summed by order, and a running sums
    over the orders spread them as the points past c repeat them (a sum
    of a running sums, taken from the largest a down).  A running sum
    carries a term to higher orders only, so a term past depth is summed
    and then cut.
    """
    if not certify_truncation(w, depth):
        raise TruncationUnsound(
            f"grid {w.bound} cannot certify the omega-series through {depth}"
        )
    r = w.r
    terms = coefficient_terms(h, rows_where(conductor_values(w) <= depth))
    orders = terms[:, : r + 1] @ _per_r(r)[1]
    lo = int(orders.min(initial=depth))
    width = int(orders.max(initial=depth)) - lo + 1
    axes = (terms[:, :r] == w.conductor).sum(axis=1)
    spread = np.zeros((r + 1) * width, dtype=np.int64)  # by a, then by order
    np.add.at(spread, axes * width + orders - lo, terms[:, r + 1])
    spread = spread.reshape(r + 1, width)
    series = spread[r]
    for a in range(r - 1, -1, -1):
        series = spread[a] + series.cumsum()
    series = series[: depth - lo + 1]
    nonzero = series.nonzero()[0]
    if not len(nonzero):
        raise InconsistentInput("substituted series vanished entirely")
    return LaurentSeries(
        order=int(lo + nonzero[0]),
        coeffs=tuple(series[nonzero[0]:].tolist()),
        truncation=depth,
    )
