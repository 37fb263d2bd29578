"""Motivic Poincare series coefficients and their specializations.

The coefficient of t^l is the q-polynomial

    p_l(q) = sum over J of (-1)^(|J|+1) * (q^h(l) + ... + q^(h(l+e_J)-1)).

With D_J(l) = h(l+e_J) - h(l), the coefficient of q^(h(l)+i) is therefore

    C[l, i] = sum over J of (-1)^(|J|+1) * [D_J(l) > i],    0 <= i < r,

an exact int64 array over the grid, built from shifted slices of the
Hilbert grid (``coefficient_array``); no rational arithmetic ever happens.
``motivic_coeff`` reads the same array on the cube R(l, l + e) of one
point and the identities read it whole.  The substitution t_i -> 1/omega,
q -> omega^2 sends q^(h(l)+i) t^l to omega^(w(l)+2i); its truncations are
certified through the coordinatewise growth of w beyond the conductor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    InconsistentInput,
    MarginTooSmall,
    TruncationUnsound,
)
from .lattice import (
    HilbertGrid,
    Point,
    WeightGrid,
    leq,
    min_weight,
    norm_array,
    ones,
    padd,
    require_grid,
    upset_minima,
    window,
)


@dataclass(frozen=True)
class QPoly:
    """Integer polynomial in q, sparse and normalized."""

    coeffs: tuple = ()  # tuple of (exponent, coefficient), sorted

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

    def at_one(self) -> int:
        return sum(c for _, c in self.coeffs)

    def __add__(self, other: "QPoly") -> "QPoly":
        d = dict(self.coeffs)
        for e, c in other.coeffs:
            d[e] = d.get(e, 0) + c
        return QPoly.from_dict(d)


@dataclass(frozen=True)
class LaurentSeries:
    """Integer Laurent series known exactly up to a truncation order."""

    order: int
    coeffs: tuple  # coefficients for omega^order .. omega^truncation
    truncation: int

    def coeff(self, n: int) -> int:
        if n > self.truncation:
            raise MarginTooSmall(f"series only known through order {self.truncation}")
        if n < self.order:
            return 0
        return self.coeffs[n - self.order]

    def leading(self) -> int:
        return self.coeffs[0]


def motivic_coeff(h: HilbertGrid, ell: Point) -> QPoly:
    """The coefficient polynomial of t^l, read off ``coefficient_array``
    on the cube R(l, l + e); zero exactly when l is not a semigroup
    value."""
    r = h.r
    ell = tuple(ell)
    if min(ell) < 0:
        raise MarginTooSmall(f"l={ell} has a negative coordinate")
    if not leq(padd(ell, ones(r)), h.bound):
        raise MarginTooSmall(f"need {ell} + e inside the grid {h.bound}")
    cube = h.values[tuple(slice(x, x + 2) for x in ell)]
    cube = HilbertGrid(r=r, bound=ones(r), values=cube)
    row = coefficient_array(cube, (0,) * r)[(0,) * r].tolist()
    return QPoly.from_dict({h.h(ell) + i: c for i, c in enumerate(row)})


def coefficient_array(h: HilbertGrid, inner: Point) -> np.ndarray:
    """C[l, i], the coefficient of q^(h(l)+i) in p_l(q), for l in
    R(0, inner) and 0 <= i < r (int64, shape grid x r).  Needs inner + e
    inside the grid.  Each entry is a signed count over the 2^r - 1
    subsets J, so int64 is exact."""
    r = h.r
    if not leq(padd(inner, ones(r)), h.bound):
        raise MarginTooSmall(f"need {inner} + e inside the grid {h.bound}")
    base = h.values[window(inner)]
    steps = np.arange(r)
    out = np.zeros(base.shape + (r,), dtype=np.int64)
    for J in range(1, 1 << r):  # the subsets J as bitmasks
        shift = [J >> i & 1 for i in range(r)]
        top = h.values[tuple(slice(s, b + 1 + s) for s, b in zip(shift, inner))]
        out += (-1) ** (sum(shift) + 1) * ((top - base)[..., None] > steps)
    return out


def _tally(keys: np.ndarray, values: np.ndarray) -> dict[int, int]:
    """Exact integer sums of ``values`` grouped by ``keys`` (nonzero sums)."""
    if keys.size == 0:
        return {}
    lo = int(keys.min())
    acc = np.zeros(int(keys.max()) - lo + 1, dtype=np.int64)
    np.add.at(acc, keys - lo, values)
    return {lo + k: int(v) for k, v in enumerate(acc.tolist()) if v}


def univariate_motivic(h: HilbertGrid, d: int) -> QPoly:
    """Sum of the coefficient polynomials over |l| = d, read from the
    coefficient array on R(0, (d, ..., d))."""
    return _levels(h, d, (d,))[0]


def univariate_levels(h: HilbertGrid, depth: int) -> list[QPoly]:
    """``univariate_motivic(h, d)`` for d = 0..depth, all read from one
    coefficient array on R(0, depth e).  A point with |l| = d lies in
    R(0, d e), inside that box, and its row C[l, .] reads h on R(l, l + e)
    only, so it is the same row in either array."""
    return _levels(h, depth, range(depth + 1))


def _levels(h: HilbertGrid, depth: int, levels) -> list[QPoly]:
    """The level sums over |l| = d for each d in ``levels`` (each at most
    depth), from the coefficient array on R(0, depth e)."""
    if any(depth + 1 > b for b in h.bound):
        raise MarginTooSmall(
            f"level {depth} needs every axis bound >= {depth + 1}, grid is {h.bound}"
        )
    inner = (depth,) * h.r
    coeffs = coefficient_array(h, inner)
    exponents = h.values[window(inner)][..., None] + np.arange(h.r)
    norms = norm_array(coeffs.shape[:-1])[..., None]
    nonzero = coeffs != 0
    polys = []
    for d in levels:
        take = (norms == d) & nonzero
        polys.append(QPoly.from_dict(_tally(exponents[take], coeffs[take])))
    return polys


def certify_truncation(w: WeightGrid, depth: int) -> bool:
    """True when every lattice point outside R(0, bound - e) provably has
    weight > depth, so the omega series through omega^depth is exact.

    Uses: w strictly increases along axis i from any point with
    l_i >= c_i, so omitted points dominate boundary points by at least 1.
    """
    inner = tuple(b - 1 for b in w.bound)
    if not leq(w.conductor, inner):
        return False
    sub = w.values[window(inner)]
    return min(int(sub.take(-1, axis=i).min()) for i in range(w.r)) >= depth


def omega_substitution(h: HilbertGrid, w: WeightGrid, depth: int) -> LaurentSeries:
    """Coefficients of the substituted series through omega^depth.

    The term C[l, i] of l at q^(h(l)+i) lands at order w(l) + 2i, and the
    series is the integer sum of the coefficient array by order.  Raises
    TruncationUnsound when the grid cannot certify the tail.

    The sum runs over R(0, min(bound - e, c + (depth - min_w) e)) only.
    A point l past that box has l_i - c_i > depth - min_w on some axis,
    so with l' = min(l, c) the closed form w(l) = w(l') + |l - l'| of
    ``hilbert_from_semigroup`` gives w(l) >= min_w + |l - l'| > depth,
    and every order w(l) + 2i of l lies past the truncation.
    """
    if not certify_truncation(w, depth):
        raise TruncationUnsound(
            f"grid {w.bound} cannot certify the omega-series through {depth}"
        )
    reach = depth - min_weight(w)
    inner = tuple(min(b - 1, ci + reach) for b, ci in zip(w.bound, w.conductor))
    acc = {}
    if reach >= 0:
        coeffs = coefficient_array(h, inner)
        orders = w.values[window(inner)][..., None] + 2 * np.arange(w.r)
        take = (orders <= depth) & (coeffs != 0)
        acc = _tally(orders[take], coeffs[take])
    if not acc:
        raise InconsistentInput("substituted series vanished entirely")
    lo = min(acc)
    return LaurentSeries(
        order=lo,
        coeffs=tuple(acc.get(o, 0) for o in range(lo, depth + 1)),
        truncation=depth,
    )


def pe_substitution_check(
    pe: dict, h: HilbertGrid, bounds: Point, strict: bool = False
) -> bool:
    """Monomial-by-monomial identity between the substituted rank table
    and the motivic coefficients on R(0, bounds).

    The substitution maps the rank at (l, n, k) to (-1)^k q^(h(l)+k) t^l,
    so the table summed per (l, k) must equal ``coefficient_array`` (and
    vanish for k outside 0..r-1); l past R(0, bounds) is not compared.
    Returns False on the first mismatching monomial, or raises
    InconsistentInput naming it when strict.
    """
    r = h.r
    cells = np.array([(*ell, k) for ell, _, k in pe], dtype=np.int64).reshape(-1, r + 1)
    off = ((cells[:, :r] < 0) | (cells[:, :r] > h.bound)).any(axis=1)
    if off.any():  # MarginTooSmall naming the first such l
        h.h(tuple(list(pe)[off.argmax()][0]))
    rhs = coefficient_array(h, bounds)
    signed = np.array(list(pe.values()), dtype=np.int64) * (1 - 2 * (cells[:, r] % 2))
    inside = (cells[:, :r] <= bounds).all(axis=1)
    both = np.concatenate([cells[inside], np.argwhere(rhs)])  # table, then array
    cells, index = np.unique(both, axis=0, return_inverse=True)
    diff = np.zeros(len(cells), dtype=np.int64)
    np.add.at(diff, index.reshape(-1), np.concatenate([signed[inside], -rhs[rhs != 0]]))
    bad = cells[diff != 0].tolist()  # sorted by (l, k)
    if bad and strict:
        ell = tuple(bad[0][:r])
        raise InconsistentInput(
            f"substitution identity fails at t^{ell} q^{h.h(ell) + bad[0][r]}"
        )
    return not bad


def _terms(coeffs: dict[Point, QPoly], r: int) -> np.ndarray:
    """The table as int64 rows (l_1, ..., l_r, exponent, coefficient)."""
    terms = [(*p, e, c) for p, q in coeffs.items() for e, c in q.coeffs]
    return np.array(terms, dtype=np.int64).reshape(-1, r + 2)


def _dense(terms: np.ndarray, r: int, bound: Point, factors: int = 0):
    """The ``_terms`` rows as A[l, e - lo] on R(0, bound), and lo, their
    least exponent, times (1 - t_i q) for the first ``factors`` axes i:
    each factor subtracts the array shifted by e_i and by one power of q,
    into one more zero column on top.  Points outside R(0, bound) are not
    read; an array past the grid budget is a GridTooLarge."""
    terms = terms[((terms[:, :r] >= 0) & (terms[:, :r] <= bound)).all(axis=1)]
    lo, hi = (terms[:, r].min(), terms[:, r].max()) if len(terms) else (0, -1)
    shape = (*bound, int(hi - lo) + factors)
    require_grid(shape, "dense coefficient table")
    out = np.zeros([b + 1 for b in shape], dtype=np.int64)
    out[(*terms[:, :r].T, terms[:, r] - lo)] = terms[:, r + 1]
    for axis in range(factors):
        up = tuple(slice(1, None) if i == axis else slice(None) for i in range(r))
        down = tuple(slice(0, -1) if i == axis else slice(None) for i in range(r))
        out[up + (slice(1, None),)] -= out[down + (slice(0, -1),)]
    return out, int(lo)


def hilbert_from_motivic(
    coeffs: dict[Point, QPoly], r: int, bound: Point
) -> HilbertGrid:
    """Recover the Hilbert grid from the coefficient table.

    h(l) is the q-order of the coefficient at the minimal support point
    above l; the support must therefore be min-closed with a visible
    stable region, otherwise InconsistentInput.
    """
    table, lo = _dense(_terms(coeffs, r), r, bound)
    supp = table.any(axis=-1)
    if not supp[(0,) * r]:
        raise InconsistentInput("support must contain 0")
    mins, p = upset_minima(supp)
    if p is not None:
        raise InconsistentInput(
            f"no unique minimal support point above {p}; support not min-closed"
        )
    values = (lo + (table != 0).argmax(axis=-1))[tuple(np.moveaxis(mins, -1, 0))]
    grid = HilbertGrid(r=r, bound=tuple(bound), values=values)
    try:
        grid.validate()
    except Exception as exc:
        raise InconsistentInput(f"recovered grid invalid: {exc}")
    return grid


def numerator_coeffs(coeffs: dict[Point, QPoly], r: int, bound: Point) -> dict:
    """Coefficients of P^m * prod(1 - t_i q) (the polynomial numerator)
    as {(l, j): int} on R(0, bound)."""
    num, lo = _dense(_terms(coeffs, r), r, bound, factors=r)
    terms = zip(np.argwhere(num).tolist(), num[num != 0].tolist())
    return {(tuple(p[:r]), lo + p[r]): v for p, v in terms}


def gorenstein_functional_check(
    coeffs: dict[Point, QPoly], conductor: Point, delta: int, outer: Point | None = None
) -> bool:
    """Functional equation of the numerator for Gorenstein germs:
    coefficient at (p, j) equals coefficient at (c - p, j + delta - |p|).

    ``coeffs`` must cover R(0, outer or c); when ``outer`` strictly
    dominates c the numerator is additionally required to vanish outside
    R(0, c), which the equation implicitly asserts.
    """
    c = tuple(conductor)
    outer = tuple(outer) if outer is not None else c
    return _functional_equation(_terms(coeffs, len(c)), c, delta, outer)


def gorenstein_array_check(
    h: HilbertGrid, coeffs: np.ndarray, conductor: Point, delta: int
) -> bool:
    """``gorenstein_functional_check`` on ``coeffs = coefficient_array(h,
    outer)``, read without building a polynomial per point: the nonzero
    C[l, i] are the terms q^(h(l)+i) t^l of the table on R(0, outer)."""
    r = h.r
    at = np.argwhere(coeffs)
    exponents = h.values[tuple(at[:, :r].T)] + at[:, r]
    terms = np.column_stack([at[:, :r], exponents, coeffs[coeffs != 0]])
    outer = tuple(n - 1 for n in coeffs.shape[:r])
    return _functional_equation(terms, tuple(conductor), delta, outer)


def _functional_equation(terms: np.ndarray, c: Point, delta: int, outer: Point) -> bool:
    """The functional equation on the ``_terms`` rows of R(0, outer): one
    gather reads the mirror of every numerator term, as 0 off the array
    or past c."""
    r = len(c)
    num, _ = _dense(terms, r, outer, factors=r)
    at = np.argwhere(num)
    q, y = c - at[:, :r], at[:, r] + delta - at[:, :r].sum(axis=1)
    seen = ((q >= 0) & (q < num.shape[:r])).all(axis=1) & (y >= 0) & (y < num.shape[r])
    mirror = np.zeros(len(at), dtype=np.int64)
    mirror[seen] = num[(*q[seen].T, y[seen])]
    return bool(np.array_equal(mirror, num[num != 0]))
