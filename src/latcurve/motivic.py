"""Motivic Poincare series coefficients and their specializations.

The coefficient of t^l is the q-polynomial

    p_l(q) = sum over J of (-1)^(|J|+1) * (q^h(l) + ... + q^(h(l+e_J)-1)).

With D_J(l) = h(l+e_J) - h(l), the coefficient of q^(h(l)+i) is therefore

    C[l, i] = sum over J of (-1)^(|J|+1) * [D_J(l) > i],    0 <= i < r,

an exact int64 array over the grid, built from shifted slices of the
Hilbert grid (``coefficient_array``); no rational arithmetic ever happens.
``motivic_coeff`` reads the same array on the cube R(l, l + e) of one
point.  The omega substitution t_i -> 1/omega, q -> omega^2 sends the
monomial q^(h(l)+i) t^l to omega^(w(l)+2i); its truncations are certified
through the coordinatewise growth of w beyond the conductor.
"""

from __future__ import annotations

import itertools
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
    box,
    leq,
    min_weight,
    norm,
    norm_array,
    ones,
    padd,
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
    for size in range(1, r + 1):
        sign = 1 if size % 2 == 1 else -1
        for J in itertools.combinations(range(r), size):
            shift = [int(i in J) for i in range(r)]
            top = h.values[tuple(slice(s, b + 1 + s) for s, b in zip(shift, inner))]
            out += sign * ((top - base)[..., None] > steps)
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
    if any(d + 1 > b for b in h.bound):
        raise MarginTooSmall(
            f"level {d} needs every axis bound >= {d + 1}, grid is {h.bound}"
        )
    inner = (d,) * h.r
    coeffs = coefficient_array(h, inner)
    exponents = h.values[window(inner)][..., None] + np.arange(h.r)
    take = (norm_array(coeffs.shape[:-1]) == d)[..., None] & (coeffs != 0)
    return QPoly.from_dict(_tally(exponents[take], coeffs[take]))


def certify_truncation(w: WeightGrid, depth: int) -> bool:
    """True when every lattice point outside R(0, bound - e) provably has
    weight > depth, so the omega series through omega^depth is exact.

    Uses: w strictly increases along axis i from any point with
    l_i >= c_i, so omitted points dominate boundary points by at least 1.
    """
    inner = tuple(b - 1 for b in w.bound)
    if not leq(w.conductor, inner):
        return False
    boundary_min = None
    sub = w.values[window(inner)]
    for i in range(w.r):
        face = sub[tuple(inner[j] if j == i else slice(None) for j in range(w.r))]
        m = int(face.min()) if face.size else 0
        boundary_min = m if boundary_min is None else min(boundary_min, m)
    return boundary_min is not None and boundary_min >= depth


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

    The substitution maps the rank at (l, n, k) to (-1)^k q^(h(l)+k) t^l.
    Returns False on the first mismatching monomial, or raises
    InconsistentInput naming it when strict.
    """
    per_point: dict[Point, dict[int, int]] = {}
    for (ell, n, k), rank in pe.items():
        d = per_point.setdefault(tuple(ell), {})
        e = h.h(tuple(ell)) + k
        d[e] = d.get(e, 0) + (rank if k % 2 == 0 else -rank)
    for ell in box(bounds).points():
        lhs = QPoly.from_dict(per_point.get(ell, {}))
        rhs = motivic_coeff(h, ell)
        if lhs != rhs:
            le, re = lhs.as_dict(), rhs.as_dict()
            bad = sorted(e for e in set(le) | set(re) if le.get(e, 0) != re.get(e, 0))
            if strict:
                raise InconsistentInput(
                    f"substitution identity fails at t^{ell} q^{bad[0]}"
                )
            return False
    return True


def hilbert_from_motivic(
    coeffs: dict[Point, QPoly], r: int, bound: Point
) -> HilbertGrid:
    """Recover the Hilbert grid from the coefficient table.

    h(l) is the q-order of the coefficient at the minimal support point
    above l; the support must therefore be min-closed with a visible
    stable region, otherwise InconsistentInput.
    """
    shape = tuple(b + 1 for b in bound)
    supp = np.zeros(shape, dtype=bool)
    orders = np.zeros(shape, dtype=np.int64)
    for p, q in coeffs.items():
        p = tuple(p)
        if not q.is_zero() and leq(p, bound):
            supp[p] = True
            orders[p] = q.order()
    if not supp[(0,) * r]:
        raise InconsistentInput("support must contain 0")
    mins, p = upset_minima(supp)
    if p is not None:
        raise InconsistentInput(
            f"no unique minimal support point above {p}; support not min-closed"
        )
    values = orders[tuple(np.moveaxis(mins, -1, 0))]
    grid = HilbertGrid(r=r, bound=tuple(bound), values=values)
    try:
        grid.validate()
    except Exception as exc:
        raise InconsistentInput(f"recovered grid invalid: {exc}")
    return grid


def numerator_coeffs(coeffs: dict[Point, QPoly], r: int, bound: Point) -> dict:
    """Coefficients of P^m * prod(1 - t_i q) (the polynomial numerator)
    as {(l, j): int} on R(0, bound)."""
    out: dict[tuple[Point, int], int] = {}
    for p in box(bound).points():
        for size in range(r + 1):
            for J in itertools.combinations(range(r), size):
                q = tuple(x - (1 if i in J else 0) for i, x in enumerate(p))
                if any(x < 0 for x in q):
                    continue
                poly = coeffs.get(q)
                if poly is None:
                    continue
                sign = 1 if size % 2 == 0 else -1
                for e, cval in poly.coeffs:
                    key = (p, e + size)
                    v = out.get(key, 0) + sign * cval
                    if v:
                        out[key] = v
                    elif key in out:
                        del out[key]
    return out


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
    r = len(c)
    region = tuple(outer) if outer is not None else c
    num = numerator_coeffs(coeffs, r, region)
    for (p, j), v in num.items():
        if not leq(p, c):
            return False
        mirror = (tuple(ci - x for ci, x in zip(c, p)), j + delta - norm(p))
        if num.get(mirror, 0) != v:
            return False
    return True
