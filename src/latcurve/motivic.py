"""Motivic Poincare series coefficients and their specializations.

The coefficient of t^l is the q-polynomial

    p_l(q) = sum over J of (-1)^(|J|+1) * (q^h(l) + ... + q^(h(l+e_J)-1)),

each telescoped difference (q^a - q^b)/(1-q) expanded symbolically, so no
rational arithmetic ever happens.  The omega substitution t_i -> 1/omega,
q -> omega^2 sends the monomial q^(h(l)+k) t^l to omega^(w(l)+2k); its
truncations are certified through the coordinatewise growth of w beyond
the conductor.
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
    level_points,
    norm,
    ones,
    padd,
    pmin,
    unit,
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
    """The coefficient polynomial of t^l; zero exactly when l is not a
    semigroup value."""
    r = h.r
    ell = tuple(ell)
    if not leq(padd(ell, ones(r)), h.bound):
        raise MarginTooSmall(f"need {ell} + e inside the grid {h.bound}")
    base = h.h(ell)
    acc: dict[int, int] = {}
    for size in range(1, r + 1):
        sign = 1 if size % 2 == 1 else -1
        for J in itertools.combinations(range(r), size):
            top = h.h(tuple(x + (1 if i in J else 0) for i, x in enumerate(ell)))
            for e in range(base, top):
                acc[e] = acc.get(e, 0) + sign
    return QPoly.from_dict(acc)


def univariate_motivic(h: HilbertGrid, d: int) -> QPoly:
    """Sum of the coefficient polynomials over |l| = d."""
    if any(d + 1 > b for b in h.bound):
        raise MarginTooSmall(
            f"level {d} needs every axis bound >= {d + 1}, grid is {h.bound}"
        )
    total = QPoly()
    for ell in level_points(h.r, d, h.bound):
        total = total + motivic_coeff(h, ell)
    return total


def certify_truncation(w: WeightGrid, depth: int) -> bool:
    """True when every lattice point outside R(0, bound - e) provably has
    weight > depth, so the omega series through omega^depth is exact.

    Uses: w strictly increases along axis i from any point with
    l_i >= c_i, so omitted points dominate boundary points by at least 1.
    """
    c = w.conductor
    if c is None:
        return False
    inner = tuple(b - 1 for b in w.bound)
    if not leq(c, inner):
        return False
    boundary_min = None
    sub = w.values[tuple(slice(0, b + 1) for b in inner)]
    for i in range(w.r):
        face = sub[tuple(inner[j] if j == i else slice(None) for j in range(w.r))]
        m = int(face.min()) if face.size else 0
        boundary_min = m if boundary_min is None else min(boundary_min, m)
    return boundary_min is not None and boundary_min >= depth


def omega_substitution(h: HilbertGrid, w: WeightGrid, depth: int) -> LaurentSeries:
    """Coefficients of the substituted series through omega^depth.

    The term of l at q^(h(l)+k) lands at order w(l) + 2k.  Raises
    TruncationUnsound when the grid cannot certify the tail.
    """
    if not certify_truncation(w, depth):
        raise TruncationUnsound(
            f"grid {w.bound} cannot certify the omega-series through {depth}"
        )
    inner = tuple(b - 1 for b in w.bound)
    acc: dict[int, int] = {}
    for ell in box(inner).points():
        p = motivic_coeff(h, ell)
        if p.is_zero():
            continue
        ln = norm(ell)
        for e, cval in p.coeffs:
            order = 2 * e - ln
            if order <= depth:
                acc[order] = acc.get(order, 0) + cval
    if not acc:
        raise InconsistentInput("substituted series vanished entirely")
    orders = [o for o, cval in acc.items() if cval]
    lo = min(orders)
    coeffs = tuple(acc.get(o, 0) for o in range(lo, depth + 1))
    return LaurentSeries(order=lo, coeffs=coeffs, truncation=depth)


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
    supp = {tuple(p) for p, q in coeffs.items() if not q.is_zero()}
    if (0,) * r not in supp:
        raise InconsistentInput("support must contain 0")
    big = max(bound) + 1
    mins: dict[Point, Point] = {}
    for p in sorted(box(bound).points(), reverse=True):
        best = (big,) * r
        for i in range(r):
            if p[i] + 1 <= bound[i]:
                q = padd(p, unit(r, i))
                best = pmin(best, mins[q])
        if p in supp:
            best = pmin(best, p)
        mins[p] = best
    values = np.zeros(tuple(b + 1 for b in bound), dtype=np.int64)
    for p in box(bound).points():
        s = mins[p]
        if s[0] >= big or s not in supp:
            raise InconsistentInput(
                f"no unique minimal support point above {p}; support not min-closed"
            )
        values[p] = coeffs[s].order()
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
