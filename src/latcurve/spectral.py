"""Refined first-page entries of the level-filtration spectral sequence
and minimal spectral cycle groups.

The refined entry at a lattice point l in homological degree k and
weight n is the relative homology H_k(S_n cap B, S_n cap A) of the pair
with B = R(l, l+e) and A the subcomplex of B spanned by every vertex
except l.  The relative chain complex collapses to the subset complex on
{I subset of {1..r} : every vertex of the cube (l, I) has weight <= n},
so each query touches at most 2^r cells.

That family is a down-set, held as a 2^r-bit mask (bit I for subset I).
A point query reads its mask from the corners of its cube; a window of
points (a level, a ``pe_series`` table, the vanishing scan) reads every
mask from one set of ``lattice.cube_max_tables`` and reduces each
distinct mask once per call.

Entries are torsion-free and vanish unless n = w(l) + k; both facts are
enforced, not assumed, at every point a query reads.
"""

from __future__ import annotations

from math import comb

import numpy as np

from .errors import LatcurveError, MarginTooSmall, TorsionFound, UndefinedWeight
from .lattice import Point, Record, WeightGrid, cube_max_tables, norm, norm_array, scale, window
from .lattice import require_grid
from .snf import smith_invariants


class E1Entry(Record):
    """One graded summand of the (refined) E1 page: the refined location
    ``ell`` (None for a level-summed entry), the level d = |l|, the
    homological degree k, the weight n and the rank."""

    _fields = ("ell", "d", "k", "n", "rank")

    def __init__(self, ell: Point | None, d: int, k: int, n: int, rank: int):
        vars(self).update(ell=ell, d=d, k=k, n=n, rank=rank)


class MinimalCycleGroup(Record):
    """Group of minimal spectral k-cycles of weight n (free of the given
    rank, located at l = j*m)."""

    _fields = ("k", "n", "j", "rank")

    def __init__(self, k: int, n: int, j: int, rank: int):
        vars(self).update(k=k, n=n, j=j, rank=rank)

    def __bool__(self) -> bool:
        return self.rank != 0


def _pattern(w: WeightGrid, ell: Point, n: int) -> int:
    """The mask of one base l: the vertices l + e_I of weight <= n, closed
    downward one axis at a time (I with bit i set stays if I - e_i does)."""
    # corners[I] = w(l + e_I): the transposed 2 x ... x 2 block, row-major
    corners = w.values[tuple(slice(x, x + 2) for x in ell)].T.ravel().tolist()
    pattern = sum(1 << sub for sub, value in enumerate(corners) if value <= n)
    full = (1 << len(corners)) - 1
    for i in range(w.r):
        s = 1 << i
        upper = full // ((1 << 2 * s) - 1) * (((1 << s) - 1) << s)  # bit i set
        pattern &= ~upper | pattern << s
    return pattern


def _patterns(w: WeightGrid, hi: Point, at, n) -> tuple[list[int], np.ndarray]:
    """The masks at weight n of the bases ``at`` (index arrays into R(0, hi),
    n an int or an array along them), from one set of cube-max tables:
    the distinct masks, and each base's index among them.  Needs hi + e
    inside the grid."""
    values = w.values[tuple(slice(0, b + 2) for b in hi)]
    admissible = [t[at] <= n for t in cube_max_tables(values, w.r).values()]
    bits = np.packbits(np.stack(admissible, axis=-1), axis=1, bitorder="little")
    rows = bits.view(f"V{bits.shape[1]}").ravel()  # 1-d: faster than axis=0
    keys, index = np.unique(rows, return_inverse=True)
    return [int.from_bytes(key.tobytes(), "little") for key in keys], index.reshape(-1)


def _rank(pattern: int, r: int, k: int) -> tuple[int, list]:
    """(rank, torsion) of the subset complex of a mask in degree k: the
    refined rank, and the torsion of the boundary out of degree k + 1.
    Only the boundaries of degrees k and k + 1 are reduced."""
    if k < 0 or k > r:
        return 0, []
    cells: dict[int, list[int]] = {}
    for sub in range(1 << r):
        if pattern >> sub & 1:
            cells.setdefault(bin(sub).count("1"), []).append(sub)

    def boundary(dim):
        if dim < 1 or dim not in cells:
            return 0, []
        row = {sub: pos for pos, sub in enumerate(cells[dim - 1])}
        cols = []
        for sub in cells[dim]:
            col, sign, m = {}, 1, sub
            while m:
                low = m & (m - 1)
                col[row[sub ^ m ^ low]] = sign  # a down-set holds every face
                sign = -sign
                m = low
            cols.append(col)
        return smith_invariants(cols)

    rank_up, torsion = boundary(k + 1)
    return len(cells.get(k, ())) - boundary(k)[0] - rank_up, torsion


def _check(w: WeightGrid, ell: Point, k: int, n: int, rank: int, torsion: list):
    """The checks on every refined entry: no torsion, and the support law."""
    if torsion:
        raise TorsionFound(f"E1 entry at l={ell}, k={k}, n={n} has torsion {torsion}")
    if rank and n != w.w(ell) + k:
        raise LatcurveError(
            f"support law violated: nonzero entry at l={ell}, k={k}, n={n} "
            f"but w(l)+k = {w.w(ell) + k}"
        )


def _window(w: WeightGrid, k: int, n: np.ndarray, read: np.ndarray) -> np.ndarray:
    """Refined ranks in degree k at the bases of R(0, hi) where ``read``
    holds, in row-major order, at the weights ``n``; both arrays are over
    R(0, hi).  Each distinct mask among those bases is reduced once.  The
    checks of ``e1_refined`` run at every such base, and the first
    failure in order of (|l|, l) raises."""
    points = np.argwhere(read)
    at = tuple(points.T)
    n = n[at]
    patterns, index = _patterns(w, tuple(b - 1 for b in read.shape), at, n)
    reduced = [_rank(pattern, w.r, k) for pattern in patterns]
    rank = np.array([rk for rk, _ in reduced], dtype=np.int64)[index]
    torsion = np.array([bool(t) for _, t in reduced], dtype=bool)[index]
    bad = np.flatnonzero(torsion | (rank != 0) & (w.values[at] + k != n))
    if len(bad):
        i = bad[np.argmin(points[bad].sum(axis=1))]
        _check(w, tuple(points[i].tolist()), k, int(n[i]), *reduced[index[i]])
    return rank


def e1_refined(w: WeightGrid, ell: Point, k: int, n: int) -> E1Entry:
    """Rank of the refined E1 entry at l; degree q = |l| + k.  A cube
    R(l, l + e) past the grid budget is a GridTooLarge, which no grid
    bound mends."""
    ell = tuple(ell)
    if min(ell) < 0:
        raise MarginTooSmall(f"l={ell} has a negative coordinate")
    require_grid(tuple(x + 1 for x in ell), f"the cube at l={ell}, as the grid")
    if any(x >= b for x, b in zip(ell, w.bound)):
        raise MarginTooSmall(f"need {ell} + e inside the grid {w.bound}")
    rank, torsion = _rank(_pattern(w, ell, n), w.r, k)
    _check(w, ell, k, n, rank, torsion)
    return E1Entry(ell=ell, d=norm(ell), k=k, n=n, rank=rank)


def e1_level(w: WeightGrid, d: int, k: int, n: int) -> E1Entry:
    """Level entry: sum of refined ranks over |l| = d."""
    inner = tuple(b - 1 for b in w.bound)
    if any(b < 0 for b in inner) or d > norm(inner):
        raise MarginTooSmall(f"level {d} reaches outside the grid {w.bound}")
    on = norm_array(tuple(max(1, min(b, d + 1)) for b in w.bound)) == d
    rank = int(_window(w, k, np.full(on.shape, n), on).sum())
    return E1Entry(ell=None, d=d, k=k, n=n, rank=rank)


def minimal_spectral_cycles(w: WeightGrid, k: int, n: int) -> MinimalCycleGroup:
    """The group of minimal spectral k-cycles of weight n.

    Defined when |m| >= 3 and n = (2 - |m|) j + k for a natural j; the
    group is the refined entry at l = j*m, and the vanishing of every
    level entry below j*|m| is assert-checked, on one window whose entry
    checks all come before the vanishing check.
    """
    m = w.multiplicity
    mm = norm(m)
    if mm < 3:
        raise UndefinedWeight(f"minimal spectral cycles need |m| >= 3, got {mm}")
    num = k - n
    if num < 0 or num % (mm - 2) != 0:
        raise UndefinedWeight(
            f"no natural j solves n = (2-|m|)j + k for k={k}, n={n}, |m|={mm}"
        )
    j = num // (mm - 2)
    entry = e1_refined(w, scale(j, m), k, n)
    top = j * mm
    if top:  # j*m + e lies inside the grid, so every level below top does
        level = norm_array(tuple(min(b, top) for b in w.bound))
        rank = _window(w, k, np.full(level.shape, n), level < top)
        low = np.bincount(level[level < top], rank)  # entry checks came first
        if low.any():
            d = int(np.flatnonzero(low)[0])
            raise LatcurveError(
                f"vanishing below level {top} fails at d={d} (rank {int(low[d])})"
            )
    bound = comb(w.r - 1, k) if 0 <= k <= w.r - 1 else 0
    if entry.rank > bound:
        raise LatcurveError(
            f"minimal cycle rank {entry.rank} exceeds the bound C({w.r - 1},{k})"
        )
    return MinimalCycleGroup(k=k, n=n, j=j, rank=entry.rank)


def has_maximal_rank(group: MinimalCycleGroup, m: Point) -> bool:
    """rank == C(|m| - 1, k), the combinatorial ceiling."""
    return group.rank == comb(norm(m) - 1, group.k)


def pe_series(w: WeightGrid, bounds: Point) -> dict[tuple[Point, int, int], int]:
    """Truncated multigraded rank table of the refined E1 page.

    Maps (l, n, k) -> rank over l in R(0, bounds), k = 0..r-1, with
    n = w(l) + k (the only weight where the entry can be nonzero); zero
    ranks are dropped.
    """
    if min(bounds) < 0 or any(x >= b for x, b in zip(bounds, w.bound)):
        raise MarginTooSmall(f"need R(0, {bounds}) + e inside the grid {w.bound}")
    weights = w.values[window(bounds)]
    every = np.ones(weights.shape, dtype=bool)
    ranks = [_window(w, k, weights + k, every) for k in range(w.r)]
    ranks = np.stack(ranks, axis=-1).reshape(weights.shape + (w.r,))
    hits = np.argwhere(ranks)  # (l, k) in lexicographic order
    ells, ks = hits[:, :-1], hits[:, -1]
    ns = weights[tuple(ells.T)] + ks
    keys = zip(map(tuple, ells.tolist()), ns.tolist(), ks.tolist())
    return dict(zip(keys, ranks[tuple(hits.T)].tolist()))


def pe_univariate(pe: dict) -> dict[tuple[int, int, int], int]:
    """Collapse a refined table to levels: (d, n, k) -> rank."""
    out: dict[tuple[int, int, int], int] = {}
    for (ell, n, k), rank in pe.items():
        key = (norm(ell), n, k)
        out[key] = out.get(key, 0) + rank
    return out
