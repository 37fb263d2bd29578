"""Refined first-page entries of the level-filtration spectral sequence
and minimal spectral cycle groups.

The refined entry at a lattice point l in homological degree k and
weight n is the relative homology H_k(S_n cap B, S_n cap A) of the pair
with B = R(l, l+e) and A the subcomplex of B spanned by every vertex
except l.  The relative chain complex collapses to the subset complex on
{I subset of {1..r} : every vertex of the cube (l, I) has weight <= n},
so each query touches at most 2^r cells.

That family is a down-set, held as a 2^r-bit mask (bit I for subset I).
Every query makes one read (``_ranks``) of the rows l it needs, each
level or box from ``lattice``: one point, a level, the levels below
j*|m| and j*m, or a ``pe_series`` box (one read per degree).  The read
gathers the 2^r corners of every row at once (``lattice.corner_values``),
within the grid budget, and reduces each distinct mask once: a process
keeps the ranks of the last 1024 (mask, r, degree) it reduced
(``_rank``), and no output depends on them.

Entries are torsion-free and vanish unless n = w(l) + k; both facts are
enforced, not assumed, at every point a query reads.
"""

from __future__ import annotations

import functools
from math import comb

import numpy as np

from .errors import LatcurveError, TorsionFound, UndefinedWeight, cut
from .lattice import Point, Record, WeightGrid, box_rows, corner_values, level_rows
from .lattice import norm, require_cube, require_grid, scale, values_at
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


@functools.lru_cache(maxsize=1024)
def _rank(pattern: int, r: int, k: int) -> tuple[int, tuple]:
    """(rank, torsion) of the subset complex of a mask in degree k: the
    refined rank, and the torsion of the boundary out of degree k + 1, a
    tuple.  A column is a subset's faces (less one axis; a down-set holds
    them) keyed by their own bits, with alternating signs.  Only degrees
    k and k + 1 are reduced, once per (mask, r, k) among the last 1024."""
    subsets = [sub for sub in range(1 << r) if pattern >> sub & 1]

    def boundary(dim):  # the empty subset has no face
        cols = []
        for sub in subsets:
            if sub and sub.bit_count() == dim:
                col, sign, m = {}, 1, sub
                while m:  # drop the lowest axis left in m
                    low = m & (m - 1)
                    col[sub ^ m ^ low] = sign
                    sign, m = -sign, low
                cols.append(col)
        return smith_invariants(cols) if cols else (0, [])

    rank_up, torsion = boundary(k + 1)
    cells = sum(sub.bit_count() == k for sub in subsets)  # of degree k
    return cells - boundary(k)[0] - rank_up, tuple(torsion)


def _masks(corners: np.ndarray, n, r: int) -> tuple[list[int], np.ndarray]:
    """The masks at weight n (an int, or an (N, 1) column) of the N rows
    of ``corners``, the weights at l + e_J (column J): one per distinct
    set of vertices of weight > n, and each row's index among them.  I
    is refused iff it holds such a J.  The distinct sets, ``width`` bytes
    a row, are one integer; per axis i one OR shifts the subsets without
    i (runs of 2^i bits every 2^(i+1), in step with each row's 8 * width
    bits) up 2^i, onto the same subsets with i.  Masks are complements."""
    bits = np.packbits(corners > n, axis=1, bitorder="little")
    rows = bits.view(f"V{bits.shape[1]}").ravel()  # 1-d: faster than axis=0
    index = np.zeros(1, dtype=np.intp)  # one row: nothing to sort
    if len(rows) != 1:
        rows, index = np.unique(rows, return_inverse=True)
        index = index.reshape(-1)
    width, data = rows.itemsize, rows.tobytes()
    ones = (1 << 8 * len(data)) - 1
    refused = int.from_bytes(data, "little")
    for i in range(r):
        step = 1 << i
        refused |= (refused & ones // ((1 << 2 * step) - 1) * ((1 << step) - 1)) << step
    subsets = ones // ((1 << 8 * width) - 1) * ((1 << (1 << r)) - 1)
    kept = (subsets & ~refused).to_bytes(len(data), "little")
    return [int.from_bytes(kept[j:j + width], "little") for j in range(0, len(kept), width)], index


def _ranks(w: WeightGrid, at: np.ndarray, k: int, n) -> np.ndarray:
    """Refined ranks in degree k at weight n (an int, or an (N, 1) column)
    at the N rows l of the int64 array ``at``, each with l + e inside the
    grid.  The N 2^r corners it gathers are held to the grid budget
    (GridTooLarge), and each distinct mask is reduced once.  No entry may
    have torsion, and a nonzero entry needs n = w(l) + k; the first
    failing row in order of (|l|, l) raises, so rows of one |l| must come
    in lexicographic order."""
    r = w.r
    if k < 0 or k > r:  # no cell of degree k, so no rank and no torsion
        return np.zeros(len(at), dtype=np.int64)
    require_grid((len(at) - 1, (1 << r) - 1), f"the corners of {len(at)} E1 rows, as the grid")
    corners = corner_values(w, at)
    masks, index = _masks(corners, n, r)
    reduced = [_rank(mask, r, k) for mask in masks]
    rank = np.array([rk for rk, _ in reduced], dtype=np.int64)[index]
    torsion = np.array([bool(t) for _, t in reduced], dtype=bool)[index]
    off = corners[:, :1] + k != n  # the support law, as a column
    bad = (torsion | (rank != 0) & off[:, 0]).nonzero()[0]
    if len(bad):
        i = bad[np.argmin(at[bad].sum(axis=1))]
        ell, n = tuple(at[i].tolist()), int(np.broadcast_to(n, off.shape)[i, 0])
        if torsion[i]:
            raise TorsionFound(
                f"E1 entry at l={ell}, k={k}, n={n} has torsion {list(reduced[index[i]][1])}"
            )
        raise LatcurveError(
            f"support law violated: nonzero entry at l={ell}, k={k}, n={n} "
            f"but w(l)+k = {corners[i, 0] + k}"
        )
    return rank


def e1_refined(w: WeightGrid, ell: Point, k: int, n: int) -> E1Entry:
    """Rank of the refined E1 entry at l; degree q = |l| + k.  Checked by
    ``lattice.require_cube``."""
    ell = require_cube(ell, w.bound)
    rank = int(_ranks(w, np.array([ell], dtype=np.int64), k, n)[0])
    return E1Entry(ell=ell, d=norm(ell), k=k, n=n, rank=rank)


def e1_level(w: WeightGrid, d: int, k: int, n: int) -> E1Entry:
    """Level entry: sum of refined ranks over |l| = d, read whole."""
    rank = _ranks(w, level_rows(d, d, w.bound), k, n).sum()
    return E1Entry(ell=None, d=d, k=k, n=n, rank=int(rank))


def minimal_spectral_cycles(w: WeightGrid, k: int, n: int) -> MinimalCycleGroup:
    """The group of minimal spectral k-cycles of weight n.

    Defined when |m| >= 3 and n = (2 - |m|) j + k for a natural j; the
    group is the refined entry at l = j*m, and the vanishing of every
    level entry below j*|m| is assert-checked.  Once j*m and the levels
    below j*|m| are known to fit, one read takes those levels and then
    j*m, so every entry check comes before the vanishing check.
    """
    m = w.multiplicity
    mm = norm(m)
    if mm < 3:
        raise UndefinedWeight(f"minimal spectral cycles need |m| >= 3, got {mm}")
    num = k - n
    if num < 0 or num % (mm - 2) != 0:
        raise UndefinedWeight(
            f"no natural j solves n = (2-|m|)j + k for k={cut(k)}, n={cut(n)}, |m|={mm}"
        )
    j = num // (mm - 2)
    ell = require_cube(scale(j, m), w.bound)
    top = j * mm
    below = level_rows(0, top - 1, w.bound)
    rank = _ranks(w, np.vstack([below, [ell]]), k, n)
    low = np.bincount(below.sum(axis=1), rank[:-1])
    if low.any():
        d = int(np.flatnonzero(low)[0])
        raise LatcurveError(
            f"vanishing below level {top} fails at d={d} (rank {int(low[d])})"
        )
    bound = comb(w.r - 1, k) if 0 <= k <= w.r - 1 else 0
    if rank[-1] > bound:
        raise LatcurveError(
            f"minimal cycle rank {rank[-1]} exceeds the bound C({w.r - 1},{k})"
        )
    return MinimalCycleGroup(k=k, n=n, j=j, rank=int(rank[-1]))


def pe_series(w: WeightGrid, bounds: Point) -> dict[tuple[Point, int, int], int]:
    """Truncated multigraded rank table of the refined E1 page.

    Maps (l, n, k) -> rank over l in R(0, bounds), k = 0..r-1, with
    n = w(l) + k (the only weight where the entry can be nonzero); zero
    ranks are dropped.  The box is checked at its top corner.
    """
    at = box_rows(bounds, w.bound)
    weights = values_at(w, at)
    ranks = np.stack([_ranks(w, at, k, weights[:, None] + k) for k in range(w.r)], axis=-1)
    hits = np.argwhere(ranks)  # (l, k) in lexicographic order
    rows, ks = hits[:, 0], hits[:, 1]
    keys = zip(map(tuple, at[rows].tolist()), (weights[rows] + ks).tolist(), ks.tolist())
    return dict(zip(keys, ranks[rows, ks].tolist()))
