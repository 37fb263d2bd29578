"""Refined first-page entries of the level-filtration spectral sequence
and minimal spectral cycle groups.

The refined entry at a lattice point l in homological degree k and
weight n is the relative homology H_k(S_n cap B, S_n cap A) of the pair
with B = R(l, l+e) and A the subcomplex of B spanned by every vertex
except l.  The relative chain complex collapses to the subset complex on
{I subset of {1..r} : every vertex of the cube (l, I) has weight <= n},
so each query touches at most 2^r cells.

Entries are torsion-free and vanish unless n = w(l) + k; both facts are
enforced, not assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .errors import LatcurveError, MarginTooSmall, TorsionFound, UndefinedWeight
from .lattice import Point, WeightGrid, box, leq, level_points, norm, ones, padd, scale
from .snf import smith_invariants


@dataclass(frozen=True)
class E1Entry:
    """One graded summand of the (refined) E1 page."""

    ell: Point | None  # refined location; None for a level-summed entry
    d: int  # level |l|
    k: int  # homological degree
    n: int  # weight
    rank: int


@dataclass(frozen=True)
class MinimalCycleGroup:
    """Group of minimal spectral k-cycles of weight n (free of the given
    rank, located at l = j*m)."""

    k: int
    n: int
    j: int
    rank: int

    def __bool__(self) -> bool:
        return self.rank != 0


def _admissible_subsets(w: WeightGrid, ell: Point, n: int) -> list[int]:
    """Bitmasks I with max vertex weight of the cube (l, I) at most n."""
    r = w.r
    vals = {}
    for sub in range(1 << r):
        p = tuple(ell[i] + (1 if sub >> i & 1 else 0) for i in range(r))
        vals[sub] = w.w(p)
    cube_max = {0: vals[0]}
    good = [0] if vals[0] <= n else []
    for mask in range(1, 1 << r):
        best = vals[mask]
        m = mask
        while m:
            low = m & (m - 1)
            best = max(best, cube_max[mask ^ (m ^ low)])
            m = low
        cube_max[mask] = best
        if best <= n:
            good.append(mask)
    return good


def e1_refined(w: WeightGrid, ell: Point, k: int, n: int) -> E1Entry:
    """Rank of the refined E1 entry at l; degree q = |l| + k."""
    r = w.r
    ell = tuple(ell)
    if not leq(padd(ell, ones(r)), w.bound):
        raise MarginTooSmall(f"need {ell} + e inside the grid {w.bound}")
    good = _admissible_subsets(w, ell, n)
    if k < 0 or k > r:
        return E1Entry(ell=ell, d=norm(ell), k=k, n=n, rank=0)
    by_dim: dict[int, list[int]] = {}
    for mask in good:
        by_dim.setdefault(bin(mask).count("1"), []).append(mask)
    for masks in by_dim.values():
        masks.sort()
    index = {}
    for dim, masks in by_dim.items():
        for pos, mask in enumerate(masks):
            index[mask] = pos
    ranks = {}
    torsions = {}
    for dim, masks in by_dim.items():
        if dim == 0:
            continue
        cols = []
        for mask in masks:
            col = {}
            sign = 1
            m = mask
            while m:
                low = m & (m - 1)
                bit = m ^ low
                face = mask ^ bit
                if face in index:
                    col[index[face]] = col.get(index[face], 0) + sign
                sign = -sign
                m = low
            cols.append(col)
        rank, tors = smith_invariants(cols)
        ranks[dim] = rank
        torsions[dim] = tors
    nk = len(by_dim.get(k, ()))
    rank = nk - ranks.get(k, 0) - ranks.get(k + 1, 0)
    if torsions.get(k + 1):
        raise TorsionFound(
            f"E1 entry at l={ell}, k={k}, n={n} has torsion {torsions[k + 1]}"
        )
    if rank and n != w.w(ell) + k:
        raise LatcurveError(
            f"support law violated: nonzero entry at l={ell}, k={k}, n={n} "
            f"but w(l)+k = {w.w(ell) + k}"
        )
    return E1Entry(ell=ell, d=norm(ell), k=k, n=n, rank=rank)


def e1_level(w: WeightGrid, d: int, k: int, n: int) -> E1Entry:
    """Level entry: sum of refined ranks over |l| = d."""
    inner = tuple(b - 1 for b in w.bound)
    if any(b < 0 for b in inner) or d > norm(inner):
        raise MarginTooSmall(f"level {d} reaches outside the grid {w.bound}")
    total = 0
    for ell in level_points(w.r, d, inner):
        total += e1_refined(w, ell, k, n).rank
    return E1Entry(ell=None, d=d, k=k, n=n, rank=total)


def minimal_spectral_cycles(w: WeightGrid, k: int, n: int) -> MinimalCycleGroup:
    """The group of minimal spectral k-cycles of weight n.

    Defined when |m| >= 3 and n = (2 - |m|) j + k for a natural j; the
    group is the refined entry at l = j*m, and the vanishing of every
    level entry below j*|m| is assert-checked.
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
    ell = scale(j, m)
    entry = e1_refined(w, ell, k, n)
    for d in range(j * mm):
        low = e1_level(w, d, k, n)
        if low.rank:
            raise LatcurveError(
                f"vanishing below level {j * mm} fails at d={d} (rank {low.rank})"
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
    r = w.r
    if not leq(padd(bounds, ones(r)), w.bound):
        raise MarginTooSmall(f"bounds {bounds} + e exceed the grid {w.bound}")
    out = {}
    for ell in box(bounds).points():
        for k in range(r):
            n = w.w(ell) + k
            rank = e1_refined(w, ell, k, n).rank
            if rank:
                out[(ell, n, k)] = rank
    return out


def pe_univariate(pe: dict) -> dict[tuple[int, int, int], int]:
    """Collapse a refined table to levels: (d, n, k) -> rank."""
    out: dict[tuple[int, int, int], int] = {}
    for (ell, n, k), rank in pe.items():
        key = (norm(ell), n, k)
        out[key] = out.get(key, 0) + rank
    return out
