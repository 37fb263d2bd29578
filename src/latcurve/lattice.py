"""Lattice-side invariants of a reduced curve germ with r branches.

A germ is represented purely by discrete data living on the lattice N^r:

* the semigroup of values S (min-closed, 0 in S, stable above the
  conductor c),
* the Hilbert function h, with h(0) = 0 and unit steps
  h(l + e_i) - h(l) in {0, 1},
* the weight function w(l) = 2*h(l) - |l|, whose sublevel sets drive the
  homological invariants.

Grids are numpy int arrays indexed by lattice points (tuples), covering a
rectangle R(0, L).  All arithmetic is exact; grids are frozen values whose
arrays are made read-only at construction, so they are safe to share.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    InconsistentSemigroup,
    MarginTooSmall,
    PathInconsistency,
)

Point = tuple[int, ...]


# ---------------------------------------------------------------------------
# lattice point helpers


def pmin(a: Point, b: Point) -> Point:
    return tuple(min(x, y) for x, y in zip(a, b))


def pmax(a: Point, b: Point) -> Point:
    return tuple(max(x, y) for x, y in zip(a, b))


def padd(a: Point, b: Point) -> Point:
    return tuple(x + y for x, y in zip(a, b))


def psub(a: Point, b: Point) -> Point:
    return tuple(x - y for x, y in zip(a, b))


def leq(a: Point, b: Point) -> bool:
    return all(x <= y for x, y in zip(a, b))


def norm(a: Point) -> int:
    """|l| = sum of coordinates."""
    return sum(a)


def unit(r: int, i: int) -> Point:
    """Basis vector e_i (0-indexed i)."""
    return tuple(1 if j == i else 0 for j in range(r))


def ones(r: int) -> Point:
    return (1,) * r


def scale(k: int, a: Point) -> Point:
    return tuple(k * x for x in a)


@dataclass(frozen=True)
class Rectangle:
    """Axis-aligned box R(lo, hi) = {lo <= l <= hi} in N^r."""

    lo: Point
    hi: Point

    def __post_init__(self):
        if not leq(self.lo, self.hi):
            raise ValueError(f"rectangle needs lo <= hi, got {self.lo} > {self.hi}")

    @property
    def r(self) -> int:
        return len(self.lo)

    def points(self):
        ranges = [range(a, b + 1) for a, b in zip(self.lo, self.hi)]
        return itertools.product(*ranges)

    def contains(self, p: Point) -> bool:
        return leq(self.lo, p) and leq(p, self.hi)


def box(hi: Point) -> Rectangle:
    return Rectangle((0,) * len(hi), hi)


def cube_max_tables(values: np.ndarray, r: int) -> dict[int, np.ndarray]:
    """tables[mask] = max of ``values`` over the corners of the cube
    (base, mask), indexed by base; the array shape shrinks by one along
    each spanned axis."""
    tables = {0: values}
    for mask in range(1, 1 << r):
        low = mask & (mask - 1)
        axis = (mask ^ low).bit_length() - 1
        prev = tables[low]
        lo = tuple(slice(0, -1) if i == axis else slice(None) for i in range(r))
        hi = tuple(slice(1, None) if i == axis else slice(None) for i in range(r))
        tables[mask] = np.maximum(prev[lo], prev[hi])
    return tables


def norm_array(shape) -> np.ndarray:
    """Array of |l| over the grid of the given shape."""
    total = np.zeros(shape, dtype=np.int64)
    for axis, n in enumerate(shape):
        idx = [None] * len(shape)
        idx[axis] = slice(None)
        total = total + np.arange(n, dtype=np.int64)[tuple(idx)]
    return total


# ---------------------------------------------------------------------------
# semigroup tables


@dataclass(frozen=True)
class SemigroupTable:
    """Membership table of the semigroup of values on R(0, bound).

    ``mask[l]`` is True iff l is a value of the germ.  The table always
    stores the conductor; everything >= c is a member.
    """

    r: int
    bound: Point
    conductor: Point
    mask: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.mask.flags.writeable = False

    def contains(self, p: Point) -> bool:
        if not leq(p, self.bound):
            # above the conductor in every visible sense: membership is
            # decided by the extension rule
            return self.contains(pmin(p, self.conductor))
        return bool(self.mask[p])

    def points(self) -> list[Point]:
        """Members on R(0, bound), in row-major (lexicographic) order."""
        return _argwhere(self.mask)

    def low_points(self) -> list[Point]:
        """Members inside the conductor rectangle R(0, c), sorted."""
        return _argwhere(self.mask[tuple(slice(0, ci + 1) for ci in self.conductor)])

    def multiplicity(self) -> Point:
        """Componentwise minimum of the nonzero members (which is itself
        a member for a valid table)."""
        members = np.argwhere(self.mask)
        nonzero = members[members.any(axis=1)]
        if len(nonzero):
            m = tuple(int(x) for x in nonzero.min(axis=0))
        else:  # smooth r=1 germ with tiny bound
            m = ones(self.r)
        if not self.contains(m):
            raise InconsistentSemigroup(
                f"componentwise min {m} of nonzero members is not a member"
            )
        return m

    def validate(self) -> None:
        zero = (0,) * self.r
        if not self.mask[zero]:
            raise InconsistentSemigroup("0 must be a member")
        c = self.conductor
        if not leq(c, self.bound):
            raise MarginTooSmall(f"conductor {c} outside table bound {self.bound}")
        upper = tuple(slice(ci, None) for ci in c)
        if not bool(self.mask[upper].all()):
            raise InconsistentSemigroup("a point above the conductor is missing")
        if not self.mask[c]:
            raise InconsistentSemigroup("conductor itself must be a member")
        self._validate_min_closure()

    def _validate_min_closure(self) -> None:
        # Min-closure holds iff every up-set U(l) = {s in S : s >= l} has a
        # unique minimal element, i.e. iff its componentwise minimum M(l)
        # is a member (U(l) always holds the bound point once the
        # conductor checks passed).  M comes from one array pass.
        mins, p = upset_minima(self.mask)
        if p is not None:
            mp = tuple(int(x) for x in mins[p])
            raise InconsistentSemigroup(
                f"up-set of {p} has no unique minimal member (min {mp} absent)"
            )

    def validate_additive_closure(self) -> None:
        """S + S inside S, checked on R(0, c) with sums clamped at c (the
        extension rule makes l a member iff min(l, c) is).  All sums of
        two members are formed in one broadcast, in blocks of s small
        enough to keep each block near a million entries; the first
        missing s + t in row-major order of (s, t) is reported."""
        c = self.conductor
        low = self.mask[tuple(slice(0, ci + 1) for ci in c)]
        members = np.argwhere(low)
        block = max(1, (1 << 20) // (len(members) * self.r + 1))
        for start in range(0, len(members), block):
            s = members[start : start + block]
            sums = np.minimum(s[:, None, :] + members[None, :, :], c)
            missing = ~low[tuple(np.moveaxis(sums, -1, 0))]
            if missing.any():
                i, j = np.argwhere(missing)[0]
                s, t = tuple(s[i].tolist()), tuple(members[j].tolist())
                raise InconsistentSemigroup(
                    f"not closed under addition: {s} + {t} = {padd(s, t)} "
                    "is not a member"
                )


def _argwhere(flags: np.ndarray) -> list[Point]:
    """Points where ``flags`` is True, in row-major order."""
    return [tuple(p) for p in np.argwhere(flags).tolist()]


def upset_minima(mask: np.ndarray) -> tuple[np.ndarray, Point | None]:
    """M[l] = componentwise minimum of {s : mask[s], s >= l}, and the
    first l in row-major order whose up-set is empty or whose M[l] is not
    in ``mask`` (None when every up-set has a unique minimal element).

    M has shape ``mask.shape + (r,)``; where the up-set of l is empty
    every component equals max(mask.shape).  M is a suffix minimum along
    every axis, so each axis costs one reversed ``np.minimum.accumulate``
    over the grid of own indices.
    """
    big = max(mask.shape)
    own = np.moveaxis(np.indices(mask.shape, dtype=np.int64), 0, -1)
    mins = np.where(mask[..., None], own, big)
    for axis in range(mask.ndim):
        mins = np.flip(
            np.minimum.accumulate(np.flip(mins, axis=axis), axis=axis), axis=axis
        )
    nonempty = mins[..., 0] < big
    held = np.zeros(mask.shape, dtype=bool)
    held[nonempty] = mask[tuple(mins[nonempty].T)]
    bad = _argwhere(~held)
    return mins, (bad[0] if bad else None)


def semigroup_from_low_points(r: int, conductor: Point, low_points) -> SemigroupTable:
    """Build the table on R(0, conductor) from an explicit member list,
    checked for min-closure and additive closure."""
    c = tuple(conductor)
    mask = np.zeros(tuple(ci + 1 for ci in c), dtype=bool)
    for p in low_points:
        p = tuple(p)
        if not leq(p, c):
            raise InconsistentSemigroup(f"low point {p} outside R(0, {c})")
        mask[p] = True
    small = SemigroupTable(r=r, bound=c, conductor=c, mask=mask)
    small.validate()
    small.validate_additive_closure()
    return small


def extend_semigroup(small: SemigroupTable, bound: Point) -> SemigroupTable:
    """Extend a table known on R(0, c) to R(0, bound).

    Extension rule: l is a member iff min(l, c) is.  The model build
    (``germ._model_on``) round-trip checks the result through the Hilbert
    grid it builds from it.
    """
    c = small.conductor
    if not leq(c, bound):
        raise MarginTooSmall(f"requested bound {bound} does not dominate c={c}")
    idx = np.ix_(*[np.minimum(np.arange(b + 1), ci) for b, ci in zip(bound, c)])
    mask = small.mask[tuple(slice(0, ci + 1) for ci in c)][idx]
    table = SemigroupTable(r=small.r, bound=tuple(bound), conductor=c, mask=mask)
    table.validate()
    return table


# ---------------------------------------------------------------------------
# Hilbert and weight grids


@dataclass(frozen=True)
class HilbertGrid:
    """Values of the Hilbert function h on R(0, bound)."""

    r: int
    bound: Point
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.values.flags.writeable = False

    def h(self, p: Point) -> int:
        return int(self.values[p])

    def validate(self) -> None:
        zero = (0,) * self.r
        if int(self.values[zero]) != 0:
            raise PathInconsistency("h(0) must be 0")
        for i in range(self.r):
            lo = tuple(
                slice(0, -1) if j == i else slice(None) for j in range(self.r)
            )
            hi = tuple(
                slice(1, None) if j == i else slice(None) for j in range(self.r)
            )
            step = self.values[hi] - self.values[lo]
            if step.size and (step.min() < 0 or step.max() > 1):
                raise PathInconsistency(f"h step along axis {i} outside {{0,1}}")


@dataclass(frozen=True)
class WeightGrid:
    """Values of the weight function w(l) = 2h(l) - |l| on R(0, bound)."""

    r: int
    bound: Point
    values: np.ndarray = field(repr=False)
    multiplicity: Point
    conductor: Point

    def __post_init__(self):
        self.values.flags.writeable = False

    def w(self, p: Point) -> int:
        return int(self.values[p])

    def hilbert_values(self) -> np.ndarray:
        """Recover h = (w + |l|) / 2 (exact)."""
        total = norm_array(self.values.shape)
        return (self.values + total) // 2

    def to_hilbert(self) -> HilbertGrid:
        return HilbertGrid(r=self.r, bound=self.bound, values=self.hilbert_values())

    def validate(self, source: HilbertGrid | None = None) -> None:
        total = norm_array(self.values.shape)
        if source is not None:
            if not np.array_equal(self.values, 2 * source.values - total):
                raise InconsistentSemigroup("w != 2h - |l| against source grid")
        if np.any(np.abs(self.values) > total):
            raise InconsistentSemigroup("|w(l)| <= |l| violated")
        if np.any((self.values - total) % 2 != 0):
            raise InconsistentSemigroup("w(l) = |l| mod 2 violated")
        # w(l) = 2 - |l| on 0 < l <= m
        m = self.multiplicity
        sub = self.values[tuple(slice(0, mi + 1) for mi in m)]
        expect = 2 - norm_array(sub.shape)
        expect[(0,) * self.r] = 0
        if not np.array_equal(sub, expect):
            raise InconsistentSemigroup("w != 2 - |l| below the multiplicity vector")


def hilbert_from_semigroup(table: SemigroupTable) -> HilbertGrid:
    """Hilbert grid on the table's rectangle.

    The unit increment along axis i at l is 1 iff some member s has
    s_i = l_i and s_j >= l_j for j != i; by min-closure a witness always
    exists inside R(0, max(l, c)), so the in-grid search is complete.
    Increments are integrated along axis 0 and then checked against every
    axis, so path dependence in bad input raises instead of corrupting.
    """
    r, bound = table.r, table.bound
    shape = table.mask.shape
    # inc[i][l] = 1 iff the step l -> l + e_i raises h
    inc = []
    for i in range(r):
        a = table.mask.copy()
        for j in range(r):
            if j == i:
                continue
            a = np.flip(np.logical_or.accumulate(np.flip(a, axis=j), axis=j), axis=j)
        inc.append(a)
    # integrate increments axis by axis: axis t fills the slab
    # {l_j = 0 for j > t} from the already-filled slab {l_t = 0 too}
    h = np.zeros(shape, dtype=np.int64)
    for axis in range(r):
        if shape[axis] < 2:
            continue
        dst = tuple(
            slice(1, None) if j == axis else (slice(0, 1) if j > axis else slice(None))
            for j in range(r)
        )
        src = tuple(
            slice(0, 1) if j >= axis else slice(None) for j in range(r)
        )
        stp = tuple(
            slice(0, -1) if j == axis else (slice(0, 1) if j > axis else slice(None))
            for j in range(r)
        )
        h[dst] = h[src] + np.cumsum(inc[axis][stp].astype(np.int64), axis=axis)
    # full path-independence check: every axis must reproduce its increments
    for i in range(r):
        lo = tuple(slice(0, -1) if j == i else slice(None) for j in range(r))
        hi = tuple(slice(1, None) if j == i else slice(None) for j in range(r))
        if not np.array_equal(h[hi] - h[lo], inc[i][lo].astype(np.int64)):
            raise PathInconsistency(
                f"monotone paths disagree along axis {i}; input semigroup invalid"
            )
    grid = HilbertGrid(r=r, bound=bound, values=h)
    grid.validate()
    return grid


def weight_from_hilbert(h: HilbertGrid, semigroup: SemigroupTable) -> WeightGrid:
    """Pointwise w = 2h - |l|; multiplicity read off the axis rows.

    Along axis i the identity w(k e_i) = 2 - k holds exactly for
    k <= m_i, so m is recovered without semigroup margin questions.
    """
    total = norm_array(h.values.shape)
    values = 2 * h.values - total
    m = []
    for i in range(h.r):
        axis_vals = values[tuple(0 if j != i else slice(None) for j in range(h.r))]
        mi = 0
        for k in range(1, len(axis_vals)):
            if int(axis_vals[k]) == 2 - k:
                mi = k
            else:
                break
        if mi == 0:
            raise MarginTooSmall(f"cannot read multiplicity along axis {i}")
        m.append(mi)
    m = tuple(m)
    if semigroup.multiplicity() != m:
        raise InconsistentSemigroup(
            f"multiplicity {m} from w disagrees with semigroup {semigroup.multiplicity()}"
        )
    grid = WeightGrid(
        r=h.r,
        bound=h.bound,
        values=values,
        multiplicity=m,
        conductor=semigroup.conductor,
    )
    grid.validate(source=h)
    return grid


def semigroup_from_hilbert(h: HilbertGrid) -> SemigroupTable:
    """Members are the points where all r forward increments equal 1.

    The test needs l + e in-grid, so the result lives on R(0, bound - e);
    MarginTooSmall if the conductor does not stabilize inside that box.
    """
    r = h.r
    if any(b < 1 for b in h.bound):
        raise MarginTooSmall("grid too small to test any point")
    inner = tuple(b - 1 for b in h.bound)
    mask = np.ones(tuple(b + 1 for b in inner), dtype=bool)
    core = tuple(slice(0, b + 1) for b in inner)
    for i in range(r):
        lo = tuple(
            slice(0, inner[j] + 1) if j != i else slice(0, inner[i] + 1)
            for j in range(r)
        )
        hi = tuple(
            slice(0, inner[j] + 1) if j != i else slice(1, inner[i] + 2)
            for j in range(r)
        )
        mask &= (h.values[hi] - h.values[lo]) == 1
    c = detect_conductor_mask(mask, inner, r)
    table = SemigroupTable(r=r, bound=inner, conductor=c, mask=mask)
    table.validate()
    if not extension_rule_consistent(table):
        raise MarginTooSmall(
            "membership table is inconsistent with its detected conductor; "
            "the true conductor lies outside the grid"
        )
    return table


def extension_rule_consistent(table: SemigroupTable) -> bool:
    """Check l in S iff min(l, c) in S across the whole visible window.

    Genuine value semigroups always satisfy this; a failure means the
    conductor detection was fooled by a too-small grid (or the input is
    not a value semigroup)."""
    c = table.conductor
    idx = np.ix_(
        *[np.minimum(np.arange(b + 1), ci) for b, ci in zip(table.bound, c)]
    )
    return bool(np.array_equal(table.mask, table.mask[idx]))


def detect_conductor_mask(mask: np.ndarray, bound: Point, r: int) -> Point:
    """Minimal c such that every in-grid point >= c is a member.

    Requires one full stabilization layer above c inside the grid,
    otherwise the detection is not trustworthy and we fail loudly.
    """
    ok = mask.copy()
    for i in range(r):
        ok = np.flip(np.logical_and.accumulate(np.flip(ok, axis=i), axis=i), axis=i)
    if not ok[bound]:
        raise MarginTooSmall("no stable region: bound does not dominate the conductor")
    hits = np.argwhere(ok)
    c = tuple(int(x) for x in hits.min(axis=0))
    if not ok[c]:
        raise MarginTooSmall(
            f"stable region has no unique minimal point near {c}; enlarge the grid"
        )
    if not leq(padd(c, ones(r)), bound):
        raise MarginTooSmall(
            f"conductor {c} detected without a full stabilization layer inside {bound}"
        )
    return c


def detect_conductor(obj) -> Point:
    """Conductor of a SemigroupTable or a WeightGrid."""
    if isinstance(obj, SemigroupTable):
        return detect_conductor_mask(obj.mask, obj.bound, obj.r)
    if isinstance(obj, WeightGrid):
        h = obj.to_hilbert()
        table = semigroup_from_hilbert(h)
        return table.conductor
    raise TypeError(f"cannot detect a conductor on {type(obj).__name__}")


def delta(h: HilbertGrid, conductor: Point) -> int:
    """delta = |c| - h(c), the number of missing values."""
    if not leq(conductor, h.bound):
        raise MarginTooSmall("conductor outside the Hilbert grid")
    return norm(conductor) - h.h(conductor)


def gorenstein_symmetry(w: WeightGrid, conductor: Point | None = None) -> bool:
    """True iff w(l) = w(c - l) throughout R(0, c)."""
    c = conductor if conductor is not None else w.conductor
    sub = w.values[tuple(slice(0, ci + 1) for ci in c)]
    rev = sub[(slice(None, None, -1),) * w.r]
    return bool(np.array_equal(sub, rev))


def restrict_to_subcurve(grid, branches) -> "HilbertGrid | WeightGrid":
    """Restrict a grid to the coordinate face of the branch subset.

    ``branches`` is a nonempty iterable of 1-based branch indices J; the
    result is the subcurve's own grid on N^{|J|} (h restricts on the nose,
    hence w does too).  For a WeightGrid the subcurve conductor is
    re-detected inside the face.
    """
    J = sorted(set(branches))
    if not J:
        raise ValueError("subcurve needs a nonempty branch subset")
    r = grid.r
    if any(j < 1 or j > r for j in J):
        raise ValueError(f"branch indices {J} outside 1..{r}")
    axes = [j - 1 for j in J]
    take = tuple(slice(None) if i in axes else 0 for i in range(r))
    sub_bound = tuple(grid.bound[i] for i in axes)
    if isinstance(grid, HilbertGrid):
        return HilbertGrid(r=len(axes), bound=sub_bound, values=grid.values[take].copy())
    if isinstance(grid, WeightGrid):
        h = HilbertGrid(
            r=len(axes), bound=sub_bound, values=grid.hilbert_values()[take].copy()
        )
        table = semigroup_from_hilbert(h)
        return weight_from_hilbert(h, semigroup=table)
    raise TypeError(f"cannot restrict {type(grid).__name__}")


def validate_semigroup_consistency(table: SemigroupTable, h: HilbertGrid) -> bool:
    """Round-trip guard: semigroup(hilbert(S)) must reproduce S.

    Returns False when the tables disagree on the common grid.
    """
    back = semigroup_from_hilbert(h)
    common = pmin(back.bound, table.bound)
    sl = tuple(slice(0, ci + 1) for ci in common)
    return bool(np.array_equal(table.mask[sl], back.mask[sl]))
