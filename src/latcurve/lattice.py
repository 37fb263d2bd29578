"""Lattice-side invariants of a reduced curve germ with r branches.

A germ is represented purely by discrete data living on the lattice N^r:

* the semigroup of values S (min-closed, 0 in S, stable above the
  conductor c), held as a membership table on R(0, c): the conductor
  decides the rest, since l is in S iff min(l, c) is.  One function
  makes every table, ``table_on_window``: it reads the table off a
  window of members at their least conductor, checks it there (the
  axioms, the extension rule, additive closure) and keeps the
  multiplicity and unit steps of the up-set minima that validate it.  A
  member list stated on a conductor (``semigroup_from_low_points``) is
  one such window, so it is read at its least conductor too,
* the Hilbert function h, with h(0) = 0 and unit steps
  h(l + e_i) - h(l) in {0, 1},
* the weight function w(l) = 2*h(l) - |l|, whose sublevel sets drive the
  homological invariants.

The h and w grids are numpy int arrays indexed by lattice points (tuples).
Each grid answers for a rectangle R(0, bound) with bound >= c, and holds
its values on a box R(0, top) inside it.  Past c every unit step raises
h, so h(l) = h(l') + |l - l'| with l' = min(l, c), and w obeys the same
closed form; it holds with any top >= c in place of c.  A model's grids
hold R(0, min(max(c, e) + e, bound)) (``conductor_grid``), so a grid
whose bound passes its box holds every cube of R(0, c); a grid made from
a whole array holds that array.  Every read past top follows the closed
form in this module, and no other module reads a held array: ``_read``
and ``values_at`` read points, ``corner_values`` gathers cubes,
``values_on`` writes out a box, and ``held_points`` counts the values
held.  So every check runs on R(0, c) and covers every grid:
``hilbert_from_semigroup`` integrates and checks on R(0, c), and
``WeightGrid.validate`` checks |w| <= |l| on R(0, c).  No
grid may answer for more than ``MAX_GRID_POINTS`` points
(``require_grid``), on its bound, whatever box it holds.  All arithmetic
is exact; tables and grids are frozen values whose arrays are made
read-only at construction, so they are safe to share.  They compare and
hash by identity: an array has no single truth value.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import FrozenInstanceError

import numpy as np

from .errors import (
    DescriptorError,
    GridTooLarge,
    InconsistentSemigroup,
    MarginTooSmall,
    PathInconsistency,
)

Point = tuple[int, ...]

# The most points a grid R(0, L) may answer for: 2^22, about 4.2 million.
# The largest bound of the catalog, the benchmark ladders and the tests is
# D_40's 36^3 = 46656 points, of which its grids hold 22 * 22 * 4 = 1936.
# At the limit an int64 array takes 34 MB, and the model, its minima and
# its motivic arrays hold a few per axis.
MAX_GRID_POINTS = 1 << 22


def require_grid(bound: Point, what: str = "grid") -> None:
    """GridTooLarge unless R(0, bound) has at most MAX_GRID_POINTS points;
    called before a grid of that box is allocated."""
    points = math.prod(max(b + 1, 0) for b in bound)
    if points > MAX_GRID_POINTS:
        raise GridTooLarge(
            f"{what} R(0, {list(bound)}) would hold {points} points, "
            f"more than the limit of {MAX_GRID_POINTS}"
        )


def require_length(p: Point, r: int) -> None:
    """DescriptorError unless the point p has r coordinates."""
    if len(p) != r:
        raise DescriptorError(f"l={tuple(p)} has {len(p)} coordinates, not r = {r}")


def require_cube(ell: Point, bound: Point) -> Point:
    """l as a tuple, for a query on the cube R(l, l + e): r coordinates
    (DescriptorError), none negative, R(0, l + e) within the budget (which
    no grid bound mends), and l + e inside R(0, bound) (MarginTooSmall)."""
    ell = tuple(ell)
    require_length(ell, len(bound))
    if min(ell) < 0:
        raise MarginTooSmall(f"l={ell} has a negative coordinate")
    require_grid(tuple(x + 1 for x in ell), f"the cube at l={ell}, as the grid")
    if any(x >= b for x, b in zip(ell, bound)):
        raise MarginTooSmall(f"need {ell} + e inside the grid {bound}")
    return ell


class Record:
    """Base of the record classes, each written out with its own
    ``__init__``: ``@dataclass`` generates its methods with ``exec``, about
    1 ms a class in every process, since cached bytecode does not hold
    generated code.

    ``_fields`` names the fields in order: ``==`` and ``hash`` compare them
    as one tuple, and the repr shows those not in ``_hidden``.  A record is
    frozen: ``__init__`` fills ``vars(self)``, and any later assignment or
    deletion raises FrozenInstanceError.  The class keywords mean what
    they mean to ``@dataclass``: ``frozen=False`` leaves the record
    assignable and unhashable, ``eq=False`` makes it compare and hash by
    identity.
    """

    _fields: tuple = ()
    _hidden: tuple = ()

    def __init_subclass__(cls, frozen=True, eq=True):
        if not eq:
            cls.__eq__, cls.__hash__ = object.__eq__, object.__hash__
        elif not frozen:
            cls.__hash__ = None
        if not frozen:
            cls.__setattr__, cls.__delattr__ = object.__setattr__, object.__delattr__

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __repr__(self):
        shown = ", ".join(
            f"{name}={getattr(self, name)!r}"
            for name in self._fields
            if name not in self._hidden
        )
        return f"{type(self).__qualname__}({shown})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


# ---------------------------------------------------------------------------
# lattice point helpers


# the helpers map a builtin over the coordinates: a generator costs about
# twice as much per call, and they run thousands of times per model


def pmin(a: Point, b: Point) -> Point:
    return tuple(map(min, a, b))


def pmax(a: Point, b: Point) -> Point:
    return tuple(map(max, a, b))


def padd(a: Point, b: Point) -> Point:
    return tuple(map(operator.add, a, b))


def psub(a: Point, b: Point) -> Point:
    return tuple(map(operator.sub, a, b))


def leq(a: Point, b: Point) -> bool:
    return all(map(operator.le, a, b))


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


def box(hi: Point):
    """The points of R(0, hi), in row-major (lexicographic) order."""
    return itertools.product(*(range(b + 1) for b in hi))


def window(hi: Point) -> tuple:
    """Index of the box R(0, hi) in a grid array."""
    return tuple(slice(0, b + 1) for b in hi)


def axis_step(axis: int, r: int) -> tuple:
    """Indices (lo, hi) of the points l and l + e_axis of an array of r
    axes, over every l with both in it: a step is ``a[hi] - a[lo]``."""
    lo = tuple(slice(0, -1) if j == axis else slice(None) for j in range(r))
    hi = tuple(slice(1, None) if j == axis else slice(None) for j in range(r))
    return lo, hi


def box_rows(hi: Point, bound: Point) -> np.ndarray:
    """The points of R(0, hi) as int64 rows in row-major order, for a read
    of their cubes, checked as a point query at its top corner hi."""
    hi = require_cube(hi, bound)
    return np.indices([x + 1 for x in hi], dtype=np.int64).reshape(len(hi), -1).T


def level_rows(lo: int, hi: int, bound: Point) -> np.ndarray:
    """The points with lo <= |l| <= hi as int64 rows in row-major order,
    for a read of their cubes.  A level is read whole or refused: every
    l + e with |l| <= hi lies in R(0, bound) iff every bound is >= hi + 1
    (MarginTooSmall).  A level below 0 holds no point."""
    if any(b < hi + 1 for b in bound):
        raise MarginTooSmall(f"level {hi} needs every axis bound >= {hi + 1}, grid is {bound}")
    norms = norm_array((max(hi + 1, 0),) * len(bound))
    return rows_where((norms >= lo) & (norms <= hi))


def rows_where(flags: np.ndarray) -> np.ndarray:
    """The points where ``flags`` is True as int64 rows, in row-major
    order: ``np.argwhere`` without its Python-level wrappers."""
    return np.array(flags.nonzero(), dtype=np.int64).T


def corner_values(grid, at: np.ndarray) -> np.ndarray:
    """The grid's values at l + e_J for each row l of the int64 array
    ``at`` and each subset J of the axes, column J with bit i for axis i:
    one gather through flat offsets into the held array.  A row with a
    negative coordinate, or whose l + e leaves R(0, bound), is refused
    before the gather (MarginTooSmall naming the first such row).

    When a corner leaves the held box R(0, top), each row l is read at
    low = min(l, top - e), plus |l - low|, with no box written out.  That
    is the closed form: a grid whose bound passes its box holds every cube
    of R(0, c) (``conductor_grid``), so top - e >= c on every axis a row
    passes, and each step past c adds 1."""
    held = grid.held
    hi = at.max(axis=0).tolist() if len(at) else [-1] * held.ndim
    if len(at) and (at.min() < 0 or any(x >= b for x, b in zip(hi, grid.bound))):
        bound = np.array(grid.bound)
        ell = tuple(at[((at < 0) | (at >= bound)).any(axis=1).argmax()].tolist())
        if min(ell) < 0:
            raise MarginTooSmall(f"l={ell} has a negative coordinate")
        raise MarginTooSmall(f"need {ell} + e inside the grid {grid.bound}")
    steps, offsets = _corner_tables(held.shape)
    if all(x < t for x, t in zip(hi, grid.top)):  # every corner lies in the box
        return held.ravel()[np.add.outer(at @ steps, offsets)]
    low = np.minimum(at, np.array(grid.top) - 1)
    excess = (at - low).sum(axis=1)[:, None]
    return held.ravel()[np.add.outer(low @ steps, offsets)] + excess


@functools.lru_cache(maxsize=64)
def _corner_tables(shape: tuple) -> tuple:
    """For an array of the given shape: the flat step of each e_i, and for
    each subset J (in order) the flat offset of e_J; both read-only, as
    every call for the shape shares them."""
    steps = [math.prod(shape[i + 1:]) for i in range(len(shape))]
    offsets = [0]
    for step in steps:  # the subsets with bit i follow those without it
        offsets += [o + step for o in offsets]
    steps, offsets = np.array(steps), np.array(offsets)
    steps.flags.writeable = offsets.flags.writeable = False
    return steps, offsets


def norm_array(shape) -> np.ndarray:
    """Array of |l| over the grid of the given shape."""
    total = np.zeros(shape, dtype=np.int64)
    for axis, n in enumerate(shape):
        idx = [None] * len(shape)
        idx[axis] = slice(None)
        total += np.arange(n, dtype=np.int64)[tuple(idx)]
    return total


# ---------------------------------------------------------------------------
# semigroup tables


class SemigroupTable(Record, eq=False):
    """Membership table of the semigroup of values, held on R(0, c).

    ``mask[l]`` is True iff l is a value of the germ, for l in R(0, c).
    The conductor decides every other point: l is a member iff min(l, c)
    is (the extension rule).  A table is made and validated once, by
    ``table_on_window``.  Its multiplicity and unit steps come from the
    up-set minima M of the validation (``_keep_minima``), or of
    ``upset_minima`` on first use for a table nobody validated, and are
    stored outside ``_fields``, so the repr and the identity do not show
    them.
    """

    _fields = ("r", "conductor", "mask")
    _hidden = ("mask",)

    def __init__(self, r: int, conductor: Point, mask: np.ndarray):
        vars(self).update(r=r, conductor=conductor, mask=mask)
        mask.flags.writeable = False

    def contains(self, p: Point) -> bool:
        require_length(p, self.r)
        if min(p) < 0:
            raise MarginTooSmall(f"l={tuple(p)} has a negative coordinate")
        return bool(self.mask[pmin(p, self.conductor)])

    def points(self) -> list[Point]:
        """Members on R(0, c), in row-major (lexicographic) order."""
        return list(zip(*(x.tolist() for x in self.mask.nonzero())))

    def multiplicity(self) -> Point:
        """Componentwise minimum m of the nonzero members, checked to be a
        member (it is for a valid table); every call returns the same
        stored tuple."""
        m = self._kept()[0]
        if not self.contains(m):
            raise InconsistentSemigroup(
                f"componentwise min {m} of nonzero members is not a member"
            )
        return m

    def _kept(self) -> tuple:
        """m and the unit steps, kept by the validation or found here."""
        if "_steps" not in vars(self):
            self._keep_minima(upset_minima(self.mask)[0])
        return self._multiplicity, self._steps

    def _keep_minima(self, mins: np.ndarray) -> None:
        """Keep m = M(e) and the unit steps [M(l)_i = l_i] on R(0, c), read
        off up-set minima M that hold R(0, c).  Each nonzero member s is
        >= e (when r >= 2 none has a zero coordinate) and above the member
        min(s, c) >= e; the smooth table, c = 0, has m = e.  The step
        l -> l + e_i raises h iff some member s >= l has s_i = l_i."""
        r = self.r
        mins = mins[window(self.conductor)]
        e = ones(r)
        m = tuple(mins[e].tolist()) if min(self.conductor) else e
        steps = mins.transpose(r, *range(r)) == np.indices(mins.shape[:-1])
        steps.flags.writeable = False
        vars(self).update(_multiplicity=m, _steps=steps)

    def validate_additive_closure(self) -> None:
        """S + S inside S, checked on R(0, c) with sums clamped at c (the
        extension rule makes l a member iff min(l, c) is).  All sums of
        two members are formed in one broadcast, in blocks of s small
        enough to keep each block near a million entries; the first
        missing s + t in row-major order of (s, t) is reported."""
        c = self.conductor
        members = rows_where(self.mask)
        block = max(1, (1 << 20) // (len(members) * self.r + 1))
        for start in range(0, len(members), block):
            s = members[start : start + block]
            sums = np.minimum(s[:, None, :] + members[None, :, :], c)
            missing = ~self.mask[tuple(sums.transpose(2, 0, 1))]
            if missing.any():
                i, j = divmod(int(missing.argmax()), len(members))
                s, t = tuple(s[i].tolist()), tuple(members[j].tolist())
                raise InconsistentSemigroup(
                    f"not closed under addition: {s} + {t} = {padd(s, t)} "
                    "is not a member"
                )


def _validate_members(mask: np.ndarray, c: Point) -> np.ndarray:
    """The table axioms on the box R(0, b), b >= c, that ``mask`` covers:
    0 and every point of R(c, b), c among them, are members, when r >= 2
    no c_i is 0 and no nonzero member has a zero coordinate, and
    min-closure; returns the up-set minima M of the box."""
    r = len(c)
    if not mask[(0,) * r]:
        raise InconsistentSemigroup("0 must be a member")
    upper = tuple(slice(ci, None) for ci in c)
    if not bool(mask[upper].all()):
        raise InconsistentSemigroup("a point above the conductor is missing")
    # a member s with s_i = 0 is a unit, so with r >= 2 branches 0 is
    # the only member on the coordinate hyperplanes
    if r >= 2:
        if min(c) == 0:
            raise InconsistentSemigroup(f"conductor {c} has a zero coordinate")
        planes = mask.copy()
        planes[(slice(1, None),) * r] = False
        planes[(0,) * r] = False
        if planes.any():
            p = tuple(int(x) for x in np.unravel_index(planes.argmax(), planes.shape))
            raise InconsistentSemigroup(f"nonzero member {p} has a zero coordinate")
    return _validate_min_closure(mask)


def _validate_min_closure(mask: np.ndarray) -> np.ndarray:
    # Min-closure holds iff every up-set U(l) = {s in S : s >= l} has a
    # unique minimal element, i.e. iff its componentwise minimum M(l)
    # is a member (U(l) always holds the bound point once the
    # conductor checks passed).  M comes from one array pass.
    mins, p = upset_minima(mask)
    if p is not None:
        mp = tuple(int(x) for x in mins[p])
        raise InconsistentSemigroup(
            f"up-set of {p} has no unique minimal member (min {mp} absent)"
        )
    return mins


def _clamped(values: np.ndarray, c: Point, bound: Point) -> np.ndarray:
    """values[min(l, c)] for every l in R(0, bound), given on R(0, c): a
    table read past its conductor by the extension rule, one axis at a
    time."""
    for axis, (b, ci) in enumerate(zip(bound, c)):
        values = values.take(np.minimum(np.arange(b + 1), ci), axis=axis)
    return values


def upset_minima(mask: np.ndarray) -> tuple[np.ndarray, Point | None]:
    """M[l] = componentwise minimum of {s : mask[s], s >= l}, and the
    first l in row-major order whose up-set is empty or whose M[l] is not
    in ``mask`` (None when every up-set has a unique minimal element).

    M has shape ``mask.shape + (r,)`` and is C-contiguous; where the
    up-set of l is empty every component equals max(mask.shape).  M is a
    suffix minimum along every axis: the grid of own indices is read
    reversed on every axis, each axis costs one ``np.minimum.accumulate``,
    and the result is read reversed back.
    """
    r = mask.ndim
    big = max(mask.shape)
    reverse = (slice(None, None, -1),) * r
    own = np.indices(mask.shape, dtype=np.int64).transpose(*range(1, r + 1), 0)
    mins = np.where(mask[reverse][..., None], own[reverse], big)
    for axis in range(r):
        mins = np.minimum.accumulate(mins, axis=axis)
    mins = np.ascontiguousarray(mins[reverse])
    nonempty = mins[..., 0] < big
    held = np.zeros(mask.shape, dtype=bool)
    held[nonempty] = mask[tuple(mins[nonempty].T)]
    if held.all():
        return mins, None
    return mins, tuple(int(x) for x in np.unravel_index(held.argmin(), held.shape))


def semigroup_from_low_points(r: int, conductor: Point, low_points) -> SemigroupTable:
    """The table of an explicit member list on R(0, conductor), read by
    ``table_on_window`` at its least conductor; the conductor and each
    point have r coordinates (DescriptorError)."""
    c = tuple(conductor)
    require_length(c, r)
    if min(c) < 0:
        raise InconsistentSemigroup(f"conductor {c} has a negative coordinate")
    require_grid(c, "semigroup table")
    points = list(low_points)
    wrong = [p for p in points if len(p) != r]
    if wrong:
        require_length(wrong[0], r)
    # Python ints until the bounds check: a coordinate past int64 is
    # outside the box, not an overflow
    at = np.array(points, dtype=object).reshape(-1, r)
    outside = ((at < 0) | (at > c)).any(axis=1)
    if outside.any():
        p = tuple(int(x) for x in at[np.argmax(outside)])
        raise InconsistentSemigroup(f"low point {p} outside R(0, {c})")
    mask = np.zeros(tuple(ci + 1 for ci in c), dtype=bool)
    mask[tuple(at.astype(np.int64).T)] = True
    return table_on_window(mask, padd(c, ones(r)), stated=c)


# ---------------------------------------------------------------------------
# Hilbert and weight grids


class _Grid(Record, eq=False):
    """Base of the two grids: the values on R(0, bound), held on the box
    R(0, top) of the array ``held`` and read past it in closed form.  The
    constructor takes that array as ``values``."""

    _hidden = ("held",)

    def _hold(self, values: np.ndarray) -> None:
        """Hold ``values``, made read-only, on the box of its shape."""
        values.flags.writeable = False
        vars(self).update(held=values, top=tuple(n - 1 for n in values.shape))

    @property
    def values(self) -> np.ndarray:
        """The grid on all of R(0, bound), written out on each access, for
        tests and users; no module of the package reads it."""
        values = values_on(self, self.bound)
        values.flags.writeable = False
        return values

    def grown(self, bound: Point):
        """The same grid on the bound ``bound``: the same arrays, read past
        the held box in closed form, so valid for a grid that holds every
        cube of R(0, c), as every model grid does (its bound is >= c + e):
        grown, it still does.  The budget applies to the new bound
        (GridTooLarge)."""
        require_grid(bound)
        grid = object.__new__(type(self))
        vars(grid).update(vars(self), bound=tuple(bound))
        return grid


def held_points(grid: _Grid) -> int:
    """The number of values the grid holds, on its box R(0, top)."""
    return grid.held.size


def _read(grid: _Grid, p: Point) -> int:
    """The grid's value at p in R(0, bound); MarginTooSmall elsewhere."""
    bound = grid.bound
    require_length(p, len(bound))
    if min(p) < 0:
        raise MarginTooSmall(f"l={tuple(p)} has a negative coordinate")
    if not leq(p, bound):
        raise MarginTooSmall(f"l={tuple(p)} lies outside the grid R(0, {bound})")
    try:
        return int(grid.held[p])
    except IndexError:  # past the held box
        low = tuple(min(x, t) for x, t in zip(p, grid.top))
        return int(grid.held[low]) + sum(p) - sum(low)


def values_at(grid: _Grid, at: np.ndarray) -> np.ndarray:
    """The grid's values at the rows l of the int64 array ``at``, each in
    R(0, bound): the held value at min(l, top) plus |l - min(l, top)|."""
    low = np.minimum(at, grid.top)
    return grid.held[tuple(low.T)] + (at - low).sum(axis=1)


def values_on(grid: _Grid, hi: Point) -> np.ndarray:
    """The grid's values on R(0, hi), for hi inside R(0, bound): a view of
    the held array where it holds R(0, hi), written out in closed form
    past it (``past_conductor``)."""
    top = grid.top
    if hi == top:
        return grid.held
    low = pmin(hi, top)
    if low == hi:
        return grid.held[window(hi)]
    return past_conductor(grid.held[window(low)], low, hi)


def same_values(a: _Grid, b: _Grid) -> bool:
    """True iff the two grids agree on the box both answer for."""
    hi = pmin(a.bound, b.bound)
    return bool((values_on(a, hi) == values_on(b, hi)).all())


class HilbertGrid(_Grid):
    """Values of the Hilbert function h on R(0, bound)."""

    _fields = ("r", "bound", "held")

    def __init__(self, r: int, bound: Point, values: np.ndarray):
        vars(self).update(r=r, bound=bound)
        self._hold(values)

    def h(self, p: Point) -> int:
        return _read(self, p)

    def validate(self) -> None:
        """h(0) = 0 and unit steps in {0, 1}, checked on the held box: past
        it each step is 1 or a step inside it."""
        zero = (0,) * self.r
        if int(self.held[zero]) != 0:
            raise PathInconsistency("h(0) must be 0")
        for i in range(self.r):
            lo, hi = axis_step(i, self.r)
            step = self.held[hi] - self.held[lo]
            if step.size and (step.min() < 0 or step.max() > 1):
                raise PathInconsistency(f"h step along axis {i} outside {{0,1}}")


class WeightGrid(_Grid):
    """Values of the weight function w(l) = 2h(l) - |l| on R(0, bound)."""

    _fields = ("r", "bound", "held", "multiplicity", "conductor")

    def __init__(
        self,
        r: int,
        bound: Point,
        values: np.ndarray,
        multiplicity: Point,
        conductor: Point,
    ):
        vars(self).update(
            r=r, bound=bound, multiplicity=multiplicity, conductor=conductor
        )
        self._hold(values)

    def w(self, p: Point) -> int:
        return _read(self, p)

    def validate(self) -> None:
        """w against its conductor c and multiplicity m: |w(l)| <= |l| on
        R(0, c), w = 2 - |l| on 0 < l <= m, and w((m_i + 1) e_i) != 1 - m_i
        where the grid holds that point; a grid without m is MarginTooSmall.

        Past c the first bound follows from the closed form
        w(l) = w(l') + |l - l'|, l' = min(l, c), of a grid made by
        ``hilbert_from_semigroup``: -|l| <= -|l'| + |l - l'| <= w(l) and
        w(l) <= |l'| + |l - l'| = |l|.  (On any grid whose h starts at 0
        and steps by 0 or 1 it holds everywhere, as 0 <= h(l) <= |l|.)"""
        m, c = self.multiplicity, self.conductor
        if not leq(m, self.bound):
            raise MarginTooSmall(f"grid R(0, {self.bound}) does not hold m = {m}")
        sub = values_on(self, pmin(pmax(c, m), self.bound))
        total = norm_array(sub.shape)
        if (abs(sub[window(c)]) > total[window(c)]).any():
            raise InconsistentSemigroup("|w(l)| <= |l| violated")
        expect = 2 - total[window(m)]
        expect[(0,) * self.r] = 0
        if (sub[window(m)] != expect).any():
            raise InconsistentSemigroup("w != 2 - |l| below the multiplicity vector")
        # m_i is the last k of the axis row with w(k e_i) = 2 - k
        past = [scale(mi + 1, unit(self.r, i)) for i, mi in enumerate(m) if mi < self.bound[i]]
        past = np.array(past, dtype=np.int64).reshape(-1, self.r)
        if (values_at(self, past) == 2 - past.sum(axis=1)).any():
            raise InconsistentSemigroup(f"w(k e_i) = 2 - k goes on past m = {m}")


def hilbert_from_semigroup(table: SemigroupTable, bound: Point) -> HilbertGrid:
    """Hilbert grid of the table's semigroup on R(0, bound), bound >= c.

    The unit increment along axis i at l is 1 iff some member s >= l has
    s_i = l_i: the table's unit steps, read off its up-set minima.  The
    increments are integrated and checked on R(0, c) only.  The grid
    holds h on R(0, min(max(c, e) + e, bound)) (``conductor_grid``) and
    answers past it in closed form, h(l) = h(l') + |l - l'| with
    l' = min(l, c).

    * On R(0, c) the search is complete: min(s, c) is a member and a
      witness whenever s is, so a witness lies in R(0, c).
    * Past c: from l with l_i >= c_i the step along axis i raises h, with
      witness max(l, c) with coordinate i set to l_i (a member, as it is
      >= c and c is a member).  From l with l_i < c_i the step equals the
      step from l' (both are read at min(s, c) by the extension rule), so
      h(l) - h(l') = |l - l'| along any path from l' up to l.  Likewise
      membership at l is membership at l', and all r increments at l are
      1 iff they are at l' (each increment along an axis with l'_i = c_i
      is 1).

    So the round trip (the points where all r increments are 1 must be
    exactly the members, or InconsistentSemigroup) and the path check
    (the forward differences of h, integrated along axis 0 first, must
    equal the increments along every axis, or PathInconsistency) hold on
    R(0, bound) iff they hold on R(0, c), for any table whose conductor
    is a member.  With both passed, the members are exactly the table
    ``semigroup_from_hilbert`` reads off the grid, and h, which starts at
    h(0) = 0 and steps by 0 or 1, is a valid Hilbert grid.  GridTooLarge
    when R(0, bound) is past ``MAX_GRID_POINTS``, though no array of that
    box is made.
    """
    r, c = table.r, table.conductor
    bound = tuple(bound)
    if not leq(c, bound):
        raise MarginTooSmall(f"requested bound {bound} does not dominate c={c}")
    mask = table.mask
    inc = table._kept()[1]  # inc[i][l]: the step l -> l + e_i raises h
    if (inc.all(axis=0) != mask).any():
        raise InconsistentSemigroup("extension failed the round-trip check")
    # integrate along axis 0 first: the path to l runs along axis t at
    # (l_0, ..., l_{t-1}, k, 0, ..., 0), k < l_t, for t = 0, ..., r - 1
    h = np.zeros(mask.shape, dtype=np.int64)
    for t in range(r):
        line = inc[t][(slice(None),) * (t + 1) + (slice(0, 1),) * (r - t - 1)]
        h += line.cumsum(axis=t) - line
    # full path-independence check: every axis must reproduce its increments
    for i in range(r):
        lo, hi = axis_step(i, r)
        if (h[hi] - h[lo] != inc[i][lo]).any():
            raise PathInconsistency(
                f"monotone paths disagree along axis {i}; input semigroup invalid"
            )
    if not mask[c]:
        raise InconsistentSemigroup("conductor itself must be a member")
    return conductor_grid(HilbertGrid(r=r, bound=c, values=h), c, bound)


def conductor_grid(h: HilbertGrid, c: Point, bound: Point) -> HilbertGrid:
    """The grid on R(0, bound), bound >= c, of h on R(0, c) and the closed
    form past c, held on R(0, min(max(c, e) + e, bound)): every cube of
    R(0, c) where the bound passes it; GridTooLarge past the budget."""
    require_grid(bound)
    e = ones(len(c))
    values = past_conductor(values_on(h, c), c, pmin(padd(pmax(c, e), e), bound))
    return HilbertGrid(r=h.r, bound=tuple(bound), values=values)


def past_conductor(values: np.ndarray, c: Point, bound: Point) -> np.ndarray:
    """values[l'] + |l - l'|, l' = min(l, c), for every l in R(0, bound),
    given ``values`` on R(0, c), bound >= c: the closed form of h, and of
    w, past c.  Each axis is read at min(l_i, c_i) and gains l_i - c_i
    past c_i; with bound = c it is ``values`` itself.
    ``require_grid(bound)`` comes before anything is allocated."""
    require_grid(bound)
    r = len(c)
    for axis, (b, ci) in enumerate(zip(bound, c)):
        if b > ci:
            steps = np.arange(b + 1)
            values = values.take(np.minimum(steps, ci), axis=axis)
            values += np.maximum(steps - ci, 0).reshape(
                [-1 if j == axis else 1 for j in range(r)]
            )
    return values


def weight_from_hilbert(h: HilbertGrid, semigroup: SemigroupTable) -> WeightGrid:
    """Pointwise w = 2h - |l| on the grid of ``h``, held on the same box,
    which must be the grid of ``semigroup``: the conductor and
    multiplicity come from the table, and ``WeightGrid.validate`` checks w
    against them."""
    grid = WeightGrid(
        r=h.r,
        bound=h.bound,
        values=2 * h.held - norm_array(h.held.shape),
        multiplicity=semigroup.multiplicity(),
        conductor=semigroup.conductor,
    )
    grid.validate()
    return grid


def semigroup_from_hilbert(h: HilbertGrid) -> SemigroupTable:
    """The table read off a Hilbert grid, on R(0, c): its members are the
    points where all r unit steps are 1, read on the window R(0, bound - e)
    that holds every step (``table_on_window``)."""
    if any(b < 1 for b in h.bound):
        raise MarginTooSmall("grid too small to test any point")
    inner = tuple(b - 1 for b in h.bound)
    return table_on_window(unit_step_members(h, inner), inner)


def unit_step_members(h: HilbertGrid, inner: Point) -> np.ndarray:
    """The points of R(0, inner) where all r unit steps of h are 1; the
    grid must hold R(0, inner + e)."""
    values = values_on(h, padd(inner, ones(h.r)))
    base = values[window(inner)]
    mask = np.ones(base.shape, dtype=bool)
    for i in range(h.r):
        hi = tuple(
            slice(1, b + 2) if j == i else slice(0, b + 1) for j, b in enumerate(inner)
        )
        mask &= values[hi] - base == 1
    return mask


def table_on_window(
    members: np.ndarray, inner: Point, stated: Point | None = None
) -> SemigroupTable:
    """The table with the least conductor c that the members of the
    window R(0, inner) fit, cut to R(0, c): the one maker of a table.
    The members are given on a box R(0, b), b <= inner, and the window
    reads each point at min(l, b): the window points >= l read the box
    points >= min(l, b) (q is read by max(q, l)), so l is stable (every
    point >= l a member) iff min(l, b) is, and once c <= b the extension
    rule at l is the rule at min(l, b).

    c is the componentwise minimum of the stable points, a suffix AND
    along every axis; MarginTooSmall unless there is one, c is itself
    stable, and c + e lies in the window.  The box is then checked as a
    table (``_validate_members``, whose up-set minima the table keeps) and
    against the extension rule, l in S iff min(l, c) in S, which a value
    semigroup always follows: a failure means a window too small for its
    conductor (MarginTooSmall).  The cut table is checked for additive
    closure.

    A member list stated on a conductor c' is its box R(0, c') read as
    the window R(0, c' + e), with ``stated`` = c'.  The box is checked as
    a table at c' before the search, so its errors name the first
    failure there; c' is then stable, and the stable points of a
    min-closed box are closed under min, so the search finds c <= c'.
    The whole list is given, so no window mends a failure of the
    extension rule at c: it is InconsistentSemigroup.
    """
    r = members.ndim
    if stated is not None:
        mins = _validate_members(members, stated)
    reverse = (slice(None, None, -1),) * r
    stable = members[reverse]
    for i in range(r):
        stable = np.logical_and.accumulate(stable, axis=i)
    stable = stable[reverse]
    # the corner is stable iff any point is, so no c means a missing corner
    if not stable[(-1,) * r]:
        raise MarginTooSmall("no stable region: bound does not dominate the conductor")
    c = tuple(rows_where(stable).min(axis=0).tolist())
    if not stable[c]:
        raise MarginTooSmall(
            f"stable region has no unique minimal point near {c}; enlarge the grid"
        )
    if not leq(padd(c, ones(r)), inner):
        raise MarginTooSmall(
            f"conductor {c} detected without a full stabilization layer inside {inner}"
        )
    if stated is None:
        mins = _validate_members(members, c)
    b = tuple(n - 1 for n in members.shape)
    broken = members != _clamped(members, c, b)
    if broken.any():
        if stated is None:
            raise MarginTooSmall(
                "membership table is inconsistent with its detected conductor; "
                "the true conductor lies outside the grid"
            )
        p = tuple(int(x) for x in np.unravel_index(broken.argmax(), broken.shape))
        raise InconsistentSemigroup(
            f"the extension rule fails at the least conductor {c}: {p} is no "
            f"member, but min({p}, {c}) = {pmin(p, c)} is"
        )
    table = SemigroupTable(r=r, conductor=c, mask=members[window(c)].copy())
    table._keep_minima(mins)  # on R(0, c) the box's M is the table's
    table.validate_additive_closure()
    return table


def delta(h: HilbertGrid, conductor: Point) -> int:
    """delta = |c| - h(c), the number of missing values."""
    if not leq(conductor, h.bound):
        raise MarginTooSmall("conductor outside the Hilbert grid")
    return norm(conductor) - h.h(conductor)


def conductor_values(w: WeightGrid) -> np.ndarray:
    """w on R(0, c)."""
    if not leq(w.conductor, w.bound):
        raise MarginTooSmall(f"conductor {w.conductor} exceeds grid {w.bound}")
    return values_on(w, w.conductor)


def min_weight(w: WeightGrid) -> int:
    """min w over R(0, c), which equals the global minimum."""
    return int(conductor_values(w).min())


def gorenstein_symmetry(w: WeightGrid, conductor: Point | None = None) -> bool:
    """True iff w(l) = w(c - l) throughout R(0, c)."""
    c = conductor if conductor is not None else w.conductor
    sub = values_on(w, c)
    rev = sub[(slice(None, None, -1),) * w.r]
    return bool((sub == rev).all())
