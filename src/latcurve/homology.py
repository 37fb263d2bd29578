"""Lattice homology: the integer homology of the sublevel cubical
complexes of the weight function, and the U-maps between them.

The ambient complex is the unit-cube decomposition of R(0, c); a cube
is (base, dirs) with dirs a bitmask of spanned axes, and it belongs to
the sublevel complex S_n iff every vertex has weight <= n.

The complexes S_n are nested, so ``lattice_homology`` reduces the whole
filtered complex once (``snf.filtered_reduction``): a k-interval
[birth, death) adds one to b_k(S_n) for birth <= n < death, and one to
the rank of H_k(S_n) -> H_k(S_{n+1}) for birth <= n and death > n + 1;
both counts are running sums over n of +1/-1 marks at the interval ends.
The cubes are ordered by one ``np.lexsort`` and each cube's faces are
read from per-mask arrays of filtration indices, so building the columns
needs no Python loop over the cubes.  The reduction pairs the edges with a
union-find (the elder rule) and the higher cubes top dimension first,
skipping the cubes that are already pivot rows one dimension up
(clearing); both shortcuts keep the pairs and every pivot of the plain
reduction of all columns, so the unit-pivot certificate is unchanged.
When every pivot is +-1 each H_k(S_n) is torsion-free.  Otherwise the
torsion of H_k(S_n) comes from a Smith reduction of the (k+1)-columns of
S_n: every S_n is a prefix of the filtration order, so these columns are
a prefix of the same boundary columns.

Everything is computed inside the conductor rectangle R(0, c): for
n fixed, the inclusion of S_n cap R(0, c) into S_n is a homotopy
equivalence, so these finite complexes carry the full lattice homology.
"""

from __future__ import annotations

import numpy as np

from .errors import EulerMismatch
from .lattice import Record, WeightGrid, conductor_values, cube_max_tables, min_weight, norm
from .snf import filtered_reduction, smith_invariants


class HomologyReport(Record, frozen=False):
    """Per-level homology of the weight filtration.

    ``table[n]`` lists (free rank, torsion) for k = 0..r-1; levels run
    from the minimal weight to the maximal weight on R(0, c), above which
    every S_n is contractible.  ``u_ranks[(k, n)]`` is the rank of the
    map H_k(S_n) -> H_k(S_{n+1}).
    """

    _fields = ("r", "n_min", "n_top", "table", "u_ranks")
    _hidden = ("table", "u_ranks")

    def __init__(self, r: int, n_min: int, n_top: int, table: dict, u_ranks: dict):
        vars(self).update(r=r, n_min=n_min, n_top=n_top, table=table, u_ranks=u_ranks)

    def betti(self, k: int, n: int) -> int:
        if n < self.n_min or k >= self.r:
            return 0
        if n > self.n_top:
            return 1 if k == 0 else 0
        return self.table[n][k][0]

    def torsion(self, k: int, n: int):
        if self.n_min <= n <= self.n_top and k < self.r:
            return self.table[n][k][1]
        return []

    def total_rank(self, k: int) -> int:
        """Rank of the direct sum over all levels (finite for k >= 1;
        for k = 0 only the levels up to contractibility are counted)."""
        return sum(self.table[n][k][0] for n in self.table)

    def u_rank(self, k: int, n: int) -> int:
        if n >= self.n_top:
            return 1 if k == 0 else 0
        if n < self.n_min:
            return 0
        return self.u_ranks.get((k, n), 0)


def max_weight_conductor_box(w: WeightGrid) -> int:
    return int(conductor_values(w).max())


def _cell_order(values: np.ndarray, r: int):
    """Every cube of the box under ``values`` in filtration order.

    Returns ``(value, dim, position)``: the max vertex weight and the
    dimension of the j-th cube, and for each direction mask an array over
    the bases of the cubes it spans holding their index j.  Cubes are
    ordered by (value, dim, base, mask), bases compared as row-major flat
    indices, that is lexicographically; a face never comes after its
    cofaces, so every prefix up to a value n is the complex S_n.
    """
    tables = cube_max_tables(values, r)
    shapes = [t.shape for t in tables.values()]
    sizes = [t.size for t in tables.values()]
    flat = np.arange(values.size).reshape(values.shape)
    value = np.concatenate([t.ravel() for t in tables.values()])
    masks = np.repeat(list(tables), sizes)
    dim = np.repeat([bin(mask).count("1") for mask in tables], sizes)
    base = np.concatenate([flat[tuple(map(slice, shape))].ravel() for shape in shapes])
    order = np.lexsort((masks, base, dim, value))
    index = np.empty(order.size, dtype=np.int64)
    index[order] = np.arange(order.size)
    parts = np.split(index, np.cumsum(sizes)[:-1])
    position = {
        mask: part.reshape(shape) for mask, part, shape in zip(tables, parts, shapes)
    }
    return value[order], dim[order], position


def _faces(position: dict, mask: int, r: int):
    """(faces, coefficients) of every cube spanned by ``mask``, one row
    per cube: per spanned axis, lowest first, the upper face with sign s
    and the lower face with -s, s alternating from +1."""
    faces, signs, sign = [], [], 1
    for axis in range(r):
        if mask >> axis & 1:
            rest = position[mask ^ (1 << axis)]
            lo = tuple(slice(0, -1) if i == axis else slice(None) for i in range(r))
            hi = tuple(slice(1, None) if i == axis else slice(None) for i in range(r))
            faces += [rest[hi].ravel(), rest[lo].ravel()]
            signs += [sign, -sign]
            sign = -sign
    faces = np.stack(faces, axis=1)
    return faces, np.broadcast_to(signs, faces.shape)


def filtered_pairs(values: np.ndarray, r: int):
    """``(value, dim, boundaries, pairs, unit_pivots)`` of the filtered
    cubical complex of the box under ``values``: the cubes in filtration
    order, their boundary columns, and ``snf.filtered_reduction`` of
    those columns.  ``boundaries[k]`` is ``(cells, faces, coefficients)``
    for the k-cubes, one row per cube in increasing filtration index,
    read from index arrays, one per direction mask."""
    value, dim, position = _cell_order(values, r)
    groups = {k: [] for k in range(1, r + 1)}
    for mask, cells in position.items():
        if mask:
            faces, coeffs = _faces(position, mask, r)
            groups[bin(mask).count("1")].append((cells.ravel(), faces, coeffs))
    boundaries = {}
    for k, group in groups.items():
        cells, faces, coeffs = (np.concatenate(part) for part in zip(*group))
        order = np.argsort(cells)
        boundaries[k] = cells[order], faces[order], coeffs[order]
    columns = [
        zip(*(part.tolist() for part in boundaries[k])) for k in range(r, 1, -1)
    ]
    cells, faces, _ = boundaries[1]
    pairs, unit_pivots = filtered_reduction(
        zip(cells.tolist(), *faces.T.tolist()), columns
    )
    return value, dim, boundaries, pairs, unit_pivots


def _level_torsion(boundaries: dict, cut: int) -> list:
    """Torsion of H_k(S), k = 0..r-1, for the complex S of the cells with
    filtration index below ``cut``: the Smith invariants of the
    (k+1)-columns of S, a prefix of ``boundaries[k + 1]``."""
    torsion = []
    for cells, faces, coeffs in boundaries.values():  # k + 1 = 1..r
        stop = int(np.searchsorted(cells, cut))
        rows = zip(faces[:stop].tolist(), coeffs[:stop].tolist())
        torsion.append(smith_invariants([dict(zip(*row)) for row in rows])[1])
    return torsion


def lattice_homology(w: WeightGrid) -> HomologyReport:
    """Homology of every sublevel complex plus U-map ranks, from one
    filtered reduction of the conductor rectangle."""
    values = conductor_values(w)
    n_min, n_top = min_weight(w), int(values.max())
    levels = range(n_min, n_top + 1)
    r = w.r
    value, dim, boundaries, pairs, unit_pivots = filtered_pairs(values, r)
    # each cell that no pair names as its killer starts an interval
    # [birth, death) of its dimension; one that never dies gets death
    # n_top + 1, which counts it on every level and in every U-map up to
    # n_top, as an infinite death would
    born, killer = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    death = np.full(value.size, n_top + 1)
    death[born] = value[killer]
    starts = np.ones(value.size, dtype=bool)
    starts[killer] = False
    birth, death = value[starts] - n_min, death[starts] - n_min
    # b_k(S_n) counts birth <= n < death, the U-rank birth <= n < death - 1
    # (no n when death = birth): +1 where a run starts, -1 where it ends,
    # then a running sum over n; block 0 holds b_k, block 1 the U-ranks
    width = len(levels) + 1
    size = (r + 1) * width
    offset = dim[starts] * width
    begins = np.concatenate([offset + birth, offset + birth + size])
    ends = np.concatenate([offset + death, offset + np.maximum(death - 1, birth) + size])
    runs = np.bincount(begins, minlength=2 * size)
    runs -= np.bincount(ends, minlength=2 * size)
    betti_kn, u_kn = np.cumsum(runs.reshape(2, r + 1, width), axis=2).tolist()
    betti = {n: [betti_kn[k][n - n_min] for k in range(r + 1)] for n in levels}
    u_ranks = {(k, n): u_kn[k][n - n_min] for n in levels[:-1] for k in range(r)}
    # stabilization guard; also b_k = 0 for k >= r on every level
    top = betti[n_top]
    if top[0] != 1 or any(top[1:]):
        raise EulerMismatch(
            f"S_{n_top} is not contractible-like; weight data is inconsistent"
        )
    for n, row in betti.items():
        if row[r]:
            raise EulerMismatch(f"H_{r}(S_{n}) nonzero; impossible in R^{r}")
    table = {}
    for n, row in betti.items():
        if unit_pivots:
            torsion = [[] for _ in range(r)]
        else:
            cut = int(np.searchsorted(value, n, side="right"))
            torsion = _level_torsion(boundaries, cut)
        table[n] = [(row[k], torsion[k]) for k in range(r)]
    return HomologyReport(r=r, n_min=n_min, n_top=n_top, table=table, u_ranks=u_ranks)


def euler_characteristic(report: HomologyReport, w: WeightGrid) -> int:
    """Euler characteristic normalization validated against delta.

    eu = -min w + sum over levels of the reduced alternating Betti sum;
    a mismatch with delta = (|c| - w(c)) / 2 is a hard error.
    """
    eu = -report.n_min
    for n in report.table:
        row = report.table[n]
        eu += row[0][0] - 1
        for k in range(1, len(row)):
            eu += (-1) ** k * row[k][0]
    c = w.conductor
    d = (norm(c) - w.w(c)) // 2
    if eu != d:
        raise EulerMismatch(f"euler characteristic {eu} != delta {d}")
    return eu
