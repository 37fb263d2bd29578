"""Sublevel cubical complexes of the weight function and their integer
homology.

The ambient complex is the unit-cube decomposition of R(0, bound); a cube
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
When every pivot is +-1 each H_k(S_n) is torsion-free; otherwise the
torsion of each level comes from a Smith reduction of that level alone
(``homology``).

Everything is computed inside the conductor rectangle R(0, c): for
n fixed, the inclusion of S_n cap R(0, c) into S_n is a homotopy
equivalence, so these finite complexes carry the full lattice homology.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import EulerMismatch, MarginTooSmall
from .lattice import Point, WeightGrid, leq, norm
from .snf import filtered_reduction, smith_invariants

Cube = tuple[Point, int]  # (base point, direction bitmask)


@dataclass
class SublevelComplex:
    """All cubes of weight <= level inside R(0, bound)."""

    level: int
    r: int
    bound: Point
    cells: dict = field(repr=False)  # dim -> list of Cube, lexicographic

    def cell_set(self) -> set:
        return {c for cubes in self.cells.values() for c in cubes}

    def n_cells(self, k: int) -> int:
        return len(self.cells.get(k, ()))


def _cube_max_tables(values: np.ndarray, r: int) -> dict[int, np.ndarray]:
    """tables[mask] = max of w over the corners of the cube (base, mask),
    indexed by base; the array shape shrinks by one along each spanned
    axis."""
    tables = {0: values}
    for mask in range(1, 1 << r):
        low = mask & (mask - 1)
        axis = (mask ^ low).bit_length() - 1
        prev = tables[low]
        lo = tuple(slice(0, -1) if i == axis else slice(None) for i in range(r))
        hi = tuple(slice(1, None) if i == axis else slice(None) for i in range(r))
        tables[mask] = np.maximum(prev[lo], prev[hi])
    return tables


def sublevel_complex(w: WeightGrid, n: int, bound: Point | None = None) -> SublevelComplex:
    """The full subcomplex S_n on the vertices of weight <= n.

    ``bound`` defaults to the conductor rectangle when the grid knows its
    conductor (valid because the inclusion into the full S_n is a
    homotopy equivalence), else to the grid bound.
    """
    if bound is None:
        bound = w.conductor if w.conductor is not None else w.bound
    if not leq(bound, w.bound):
        raise MarginTooSmall(f"requested bound {bound} exceeds grid {w.bound}")
    r = w.r
    values = w.values[tuple(slice(0, b + 1) for b in bound)]
    tables = _cube_max_tables(values, r)
    cells: dict[int, list[Cube]] = {}
    for mask in range(1 << r):
        k = bin(mask).count("1")
        hits = np.argwhere(tables[mask] <= n)
        if hits.size:
            cells.setdefault(k, []).extend(
                (tuple(int(x) for x in row), mask) for row in hits
            )
    for k in cells:
        cells[k].sort()
    return SublevelComplex(level=n, r=r, bound=bound, cells=cells)


def boundary(cube: Cube):
    """Signed faces of a cube: alternating signs along the sorted spanned
    axes, upper face minus lower face."""
    base, mask = cube
    out = []
    sign = 1
    m = mask
    while m:
        low = m & (m - 1)
        axis = (m ^ low).bit_length() - 1
        rest = mask ^ (1 << axis)
        upper = tuple(b + 1 if i == axis else b for i, b in enumerate(base))
        out.append(((upper, rest), sign))
        out.append(((base, rest), -sign))
        sign = -sign
        m = low
    return out


def _chain_data(cells: dict, dropped: set | None = None):
    """Index maps and boundary columns for a (relative) chain complex."""
    index = {}
    for k, cubes in cells.items():
        for pos, c in enumerate(cubes):
            index[c] = (k, pos)
    cols = {}
    for k, cubes in cells.items():
        if k == 0:
            continue
        mats = []
        for c in cubes:
            col = {}
            for face, s in boundary(c):
                if dropped is not None and face in dropped:
                    continue
                fk, fpos = index[face]
                col[fpos] = col.get(fpos, 0) + s
            mats.append(col)
        cols[k] = mats
    return cols


def homology(cx: SublevelComplex):
    """[(rank, torsion list)] for k = 0..r of a sublevel complex."""
    cols = _chain_data(cx.cells)
    ranks = {}
    torsions = {}
    for k, mats in cols.items():
        rank, tors = smith_invariants(mats)
        ranks[k] = rank
        torsions[k] = tors
    out = []
    for k in range(cx.r + 1):
        nk = cx.n_cells(k)
        bk = nk - ranks.get(k, 0) - ranks.get(k + 1, 0)
        out.append((bk, torsions.get(k + 1, [])))
    return out


def relative_homology(cx: SublevelComplex, sub: SublevelComplex):
    """Homology of the relative chain complex of the pair (cx, sub)."""
    sub_cells = sub.cell_set()
    all_cells = cx.cell_set()
    if not sub_cells <= all_cells:
        raise ValueError("second complex is not a subcomplex of the first")
    rel = {}
    for k, cubes in cx.cells.items():
        keep = [c for c in cubes if c not in sub_cells]
        if keep:
            rel[k] = keep
    cols = _chain_data(rel, dropped=sub_cells)
    ranks = {}
    torsions = {}
    for k, mats in cols.items():
        rank, tors = smith_invariants(mats)
        ranks[k] = rank
        torsions[k] = tors
    out = []
    for k in range(cx.r + 1):
        nk = len(rel.get(k, ()))
        bk = nk - ranks.get(k, 0) - ranks.get(k + 1, 0)
        out.append((bk, torsions.get(k + 1, [])))
    return out


@dataclass
class HomologyReport:
    """Per-level homology of the weight filtration.

    ``table[n]`` lists (free rank, torsion) for k = 0..r-1; levels run
    from the minimal weight to the maximal weight on R(0, c), above which
    every S_n is contractible.  ``u_ranks[(k, n)]`` is the rank of the
    map H_k(S_n) -> H_k(S_{n+1}).
    """

    r: int
    n_min: int
    n_top: int
    table: dict = field(repr=False)
    u_ranks: dict = field(repr=False)

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


def _conductor_values(w: WeightGrid) -> np.ndarray:
    """w on R(0, c)."""
    if w.conductor is None:
        raise MarginTooSmall("weight grid has no conductor")
    if not leq(w.conductor, w.bound):
        raise MarginTooSmall(f"conductor {w.conductor} exceeds grid {w.bound}")
    return w.values[tuple(slice(0, ci + 1) for ci in w.conductor)]


def min_weight(w: WeightGrid) -> int:
    """min w over R(0, c), which equals the global minimum."""
    return int(_conductor_values(w).min())


def max_weight_conductor_box(w: WeightGrid) -> int:
    return int(_conductor_values(w).max())


def _cell_order(values: np.ndarray, r: int):
    """Every cube of the box under ``values`` in filtration order.

    Returns ``(value, dim, position)``: the max vertex weight and the
    dimension of the j-th cube, and for each direction mask an array over
    the bases of the cubes it spans holding their index j.  Cubes are
    ordered by (value, dim, base, mask), bases compared as row-major flat
    indices, that is lexicographically; a face never comes after its
    cofaces, so every prefix up to a value n is the complex S_n.
    """
    tables = _cube_max_tables(values, r)
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
    per cube, with the signs of ``boundary``: per spanned axis, lowest
    first, the upper face with sign s and the lower face with -s, s
    alternating from +1."""
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
    """``(value, dim, pairs, unit_pivots)`` of the filtered cubical
    complex of the box under ``values``: the cubes in filtration order
    and ``snf.filtered_reduction`` of their boundaries, which come from
    index arrays, one per direction mask."""
    value, dim, position = _cell_order(values, r)
    groups = {k: [] for k in range(1, r + 1)}
    for mask, cells in position.items():
        if mask:
            faces, coeffs = _faces(position, mask, r)
            groups[bin(mask).count("1")].append((cells.ravel(), faces, coeffs))

    def by_cell(k):
        cells, faces, coeffs = (np.concatenate(part) for part in zip(*groups[k]))
        order = np.argsort(cells)
        return cells[order].tolist(), faces[order], coeffs[order]

    columns = []
    for k in range(r, 1, -1):
        cells, faces, coeffs = by_cell(k)
        columns.append(zip(cells, faces.tolist(), coeffs.tolist()))
    cells, faces, _ = by_cell(1)
    pairs, unit_pivots = filtered_reduction(zip(cells, *faces.T.tolist()), columns)
    return value, dim, pairs, unit_pivots


def lattice_homology(w: WeightGrid) -> HomologyReport:
    """Homology of every sublevel complex plus U-map ranks, from one
    filtered reduction of the conductor rectangle."""
    values = _conductor_values(w)
    n_min, n_top = int(values.min()), int(values.max())
    levels = range(n_min, n_top + 1)
    r = w.r
    value, dim, pairs, unit_pivots = filtered_pairs(values, r)
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
            torsion = [tors for _, tors in homology(sublevel_complex(w, n))]
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
    if c is None:
        raise MarginTooSmall("weight grid has no conductor")
    d = (norm(c) - w.w(c)) // 2
    if eu != d:
        raise EulerMismatch(f"euler characteristic {eu} != delta {d}")
    return eu
