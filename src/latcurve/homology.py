"""Sublevel cubical complexes of the weight function and their integer
homology.

The ambient complex is the unit-cube decomposition of R(0, bound); a cube
is (base, dirs) with dirs a bitmask of spanned axes, and it belongs to
the sublevel complex S_n iff every vertex has weight <= n.

The complexes S_n are nested, so ``lattice_homology`` reduces the whole
filtered complex once (``snf.filtered_reduction``): a k-interval
[birth, death) adds one to b_k(S_n) for birth <= n < death, and one to
the rank of H_k(S_n) -> H_k(S_{n+1}) for birth <= n and death > n + 1.
When every pivot is +-1 (the unit-pivot certificate) each H_k(S_n) is
torsion-free; otherwise the torsion of each level comes from a Smith
reduction of that level alone (``homology``).

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


def cube_dim(cube: Cube) -> int:
    return bin(cube[1]).count("1")


def cube_vertices(cube: Cube):
    base, mask = cube
    dirs = [i for i in range(len(base)) if mask >> i & 1]
    for sub in range(1 << len(dirs)):
        v = list(base)
        for k, i in enumerate(dirs):
            if sub >> k & 1:
                v[i] += 1
        yield tuple(v)


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

    def rank_table(self):
        """Canonical comparable form: {(k, n): rank} with zeros dropped."""
        out = {}
        for n, row in self.table.items():
            for k, (rank, _) in enumerate(row):
                if rank:
                    out[(k, n)] = rank
        return out


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


def _filtration(values: np.ndarray, r: int) -> list:
    """Every cube of the box as (value, dim, base, mask), where value is
    the max weight of its vertices, sorted; a face never comes after its
    cofaces, so every prefix up to a value n is the complex S_n."""
    cubes = []
    for mask, table in _cube_max_tables(values, r).items():
        k = bin(mask).count("1")
        cubes.extend((int(v), k, base, mask) for base, v in np.ndenumerate(table))
    cubes.sort()
    return cubes


def lattice_homology(w: WeightGrid) -> HomologyReport:
    """Homology of every sublevel complex plus U-map ranks, from one
    filtered reduction of the conductor rectangle."""
    values = _conductor_values(w)
    n_min, n_top = int(values.min()), int(values.max())
    levels = range(n_min, n_top + 1)
    r = w.r
    cubes = _filtration(values, r)
    index = {(base, mask): j for j, (_, _, base, mask) in enumerate(cubes)}
    columns = [
        {index[face]: s for face, s in boundary((base, mask))}
        for _, _, base, mask in cubes
    ]
    pairs, unit_pivots = filtered_reduction(columns)
    # (dim, birth, death) of every interval of positive length
    intervals = [
        (cubes[i][1], cubes[i][0], cubes[j][0])
        for i, j in pairs
        if cubes[i][0] < cubes[j][0]
    ]
    paired = {i for pair in pairs for i in pair}
    intervals += [
        (dim, birth, float("inf"))
        for j, (birth, dim, _, _) in enumerate(cubes)
        if j not in paired
    ]
    betti = {n: [0] * (r + 1) for n in levels}
    u_ranks = {(k, n): 0 for n in levels[:-1] for k in range(r)}
    for k, birth, death in intervals:
        for n in range(birth, min(death, n_top + 1)):
            betti[n][k] += 1
            if (k, n) in u_ranks and death > n + 1:
                u_ranks[(k, n)] += 1
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
