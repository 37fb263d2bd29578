"""Lattice homology: the integer homology of the sublevel cubical
complexes of the weight function, and the U-maps between them.

The ambient complex is the unit-cube decomposition of R(0, c); a cube
is (base, dirs) with dirs a bitmask of spanned axes, and it belongs to
the sublevel complex S_n iff every vertex has weight <= n.

The complexes S_n are nested, so ``lattice_homology`` reduces the whole
filtered complex once (``filtered_reduction``): a k-interval
[birth, death) adds one to b_k(S_n) for birth <= n < death, and one to
the rank of H_k(S_n) -> H_k(S_{n+1}) for birth <= n and death > n + 1;
both counts are running sums over n of +1/-1 marks at the interval ends.
The cubes are ordered by one ``np.lexsort``, cubes of equal value and
dimension by descending base, and each cube's faces are read from
per-mask arrays of filtration indices, so building the columns needs no
Python loop over the cubes.  The reduction reads those face rows as they
are, and signs them by the cube's dimension, as Cubical Ripser does
(Kaji-Sudo-Ahara 2020).  It pairs the higher cubes top dimension first,
skipping the cubes that are already pivot rows one dimension up
(clearing), and then the edges.  In each dimension the apparent pairs, a
column and its lowest row when no earlier column claims that row, are
found in numpy; a Python loop reduces only the few columns whose lowest
rows collide.  An edge that is the first to touch its younger vertex
kills that vertex, and is paired in numpy too; a union-find (the elder
rule) joins only the trees those edges span, over the other edges.  The
descending base leaves few collisions: the catalog reduces 19 of its
2,933 higher cubes in Python.  These shortcuts keep the pairs and every
pivot of the plain reduction of all columns, so the unit-pivot
certificate is unchanged.  When every pivot is +-1 each H_k(S_n) is
torsion-free.  Otherwise the torsion of H_k(S_n) comes from a Smith
reduction of the (k+1)-columns of S_n, a prefix of the same columns,
since S_n is a prefix of the filtration order.

Everything is computed inside the conductor rectangle R(0, c): for
n fixed, the inclusion of S_n cap R(0, c) into S_n is a homotopy
equivalence, so these finite complexes carry the full lattice homology.
"""

from __future__ import annotations

from heapq import heappop, heappush
from math import gcd

import numpy as np

from .errors import EulerMismatch
from .lattice import Record, WeightGrid, axis_step, conductor_values, norm, require_grid


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

    def u_rank(self, k: int, n: int) -> int:
        if n >= self.n_top:
            return 1 if k == 0 else 0
        if n < self.n_min:
            return 0
        return self.u_ranks.get((k, n), 0)


def cube_max_tables(values: np.ndarray, r: int) -> dict[int, np.ndarray]:
    """tables[mask] = max of ``values`` over the corners of the cube
    (base, mask), indexed by base; the array shape shrinks by one along
    each spanned axis; they serve ``lattice_homology``.  The cubes,
    prod(2 n_i - 1) for n_i points per axis, are the points 2 base + mask
    of the doubled box, held to the grid budget (GridTooLarge); at the
    limit homology holds ~100 B a cube, ~400 MB."""
    hi = [n - 1 for n in values.shape]
    require_grid(tuple(2 * b for b in hi), f"the cubes of R(0, {hi}), as the grid")
    tables = {0: values}
    for mask in range(1, 1 << r):
        low = mask & (mask - 1)
        axis = (mask ^ low).bit_length() - 1
        prev = tables[low]
        lo, hi = axis_step(axis, r)
        tables[mask] = np.maximum(prev[lo], prev[hi])
    return tables


def _cell_order(values: np.ndarray, r: int):
    """Every cube of the box under ``values`` in filtration order.

    Returns ``(value, dim, position)``: the max vertex weight and the
    dimension of the j-th cube, and for each direction mask an array over
    the bases of the cubes it spans holding their index j.  Cubes are
    ordered by (value, dim, base descending, mask), bases compared as
    row-major flat indices, that is lexicographically; a face never comes
    after its cofaces, so every prefix up to a value n is the complex S_n.
    Any order by (value, dim) gives the same report.  Of the four orders
    with bases and masks each ascending or descending, the descending
    base ties for the fewest columns left to the Python loop of
    ``filtered_reduction``: 91 over the benchmark's homology ladder,
    against 594 with ascending bases, as Ripser orders simplices of
    equal value so that most pairs are apparent (U. Bauer, 2021).  The
    last three keys are sorted as one, dim * M + (points - 1 - base) *
    2^r + mask with M = 2^r * points.  A germ's grid holds at most 2^22
    points and at least 2^r, so that key, below (r + 1) M, fits int64;
    ``cube_max_tables`` holds the cubes to 2^22 as well, so j is int32.
    """
    tables = cube_max_tables(values, r)
    sizes = [t.size for t in tables.values()]
    flat = np.arange(values.size - 1, -1, -1).reshape(values.shape)  # points - 1 - base
    value = np.concatenate([t.ravel() for t in tables.values()])
    base = np.concatenate([flat[tuple(map(slice, t.shape))].ravel() for t in tables.values()])
    shift = values.size << r
    tags = [mask + bin(mask).count("1") * shift for mask in tables]
    key = (base << r) + np.array(tags).repeat(sizes)
    order = np.lexsort((key, value))
    index = np.empty(order.size, dtype=np.int32)
    index[order] = np.arange(order.size, dtype=np.int32)
    position, start = {}, 0
    for mask, t in tables.items():
        position[mask] = index[start : start + t.size].reshape(t.shape)
        start += t.size
    return value[order], key[order] // shift, position


def _faces(position: dict, mask: int, r: int) -> np.ndarray:
    """Faces of every cube spanned by ``mask``, one row per cube: per
    spanned axis, lowest first, the upper face and the lower face.  Their
    coefficients are ``_signs(k)`` for every k-cube."""
    faces = []
    for axis in range(r):
        if mask >> axis & 1:
            rest = position[mask ^ (1 << axis)]
            lo, hi = axis_step(axis, r)
            faces += [rest[hi], rest[lo]]
    return np.array(faces).reshape(len(faces), -1).T


def _signs(k: int) -> np.ndarray:
    """The boundary coefficients of a k-cube in the order of ``_faces``:
    per spanned axis s on the upper face and -s on the lower one, s
    alternating from +1."""
    return np.array([(-1) ** (t // 2 + t % 2) for t in range(2 * k)], dtype=np.int8)


def filtered_pairs(values: np.ndarray, r: int):
    """``(value, dim, boundaries, born, killer, unit_pivots)`` of the
    filtered cubical complex of the box under ``values``: the cubes in
    filtration order, their faces, and ``filtered_reduction`` of those.
    ``boundaries[k]`` is ``(cells, faces)`` for the k-cubes, one row per
    cube in increasing filtration index, read from index arrays, one per
    direction mask."""
    value, dim, position = _cell_order(values, r)
    groups = {k: [] for k in range(1, r + 1)}
    for mask, cells in position.items():
        if mask:
            groups[bin(mask).count("1")].append((cells.ravel(), _faces(position, mask, r)))
    boundaries = {}
    for k, group in groups.items():
        cells, faces = (np.concatenate(part) for part in zip(*group))
        order = np.argsort(cells)
        boundaries[k] = cells[order], faces[order]
    return (value, dim, boundaries, *filtered_reduction(boundaries))


def filtered_reduction(boundaries: dict):
    """Persistence pairs of a filtered cubical complex over Z.

    Cells are numbered in filtration order (every face before its
    cofaces).  ``boundaries[k]``, k = 1..top, is ``(cells, faces)`` for
    the k-cubes: ``cells`` increasing, and row m of the (n, 2k) array
    ``faces`` the 2k distinct faces of cube ``cells[m]`` in the order of
    ``_faces``, so that their coefficients are ``_signs(k)``.  An edge
    (v, u) has boundary v - u.

    Returns ``(born, killer, unit_pivots)``, in no particular order:
    cell ``killer[m]`` kills the class born with cell ``born[m]``; a cell
    in no pair starts a class that never dies.  The pairs are those of
    the lowest-one reduction of the whole boundary matrix, column by
    column in filtration order, found with three shortcuts:

    * Clearing (Chen-Kerber's twist): dimensions run from the top down,
      and a cell that is already the pivot row of a column one dimension
      up is skipped, since its own column would reduce to zero.  A zero
      column stores no pivot and changes no other column, so the pairs
      and every stored pivot value stay as without clearing.
    * Apparent pairs (Bauer's Ripser): a column that is not cleared and
      is the first, in filtration order, whose lowest row is i owns i
      unreduced, unless an earlier column reduces onto i.  These owners
      are found in numpy; only the other columns are reduced, in
      filtration order, with their dicts built on demand.  A reduced
      column that takes the row of a later owner sends that owner to the
      reduction as well.
    * Union-find for H_0: edge columns only ever reduce to +-(v_a - v_b),
      so pairing them needs only the components.  An edge joining two
      components kills the younger one, whose oldest vertex is the
      pivot row (the elder rule of Edelsbrunner-Letscher-Zomorodian);
      its pivot is +-1.  A kept edge j that is the first kept edge to
      touch its younger vertex y pairs with y in numpy.  These apparent
      edges span a forest, y a child of the older end of j; the
      union-find starts as that forest and runs only on the other kept
      edges.  The pairs stay the same:

      1. A vertex is alone until its first edge: only kept edges join
         components, since a cleared edge closes a cycle.  So when j
         comes, y is a component of its own, the other end, older than
         y, lies with older vertices, and the elder rule pairs (y, j).
      2. A vertex's ancestors join before it does: j touches y's parent,
         whose own first edge so comes before j.  So at any other edge
         e, the vertices whose apparent edge is still to come form
         subtrees that each hang from one vertex already joined; adding
         them early joins no two components, and e touches none of them.
      3. Each tree's root is its oldest vertex: every link points to an
         older vertex, a forest link from y to the older end of j, a
         join from the younger root to the elder, and path compression
         to a root.  At e, by 2, the component of each end is the plain
         one's plus vertices younger than one of its members, so it has
         the same oldest vertex, and the union-find pairs the same
         vertex.

    A column of dimension >= 2 whose lowest row i is owned by an earlier
    column with pivot p is cleared by ``col_j <- p*col_j - a*col_i`` (a
    the entry at i, both divided by gcd(a, p) first).  That is exact
    over Q, so the pairs always give the ranks over Q; with p = +-1 it is
    also invertible over Z.  ``unit_pivots`` certifies that every pivot
    is +-1; then each prefix of the reduced matrix is echelon with unit
    pivots, and every sublevel complex has torsion-free homology.  Edge
    and apparent pivots are entries of ``_signs(k)``, so the certificate
    rests on the columns reduced in Python alone.
    """
    size = 1 + max((int(c[-1]) for c, _ in boundaries.values() if c.size), default=-1)
    pivot_row = np.zeros(size, dtype=bool)  # rows owned one dimension up
    # row -> position of the first column of its dimension to claim it, which
    # owns it unreduced unless an earlier reduced column takes it; size: none
    owner = np.full(size, size)
    born, killer = [], []
    unit_pivots = True
    for k in range(max(boundaries), 1, -1):
        cells, faces = boundaries[k]
        signs = _signs(k).tolist()

        def column(j):
            return dict(zip(faces[j].tolist(), signs))

        low = faces.max(axis=1)
        todo = (~pivot_row[cells]).nonzero()[0]
        claimed = low[todo]
        np.minimum.at(owner, claimed, todo)
        claims = owner[claimed] == todo
        apparent = todo[claims]
        queue = todo[~claims].tolist()  # increasing, so already a heap
        reduced = {}  # lowest row -> reduced column that owns it
        taken = []  # positions of the reduced columns, in order of their rows
        while queue:
            j = heappop(queue)
            col = column(j)
            while col:
                low_j = max(col)
                other = reduced.get(low_j)
                if other is None:
                    o = int(owner[low_j])
                    if o == size:
                        break
                    if o > j:  # j reaches the row first: o is reduced later
                        owner[low_j] = size
                        heappush(queue, o)
                        break
                    other = column(o)
                a, p = col[low_j], other[low_j]
                if p != 1 and p != -1:
                    g = gcd(a, p)
                    a, p = a // g, p // g
                if p != 1:
                    col = {i: p * v for i, v in col.items()}
                for i, v in other.items():
                    nv = col.get(i, 0) - a * v
                    if nv:
                        col[i] = nv
                    else:
                        del col[i]
            if col:
                reduced[low_j] = col
                taken.append(j)
                if col[low_j] not in (1, -1):
                    unit_pivots = False
        apparent = apparent[owner[low[apparent]] == apparent]
        rows = np.concatenate([low[apparent], np.fromiter(reduced, dtype=np.int64)])
        pivot_row[rows] = True
        born.append(rows)
        killer += [cells[apparent], cells[taken]]
    cells, faces = boundaries[1]
    keep = ~pivot_row[cells]
    cells, ends = cells[keep], faces[keep]
    u, v = ends[:, 0], ends[:, 1]
    young, old = np.maximum(u, v), np.minimum(u, v)
    # apparent edges: the first edge to touch their younger end
    at = np.arange(cells.size)
    first = np.full(size, cells.size)  # vertex -> position of its first edge
    np.minimum.at(first, ends.ravel(), at.repeat(2))
    apparent = first[young] == at
    born += [young[apparent]]
    killer += [cells[apparent]]
    edges = zip(cells[~apparent].tolist(), *ends[~apparent].T.tolist())
    # vertex -> an older vertex of its component, seeded with the forest
    # y -> old that the apparent edges span
    parent = dict(zip(young[apparent].tolist(), old[apparent].tolist()))
    pairs = []
    for j, u, v in edges:
        ru = u
        while ru in parent:
            ru = parent[ru]
        while u != ru:  # path compression
            parent[u], u = ru, parent[u]
        rv = v
        while rv in parent:
            rv = parent[rv]
        while v != rv:
            parent[v], v = rv, parent[v]
        if ru != rv:
            if ru < rv:
                ru, rv = rv, ru
            parent[ru] = rv  # the younger root joins the elder
            pairs.append((ru, j))
    edge_pairs = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    born.append(edge_pairs[0])
    killer.append(edge_pairs[1])
    return np.concatenate(born), np.concatenate(killer), unit_pivots


def _level_torsion(boundaries: dict, cut: int) -> list:
    """Torsion of H_k(S), k = 0..r-1, for the complex S of the cells with
    filtration index below ``cut``: the Smith invariants of the
    (k+1)-columns of S, a prefix of ``boundaries[k + 1]``, signed by
    ``_signs(k + 1)``."""
    from .snf import smith_invariants

    torsion = []
    for k, (cells, faces) in boundaries.items():  # k = 1..r
        stop = int(np.searchsorted(cells, cut))
        signs = _signs(k).tolist()
        columns = [dict(zip(row, signs)) for row in faces[:stop].tolist()]
        torsion.append(smith_invariants(columns)[1])
    return torsion


def lattice_homology(w: WeightGrid) -> HomologyReport:
    """Homology of every sublevel complex plus U-map ranks, from one
    filtered reduction of the conductor rectangle."""
    values = conductor_values(w)
    n_min, n_top = int(values.min()), int(values.max())
    levels = range(n_min, n_top + 1)
    r = w.r
    value, dim, boundaries, born, killer, unit_pivots = filtered_pairs(values, r)
    # each cell that no pair names as its killer starts an interval
    # [birth, death) of its dimension; one that never dies gets death
    # n_top + 1, which counts it on every level and in every U-map up to
    # n_top, as an infinite death would
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
