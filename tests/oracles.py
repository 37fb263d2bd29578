"""Reference implementations that the package's engines are tested against.

* ``sublevel_complex`` / ``boundary`` / ``homology`` /
  ``relative_homology``: the per-level cube engine.  Each sublevel
  complex S_n is enumerated on its own as a dict of cubes, and its
  homology (or that of a pair) is read from Smith forms of dict columns.
* ``per_level_lattice_homology``: lattice homology computed level by
  level with that engine, with one Smith reduction per sublevel complex
  and one per relative pair (S_{n+1}, S_n); U-ranks come from the long
  exact sequence of the pair.  It is the engine the filtered reduction
  replaced, torsion fallback included.
* ``column_pairs``: the filtered reduction as first written, one dict
  column per cube from ``boundary``, the cubes sorted by (value, dim,
  base descending, mask), bases compared as coordinate tuples, and
  reduced by the plain lowest-one reduction over Z with no clearing, no
  apparent pairs and no union-find (``plain_filtered_reduction``).
* ``reference_filtered_reduction`` / ``reference_pairs``: the filtered
  reduction with clearing and union-find but one Python dict per column
  and no apparent pairs, the engine that ``homology.filtered_reduction``
  replaced, and its reading of the same boundary arrays.
* ``monomial_image`` / ``exact_rank`` / ``hilbert_by_valuations``: the
  Hilbert function of a germ with monomial branches t -> (c_x t^a,
  c_y t^b), as the rank of the span of all monomial images in
  prod_i Q[t]/(t^(l_i)), in exact Fraction arithmetic.
* ``numerical_semigroup_by_values``: the members of a numerical
  semigroup one value at a time, the loop ``catalog.numerical_semigroup``
  replaced by a sieve over the generators.
* ``reverse_sweep_min_closure``: the point-by-point reverse sweep that
  ``SemigroupTable._validate_min_closure`` replaced.
* ``additive_closure_by_members``: the loop over members, one gathered
  shifted box each, that ``SemigroupTable.validate_additive_closure``
  replaced.
* ``upset_minima_by_points`` / ``table_axioms_by_points`` /
  ``table_on_window_by_points``: the up-set minima of a mask, one point
  at a time, with the first point whose up-set has no member minimum;
  the table axioms of a box checked point by point; and the conductor
  that ``lattice.table_on_window`` reads off a window, or the error it
  raises, from those checks and the detection below, for any mask, a
  table or not.
* ``multiplicity_by_axis_rows``: m read off the weights alone, axis by
  axis, as the largest k with w(j e_i) = 2 - j for 1 <= j <= k: the
  read that ``weight_from_hilbert`` made before it took m from the
  table.
* ``multiplicity_by_member_scan`` / ``suffix_or_steps`` /
  ``detected_on_window``: a table's m as the minimum of its nonzero
  members on R(0, c + e), its unit steps from r - 1 suffix-OR passes per
  axis, and the replay's detection on the window R(0, guess - e)
  written out by the extension rule: the derivations that the table's
  up-set minima and the read of its own box replaced.  The detection
  (``least_conductor``, ``detect_conductor_mask``, ``cut_at_conductor``)
  is the one that ``lattice.table_on_window`` replaced, kept here so the
  replay is compared with a window read that shares no code with it.
* ``rank_by_row_positions`` / ``down_sets``: the subset-complex
  reduction of one E1 mask as ``spectral._rank`` first wrote it, cells
  listed by degree and rows looked up by position, and every down-set of
  the subsets of r axes, the masks it is compared on.
* ``admissible_subsets`` / ``scalar_e1_refined``: the scalar E1 engine
  that ``spectral`` replaced.  Each query builds a dict of the 2^r
  vertex weights and of the cube maxima, lists the admissible subsets,
  and Smith-reduces the subset complex in every dimension, whatever the
  degree asked for.  ``e1_level_by_points``, ``pe_series_by_points`` and
  ``minimal_spectral_cycles_by_points`` are the loops over it: one
  scalar query per lattice point, and one level query per level below
  j*|m| for the vanishing check.
* ``motivic_coeff_by_subsets``: the coefficient polynomial of t^l from
  a loop over the 2^r - 1 subsets J and over the q-exponents of each
  h(l + e_J) - h(l), the loop ``motivic.coefficient_counts`` replaced by
  one gather over every point it reads.
* ``omega_by_points`` / ``univariate_by_points``: the omega series and
  the univariate levels summed from one ``motivic_coeff_by_subsets``
  call per lattice point, the loops that one ``coefficient_counts`` call
  at the summed points replaced.
* ``certify_by_face_minima`` / ``certified_omega_by_search``: the
  truncation certificate as a yes or no, read off the face minima of w
  on R(0, c), and the search that ``classify.certified_omega`` made with
  it before it computed the bound: try the model's bound, grow it by 4e
  on a refusal, at most six times.
* ``pe_substitution_check_by_points`` / ``numerator_coeffs_by_points`` /
  ``gorenstein_functional_check_by_points`` /
  ``hilbert_from_motivic_by_points`` /
  ``gorenstein_motivic_check_by_points``: the motivic identities with
  one coefficient polynomial per point (one ``motivic_coeff`` call each,
  or one dict entry per point and subset).  No command runs them, so the
  package keeps no copy: they are the tests' checks of the E1 table
  against the coefficients (the substitution), of the Gorenstein
  numerator (the functional equation and its gate) and of the
  coefficients against h (the Hilbert round trip).
* ``poincare_from_hilbert`` / ``validate_semigroup_consistency`` /
  ``pe_univariate``: the Poincare coefficients read off h, the round
  trip of a table through its Hilbert grid, and a refined E1 table
  summed to levels; no command reads them, so they live with the tests
  that use them.
* ``max_weight_conductor_box`` / ``total_rank`` / ``hilbert_values`` /
  ``at_one``: the largest weight on R(0, c), the rank of H_k summed
  over every level, h recovered from w, and a coefficient polynomial at
  q = 1; no command reads them either.
* ``full_grid_hilbert_from_semigroup`` / ``restrict_to_subcurve`` /
  ``full_face_table``: the grid of a table found, integrated and checked
  on all of R(0, bound), the path ``hilbert_from_semigroup`` replaced by
  checks on R(0, c) and a closed form past c; and the subcurve grid and
  table read off the whole face of the Hilbert grid, where
  ``GermModel.subcurve`` projects the germ's table on R(0, c) to the
  axes of the subcurve.
* ``whole_grids`` / ``whole_grid_terms`` / ``certify_on_faces`` /
  ``omega_on_window`` / ``levels_on_whole``: a model's h and w written
  out on all of R(0, bound), as every model held them before its grids
  kept only R(0, max(c, m)), and the reads made straight off those
  arrays: the motivic terms at each corner l + e_J, the truncation
  certificate from the boundary layers of R(0, bound - e), the omega
  series summed over the window R(0, min(bound - e, c + reach e)) it
  read before it summed R(0, c) in closed form, and the univariate
  levels from every point with |l| <= depth.
* ``smith_invariants_full_scan``: the Smith loop that scans every entry
  for each pivot, the scan ``snf.smith_invariants`` keeps only after an
  elimination; it counts its remainder rounds.
* ``hilbert_forced_by_members``: h on R(0, c) as the members alone force
  it, step by step down from c (the proof in
  ``germ._build_from_poincare`` that a ``poincare`` grid is H(S)).
* ``tame_conditions_without_shortcuts``: the tameness conditions
  (a)-(d) of the homology route with every group computed, where
  ``classify_tame_homological`` takes condition (b) as given for
  |m| = 4, r > 2 and checks condition (d) only on the complements of
  smooth branches when |m| = 4.
* ``two_branch_expand``: series expansion with a strided running sum for
  a factor on one axis and a per-point loop for every other factor.
* ``embed_series`` / ``embedded_hilbert_from_poincare``: the Hilbert grid
  from the subcurve series with each P_J embedded in N^r and expanded on
  the whole box R(0, bound), the path ``hilbert_from_poincare`` replaced
  by one expansion per face.
* ``weight_table_by_points``: the lines of ``latcurve table``, each cell
  from two checked point reads (``WeightGrid.w`` and
  ``SemigroupTable.contains``) and the blocks of r >= 3 branches from
  ``box``: the renderer that ``cli.render_weight_table`` replaced by a
  read of two arrays on R(0, c).
* ``fixed_point_poincare_build`` / ``promoted_hilbert_build`` /
  ``rebuilt_subcurve``: the germ builds as first written.  A ``poincare``
  grid is accepted only when the next pass re-detects the same
  conductor; a ``hilbert`` source and a subcurve go through their member
  list and the ``semigroup`` build.
"""

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, gcd
from operator import itemgetter

import numpy as np

from latcurve import (
    InconsistentInput,
    InconsistentSemigroup,
    minimal_spectral_cycles,
)
from latcurve.errors import (
    DescriptorError,
    InvalidSeries,
    LatcurveError,
    MarginTooSmall,
    PathInconsistency,
    TorsionFound,
    TruncationUnsound,
    UndefinedWeight,
)
from latcurve.germ import (
    _MAX_REBUILDS,
    GermDescriptor,
    GermModel,
    _model_on,
    _resolve_bound,
    build_model,
)
from latcurve.homology import HomologyReport, cube_max_tables
from latcurve.lattice import (
    HilbertGrid,
    Point,
    SemigroupTable,
    WeightGrid,
    _clamped,
    box,
    conductor_values,
    leq,
    min_weight,
    norm,
    norm_array,
    ones,
    padd,
    pmax,
    pmin,
    require_grid,
    scale,
    semigroup_from_hilbert,
    semigroup_from_low_points,
    unit,
    upset_minima,
    values_on,
    weight_from_hilbert,
    window,
)
from latcurve.motivic import LaurentSeries, QPoly, motivic_coeff, omega_substitution
from latcurve.series import (
    MultiPoly,
    RationalSeries,
    all_nonempty_subsets,
    expand,
    hilbert_from_poincare,
)
from latcurve.snf import _invariant_factors, smith_invariants
from latcurve.spectral import E1Entry, MinimalCycleGroup

# ---------------------------------------------------------------------------
# lattice homology, one level at a time

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
    tables = cube_max_tables(values, r)
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



def u_ranks_from_betti(b_low, b_high, b_rel, r):
    """Ranks of H_k(X) -> H_k(Y) from absolute and relative Betti numbers
    via the long exact sequence of the pair (Y, X)."""
    out = [0] * (r + 2)
    for k in range(r, -1, -1):
        nxt = out[k + 1] if k + 1 <= r + 1 else 0
        rel = b_rel[k + 1] if k + 1 < len(b_rel) else 0
        hi = b_high[k + 1] if k + 1 < len(b_high) else 0
        out[k] = b_low[k] - rel + hi - nxt
    return out[: r + 1]


def per_level_lattice_homology(w) -> HomologyReport:
    n_min = min_weight(w)
    n_top = max_weight_conductor_box(w)
    levels = list(range(n_min, n_top + 1))
    complexes = {n: sublevel_complex(w, n) for n in levels}
    results = {n: homology(complexes[n]) for n in levels}
    u_ranks = {}
    for n in levels[:-1]:
        b_low = [rank for rank, _ in results[n]]
        b_high = [rank for rank, _ in results[n + 1]]
        rel = relative_homology(complexes[n + 1], complexes[n])
        b_rel = [rank for rank, _ in rel]
        ranks = u_ranks_from_betti(b_low, b_high, b_rel, w.r)
        for k in range(w.r):
            u_ranks[(k, n)] = ranks[k]
    table = {n: [(res[k][0], res[k][1]) for k in range(w.r)] for n, res in results.items()}
    return HomologyReport(r=w.r, n_min=n_min, n_top=n_top, table=table, u_ranks=u_ranks)


def assert_same_homology(report, oracle):
    assert (report.n_min, report.n_top) == (oracle.n_min, oracle.n_top)
    assert report.table == oracle.table
    assert report.u_ranks == oracle.u_ranks


# ---------------------------------------------------------------------------
# the filtered reduction without clearing or union-find


def plain_filtered_reduction(columns):
    """Lowest-one reduction of all columns in order: ``columns[j]`` is the
    boundary of cell j as {row: coefficient}, rows < j.  Returns
    ``(pairs, unit_pivots)`` with ``pairs`` sorted by j."""
    pivot_col = {}  # lowest row -> reduced column that owns it
    pairs = []
    unit_pivots = True
    for j, col in enumerate(columns):
        col = {i: v for i, v in col.items() if v}
        while col:
            low = max(col)
            other = pivot_col.get(low)
            if other is None:
                break
            a, p = col[low], other[low]
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
            low = max(col)
            pivot_col[low] = col
            pairs.append((low, j))
            if col[low] not in (1, -1):
                unit_pivots = False
    return pairs, unit_pivots


def reference_filtered_reduction(edges, columns):
    """Persistence pairs of a filtered cell complex over Z, one dict per
    column (the engine that ``homology.filtered_reduction`` replaced).

    Cells are numbered in filtration order (every face before its
    cofaces).  ``edges`` lists the 1-cells as (j, u, v) in increasing j:
    cell j has boundary +-(v - u) on the vertices u, v < j.  ``columns``
    holds the higher cells one dimension at a time, from the top
    dimension down to 2; each is an iterable of (j, rows, coefficients)
    in increasing j, the boundary of cell j on distinct rows (cells of
    one dimension lower) with nonzero coefficients.

    Returns ``(pairs, unit_pivots)``, ``pairs`` sorted by j: (i, j) means
    cell j kills the class born with cell i; a cell in no pair starts a
    class that never dies.  The pairs are those of the lowest-one
    reduction of the whole boundary matrix, found with two shortcuts:

    * Clearing (Chen-Kerber's twist): dimensions run from the top down,
      and a cell that is already the pivot row of a column one dimension
      up is skipped, since its own column would reduce to zero.  A zero
      column stores no pivot and changes no other column, so the pairs
      and every stored pivot value stay as without clearing.
    * Union-find for H_0: edge columns only ever reduce to +-(v_a - v_b),
      so pairing them needs only the components.  An edge joining two
      components kills the younger one, whose oldest vertex is the
      pivot row (the elder rule of Edelsbrunner-Letscher-Zomorodian);
      its pivot is +-1.

    A column of dimension >= 2 whose lowest row i is owned by an earlier
    reduced column with pivot p is cleared by ``col_j <- p*col_j - a*col_i``
    (a the entry at i, both divided by gcd(a, p) first).  That is exact
    over Q, so the pairs always give the ranks over Q; with p = +-1 it is
    also invertible over Z.  ``unit_pivots`` certifies that every pivot
    is +-1; then each prefix of the reduced matrix is echelon with unit
    pivots, and every sublevel complex has torsion-free homology.  Edge
    pivots are always +-1, so the certificate rests on the higher
    columns alone.
    """
    pairs = []
    unit_pivots = True
    cleared = set()
    for group in columns:
        pivot_col = {}  # lowest row -> reduced column that owns it
        for j, rows, coeffs in group:
            if j in cleared:
                continue
            col = dict(zip(rows, coeffs))
            while col:
                low = max(col)
                other = pivot_col.get(low)
                if other is None:
                    break
                a, p = col[low], other[low]
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
                low = max(col)
                pivot_col[low] = col
                pairs.append((low, j))
                if col[low] not in (1, -1):
                    unit_pivots = False
        cleared = pivot_col.keys()
    parent = {}  # vertex -> an older vertex of its component
    for j, u, v in edges:
        if j in cleared:
            continue
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
    pairs.sort(key=itemgetter(1))
    return pairs, unit_pivots


def reference_pairs(boundaries):
    """``reference_filtered_reduction`` of the columns that
    ``homology.filtered_reduction`` reads as arrays: row m of
    ``boundaries[k] = (cells, faces)`` holds the 2k faces of the k-cube
    ``cells[m]``, per spanned axis the upper face and the lower one, with
    the signs s and -s, s alternating from +1, as ``boundary`` gives them."""
    cells, faces = boundaries[1]
    edges = zip(cells.tolist(), *faces.T.tolist())
    columns = []
    for k in range(max(boundaries), 1, -1):
        signs = [s * (-1) ** axis for axis in range(k) for s in (1, -1)]
        cells, faces = boundaries[k]
        columns.append([(j, row, signs) for j, row in zip(cells.tolist(), faces.tolist())])
    return reference_filtered_reduction(edges, columns)


def as_pairs(born, killer):
    """The pairs of ``homology.filtered_reduction`` as a list of (i, j),
    sorted by j, as the references give them."""
    return sorted(zip(born.tolist(), killer.tolist()), key=itemgetter(1))


def sorted_cubes(values, r):
    """Every cube of the box as (value, dim, base, mask), sorted by value,
    then dim, then base in decreasing lexicographic order, then mask."""
    cubes = []
    for mask, table in cube_max_tables(values, r).items():
        k = bin(mask).count("1")
        cubes.extend((int(v), k, base, mask) for base, v in np.ndenumerate(table))
    cubes.sort(key=lambda cube: (cube[0], cube[1], [-x for x in cube[2]], cube[3]))
    return cubes


def column_pairs(values, r):
    """``(pairs, unit_pivots)`` of the plain reduction of every boundary
    column of the box, cubes numbered as in ``sorted_cubes``."""
    cubes = sorted_cubes(values, r)
    index = {(base, mask): j for j, (_, _, base, mask) in enumerate(cubes)}
    columns = [
        {index[face]: s for face, s in boundary((base, mask))}
        for _, _, base, mask in cubes
    ]
    return plain_filtered_reduction(columns)


# ---------------------------------------------------------------------------
# valuations of monomial branches


def monomial_image(branch, a, b, trunc):
    (cx, ex), (cy, ey) = branch
    if (cx == 0 and a > 0) or (cy == 0 and b > 0):
        return [0] * trunc
    order = ex * a + ey * b
    out = [0] * trunc
    if order < trunc:
        out[order] = (cx**a) * (cy**b)
    return out


def exact_rank(rows):
    rows = [[Fraction(v) for v in row] for row in rows if any(row)]
    ncols = len(rows[0]) if rows else 0
    rank, col = 0, 0
    while rows and col < ncols:
        piv = next((i for i, r in enumerate(rows) if r[col]), None)
        if piv is None:
            col += 1
            continue
        prow = rows.pop(piv)
        rank += 1
        for r in rows:
            if r[col]:
                f = r[col] / prow[col]
                for j in range(col, ncols):
                    r[j] -= f * prow[j]
        rows = [r for r in rows if any(r)]
        col += 1
    return rank


def hilbert_by_valuations(branches, ell):
    if not any(ell):
        return 0
    maxdeg = max(ell)
    rows = []
    for a in range(maxdeg + 1):
        for b in range(maxdeg + 1 - a):
            row = []
            for br, tr in zip(branches, ell):
                row.extend(monomial_image(br, a, b, tr))
            rows.append(row)
    return exact_rank(rows)


def numerical_semigroup_by_values(gens, conductor):
    """Members of <gens> up to the conductor (inclusive), value by value:
    v is a member iff v - g is for some generator g <= v, the loop that
    ``catalog.numerical_semigroup`` replaced by a sieve."""
    gens = sorted(gens)
    member = [False] * (conductor + 1)
    member[0] = True
    for v in range(1, conductor + 1):
        member[v] = any(v >= g and member[v - g] for g in gens)
    return [(v,) for v in range(conductor + 1) if member[v]]


# ---------------------------------------------------------------------------
# semigroup closure checks, one point or one member at a time


def reverse_sweep_min_closure(table) -> None:
    """Raise InconsistentSemigroup at the first point (row-major) whose
    up-set minimum M(l) is not a member; M by a reverse sweep."""
    shape = table.mask.shape
    bound = tuple(n - 1 for n in shape)
    big = max(bound) + 1
    mins = np.full(shape + (table.r,), big, dtype=np.int64)
    own = np.indices(shape).transpose(*range(1, table.r + 1), 0)
    member = table.mask
    for p in sorted(box(bound), reverse=True):
        best = None
        for i in range(table.r):
            if p[i] + 1 <= bound[i]:
                cand = mins[padd(p, unit(table.r, i))]
                best = cand if best is None else np.minimum(best, cand)
        if member[p]:
            best = own[p] if best is None else np.minimum(best, own[p])
        if best is not None:
            mins[p] = best
    for p in box(bound):
        m = mins[p]
        if m[0] >= big:
            continue  # empty up-set
        mp = tuple(int(x) for x in m)
        if not member[mp]:
            raise InconsistentSemigroup(
                f"up-set of {p} has no unique minimal member (min {mp} absent)"
            )


def additive_closure_by_members(table) -> None:
    """Raise InconsistentSemigroup at the first member s (row-major), and
    its first member t, with min(s + t, c) not a member; one gather of
    the whole box R(0, c) shifted by s per member."""
    c = table.conductor
    low = table.mask[tuple(slice(0, ci + 1) for ci in c)]
    for s in [tuple(p) for p in np.argwhere(low).tolist()]:
        idx = [np.minimum(np.arange(ci + 1) + si, ci) for si, ci in zip(s, c)]
        missing = low & ~low[np.ix_(*idx)]
        if missing.any():
            t = tuple(np.argwhere(missing)[0].tolist())
            raise InconsistentSemigroup(
                f"not closed under addition: {s} + {t} = {padd(s, t)} "
                "is not a member"
            )


def upset_minima_by_points(mask: np.ndarray) -> tuple[np.ndarray, Point | None]:
    """M[l], the componentwise minimum of the members s >= l, one point
    at a time (every component max(mask.shape) where no member is >= l),
    and the first l in row-major order whose up-set is empty or whose
    M[l] is no member (None if there is none)."""
    shape = mask.shape
    big = max(shape)
    members = np.argwhere(mask)
    mins = np.full(shape + (mask.ndim,), big, dtype=np.int64)
    first = None
    for p in box(tuple(n - 1 for n in shape)):
        above = members[(members >= np.array(p)).all(axis=1)]
        if len(above):
            mins[p] = above.min(axis=0)
        if first is None and not (len(above) and mask[tuple(mins[p])]):
            first = p
    return mins, first


def table_axioms_by_points(mask: np.ndarray, c: Point) -> None:
    """The table axioms on the box R(0, b) of ``mask``, b >= c, point by
    point, raising InconsistentSemigroup at the first failure: 0 is a
    member, every point of R(c, b) is, with r >= 2 no c_i is 0 and no
    nonzero member has a zero coordinate, and min-closure (the reverse
    sweep)."""
    r = len(c)
    b = tuple(n - 1 for n in mask.shape)
    if not mask[(0,) * r]:
        raise InconsistentSemigroup("0 must be a member")
    if any(leq(c, p) and not mask[p] for p in box(b)):
        raise InconsistentSemigroup("a point above the conductor is missing")
    if r >= 2:
        if min(c) == 0:
            raise InconsistentSemigroup(f"conductor {c} has a zero coordinate")
        for p in box(b):
            if mask[p] and any(p) and min(p) == 0:
                raise InconsistentSemigroup(f"nonzero member {p} has a zero coordinate")
    reverse_sweep_min_closure(SemigroupTable(r=r, conductor=b, mask=mask.copy()))


def table_on_window_by_points(
    members: np.ndarray, inner: Point, stated: Point | None = None
) -> Point:
    """The least conductor that ``lattice.table_on_window`` reads off the
    members given on a box inside the window R(0, inner), or the error it
    raises, from per-point checks: the axioms at a stated conductor
    first, the detection (``detect_conductor_mask``), the axioms at the
    detected conductor, the extension rule point by point, and additive
    closure member by member."""
    r = members.ndim
    if stated is not None:
        table_axioms_by_points(members, stated)
    c = detect_conductor_mask(members, inner, r)
    if stated is None:
        table_axioms_by_points(members, c)
    for p in box(tuple(n - 1 for n in members.shape)):
        if members[p] != members[pmin(p, c)]:
            if stated is None:
                raise MarginTooSmall(
                    "membership table is inconsistent with its detected conductor; "
                    "the true conductor lies outside the grid"
                )
            raise InconsistentSemigroup(
                f"the extension rule fails at the least conductor {c}: {p} is no "
                f"member, but min({p}, {c}) = {pmin(p, c)} is"
            )
    additive_closure_by_members(
        SemigroupTable(r=r, conductor=c, mask=members[window(c)].copy())
    )
    return c


def multiplicity_by_axis_rows(values: np.ndarray) -> Point:
    """m_i = the largest k such that w(j e_i) = 2 - j for 1 <= j <= k,
    walking each axis row of the weight array ``values`` until it first
    leaves 2 - j (or the grid ends); 0 where w(e_i) != 1 already."""
    r = values.ndim
    m = []
    for i in range(r):
        row = values[tuple(slice(None) if j == i else 0 for j in range(r))]
        k = 0
        while k + 1 < len(row) and int(row[k + 1]) == 2 - (k + 1):
            k += 1
        m.append(k)
    return tuple(m)


def multiplicity_by_member_scan(table) -> Point:
    """The componentwise minimum of the nonzero members on R(0, c + e),
    checked to be a member: below every nonzero member s lies the nonzero
    member min(s, c + e)."""
    c = table.conductor
    members = np.argwhere(_clamped(table.mask, c, padd(c, ones(table.r))))
    nonzero = members[members.any(axis=1)]
    m = tuple(int(x) for x in nonzero.min(axis=0))
    if not table.contains(m):
        raise InconsistentSemigroup(
            f"componentwise min {m} of nonzero members is not a member"
        )
    return m


def suffix_or_steps(table) -> list[np.ndarray]:
    """inc[i][l] on R(0, c): some member s has s_i = l_i and s_j >= l_j
    for every j != i, as a suffix OR of the mask along each axis j != i."""
    mask, r = table.mask, table.r
    inc = []
    for i in range(r):
        a = mask
        for j in range(r):
            if j != i:
                a = np.flip(np.logical_or.accumulate(np.flip(a, axis=j), axis=j), axis=j)
        inc.append(a)
    return inc


def detected_on_window(table, guess: Point) -> tuple[Point, Point]:
    """The conductor and multiplicity detected on the grid R(0, guess) of
    the table's semigroup: the window R(0, guess - e) written out by the
    extension rule, detected and cut, and m by the member scan."""
    if min(guess) < 1:
        raise MarginTooSmall("grid too small to test any point")
    require_grid(guess)
    inner = tuple(g - 1 for g in guess)
    members = _clamped(table.mask, table.conductor, inner)
    seen = cut_at_conductor(members, detect_conductor_mask(members, inner, table.r))
    return seen.conductor, multiplicity_by_member_scan(seen)


def least_conductor(members: np.ndarray) -> tuple[Point | None, bool]:
    """The componentwise minimum c of the points p of the window such
    that every point >= p of the window is a member (None when there is
    none), and whether c is itself such a point: then c is the least
    conductor the window allows.  Those points are a suffix AND along
    every axis, a prefix AND of the reversed window."""
    reverse = (slice(None, None, -1),) * members.ndim
    ok = members[reverse]
    for i in range(members.ndim):
        ok = np.logical_and.accumulate(ok, axis=i)
    hits = np.argwhere(ok[reverse])
    c = tuple(int(x) for x in hits.min(axis=0)) if len(hits) else None
    return c, c is not None and bool(ok[reverse][c])


def detect_conductor_mask(mask: np.ndarray, bound: Point, r: int) -> Point:
    """Minimal c such that every in-grid point >= c is a member, with one
    full stabilization layer above c inside the grid (MarginTooSmall)."""
    c, least = least_conductor(mask)
    if c is None:
        raise MarginTooSmall("no stable region: bound does not dominate the conductor")
    if not least:
        raise MarginTooSmall(
            f"stable region has no unique minimal point near {c}; enlarge the grid"
        )
    if not leq(padd(c, ones(r)), bound):
        raise MarginTooSmall(
            f"conductor {c} detected without a full stabilization layer inside {bound}"
        )
    return c


def cut_at_conductor(mask: np.ndarray, c: Point) -> SemigroupTable:
    """The table with conductor c cut from the members on a window
    R(0, b) that holds c, which must follow the extension rule across the
    window (MarginTooSmall)."""
    bound = tuple(n - 1 for n in mask.shape)
    if not np.array_equal(mask, _clamped(mask, c, bound)):
        raise MarginTooSmall(
            "membership table is inconsistent with its detected conductor; "
            "the true conductor lies outside the grid"
        )
    return SemigroupTable(r=len(c), conductor=c, mask=mask[window(c)].copy())


# ---------------------------------------------------------------------------
# refined E1 entries, one point at a time


def admissible_subsets(w: WeightGrid, ell: Point, n: int) -> list[int]:
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


def rank_by_row_positions(pattern: int, r: int, k: int) -> tuple[int, tuple]:
    """(rank, torsion) of the subset complex of a mask in degree k, the
    reduction ``spectral._rank`` made before it keyed each row by the
    face's own bits: the cells listed by degree, each column's rows
    looked up in a map from face to position."""
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
    return len(cells.get(k, ())) - boundary(k)[0] - rank_up, tuple(torsion)


def down_sets(r: int) -> list[int]:
    """Every down-set of the subsets of r axes, as a 2^r-bit mask (bit I
    for subset I), the empty one included: a down-set is a down-set A of
    the first r - 1 axes and the sets B + {r - 1} for a down-set B inside
    A."""
    if r == 0:
        return [0, 1]
    lower = down_sets(r - 1)
    half = 1 << (r - 1)
    return [a | b << half for a in lower for b in lower if b & ~a == 0]


def scalar_e1_refined(w: WeightGrid, ell: Point, k: int, n: int) -> E1Entry:
    """Rank of the refined E1 entry at l; degree q = |l| + k."""
    r = w.r
    ell = tuple(ell)
    if not leq(padd(ell, ones(r)), w.bound):
        raise MarginTooSmall(f"need {ell} + e inside the grid {w.bound}")
    good = admissible_subsets(w, ell, n)
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


def e1_level_by_points(w: WeightGrid, d: int, k: int, n: int) -> E1Entry:
    """Level entry: sum of refined ranks over |l| = d, the level read
    whole: each l + e must lie in the grid."""
    if any(b < d + 1 for b in w.bound):
        raise MarginTooSmall(
            f"level {d} needs every axis bound >= {d + 1}, grid is {w.bound}"
        )
    total = 0
    for ell in box((d,) * w.r):
        if norm(ell) == d:
            total += scalar_e1_refined(w, ell, k, n).rank
    return E1Entry(ell=None, d=d, k=k, n=n, rank=total)


def minimal_spectral_cycles_by_points(w: WeightGrid, k: int, n: int) -> MinimalCycleGroup:
    """The group of minimal spectral k-cycles of weight n, with the
    vanishing below level j*|m| checked one level entry at a time, once
    the point j*m and those levels are known to fit the grid."""
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
    if not leq(padd(ell, ones(w.r)), w.bound):
        raise MarginTooSmall(f"need {ell} + e inside the grid {w.bound}")
    if any(b < j * mm for b in w.bound):
        raise MarginTooSmall(
            f"level {j * mm - 1} needs every axis bound >= {j * mm}, grid is {w.bound}"
        )
    entry = scalar_e1_refined(w, ell, k, n)
    for d in range(j * mm):
        low = e1_level_by_points(w, d, k, n)
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


def pe_series_by_points(w: WeightGrid, bounds: Point) -> dict:
    """(l, n, k) -> rank over l in R(0, bounds), k = 0..r-1, n = w(l) + k,
    zero ranks dropped."""
    r = w.r
    if not leq(padd(bounds, ones(r)), w.bound):
        raise MarginTooSmall(f"bounds {bounds} + e exceed the grid {w.bound}")
    out = {}
    for ell in box(bounds):
        for k in range(r):
            n = w.w(ell) + k
            rank = scalar_e1_refined(w, ell, k, n).rank
            if rank:
                out[(ell, n, k)] = rank
    return out


# ---------------------------------------------------------------------------
# motivic specializations, one scalar coefficient per point


def motivic_coeff_by_subsets(h, ell) -> QPoly:
    """p_l(q) = sum over J of (-1)^(|J|+1) (q^h(l) + ... + q^(h(l+e_J)-1))."""
    r = h.r
    ell = tuple(ell)
    if min(ell) < 0:
        raise MarginTooSmall(f"l={ell} has a negative coordinate")
    if not leq(padd(ell, ones(r)), h.bound):
        raise MarginTooSmall(f"need {ell} + e inside the grid {h.bound}")
    base = h.h(ell)
    acc: dict[int, int] = {}
    for J in all_nonempty_subsets(r):
        sign = 1 if len(J) % 2 == 1 else -1
        top = h.h(tuple(x + (1 if i + 1 in J else 0) for i, x in enumerate(ell)))
        for e in range(base, top):
            acc[e] = acc.get(e, 0) + sign
    return QPoly.from_dict(acc)


def univariate_by_points(h, d) -> QPoly:
    total = QPoly()
    for ell in box(h.bound):
        if norm(ell) == d:
            total = total + motivic_coeff_by_subsets(h, ell)
    return total


def omega_by_points(h, w, depth) -> LaurentSeries:
    """The omega series through omega^depth on R(0, bound - e), without
    the truncation certificate."""
    inner = tuple(b - 1 for b in w.bound)
    acc: dict[int, int] = {}
    for ell in box(inner):
        for e, cval in motivic_coeff_by_subsets(h, ell).coeffs:
            order = 2 * e - norm(ell)
            if order <= depth:
                acc[order] = acc.get(order, 0) + cval
    orders = [o for o, cval in acc.items() if cval]
    if not orders:
        raise InconsistentInput("substituted series vanished entirely")
    lo = min(orders)
    coeffs = tuple(acc.get(o, 0) for o in range(lo, depth + 1))
    return LaurentSeries(order=lo, coeffs=coeffs, truncation=depth)


def certify_by_face_minima(w: WeightGrid, depth: int) -> bool:
    """True when c <= bound - e and each face l_i = b_i - 1 of
    R(0, bound - e) has weight >= depth, the least w on that face read as
    the least w on the face l_i = c_i of R(0, c) plus b_i - 1 - c_i."""
    c = w.conductor
    inner = tuple(b - 1 for b in w.bound)
    if not leq(c, inner):
        return False
    sub = conductor_values(w)
    faces = (int(sub.take([-1], axis=i).min()) + inner[i] - c[i] for i in range(w.r))
    return min(faces) >= depth


def certified_omega_by_search(model, depth) -> tuple[LaurentSeries, Point]:
    """The omega series through omega^depth and the bound it is certified
    on, searched: the model's bound, then grown by 4e after each refusal
    of ``certify_by_face_minima``, at most six times; TruncationUnsound
    after the sixth growth (GridTooLarge from the first growth past the
    budget)."""
    for _ in range(6):
        if certify_by_face_minima(model.weight, depth):
            return omega_substitution(model.hilbert, model.weight, depth), model.bound
        model = model.ensure_bound(padd(model.bound, scale(4, ones(model.r))))
    raise TruncationUnsound(f"omega series through {depth} not certifiable for {model.name}")


# ---------------------------------------------------------------------------
# semigroup tables read on the whole grid


def full_grid_hilbert_from_semigroup(table, bound) -> HilbertGrid:
    """The Hilbert grid on R(0, bound): increments from the table read past
    c by the extension rule, the round trip, the integration along axis 0
    first and the path check, each on the whole grid."""
    r, c = table.r, table.conductor
    bound = tuple(bound)
    if not leq(c, bound):
        raise MarginTooSmall(f"requested bound {bound} does not dominate c={c}")
    mask = _clamped(table.mask, c, bound)
    shape = mask.shape
    inc = []
    for i in range(r):
        a = mask
        for j in range(r):
            if j == i:
                continue
            a = np.flip(np.logical_or.accumulate(np.flip(a, axis=j), axis=j), axis=j)
        inc.append(a)
    if not np.array_equal(np.logical_and.reduce(inc), mask):
        raise InconsistentSemigroup("extension failed the round-trip check")
    h = np.zeros(shape, dtype=np.int64)
    for axis in range(r):
        if shape[axis] < 2:
            continue
        dst = tuple(
            slice(1, None) if j == axis else (slice(0, 1) if j > axis else slice(None))
            for j in range(r)
        )
        src = tuple(slice(0, 1) if j >= axis else slice(None) for j in range(r))
        stp = tuple(
            slice(0, -1) if j == axis else (slice(0, 1) if j > axis else slice(None))
            for j in range(r)
        )
        h[dst] = h[src] + np.cumsum(inc[axis][stp].astype(np.int64), axis=axis)
    for i in range(r):
        lo = tuple(slice(0, -1) if j == i else slice(None) for j in range(r))
        hi = tuple(slice(1, None) if j == i else slice(None) for j in range(r))
        if not np.array_equal(h[hi] - h[lo], inc[i][lo].astype(np.int64)):
            raise PathInconsistency(
                f"monotone paths disagree along axis {i}; input semigroup invalid"
            )
    return HilbertGrid(r=r, bound=bound, values=h)


# ---------------------------------------------------------------------------
# models with their whole grids, and the reads made off those arrays


def whole_grids(model, bound=None) -> tuple[HilbertGrid, WeightGrid]:
    """The model's h and w written out on all of R(0, bound), the model's
    bound by default: h from ``full_grid_hilbert_from_semigroup`` and
    w = 2h - |l| pointwise, each grid holding its whole array."""
    bound = tuple(bound or model.bound)
    h = full_grid_hilbert_from_semigroup(model.semigroup, bound)
    norms = np.indices(h.values.shape).sum(axis=0)
    w = WeightGrid(
        r=model.r, bound=bound, values=2 * h.values - norms,
        multiplicity=model.multiplicity, conductor=model.conductor,
    )
    return h, w


def whole_grid_corners(values: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """values[l + e_J] at column J (bit i for axis i) for each row l,
    one plain index of the whole array per subset J."""
    r = values.ndim
    return np.stack(
        [values[tuple((rows + [J >> i & 1 for i in range(r)]).T)] for J in range(1 << r)],
        axis=1,
    )


def whole_grid_terms(values: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The nonzero terms (l, e, c) of p_l(q) at each row l, by point and
    then by exponent, read off the whole Hilbert array: C[l, i] is the
    signed count of the subsets J with h(l + e_J) - h(l) > i."""
    r = values.ndim
    rows = np.asarray(rows, dtype=np.int64).reshape(-1, r)
    tops = whole_grid_corners(values, rows)
    counts = np.zeros((len(rows), r), dtype=np.int64)
    for J in range(1, 1 << r):
        sign = 1 if bin(J).count("1") % 2 else -1
        for i in range(r):
            counts[:, i] += sign * (tops[:, J] - tops[:, 0] > i)
    row, i = counts.nonzero()
    return np.column_stack([rows[row], tops[row, 0] + i, counts[row, i]])


def certify_on_faces(w: WeightGrid, depth: int) -> bool:
    """The truncation certificate read off the whole weight array: c
    inside R(0, bound - e), and every boundary layer l_i = b_i - 1 of it
    at weight >= depth."""
    inner = tuple(b - 1 for b in w.bound)
    if not leq(w.conductor, inner):
        return False
    sub = w.values[window(inner)]
    return min(int(sub.take(-1, axis=i).min()) for i in range(w.r)) >= depth


def omega_on_window(h: HilbertGrid, w: WeightGrid, depth: int) -> LaurentSeries:
    """The omega series through omega^depth from the terms of the points
    with w(l) <= depth of R(0, min(bound - e, c + max(depth - min_w, 0) e)),
    read off the whole arrays; TruncationUnsound where
    ``certify_on_faces`` fails."""
    if not certify_on_faces(w, depth):
        raise TruncationUnsound(
            f"grid {w.bound} cannot certify the omega-series through {depth}"
        )
    r, c, values = w.r, w.conductor, w.values
    reach = max(depth - int(values[window(c)].min()), 0)
    inner = tuple(min(b - 1, ci + reach) for b, ci in zip(w.bound, c))
    terms = whole_grid_terms(h.values, np.argwhere(values[window(inner)] <= depth))
    acc: dict[int, int] = {}
    for *ell, e, cval in terms.tolist():
        order = 2 * e - sum(ell)
        if order <= depth:
            acc[order] = acc.get(order, 0) + cval
    acc = {o: cval for o, cval in acc.items() if cval}
    if not acc:
        raise InconsistentInput("substituted series vanished entirely")
    lo = min(acc)
    coeffs = tuple(acc.get(o, 0) for o in range(lo, depth + 1))
    return LaurentSeries(order=lo, coeffs=coeffs, truncation=depth)


def levels_on_whole(h: HilbertGrid, depth: int) -> list[QPoly]:
    """The univariate levels d = 0..depth from the terms of every point
    with |l| <= depth, read off the whole Hilbert array, which must hold
    R(0, (depth + 1) e)."""
    r = h.r
    norms = np.indices((depth + 1,) * r).sum(axis=0)
    levels: list[dict] = [{} for _ in range(depth + 1)]
    for *ell, e, cval in whole_grid_terms(h.values, np.argwhere(norms <= depth)).tolist():
        levels[sum(ell)][e] = levels[sum(ell)].get(e, 0) + cval
    return [QPoly.from_dict(level) for level in levels]


def smith_invariants_full_scan(columns, rounds: list | None = None):
    """(rank, torsion) of an integer matrix, scanning every entry for
    each pivot; each remainder round appends 1 to ``rounds``."""
    cols = {}
    rows = {}
    for j, col in enumerate(columns):
        cleaned = {i: int(v) for i, v in col.items() if v}
        if cleaned:
            cols[j] = cleaned
            for i, v in cleaned.items():
                rows.setdefault(i, {})[j] = v
    rank = 0
    diag = []

    def kill(i, j):
        del rows[i][j]
        if not rows[i]:
            del rows[i]
        del cols[j][i]
        if not cols[j]:
            del cols[j]

    def add_to(i, j, v):
        v += rows.get(i, {}).get(j, 0)
        if v:
            rows.setdefault(i, {})[j] = v
            cols.setdefault(j, {})[i] = v
        elif i in rows and j in rows[i]:
            kill(i, j)

    while cols:
        best = None
        for j, col in cols.items():
            for i, v in col.items():
                key = (abs(v), (len(col) - 1) * (len(rows[i]) - 1), j, i)
                if best is None or key < best:
                    best = key
        _, _, pj, pi = best
        pv = rows[pi][pj]
        prow = list(rows[pi].items())
        for i, v in list(cols[pj].items()):
            if i != pi:
                q = v // pv
                for j, vj in prow:
                    add_to(i, j, -q * vj)
        if len(cols[pj]) > 1:
            if rounds is not None:
                rounds.append(1)
            continue
        for j, v in prow:
            if j != pj:
                add_to(pi, j, -(v // pv) * pv)
        if len(rows[pi]) > 1:
            if rounds is not None:
                rounds.append(1)
            continue
        rank += 1
        if pv != 1 and pv != -1:
            diag.append(abs(pv))
        kill(pi, pj)

    if not diag:
        return rank, []
    return rank, [d for d in _invariant_factors(diag) if d > 1]


def hilbert_forced_by_members(table) -> np.ndarray:
    """h on R(0, c) from the members alone, for a grid that starts at 0,
    steps by 0 or 1 and steps by 1 out of R(0, c).  The steps D(l) are
    read down from c: the steps at l + e_i fix every D_i(l) - D_a(l) by
    D_i(l) - D_a(l) = D_i(l + e_a) - D_a(l + e_i) (i, a below c); a
    nonzero difference fixes D(l) in {0, 1}^r, and where all are 0,
    membership of l does.  AssertionError where nothing fits."""
    r, c, mask = table.r, table.conductor, table.mask
    steps = np.ones(mask.shape + (r,), dtype=np.int64)

    def up(l, i):
        return l[:i] + (l[i] + 1,) + l[i + 1:]

    for l in sorted(np.ndindex(mask.shape), key=sum, reverse=True):
        below = [i for i in range(r) if l[i] < c[i]]
        if not below:
            continue
        a = below[0]
        diff = {i: int(steps[up(l, a)][i] - steps[up(l, i)][a]) for i in below[1:]}
        diff[a] = 0
        lo, hi = min(diff.values()), max(diff.values())
        assert hi - lo <= 1, f"steps at {l} differ by more than 1"
        if hi > lo:
            assert not mask[l], f"member {l} with a 0 step"
            base = -lo
        else:
            base = 1 if mask[l] else 0
        for i in below:
            steps[l][i] = diff[i] + base
    h = np.zeros(mask.shape, dtype=np.int64)
    for l in sorted(np.ndindex(mask.shape), key=sum):
        i = next((i for i in range(r) if l[i] > 0), None)
        if i is not None:
            prev = l[:i] + (l[i] - 1,) + l[i + 1:]
            h[l] = h[prev] + steps[prev][i]
    return h


def restrict_to_subcurve(grid, branches) -> "HilbertGrid | WeightGrid":
    """Restrict a grid to the coordinate face of the branch subset.

    ``branches`` is a nonempty iterable of 1-based branch indices J; the
    result is the subcurve's own grid on the whole face of N^{|J|} (h
    restricts on the nose, hence w does too).  For a WeightGrid the
    subcurve conductor is re-detected inside the face.
    """
    J = sorted(set(branches))
    r = grid.r
    if not J or J[0] < 1 or J[-1] > r:
        raise ValueError(f"branch indices {J} outside 1..{r}")
    if isinstance(grid, WeightGrid):
        h = restrict_to_subcurve(HilbertGrid(r, grid.bound, hilbert_values(grid)), J)
        return weight_from_hilbert(h, semigroup=semigroup_from_hilbert(h))
    if not isinstance(grid, HilbertGrid):
        raise TypeError(f"cannot restrict {type(grid).__name__}")
    take = tuple(slice(None) if i + 1 in J else 0 for i in range(r))
    bound = tuple(grid.bound[j - 1] for j in J)
    return HilbertGrid(r=len(J), bound=bound, values=grid.values[take].copy())


def full_face_table(model, branches):
    """The subcurve's table, read off the whole face of the Hilbert grid
    and checked for additive closure."""
    table = semigroup_from_hilbert(restrict_to_subcurve(model.hilbert, branches))
    table.validate_additive_closure()
    return table


# ---------------------------------------------------------------------------
# series expansion and germ builds as first written


def two_branch_expand(series, hi) -> np.ndarray:
    """Coefficients on R(0, hi): a factor (1 - t^v) with v on one axis is
    a strided running sum, any other factor a loop over every point."""
    r = series.r
    shape = tuple(x + 1 for x in hi)
    a = np.zeros(shape, dtype=np.int64)
    for e, c in series.numerator.terms:
        if leq(e, hi):
            a[e] += c
    for v in series.denominator:
        if sum(1 for x in v if x) == 1:
            axis = next(i for i, x in enumerate(v) if x)
            k = v[axis]
            n = shape[axis]
            sl = [slice(None)] * r
            for pos in range(k, n):
                dst, src = list(sl), list(sl)
                dst[axis], src[axis] = pos, pos - k
                a[tuple(dst)] += a[tuple(src)]
        else:
            for idx in np.ndindex(shape):
                if all(i >= x for i, x in zip(idx, v)):
                    prev = tuple(i - x for i, x in zip(idx, v))
                    a[idx] += a[prev]
    return a


def embed_series(series, positions, r) -> RationalSeries:
    """A |J|-variable series viewed inside N^r at the given 1-based
    coordinate positions."""
    num = {}
    for e, c in series.numerator.terms:
        full = [0] * r
        for x, j in zip(e, positions):
            full[j - 1] = x
        num[tuple(full)] = c
    den = tuple(
        tuple(sum(x for x, j in zip(v, positions) if j - 1 == i) for i in range(r))
        for v in series.denominator
    )
    return RationalSeries(MultiPoly.from_dict(r, num), den)


def embedded_hilbert_from_poincare(subseries, bound, r=None) -> HilbertGrid:
    """H = sum_J (-1)^(|J|-1) t^(e_J) P_J / prod (1 - t_i) with every P_J
    embedded in N^r and expanded on all of R(0, bound)."""
    table = {tuple(sorted(k)): v for k, v in subseries.items()}
    if r is None:
        r = len(max(table, key=len))
    missing = [J for J in all_nonempty_subsets(r) if J not in table]
    if missing:
        raise InvalidSeries(f"missing subcurve series for branch subsets {missing}")
    shape = tuple(b + 1 for b in bound)
    num = np.zeros(shape, dtype=np.int64)
    for J in all_nonempty_subsets(r):
        coeffs = expand(embed_series(table[J], J, r), bound)
        sign = -1 if len(J) % 2 == 0 else 1
        shift = tuple(1 if (i + 1) in J else 0 for i in range(r))
        dst = tuple(slice(x, None) for x in shift)
        src = tuple(slice(0, shape[i] - shift[i]) for i in range(r))
        num[dst] += sign * coeffs[src]
    for axis in range(r):
        np.cumsum(num, axis=axis, out=num)
    grid = HilbertGrid(r=r, bound=tuple(bound), values=num)
    try:
        grid.validate()
    except Exception as exc:
        raise InvalidSeries(f"series inputs produce an invalid Hilbert grid: {exc}")
    return grid


def fixed_point_poincare_build(desc) -> GermModel:
    """Grow the grid until the detected conductor repeats on the next pass
    and the grid holds c + 3e and the bound c asks for."""
    series = desc.payload
    guess = desc.bound or (8,) * desc.r
    prev_c = None
    last_exc = None
    for _ in range(2 * _MAX_REBUILDS + 2):
        try:
            h = hilbert_from_poincare(series, guess, desc.r)
            table = semigroup_from_hilbert(h)
        except MarginTooSmall as exc:
            last_exc = exc
            prev_c = None
            guess = tuple(2 * g + 1 for g in guess)
            continue
        c = table.conductor
        want = pmax(
            _resolve_bound(desc, c, table.multiplicity()),
            padd(c, scale(3, ones(desc.r))),
        )
        if leq(want, guess) and c == prev_c:
            table.validate_additive_closure()
            w = weight_from_hilbert(h, semigroup=table)
            return GermModel(
                descriptor=desc,
                r=desc.r,
                semigroup=table,
                hilbert=h,
                weight=w,
                name=desc.name,
            )
        prev_c = c
        guess = pmax(guess, want)
    raise MarginTooSmall(
        f"could not stabilize the conductor after repeated rebuilds: {last_exc}"
    )


def promoted_hilbert_build(desc) -> GermModel:
    """A ``hilbert`` source rebuilt from the member list of its table."""
    b, values = desc.payload
    h = HilbertGrid(r=desc.r, bound=b, values=np.array(values, dtype=np.int64))
    h.validate()
    table = semigroup_from_hilbert(h)
    small = semigroup_from_low_points(desc.r, table.conductor, table.points())
    model = _model_on(
        desc, small, _resolve_bound(desc, small.conductor, small.multiplicity(), b)
    )
    common = tuple(slice(0, min(a, c) + 1) for a, c in zip(b, model.bound))
    if not np.array_equal(model.hilbert.values[common], h.values[common]):
        raise DescriptorError("hilbert grid is inconsistent with its own semigroup")
    return model


def rebuilt_subcurve(model, branches) -> GermModel:
    """The subcurve as a ``semigroup`` descriptor passed to ``build_model``
    (no cache)."""
    J = tuple(sorted(set(branches)))
    if J == tuple(range(1, model.r + 1)):
        return model
    table = semigroup_from_hilbert(restrict_to_subcurve(model.hilbert, J))
    desc = GermDescriptor(
        r=len(J),
        kind="semigroup",
        payload=(table.conductor, table.points()),
        name=f"{model.name or 'germ'}|{','.join(map(str, J))}",
        plane=None,
        gorenstein=None,
    )
    return build_model(desc)


# ---------------------------------------------------------------------------
# tameness conditions of the homology route, every group computed


def tame_conditions_without_shortcuts(model) -> tuple[bool, dict]:
    """Conditions (a)-(d): minimum weight -2, a minimal spectral 1-cycle
    of weight -1, branches of type A, complements of type A or D; (b)
    read from the rank of M(1, -1) for every |m|, (d) checked on every
    branch complement."""
    conds: dict[str, object] = {"a": model.min_w == -2}
    if not conds["a"]:
        return False, {"conditions": conds}
    rank = minimal_spectral_cycles(model.weight, 1, -1).rank
    conds["b"] = rank != 0
    conds["M(1,-1) rank"] = rank
    conds["c"] = all(model.branch(i).min_w == 0 for i in range(1, model.r + 1))
    conds["d"] = True
    if model.r > 1:
        for i in range(1, model.r + 1):
            hat = model.complement(i)
            good = hat.min_w == 0
            if not good and hat.min_w == -1:
                good = minimal_spectral_cycles(hat.weight, 1, 0).rank != 0
            conds["d"] = conds["d"] and good
    tame = bool(conds["a"] and conds["b"] and conds["c"] and conds["d"])
    return tame, {"conditions": conds}


# ---------------------------------------------------------------------------
# the motivic identities, one coefficient polynomial per point


def pe_substitution_check_by_points(
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
    for ell in box(bounds):
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


def hilbert_from_motivic_by_points(
    coeffs: dict[Point, QPoly], r: int, bound: Point
) -> HilbertGrid:
    """Recover the Hilbert grid from the coefficient table.

    h(l) is the q-order of the coefficient at the minimal support point
    above l; the support must therefore be min-closed with a visible
    stable region, otherwise InconsistentInput.
    """
    shape = tuple(b + 1 for b in bound)
    supp = np.zeros(shape, dtype=bool)
    orders = np.zeros(shape, dtype=np.int64)
    for p, q in coeffs.items():
        p = tuple(p)
        if not q.is_zero() and leq(p, bound):
            supp[p] = True
            orders[p] = q.order()
    if not supp[(0,) * r]:
        raise InconsistentInput("support must contain 0")
    mins, p = upset_minima(supp)
    if p is not None:
        raise InconsistentInput(
            f"no unique minimal support point above {p}; support not min-closed"
        )
    values = orders[tuple(np.moveaxis(mins, -1, 0))]
    grid = HilbertGrid(r=r, bound=tuple(bound), values=values)
    try:
        grid.validate()
    except Exception as exc:
        raise InconsistentInput(f"recovered grid invalid: {exc}")
    return grid


def numerator_coeffs_by_points(coeffs: dict[Point, QPoly], r: int, bound: Point) -> dict:
    """Coefficients of P^m * prod(1 - t_i q) (the polynomial numerator)
    as {(l, j): int} on R(0, bound)."""
    out: dict[tuple[Point, int], int] = {}
    for p in box(bound):
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


def gorenstein_functional_check_by_points(
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
    num = numerator_coeffs_by_points(coeffs, r, region)
    for (p, j), v in num.items():
        if not leq(p, c):
            return False
        mirror = (tuple(ci - x for ci, x in zip(c, p)), j + delta - norm(p))
        if num.get(mirror, 0) != v:
            return False
    return True


def gorenstein_motivic_check_by_points(model) -> bool:
    """Functional equation of the motivic numerator.

    Gated: only meaningful for Gorenstein germs, so a germ whose
    weight table is not symmetric is rejected outright.
    """
    if not model.is_gorenstein:
        raise InconsistentInput(
            "precondition unmet: the germ is not Gorenstein "
            "(weight symmetry fails)"
        )
    outer = padd(model.conductor, ones(model.r))
    grown = model.ensure_bound(padd(outer, ones(model.r)))
    coeffs = {}
    for p in box(outer):
        coeffs[p] = motivic_coeff(grown.hilbert, p)
    return gorenstein_functional_check_by_points(
        coeffs, model.conductor, model.delta, outer=outer
    )


# ---------------------------------------------------------------------------
# readings no command makes


def poincare_from_hilbert(h: HilbertGrid, conductor: Point | None = None) -> MultiPoly:
    """Poincare coefficients p(l) = sum_J (-1)^(|J|+1) h(l+e_J) on
    R(0, bound - e)."""
    r = h.r
    if any(b < 1 for b in h.bound):
        raise MarginTooSmall("need at least one unit of margin in every axis")
    if conductor is not None and not leq(
        tuple(c + 1 for c in conductor), h.bound
    ):
        raise MarginTooSmall(
            f"support may be truncated: bound {h.bound} < conductor {conductor} + e"
        )
    # p = (-1)^(r+1) * (forward difference in every axis)
    diff = values_on(h, h.bound).astype(np.int64)
    for axis in range(r):
        diff = np.diff(diff, axis=axis)
    out = {}
    for idx in np.argwhere(diff):
        p = tuple(int(x) for x in idx)
        out[p] = int(diff[p]) if r % 2 == 1 else -int(diff[p])
    return MultiPoly.from_dict(r, out)


def validate_semigroup_consistency(table: SemigroupTable, h: HilbertGrid) -> bool:
    """Round-trip guard: semigroup(hilbert(S)) must reproduce S.

    Returns False when the table read off ``h`` has another conductor or
    other members.
    """
    back = semigroup_from_hilbert(h)
    return back.conductor == table.conductor and bool(
        np.array_equal(back.mask, table.mask)
    )


def pe_univariate(pe: dict) -> dict[tuple[int, int, int], int]:
    """Collapse a refined table to levels: (d, n, k) -> rank."""
    out: dict[tuple[int, int, int], int] = {}
    for (ell, n, k), rank in pe.items():
        key = (norm(ell), n, k)
        out[key] = out.get(key, 0) + rank
    return out


def max_weight_conductor_box(w: WeightGrid) -> int:
    """max w over R(0, c)."""
    return int(conductor_values(w).max())


def total_rank(report: HomologyReport, k: int) -> int:
    """Rank of the direct sum over all levels (finite for k >= 1;
    for k = 0 only the levels up to contractibility are counted)."""
    return sum(report.table[n][k][0] for n in report.table)


def hilbert_values(w: WeightGrid) -> np.ndarray:
    """Recover h = (w + |l|) / 2 (exact) on R(0, bound)."""
    values = w.values
    return (values + norm_array(values.shape)) // 2


def at_one(q: QPoly) -> int:
    """The coefficient polynomial at q = 1."""
    return sum(c for _, c in q.coeffs)


def weight_table_by_points(model) -> list[str]:
    """The weight table's lines, cell by cell: w(l), starred for a
    member and bracketed at c; rows l2 descending, columns l1 ascending,
    one block per (l3, .., lr) in the order of ``box``."""
    c = model.conductor

    def cell(p):
        w = model.weight.w(p)
        text = f"{w}*" if model.semigroup.contains(p) else str(w)
        return f"[{w}]" if p == c else text

    if model.r == 1:
        cells = [cell((x,)) for x in range(c[0] + 1)]
        width = max(len(t) for t in cells)
        return [
            "l:  " + " ".join(str(x).rjust(width) for x in range(c[0] + 1)),
            "w:  " + " ".join(t.rjust(width) for t in cells),
        ]
    lines = []
    for rest in box(c[2:]):
        if rest:
            lines.append("[" + ",".join(f"l{i + 3}={v}" for i, v in enumerate(rest)) + "]")
        rows = [[cell((x, y) + rest) for x in range(c[0] + 1)] for y in range(c[1], -1, -1)]
        width = max(len(t) for row in rows for t in row)
        for y, row in zip(range(c[1], -1, -1), rows):
            lines.append(f"l2={y}: " + " ".join(t.rjust(width) for t in row))
        lines.append("")
    return lines
