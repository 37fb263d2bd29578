"""Reference implementations that the package's engines are tested against.

* ``per_level_lattice_homology``: lattice homology computed level by
  level, with one Smith reduction per sublevel complex and one per
  relative pair (S_{n+1}, S_n); U-ranks come from the long exact sequence
  of the pair.  It is the engine ``lattice_homology`` replaced.
* ``monomial_image`` / ``exact_rank`` / ``hilbert_by_valuations``: the
  Hilbert function of a germ with monomial branches t -> (c_x t^a,
  c_y t^b), as the rank of the span of all monomial images in
  prod_i Q[t]/(t^(l_i)), in exact Fraction arithmetic.
"""

from fractions import Fraction

from latcurve import homology, relative_homology, sublevel_complex
from latcurve.homology import HomologyReport, max_weight_conductor_box, min_weight

# ---------------------------------------------------------------------------
# lattice homology, one level at a time


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
