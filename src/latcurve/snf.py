"""Sparse integer Smith reduction for homology computations.

Boundary matrices of cubical complexes are extremely sparse with entries
+-1, so almost all pivots are units and elimination stays integral.  The
rare leftover block with no unit entries is finished with a dense
textbook Smith reduction; diagonal entries are then normalized into the
invariant-factor chain.

``smith_invariants`` takes a matrix as a list of columns, each column a
dict {row_index: coefficient}.  ``spectral`` reads it for every E1
entry; ``homology`` only for the torsion of a sublevel complex whose
filtered reduction met a pivot other than +-1.
"""

from __future__ import annotations

from math import gcd


def smith_invariants(columns):
    """(rank, torsion) of an integer matrix over Z.

    ``torsion`` is the sorted list of invariant factors > 1.  Pivoting is
    deterministic: among entries of minimal |value| the one with minimal
    fill-in (then lowest (col, row)) wins.
    """
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

    def set_entry(i, j, v):
        if v:
            rows.setdefault(i, {})[j] = v
            cols.setdefault(j, {})[i] = v
        elif i in rows and j in rows[i]:
            kill(i, j)

    # phase 1: unit pivots only
    while True:
        best = None
        for j, col in cols.items():
            for i, v in col.items():
                if v == 1 or v == -1:
                    fill = (len(col) - 1) * (len(rows[i]) - 1)
                    key = (fill, j, i)
                    if best is None or key < best[0]:
                        best = (key, i, j, v)
        if best is None:
            break
        _, pi, pj, pv = best
        rank += 1
        prow = dict(rows[pi])
        pcol = dict(cols[pj])
        for j in prow:
            kill(pi, j)
        for i in pcol:
            if i in rows and pj in rows.get(i, {}):
                kill(i, pj)
        for i, ci in pcol.items():
            if i == pi:
                continue
            f = ci * pv  # ci / pv since pv in {1,-1}
            for j, vj in prow.items():
                if j == pj:
                    continue
                cur = rows.get(i, {}).get(j, 0)
                set_entry(i, j, cur - f * vj)

    if not cols:
        return rank, []

    # phase 2: dense Smith reduction of the small leftover block
    row_ids = sorted(rows)
    col_ids = sorted(cols)
    ri = {i: a for a, i in enumerate(row_ids)}
    ci = {j: b for b, j in enumerate(col_ids)}
    m, n = len(row_ids), len(col_ids)
    a = [[0] * n for _ in range(m)]
    for j, col in cols.items():
        for i, v in col.items():
            a[ri[i]][ci[j]] = v
    diag.extend(_dense_smith_diagonal(a))
    rank += len(diag)
    factors = _invariant_factors(diag)
    return rank, [d for d in factors if d > 1]


def _dense_smith_diagonal(a):
    """Nonzero diagonal of a Smith form of the dense matrix a."""
    m = len(a)
    n = len(a[0]) if m else 0
    diag = []
    top = 0
    while True:
        pivot = None
        for i in range(top, m):
            for j in range(top, n):
                if a[i][j] and (pivot is None or abs(a[i][j]) < abs(a[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        i0, j0 = pivot
        a[top], a[i0] = a[i0], a[top]
        for row in a:
            row[top], row[j0] = row[j0], row[top]
        while True:
            p = a[top][top]
            dirty = False
            for i in range(top + 1, m):
                if a[i][top]:
                    q = a[i][top] // p
                    for j in range(top, n):
                        a[i][j] -= q * a[top][j]
                    if a[i][top]:
                        a[top], a[i] = a[i], a[top]
                        dirty = True
                        break
            if dirty:
                continue
            for j in range(top + 1, n):
                if a[top][j]:
                    q = a[top][j] // p
                    for i in range(top, m):
                        a[i][j] -= q * a[i][top]
                    if a[top][j]:
                        for i in range(m):
                            a[i][top], a[i][j] = a[i][j], a[i][top]
                        dirty = True
                        break
            if dirty:
                continue
            # pivot must divide the remaining block for a true Smith chain
            bad = None
            for i in range(top + 1, m):
                for j in range(top + 1, n):
                    if a[i][j] % p:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            for j in range(top, n):
                a[top][j] += a[bad][j]
        diag.append(abs(a[top][top]))
        top += 1
        if top >= m or top >= n:
            break
    return diag


def _invariant_factors(diag):
    """Normalize diagonal entries into a divisibility chain."""
    d = [abs(x) for x in diag if x]
    changed = True
    while changed:
        changed = False
        for i in range(len(d)):
            for j in range(i + 1, len(d)):
                if d[j] % d[i]:
                    g = gcd(d[i], d[j])
                    d[i], d[j] = g, d[i] * d[j] // g
                    changed = True
    return sorted(d)
