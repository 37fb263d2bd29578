"""Sparse integer Smith reduction for homology computations.

One loop reduces every matrix, held as row and column dicts.  It takes
the entry p of least |value| as pivot, then least fill-in, then lowest
(col, row).  Row operations take from every other row the multiple of
the pivot row that leaves in p's column only the remainder, smaller
than |p|; with a unit pivot or one that divides its column this is the
Schur complement, exact in integers.  Once the column is clear, column
operations do the same to the pivot row, changing nothing else.  A
pivot alone in its row and column is eliminated; where a remainder is
left the loop scans every row again for the next pivot, and since the
least |entry| strictly falls, the loop ends.  Boundary matrices of
cubical complexes have entries +-1, so almost all pivots are units.
The rare non-unit pivots need not form a divisibility chain (diag(2, 3)
gives [6]), so only they are normalized into invariant factors.

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

    def add_to(i, j, v):
        v += rows.get(i, {}).get(j, 0)
        if v:
            rows.setdefault(i, {})[j] = v
            cols.setdefault(j, {})[i] = v
        elif i in rows and j in rows[i]:
            kill(i, j)

    while cols:
        best = None
        for i, row in rows.items():
            fill = len(row) - 1
            for j, v in row.items():
                key = (abs(v), (len(cols[j]) - 1) * fill, j, i)
                if best is None or key < best:
                    best = key
        _, _, pj, pi = best
        pv = rows[pi][pj]
        # clear column pj down to remainders smaller than |pv| by row
        # operations, then row pi by column operations, which on a clear
        # column change nothing else
        prow = list(rows[pi].items())
        for i, v in list(cols[pj].items()):
            if i != pi:
                q = v // pv
                for j, vj in prow:
                    add_to(i, j, -q * vj)
        if len(cols[pj]) > 1:
            continue
        for j, v in prow:
            if j != pj:
                add_to(pi, j, -(v // pv) * pv)
        if len(rows[pi]) > 1:
            continue
        rank += 1
        if pv != 1 and pv != -1:
            diag.append(abs(pv))
        kill(pi, pj)

    if not diag:
        return rank, []
    return rank, [d for d in _invariant_factors(diag) if d > 1]


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
