import itertools
import re
from math import comb

import pytest

from latcurve import (
    MarginTooSmall,
    TorsionFound,
    UndefinedWeight,
    e1_level,
    e1_refined,
    minimal_spectral_cycles,
    pe_series,
)
from latcurve.lattice import norm

from oracles import pe_univariate


def test_torsion_is_named_as_a_list_from_a_fresh_or_a_memoized_rank(
    model_of, monkeypatch, cold_memos
):
    """A reduction that reports torsion raises TorsionFound naming the
    entry and its invariant factors, on the first read of the mask and
    again when its rank comes from the memo."""
    from latcurve import spectral

    real = spectral.smith_invariants
    monkeypatch.setattr(spectral, "smith_invariants", lambda cols: (real(cols)[0], [2]))
    want = "E1 entry at l=(0, 0), k=0, n=5 has torsion [2]"
    for _ in range(2):
        with pytest.raises(TorsionFound, match=re.escape(want)):
            e1_refined(model_of("D", 5).weight, (0, 0), 0, 5)
    assert spectral._rank.cache_info().hits >= 1


def test_refined_entry_d5(model_of):
    m = model_of("D", 5)
    assert e1_refined(m.weight, (2, 1), 1, 0).rank == 1


def test_refined_entry_d4(model_of):
    m = model_of("D", 4)
    assert e1_refined(m.weight, (1, 1, 1), 1, 0).rank == 2


def test_refined_entry_off_support(model_of):
    m = model_of("D", 5)
    # any (l, k, n) with n != w(l) + k has rank 0
    assert e1_refined(m.weight, (2, 1), 1, 5).rank == 0
    assert e1_refined(m.weight, (0, 0), 1, 0).rank == 0


def test_refined_needs_margin(model_of):
    m = model_of("D", 5)
    with pytest.raises(MarginTooSmall):
        e1_refined(m.weight, m.bound, 0, 0)


def test_level_entries(model_of):
    t44 = model_of("T", 4, 4)
    assert e1_level(t44.weight, 4, 1, -1).rank == 3
    t36 = model_of("T", 3, 6)
    assert e1_level(t36.weight, 6, 1, -1).rank == 2
    assert e1_level(t36.weight, 0, 0, 0).rank == 1


def test_mincycle_examples(model_of):
    assert minimal_spectral_cycles(model_of("D", 5).weight, 1, 0).rank == 1
    assert minimal_spectral_cycles(model_of("T", 3, 7).weight, 1, -1).rank == 1
    assert minimal_spectral_cycles(model_of("T", 4, 4).weight, 1, -1).rank == 3


def test_mincycle_j_witness(model_of):
    g = minimal_spectral_cycles(model_of("T", 3, 7).weight, 1, -1)
    assert g.j == 2
    g = minimal_spectral_cycles(model_of("T", 4, 4).weight, 1, -1)
    assert g.j == 1


def test_mincycle_undefined(model_of):
    m = model_of("A", 3)  # |m| = 2
    with pytest.raises(UndefinedWeight):
        minimal_spectral_cycles(m.weight, 1, 0)
    d5 = model_of("D", 5)  # |m| = 3: n = 1 - j for j natural, so n=2 fails
    with pytest.raises(UndefinedWeight):
        minimal_spectral_cycles(d5.weight, 1, 2)


def test_maximal_rank(model_of):
    # the ceiling of M(1, -1) is C(|m| - 1, 1)
    for spec, m, maximal in [
        (("T", 4, 4), (1, 1, 1, 1), True),
        (("T", 3, 6), (1, 1, 1), True),
        (("T", 3, 7), (2, 1), False),
        (("T", 5, 7), (2, 2), False),
    ]:
        group = minimal_spectral_cycles(model_of(*spec).weight, 1, -1)
        assert (group.rank == comb(norm(m) - 1, group.k)) == maximal, spec


def test_pe_series_smooth(model_of):
    m = model_of("A", 0)
    table = pe_series(m.weight, (3,))
    assert table == {((k,), k, 0): 1 for k in range(4)}


def test_pe_series_d5(model_of):
    m = model_of("D", 5)
    table = pe_series(m.weight, m.conductor)
    assert table[((2, 1), 0, 1)] == 1
    # every key satisfies the support law and the rank bound
    for (ell, n, k), rank in table.items():
        assert n == m.weight.w(ell) + k
        assert rank <= comb(m.r - 1, k) or k == 0


def test_pe_univariate_collapse(model_of):
    m = model_of("T", 3, 6)
    table = pe_series(m.weight, m.conductor)
    levels = pe_univariate(table)
    assert levels[(6, -1, 1)] == 2
    assert sum(r for (d, n, k), r in levels.items() if k == 1 and n == -1) == 2


def test_spectvan_vanishing(model_of):
    """Below level j|m| every entry of the chosen weight vanishes; at
    j|m| only l = j*m contributes."""
    for spec, k, n in [(("D", 5), 1, 0), (("T", 3, 6), 1, -1), (("T", 4, 4), 1, -1)]:
        m = model_of(*spec)
        mm = norm(m.multiplicity)
        j = (k - n) // (mm - 2)
        for d in range(j * mm):
            assert e1_level(m.weight, d, k, n).rank == 0
        target = tuple(j * x for x in m.multiplicity)
        m = m.ensure_bound(tuple(j * mm + 1 for _ in range(m.r)))
        for ell in itertools.product(*[range(j * mm + 1)] * m.r):
            if norm(ell) != j * mm or ell == target:
                continue
            assert e1_refined(m.weight, ell, k, n).rank == 0


def test_filtcyc_witness_structure(model_of):
    """Whenever a refined entry is nonzero there exist k+1 indices whose
    sub-sums realize the arithmetic progression of weights."""
    for spec in [("D", 4), ("D", 5), ("E", 7), ("T", 3, 6)]:
        m = model_of(*spec)
        table = pe_series(m.weight, m.conductor)
        for (ell, n, k), rank in table.items():
            found = False
            for idx in itertools.combinations(range(m.r), k + 1):
                good = True
                for size in range(k + 2):
                    for sub in itertools.combinations(idx, size):
                        p = tuple(
                            x + (1 if i in sub else 0) for i, x in enumerate(ell)
                        )
                        if m.weight.w(p) != n - k + size:
                            good = False
                            break
                    if not good:
                        break
                if good:
                    found = True
                    break
            assert found, (spec, ell, n, k)
