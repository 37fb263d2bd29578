"""Acceptance gate: the seven exit criteria, each printed as one
pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``).

Every comparison is exact integer equality (tolerance 0 throughout).
The exit-code contract of the CLI (0/2/3/4) is exercised in
tests/test_cli.py; route agreement failures below would surface as
RouteDisagreement.
"""

import itertools
import math
import random
from contextlib import contextmanager

from latcurve import (
    classify,
    e1_refined,
    euler_characteristic,
    gorenstein_symmetry,
    min_weight,
    minimal_spectral_cycles,
    motivic_coeff,
    pe_series,
)
from latcurve.classify import certified_omega
from latcurve.lattice import box, norm, padd, pmax, pmin, unit
from latcurve.series import RationalSeries, expand, poly

from expected_tables import (
    D4_TABLE,
    D5_TABLE,
    D6_TABLE,
    D7_TABLE,
    D8_TABLE,
    E6_ROW,
    E7_TABLE,
    E8_ROW,
    T36_TABLE,
    T44_TABLE,
    TPQ_CORNER,
    check_table,
    table_A_even,
    table_A_odd,
    table_T3q,
)
from oracles import (
    pe_substitution_check_by_points,
    total_rank,
    validate_semigroup_consistency,
)

ALL_GERMS = [
    ("A", 0), ("A", 1), ("A", 2), ("A", 3), ("A", 4), ("A", 5), ("A", 6),
    ("D", 4), ("D", 5), ("D", 6), ("D", 7), ("D", 8),
    ("E", 6), ("E", 7), ("E", 8),
    ("T", 4, 4), ("T", 3, 6), ("T", 3, 7), ("T", 3, 9),
    ("T", 5, 5), ("T", 5, 7), ("T", 7, 7), ("T", 7, 9),
    ("E12",), ("E13",), ("E14",), ("Z11",), ("Z12",), ("Z13",),
    ("W12",), ("W13",), ("W1_0",), ("E18",),
]


@contextmanager
def criterion(num, label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} ({label}): FAIL")
        raise
    print(f"ACCEPTANCE {num} ({label}): PASS")


def test_criterion_1_weight_tables(model_of):
    with criterion(1, "weight tables on R(0,c)"):
        for n in (2, 4, 6):
            got = [model_of("A", n).weight.w((i,)) for i in range(n + 1)]
            assert got == table_A_even(n), f"A_{n}"
        for n in (1, 3, 5):
            k = (n + 1) // 2
            assert not check_table(model_of("A", n), table_A_odd(k)), f"A_{n}"
        for n, table in [(4, D4_TABLE), (5, D5_TABLE), (6, D6_TABLE),
                         (7, D7_TABLE), (8, D8_TABLE)]:
            assert not check_table(model_of("D", n), table), f"D_{n}"
        assert [model_of("E", 6).weight.w((i,)) for i in range(7)] == E6_ROW
        assert [model_of("E", 8).weight.w((i,)) for i in range(9)] == E8_ROW
        assert not check_table(model_of("E", 7), E7_TABLE)
        assert not check_table(model_of("T", 4, 4), T44_TABLE)
        assert not check_table(model_of("T", 3, 6), T36_TABLE)
        assert not check_table(model_of("T", 3, 7), table_T3q(2))
        assert not check_table(model_of("T", 3, 9), table_T3q(3))
        assert not check_table(model_of("T", 5, 7), {(): TPQ_CORNER})


def test_criterion_2_conductor_delta(model_of):
    with criterion(2, "conductor and delta"):
        for n in range(0, 9):
            m = model_of("A", n)
            if n % 2 == 0:
                assert m.conductor == (n,) and m.delta == n // 2, f"A_{n}"
            else:
                k = (n + 1) // 2
                assert m.conductor == (k, k) and m.delta == k, f"A_{n}"
        for n in (5, 7, 9):
            m = model_of("D", n)
            assert m.conductor == (n - 1, 2)
            assert m.delta == (n + 1) // 2
        assert model_of("E", 7).conductor == (5, 3)
        assert model_of("E", 7).delta == 4
        assert model_of("T", 3, 6).conductor == (4, 4, 4)
        for b in (2, 3, 4):
            assert model_of("T", 3, 2 * b + 3).conductor == (2 * b + 4, 4)
        for a, b in [(1, 1), (1, 2), (2, 2), (2, 3)]:
            m = model_of("T", 2 * a + 3, 2 * b + 3)
            assert m.conductor == (2 * a + 4, 2 * b + 4)


def test_criterion_3_spectral_ranks(model_of):
    with criterion(3, "minimal spectral cycle ranks"):
        cases = [
            (("D", 5), 1, 0, 1, None),
            (("D", 4), 1, 0, 2, None),
            (("E", 7), 1, 0, 0, None),
            (("T", 4, 4), 1, -1, 3, True),
            (("T", 3, 6), 1, -1, 2, True),
            (("T", 3, 7), 1, -1, 1, False),
            (("T", 5, 7), 1, -1, 1, False),
        ]
        for spec, k, n, rank, maximal in cases:
            m = model_of(*spec)
            group = minimal_spectral_cycles(m.weight, k, n)
            assert group.rank == rank, spec
            if maximal is not None:
                ceiling = math.comb(norm(m.multiplicity) - 1, group.k)
                assert (group.rank == ceiling) == maximal, spec


def test_criterion_4_lattice_homology(model_of, report_of):
    with criterion(4, "lattice homology and euler characteristic"):
        for a, b in [(1, 2), (2, 2), (2, 3)]:
            rep = report_of("T", 2 * a + 3, 2 * b + 3)
            assert total_rank(rep, 1) == a * b - 2, (a, b)
        d5 = model_of("D", 5)
        assert total_rank(report_of("D", 5), 1) == 0
        assert minimal_spectral_cycles(d5.weight, 1, 0).rank != 0
        for spec in ALL_GERMS:
            m = model_of(*spec)
            rep = report_of(*spec)
            assert euler_characteristic(rep, m.weight) == m.delta, spec


def _omega_series_of(model, depth):
    return certified_omega(model, depth)[0]


def _d4_motivic_formula_grid(bound):
    """Independent oracle: the closed rational form of the three-branch
    double-point series, expanded exactly in (t1, t2, t3, q)."""
    e = (1, 1, 1)
    num = {}
    # q (1-q)^2 t1 t2 t3 -> exponents (1,1,1,*) with q-powers 1,2,3
    for qp, cf in [(1, 1), (2, -2), (3, 1)]:
        num[e + (qp,)] = num.get(e + (qp,), 0) + cf
    # - q^3 t1 t2 t3 (1-t1)(1-t2)(1-t3)
    for sub in itertools.product((0, 1), repeat=3):
        cf = -((-1) ** sum(sub))
        key = tuple(1 + s for s in sub) + (3,)
        num[key] = num.get(key, 0) + cf
    series = RationalSeries(
        poly(4, num),
        ((1, 0, 0, 1), (0, 1, 0, 1), (0, 0, 1, 1)),
    )
    qmax = 2 * max(bound) + 4
    arr = expand(series, tuple(bound) + (qmax,))
    arr[(0, 0, 0, 0)] += 1  # the constant term "1 +" in front
    return arr


def test_criterion_5_motivic(model_of, report_of):
    with criterion(5, "motivic series and substitution identities"):
        d4 = model_of("D", 4)
        # coefficient of t^m q^2 is -2
        assert motivic_coeff(d4.hilbert, (1, 1, 1)).as_dict() == {1: 1, 2: -2}
        # the omega-substituted series through omega^3: the expansion of
        # (1 + 3w - 5w^2 + w^3) / (w (1-w)^2), i.e. 1/w + 5 + 4w + 4w^2 + ...
        # (independently re-derived below from the closed rational form;
        # the reference text prints a numerator with a typo)
        d4 = d4.ensure_bound((8, 8, 8))
        s = _omega_series_of(d4, 3)
        assert s.order == -1
        assert s.coeffs == (1, 5, 4, 4, 4)
        numer = {0: 1, 1: 3, 2: -5, 3: 1}
        want = []
        for n in range(-1, 4):
            acc = 0
            for j, cf in numer.items():
                k = n + 1 - j
                if k >= 0:
                    acc += cf * (k + 1)
            want.append(acc)
        assert list(s.coeffs) == want
        # closed-form oracle for the full motivic grid of the same germ
        inner = (3, 3, 3)
        grid = _d4_motivic_formula_grid(tuple(x + 1 for x in inner))
        for ell in box(inner):
            got = motivic_coeff(d4.hilbert, ell).as_dict()
            ref = {
                q: int(grid[ell + (q,)])
                for q in range(grid.shape[3])
                if grid[ell + (q,)]
            }
            assert got == ref, ell
        # ord f = min w and leading coefficient = bottom homology rank,
        # plus the substitution identity, for every catalog germ
        for spec in ALL_GERMS:
            m = model_of(*spec)
            f = _omega_series_of(m, 0)
            rep = report_of(*spec)
            assert f.order == min_weight(m.weight), spec
            assert f.leading() == rep.betti(0, rep.n_min), spec
            table = pe_series(m.weight, m.conductor)
            assert pe_substitution_check_by_points(table, m.hilbert, m.conductor), spec


def test_criterion_6_classification(model_of):
    with criterion(6, "Cohen-Macaulay classification, three routes"):
        finite_cases = (
            [("A", n, "A") for n in range(0, 7)]
            + [("D", n, "D-dominating") for n in (4, 5, 6, 7, 8)]
            + [("E", n, "E-dominating") for n in (6, 7, 8)]
        )
        for name, n, subtype in finite_cases:
            v = classify(model_of(name, n))
            assert v.cmtype == "finite" and v.subtype == subtype, (name, n)
            assert v.agreement
        for spec in [("T", 4, 4), ("T", 3, 6)]:
            v = classify(model_of(*spec))
            assert (v.cmtype, v.growth, v.family) == ("tame", "finite", "parabolic")
        for spec in [("T", 3, 7), ("T", 3, 9), ("T", 5, 5), ("T", 5, 7)]:
            v = classify(model_of(*spec))
            assert (v.cmtype, v.growth, v.family) == (
                "tame", "infinite", "hyperbolic",
            ), spec
        for key in ("E12", "Z11", "W12"):
            m = model_of(key)
            v = classify(m)
            assert v.cmtype == "wild" and m.min_w == -2 and m.delta == 6, key
            assert v.family == "exceptional"
        m = model_of("W1_0")
        v = classify(m)
        assert v.cmtype == "wild" and m.min_w == -2 and m.delta == 8
        assert v.family is None


def test_criterion_7_property_suites(model_of):
    with criterion(7, "invariant property suites"):
        rng = random.Random(1729)
        for spec in ALL_GERMS:
            m = model_of(*spec)
            # path independence of h across every axis pair (spot grid)
            h = m.hilbert
            inner = tuple(b - 1 for b in m.bound)
            pts = list(box(inner))
            for ell in rng.sample(pts, min(40, len(pts))):
                for i in range(m.r):
                    for j in range(i + 1, m.r):
                        li = padd(ell, unit(m.r, i))
                        lj = padd(ell, unit(m.r, j))
                        lij = padd(li, unit(m.r, j))
                        assert (h.h(li) - h.h(ell)) + (h.h(lij) - h.h(li)) == (
                            h.h(lj) - h.h(ell)
                        ) + (h.h(lij) - h.h(lj))
            # matroid inequality on 1000 random in-grid pairs
            all_pts = list(box(m.bound))
            for _ in range(1000):
                a, b = rng.choice(all_pts), rng.choice(all_pts)
                assert h.h(a) + h.h(b) >= h.h(pmin(a, b)) + h.h(pmax(a, b))
            # multiplicity box weights
            for ell in box(m.multiplicity):
                if any(ell):
                    assert m.weight.w(ell) == 2 - norm(ell)
            # Gorenstein symmetry for all (plane) entries
            assert gorenstein_symmetry(m.weight, m.conductor), spec
            # semigroup round trip
            assert validate_semigroup_consistency(m.semigroup, m.hilbert)
        # torsion freeness and the support law over the full grid
        for spec in [("D", 4), ("D", 5), ("E", 7), ("T", 3, 6), ("T", 4, 4)]:
            m = model_of(*spec)
            inner = tuple(b - 1 for b in m.bound)
            for ell in box(inner):
                for k in range(m.r):
                    n = m.weight.w(ell) + k
                    e1_refined(m.weight, ell, k, n)  # raises on torsion
                    assert e1_refined(m.weight, ell, k, n + 1).rank == 0
        # vanishing below j|m| and structure witnesses on nonzero entries
        for spec in [("D", 5), ("T", 3, 6), ("T", 4, 4)]:
            m = model_of(*spec)
            mm = norm(m.multiplicity)
            for k, n in [(1, 0), (1, -1)]:
                if (k - n) % (mm - 2):
                    continue
                j = (k - n) // (mm - 2)
                from latcurve import e1_level

                for d in range(j * mm):
                    assert e1_level(m.weight, d, k, n).rank == 0
            table = pe_series(m.weight, m.conductor)
            for (ell, n, k), rank in table.items():
                witnesses = [
                    idx
                    for idx in itertools.combinations(range(m.r), k + 1)
                    if all(
                        m.weight.w(
                            tuple(
                                x + (1 if i in sub else 0)
                                for i, x in enumerate(ell)
                            )
                        )
                        == n - k + len(sub)
                        for size in range(k + 2)
                        for sub in itertools.combinations(idx, size)
                    )
                ]
                assert witnesses, (spec, ell, n, k)
        # minimum weight of every shipped T germ is exactly -2
        for spec in [
            ("T", 4, 4), ("T", 3, 6), ("T", 3, 7), ("T", 3, 9),
            ("T", 5, 5), ("T", 5, 7), ("T", 7, 7), ("T", 7, 9),
        ]:
            assert min_weight(model_of(*spec).weight) == -2
