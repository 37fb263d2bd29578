"""Invariant-based property suites: path independence, the matroid
inequality, multiplicity-box weights, symmetry, support laws, vanishing
patterns, and round trips, over the whole catalog; plus randomized
single-branch germs driven by hypothesis."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latcurve import (
    build_model,
    gorenstein_symmetry,
    hilbert_from_semigroup,
    min_weight,
    semigroup_from_hilbert,
    semigroup_from_low_points,
    weight_from_hilbert,
)
from latcurve.catalog import numerical_semigroup
from latcurve.germ import GermDescriptor
from latcurve.lattice import box, norm, padd, pmax, pmin, unit

from germ_strategies import conductor_of, numerical_semigroups
from oracles import (
    assert_same_homology,
    hilbert_from_motivic_by_points,
    per_level_lattice_homology,
    validate_semigroup_consistency,
)

CATALOG = [
    ("A", 0), ("A", 2), ("A", 3), ("D", 4), ("D", 5), ("E", 6), ("E", 7),
    ("E", 8), ("T", 4, 4), ("T", 3, 6), ("T", 3, 7), ("T", 5, 7),
    ("E12",), ("E13",), ("Z11",), ("Z12",), ("W13",), ("W1_0",),
]

PLANE_T = [("T", 4, 4), ("T", 3, 6), ("T", 3, 7), ("T", 3, 9), ("T", 5, 5), ("T", 5, 7)]


def naive_increment(table, members, ell, i):
    """Witness search for the unit step straight from the definition."""
    return any(
        s[i] == ell[i] and all(s[j] >= ell[j] for j in range(len(ell)) if j != i)
        for s in members
    )


@pytest.mark.parametrize("spec", CATALOG, ids=lambda s: "_".join(map(str, s)))
def test_path_independence(spec, model_of):
    """The h-steps along (e_i then e_j) and (e_j then e_i) agree, with the
    increments recomputed by naive witness enumeration."""
    m = model_of(*spec)
    if m.r == 1:
        return
    members = [p for p in box(m.bound) if m.semigroup.contains(p)]
    rng = random.Random(hash(spec) & 0xFFFF)
    # witness confinement needs max(l + e, c) inside the member list
    inner = tuple(b - 1 for b in m.bound)
    pts = list(box(inner))
    for ell in rng.sample(pts, min(60, len(pts))):
        for i in range(m.r):
            for j in range(i + 1, m.r):
                li = padd(ell, unit(m.r, i))
                lj = padd(ell, unit(m.r, j))
                route_ij = naive_increment(m.semigroup, members, ell, i) + (
                    naive_increment(m.semigroup, members, li, j)
                )
                route_ji = naive_increment(m.semigroup, members, ell, j) + (
                    naive_increment(m.semigroup, members, lj, i)
                )
                assert route_ij == route_ji
                # and the grid realizes those steps
                lij = padd(li, unit(m.r, j))
                assert m.hilbert.h(lij) - m.hilbert.h(ell) == route_ij


@pytest.mark.parametrize("spec", CATALOG, ids=lambda s: "_".join(map(str, s)))
def test_matroid_inequality_random_pairs(spec, model_of):
    m = model_of(*spec)
    rng = random.Random(20240817)
    pts = list(box(m.bound))
    for _ in range(1000):
        a = rng.choice(pts)
        b = rng.choice(pts)
        ha, hb = m.hilbert.h(a), m.hilbert.h(b)
        assert ha + hb >= m.hilbert.h(pmin(a, b)) + m.hilbert.h(pmax(a, b))


@pytest.mark.parametrize("spec", CATALOG, ids=lambda s: "_".join(map(str, s)))
def test_multiplicity_box_weights(spec, model_of):
    m = model_of(*spec)
    for ell in box(m.multiplicity):
        if any(ell):
            assert m.weight.w(ell) == 2 - norm(ell)


def test_weight_increases_beyond_conductor(model_of):
    for spec in [("D", 5), ("T", 3, 6), ("E13",)]:
        m = model_of(*spec)
        c = m.conductor
        for ell in box(tuple(b - 1 for b in m.bound)):
            if not all(x >= ci for x, ci in zip(ell, c)):
                continue
            for i in range(m.r):
                up = padd(ell, unit(m.r, i))
                assert m.weight.w(up) == m.weight.w(ell) + 1


@pytest.mark.parametrize("spec", CATALOG + PLANE_T, ids=lambda s: "_".join(map(str, s)))
def test_gorenstein_symmetry_all_plane_entries(spec, model_of):
    m = model_of(*spec)
    assert gorenstein_symmetry(m.weight, m.conductor)


@pytest.mark.parametrize(
    "spec", [("D", 4), ("D", 5), ("E", 7), ("T", 3, 6), ("T", 4, 4), ("E13",)],
    ids=lambda s: "_".join(map(str, s)),
)
def test_e1_support_law_and_torsion_freeness(spec, model_of):
    """Across the full grid: entries vanish off n = w(l) + k, are
    torsion-free at n = w(l) + k (raised internally otherwise), and obey
    the binomial rank bound."""
    from math import comb

    from latcurve import e1_refined

    m = model_of(*spec)
    inner = tuple(b - 1 for b in m.bound)
    rng = random.Random(7)
    for ell in box(inner):
        for k in range(m.r):
            base = m.weight.w(ell) + k
            entry = e1_refined(m.weight, ell, k, base)
            if k >= 1:
                assert entry.rank <= comb(m.r - 1, k)
            off = base + rng.choice([-2, -1, 1, 2])
            assert e1_refined(m.weight, ell, k, off).rank == 0


@pytest.mark.parametrize("spec", PLANE_T, ids=lambda s: "_".join(map(str, s)))
def test_min_weight_is_minus_two_for_tpq(spec, model_of):
    assert min_weight(model_of(*spec).weight) == -2


def test_semigroup_hilbert_round_trips(model_of):
    for spec in CATALOG:
        m = model_of(*spec)
        assert validate_semigroup_consistency(m.semigroup, m.hilbert)


def test_motivic_round_trips(model_of):
    from latcurve import motivic_coeff

    for spec in [("D", 5), ("E", 7), ("T", 3, 6)]:
        m = model_of(*spec)
        inner = tuple(b - 1 for b in m.bound)
        coeffs = {p: motivic_coeff(m.hilbert, p) for p in box(inner)}
        back = hilbert_from_motivic_by_points(coeffs, m.r, inner)
        sl = tuple(slice(0, b + 1) for b in inner)
        assert np.array_equal(back.values, m.hilbert.values[sl])


# ---------------------------------------------------------------------------
# hypothesis: randomized single-branch germs


@settings(max_examples=40, deadline=None)
@given(numerical_semigroups())
def test_random_single_branch_germ_invariants(gens):
    c = conductor_of(gens)
    elements = numerical_semigroup(gens, c)
    table = semigroup_from_low_points(1, (c,), elements)
    h = hilbert_from_semigroup(table, (c + 6,))
    w = weight_from_hilbert(h, semigroup=table)
    # detected conductor equals the brute-force one
    back = semigroup_from_hilbert(h)
    assert back.conductor == (c,)
    # h counts members below, w parity, delta = gaps
    members = {ell for ell in range(c + 7) if table.contains((ell,))}
    for ell in range(c + 5):
        assert h.h((ell,)) == sum(1 for s in members if s < ell)
    gaps = sum(1 for v in range(c) if v not in members)
    assert norm((c,)) - h.h((c,)) == gaps
    # euler characteristic agrees with delta on every random germ, and the
    # filtered reduction agrees with the per-level Smith engine
    from latcurve.homology import euler_characteristic, lattice_homology

    desc = GermDescriptor(r=1, kind="semigroup", payload=((c,), elements))
    model = build_model(desc)
    rep = lattice_homology(model.weight)
    assert euler_characteristic(rep, model.weight) == gaps
    assert_same_homology(rep, per_level_lattice_homology(model.weight))


@settings(max_examples=25, deadline=None)
@given(numerical_semigroups(), st.integers(min_value=0, max_value=12))
def test_random_germ_motivic_support(gens, probe):
    from latcurve import motivic_coeff

    c = conductor_of(gens)
    desc = GermDescriptor(
        r=1, kind="semigroup", payload=((c,), numerical_semigroup(gens, c))
    )
    m = build_model(desc)
    ell = (min(probe, m.bound[0] - 1),)
    assert (not motivic_coeff(m.hilbert, ell).is_zero()) == m.semigroup.contains(ell)
