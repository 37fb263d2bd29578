from fractions import Fraction
from functools import lru_cache
from itertools import count

import pytest
from hypothesis import given, settings

from latcurve import (
    RouteDisagreement,
    build_model,
    classify,
    classify_unimodal_plane,
    euler_characteristic,
    lattice_homology,
)
from latcurve.catalog import numerical_semigroup
from latcurve.classify import (
    FINITE,
    SUB_A,
    SUB_D,
    SUB_E,
    WILD,
    _route_homology,
    classify_finite_pointwise,
    classify_motivic,
    classify_tame_homological,
    classify_tame_weights,
)
from latcurve.germ import GermDescriptor

from germ_strategies import (
    X_AXIS,
    Y_AXIS,
    conductor_of,
    monomial_plane_germs,
    numerical_semigroups,
    plane_germ,
)
from oracles import tame_conditions_without_shortcuts


def test_finite_pointwise(model_of):
    assert classify_finite_pointwise(model_of("E", 8).weight)
    assert classify_finite_pointwise(model_of("A", 0).weight)
    assert not classify_finite_pointwise(model_of("T", 3, 6).weight)


def test_finite_pointwise_matches_min_weight(model_of):
    for spec in [
        ("A", 4), ("D", 6), ("E", 7), ("T", 4, 4), ("T", 5, 7),
        ("E12",), ("Z11",), ("W1_0",), ("E18",),
    ]:
        m = model_of(*spec)
        assert classify_finite_pointwise(m.weight) == (m.min_w >= -1)


def test_finite_subtypes(model_of):
    assert _route_homology(model_of("A", 3))["subtype"] == "A"
    d4 = _route_homology(model_of("D", 4))
    assert d4["subtype"] == "D-dominating" and d4["M(1,0) rank"] == 2
    e7 = _route_homology(model_of("E", 7))
    assert e7["subtype"] == "E-dominating" and e7["M(1,0) rank"] == 0


def test_tame_weights_t36(model_of):
    ok, ev = classify_tame_weights(model_of("T", 3, 6))
    assert ok
    # the multiplicity-three chain condition: w(2m+e) >= w(m+e) + 1
    assert ev["probes"]["w(2m+e)"] == -1
    assert ev["probes"]["w(m+e)"] == -2


def test_tame_weights_fail_cases(model_of):
    ok, ev = classify_tame_weights(model_of("E12"))
    assert not ok
    assert not ev["conditions"]["W1b"]  # the single branch has multiplicity 3
    ok, ev = classify_tame_weights(model_of("W1_0"))
    assert not ok


def test_tame_homological(model_of):
    ok, ev = classify_tame_homological(model_of("T", 4, 4))
    assert ok and ev["conditions"]["M(1,-1) rank"] == 3
    ok, ev = classify_tame_homological(model_of("T", 3, 7))
    assert ok and ev["conditions"]["M(1,-1) rank"] == 1
    ok, ev = classify_tame_homological(model_of("E13"))
    assert not ok
    assert not ev["conditions"]["b"]


def test_tame_homological_shortcuts_agree(model_of):
    for spec in [("T", 4, 4), ("T", 3, 6), ("T", 5, 7), ("E13",), ("W1_0",), ("Z12",)]:
        m = model_of(*spec)
        fast = classify_tame_homological(m)
        slow = tame_conditions_without_shortcuts(m)
        assert fast[0] == slow[0], spec


def test_growth(model_of):
    assert _route_homology(model_of("T", 4, 4))["growth"] == "finite"
    assert _route_homology(model_of("T", 3, 6))["growth"] == "finite"
    assert _route_homology(model_of("T", 3, 7))["growth"] == "infinite"


def test_motivic_route_d4(model_of):
    ev, _ = classify_motivic(model_of("D", 4))
    assert ev["verdict"] == "finite"
    assert ev["subtype"] == "D-dominating"
    assert ev["ord f"] == -1
    assert ev["pi(3,2)"] == -2


def test_motivic_route_t44(model_of):
    ev, _ = classify_motivic(model_of("T", 4, 4))
    assert ev["verdict"] == "tame"
    assert ev["growth"] == "finite"
    assert ev["mu"] == 4
    assert ev["pi(4,2)"] == -3


@pytest.mark.parametrize(
    "spec,reads",
    [(("D", 5), [("levels", 3)]), (("E", 7), [("levels", 3)]),
     (("A", 4), [("levels", 2)]), (("T", 3, 7), [("levels", 3), ("level", 6)]),
     (("T", 4, 4), [("levels", 4)] + [("level", 3)] * 4)],
    ids=["D_5", "E_7", "A_4", "T_3_7", "T_4_4"],
)
def test_motivic_route_reads_each_level_once_per_model(spec, reads, model_of, monkeypatch):
    """The levels 0..|m| come from one read, and level |m| serves the
    pi(3,2) and pi(4,2) probes; T_{3,7} reads level 6 for pi(6,3), and
    T_{4,4} reads level 3 once on each of its four complements."""
    from latcurve import motivic

    seen = []
    for name, tag in (("univariate_levels", "levels"), ("univariate_motivic", "level")):
        def counted(h, d, real=getattr(motivic, name), tag=tag):
            seen.append((tag, d))
            return real(h, d)

        monkeypatch.setattr(motivic, name, counted)
    classify_motivic(model_of(*spec))
    assert seen == reads


def test_motivic_route_smooth(model_of):
    ev, _ = classify_motivic(model_of("A", 0))
    assert ev["verdict"] == "finite" and ev["subtype"] == "A"
    assert ev["ord f"] == 0


def test_classify_full_catalog_agreement(model_of, entry_of):
    specs = [
        ("A", 0), ("A", 1), ("A", 2), ("A", 5), ("A", 6),
        ("D", 4), ("D", 5), ("D", 7), ("D", 8),
        ("E", 6), ("E", 7), ("E", 8),
        ("T", 4, 4), ("T", 3, 6), ("T", 3, 7), ("T", 3, 9),
        ("T", 5, 5), ("T", 5, 7),
        ("E12",), ("E13",), ("E14",), ("Z11",), ("Z12",), ("Z13",),
        ("W12",), ("W13",), ("W1_0",), ("E18",),
    ]
    for spec in specs:
        v = classify(model_of(*spec))
        e = entry_of(*spec).expected
        assert v.agreement
        assert v.cmtype == e["cmtype"], spec
        assert v.subtype == e["subtype"], spec
        assert v.growth == e["growth"], spec
        assert v.family == e["family"], spec


def test_route_disagreement_is_fatal(model_of, monkeypatch):
    import importlib

    cls = importlib.import_module("latcurve.classify")
    m = model_of("D", 5)
    monkeypatch.setattr(
        cls, "classify_motivic", lambda model: ({"verdict": "wild"}, model)
    )
    with pytest.raises(RouteDisagreement):
        cls.classify(m)


def test_unimodal_families():
    assert classify_unimodal_plane("tame", "finite", -2, 6, True) == "parabolic"
    assert classify_unimodal_plane("tame", "infinite", -2, 9, True) == "hyperbolic"
    assert classify_unimodal_plane("wild", None, -2, 6, True) == "exceptional"
    assert classify_unimodal_plane("wild", None, -2, 8, True) is None
    assert classify_unimodal_plane("wild", None, -3, 9, True) is None
    assert classify_unimodal_plane("tame", "finite", -2, 6, False) is None
    assert classify_unimodal_plane("finite", None, 0, 1, True) is None


def test_mult3_cycle_weight_criterion(model_of):
    """For multiplicity-3 germs: a minimal spectral 1-cycle of weight 0
    exists iff w(m+e) >= 3 - r."""
    from latcurve import minimal_spectral_cycles
    from latcurve.lattice import norm, ones, padd

    for spec in [("D", 4), ("D", 5), ("E", 7), ("E", 8), ("T", 3, 6), ("E12",)]:
        m = model_of(*spec)
        if norm(m.multiplicity) != 3:
            continue
        has_cycle = minimal_spectral_cycles(m.weight, 1, 0).rank != 0
        probe = m.weight.w(padd(m.multiplicity, ones(m.r)))
        assert has_cycle == (probe >= 3 - m.r), spec


def test_t44_complements_are_d4_type(model_of):
    # dropping any branch of T_{4,4} leaves a germ with minimum weight -1
    # and a rank-2 group of minimal spectral 1-cycles of weight 0
    from latcurve import minimal_spectral_cycles

    m = model_of("T", 4, 4)
    for i in range(1, 5):
        hat = m.complement(i)
        assert hat.min_w == -1
        assert minimal_spectral_cycles(hat.weight, 1, 0).rank == 2


# ---------------------------------------------------------------------------
# hypothesis: classify random germs; a disagreement of the routes raises


def classify_checked(model):
    """classify, plus the Euler characteristic against delta."""
    verdict = classify(model)
    assert verdict.agreement
    hom = lattice_homology(model.weight)
    assert euler_characteristic(hom, model.weight) == model.delta
    return verdict


@settings(max_examples=40, deadline=None)
@given(monomial_plane_germs())
def test_classify_random_plane_germs(germ):
    model = build_model(germ[2])
    classify_checked(model)
    assert model.is_gorenstein  # a plane curve is a complete intersection


@settings(max_examples=40, deadline=None)
@given(numerical_semigroups())
def test_classify_random_single_branch_germs(gens):
    c = conductor_of(gens)
    elements = numerical_semigroup(gens, c)
    desc = GermDescriptor(r=1, kind="semigroup", payload=((c,), elements))
    assert classify_checked(build_model(desc)).subtype != SUB_D


@settings(max_examples=40, deadline=None)
@given(numerical_semigroups())
def test_finite_monomial_curves_are_greuel_knoerrer(gens):
    """k[[t^S]] has finite CM type iff it dominates a simple curve
    (Greuel-Knoerrer, Math. Ann. 1985).  The unibranch simple curves are
    A_2k = <2, 2k + 1>, E_6 = <3, 4> and E_8 = <3, 5>, so the type is
    finite iff m <= 2, or m = 3 with 4 or 5 in S.  Membership is read from
    the whole semigroup: <3, 4, 5> has c = 3 and holds 4 and 5."""
    members = {0}
    for v in range(1, 6):
        if any(v - g in members for g in gens):
            members.add(v)
    m = min(gens)
    finite = m <= 2 or (m == 3 and bool({4, 5} & members))
    c = conductor_of(gens)
    desc = GermDescriptor(
        r=1, kind="semigroup", payload=((c,), numerical_semigroup(gens, c))
    )
    assert (classify(build_model(desc)).cmtype == FINITE) == finite, gens


# ---------------------------------------------------------------------------
# a census of numerical semigroups: every one up to genus 12, classified


@lru_cache(maxsize=1)
def semigroup_tree(max_genus: int = 15) -> list:
    """The numerical semigroups of genus 0..max_genus, one list per
    genus, each semigroup as its set of gaps.  They are the nodes of the
    semigroup tree: N is the root, and the children of S are S minus each
    minimal generator of S above its Frobenius number (Rosales and
    Garcia-Sanchez, Numerical Semigroups, Springer 2009).  A minimal
    generator is no sum of two nonzero members; those above the Frobenius
    number F lie in (F, F + m + 1), m the least nonzero member."""
    levels, level = [], [frozenset()]
    for _ in range(max_genus + 1):
        levels.append(level)
        children = []
        for gaps in level:
            frobenius = max(gaps, default=-1)
            m = next(x for x in count(1) if x not in gaps)
            for x in range(max(frobenius + 1, 1), frobenius + m + 2):
                if all(a in gaps or x - a in gaps for a in range(1, x)):
                    children.append(gaps | {x})
        level = children
    return levels


def test_the_semigroup_tree_counts_every_genus():
    # n_g for g = 0..15 (Bras-Amoros, Semigroup Forum 2008; OEIS A007323)
    assert [len(level) for level in semigroup_tree()] == [
        1, 1, 2, 4, 7, 12, 23, 39, 67, 118, 204, 343, 592, 1001, 1693, 2857
    ]
    assert all(len(gaps) == g for g, level in enumerate(semigroup_tree()) for gaps in level)
    assert len(set(semigroup_tree()[15])) == 2857


@pytest.mark.parametrize("genus", range(13))
def test_every_numerical_semigroup_is_finite_or_wild(genus):
    """k[[t^S]] for every numerical semigroup S of the genus: 1,413 of
    them up to genus 12.  The type is finite iff m <= 2, or m = 3 with 4
    or 5 in S (Greuel-Knoerrer, Math. Ann. 1985), and wild otherwise: a
    tame curve dominates one of type T_pq (Drozd-Greuel, Compositio Math.
    1993), which has at least two branches, and domination keeps the
    normalization, so it keeps the number of branches.  Every route
    agrees, and the Euler characteristic is delta, the genus."""
    for gaps in semigroup_tree()[genus]:
        c = max(gaps, default=-1) + 1
        m = next(x for x in count(1) if x not in gaps)
        members = [(v,) for v in range(c + 1) if v not in gaps]
        model = build_model(GermDescriptor(r=1, kind="semigroup", payload=((c,), members)))
        assert model.delta == genus
        finite = m <= 2 or (m == 3 and not {4, 5} <= gaps)
        assert classify_checked(model).cmtype == (FINITE if finite else WILD), sorted(gaps)


# ---------------------------------------------------------------------------
# ground truth for plane germs, the finite half


def _tangent(branch):
    """The tangent line of t -> (c_x t^a, c_y t^b), as the slope y/x of
    its leading terms (None for the y-axis)."""
    (cx, a), (cy, b) = branch
    if cy == 0 or (cx != 0 and a < b):
        return Fraction(0)
    if cx == 0 or b < a:
        return None
    return Fraction(cy, cx)


def ade_type(branches, conductor):
    """(cmtype, subtype) of a plane germ from its branches alone, or None
    when the type is not finite.

    The simple plane curve singularities are the ADE germs (Arnold), and
    a plane curve has finite CM type iff it is simple (Greuel-Knoerrer,
    Math. Ann. 1985).  By the normal forms, multiplicity <= 2 is A_k;
    multiplicity 3 whose cubic tangent cone is not a triple line is D_k;
    multiplicity 3 with one tangent line is E_6, E_7, E_8 (mu <= 8) or
    not simple (J_10 and beyond, mu >= 10); multiplicity >= 4 is never
    simple.  The multiplicity is the sum over the branches of
    min(a, b) (1 for an axis), and mu = 2 delta - r + 1 (Milnor), with
    2 delta = |c| for a plane curve, c from the intersection numbers."""
    mult = sum(min(e for coeff, e in branch if coeff) for branch in branches)
    lines = len({_tangent(branch) for branch in branches})
    mu = sum(conductor) - len(branches) + 1
    if mult <= 2:
        return FINITE, SUB_A
    if mult == 3 and lines >= 2:
        return FINITE, SUB_D
    if mult == 3 and mu <= 8:
        return FINITE, SUB_E
    return None


def assert_ade_type(germ):
    branches, c, desc = germ
    verdict = classify(build_model(desc))
    want = ade_type(branches, c)
    if want is None:
        assert verdict.cmtype != FINITE, branches
    else:
        assert (verdict.cmtype, verdict.subtype) == want, branches


CUSP, SLOPED = ((1, 2), (1, 3)), ((1, 1), (2, 1))


@pytest.mark.parametrize(
    "branches,want",
    [
        ([X_AXIS, Y_AXIS], (FINITE, SUB_A)),  # A_1
        ([X_AXIS, ((1, 1), (1, 2))], (FINITE, SUB_A)),  # A_3
        ([X_AXIS, Y_AXIS, SLOPED], (FINITE, SUB_D)),  # D_4
        ([Y_AXIS, CUSP], (FINITE, SUB_D)),  # D_5
        ([X_AXIS, CUSP], (FINITE, SUB_E)),  # E_7, mu = 7
        ([X_AXIS, ((1, 1), (1, 2)), ((2, 1), (1, 2))], None),  # J_10, mu = 10
        ([CUSP, ((1, 3), (1, 2))], None),  # multiplicity 4
    ],
    ids=["A1", "A3", "D4", "D5", "E7", "J10", "mult-4"],
)
def test_named_plane_germs_have_their_ade_type(branches, want):
    germ = plane_germ(branches)
    assert ade_type(branches, germ[1]) == want
    assert_ade_type(germ)


@settings(max_examples=60, deadline=None)
@given(monomial_plane_germs())
def test_random_plane_germs_have_their_ade_type(germ):
    assert_ade_type(germ)
