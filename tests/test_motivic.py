import pytest

from latcurve import (
    InconsistentInput,
    MarginTooSmall,
    QPoly,
    TruncationUnsound,
    motivic_coeff,
    omega_substitution,
    pe_series,
    univariate_motivic,
)
from latcurve import motivic
from latcurve.classify import certified_omega
from latcurve.lattice import box

from oracles import (
    at_one,
    gorenstein_functional_check_by_points,
    gorenstein_motivic_check_by_points,
    hilbert_from_motivic_by_points,
    pe_substitution_check_by_points,
    poincare_from_hilbert,
)
from test_catalog import ALL_SPECS


def coeff_grid(model, bound):
    return {
        ell: motivic_coeff(model.hilbert, ell) for ell in box(bound)
    }


def test_motivic_coeff_d4(model_of):
    m = model_of("D", 4)
    p = motivic_coeff(m.hilbert, (1, 1, 1))
    assert p.as_dict() == {1: 1, 2: -2}


def test_motivic_coeff_off_semigroup(model_of):
    m = model_of("D", 4)
    assert motivic_coeff(m.hilbert, (1, 1, 0)).is_zero()
    assert motivic_coeff(m.hilbert, (0, 1, 0)).is_zero()


def test_motivic_coeff_smooth(model_of):
    m = model_of("A", 0)
    for ell in range(3):
        assert motivic_coeff(m.hilbert, (ell,)).as_dict() == {ell: 1}


def test_motivic_margin(model_of):
    m = model_of("A", 2)
    with pytest.raises(MarginTooSmall):
        motivic_coeff(m.hilbert, m.bound)


def test_support_is_semigroup(model_of):
    for spec in [("D", 5), ("E", 7), ("T", 3, 6), ("W1_0",)]:
        m = model_of(*spec)
        inner = tuple(b - 1 for b in m.bound)
        for ell in box(inner):
            assert (not motivic_coeff(m.hilbert, ell).is_zero()) == (
                m.semigroup.contains(ell)
            )


def test_limit_q_to_one_is_poincare(model_of):
    for spec in [("D", 5), ("T", 4, 4), ("E13",)]:
        m = model_of(*spec)
        p = poincare_from_hilbert(m.hilbert, conductor=m.conductor).as_dict()
        inner = tuple(b - 1 for b in m.bound)
        for ell in box(inner):
            assert at_one(motivic_coeff(m.hilbert, ell)) == p.get(ell, 0)


def test_univariate_motivic_d4(model_of):
    m = model_of("D", 4)
    assert univariate_motivic(m.hilbert, 3).as_dict() == {1: 1, 2: -2}
    assert univariate_motivic(m.hilbert, 0).as_dict() == {0: 1}


def test_mu_detection(model_of):
    for spec, mm in [(("D", 5), 3), (("T", 4, 4), 4), (("E", 6), 3), (("W12",), 4)]:
        m = model_of(*spec)
        m = m.ensure_bound(tuple(mm + 1 for _ in range(m.r)))
        for d in range(1, mm):
            assert univariate_motivic(m.hilbert, d).is_zero()
        assert not univariate_motivic(m.hilbert, mm).is_zero()


def test_univariate_margin(model_of):
    m = model_of("A", 1)
    with pytest.raises(MarginTooSmall):
        univariate_motivic(m.hilbert, min(m.bound))


def test_omega_substitution_smooth(model_of):
    m = model_of("A", 0)
    s = omega_substitution(m.hilbert, m.weight, 2)
    assert s.order == 0
    assert s.coeffs == (1, 1, 1)


def test_omega_substitution_d4(model_of):
    m = model_of("D", 4)
    m = m.ensure_bound((8, 8, 8))
    s = omega_substitution(m.hilbert, m.weight, 3)
    assert s.order == -1
    assert s.coeffs == (1, 5, 4, 4, 4)


def test_omega_truncation_unsound(model_of):
    m = model_of("D", 4)
    with pytest.raises(TruncationUnsound):
        omega_substitution(m.hilbert, m.weight, 50)


def test_omega_leading_is_bottom_homology_rank(model_of):
    from latcurve import lattice_homology

    for spec in [("A", 3), ("E", 8), ("T", 3, 6), ("E12",)]:
        m = model_of(*spec)
        s = omega_substitution(m.hilbert, m.weight, 0)
        rep = lattice_homology(m.weight)
        assert s.order == m.min_w == rep.n_min
        assert s.leading() == rep.betti(0, rep.n_min)


def test_pe_substitution_identity(model_of):
    for spec in [("D", 4), ("D", 5), ("E", 7), ("T", 3, 6)]:
        m = model_of(*spec)
        pe = pe_series(m.weight, m.conductor)
        assert pe_substitution_check_by_points(pe, m.hilbert, m.conductor)


def test_pe_substitution_detects_mismatch(model_of):
    m = model_of("D", 5)
    pe = dict(pe_series(m.weight, m.conductor))
    pe[((2, 1), 0, 1)] = 7
    assert not pe_substitution_check_by_points(pe, m.hilbert, m.conductor)
    with pytest.raises(InconsistentInput, match=r"t\^\(2, 1\)"):
        pe_substitution_check_by_points(pe, m.hilbert, m.conductor, strict=True)


def test_hilbert_from_motivic_round_trip(model_of):
    import numpy as np

    for spec in [("D", 5), ("A", 0), ("T", 3, 6)]:
        m = model_of(*spec)
        inner = tuple(b - 1 for b in m.bound)
        coeffs = coeff_grid(m, inner)
        back = hilbert_from_motivic_by_points(coeffs, m.r, inner)
        sl = tuple(slice(0, b + 1) for b in inner)
        assert np.array_equal(back.values, m.hilbert.values[sl])
        support = {p for p, q in coeffs.items() if not q.is_zero()}
        members = {p for p in box(inner) if m.semigroup.contains(p)}
        assert support == members


def test_hilbert_from_motivic_rejects_bad_support():
    coeffs = {
        (0,): QPoly.from_dict({0: 1}),
        (2,): QPoly.from_dict({1: 1}),
    }
    # support misses 0's successor: the up-set of (1,) is empty
    with pytest.raises(InconsistentInput, match=r"above \(1,\)"):
        hilbert_from_motivic_by_points(coeffs, 1, (1,))


def test_gorenstein_functional_equation(model_of):
    for spec in [("E", 6), ("D", 4), ("T", 3, 7)]:
        m = model_of(*spec)
        outer = tuple(c + 1 for c in m.conductor)
        coeffs = coeff_grid(m, outer)
        assert gorenstein_functional_check_by_points(
            coeffs, m.conductor, m.delta, outer=outer
        )


def test_gorenstein_functional_fails_off_symmetry():
    """The non-Gorenstein monomial germ {0,3,4,5,...} fails the numerator
    functional equation (the precondition gate lives in the caller)."""
    from latcurve import build_model
    from latcurve.germ import GermDescriptor

    desc = GermDescriptor(
        r=1, kind="semigroup", payload=((3,), [(0,), (3,)]), name="t3t4t5"
    )
    m = build_model(desc)
    assert not m.is_gorenstein
    outer = (4,)
    coeffs = {(i,): motivic_coeff(m.hilbert, (i,)) for i in range(5)}
    assert not gorenstein_functional_check_by_points(coeffs, (3,), 2, outer=outer)


def test_model_gorenstein_gate(model_of):
    from latcurve import build_model
    from latcurve.germ import GermDescriptor

    assert gorenstein_motivic_check_by_points(model_of("E", 6))
    assert gorenstein_motivic_check_by_points(model_of("D", 4))
    desc = GermDescriptor(
        r=1, kind="semigroup", payload=((3,), [(0,), (3,)]), name="t3t4t5"
    )
    with pytest.raises(InconsistentInput):
        gorenstein_motivic_check_by_points(build_model(desc))


def test_the_certificate_sets_the_bound_not_the_series(model_of, monkeypatch):
    # the omega series sums all of N^r, so on the grid a germ is built on,
    # with the certificate switched off, it equals the series that
    # certified_omega reaches, often only after growing the model
    cases, grew = [], 0
    for spec in ALL_SPECS:
        model = model_of(*spec)
        for germ in [model] + [model.branch(i) for i in range(1, model.r + 1)]:
            for depth in (0, 6):
                series, certified = certified_omega(germ, depth)
                grew += certified.bound != germ.bound
                cases.append((germ, depth, series))
    monkeypatch.setattr(motivic, "certify_truncation", lambda w, depth: True)
    for germ, depth, series in cases:
        assert omega_substitution(germ.hilbert, germ.weight, depth) == series, (germ.name, depth)
    assert grew
