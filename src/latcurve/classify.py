"""Cohen-Macaulay type classification along three independent routes.

* route ``weights``: probe inequalities on a handful of lattice points
  (the multiplicity vector and its neighbours) decide finite / tame /
  wild with no homology at all.
* route ``homology``: the minimum weight plus minimal-spectral-cycle
  groups of the germ, its branches, and its branch complements; also the
  finite subtypes (A / D-dominating / E-dominating) and tame growth.
* route ``motivic``: order and coefficients of specializations of the
  motivic Poincare series of the germ and its subcurves.

The routes are provably equivalent, so any disagreement is an
implementation or data defect and raises RouteDisagreement instead of
being resolved silently.  The spectral and motivic layers are imported
by the functions that read them, so importing this module loads neither.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .errors import LatcurveError, RouteDisagreement, TruncationUnsound
from .germ import GermDescriptor, GermModel, build_model, canonical_bound
from .lattice import Record, WeightGrid, norm, ones, padd, psub, scale, unit

if TYPE_CHECKING:
    from .motivic import LaurentSeries, QPoly

FINITE, TAME, WILD = "finite", "tame", "wild"
SUB_A, SUB_D, SUB_E = "A", "D-dominating", "E-dominating"


class Verdict(Record, frozen=False):
    """The CM type, the evidence of each route and whether they agree;
    ``model`` is the model the routes finished on (the argument, or a
    grown copy), left out of the repr and of ``==``."""

    _fields = ("cmtype", "subtype", "growth", "family", "routes", "agreement")
    _hidden = ("routes",)

    def __init__(
        self,
        cmtype: str,
        subtype: str | None,
        growth: str | None,
        family: str | None,
        routes: dict,
        agreement: bool = True,
        model: GermModel | None = None,
    ):
        vars(self).update(
            cmtype=cmtype, subtype=subtype, growth=growth, family=family,
            routes=routes, agreement=agreement, model=model,
        )


# ---------------------------------------------------------------------------
# route: pointwise weights


def classify_finite_pointwise(w: WeightGrid) -> bool:
    """Finite CM type iff w(m) >= -1 and w(2m) >= 0."""
    m = w.multiplicity
    return w.w(m) >= -1 and w.w(scale(2, m)) >= 0


def classify_tame_weights(model: GermModel) -> tuple[bool, dict]:
    """The five probe inequalities characterizing tameness among germs of
    infinite CM type.  Returns (all hold, evidence)."""
    w = model.weight
    r = w.r
    m = w.multiplicity
    mm = norm(m)
    e = ones(r)
    conds: dict[str, bool] = {}
    probes: dict[str, int] = {}

    probes["w(m)"] = w.w(m)
    conds["W1a"] = probes["w(m)"] >= -2

    ok = True
    for i in range(r):
        p = scale(m[i], unit(r, i))
        probes[f"w(m_{i + 1} e_{i + 1})"] = w.w(p)
        ok = ok and w.w(p) >= 0
    conds["W1b"] = ok

    probes["w(m+e)"] = w.w(padd(m, e))
    conds["W2a"] = probes["w(m+e)"] >= mm - r - 2

    ok = True
    for i in range(r):
        # auto-true unless |m| = 4 and the dropped branch is smooth
        if not (mm == 4 and m[i] == 1):
            continue
        p = psub(padd(m, e), padd(scale(m[i], unit(r, i)), unit(r, i)))
        probes[f"w2b probe i={i + 1}"] = w.w(p)
        ok = ok and w.w(p) >= mm - m[i] - r + 1
    conds["W2b"] = ok

    if mm == 3:
        lhs = w.w(padd(scale(2, m), e))
        rhs = w.w(padd(m, e))
        probes["w(2m+e)"] = lhs
        conds["W3"] = lhs >= rhs + 1
    else:
        conds["W3"] = True

    return all(conds.values()), {"conditions": conds, "probes": probes}


def _route_weights(model: GermModel) -> dict:
    w = model.weight
    m = w.multiplicity
    finite = classify_finite_pointwise(w)
    evidence = {
        "probes": {"w(m)": w.w(m), "w(2m)": w.w(scale(2, m))},
        "finite": finite,
    }
    if finite:
        evidence["verdict"] = FINITE
        return evidence
    tame, tame_ev = classify_tame_weights(model)
    evidence.update(tame_ev)
    evidence["tame"] = tame
    evidence["verdict"] = TAME if tame else WILD
    return evidence


# ---------------------------------------------------------------------------
# route: lattice homology and spectral cycles


def classify_tame_homological(model: GermModel) -> tuple[bool, dict]:
    """Conditions (a)-(d): minimum weight -2, a minimal spectral 1-cycle
    of weight -1, branches of type A, complements of type A or D."""
    from .spectral import minimal_spectral_cycles

    conds: dict[str, object] = {}
    conds["a"] = model.min_w == -2
    if not conds["a"]:
        return False, {"conditions": conds}
    w = model.weight
    m = w.multiplicity
    mm = norm(m)
    r = model.r
    group = minimal_spectral_cycles(w, 1, -1)
    conds["b"] = group.rank != 0
    if mm == 4 and r > 2 and not conds["b"]:
        # automatically satisfied here; the direct computation must agree
        raise LatcurveError(
            "shortcut says condition (b) holds for |m|=4, r>2 but the "
            "computed group vanishes"
        )
    conds["M(1,-1) rank"] = group.rank
    ok = True
    for i in range(1, r + 1):
        sub = model.branch(i)
        ok = ok and sub.min_w == 0
    conds["c"] = ok
    if r == 1:
        conds["d"] = True
    else:
        # only the complement of a smooth branch of a germ with |m| = 4
        # can fail condition (d)
        ok = True
        for i in range(1, r + 1):
            if not (mm == 4 and m[i - 1] == 1):
                continue
            hat = model.complement(i)
            good = hat.min_w == 0
            if not good and hat.min_w == -1:
                good = minimal_spectral_cycles(hat.weight, 1, 0).rank != 0
            ok = ok and good
        conds["d"] = ok
    tame = bool(conds["a"] and conds["b"] and conds["c"] and conds["d"])
    return tame, {"conditions": conds}


def _route_homology(model: GermModel) -> dict:
    """Finite subtype from the group M(1, 0) (A when min w = 0, else
    D-dominating iff M(1, 0) is nonzero); tame growth finite iff M(1, -1)
    has the maximal rank C(|m| - 1, 1) = |m| - 1."""
    evidence: dict = {"min_w": model.min_w}
    if model.min_w >= -1:
        evidence["verdict"] = FINITE
        if model.min_w == 0:
            evidence["subtype"] = SUB_A
        else:
            from .spectral import minimal_spectral_cycles

            rank = minimal_spectral_cycles(model.weight, 1, 0).rank
            evidence["subtype"] = SUB_D if rank else SUB_E
            evidence["M(1,0) rank"] = rank
        return evidence
    tame, ev = classify_tame_homological(model)
    evidence.update(ev)
    if tame:
        maximal = ev["conditions"]["M(1,-1) rank"] == norm(model.multiplicity) - 1
        evidence["verdict"] = TAME
        evidence["growth"] = "finite" if maximal else "infinite"
    else:
        evidence["verdict"] = WILD
    return evidence


# ---------------------------------------------------------------------------
# route: motivic series


def certified_omega(model: GermModel, depth: int) -> tuple[LaurentSeries, GermModel]:
    """The omega series through omega^depth, and the model it was
    certified on: the argument, or a copy grown by 4e at a time (at most
    six times) until the truncation is certified.  The series and that
    bound are found once for the models that share the argument's memo
    (the subcurve models of one window); each caller gets the argument
    or its own grown copy."""
    from .motivic import omega_substitution

    memo, key = model._memo, ("omega", depth)
    if key in memo:
        series, bound = memo[key]
        return series, model.ensure_bound(bound)
    for _ in range(6):
        try:
            series = omega_substitution(model.hilbert, model.weight, depth)
        except TruncationUnsound:
            model = model.ensure_bound(padd(model.bound, scale(4, ones(model.r))))
        else:
            memo[key] = series, model.bound
            return series, model
    raise TruncationUnsound(
        f"omega series through {depth} not certifiable for {model.name}"
    )


def _level(model: GermModel, d: int) -> tuple[QPoly, GermModel]:
    """Univariate motivic level d, and the model grown to hold it."""
    from .motivic import univariate_motivic

    model = model.ensure_bound(scale(d + 1, ones(model.r)))
    return univariate_motivic(model.hilbert, d), model


def _mu(model: GermModel) -> tuple[int, QPoly, GermModel]:
    """Smallest positive level with a nonzero univariate coefficient, that
    level, and the model grown to hold it.  The levels 0..|m| are read
    at once: the level is always |m|, as a nonzero value of the
    semigroup is >= m, and m is the only one with norm |m|."""
    from .motivic import univariate_levels

    mm = norm(model.multiplicity)
    model = model.ensure_bound(scale(mm + 1, ones(model.r)))
    levels = univariate_levels(model.hilbert, mm)
    for d in range(1, mm + 1):
        if not levels[d].is_zero():
            return d, levels[d], model
    raise LatcurveError("no nonzero motivic level found up to |m|")


def classify_motivic(model: GermModel) -> tuple[dict, GermModel]:
    """Full verdict fragment from the univariate motivic data of the germ
    and its subcurves (Theorem 3 route), and the model the probes
    finished on (the argument, or a copy grown to reach them).

    Growth probes read the coefficient of q^(h+1) at level j|m|: level
    2|m| with exponent 3 when |m| = 3, level |m| with exponent 2 when
    |m| = 4 (the exponent tracks h(jm) + 1).
    """
    f, model = certified_omega(model, 0)
    evidence: dict = {"ord f": f.order, "leading": f.leading()}
    if f.order >= -1:
        evidence["verdict"] = FINITE
        mu, level, model = _mu(model)
        if f.order == 0:
            evidence["subtype"] = SUB_A
        else:
            if mu != 3:
                level, model = _level(model, 3)
            pi32 = evidence["pi(3,2)"] = level.coeff(2)
            evidence["subtype"] = SUB_D if pi32 != 0 else SUB_E
        evidence["mu"] = mu
        if (f.order == 0) != (mu <= 2):
            raise LatcurveError("ord f = 0 and mu <= 2 must agree")
        return evidence, model
    if f.order < -2:
        evidence["verdict"] = WILD
        evidence["conditions"] = {"a": False}
        return evidence, model
    # ord f = -2: test conditions (a)-(d)
    mu, level, model = _mu(model)
    evidence["mu"] = mu
    conds: dict[str, bool] = {"a": True}
    if mu == 3:
        level, model = _level(model, 6)
        pi = evidence["pi(6,3)"] = level.coeff(3)
        conds["b"] = pi < 0
        growth_finite = pi == -2
    elif mu == 4:
        pi = evidence["pi(4,2)"] = level.coeff(2)
        conds["b"] = pi != 0
        growth_finite = pi == -3
    else:
        conds["b"] = False
        growth_finite = False
    ok = True
    for i in range(1, model.r + 1):
        f_sub = certified_omega(model.branch(i), 0)[0]
        ok = ok and f_sub.order == 0
    conds["c"] = ok
    if model.r == 1:
        conds["d"] = True
    else:
        ok = True
        for i in range(1, model.r + 1):
            hat = model.complement(i)
            fh, hat = certified_omega(hat, 0)
            good = fh.order == 0
            if not good and fh.order == -1:
                good = _level(hat, 3)[0].coeff(2) != 0
            ok = ok and good
        conds["d"] = ok
    evidence["conditions"] = conds
    if all(conds.values()):
        evidence["verdict"] = TAME
        evidence["growth"] = "finite" if growth_finite else "infinite"
    else:
        evidence["verdict"] = WILD
    return evidence, model


# ---------------------------------------------------------------------------
# plane unimodal families and the combined verdict


def classify_unimodal_plane(
    cmtype: str, growth: str | None, min_w: int, delta: int, plane: bool
) -> str | None:
    """Parabolic / hyperbolic / exceptional placement of a plane germ.

    Tame of finite growth is parabolic, tame of infinite growth is
    hyperbolic; wild with minimum weight -2 and delta in {6, 7} is
    exceptional unimodal.  Anything else (including non-plane input)
    gets no family.
    """
    if not plane:
        return None
    if cmtype == TAME:
        return "parabolic" if growth == "finite" else "hyperbolic"
    if cmtype == WILD and min_w == -2 and delta in (6, 7):
        return "exceptional"
    return None


def classify(germ: GermModel | GermDescriptor) -> Verdict:
    """Run the three routes and assert their agreement.  A model argument
    is never changed; ``Verdict.model`` is the model the routes finished
    on."""
    model = germ if isinstance(germ, GermModel) else build_model(germ)
    # probe points (2m + e and beyond) must be in-grid even when the
    # model was built with a tight user bound
    model = model.ensure_bound(canonical_bound(model.conductor, model.multiplicity))
    routes = {
        "weights": _route_weights(model),
        "homology": _route_homology(model),
    }
    routes["motivic"], model = classify_motivic(model)
    kinds = {name: ev["verdict"] for name, ev in routes.items()}
    if len(set(kinds.values())) != 1:
        raise RouteDisagreement(f"routes disagree on the CM type: {kinds}")
    cmtype = routes["weights"]["verdict"]
    subtype = growth = None
    if cmtype == FINITE:
        pair = (routes["homology"]["subtype"], routes["motivic"]["subtype"])
        if pair[0] != pair[1]:
            raise RouteDisagreement(f"finite subtypes disagree: {pair}")
        subtype = pair[0]
    elif cmtype == TAME:
        pair = (routes["homology"]["growth"], routes["motivic"]["growth"])
        if pair[0] != pair[1]:
            raise RouteDisagreement(f"growth classes disagree: {pair}")
        growth = pair[0]
    family = classify_unimodal_plane(
        cmtype, growth, model.min_w, model.delta, model.plane
    )
    return Verdict(
        cmtype=cmtype,
        subtype=subtype,
        growth=growth,
        family=family,
        routes=routes,
        agreement=True,
        model=model,
    )
