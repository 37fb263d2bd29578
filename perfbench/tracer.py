"""Per-layer spans and counters, recorded from outside the package.

``Tracer.install()`` replaces each traced ``latcurve`` function with a
timing wrapper in every ``latcurve`` module namespace that binds it (a
function imported by name into another module would otherwise be called
unwrapped), and patches the traced ``GermModel`` methods on the class.

A span records ``calls``, ``busy_s`` (wall time while at least one call
is active, so recursion is not counted twice), ``self_s`` (time minus the
time of the traced calls it made) and ``failed`` (calls left by an
exception).  Counters are measured at the same boundaries.  A traced
function the package no longer has, or a boundary whose arguments or
result changed shape, leaves its figures at 0 instead of stopping the run.
"""

from __future__ import annotations

import sys
import time

# span name -> (module, attribute); a dotted attribute names a method
SPANS = {
    "catalog.get_entry": ("latcurve.catalog", "get_entry"),
    "germ.build_model": ("latcurve.germ", "build_model"),
    "germ.ensure_bound": ("latcurve.germ", "GermModel.ensure_bound"),
    "germ.GermModel.subcurve": ("latcurve.germ", "GermModel.subcurve"),
    "series.hilbert_from_poincare": ("latcurve.series", "hilbert_from_poincare"),
    "lattice.semigroup_from_hilbert": ("latcurve.lattice", "semigroup_from_hilbert"),
    "lattice.extend_semigroup": ("latcurve.lattice", "extend_semigroup"),
    "lattice.hilbert_from_semigroup": ("latcurve.lattice", "hilbert_from_semigroup"),
    "lattice.weight_from_hilbert": ("latcurve.lattice", "weight_from_hilbert"),
    "snf.smith_invariants": ("latcurve.snf", "smith_invariants"),
    "homology.lattice_homology": ("latcurve.homology", "lattice_homology"),
    "homology.sublevel_complex": ("latcurve.homology", "sublevel_complex"),
    "homology.homology": ("latcurve.homology", "homology"),
    "homology.relative_homology": ("latcurve.homology", "relative_homology"),
    "spectral.e1_refined": ("latcurve.spectral", "e1_refined"),
    "spectral.e1_level": ("latcurve.spectral", "e1_level"),
    "spectral.minimal_spectral_cycles": ("latcurve.spectral", "minimal_spectral_cycles"),
    "spectral.pe_series": ("latcurve.spectral", "pe_series"),
    "motivic.motivic_coeff": ("latcurve.motivic", "motivic_coeff"),
    "motivic.omega_substitution": ("latcurve.motivic", "omega_substitution"),
    "motivic.univariate_motivic": ("latcurve.motivic", "univariate_motivic"),
    "classify.route_weights": ("latcurve.classify", "_route_weights"),
    "classify.route_homology": ("latcurve.classify", "_route_homology"),
    "classify.route_motivic": ("latcurve.classify", "classify_motivic"),
}

# counters summed over a run; a ratio is the named counter over the
# base counter, and reads 0 when the base is 0
COUNTERS = (
    "snf.smith_invariants.nnz",
    "snf.smith_invariants.torsion_calls",
    "homology.cells",
    "homology.levels",
    "germ.grid_points",
)
RATIOS = {
    "motivic.omega_substitution.certified_ratio": (
        "motivic.omega_substitution.certified", "motivic.omega_substitution.calls"),
    "spectral.e1_refined.nonzero_ratio": (
        "spectral.e1_refined.nonzero", "spectral.e1_refined.calls"),
    "germ.ensure_bound.grew_ratio": (
        "germ.ensure_bound.grew", "germ.ensure_bound.calls"),
    "germ.subcurve.hit_ratio": ("germ.subcurve.hits", "germ.GermModel.subcurve.calls"),
}
SPAN_FIELDS = ("calls", "busy_s", "self_s", "failed")


class Tracer:
    def __init__(self):
        self.totals = {f"{s}.{f}": 0 for s in SPANS for f in SPAN_FIELDS}
        self.counts = {
            "motivic.omega_substitution.certified": 0,
            "spectral.e1_refined.nonzero": 0,
            "germ.ensure_bound.grew": 0,
            "germ.subcurve.hits": 0,
        }
        self.counts.update({name: 0 for name in COUNTERS})
        self._stack = []  # child-time accumulators of the open calls
        self._depth = {s: 0 for s in SPANS}
        self._models = []  # models built by outermost build_model calls

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        import latcurve  # noqa: F401  (loads every module)

        for span, (modname, attr) in SPANS.items():
            module = sys.modules.get(modname)
            owner_name, _, name = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, name, None)
            if original is None:
                continue
            if owner_name:
                setattr(owner, name, self._wrap(span, original))
                continue
            wrapper = self._wrap(span, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "latcurve" and not mod_name.startswith("latcurve."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def _wrap(self, span, fn):
        before = getattr(self, "_before_" + span.replace(".", "_"), None)
        after = getattr(self, "_after_" + span.replace(".", "_"), None)
        totals, depth, stack = self.totals, self._depth, self._stack
        k_calls, k_busy = f"{span}.calls", f"{span}.busy_s"
        k_self, k_failed = f"{span}.self_s", f"{span}.failed"

        def wrapper(*args, **kwargs):
            try:
                state = before(args) if before else None
            except (AttributeError, TypeError):
                state = None
            children = [0.0]
            stack.append(children)
            depth[span] += 1
            ok = False
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                depth[span] -= 1
                if stack:
                    stack[-1][0] += dt
                totals[k_calls] += 1
                totals[k_self] += dt - children[0]
                if depth[span] == 0:
                    totals[k_busy] += dt
                if not ok:
                    totals[k_failed] += 1
            if after:
                try:
                    after(args, state, result)
                except (AttributeError, TypeError):
                    pass
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", span)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    # -- counters at span boundaries ---------------------------------------

    def _after_snf_smith_invariants(self, args, state, result):
        self.counts["snf.smith_invariants.nnz"] += sum(len(col) for col in args[0])
        if result[1]:
            self.counts["snf.smith_invariants.torsion_calls"] += 1

    def _after_homology_sublevel_complex(self, args, state, result):
        self.counts["homology.cells"] += sum(len(c) for c in result.cells.values())

    def _after_homology_lattice_homology(self, args, state, result):
        self.counts["homology.levels"] += result.n_top - result.n_min + 1

    def _after_motivic_omega_substitution(self, args, state, result):
        self.counts["motivic.omega_substitution.certified"] += 1

    def _after_spectral_e1_refined(self, args, state, result):
        if result.rank:
            self.counts["spectral.e1_refined.nonzero"] += 1

    def _before_germ_ensure_bound(self, args):
        return args[0].bound

    def _after_germ_ensure_bound(self, args, state, result):
        if args[0].bound != state:
            self.counts["germ.ensure_bound.grew"] += 1

    def _before_germ_GermModel_subcurve(self, args):
        return self.totals["germ.build_model.calls"]

    def _after_germ_GermModel_subcurve(self, args, state, result):
        if self.totals["germ.build_model.calls"] == state:
            self.counts["germ.subcurve.hits"] += 1

    def _after_germ_build_model(self, args, state, result):
        if self._depth["germ.build_model"] == 0:
            self._models.append(result)

    # -- results -----------------------------------------------------------

    def end_job(self) -> None:
        """Add the final grid size of every model the job built."""
        for model in self._models:
            grid = getattr(getattr(model, "hilbert", None), "values", None)
            self.counts["germ.grid_points"] += int(getattr(grid, "size", 0))
        self._models.clear()

    def snapshot(self) -> dict:
        out = dict(self.totals)
        out.update(self.counts)
        return out


def finish(raw: dict) -> dict:
    """Span totals, counters and ratios of summed raw tracer snapshots."""
    out = {f"{s}.{f}": raw.get(f"{s}.{f}", 0) for s in SPANS for f in SPAN_FIELDS}
    out.update({name: raw.get(name, 0) for name in COUNTERS})
    for name, (num, base) in RATIOS.items():
        b = raw.get(base, 0)
        out[name] = raw.get(num, 0) / b if b else 0.0
    return out


def add(into: dict, snap: dict) -> None:
    for key, value in snap.items():
        into[key] = into.get(key, 0) + value
