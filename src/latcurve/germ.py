"""Germ descriptors (declarative input) and the built model that bundles
the derived grids.

A descriptor names the germ by exactly one source:

* ``semigroup``: conductor plus the member list inside R(0, c),
* ``poincare``: a rational series for every nonempty branch subset,
* ``hilbert``: an explicit grid of Hilbert values,
* ``builtin``: a catalog name with parameters.

Descriptors round-trip through a small JSON schema (see README).  The
model is an immutable value holding the semigroup table on R(0, c) and
the Hilbert and weight grids on a common bound; growing the bound
returns a new model on the same table, and subcurve models come from
restriction to coordinate faces.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DescriptorError, MarginTooSmall
from .homology import min_weight
from .lattice import (
    HilbertGrid,
    Point,
    SemigroupTable,
    WeightGrid,
    box,
    delta as delta_of,
    gorenstein_symmetry,
    hilbert_from_semigroup,
    leq,
    ones,
    padd,
    pmax,
    pmin,
    restrict_to_subcurve,
    scale,
    semigroup_from_hilbert,
    semigroup_from_low_points,
    weight_from_hilbert,
    window,
)
from .series import MultiPoly, RationalSeries, hilbert_from_poincare

SCHEMA_VERSION = 1
_MAX_REBUILDS = 3


@dataclass(frozen=True)
class GermDescriptor:
    """Declarative description of a reduced curve germ."""

    r: int
    kind: str  # semigroup | poincare | hilbert | builtin
    payload: object
    name: str | None = None
    plane: bool | None = None
    gorenstein: bool | None = None
    bound: Point | None = None

    def __post_init__(self):
        if self.bound is not None and not (
            len(self.bound) == self.r
            and all(isinstance(x, int) and x >= 0 for x in self.bound)
        ):
            raise DescriptorError(
                f"bound needs {self.r} non-negative integers, got {self.bound!r}"
            )

    def to_json_dict(self) -> dict:
        src: dict
        if self.kind == "semigroup":
            c, elements = self.payload
            src = {
                "kind": "semigroup",
                "conductor": list(c),
                "elements": [list(p) for p in elements],
            }
        elif self.kind == "poincare":
            series = {}
            for J, s in sorted(self.payload.items()):
                series[",".join(str(j) for j in J)] = {
                    "numerator": [
                        {"exp": list(e), "coeff": c} for e, c in s.numerator.terms
                    ],
                    "denominator": [list(v) for v in s.denominator],
                }
            src = {"kind": "poincare", "series": series}
        elif self.kind == "hilbert":
            bound, values = self.payload
            src = {
                "kind": "hilbert",
                "bound": list(bound),
                "values": np.asarray(values).reshape(-1).tolist(),
            }
        elif self.kind == "builtin":
            name, params = self.payload
            src = {"kind": "builtin", "name": name, "params": list(params)}
        else:
            raise DescriptorError(f"unknown source kind {self.kind!r}")
        return {
            "version": SCHEMA_VERSION,
            "germ": self.name,
            "r": self.r,
            "source": src,
            "flags": {"plane": self.plane, "gorenstein": self.gorenstein},
            "bound": list(self.bound) if self.bound else None,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\n"


def _expect(cond, msg):
    if not cond:
        raise DescriptorError(msg)


def descriptor_from_json_dict(doc: dict) -> GermDescriptor:
    """Parse a descriptor document; any malformed one is a DescriptorError."""
    try:
        return _parse_descriptor(doc)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise DescriptorError(f"malformed descriptor: {type(exc).__name__}: {exc}")


def _parse_descriptor(doc: dict) -> GermDescriptor:
    _expect(isinstance(doc, dict), "descriptor must be a JSON object")
    _expect(doc.get("version") == SCHEMA_VERSION, "unsupported descriptor version")
    r = doc.get("r")
    _expect(isinstance(r, int) and r >= 1, "field 'r' must be a positive integer")
    src = doc.get("source")
    _expect(isinstance(src, dict) and "kind" in src, "missing source.kind")
    kind = src["kind"]
    flags = doc.get("flags") or {}
    bound = tuple(doc["bound"]) if doc.get("bound") else None
    name = doc.get("germ")
    if kind == "semigroup":
        _expect("conductor" in src and "elements" in src, "semigroup source needs conductor and elements")
        c = tuple(int(x) for x in src["conductor"])
        _expect(len(c) == r, "conductor length != r")
        elements = [tuple(int(x) for x in p) for p in src["elements"]]
        payload = (c, elements)
    elif kind == "poincare":
        series = {}
        _expect(isinstance(src.get("series"), dict), "poincare source needs 'series'")
        for key, body in src["series"].items():
            J = tuple(sorted(int(x) for x in key.split(",")))
            _expect(
                len(set(J)) == len(J) and 1 <= J[0] and J[-1] <= r,
                f"series key {key!r} must name distinct branches in 1..{r}",
            )
            _expect(J not in series, f"series key {key!r} repeats the subset {J}")
            terms = {
                tuple(t["exp"]): int(t["coeff"]) for t in body.get("numerator", [])
            }
            den = tuple(tuple(int(x) for x in v) for v in body.get("denominator", []))
            for e in (*terms, *den):
                _expect(
                    len(e) == len(J),
                    f"series {key!r}: exponent {list(e)} has {len(e)} entries, "
                    f"not {len(J)}",
                )
            num = MultiPoly.from_dict(len(J), terms)
            series[J] = RationalSeries(numerator=num, denominator=den)
        payload = series
    elif kind == "hilbert":
        _expect("bound" in src and "values" in src, "hilbert source needs bound and values")
        b = tuple(int(x) for x in src["bound"])
        _expect(len(b) == r, "hilbert bound length != r")
        shape = tuple(x + 1 for x in b)
        values = np.asarray(src["values"], dtype=np.int64)
        _expect(
            values.size == int(np.prod(shape)),
            f"hilbert values on R(0, {list(b)}) need {int(np.prod(shape))} "
            f"entries, got {values.size}",
        )
        payload = (b, values.reshape(shape))
    elif kind == "builtin":
        _expect("name" in src, "builtin source needs a name")
        params = tuple(src.get("params") or ())
        _expect(
            all(isinstance(p, int) for p in params),
            f"builtin parameters must be integers, got {list(params)}",
        )
        payload = (str(src["name"]), params)
    else:
        raise DescriptorError(f"unknown source kind {kind!r}")
    return GermDescriptor(
        r=r,
        kind=kind,
        payload=payload,
        name=name,
        plane=flags.get("plane"),
        gorenstein=flags.get("gorenstein"),
        bound=bound,
    )


def descriptor_from_json(text: str) -> GermDescriptor:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DescriptorError(
            f"descriptor parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        )
    return descriptor_from_json_dict(doc)


@dataclass(frozen=True)
class GermModel:
    """All derived grids of one germ on a shared bound.

    A model is a value: growing it returns a new model, and its grids
    are read-only.  The subcurve cache only memoizes models that are
    themselves functions of the grids.
    """

    descriptor: GermDescriptor
    r: int
    semigroup: SemigroupTable
    hilbert: HilbertGrid
    weight: WeightGrid
    name: str | None = None
    _subcurves: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    # -- invariants ------------------------------------------------------

    @property
    def bound(self) -> Point:
        return self.hilbert.bound

    @property
    def conductor(self) -> Point:
        return self.semigroup.conductor

    @property
    def multiplicity(self) -> Point:
        return self.weight.multiplicity

    @property
    def delta(self) -> int:
        return delta_of(self.hilbert, self.conductor)

    @property
    def min_w(self) -> int:
        return min_weight(self.weight)

    @property
    def is_gorenstein(self) -> bool:
        return gorenstein_symmetry(self.weight, self.conductor)

    @property
    def plane(self) -> bool:
        return bool(self.descriptor.plane)

    # -- bound management ------------------------------------------------

    def ensure_bound(self, requested: Point) -> "GermModel":
        """The model on a bound that dominates ``requested``: ``self`` when
        its bound already does, otherwise a new model on grown grids
        (``self`` is never changed)."""
        if leq(requested, self.bound):
            return self
        return _model_on(self.descriptor, self.semigroup, pmax(self.bound, requested))

    # -- subcurves ---------------------------------------------------------

    def subcurve(self, branches) -> "GermModel":
        """Model of the union of the given branches (1-based indices), built
        on its canonical bound from the face of the Hilbert grid."""
        J = tuple(sorted(set(branches)))
        if J == tuple(range(1, self.r + 1)):
            return self
        if J in self._subcurves:
            return self._subcurves[J]
        table = semigroup_from_hilbert(restrict_to_subcurve(self.hilbert, J))
        table.validate_additive_closure()
        desc = GermDescriptor(
            r=len(J),
            kind="semigroup",
            payload=(table.conductor, table.points()),
            name=f"{self.name or 'germ'}|{','.join(map(str, J))}",
        )
        sub = _model_on(
            desc, table, canonical_bound(table.conductor, table.multiplicity())
        )
        self._subcurves[J] = sub
        return sub

    def branch(self, i: int) -> "GermModel":
        return self.subcurve((i,))

    def complement(self, i: int) -> "GermModel":
        """The union of every branch except the i-th."""
        return self.subcurve(tuple(j for j in range(1, self.r + 1) if j != i))

    def gorenstein_motivic_check(self) -> bool:
        """Functional equation of the motivic numerator.

        Gated: only meaningful for Gorenstein germs, so a germ whose
        weight table is not symmetric is rejected outright.
        """
        from .errors import InconsistentInput
        from .motivic import gorenstein_functional_check, motivic_coeff

        if not self.is_gorenstein:
            raise InconsistentInput(
                "precondition unmet: the germ is not Gorenstein "
                "(weight symmetry fails)"
            )
        outer = padd(self.conductor, ones(self.r))
        grown = self.ensure_bound(padd(outer, ones(self.r)))
        coeffs = {}
        for p in box(outer).points():
            coeffs[p] = motivic_coeff(grown.hilbert, p)
        return gorenstein_functional_check(
            coeffs, self.conductor, self.delta, outer=outer
        )


def canonical_bound(c: Point, m: Point) -> Point:
    """The default grid bound max(c, 2m) + 2e: room for the classifier's
    probes at 2m + e and two stabilization layers above the conductor."""
    return padd(pmax(c, scale(2, m)), scale(2, ones(len(c))))


def _resolve_bound(
    desc: GermDescriptor, c: Point, m: Point, minimum: Point | None = None
) -> Point:
    # a user bound wins but is never allowed below c + e; a programmatic
    # minimum (the grid of a hilbert source) is always honored
    if desc.bound:
        want = pmax(desc.bound, padd(c, ones(desc.r)))
    else:
        want = canonical_bound(c, m)
    return pmax(want, minimum) if minimum is not None else want


def _model_on(desc: GermDescriptor, table: SemigroupTable, bound: Point) -> GermModel:
    """The model of ``table``'s semigroup on R(0, bound)."""
    h = hilbert_from_semigroup(table, bound)
    w = weight_from_hilbert(h, semigroup=table)
    return GermModel(
        descriptor=desc, r=desc.r, semigroup=table, hilbert=h, weight=w, name=desc.name
    )


def _build_from_semigroup(desc: GermDescriptor) -> GermModel:
    c, elements = desc.payload
    table = semigroup_from_low_points(desc.r, c, elements)
    return _model_on(desc, table, _resolve_bound(desc, c, table.multiplicity()))


def _build_from_hilbert(desc: GermDescriptor) -> GermModel:
    b, values = desc.payload
    h = HilbertGrid(r=desc.r, bound=b, values=np.array(values, dtype=np.int64))
    h.validate()
    table = semigroup_from_hilbert(h)
    table.validate_additive_closure()
    model = _model_on(
        desc, table, _resolve_bound(desc, table.conductor, table.multiplicity(), b)
    )
    # the source grid must agree with the rebuilt one where both exist
    common = window(pmin(b, model.bound))
    if not np.array_equal(model.hilbert.values[common], h.values[common]):
        raise DescriptorError("hilbert grid is inconsistent with its own semigroup")
    return model


def _build_from_poincare(desc: GermDescriptor) -> GermModel:
    """Expand the series on a growing grid and accept the first grid that
    holds the bound the detected conductor c asks for and three spare
    layers above it (c + 3e).  The guess grows on every pass, so no grid
    is expanded twice."""
    series = desc.payload
    guess = desc.bound or (8,) * desc.r
    last_exc = None
    for _ in range(2 * _MAX_REBUILDS + 2):
        try:
            h = hilbert_from_poincare(series, guess, desc.r)
            table = semigroup_from_hilbert(h)
        except MarginTooSmall as exc:
            last_exc = exc
            guess = tuple(2 * g + 1 for g in guess)
            continue
        c = table.conductor
        want = pmax(
            _resolve_bound(desc, c, table.multiplicity()),
            padd(c, scale(3, ones(desc.r))),
        )
        if leq(want, guess):
            table.validate_additive_closure()
            w = weight_from_hilbert(h, semigroup=table)
            return GermModel(
                descriptor=desc,
                r=desc.r,
                semigroup=table,
                hilbert=h,
                weight=w,
                name=desc.name,
            )
        guess = pmax(guess, want)
    raise MarginTooSmall(
        f"could not stabilize the conductor after repeated rebuilds: {last_exc}"
    )


def build_model(desc: GermDescriptor) -> GermModel:
    """Construct the grids for a descriptor (growing past margin errors)
    and check its flags against them."""
    if desc.kind == "builtin":
        from . import catalog

        name, params = desc.payload
        entry = catalog.get_entry(name, *params).descriptor
        # the descriptor's bound and flags override the entry's where set
        given = dict(bound=desc.bound, plane=desc.plane, gorenstein=desc.gorenstein)
        given = {key: value for key, value in given.items() if value is not None}
        return build_model(replace(entry, **given))
    if desc.kind == "semigroup":
        model = _build_from_semigroup(desc)
    elif desc.kind == "hilbert":
        model = _build_from_hilbert(desc)
    elif desc.kind == "poincare":
        model = _build_from_poincare(desc)
    else:
        raise DescriptorError(f"unknown source kind {desc.kind!r}")
    # a plane curve is a complete intersection, hence Gorenstein
    if desc.plane and not model.is_gorenstein:
        raise DescriptorError("flag plane is True, but the germ is not Gorenstein")
    if desc.gorenstein is not None and desc.gorenstein != model.is_gorenstein:
        raise DescriptorError(
            f"flag gorenstein is {desc.gorenstein}, "
            f"but the weights give {model.is_gorenstein}"
        )
    return model
