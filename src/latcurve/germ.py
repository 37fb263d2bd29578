"""Germ descriptors (declarative input) and the built model that bundles
the derived grids.

A descriptor names the germ by exactly one source:

* ``semigroup``: conductor plus the member list inside R(0, c),
* ``poincare``: a rational series for every nonempty branch subset,
* ``hilbert``: an explicit grid of Hilbert values,
* ``builtin``: a catalog name with parameters.

Descriptors round-trip through a small JSON schema (see README).  The
model is an immutable value holding the semigroup table on R(0, c) and
the Hilbert and weight grids on a common bound, each held on a box with
every cube of R(0, c) and read past it in closed form (``lattice``);
growing the bound returns a new model on the same table and the same
arrays, and subcurve models come from the projection of the table to the
axes of the subcurve.  One function makes every table,
``lattice.table_on_window``: it reads the members of a window (a
``semigroup`` member list, a ``hilbert`` grid, a ``poincare`` expansion,
a subcurve's projection, a replayed guess) at their least conductor and
checks the table there, additive closure included.  So a ``semigroup``
source stated on any conductor c' >= c builds the model of c.

A process builds and validates each distinct subcurve once: a subcurve
request looks up its projected window in one process-wide map, and
every request for a window it holds gets its own model on the stored
table and grids, with one shared memo of the minimum weight and of the
certified omega series.  The map holds at most ``MAX_GRID_POINTS``
points, and the oldest entry goes first.  It only skips repeated work,
so no output depends on it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DescriptorError, GridTooLarge, InvalidSeries, MarginTooSmall, cut
from .lattice import (
    MAX_GRID_POINTS,
    HilbertGrid,
    Point,
    Record,
    SemigroupTable,
    WeightGrid,
    conductor_grid,
    delta as delta_of,
    gorenstein_symmetry,
    held_points,
    hilbert_from_semigroup,
    leq,
    min_weight,
    ones,
    padd,
    pmax,
    require_grid,
    require_length,
    same_values,
    scale,
    semigroup_from_hilbert,
    semigroup_from_low_points,
    table_on_window,
    unit_step_members,
    weight_from_hilbert,
    window,
)

SCHEMA_VERSION = 1
KINDS = ("semigroup", "poincare", "hilbert", "builtin")
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
        if not (_is_int(self.r) and self.r >= 1):
            raise DescriptorError(f"r must be a positive integer, got {self.r!r}")
        if self.kind not in KINDS:
            raise DescriptorError(f"unknown source kind {cut(repr(self.kind))}")
        # with r >= 2 branches no conductor coordinate is 0, so every grid
        # of the germ holds R(0, e) and its 2^r points
        if self.r >= MAX_GRID_POINTS.bit_length():
            raise GridTooLarge(
                f"a germ with r = {self.r} branches needs grids of 2^{self.r} "
                f"points or more, more than the limit of {MAX_GRID_POINTS}"
            )
        if self.bound is not None and not (
            len(self.bound) == self.r
            and all(_is_int(x) and x >= 0 for x in self.bound)
        ):
            raise DescriptorError(
                f"bound needs {self.r} non-negative integers, "
                f"got {cut(repr(self.bound))}"
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
        else:
            name, params = self.payload
            src = {"kind": "builtin", "name": name, "params": list(params)}
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


def _is_int(x) -> bool:
    """A JSON integer: an int that is not a bool."""
    return isinstance(x, int) and not isinstance(x, bool)


def _echo(x) -> str:
    return cut(json.dumps(x, default=repr))


def _int64(x, what: str) -> int:
    _expect(
        _is_int(x) and -(1 << 63) <= x < 1 << 63,
        f"{what} must be a 64-bit integer, got {_echo(x)}",
    )
    return x


def _ints(xs, what: str) -> tuple[int, ...]:
    _expect(
        isinstance(xs, list) and all(map(_is_int, xs)),
        f"{what} must be a list of integers, got {_echo(xs)}",
    )
    return tuple(xs)


def _point(xs, what: str, r: int) -> tuple[int, ...]:
    """A lattice point of N^r: a list of r non-negative integers."""
    p = _ints(xs, what)
    _expect(min(p, default=0) >= 0, f"{what} {_echo(p)} has a negative coordinate")
    _expect(len(p) == r, f"{what} {_echo(p)} has {len(p)} coordinates, not r = {r}")
    return p


def descriptor_from_json_dict(doc: dict) -> GermDescriptor:
    """Parse a descriptor document; any malformed one is a DescriptorError."""
    try:
        return _parse_descriptor(doc)
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DescriptorError(f"malformed descriptor: {type(exc).__name__}: {exc}")


def _parse_descriptor(doc: dict) -> GermDescriptor:
    _expect(isinstance(doc, dict), "descriptor must be a JSON object")
    version = doc.get("version")
    _expect(_is_int(version) and version == SCHEMA_VERSION, "unsupported descriptor version")
    r = doc.get("r")
    _expect(_is_int(r) and r >= 1, "field 'r' must be a positive integer")
    src = doc.get("source")
    _expect(isinstance(src, dict) and "kind" in src, "missing source.kind")
    kind = src["kind"]
    flags = doc.get("flags") or {}
    for flag in ("plane", "gorenstein"):
        _expect(
            flags.get(flag) is None or isinstance(flags.get(flag), bool),
            f"flag {flag} must be true, false or null, "
            f"got {_echo(flags.get(flag))}",
        )
    bound = _ints(doc["bound"], "bound") if doc.get("bound") else None
    name = doc.get("germ")
    payload = None  # an unknown kind is refused by GermDescriptor
    if kind == "semigroup":
        _expect("conductor" in src and "elements" in src, "semigroup source needs conductor and elements")
        c = _point(src["conductor"], "conductor", r)
        _expect(isinstance(src["elements"], list), "elements must be a list of points")
        elements = [_point(p, "element", r) for p in src["elements"]]
        payload = (c, elements)
    elif kind == "poincare":
        from .series import MultiPoly, RationalSeries

        series = {}
        _expect(isinstance(src.get("series"), dict), "poincare source needs 'series'")
        for key, body in src["series"].items():
            J = tuple(sorted(int(x) for x in key.split(",")))
            shown = cut(repr(key))
            _expect(
                len(set(J)) == len(J) and 1 <= J[0] and J[-1] <= r,
                f"series key {shown} must name distinct branches in 1..{r}",
            )
            _expect(J not in series, f"series key {shown} repeats the subset {J}")
            terms = {
                _ints(t["exp"], f"series {shown}: exp"): _int64(
                    t["coeff"], f"series {shown}: coeff"
                )
                for t in body.get("numerator", [])
            }
            den = tuple(
                _ints(v, f"series {shown}: denominator vector")
                for v in body.get("denominator", [])
            )
            for e in (*terms, *den):
                _expect(
                    len(e) == len(J),
                    f"series {shown}: exponent {list(e)} has {len(e)} entries, "
                    f"not {len(J)}",
                )
            num = MultiPoly.from_dict(len(J), terms)
            series[J] = RationalSeries(numerator=num, denominator=den)
        payload = series
    elif kind == "hilbert":
        _expect("bound" in src and "values" in src, "hilbert source needs bound and values")
        b = _point(src["bound"], "hilbert bound", r)
        shape = tuple(x + 1 for x in b)
        values = _ints(src["values"], "hilbert values")
        _expect(
            len(values) == math.prod(shape),
            f"hilbert values on R(0, {list(b)}) need {math.prod(shape)} "
            f"entries, got {len(values)}",
        )
        require_grid(b, "hilbert grid")
        payload = (b, np.array(values, dtype=np.int64).reshape(shape))
    elif kind == "builtin":
        _expect("name" in src, "builtin source needs a name")
        params = _ints(src.get("params") or [], "builtin params")
        payload = (str(src["name"]), params)
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
    except RecursionError:
        raise DescriptorError("descriptor nests deeper than the JSON decoder allows")
    return descriptor_from_json_dict(doc)


class GermModel(Record, eq=False):
    """All derived grids of one germ on a shared bound.

    A model is a value: growing it returns a new model, and its grids
    are read-only.  Like its grids it compares and hashes by identity.
    The subcurve cache only memoizes models that are themselves
    functions of the grids, and ``_memo`` only values that are functions
    of the grids: the minimum weight, and the series and bound of
    ``classify.certified_omega``.  The subcurve models of one window
    share it (``_subcurve_on``).
    """

    _fields = ("descriptor", "r", "semigroup", "hilbert", "weight", "name")

    def __init__(
        self,
        descriptor: GermDescriptor,
        r: int,
        semigroup: SemigroupTable,
        hilbert: HilbertGrid,
        weight: WeightGrid,
        name: str | None = None,
    ):
        vars(self).update(
            descriptor=descriptor, r=r, semigroup=semigroup, hilbert=hilbert,
            weight=weight, name=name, _subcurves={}, _memo={},
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
        """min w over R(0, c), read off the weight grid once for the models
        that share this model's memo, and stored outside ``_fields``, as a
        table stores its m."""
        if "_min_w" not in vars(self):
            memo = self._memo
            if "min_w" not in memo:
                memo["min_w"] = min_weight(self.weight)
            vars(self)["_min_w"] = memo["min_w"]
        return self._min_w

    @property
    def is_gorenstein(self) -> bool:
        return gorenstein_symmetry(self.weight, self.conductor)

    @property
    def plane(self) -> bool:
        return bool(self.descriptor.plane)

    # -- bound management ------------------------------------------------

    def ensure_bound(self, requested: Point) -> "GermModel":
        """The model on a bound that dominates ``requested``, a point of r
        coordinates (DescriptorError): ``self`` when its bound already
        does, otherwise a new model whose grids hold the same arrays on the
        grown bound (``self`` is never changed)."""
        require_length(requested, self.r)
        if leq(requested, self.bound):
            return self
        bound = pmax(self.bound, requested)
        return GermModel(
            descriptor=self.descriptor, r=self.r, semigroup=self.semigroup,
            hilbert=self.hilbert.grown(bound), weight=self.weight.grown(bound),
            name=self.name,
        )

    # -- subcurves ---------------------------------------------------------

    def subcurve(self, branches) -> "GermModel":
        """Model of the union of the given branches (1-based indices), built
        on its canonical bound from the projection of the table.

        With c_J and c_K the conductor on the axes of J and of the others
        K, the projection of S to J is ``mask.any`` over K on R(0, c_J):
        for s in S with s_J <= c_J, min(s, c) is a member (the extension
        rule) in R(0, c) with the same J-part.  The subcurve's
        conductor is <= c_J, as each l_J >= c_J is the J-part of the member
        (l_J, c_K) >= c.  So ``_certified_table`` reads the exact table off
        that window, as it reads the window of a ``poincare`` expansion,
        once per window in a process (``_subcurve_on``).
        """
        J = tuple(sorted(set(branches)))
        if not J or J[0] < 1 or J[-1] > self.r:
            raise DescriptorError(f"branch indices {list(J)} outside 1..{self.r}")
        if J == tuple(range(1, self.r + 1)):
            return self
        if J in self._subcurves:
            return self._subcurves[J]
        others = tuple(i for i in range(self.r) if i + 1 not in J)
        name = f"{self.name or 'germ'}|{','.join(map(str, J))}"
        sub = _subcurve_on(self.semigroup.mask.any(axis=others), name)
        self._subcurves[J] = sub
        return sub

    def branch(self, i: int) -> "GermModel":
        return self.subcurve((i,))

    def complement(self, i: int) -> "GermModel":
        """The union of every branch except the i-th."""
        return self.subcurve(tuple(j for j in range(1, self.r + 1) if j != i))


class _WindowMap(dict):
    """The subcurve models of a process by projected window, the key
    (shape, bytes): the table, grids and memo the window's models share,
    and the points the entry holds (window and grids, read through
    ``lattice``).  At most ``MAX_GRID_POINTS`` points in all; insertion
    order is age, and the oldest entry goes first."""

    points = 0

    def add(self, key: tuple, model: GermModel) -> None:
        size = len(key[1]) + held_points(model.hilbert) + held_points(model.weight)
        while self and self.points + size > MAX_GRID_POINTS:
            self.points -= self.pop(next(iter(self)))[-1]
        if size <= MAX_GRID_POINTS:
            self[key] = (model.semigroup, model.hilbert, model.weight, model._memo, size)
            self.points += size

    def clear(self) -> None:
        super().clear()
        self.points = 0


_SUBCURVES = _WindowMap()


def _subcurve_on(members: np.ndarray, name: str) -> GermModel:
    """The model of the subcurve whose projected window is ``members``,
    named ``name``: on the first request for the window, the table read
    off it and a model on its canonical bound; on a later one, a new
    model on the stored table, grids and memo."""
    key = (members.shape, members.tobytes())
    if key not in _SUBCURVES:
        table = _certified_table(members)
        model = _model_on(
            _subcurve_descriptor(table, name), table,
            canonical_bound(table.conductor, table.multiplicity()),
        )
        _SUBCURVES.add(key, model)
        return model
    table, hilbert, weight, memo, _ = _SUBCURVES[key]
    model = GermModel(_subcurve_descriptor(table, name), table.r, table, hilbert, weight, name)
    vars(model)["_memo"] = memo
    return model


def _subcurve_descriptor(table: SemigroupTable, name: str) -> GermDescriptor:
    return GermDescriptor(
        r=table.r, kind="semigroup", payload=(table.conductor, table.points()), name=name
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
    table = semigroup_from_low_points(desc.r, *desc.payload)
    return _model_on(
        desc, table, _resolve_bound(desc, table.conductor, table.multiplicity())
    )


def _build_from_hilbert(desc: GermDescriptor) -> GermModel:
    b, values = desc.payload
    h = HilbertGrid(r=desc.r, bound=b, values=np.array(values, dtype=np.int64))
    h.validate()
    table = semigroup_from_hilbert(h)
    model = _model_on(
        desc, table, _resolve_bound(desc, table.conductor, table.multiplicity(), b)
    )
    # the source grid must agree with the rebuilt one where both exist
    if not same_values(model.hilbert, h):
        raise DescriptorError("hilbert grid is inconsistent with its own semigroup")
    return model


def _build_from_poincare(desc: GermDescriptor) -> GermModel:
    """Expand the series once, on a box that holds the conductor bound U
    of ``conductor_bound`` and one more layer, and read the exact
    conductor and the table there.  The bound of the model is the one the
    growing-grid loop of earlier releases accepted, replayed on that
    table (``_replayed_bound``).  The model grid is the expansion on
    R(0, c) and the closed form past c (``conductor_grid``), and must
    equal the expansion where both exist (InvalidSeries otherwise).  Then
    the grid is H(S): both start at 0, step by 0 or 1, have the members S
    on R(0, c) and step by 1 out of R(0, c).  Read the steps D(l) down
    from c: for axes i, j below c at l, D_i(l) - D_j(l) = D_i(l + e_j) -
    D_j(l + e_i) is read already; a nonzero one fixes D(l) in {0, 1}^r,
    and where all are 0, whether l is a member does.  So both have the
    same steps."""
    from .series import conductor_bound, hilbert_from_poincare, require_polynomials

    series, r = desc.payload, desc.r
    first = desc.bound or (8,) * r
    cap = _largest_guess(first)
    U = conductor_bound(series, r)
    box_bound = pmax(first, padd(U, ones(r)))
    if not leq(box_bound, cap):
        raise MarginTooSmall(
            "could not stabilize the conductor after repeated rebuilds: "
            f"the conductor bound {U} needs a grid past {cap}"
        )
    require_grid(box_bound, "expansion box")
    require_polynomials(series)
    h = hilbert_from_poincare(series, box_bound, r)
    table = _certified_table(unit_step_members(h, U))
    bound, c = _replayed_bound(desc, table, first), table.conductor
    grid = conductor_grid(h, c, bound)
    if not same_values(grid, h):
        raise InvalidSeries(f"the series break the closed form of h past c = {c}")
    w = weight_from_hilbert(grid, semigroup=table)
    return GermModel(
        descriptor=desc, r=r, semigroup=table, hilbert=grid, weight=w, name=desc.name
    )


def _largest_guess(first: Point) -> Point:
    """A bound on every grid the growing-grid loop expands: it makes
    2 * _MAX_REBUILDS + 2 passes, and each grows a guess g to at most
    2g + 2e (2g + e on a margin error; pmax(g, want) otherwise, where the
    detected c' + e fits in g - e and m' <= max(c', e))."""
    return tuple(((g + 2) << (2 * _MAX_REBUILDS + 1)) - 2 for g in first)


def _certified_table(members: np.ndarray) -> SemigroupTable:
    """The table read off the members on a window R(0, U) that holds the
    conductor: the points whose r unit steps are all 1 of a ``poincare``
    expansion, U from ``conductor_bound``, or a subcurve's projection.

    ``table_on_window`` reads it as the window R(0, U + e), whose points
    past U read min(l, U), as they do once U >= c, so its layer check
    always passes.  Its least conductor c is exact once U >= c: for any p
    in the window with p_i < c_i, the point max(p, c - e_i) lies in the
    window above p, and it is no member, because its minimum with c is
    c - e_i (were c - e_i a member, so would every point above it be,
    against the minimality of c).  A window it refuses is an
    InvalidSeries.
    """
    U = tuple(n - 1 for n in members.shape)
    try:
        return table_on_window(members, padd(U, ones(len(U))))
    except MarginTooSmall as exc:
        raise InvalidSeries(f"the members on R(0, {list(U)}) give no table: {exc}")


def _replayed_bound(desc: GermDescriptor, table: SemigroupTable, first: Point) -> Point:
    """The bound the growing-grid loop of earlier releases accepted.

    That loop expanded a guess g, starting from ``first``, and accepted
    the first g that held want = pmax(the bound c' asks for, c' + 3e),
    where c' was the conductor detected on g.  Otherwise it grew g to
    2g + e after a margin error and to pmax(g, want) after a detection.
    The detection is replayed on the table (``_detected``), so no guess
    is expanded.  Where the loop accepted a conductor c' != c, which a
    run of members reaching the edge of a small grid can fake, the
    replay grows to the want of c instead; at every other guess it takes
    the old step, so every bound the old loop got right stays the same.
    """
    r, c = desc.r, table.conductor
    exact = (c, table.multiplicity())

    def want(conductor, multiplicity):
        return pmax(
            _resolve_bound(desc, conductor, multiplicity),
            padd(conductor, scale(3, ones(r))),
        )

    guess, last_exc = first, None
    for _ in range(2 * _MAX_REBUILDS + 2):
        # from guess >= c + 2e on, the window R(0, guess - e) holds c and
        # its stabilization layer, and the detection is exact
        if leq(padd(c, scale(2, ones(r))), guess):
            seen = exact
        else:
            try:
                seen = _detected(table, guess)
            except MarginTooSmall as exc:
                last_exc = exc
                guess = tuple(2 * g + 1 for g in guess)
                continue
        ask = want(*seen)
        if leq(ask, guess):
            if seen == exact:
                return guess
            ask = want(*exact)
        guess = pmax(guess, ask)
    raise MarginTooSmall(
        f"could not stabilize the conductor after repeated rebuilds: {last_exc}"
    )


def _detected(table: SemigroupTable, guess: Point) -> tuple[Point, Point]:
    """The conductor and multiplicity that ``semigroup_from_hilbert``
    detects on the grid R(0, guess) of the table's semigroup, or its
    MarginTooSmall.  It reads the window R(0, g), g = guess - e, at
    min(l, c), so each window point l reads the point min(l, b) of the
    table's own box R(0, b), b = min(g, c) (the slice of the mask, which
    stops at its edge), and ``table_on_window`` reads that box as the
    window."""
    if min(guess) < 1:
        raise MarginTooSmall("grid too small to test any point")
    require_grid(guess)
    inner = tuple(g - 1 for g in guess)
    seen = table_on_window(table.mask[window(inner)], inner)
    return seen.conductor, seen.multiplicity()


def build_model(desc: GermDescriptor) -> GermModel:
    """Construct the grids for a descriptor (growing past margin errors)
    and check its flags against them."""
    if desc.kind == "builtin":
        from . import catalog

        name, params = desc.payload
        entry = catalog.get_entry(name, *params).descriptor
        if desc.r != entry.r:
            raise DescriptorError(
                f"builtin {entry.name} has r = {entry.r} branches, "
                f"but the descriptor states r = {desc.r}"
            )
        # the descriptor's bound and flags override the entry's where set
        given = dict(bound=desc.bound, plane=desc.plane, gorenstein=desc.gorenstein)
        given = {key: value for key, value in given.items() if value is not None}
        return build_model(replace(entry, **given))
    if desc.kind == "semigroup":
        model = _build_from_semigroup(desc)
    elif desc.kind == "hilbert":
        model = _build_from_hilbert(desc)
    else:
        model = _build_from_poincare(desc)
    # a plane curve is a complete intersection, hence Gorenstein
    if desc.plane and not model.is_gorenstein:
        raise DescriptorError("flag plane is True, but the germ is not Gorenstein")
    if desc.gorenstein is not None and desc.gorenstein != model.is_gorenstein:
        raise DescriptorError(
            f"flag gorenstein is {desc.gorenstein}, "
            f"but the weights give {model.is_gorenstein}"
        )
    return model
