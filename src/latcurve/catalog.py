"""Built-in germ descriptors.

The simple and T-family entries carry the subcurve Poincare series or
the value semigroup in closed form; each entry also records expected
metadata (multiplicity vector, conductor, delta, Milnor number, and the
expected classification), which the test suite checks against
recomputation.

The exceptional-unimodal entries (E_12 .. W_13, plus the bimodal
W_{1,0} and E_18) ship as semigroup data derived outside this package
by brute-force valuations of an equisingular rational model; the
derivation recipe lives in tests/test_derived_catalog.py and re-derives
every frozen table from scratch.
"""

from __future__ import annotations

import itertools

from .errors import BadParams, UnknownGerm, cut
from .germ import GermDescriptor
from .lattice import Record, require_grid
from .series import RationalSeries, geometric, poly


class CatalogEntry(Record):
    """A catalog germ: its family name and parameters, its descriptor and
    the metadata the test suite checks against recomputation."""

    _fields = ("name", "params", "descriptor", "expected")

    def __init__(self, name: str, params: tuple, descriptor: GermDescriptor, expected: dict):
        vars(self).update(name=name, params=params, descriptor=descriptor, expected=expected)


def _sg_descriptor(name, r, conductor, elements, **kw):
    return GermDescriptor(
        r=r,
        kind="semigroup",
        payload=(tuple(conductor), [tuple(p) for p in elements]),
        name=name,
        plane=True,
        **kw,
    )


def _ps_descriptor(name, r, series, **kw):
    return GermDescriptor(
        r=r, kind="poincare", payload=series, name=name, plane=True, **kw
    )


def numerical_semigroup(gens, conductor):
    """Members of <gens> up to the conductor (inclusive)."""
    gens = sorted(gens)
    member = [False] * (conductor + 1)
    member[0] = True
    for v in range(1, conductor + 1):
        member[v] = any(v >= g and member[v - g] for g in gens)
    return [(v,) for v in range(conductor + 1) if member[v]]


def _verdict(cmtype, subtype=None, growth=None, family=None):
    return {"cmtype": cmtype, "subtype": subtype, "growth": growth, "family": family}


def _branch(g=None):
    """The Poincare series of one branch: 1/(1 - t) for a smooth branch,
    (1 + t^g)/(1 - t^2) for a branch of semigroup <2, g>."""
    if g is None:
        return geometric(1, (1,))
    return RationalSeries(poly(1, {(0,): 1, (g,): 1}), ((2,),))


def _two_branches(name, g1, g2, p12):
    """A germ of two branches: P_i is ``_branch(g_i)``, and P_{1,2} is
    the polynomial with the terms ``p12``."""
    series = {(1,): _branch(g1), (2,): _branch(g2), (1, 2): RationalSeries(poly(2, p12))}
    return _ps_descriptor(name, 2, series)


# ---------------------------------------------------------------------------
# entry builders


def _entry_A(n):
    if n < 0:
        raise BadParams("A_n needs n >= 0")
    label = f"A_{n}"
    if n % 2 == 0:
        c = n
        require_grid((c,), f"the conductor box of {label}")
        elements = numerical_semigroup([2, n + 1], c) if n else [(0,)]
        desc = _sg_descriptor(label, 1, (c,), elements)
        expected = {
            "m": (1,) if n == 0 else (2,),
            "c": (c,),
            "delta": n // 2,
            "mu": n,
            **_verdict("finite", "A"),
        }
    else:
        k = (n + 1) // 2
        require_grid((k, k), f"the conductor box of {label}")
        desc = _two_branches(label, None, None, {(j, j): 1 for j in range(k)})
        expected = {
            "m": (1, 1),
            "c": (k, k),
            "delta": k,
            "mu": n,
            **_verdict("finite", "A"),
        }
    return CatalogEntry("A", (n,), desc, expected)


def _entry_D(n):
    if n < 4:
        raise BadParams("D_n needs n >= 4")
    label = f"D_{n}"
    if n % 2 == 1:
        desc = _two_branches(label, n - 2, None, {(0, 0): 1, (n - 2, 1): 1})
        expected = {
            "m": (2, 1),
            "c": (n - 1, 2),
            "delta": (n + 1) // 2,
            "mu": n,
            **_verdict("finite", "D-dominating"),
        }
    else:
        k = n // 2
        require_grid((k, k, 2), f"the conductor box of {label}")
        series = {
            **{(i,): _branch() for i in range(1, 4)},
            (1, 2): RationalSeries(poly(2, {(j, j): 1 for j in range(k - 1)})),
            (1, 3): RationalSeries(poly(2, {(0, 0): 1})),
            (2, 3): RationalSeries(poly(2, {(0, 0): 1})),
            (1, 2, 3): RationalSeries(
                poly(3, {(0, 0, 0): 1, (k - 1, k - 1, 1): -1})
            ),
        }
        desc = _ps_descriptor(label, 3, series)
        expected = {
            "m": (1, 1, 1),
            "c": (k, k, 2),
            "delta": k + 1,
            "mu": n,
            **_verdict("finite", "D-dominating"),
        }
    return CatalogEntry("D", (n,), desc, expected)


def _entry_E(n):
    if n not in (6, 7, 8):
        raise BadParams("E_n exists for n in {6, 7, 8}")
    label = f"E_{n}"
    if n == 6:
        desc = _sg_descriptor(label, 1, (6,), numerical_semigroup([3, 4], 6))
        expected = {"m": (3,), "c": (6,), "delta": 3, "mu": 6}
    elif n == 8:
        desc = _sg_descriptor(label, 1, (8,), numerical_semigroup([3, 5], 8))
        expected = {"m": (3,), "c": (8,), "delta": 4, "mu": 8}
    else:
        desc = _two_branches(label, 3, None, {(0, 0): 1, (2, 1): 1, (4, 2): 1})
        expected = {"m": (2, 1), "c": (5, 3), "delta": 4, "mu": 7}
    expected.update(_verdict("finite", "E-dominating"))
    return CatalogEntry("E", (n,), desc, expected)


def _entry_T(p, q):
    if (p, q) == (4, 4):
        series = {(i,): _branch() for i in range(1, 5)}
        for a, b in itertools.combinations(range(1, 5), 2):
            series[(a, b)] = RationalSeries(poly(2, {(0, 0): 1}))
        for a, b, c in itertools.combinations(range(1, 5), 3):
            series[(a, b, c)] = RationalSeries(
                poly(3, {(0, 0, 0): 1, (1, 1, 1): -1})
            )
        series[(1, 2, 3, 4)] = RationalSeries(
            poly(4, {(0, 0, 0, 0): 1, (1, 1, 1, 1): -2, (2, 2, 2, 2): 1})
        )
        desc = _ps_descriptor("T_{4,4}", 4, series)
        expected = {
            "m": (1, 1, 1, 1),
            "c": (3, 3, 3, 3),
            "delta": 6,
            "mu": 9,
            **_verdict("tame", growth="finite", family="parabolic"),
        }
        return CatalogEntry("T", (4, 4), desc, expected)
    if (p, q) == (3, 6):
        series = {(i,): _branch() for i in range(1, 4)}
        for a, b in itertools.combinations(range(1, 4), 2):
            series[(a, b)] = RationalSeries(poly(2, {(0, 0): 1, (1, 1): 1}))
        series[(1, 2, 3)] = RationalSeries(
            poly(3, {(0, 0, 0): 1, (2, 2, 2): -2, (4, 4, 4): 1}),
            ((1, 1, 1),),
        )
        desc = _ps_descriptor("T_{3,6}", 3, series)
        expected = {
            "m": (1, 1, 1),
            "c": (4, 4, 4),
            "delta": 6,
            "mu": 10,
            **_verdict("tame", growth="finite", family="parabolic"),
        }
        return CatalogEntry("T", (3, 6), desc, expected)
    if p == 3 and q >= 7 and q % 2 == 1:
        b = (q - 3) // 2
        desc = _two_branches(
            f"T_{{3,{q}}}",
            2 * b + 1,
            None,
            {
                (0, 0): 1,
                (2, 1): 1,
                (2 * b + 1, 2): 1,
                (2 * b + 3, 3): 1,
            },
        )
        expected = {
            "m": (2, 1),
            "c": (2 * b + 4, 4),
            "delta": b + 4,
            "mu": 2 * b + 7,
            **_verdict("tame", growth="infinite", family="hyperbolic"),
        }
        return CatalogEntry("T", (3, q), desc, expected)
    if p >= 5 and p % 2 == 1 and q >= p and q % 2 == 1:
        a, b = (p - 3) // 2, (q - 3) // 2
        desc = _two_branches(
            f"T_{{{p},{q}}}",
            2 * a + 1,
            2 * b + 1,
            {
                (0, 0): 1,
                (2 * a + 1, 2): 1,
                (2, 2 * b + 1): 1,
                (2 * a + 3, 2 * b + 3): 1,
            },
        )
        expected = {
            "m": (2, 2),
            "c": (2 * a + 4, 2 * b + 4),
            "delta": a + b + 4,
            "mu": 2 * a + 2 * b + 7,
            **_verdict("tame", growth="infinite", family="hyperbolic"),
        }
        return CatalogEntry("T", (p, q), desc, expected)
    raise BadParams(
        f"T_{{{p},{q}}} not shipped: supported are (4,4), (3,6), (3, odd>=7), "
        "(odd>=5, odd>=p)"
    )


# frozen semigroups of the derived entries (brute-force valuation oracle;
# see tests/test_derived_catalog.py for the re-derivation)
_DERIVED = {
    "E12": dict(
        r=1,
        conductor=(12,),
        elements=numerical_semigroup([3, 7], 12),
        m=(3,),
        delta=6,
        mu=12,
        family="exceptional",
    ),
    "E13": dict(
        r=2,
        conductor=(9, 5),
        elements=[
            (0, 0), (2, 1), (4, 2), (5, 3), (5, 4), (5, 5),
            (6, 3), (7, 4), (7, 5), (8, 4), (9, 5),
        ],
        m=(2, 1),
        delta=7,
        mu=13,
        family="exceptional",
    ),
    "E14": dict(
        r=1,
        conductor=(14,),
        elements=numerical_semigroup([3, 8], 14),
        m=(3,),
        delta=7,
        mu=14,
        family="exceptional",
    ),
    "Z11": dict(
        r=2,
        conductor=(9, 3),
        elements=[
            (0, 0), (3, 1), (3, 2), (3, 3), (4, 1), (6, 2),
            (6, 3), (7, 2), (7, 3), (8, 2), (9, 3),
        ],
        m=(3, 1),
        delta=6,
        mu=11,
        family="exceptional",
    ),
    "Z12": dict(
        r=3,
        conductor=(7, 4, 3),
        elements=[
            (0, 0, 0), (2, 1, 1), (2, 1, 2), (2, 1, 3), (3, 2, 1), (3, 3, 1),
            (3, 4, 1), (4, 2, 2), (4, 2, 3), (5, 3, 2), (5, 3, 3), (5, 4, 2),
            (5, 4, 3), (6, 3, 2), (6, 3, 3), (6, 4, 2), (7, 3, 2), (7, 4, 3),
        ],
        m=(2, 1, 1),
        delta=7,
        mu=12,
        family="exceptional",
    ),
    "Z13": dict(
        r=2,
        conductor=(11, 3),
        elements=[
            (0, 0), (3, 1), (3, 2), (3, 3), (5, 1), (6, 2), (6, 3),
            (8, 2), (8, 3), (9, 2), (9, 3), (10, 2), (11, 3),
        ],
        m=(3, 1),
        delta=7,
        mu=13,
        family="exceptional",
    ),
    "W12": dict(
        r=1,
        conductor=(12,),
        elements=numerical_semigroup([4, 5], 12),
        m=(4,),
        delta=6,
        mu=12,
        family="exceptional",
    ),
    "W13": dict(
        r=2,
        conductor=(10, 4),
        elements=[
            (0, 0), (3, 1), (4, 2), (4, 3), (4, 4), (6, 2),
            (7, 3), (7, 4), (8, 3), (8, 4), (9, 3), (10, 4),
        ],
        m=(3, 1),
        delta=7,
        mu=13,
        family="exceptional",
    ),
    "W1_0": dict(
        r=2,
        conductor=(8, 8),
        elements=[
            (0, 0), (2, 2), (3, 3), (4, 4), (5, 5), (6, 6),
            (6, 7), (6, 8), (7, 6), (7, 7), (8, 6), (8, 8),
        ],
        m=(2, 2),
        delta=8,
        mu=15,
        family=None,
    ),
    "E18": dict(
        r=1,
        conductor=(18,),
        elements=numerical_semigroup([3, 10], 18),
        m=(3,),
        delta=9,
        mu=18,
        family=None,
    ),
}

_DERIVED_LABEL = {
    "E12": "E_12", "E13": "E_13", "E14": "E_14", "Z11": "Z_11", "Z12": "Z_12",
    "Z13": "Z_13", "W12": "W_12", "W13": "W_13", "W1_0": "W_{1,0}", "E18": "E_18",
}


def _entry_derived(key):
    data = _DERIVED[key]
    desc = _sg_descriptor(
        _DERIVED_LABEL[key], data["r"], data["conductor"], data["elements"]
    )
    expected = {
        "m": data["m"],
        "c": data["conductor"],
        "delta": data["delta"],
        "mu": data["mu"],
        **_verdict("wild", family=data["family"]),
    }
    return CatalogEntry(key, (), desc, expected)


_ALIASES = {"E6": ("E", (6,)), "E7": ("E", (7,)), "E8": ("E", (8,))}

# family -> its builder, its parameter count, and the text when the count is wrong
_FAMILIES = {
    "A": (_entry_A, 1, "A needs one parameter n >= 0"),
    "D": (_entry_D, 1, "D needs one parameter n >= 4"),
    "E": (_entry_E, 1, "E needs one parameter in {6, 7, 8}"),
    "T": (_entry_T, 2, "T needs two parameters p <= q"),
}


def get_entry(name, *params) -> CatalogEntry:
    name = str(name)
    params = tuple(int(p) for p in params)
    if name in _ALIASES and not params:
        name, params = _ALIASES[name]
    if name in _DERIVED:
        if params:
            raise BadParams(f"{name} takes no parameters")
        return _entry_derived(name)
    if name not in _FAMILIES:
        raise UnknownGerm(f"no catalog entry named {cut(repr(name))}")
    build, count, usage = _FAMILIES[name]
    if len(params) != count:
        raise BadParams(usage)
    return build(*params)


def get(name, *params) -> GermDescriptor:
    return get_entry(name, *params).descriptor


def list_entries():
    """Names and parameter ranges of every builtin family."""
    return [
        ("A", "A,n for n >= 0 (A_0 is the smooth germ)"),
        ("D", "D,n for n >= 4"),
        ("E", "E,n for n in {6, 7, 8} (aliases E6/E7/E8)"),
        ("T", "T,4,4 | T,3,6 | T,3,q (odd q >= 7, i.e. T_{3,2b+3}) | T,p,q (odd p,q >= 5)"),
    ] + [
        (key, f"{'exceptional unimodal' if data['family'] else 'bimodal'} "
              f"{_DERIVED_LABEL[key]} (derived entry)")
        for key, data in _DERIVED.items()
    ]
