"""Re-derivation of the frozen semigroups of the derived catalog entries.

Each entry corresponds to a plane germ with a rational equisingular
model; the branches are monomial parametrizations t -> (c_x t^a, c_y t^b).
Orders of vanishing of function germs span the value semigroup, and the
Hilbert value h(l) is the rank of the span of all monomial images in
prod_i Q[t]/(t^(l_i)).  That rank computation is exact (Fractions) and
completely independent of the package's semigroup/series machinery.

These checks are quarantined from the exact reference-table suite: they
validate the *provenance* of the shipped data.
"""

from itertools import product

import pytest

from latcurve import build_model, get, get_entry
from oracles import hilbert_by_valuations

# branch models: ((cx, ex), (cy, ey)) meaning x = cx t^ex, y = cy t^ey
MODELS = {
    # x (x^2 - y^5)
    ("E13",): [((1, 5), (1, 2)), ((0, 0), (1, 1))],
    # y (x^3 - y^4)
    ("Z11",): [((1, 4), (1, 3)), ((1, 1), (0, 0))],
    # x y (x^2 - y^3)
    ("Z12",): [((1, 3), (1, 2)), ((0, 0), (1, 1)), ((1, 1), (0, 0))],
    # y (x^3 - y^5)
    ("Z13",): [((1, 5), (1, 3)), ((1, 1), (0, 0))],
    # x (x^3 - y^4)
    ("W13",): [((1, 4), (1, 3)), ((0, 0), (1, 1))],
    # (x^2 - y^3)(x^2 - 4 y^3): two cusps with second-order tangency
    ("W1_0",): [((1, 3), (1, 2)), ((2, 3), (1, 2))],
    # cross-checks of series-sourced entries against the valuation oracle
    ("E", 7): [((1, 3), (1, 2)), ((0, 0), (1, 1))],
    ("D", 5): [((1, 3), (1, 2)), ((1, 1), (0, 0))],
    ("D", 4): [((1, 1), (1, 1)), ((1, 1), (-1, 1)), ((1, 1), (0, 0))],
    ("T", 5, 7): [((1, 2), (1, 3)), ((1, 5), (1, 2))],
    ("T", 4, 4): [
        ((1, 1), (1, 1)),
        ((1, 1), (2, 1)),
        ((1, 1), (3, 1)),
        ((1, 1), (4, 1)),
    ],
}


@pytest.mark.parametrize("spec", sorted(MODELS), ids=lambda s: "_".join(map(str, s)))
def test_valuation_oracle_reproduces_grid(spec, model_of):
    m = model_of(*spec)
    e = get_entry(*spec).expected
    branches = MODELS[spec]
    bound = tuple(c + 1 for c in m.conductor)
    for ell in product(*[range(b + 1) for b in bound]):
        assert m.hilbert.h(ell) == hilbert_by_valuations(branches, ell), ell
    # frozen metadata re-derived
    assert m.conductor == e["c"]
    assert m.delta == e["delta"]
    assert m.multiplicity == e["m"]


@pytest.mark.parametrize(
    "key", ["E13", "Z11", "Z12", "Z13", "W13", "W1_0"], ids=str
)
def test_frozen_semigroup_matches_oracle(key):
    """The literal member lists shipped in the catalog are exactly the
    points where every valuation direction has a witness."""
    entry = get_entry(key)
    c, elements = entry.descriptor.payload
    branches = MODELS[(key,)]
    r = len(c)
    members = []
    for ell in product(*[range(ci + 1) for ci in c]):
        h0 = hilbert_by_valuations(branches, ell)
        ok = all(
            hilbert_by_valuations(
                branches, tuple(x + (1 if i == j else 0) for j, x in enumerate(ell))
            )
            > h0
            for i in range(r)
        )
        if ok:
            members.append(ell)
    assert members == sorted(map(tuple, elements))


def test_generated_numerical_semigroups():
    """The r = 1 derived entries against brute-force generator sums."""
    for key, gens in [
        ("E12", (3, 7)),
        ("E14", (3, 8)),
        ("W12", (4, 5)),
        ("E18", (3, 10)),
    ]:
        entry = get_entry(key)
        c, elements = entry.descriptor.payload
        reachable = {0}
        for _ in range(c[0]):
            reachable |= {v + g for v in reachable for g in gens if v + g <= c[0]}
        assert sorted(p[0] for p in elements) == sorted(reachable)
        # conductor is correct: c-1 unreachable, everything in [c, c+gcd..]
        assert c[0] - 1 not in reachable
        m = build_model(get(key))
        assert m.conductor == c
