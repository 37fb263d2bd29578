"""Hypothesis strategies for random germs.

* ``numerical_semigroups``: generator sets of single-branch germs.
* ``monomial_plane_germs``: plane germs whose 2 or 3 branches are
  monomial, t -> (c_x t^a, c_y t^b), as ``hilbert`` descriptors whose
  grid comes from the exact valuation oracle (``plane_germ``).
"""

from fractions import Fraction
from functools import reduce
from itertools import product
from math import gcd

import numpy as np
from hypothesis import strategies as st

from latcurve.germ import GermDescriptor
from oracles import hilbert_by_valuations


@st.composite
def numerical_semigroups(draw):
    gens = draw(
        st.lists(st.integers(min_value=2, max_value=11), min_size=2, max_size=4)
    )
    # force gcd 1 so a conductor exists
    if reduce(gcd, gens) != 1:
        gens.append(draw(st.sampled_from([g + 1 for g in gens])))
    if reduce(gcd, gens) != 1:
        gens = gens + [2, 3]
    return sorted(set(gens))


def conductor_of(gens, horizon=200):
    member = [False] * (horizon + 1)
    member[0] = True
    for v in range(1, horizon + 1):
        member[v] = any(v >= g and member[v - g] for g in gens)
    run = 0
    for v in range(horizon, -1, -1):
        if member[v]:
            run += 1
        else:
            return v + 1
    return 0


# ---------------------------------------------------------------------------
# monomial plane germs; a branch is ((cx, ex), (cy, ey)): x = cx t^ex,
# y = cy t^ey, and the coordinate axes are ((1, 1), (0, 0)) and
# ((0, 0), (1, 1))

X_AXIS = ((1, 1), (0, 0))
Y_AXIS = ((0, 0), (1, 1))
SMOOTH = [(1, 1), (1, 2), (2, 1)]
SINGULAR = [(2, 3), (3, 2)]


def _curve_key(branch):
    """Equal keys iff the branches parametrize the same curve
    cy^a x^b = cx^b y^a."""
    if branch in (X_AXIS, Y_AXIS):
        return branch
    (cx, a), (cy, b) = branch
    return (a, b, Fraction(cx**b, cy**a))


def _branch_conductor(branch):
    (_, a), (_, b) = branch
    return max(a - 1, 0) * max(b - 1, 0)


def _intersection(bi, bj):
    """ord_t of the equation of branch j along branch i."""
    (cxi, exi), (cyi, eyi) = bi
    (cxj, a), (cyj, b) = bj
    # equation of branch j: cyj^a x^b - cxj^b y^a
    terms = {}
    for coeff, exp in ((cyj**a * cxi**b, exi * b), (-(cxj**b) * cyi**a, eyi * a)):
        terms[exp] = terms.get(exp, 0) + coeff
    return min(e for e, c in terms.items() if c)


def plane_conductor(branches):
    """c_i = conductor of branch i + sum of its intersection numbers."""
    return tuple(
        _branch_conductor(bi)
        + sum(_intersection(bi, bj) for j, bj in enumerate(branches) if j != i)
        for i, bi in enumerate(branches)
    )


@st.composite
def _branches(draw, shapes):
    shape = draw(st.sampled_from([None, None] + shapes))
    if shape is None:
        return draw(st.sampled_from([X_AXIS, Y_AXIS]))
    cx = draw(st.sampled_from([1, -1, 2, 3]))
    cy = draw(st.sampled_from([1, 2]))
    return ((cx, shape[0]), (cy, shape[1]))


@st.composite
def monomial_plane_germs(draw):
    """(branches, conductor, hilbert descriptor); three branches are kept
    smooth so the exact grid stays small."""
    r = draw(st.integers(min_value=2, max_value=3))
    shapes = SMOOTH if r == 3 else SMOOTH + SINGULAR
    branches = draw(
        st.lists(_branches(shapes), min_size=r, max_size=r, unique_by=_curve_key)
    )
    return plane_germ(branches)


def plane_germ(branches):
    """(branches, conductor, hilbert descriptor) of the plane germ with
    the given distinct monomial branches."""
    c = plane_conductor(branches)
    # two layers past c: conductor detection needs l + e stable in the grid
    bound = tuple(ci + 2 for ci in c)
    values = np.zeros(tuple(b + 1 for b in bound), dtype=np.int64)
    for ell in product(*[range(b + 1) for b in bound]):
        values[ell] = hilbert_by_valuations(branches, ell)
    desc = GermDescriptor(
        r=len(branches), kind="hilbert", payload=(bound, values), plane=True
    )
    return branches, c, desc
