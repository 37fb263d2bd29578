"""The ordinary r-fold point: r general lines through 0 in C^2.

``line_arrangement(r)`` is its ``hilbert`` descriptor.  The grid comes
from a closed form, so the germ scales in r (the number of branches)
without the valuation oracle:

    h(l) = sum over d >= 0 of min(d + 1, #{i : l_i > d}).

Proof.  Parametrize the i-th line as t -> t v_i, with v_1, ..., v_r in
C^2 pairwise independent, and write f in C{x, y} as the sum of its
forms f_d of degree d.  Then f(t v_i) = sum_d f_d(v_i) t^d, so the i-th
valuation of f is at least l_i iff f_d(v_i) = 0 for every d < l_i.
These conditions split by degree, so h(l), the codimension of
{f : v(f) >= l}, is the sum over d of the rank of the evaluation of
binary forms of degree d at the m = #{i : l_i > d} points v_i.  Binary
forms of degree d span a space of dimension d + 1, and that rank is
min(d + 1, m):

* for m <= d + 1 evaluation is onto: with lambda_j a linear form that
  vanishes at v_j only and mu one that vanishes at no v_j, the form
  mu^(d + 1 - m) * prod over j != i of lambda_j is nonzero at v_i and
  zero at every other point;
* for m > d + 1 its kernel is zero: a nonzero binary form of degree d
  vanishes on at most d lines.

Only d < max l_i contribute.  The conductor is c = (r - 1) e and
delta = r (r - 1) / 2, the number of pairs of lines (each line is smooth
and two lines meet with intersection number 1).
"""

import numpy as np

from latcurve.germ import GermDescriptor


def line_arrangement(r: int) -> GermDescriptor:
    """The ``hilbert`` descriptor of r general lines through 0 in C^2, on
    R(0, c + 2e): two layers past c, so that the conductor is detected."""
    bound = (r + 1,) * r
    points = np.indices(tuple(b + 1 for b in bound))  # l, one axis per line
    values = sum(np.minimum(d + 1, (points > d).sum(axis=0)) for d in range(r + 1))
    return GermDescriptor(r=r, kind="hilbert", payload=(bound, values), plane=True)
