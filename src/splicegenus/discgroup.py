"""The discriminant group H = L*/L and its character theory.

H is presented as Z^n / I Z^n in the E*-coordinates alpha of L*
(alpha_w = -D.E_w for D = sum_w alpha_w E*_w); the Smith normal form
U I V = S gives invariant-factor coordinates d_j.  The theta pairing is the
intersection form reduced mod 1, D.D' = -alpha^T A alpha' / |det I| with A
the graph's integer adjugate, and it identifies H with its character group:
a character with coordinates c acts by chi(h) = exp(2 pi i * sum_j c_j h_j / d_j).
In these coordinates theta(alpha) = T alpha mod d for an integer matrix T,
the rows of V^T that Smith keeps, so row k of V^{-1} = S^{-1} U I lifts the
k-th unit character, and c_1(L_chi) is one row combination of them.
Characters are the one representation of H, and a character is the tuple
of its coordinates c_j in [0, d_j): the c_1 cache, the h1 cache and the
Molien kernel rows are keyed by these tuples.  All work stays in the
integers: a class of L* is an int list of E*-coordinates, c_1(L_chi) one
such list (its E-coefficients are its numerators over |det I|), and
D_{chi,i} an int list of E-coefficients.  The rational routes from the
definitions (classes of rational cycles, the pairing and its reduction
mod 1, c_1 as a rational cycle) live in tests/reference.py as the
independent reference.
"""

from __future__ import annotations

import itertools

from . import exact
from .graph import ResolutionGraph


def group_data(g: ResolutionGraph) -> GroupData:
    """The graph's GroupData, built once and kept in its cache."""
    if "group" not in g._cache:
        g._cache["group"] = GroupData(g)
    return g._cache["group"]


class GroupData:
    """Invariant-factor presentation of H = L*/L for one graph."""

    def __init__(self, graph: ResolutionGraph):
        graph.require_valid()
        self.graph = graph
        self.dual = graph.dual_data()
        I = graph.intersection_matrix()
        U, S, V = exact.smith_normal_form(I)
        n = len(graph.ids)
        diag = [S[i][i] for i in range(n)]
        assert all(d > 0 for d in diag)
        kept = [i for i in range(n) if diag[i] > 1]
        self.invariant_factors = [diag[i] for i in kept]
        self.order = 1
        for d in self.invariant_factors:
            self.order *= d
        assert self.order == self.dual.det_abs, "|H| must equal |det I|"
        # theta(E*_w)_j = d_j (E*_w . gen_j) = V_{w k_j} mod d_j, because
        # A I V = -|det I| V; rows j of the theta matrix T, columns w
        self.theta_matrix = [[row[k] % diag[k] for row in V] for k in kept]
        # row k_j of V^{-1} = S^{-1} U I: E*-coordinates whose theta is the
        # j-th unit character (U_k I = I U_k^T, as I is symmetric)
        self._unit_alphas = []
        for k in kept:
            row, rem = zip(*(divmod(x, diag[k]) for x in graph.intersections(U[k])))
            assert not any(rem), "V^{-1} must be integral"
            self._unit_alphas.append(row)
        self._c1 = {}

    @property
    def rank(self):
        return len(self.invariant_factors)

    def characters(self):
        return itertools.product(*(range(d) for d in self.invariant_factors))

    @property
    def trivial_character(self):
        return (0,) * self.rank

    def char_mul(self, a, b):
        return tuple((x + y) % d for x, y, d in
                     zip(a, b, self.invariant_factors))

    # -- E*-coordinates ---------------------------------------------------

    def theta_alpha(self, alpha):
        """theta of the class of sum_w alpha_w E*_w: T alpha mod d."""
        return tuple(sum(t * a for t, a in zip(row, alpha) if a) % d
                     for row, d in zip(self.theta_matrix, self.invariant_factors))

    def dual_character(self, w):
        """psi_w = theta(E*_w), column w of the theta matrix."""
        k = self.graph.index(w)
        return tuple(row[k] for row in self.theta_matrix)

    def c1_alpha(self, chi):
        """E*-coordinates of c_1(L_chi), the representative of chi with
        E-coefficients in [0, 1)."""
        if chi not in self._c1:
            alpha = [0] * len(self.graph.ids)
            for c, row in zip(chi, self._unit_alphas):
                if c:
                    alpha = [a + c * x for a, x in zip(alpha, row)]
            det = self.dual.det_abs
            # |det I| times the fractional part of the lift's E-coefficients,
            # and back to E*-coordinates: alpha = -I rep / |det I|
            rep = [c % det for c in self.dual.numerators(alpha)]
            alpha, rem = zip(*(divmod(-x, det) for x in
                               self.graph.intersections(rep)))
            assert not any(rem), "c_1(L_chi) is not in L*"
            assert self.theta_alpha(alpha) == chi
            self._c1[chi] = list(alpha)
        return self._c1[chi]


def phi_alpha(parent_gd: GroupData, branch, chi):
    """phi_i(c_1(L_chi)) in the branch's E*-coordinates: alpha restricted to
    the branch, in branch.subgraph.ids order."""
    alpha = dict(zip(parent_gd.graph.ids, parent_gd.c1_alpha(chi)))
    return [alpha[w] for w in branch.subgraph.ids]


def nef_shift(branch, phi):
    """D_{chi,i} = -[phi] for phi in the branch's E*-coordinates, as
    integer E-coefficients in branch.subgraph.ids order; effective."""
    dd = branch.subgraph.dual_data()
    D = [-(c // dd.det_abs) for c in dd.numerators(phi)]
    assert all(c >= 0 for c in D), "D_{chi,i} is not effective"
    return D

