"""The discriminant group H = L*/L and its character theory.

H is presented as Z^n / I Z^n in the E*-coordinates alpha of L*
(alpha_w = -D.E_w for D = sum_w alpha_w E*_w); the Smith normal form
U I V = S gives invariant-factor coordinates d_j.  It is the graph's one
decomposition of I: ``ResolutionGraph.dual_data`` computes it once, reads
the adjugate A off it, and keeps U, S and V for this module.  The theta
pairing is the intersection form reduced mod 1,
D.D' = -alpha^T A alpha' / |det I|, and it identifies H with its character
group: a character with coordinates c acts by
chi(h) = exp(2 pi i * sum_j c_j h_j / d_j).  In these coordinates
theta(alpha) = T alpha mod d for an integer matrix T, the rows of V^T that
Smith keeps, so row k of V^{-1} = S^{-1} U I lifts the k-th unit
character.  As A I = -|det I| Id, that lift has E-coefficients
-U_k / s_k, numerators -(|det I| / s_k) U_k over |det I|: c_1(L_chi) is
the fractional part of one combination of rows of U.
Characters are the one representation of H, and a character is the tuple
of its coordinates c_j in [0, d_j): the h1 cache is keyed by these
tuples, and nothing here is kept per character.  Inside the Molien
kernel and the oracle a character is its label sum_j c_j s_j, its
position in ``GroupData.characters()``, with the place values
s_j = d_{j+1} ... d_r (``_places``); adding psi to a label takes one
carry per coordinate (``_mover``).  All work stays in the integers: a
class of L* is an int list of E*-coordinates, c_1(L_chi) one such list,
-I r / |det I| for its numerators r (``_c1_numerators``), from one
``intersections`` pass whose every entry must divide by |det I| (else
c_1 is not in L*), and D_{chi,i} an int list of E-coefficients, read
from r and row v of the parent's adjugate (``nef_shift``), so nothing
multiplies by A.  c_1 is a value, computed per call: ``c1_alpha``
checks its character, and the package's callers, which have checked it
already, build r once and read ``_c1_alpha(r)`` and all else off it;
theta(c_1(L_chi)) = chi is left to the tests.  The rational routes from
the definitions (classes of rational cycles, the pairing and its
reduction mod 1, c_1 as a rational cycle) live in tests/reference.py as
the independent reference.
"""

from __future__ import annotations

import itertools
import math

from .errors import GraphInputError, InternalCheckError
from .graph import ResolutionGraph, _per_graph


def _places(dims):
    """The place values s_j = d_{j+1} ... d_r of the invariant factors
    dims: a character c has the label sum_j c_j s_j, its position in
    ``GroupData.characters()``."""
    return [math.prod(dims[j + 1:]) for j in range(len(dims))]


def _mover(dims, psi):
    """The map label of c -> label of c + psi, on ints: add psi's label,
    then take d_j s_j off for each coordinate j whose digit wraps, which
    is when c mod d_j s_j >= (d_j - psi_j) s_j."""
    places = _places(dims)
    step = sum(p * s for p, s in zip(psi, places))
    carries = [(d * s, (d - p) * s) for d, p, s in zip(dims, psi, places) if p]

    def move(x):
        y = x + step
        for q, b in carries:
            if x % q >= b:
                y -= q
        return y
    return move


@_per_graph("group")
def group_data(g: ResolutionGraph) -> GroupData:
    """The graph's GroupData, built once and kept in its cache."""
    return GroupData(g)


class GroupData:
    """Invariant-factor presentation of H = L*/L for one graph."""

    def __init__(self, graph: ResolutionGraph):
        self.graph = graph
        self.dual = dd = graph.dual_data()
        kept = [k for k, d in enumerate(dd.diag) if d > 1]
        self.invariant_factors = [dd.diag[k] for k in kept]
        self.order = dd.det_abs
        # theta(E*_w)_j = d_j (E*_w . gen_j) = V_{w k_j} mod d_j, because
        # A I V = -|det I| V; rows j of the theta matrix T, columns w
        self.theta_matrix = [[row[k] % dd.diag[k] for row in dd.V] for k in kept]
        # row k_j of V^{-1} = S^{-1} U I lifts the j-th unit character; its
        # numerators over |det I| are -(|det I| / d_j) U_{k_j}, kept mod |det I|
        self._unit_numerators = [
            [-(dd.det_abs // dd.diag[k]) * x % dd.det_abs for x in dd.U[k]]
            for k in kept]
        self._places = _places(self.invariant_factors)

    @property
    def rank(self):
        return len(self.invariant_factors)

    def characters(self):
        return itertools.product(*(range(d) for d in self.invariant_factors))

    @property
    def trivial_character(self):
        return (0,) * self.rank

    def _label(self, chi):
        """chi's position in ``characters()``, for a checked character."""
        return sum(c * s for c, s in zip(chi, self._places))

    # -- E*-coordinates ---------------------------------------------------

    def theta_alpha(self, alpha):
        """theta of the class of sum_w alpha_w E*_w: T alpha mod d."""
        return tuple(sum(t * a for t, a in zip(row, alpha) if a) % d
                     for row, d in zip(self.theta_matrix, self.invariant_factors))

    def dual_character(self, w):
        """psi_w = theta(E*_w), column w of the theta matrix."""
        k = self.graph.index(w)
        return tuple(row[k] for row in self.theta_matrix)

    def check_character(self, chi):
        """GraphInputError unless chi is a tuple of ints with one coordinate
        c_j in [0, d_j) per invariant factor d_j."""
        if not isinstance(chi, tuple):
            raise GraphInputError(f"character must be a tuple of ints, got {chi!r}")
        if len(chi) != self.rank:
            raise GraphInputError(
                f"character needs {self.rank} coordinates (invariant factors "
                f"{self.invariant_factors}), got {len(chi)}")
        for c, d in zip(chi, self.invariant_factors):
            if type(c) is not int:
                raise GraphInputError(f"character must be a tuple of ints, got {chi!r}")
            if not 0 <= c < d:
                raise GraphInputError(f"coordinate {c} out of range [0,{d})")

    def c1_alpha(self, chi):
        """E*-coordinates of c_1(L_chi), the representative of chi with
        E-coefficients in [0, 1)."""
        self.check_character(chi)
        return self._c1_alpha(self._c1_numerators(chi))

    def _c1_numerators(self, chi):
        """|det I| times the E-coefficients of c_1(L_chi), each in
        [0, |det I|), for a checked character."""
        rep = [0] * len(self.graph.ids)
        for c, row in zip(chi, self._unit_numerators):
            if c:
                rep = [r + c * x for r, x in zip(rep, row)]
        det = self.dual.det_abs
        return [r % det for r in rep]

    def _c1_alpha(self, num):
        """E*-coordinates of c_1(L_chi) from its numerators num
        (``_c1_numerators``): alpha = -I num / |det I|."""
        det = self.dual.det_abs
        ir = self.graph.intersections(num)
        if any(x % det for x in ir):
            raise InternalCheckError("c_1(L_chi) is not in L*")
        return [-x // det for x in ir]


def nef_shift(dual, k, cols, num):
    """D_{chi,i} = -[phi_i(c_1(L_chi))] as integer E-coefficients in cols
    order, read from the parent graph alone; effective.

    dual is the parent's ``DualData``, k the position of the node v in its
    ids, cols the positions of the branch's ids (in the branch's order)
    and num the numerators of c_1(L_chi) over |det I| on the parent
    (``GroupData._c1_numerators``).  On the branch B,
    [phi_i] = c_1|_B - c_{1,v} E*^B_a, where a is the attaching vertex,
    and E*^B_a = E*_v|_B / (E*_v)_v (the restriction rule of Neumann-Wahl's
    splice diagrams).  With N = r, the numerators c_1 was built from,

        D_w = -floor((N_w A_vv - N_v A_vw) / (|det I| A_vv)),

    so only row v of the parent's adjugate A is read, and the branch
    needs no dual data of its own.  D is effective: 0 <= N_w < |det I|
    and A > 0 put the floor's argument below 1.
    """
    row_v = dual.adjugate[k]
    a_vv, n_v = row_v[k], num[k]
    den = dual.det_abs * a_vv
    return [-((num[w] * a_vv - n_v * row_v[w]) // den) for w in cols]
