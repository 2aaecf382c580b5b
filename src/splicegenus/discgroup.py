"""The discriminant group H = L*/L and its character theory.

H is presented as Z^n / I Z^n in the E*-coordinates alpha of L*
(alpha_w = -D.E_w for D = sum_w alpha_w E*_w); the Smith normal form
U I V = S gives invariant-factor coordinates, class(alpha) = U alpha mod d.
The theta pairing is the intersection form reduced mod 1,
D.D' = -alpha^T A alpha' / |det I| with A the graph's integer adjugate, and
it identifies H with its character group: a character with coordinates c
acts by chi(h) = exp(2 pi i * sum_i c_i h_i / d_i).  In these coordinates
theta(alpha) = T alpha mod d for an integer matrix T, and all work below
stays in the integers.  QCycle arguments and results are converted at the
boundary: ``alpha_of`` is the one place a QCycle is read, through
``intersect``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from . import exact
from .errors import NotInDualLattice
from .graph import QCycle, ResolutionGraph, unit_cycle


def mod1(x) -> Fraction:
    """Reduce an exact rational into [0, 1)."""
    x = Fraction(x)
    return Fraction(x.numerator % x.denominator, x.denominator)


@dataclass(frozen=True)
class HElement:
    coords: tuple  # coords[i] in [0, d_i)


@dataclass(frozen=True)
class Character:
    coords: tuple  # same coordinate convention via invariant factors


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
        self.exponent = self.invariant_factors[-1] if self.invariant_factors else 1
        self._U = [U[i] for i in kept]
        # generator k of H lifts to column k of U^{-1} = I V S^{-1}
        self._gen_alphas = []
        for k in kept:
            col, rem = zip(*(divmod(x, diag[k]) for x in
                             graph.intersections([row[k] for row in V])))
            assert not any(rem), "U^{-1} must be integral"
            self._gen_alphas.append(list(col))
        # theta(E*_w)_j = d_j (E*_w . gen_j) = V_{w k_j} mod d_j, because
        # A I V = -|det I| V; rows j of the theta matrix T, columns w
        self.theta_matrix = [[row[k] % diag[k] for row in V] for k in kept]
        self._alphas = None
        self._c1 = {}

    # -- element bookkeeping ----------------------------------------------

    @property
    def rank(self):
        return len(self.invariant_factors)

    def reduce(self, coords) -> HElement:
        return HElement(tuple(c % d for c, d in zip(coords, self.invariant_factors)))

    def elements(self):
        for tup in itertools.product(*(range(d) for d in self.invariant_factors)):
            yield HElement(tup)

    def characters(self):
        for tup in itertools.product(*(range(d) for d in self.invariant_factors)):
            yield Character(tup)

    @property
    def trivial_character(self):
        return Character((0,) * self.rank)

    def char_mul(self, a: Character, b: Character) -> Character:
        return Character(tuple((x + y) % d for x, y, d in
                               zip(a.coords, b.coords, self.invariant_factors)))

    def char_value_exponent(self, chi: Character, h: HElement) -> Fraction:
        """Exponent r in chi(h) = exp(2 pi i r), as a rational in [0,1)."""
        return mod1(sum(Fraction(c * x, d) for c, x, d in
                        zip(chi.coords, h.coords, self.invariant_factors)))

    # -- E*-coordinates ---------------------------------------------------

    def _class_alpha(self, alpha) -> HElement:
        return self.reduce([sum(u * a for u, a in zip(row, alpha) if a)
                            for row in self._U])

    def _lift_alpha(self, h: HElement):
        alpha = [0] * len(self.graph.ids)
        for c, gen in zip(h.coords, self._gen_alphas):
            if c:
                alpha = [a + c * x for a, x in zip(alpha, gen)]
        return alpha

    def theta_alpha(self, alpha) -> Character:
        """theta of the class of sum_w alpha_w E*_w: T alpha mod d."""
        return Character(tuple(
            sum(t * a for t, a in zip(row, alpha) if a) % d
            for row, d in zip(self.theta_matrix, self.invariant_factors)))

    def dual_character(self, w) -> Character:
        """psi_w = theta(E*_w), column w of the theta matrix."""
        k = self.graph.index(w)
        return Character(tuple(row[k] for row in self.theta_matrix))

    def c1_alpha(self, chi: Character):
        """E*-coordinates of c_1(L_chi), the representative of chi with
        E-coefficients in [0, 1)."""
        if chi not in self._c1:
            if self._alphas is None:
                # theta inverted on lifts: character -> alpha of one lift
                table = {}
                for h in self.elements():
                    alpha = self._lift_alpha(h)
                    table[self.theta_alpha(alpha)] = alpha
                assert len(table) == self.order, "theta is not bijective"
                self._alphas = table
            det = self.dual.det_abs
            # |det I| times the fractional part of the lift's E-coefficients,
            # and back to E*-coordinates: alpha = -I rep / |det I|
            rep = [c % det for c in self.dual.numerators(self._alphas[chi])]
            alpha, rem = zip(*(divmod(-x, det) for x in
                               self.graph.intersections(rep)))
            assert not any(rem), "c_1(L_chi) is not in L*"
            assert self.theta_alpha(alpha) == chi
            self._c1[chi] = list(alpha)
        return self._c1[chi]

    # -- classes of dual-lattice elements ---------------------------------

    def alpha_of(self, D: QCycle):
        """Coordinates of D in the E*-basis: alpha_w = -D . E_w (must be integral)."""
        g = self.graph
        alphas = []
        for w in g.ids:
            a = -g.intersect(D, unit_cycle(w))
            if a.denominator != 1:
                raise NotInDualLattice(
                    f"cycle is not in L*: -D.E_{w} = {a} is not an integer")
            alphas.append(int(a))
        return alphas

    def _alpha(self, x):
        if isinstance(x, HElement):
            return self._lift_alpha(x)
        return self.alpha_of(x)

    def class_of(self, D: QCycle) -> HElement:
        return self._class_alpha(self.alpha_of(D))

    def lift(self, h: HElement) -> QCycle:
        """A representative of h in L*, as a QCycle in the E-basis."""
        return self.dual.cycle(self._lift_alpha(h))

    # -- theta pairing -----------------------------------------------------

    def pair(self, x, y) -> Fraction:
        """Exponent of theta(x, y) as a rational mod 1.

        Arguments may be HElements or QCycles in L*.
        """
        a, b = self._alpha(x), self._alpha(y)
        ab = sum(p * q for p, q in zip(a, self.dual.numerators(b)))
        return mod1(Fraction(-ab, self.dual.det_abs))

    def theta(self, x) -> Character:
        """The character theta(h): h' -> exp(2 pi i h.h')."""
        return self.theta_alpha(self._alpha(x))

    # -- fractional representatives and branch maps ------------------------

    def fractional_representative(self, chi: Character) -> QCycle:
        """c_1(L_chi): the unique L*-representative with coefficients in [0,1)."""
        rep = self.dual.cycle(self.c1_alpha(chi))
        assert all(0 <= c < 1 for c in rep.coeffs.values())
        return rep


def phi_alpha(parent_gd: GroupData, branch, chi: Character):
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


def phi_branch(parent: ResolutionGraph, branch, D: QCycle) -> QCycle:
    """phi_i: rewrite D in the E*-basis, keep the branch part, reinterpret
    with the branch's own dual cycles."""
    alpha = dict(zip(parent.ids, group_data(parent).alpha_of(D)))
    sub = branch.subgraph
    return sub.dual_data().cycle([alpha[w] for w in sub.ids])


def psi_branch(parent_gd: GroupData, branch, chi: Character) -> Character:
    """psi_i(chi) = theta_i(phi_i(c_1(L_chi)))."""
    return group_data(branch.subgraph).theta_alpha(
        phi_alpha(parent_gd, branch, chi))


def nef_shift_cycle(parent_gd: GroupData, branch, chi: Character) -> QCycle:
    """D_{chi,i} = -[phi_i(c_1(L_chi))]; effective and integral."""
    D = nef_shift(branch, phi_alpha(parent_gd, branch, chi))
    return QCycle(dict(zip(branch.subgraph.ids, D)))
