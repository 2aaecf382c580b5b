"""Fraction and Q(zeta) references for the lattice, group and Molien code.

The package works on integer E*-coordinates over a cached adjugate, on
characters only, and computes every eigenspace Hilbert series with one
integer kernel over the character group.  The functions here recompute the
same objects from their definitions, over the rationals and over Q(zeta),
so that tests can hold the integer core against them:

- ``QCycle`` is a rational cycle (a dict of Fraction E-coefficients), and
  ``as_qcycle`` reads the package's int lists and numerators over |det I|
  as one;
- ``intersect`` is the intersection form on QCycles;
- ``eliminate`` is a fraction-free Gauss-Jordan elimination (after
  Bareiss, Math. Comp. 22, 1968) returning a scaled reduced row echelon
  form; ``det_bareiss`` reads a determinant off it, for the tests that
  hold ``exact.rank`` and definiteness against minors, and the exhaustive
  monomial search solves its support constraints with it;
- ``dual_cycles`` solves I X = -Id by a Fraction Gauss-Jordan elimination;
- ``smith_normal_form`` is the package's Smith form as it was before its
  scans were cut short (the pivot scan stops at a unit, a unit pivot skips
  the divisibility scan, column operations skip zero entries), kept
  verbatim so that tests can hold ``exact.smith_normal_form`` to the same
  (U, S, V);
- H = L*/L is presented by this module's own ``smith_normal_form(I)``
  (U I V = S): the class of D is U alpha(D) mod d, and generator j lifts
  to column j of U^{-1};
- ``theta`` reads the pairing D.D' mod 1 (``mod1``) against those
  generators, and ``fractional_representative`` inverts it by walking H;
- ``cyclotomic_polynomial`` divides x^N - 1 by the Phi_d of the proper
  divisors d of N, by long division (``series.divide``);
- ``molien_ci`` evaluates Molien's sum for a complete intersection with a
  diagonal group action, summing over the group elements: each term is a
  series over Z[x]/(x^N - 1) (``_series_product``, where a root of unity
  acts by the cyclic shift ``_rot``), and a coefficient is rational iff
  ``reduce_group_ring``, its remainder mod Phi_N, is a constant
  (``IrrationalCoefficient`` otherwise);
- ``dense_zh_product`` is the earlier layout of the package's Z[H^]
  kernel, one row of |H| coefficients per degree and one permutation of
  the characters per factor, fed with this module's theta; it gives every
  character's table at t = 0 (``dense_molien_coeffs``) and every c_v^chi
  at t = infinity (``dense_cv_at_infinity``);
- ``total_ci_coeffs`` is the Hilbert series of the whole graded ring at a
  node, prod_w (1 - t^{m_vw})^{delta_w - 2} as a plain power series in t,
  with no group and no group ring; by the Koszul identity the
  characters' tables sum to it;
- ``bruteforce_eigendims`` is the brute-force oracle as it was before it
  packed monomials into ints: tuple exponent vectors listed by the
  monomial search's enumerator, each monomial's character a sum over the
  ends of theta(E*_w), dense rows, ranked by ``eliminate``.

Nothing here calls ``GroupData.c1_alpha``, ``theta_alpha``,
``theta_matrix`` or ``molien_coeffs``.  Group sizes in the tests are small,
so clarity wins over speed; per-graph results are memoised on graph
identity.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from splicegenus.errors import GraphInputError, InternalCheckError
from splicegenus.series import divide
from splicegenus.splice import _exponent_vectors, validate_witness


class NotInDualLattice(GraphInputError):
    """Cycle is not an integer combination of the dual cycles E*_w."""


class IrrationalCoefficient(InternalCheckError):
    """A Hilbert coefficient failed to reduce to a rational number."""


def mod1(x) -> Fraction:
    """Reduce an exact rational into [0, 1)."""
    x = Fraction(x)
    return Fraction(x.numerator % x.denominator, x.denominator)


class QCycle:
    """A formal rational combination of the vertices E_v.

    Missing keys mean coefficient zero.  Immutable in spirit: all operations
    return new cycles.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        self.coeffs = {}
        if coeffs:
            for k, v in dict(coeffs).items():
                v = Fraction(v)
                if v != 0:
                    self.coeffs[k] = v

    def __getitem__(self, v):
        return self.coeffs.get(v, Fraction(0))

    def __add__(self, other):
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, Fraction(0)) + v
        return QCycle(out)

    def __sub__(self, other):
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, Fraction(0)) - v
        return QCycle(out)

    def __neg__(self):
        return QCycle({k: -v for k, v in self.coeffs.items()})

    def scale(self, c):
        c = Fraction(c)
        return QCycle({k: c * v for k, v in self.coeffs.items()})

    def floor(self):
        """Coefficientwise integral part [D]."""
        return QCycle({k: Fraction(math.floor(v)) for k, v in self.coeffs.items()})

    def is_zero(self):
        return not self.coeffs

    def is_integral(self):
        return all(v.denominator == 1 for v in self.coeffs.values())

    def is_effective(self):
        return all(v >= 0 for v in self.coeffs.values())

    def support(self):
        return set(self.coeffs)

    def __eq__(self, other):
        return isinstance(other, QCycle) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __repr__(self):
        if not self.coeffs:
            return "QCycle(0)"
        parts = [f"{v}*E[{k}]" for k, v in sorted(self.coeffs.items())]
        return "QCycle(" + " + ".join(parts) + ")"

    def to_json(self):
        return {k: str(v) for k, v in sorted(self.coeffs.items())}


def unit_cycle(v):
    return QCycle({v: 1})


def as_qcycle(g, num, den=1) -> QCycle:
    """sum_w (num_w / den) E_w for an int list num in g.ids order: an
    integral cycle with den = 1, numerators over |det I| otherwise."""
    return QCycle({w: Fraction(c, den) for w, c in zip(g.ids, num)})


@dataclass(frozen=True)
class HElement:
    coords: tuple  # coords[j] in [0, d_j)


# -- the intersection form and the dual cycles --------------------------------

def intersect(g, x: QCycle, y: QCycle) -> Fraction:
    """Intersection number x . y via the intersection form."""
    if len(y.coeffs) < len(x.coeffs):
        x, y = y, x  # the form is symmetric: walk the smaller support
    total = Fraction(0)
    for v, cv in x.coeffs.items():
        total += cv * g.weight[v] * y[v]
        for u in g.adj[v]:
            total += cv * y[u]
    return total


def eliminate(rows):
    """Fraction-free Gauss-Jordan elimination of an integer matrix.

    Returns (pivots, R) with R = d * RREF: R holds the nonzero rows of the
    reduced form scaled by one integer d != 0, row k with d in column
    pivots[k] and zeros elsewhere in that column.  Every entry of R is, up
    to sign, a minor of the input, so each division by the previous pivot
    is exact.
    A row exchange negates the row moved up, so a square matrix of full
    rank has d = its determinant.  Augmented blocks ride along: [A | Id]
    with A invertible reduces to [det A * Id | adj A], and a pivot in the
    last column of [A | b] means that A x = b has no solution.
    """
    R = [list(row) for row in rows if any(row)]
    if not all(isinstance(x, int) for row in R for x in row):
        raise TypeError("eliminate takes a matrix of ints")
    pivots = []
    prev = 1
    for col in range(len(R[0]) if R else 0):
        k = len(pivots)
        if k == len(R):
            break
        piv = next((i for i in range(k, len(R)) if R[i][col]), None)
        if piv is None:
            continue
        if piv != k:
            R[k], R[piv] = [-x for x in R[piv]], R[k]
        prow = R[k]
        p = prow[col]
        for i, row in enumerate(R):
            if i != k:
                f = row[col]
                R[i] = [(p * x - f * y) // prev for x, y in zip(row, prow)]
        prev = p
        pivots.append(col)
    return pivots, R[:len(pivots)]


def det_bareiss(A):
    """Exact determinant of a square integer matrix: the d of
    ``eliminate`` (its Gauss-Jordan pass with the row exchanges signed)."""
    if not A:
        return 1
    pivots, R = eliminate(A)
    return R[0][pivots[0]] if len(pivots) == len(A) else 0


def smith_normal_form(A):
    """Smith normal form with transforms: returns (U, S, V) with U A V = S.

    U and V are unimodular integer matrices; S is diagonal with
    S[i][i] dividing S[i+1][i+1] (entries nonnegative).
    """
    n = len(A)
    m = len(A[0]) if n else 0
    S = [list(map(int, row)) for row in A]
    U = [[int(i == j) for j in range(n)] for i in range(n)]
    V = [[int(i == j) for j in range(m)] for i in range(m)]

    def row_op(i, j, q):  # row_i -= q * row_j
        S[i] = [a - q * b for a, b in zip(S[i], S[j])]
        U[i] = [a - q * b for a, b in zip(U[i], U[j])]

    def col_op(i, j, q):  # col_i -= q * col_j
        for row in S:
            row[i] -= q * row[j]
        for row in V:
            row[i] -= q * row[j]

    def swap_rows(i, j):
        S[i], S[j] = S[j], S[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for row in S:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    t = 0
    while t < min(n, m):
        # find a nonzero pivot of minimal absolute value
        best = None
        for i in range(t, n):
            for j in range(t, m):
                if S[i][j] != 0 and (best is None or abs(S[i][j]) < abs(S[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        swap_rows(t, best[0])
        swap_cols(t, best[1])
        dirty = False
        for i in range(t + 1, n):
            if S[i][t] != 0:
                q = S[i][t] // S[t][t]
                row_op(i, t, q)
                if S[i][t] != 0:
                    dirty = True
        for j in range(t + 1, m):
            if S[t][j] != 0:
                q = S[t][j] // S[t][t]
                col_op(j, t, q)
                if S[t][j] != 0:
                    dirty = True
        if dirty:
            continue
        # ensure divisibility of the remaining block by the pivot
        bad = None
        for i in range(t + 1, n):
            for j in range(t + 1, m):
                if S[i][j] % S[t][t] != 0:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            row_op(t, bad, -1)  # fold the offending row into the pivot row
            continue
        if S[t][t] < 0:
            S[t] = [-a for a in S[t]]
            U[t] = [-a for a in U[t]]
        t += 1
    return U, S, V


def _inverse(M):
    """M^{-1} for an invertible square integer matrix, over the rationals."""
    n = len(M)
    R = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(M)]
    for col in range(n):
        piv = next(i for i in range(col, n) if R[i][col])
        R[col], R[piv] = R[piv], R[col]
        p = R[col][col]
        R[col] = [x / p for x in R[col]]
        for i in range(n):
            if i != col and R[i][col]:
                f = R[i][col]
                R[i] = [x - f * y for x, y in zip(R[i], R[col])]
    return [row[n:] for row in R]


@lru_cache(maxsize=256)
def dual_cycles(g):
    """v -> E*_v, the QCycle with E*_v . E_w = -delta_vw."""
    inv = _inverse(g.intersection_matrix())
    # column v of -I^{-1}; I is symmetric, so that is row v
    return {v: QCycle({w: -x for w, x in zip(g.ids, row)})
            for v, row in zip(g.ids, inv)}


def dual_cycle(g, v) -> QCycle:
    return dual_cycles(g)[v]


def from_alpha(g, alpha) -> QCycle:
    """sum_w alpha_w E*_w (alpha in g.ids order)."""
    out = QCycle()
    for w, a in zip(g.ids, alpha):
        if a:
            out = out + dual_cycle(g, w).scale(a)
    return out


# -- H = L*/L in Smith coordinates ------------------------------------------

@lru_cache(maxsize=256)
def _presentation(g):
    """(U rows, invariant factors d, generator lifts in E*-coordinates) for
    the kept invariant factors d > 1."""
    U, S, _ = smith_normal_form(g.intersection_matrix())
    kept = [i for i in range(len(S)) if S[i][i] > 1]
    U_inv = _inverse(U)
    gens = []
    for k in kept:
        col = [row[k] for row in U_inv]
        assert all(x.denominator == 1 for x in col), "U must be unimodular"
        gens.append([int(x) for x in col])
    return [U[k] for k in kept], [S[k][k] for k in kept], gens


def invariant_factors(g):
    return _presentation(g)[1]


def reduce(g, coords) -> HElement:
    return HElement(tuple(c % d for c, d in zip(coords, invariant_factors(g))))


def elements(g):
    for tup in itertools.product(*(range(d) for d in invariant_factors(g))):
        yield HElement(tup)


def alpha_of(g, D: QCycle):
    """Coordinates of D in the E*-basis: alpha_w = -D . E_w (must be integral)."""
    alphas = []
    for w in g.ids:
        a = -intersect(g, D, unit_cycle(w))
        if a.denominator != 1:
            raise NotInDualLattice(
                f"cycle is not in L*: -D.E_{w} = {a} is not an integer")
        alphas.append(int(a))
    return alphas


def class_of(g, D: QCycle) -> HElement:
    """The class of D in H: U alpha(D) mod d."""
    alpha = alpha_of(g, D)
    return reduce(g, [sum(u * a for u, a in zip(row, alpha))
                      for row in _presentation(g)[0]])


def lift(g, h: HElement) -> QCycle:
    """A representative of h in L*, as a QCycle in the E-basis."""
    alpha = [0] * len(g.ids)
    for c, gen in zip(h.coords, _presentation(g)[2]):
        alpha = [a + c * x for a, x in zip(alpha, gen)]
    return from_alpha(g, alpha)


def _cycle(g, x) -> QCycle:
    return lift(g, x) if isinstance(x, HElement) else x


def pair(g, x, y) -> Fraction:
    """Exponent of theta(x, y) = x . y mod 1; HElements or QCycles in L*."""
    return mod1(intersect(g, _cycle(g, x), _cycle(g, y)))


def theta(g, x) -> tuple:
    """The character theta(x): h -> exp(2 pi i x.h), read on the generators."""
    ds = invariant_factors(g)
    coords = []
    for j, d in enumerate(ds):
        unit = HElement(tuple(int(i == j) for i in range(len(ds))))
        c = d * pair(g, x, unit)
        assert c.denominator == 1
        coords.append(int(c))
    return tuple(coords)


def char_value_exponent(g, chi, h: HElement) -> Fraction:
    """Exponent r in chi(h) = exp(2 pi i r), as a rational in [0,1)."""
    return mod1(sum(Fraction(c * x, d) for c, x, d in
                    zip(chi, h.coords, invariant_factors(g))))


# -- c_1(L_chi) and the branch maps -------------------------------------------

@lru_cache(maxsize=256)
def _theta_inverse(g):
    table = {theta(g, h): h for h in elements(g)}
    assert len(table) == math.prod(invariant_factors(g)), "theta is not bijective"
    return table


def fractional_representative(g, chi) -> QCycle:
    """c_1(L_chi): the L*-representative of theta^{-1}(chi) with
    E-coefficients in [0, 1), a lift minus its integral part."""
    D = lift(g, _theta_inverse(g)[chi])
    return D - D.floor()


def phi_branch(g, branch, D: QCycle) -> QCycle:
    """phi_i: rewrite D in the E*-basis, keep the branch part, reinterpret
    with the branch's own dual cycles."""
    alpha = dict(zip(g.ids, alpha_of(g, D)))
    sub = branch.subgraph
    return from_alpha(sub, [alpha[w] for w in sub.ids])


def phi_alpha(parent_gd, branch, chi):
    """phi_i(c_1(L_chi)) in the branch's E*-coordinates: the package's
    c_1 alpha restricted to the branch, in branch.subgraph.ids order."""
    alpha = dict(zip(parent_gd.graph.ids, parent_gd.c1_alpha(chi)))
    return [alpha[w] for w in branch.subgraph.ids]


def nef_shift_cycle(g, branch, chi, c1=None) -> QCycle:
    """D_{chi,i} = -[phi_i(c_1(L_chi))], with phi_i read through the
    branch's own dual cycles; c1 is c_1(L_chi) as a QCycle, found by
    walking H (``fractional_representative``) when not given."""
    if c1 is None:
        c1 = fractional_representative(g, chi)
    return -phi_branch(g, branch, c1).floor()


# -- the exhaustive monomial search -------------------------------------------

def find_admissible_monomial(g, v, branch, bound=64):
    """The monomial search validating every candidate: each solution of the
    support constraints within [0, bound] goes through validate_witness, and
    the one with the smallest (total exponent, lex) key is returned."""
    A = dict(zip(g.ids, g.dual_data().adjugate))
    ends = g.ends()
    branch_vs = set(branch.subgraph.ids)
    cols = [g.index(u) for u in g.ids if u not in branch_vs]
    pivots, reduced = eliminate(
        [[A[w][c] for w in ends] + [A[v][c]] for c in cols])
    if pivots and pivots[-1] == len(ends):
        return None
    free = [c for c in range(len(ends)) if c not in pivots]
    solved = [(p, row[p], [row[c] for c in free] + [row[-1]])
              for p, row in zip(pivots, reduced)]
    best = None
    for vals in itertools.product(range(bound + 1), repeat=len(free)):
        alpha = [0] * len(ends)
        for c, val in zip(free, vals):
            alpha[c] = val
        for p, den, coeffs in solved:
            a, rem = divmod(coeffs[-1] - sum(k * x for k, x in zip(coeffs, vals)),
                            den)
            if rem or not 0 <= a <= bound:
                break
            alpha[p] = a
        else:
            exps = {w: a for w, a in zip(ends, alpha) if a}
            wit = validate_witness(g, v, branch, exps)
            if wit is not None:
                key = (sum(alpha), tuple(alpha))
                if best is None or key < best[0]:
                    best = (key, wit)
    return best[1] if best else None


# -- Molien's sum over Q(zeta) ------------------------------------------------

@lru_cache(maxsize=256)
def cyclotomic_polynomial(N) -> tuple:
    """Phi_N: x^N - 1 divided by Phi_d for every proper divisor d of N, by
    exact long division (each remainder asserted zero)."""
    out = (-1,) + (0,) * (N - 1) + (1,)
    for d in range(1, N):
        if N % d == 0:
            out, rem = divide(out, cyclotomic_polynomial(d))
            assert not rem
    return out


def reduce_group_ring(vec, N):
    """sum_j vec[j] x^j mod Phi_N: the remainder of exact long division by
    Phi_N, a coefficient list of length at most phi(N)."""
    return list(divide(vec, cyclotomic_polynomial(N))[1])


def _rot(vec, k, N):
    """Multiply by x^k in Z[x]/(x^N - 1)."""
    k %= N
    if k == 0:
        return vec
    return vec[N - k:] + vec[:N - k]


def _series_product(factors, up_to, N):
    """Expand prod (1 - x^r t^m)^e to degree up_to over Z[x]/(x^N - 1).

    factors: iterable of (r, m, e) with m >= 1; e may be negative.
    Returns a list of length up_to+1 of length-N integer vectors.
    """
    S = [[0] * N for _ in range(up_to + 1)]
    S[0][0] = 1
    for r, m, e in factors:
        if e == 0:
            continue
        if e < 0:
            # division: repeated geometric-series recurrence
            for _ in range(-e):
                for i in range(m, up_to + 1):
                    rotated = _rot(S[i - m], r, N)
                    row = S[i]
                    S[i] = [a + b for a, b in zip(row, rotated)]
        else:
            new = [row[:] for row in S]
            for j in range(1, e + 1):
                shift = j * m
                if shift > up_to:
                    break
                c = (-1) ** j * math.comb(e, j)
                rr = (r * j) % N
                for i in range(shift, up_to + 1):
                    rotated = _rot(S[i - shift], rr, N)
                    row = new[i]
                    new[i] = [a + c * b for a, b in zip(row, rotated)]
            S = new
    return S


def molien_ci(weights, orders, action_exponents, relations, chi, up_to):
    """Molien series of a complete intersection with diagonal group action.

    weights: degrees w_j of the variables.
    orders: orders o_k of the group generators (G = prod Z/o_k).
    action_exponents: per variable, the list of exponents eps_jk in
        g_k . z_j = exp(2 pi i eps_jk) z_j (exact rationals mod 1).
    relations: list of (degree d_i, character coords c_i) with
        chi_i(g) = exp(2 pi i sum_k c_ik g_k / o_k).
    chi: target character coords.

    Returns the coefficients of t^0 .. t^up_to as Fractions, each asserted
    rational.
    """
    orders = list(orders)
    n_vars = len(weights)
    assert len(action_exponents) == n_vars
    N = 1
    for o in orders:
        N = math.lcm(N, o)
    for row in action_exponents:
        for e in row:
            N = math.lcm(N, Fraction(e).denominator)
    order = math.prod(orders)
    acc = [[0] * N for _ in range(up_to + 1)]
    for gtup in itertools.product(*(range(o) for o in orders)):
        factors = []
        for j in range(n_vars):
            r = N * mod1(sum(Fraction(e) * gk
                             for e, gk in zip(action_exponents[j], gtup)))
            assert r.denominator == 1
            factors.append((int(r) % N, weights[j], -1))
        for d_i, c_i in relations:
            r = N * mod1(sum(Fraction(c * gk, o)
                             for c, gk, o in zip(c_i, gtup, orders)))
            assert r.denominator == 1
            factors.append((int(r) % N, d_i, 1))
        S = _series_product(factors, up_to, N)
        s_val = N * mod1(-sum(Fraction(c * gk, o)
                              for c, gk, o in zip(chi, gtup, orders)))
        assert s_val.denominator == 1
        s = int(s_val) % N
        for i in range(up_to + 1):
            acc[i] = [a + b for a, b in zip(acc[i], _rot(S[i], s, N))]
    out = []
    for i, vec in enumerate(acc):
        red = reduce_group_ring(vec, N)
        if any(c != 0 for c in red[1:]):
            raise IrrationalCoefficient(f"coefficient t^{i} is irrational")
        out.append(Fraction(red[0] if red else 0, order))
    return out


# -- the dense Z[H^] kernel ----------------------------------------------------

def dense_zh_product(dims, factors, up_to):
    """Expand prod (1 - [psi] t^m)^e in Z[H^][[t]] to degree up_to.

    dims: invariant factors of the character group; characters are indexed
    in the order of ``GroupData.characters()``, the trivial one first.
    factors: (psi coords, m, e) with m >= 1; e may be negative.
    Returns one coefficient list (degrees 0..up_to) per character.
    """
    chars = list(itertools.product(*(range(d) for d in dims)))
    index = {c: k for k, c in enumerate(chars)}
    zero = [0] * len(chars)
    rows = [zero] * (up_to + 1)  # rows are replaced, never mutated
    rows[0] = [1] + zero[1:]
    for psi, m, e in factors:
        if e == 0 or m > up_to:
            continue
        # multiplying by [psi] moves the coefficient of chi - psi to chi
        perm = [index[tuple((x - y) % d for x, y, d in zip(c, psi, dims))]
                for c in chars]
        for _ in range(abs(e)):
            if e > 0:  # times (1 - [psi] t^m), top-down
                for i in range(up_to, m - 1, -1):
                    src = rows[i - m]
                    if src is not zero:
                        rows[i] = [a - src[p] for a, p in zip(rows[i], perm)]
            else:  # divided by it: the geometric series, bottom-up
                for i in range(m, up_to + 1):
                    src = rows[i - m]
                    if src is not zero:
                        rows[i] = [a + src[p] for a, p in zip(rows[i], perm)]
    return [list(col) for col in zip(*rows)]


def _dense_factors(g, v):
    """(theta(E*_w), m_vw, delta_w - 2) for the vertices w of degree != 2."""
    nw = g.node_weights(v)
    return [(theta(g, dual_cycle(g, w)), nw.m[w], g.degree(w) - 2)
            for w in g.ids if g.degree(w) != 2]


def _characters(g):
    return [h.coords for h in elements(g)]


def dense_molien_coeffs(g, v, up_to):
    """character -> dim G^chi_i for i <= up_to, from the dense kernel."""
    cols = dense_zh_product(invariant_factors(g), _dense_factors(g, v), up_to)
    return dict(zip(_characters(g), cols))


def dense_cv_at_infinity(g, v):
    """character -> c_v^chi for every character: the [chi - g] coefficient
    of prod_w (1 - [-psi_w] s^{m_vw})^{delta_w - 2}, summed over
    s^0 .. s^a(G), with g = sum_w (delta_w - 2) psi_w."""
    dims = invariant_factors(g)
    factors = _dense_factors(g, v)
    a = sum(e * m for _, m, e in factors)
    shift = [-sum(e * psi[i] for psi, _, e in factors) for i in range(len(dims))]
    inverse = [(tuple(-x % d for x, d in zip(psi, dims)), m, e)
               for psi, m, e in factors]
    chars = _characters(g)
    sums = ([sum(col) for col in dense_zh_product(dims, inverse, a)]
            if a >= 0 else [0] * len(chars))
    value = dict(zip(chars, sums))
    return {chi: value[tuple((x + y) % d for x, y, d in
                             zip(chi, shift, dims))]
            for chi in chars}


# -- the Koszul identity ------------------------------------------------------

def total_ci_coeffs(g, v, up_to):
    """prod_w (1 - t^{m_vw})^{delta_w - 2} to degree up_to, over the vertices
    of degree != 2: the Hilbert series of the full graded ring at the node
    v, all characters summed (one plain power series, no group ring)."""
    nw = g.node_weights(v)
    out = [1] + [0] * up_to
    for w in g.ids:
        e, m = g.degree(w) - 2, nw.m[w]
        for _ in range(abs(e)):
            if e > 0:  # times 1 - t^m
                out = [c - (out[i - m] if i >= m else 0)
                       for i, c in enumerate(out)]
            else:  # times 1 / (1 - t^m) = 1 + t^m + t^2m + ...
                for i in range(m, up_to + 1):
                    out[i] += out[i - m]
    return out


# -- the brute-force oracle on tuple monomials ---------------------------------

def _monomials_by_degree(weights, up_to):
    """All exponent tuples of degree d = sum a_j * weights[j] <= up_to, in
    one call with a slack exponent up_to - d of weight 1."""
    table = [[] for _ in range(up_to + 1)]
    for a in _exponent_vectors([*weights, 1], up_to):
        table[up_to - a[-1]].append(a[:-1])
    return table


def _v_leading_form(g, v, equation):
    """(minimal v-degree, the terms of that degree) of one equation."""
    m = g.node_weights(v).m
    degs = [sum(a * m[w] for w, a in exps.items()) for _, exps in equation]
    low = min(degs)
    return low, [(c, exps) for (c, exps), d in zip(equation, degs) if d == low]


def bruteforce_eigendims(g, v, system, up_to):
    """{chi: [dim G^chi_i for i = 0..up_to]}: each degree's monomials split
    into character blocks, the monomial multiples of the v-leading forms as
    dense rows, each block's dimension its size minus its rank."""
    dims = invariant_factors(g)
    ends = g.ends()
    psi = [theta(g, dual_cycle(g, w)) for w in ends]

    def char_of(exps):
        return tuple(sum(p[k] * a for p, a in zip(psi, exps)) % d
                     for k, d in enumerate(dims))

    def char_mul(a, b):
        return tuple((x + y) % d for x, y, d in zip(a, b, dims))

    gens = []
    for ns in system.nodes:
        for eq in ns.equations:
            low, terms = _v_leading_form(g, v, eq)
            vecs = [(c, tuple(exps.get(w, 0) for w in ends)) for c, exps in terms]
            chars = {char_of(e) for _, e in vecs}
            assert len(chars) == 1, "leading form is not isotypic"
            gens.append((low, chars.pop(), vecs))

    m = g.node_weights(v).m
    monos = _monomials_by_degree([m[w] for w in ends], up_to)
    char = {mu: char_of(mu) for lst in monos for mu in lst}

    out = {chi: [] for chi in _characters(g)}
    for i in range(up_to + 1):
        blocks, pos, rows = {}, {}, {}
        for mu in monos[i]:
            block = blocks.setdefault(char[mu], [])
            pos[mu] = len(block)
            block.append(mu)
        for low, gchar, vecs in gens:
            for mu in monos[i - low] if low <= i else ():
                chi = char_mul(char[mu], gchar)
                row = [0] * len(blocks[chi])
                for c, e in vecs:
                    row[pos[tuple(x + y for x, y in zip(mu, e))]] += c
                rows.setdefault(chi, []).append(row)
        for chi, tab in out.items():
            rank = len(eliminate(rows[chi])[0]) if chi in rows else 0
            tab.append(len(blocks.get(chi, ())) - rank)
    return out
