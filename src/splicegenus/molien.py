"""Eigenspace Hilbert series by Molien's formula, and the constants c_v.

For a node v with weights m_vw, the chi-eigenspace Hilbert series of the
associated graded ring is Molien's sum

    H^chi(t) = 1/|H| * sum_h chi^{-1}(h) prod_w (1 - theta(h,E*_w) t^{m_vw})^{delta_w - 2}

which is the [chi] coefficient of one product in the group ring Z[H^][[t]]
of the character group H^:

    prod_w (1 - [psi_w] t^{m_vw})^{delta_w - 2},   psi_w = theta(E*_w).

Multiplying by a group element [psi] permutes the character indices, so
every coefficient is an integer by construction: no roots of unity, no
cyclotomic reduction, and O(|H| * degree * #factors) work for all
characters at once.  The same kernel expanded at t = infinity gives the
polynomial part of H^chi from its first a(G) + 1 coefficients, hence
c_v^chi = p(1) (the periodic-constant view of Braun-Nemethi).  Route A
(partial sums P^chi(m a_v) minus a quadratic term) and Route B (p(1) from
the closed rational form) stay as independent checks.  This kernel is the
package's one Molien evaluator; the generic sum over Q(zeta), which sums
over the group elements and reduces mod Phi_N, is kept in
tests/reference.py as the reference the tests hold it against.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .cyclo import cyclotomic_polynomial, cyclotomic_quotient
from .discgroup import Character, GroupData, group_data
from .errors import (
    InternalCheckError,
    MismatchedRoutes,
    NegativeDimension,
    UnstableInM,
)
from .graph import ResolutionGraph
from .series import PolyQ, RationalFunctionQ, mul, polynomial_part


def a_invariant(g: ResolutionGraph, v) -> int:
    """a(G) = sum_w (delta_w - 2) m_vw."""
    nw = g.node_weights(v)
    return sum((g.degree(w) - 2) * nw.m[w] for w in g.ids)


def truncation_m(g: ResolutionGraph, v) -> int:
    """Smallest legal m: the least positive integer with m > a(G)/a_v."""
    a = a_invariant(g, v)
    a_v = g.node_weights(v).a_v
    m = max(1, a // a_v + 1)
    assert m * a_v > a
    return m


# -- the Z[H^] series kernel ------------------------------------------------


def _zh_product(dims, factors, up_to):
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


def _node_factors(g, v):
    """(psi_w, m_vw, delta_w - 2) for the vertices w of degree != 2, with
    psi_w = theta(E*_w)."""
    gd = group_data(g)
    nw = g.node_weights(v)
    return [(gd.dual_character(w).coords, nw.m[w], g.degree(w) - 2)
            for w in g.ids if g.degree(w) != 2]


def molien_coeffs(g: ResolutionGraph, v, up_to, chars=None):
    """Coefficient tables dim G^chi_i for i <= up_to.

    Returns a dict Character -> list of nonnegative ints (length up_to+1),
    for every character or only those in ``chars``.  H^chi is the [chi]
    coefficient of prod_w (1 - [psi_w] t^{m_vw})^{delta_w - 2}; the whole
    table is computed at once and kept for the largest degree asked for.
    """
    gd = group_data(g)
    key = ("molien", v)
    tables = g._cache.get(key)
    if tables is None or len(tables[gd.trivial_character]) <= up_to:
        cols = _zh_product(gd.invariant_factors, _node_factors(g, v), up_to)
        tables = dict(zip(gd.characters(), cols))
        for chi, tab in tables.items():
            if min(tab) < 0:
                i = next(i for i, c in enumerate(tab) if c < 0)
                raise NegativeDimension(f"dim G^{chi.coords}_{i} = {tab[i]}")
        g._cache[key] = tables
    wanted = gd.characters() if chars is None else chars
    return {c: tables[c][: up_to + 1] for c in wanted}


def P_chi(g, v, chi: Character, n: int) -> int:
    """P^chi(n) = sum_{i<n} dim G^chi_i."""
    if n <= 0:
        return 0
    return sum(molien_coeffs(g, v, n - 1, chars=[chi])[chi])


def total_ci_coeffs(g, v, up_to):
    """Coefficients of prod_nodes (1-t^m)^{delta-2} / prod_ends (1-t^m).

    This is the Hilbert series of the full graded ring (all characters
    summed); the Koszul identity equates it with sum_chi dim G^chi_i.
    """
    nw = g.node_weights(v)
    factors = [((), nw.m[w], g.degree(w) - 2)
               for w in g.ids if g.degree(w) != 2]
    return _zh_product((), factors, up_to)[0]


# -- closed forms ----------------------------------------------------------


def _class_order(gd: GroupData, coords) -> int:
    out = 1
    for c, d in zip(coords, gd.invariant_factors):
        out = math.lcm(out, d // math.gcd(d, c))
    return out


def molien_closed(g: ResolutionGraph, v, chi: Character) -> RationalFunctionQ:
    """Exact closed form of H^chi(t), numerator and denominator in Z[t].

    G^chi is a finitely generated module over the invariant polynomial
    subring generated by z_w^{n_w} (n_w = order of [E*_w] in H, which is
    the order of psi_w = theta(E*_w)), so
    H^chi * prod_ends (1 - t^{n_w m_vw}) is a polynomial of degree at most
    deg(denominator) + a(G); it is recovered from the coefficient table and
    reduced by cancelling cyclotomic factors of the denominator.
    """
    gd = group_data(g)
    nw = g.node_weights(v)
    ks = []
    for w in g.ends():
        n_w = _class_order(gd, gd.dual_character(w).coords)
        ks.append(n_w * nw.m[w])
    deg_b = sum(ks)
    a = a_invariant(g, v)
    deg_a = deg_b + max(a, 0)
    bound = deg_a + 1  # one spare coefficient to catch truncation bugs
    coeffs = molien_coeffs(g, v, bound, chars=[chi])[chi]
    B = [1]
    for k in ks:
        B = mul(B, [1] + [0] * (k - 1) + [-1])
    # A = (series) * B, truncated; must be a polynomial of degree <= deg_a
    A = mul(B, coeffs, bound)
    if any(A[deg_a + 1:]):
        raise InternalCheckError(
            f"H^{chi.coords} * denominator is not a polynomial "
            f"of the predicted degree at t^{deg_a + 1}")
    A = A[: deg_a + 1]
    # cancel cyclotomic factors: 1 - t^k = -prod_{d | k} Phi_d
    mult = {}
    for k in ks:
        for d in range(1, k + 1):
            if k % d == 0:
                mult[d] = mult.get(d, 0) + 1
    sign = (-1) ** len(ks)
    if any(A):
        for d in sorted(mult):
            while mult[d] > 0:
                # Phi_d divides A iff it divides A mod (t^d - 1)
                folded = [sum(A[j::d]) for j in range(d)]
                if cyclotomic_quotient(folded, d) is None:
                    break
                A = cyclotomic_quotient(A, d)
                mult[d] -= 1
    den = [1]
    for d, e in sorted(mult.items()):
        phi_d = cyclotomic_polynomial(d)
        for _ in range(e):
            den = mul(den, phi_d)
    # the closed form expands back to the table: den * series = sign * A
    expect = [sign * c for c in A[: bound + 1]]
    expect += [0] * (bound + 1 - len(expect))
    assert mul(den, coeffs, bound) == expect
    return RationalFunctionQ(PolyQ(expect), PolyQ(den))


# -- the constants c_v^chi -------------------------------------------------


def _cv_at_infinity(g, v):
    """c_v^chi for every character, read off the expansion at t = infinity.

    With s = 1/t, H^chi is the [chi] coefficient of
    t^a(G) [g] prod_w (1 - [-psi_w] s^{m_vw})^{delta_w - 2}, where
    g = sum_w (delta_w - 2) psi_w (the sign is +1 because
    sum_w (delta_w - 2) = -2 on a tree).  The polynomial part p of H^chi
    is t^a(G) times the s^0 .. s^a(G) part of the [chi - g] coefficient, so
    c_v^chi = p(1) is the sum of those a(G) + 1 coefficients.
    """
    key = ("cv", v)
    if key not in g._cache:
        gd = group_data(g)
        dims = gd.invariant_factors
        a = a_invariant(g, v)
        factors = _node_factors(g, v)
        shift = Character(tuple(
            -sum(e * psi[i] for psi, _, e in factors) % d
            for i, d in enumerate(dims)))
        inverse = [(tuple(-x % d for x, d in zip(psi, dims)), m, e)
                   for psi, m, e in factors]
        sums = ([sum(col) for col in _zh_product(dims, inverse, a)]
                if a >= 0 else [0] * gd.order)
        value = dict(zip(gd.characters(), sums))
        g._cache[key] = {chi: value[gd.char_mul(chi, shift)]
                         for chi in gd.characters()}
    return g._cache[key]


def _route_a_value(g, v, chi, m):
    gd = group_data(g)
    nw = g.node_weights(v)
    # (K + 2 c_1(L_chi)) . E*_v = -(coefficient at v), and A alpha is
    # |det I| times the coefficients; K has alpha_w = E_w^2 + 2
    alpha = [g.weight[w] + 2 + 2 * a for w, a in zip(g.ids, gd.c1_alpha(chi))]
    pairing = Fraction(-gd.dual.numerators(alpha)[g.index(v)], gd.dual.det_abs)
    quad = Fraction(m * m * nw.a_v - m * nw.e * pairing, 2)
    return P_chi(g, v, chi, m * nw.a_v) - quad


def c_v_route_a(g, v, chi: Character) -> Fraction:
    """Route A: c_v^chi = P^chi(m a_v) - (m^2 a_v - m e_v (K+2L_chi).E*_v)/2,
    asserted stable under m -> m+1, m+2 above the threshold."""
    m = truncation_m(g, v)
    # build the table once, to the largest degree the three values use
    molien_coeffs(g, v, (m + 2) * g.node_weights(v).a_v - 1, chars=())
    value = _route_a_value(g, v, chi, m)
    for mm in (m + 1, m + 2):
        other = _route_a_value(g, v, chi, mm)
        if other != value:
            raise UnstableInM(
                f"c_v^chi changed from {value} to {other} at m={mm} "
                f"(node {v}, chi {chi.coords})")
    return value


def c_v_chi(g: ResolutionGraph, v, chi: Character) -> int:
    """c_v^chi = p(1), p the polynomial part of H^chi, read at t = infinity."""
    return _cv_at_infinity(g, v)[chi]


def c_v_chi_routes(g, v, chi: Character):
    """Both routes: (Route A, Route B = p(1) from the closed form).

    A mismatch for the trivial character is an error; for nontrivial
    characters the caller decides how to report a discrepancy.
    """
    route_a = c_v_route_a(g, v, chi)
    p, _ = polynomial_part(molien_closed(g, v, chi))
    route_b = p(1)
    trivial = all(c == 0 for c in chi.coords)
    if trivial and route_a != route_b:
        raise MismatchedRoutes(
            f"c_v at node {v}: Route A {route_a} != Route B {route_b}")
    return route_a, route_b


# -- bundled per-node data -------------------------------------------------


@dataclass
class HilbertData:
    node: str
    a_invariant: int
    coefficients: dict      # Character -> list[int]
    closed_forms: dict      # Character -> RationalFunctionQ (may be empty)


def hilbert_data(g, v, up_to, closed_for=()) -> HilbertData:
    coeffs = molien_coeffs(g, v, up_to)
    total = total_ci_coeffs(g, v, up_to)
    for i in range(up_to + 1):
        s = sum(tab[i] for tab in coeffs.values())
        if s != total[i]:
            raise InternalCheckError(
                f"Koszul identity fails at degree {i}: {s} != {total[i]}")
    closed = {chi: molien_closed(g, v, chi) for chi in closed_for}
    return HilbertData(node=v, a_invariant=a_invariant(g, v),
                       coefficients=coeffs, closed_forms=closed)
