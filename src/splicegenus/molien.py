"""Eigenspace Hilbert series by Molien's formula, and the constants c_v.

For a node v with weights m_vw, the chi-eigenspace Hilbert series of the
associated graded ring is Molien's sum

    H^chi(t) = 1/|H| * sum_h chi^{-1}(h) prod_w (1 - theta(h,E*_w) t^{m_vw})^{delta_w - 2}

which is the [chi] coefficient of one product in the group ring Z[H^][[t]]
of the character group H^:

    prod_w (1 - [psi_w] t^{m_vw})^{delta_w - 2},   psi_w = theta(E*_w).

Multiplying by a group element [psi] moves the coefficient of chi to
chi + psi, so every coefficient is an integer by construction: no roots of
unity and no cyclotomic reduction.  Each degree is a dict over the
characters it reaches, keyed by their labels (positions in
GroupData.characters(), ``discgroup._places``), and a degree no term
reaches holds none, so the work is per character reached, not per element
of H.  A reader converts the one chi it is asked for: characters stay
coordinate tuples at every interface.  By the duality
chi -> g - chi (``_cv_table``), the expansion at t = infinity is the same
product at t = 0, so c_v^chi = p(1), p the polynomial part of H^chi (the
periodic-constant view of Braun-Nemethi), is the sum of the first a(G) + 1
coefficients of the [g - chi] table, with nothing built over all of H.
Route A (partial sums P^chi(m a_v) of one series, minus a quadratic term
read from the numerators of K and c_1(L_chi), exact in the integers) and
Route B (p(1) = sum(p) from the closed rational form, an int tuple over
int tuples) read chi's own table, so they check the duality, not the
kernel.  This kernel is the package's one Molien evaluator.
tests/reference.py holds what the tests check it against: the sum over
Q(zeta) of the group elements, the dense |H|-wide layout (also at
t = infinity), and the plain series prod_w (1 - t^{m_vw})^{delta_w-2}
that the tables of all the characters sum to.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from operator import itemgetter
from types import SimpleNamespace

from .cyclo import _cyclotomic_exponents, reshape
from .discgroup import _mover, group_data
from .errors import GraphInputError, InternalCheckError
from .graph import ResolutionGraph, _per_graph
from .series import RationalFunctionQ, polynomial_part


def a_invariant(g: ResolutionGraph, v) -> int:
    """a(G) = sum_w (delta_w - 2) m_vw, for a node v."""
    nw = g.node_weights(v)
    g.node(v)  # after the vertex lookup, which names an unknown id
    return sum((g.degree(w) - 2) * nw.m[w] for w in g.ids)


def truncation_m(g: ResolutionGraph, v) -> int:
    """Smallest legal m: the least positive integer with m > a(G)/a_v."""
    a = a_invariant(g, v)
    a_v = g.node_weights(v).a_v
    return max(1, a // a_v + 1)


# -- the Z[H^] series kernel ------------------------------------------------


def _zh_product(dims, factors, up_to):
    """Expand prod (1 - [psi] t^m)^e in Z[H^][[t]] to degree up_to.

    dims: invariant factors of the character group.  factors: (psi, m, e)
    with psi a coordinate tuple, m >= 1 and e possibly negative.  Returns
    one entry per degree 0..up_to: None if no term reaches the degree,
    else a dict from the label (``discgroup._places``) of each character
    reached to its coefficient; characters not reached have coefficient 0.
    The work is per character reached, never per element of H.
    """
    rows = [None] * (up_to + 1)
    rows[0] = {0: 1}
    for psi, m, e in factors:
        if e == 0 or m > up_to:
            continue
        move = _mover(dims, psi)
        moved = {}  # c -> c + psi, over the labels reached
        if e > 0:  # times (1 - [psi] t^m), top-down
            sign, degrees = -1, range(up_to, m - 1, -1)
        else:  # divided by it: the geometric series, bottom-up
            sign, degrees = 1, range(m, up_to + 1)
        for _ in range(abs(e)):
            for i in degrees:
                src = rows[i - m]
                if src is None:
                    continue
                row = rows[i]
                if row is None:
                    row = rows[i] = {}
                for c, x in src.items():
                    t = moved.get(c)
                    if t is None:
                        t = moved[c] = move(c)
                    row[t] = row.get(t, 0) + sign * x
    return rows


def _node_factors(g, v):
    """(psi_w, m_vw, delta_w - 2) for the vertices w of degree != 2, with
    psi_w = theta(E*_w), for a node v."""
    gd = group_data(g)
    nw = g.node_weights(v)
    g.node(v)
    return [(gd.dual_character(w), nw.m[w], g.degree(w) - 2)
            for w in g.ids if g.degree(w) != 2]


def _node_rows(g, v, up_to):
    """The kernel's rows at node v to at least degree up_to, cached for the
    largest degree asked for; every coefficient must be a dimension."""
    key = ("molien", v)
    try:
        rows = g._cache.get(key)
    except TypeError:  # an unhashable v: no vertex id
        g.index(v)
        raise
    if rows is None or len(rows) <= up_to:
        gd = group_data(g)
        rows = _zh_product(gd.invariant_factors, _node_factors(g, v), up_to)
        for i, row in enumerate(rows):
            if row and min(row.values()) < 0:
                c, x = min(row.items(), key=itemgetter(1))
                chi = tuple(c // s % d for s, d in
                            zip(gd._places, gd.invariant_factors))
                raise InternalCheckError(f"dim G^{chi}_{i} = {x}")
        g._cache[key] = rows
    return rows


def _check_degree(x, what="max degree"):
    if type(x) is not int or x < 0:  # bool excluded
        raise GraphInputError(f"{what} must be a nonnegative int, got {x!r}")


def _series(g, v, chi, up_to):
    """dim G^chi_i for i <= up_to, for a checked chi."""
    x = group_data(g)._label(chi)
    return [row.get(x, 0) if row else 0
            for row in _node_rows(g, v, up_to)[: up_to + 1]]


def molien_coeffs(g: ResolutionGraph, v, up_to):
    """Coefficient tables dim G^chi_i for i <= up_to, for every character.

    Returns a dict character -> list of nonnegative ints (length up_to+1).
    H^chi is the [chi] coefficient of prod_w (1 - [psi_w] t^{m_vw})^{delta_w - 2}.
    """
    _check_degree(up_to)
    rows = _node_rows(g, v, up_to)[: up_to + 1]
    # a character's label is its position in characters()
    return {chi: [row.get(x, 0) if row else 0 for row in rows]
            for x, chi in enumerate(group_data(g).characters())}


def P_chi(g, v, chi, n: int) -> int:
    """P^chi(n) = sum_{i<n} dim G^chi_i."""
    group_data(g).check_character(chi)
    if type(n) is not int:  # bool excluded, as for characters
        raise GraphInputError(f"twist degree must be an int, got {n!r}")
    g.index(v)  # an unknown id is named as a vertex, then a leaf is refused
    g.node(v)
    return sum(_series(g, v, chi, n - 1)) if n > 0 else 0


# -- closed forms ----------------------------------------------------------


def _closed_degrees(g, v):
    """(k_w for the ends w, deg A) for the closed form at v: k_w = n_w m_vw
    with n_w the order of psi_w, and deg A = sum k_w + max(a(G), 0) bounds
    the numerator over prod (1 - t^{k_w})."""
    gd = group_data(g)
    nw = g.node_weights(v)
    ks = [math.lcm(*(d // math.gcd(d, c) for c, d in
                     zip(gd.dual_character(w), gd.invariant_factors)))
          * nw.m[w] for w in g.require_valid().ends]
    return ks, sum(ks) + max(a_invariant(g, v), 0)


def molien_closed(g: ResolutionGraph, v, chi) -> RationalFunctionQ:
    """Exact closed form of H^chi(t) = num/den in Z[t], reduced, den(0) = 1.

    G^chi is a finitely generated module over the invariant polynomial
    subring generated by z_w^{n_w} (n_w = order of [E*_w] in H, which is
    the order of psi_w = theta(E*_w)), so A = H^chi * prod_ends (1 - t^{k_w})
    is a polynomial of degree at most deg A (``_closed_degrees``); it is
    read off the coefficient table.  The denominator stays a map e -> n_e
    of exponents of 1 - t^e.  1 - t^k is the product of the P_d over d | k
    (``cyclo``), and P_d is cancelled as often as it divides A (at most
    once per k_w it divides), each time subtracting mu(d/e) from n_e.  A is
    divided once by all the cancelled factors, and the denominator is built
    once at the end; every factor has constant term 1, so den(0) = 1.
    """
    group_data(g).check_character(chi)
    ks, deg_a = _closed_degrees(g, v)
    bound = deg_a + 1  # one spare coefficient to catch truncation bugs
    coeffs = _series(g, v, chi, bound)
    den_exps = Counter(ks)
    A = reshape(coeffs, den_exps)
    if any(A[deg_a + 1:bound + 1]):
        raise InternalCheckError(
            f"H^{chi} * denominator is not a polynomial "
            f"of the predicted degree at t^{deg_a + 1}")
    del A[deg_a + 1:]
    cancel = Counter()
    derivatives = [A]  # A, A', A'', ... as far as needed
    divisors = sorted({d for k in ks for d in range(1, k + 1) if k % d == 0})
    for d in divisors if A else ():
        p_d = _cyclotomic_exponents(d)
        inverse = {e: -n for e, n in p_d.items()}
        for i in range(sum(k % d == 0 for k in ks)):
            # P_d^(i+1) divides A iff P_d divides A, A', ..., A^(i), and P_d
            # divides B iff it divides B mod (t^d - 1)
            if i == len(derivatives):
                B = derivatives[-1]
                derivatives.append([j * c for j, c in enumerate(B)][1:])
            B = derivatives[i]
            if reshape([sum(B[j::d]) for j in range(d)], inverse) is None:
                break
            cancel.subtract(p_d)
    A = reshape(A, cancel)
    den_exps.update(cancel)
    return RationalFunctionQ(A, reshape([1], den_exps))


# -- the constants c_v^chi -------------------------------------------------


@_per_graph("cv")
def _cv_table(g, v):
    """(digits, sums) with c_v^chi = sums[label of g - chi] (0 if absent),
    for c_v^chi = p(1), p the polynomial part of H^chi; digits lists
    (g_j, d_j, s_j), s_j the place values (``discgroup._places``), so that
    label is sum_j ((g_j - chi_j) mod d_j) s_j.

    With s = 1/t, H^chi is the [chi] coefficient of
    t^a(G) [g] prod_w (1 - [-psi_w] s^{m_vw})^{delta_w - 2}, where
    g = sum_w (delta_w - 2) psi_w (the sign is +1 because
    sum_w (delta_w - 2) = -2 on a tree), so p(1) sums the s^0 .. s^a(G)
    terms of its [chi - g] coefficient.  Negating the characters maps that
    product onto the t = 0 one, so c_v^chi = P^{g - chi}(a(G) + 1): sums
    holds those partial sums by the kernel's labels, and nothing is
    relabelled.
    """
    gd = group_data(g)
    dims = gd.invariant_factors
    a = a_invariant(g, v)
    factors = _node_factors(g, v)
    digits = [(sum(e * psi[i] for psi, _, e in factors), d, s)  # g
              for i, (d, s) in enumerate(zip(dims, gd._places))]
    sums = {}
    for row in _zh_product(dims, factors, a) if a >= 0 else ():
        for c, x in row.items() if row else ():
            sums[c] = sums.get(c, 0) + x
    return digits, sums


def _route_a_degree(g, v):
    """The largest degree the three Route A values read: (m + 2) a_v - 1."""
    return (truncation_m(g, v) + 2) * g.node_weights(v).a_v - 1


def c_v_route_a(g, v, chi) -> int:
    """Route A: c_v^chi = P^chi(m a_v) - (m^2 a_v - m e_v (K+2L_chi).E*_v)/2,
    asserted stable under m -> m+1, m+2 above the threshold.

    (K + 2 c_1(L_chi)).E*_v = -N_v / |det I|, where N_v is K's numerator
    at v (row v of the adjugate against E_w^2 + 2) plus twice that of
    c_1(L_chi), so the quadratic term (m^2 a_v |det I| + m e_v N_v) /
    (2 |det I|) is an exact division in the integers.
    """
    gd = group_data(g)
    gd.check_character(chi)
    nw, k, det = g.node_weights(v), g.index(v), gd.dual.det_abs
    n_v = (sum(a * (g.weight[w] + 2) for a, w in zip(gd.dual.adjugate[k], g.ids))
           + 2 * gd._c1_numerators(chi)[k])
    partial = [0, *itertools.accumulate(_series(g, v, chi, _route_a_degree(g, v)))]
    m = truncation_m(g, v)
    values = []
    for mm in (m, m + 1, m + 2):
        top = mm * mm * nw.a_v * det + mm * nw.e * n_v
        quad, rem = divmod(top, 2 * det)
        if rem:
            raise InternalCheckError(
                f"Route A's quadratic term {top}/{2 * det} is not an integer "
                f"(node {v}, chi {chi}, m={mm})")
        values.append(partial[mm * nw.a_v] - quad)
        if values[-1] != values[0]:
            raise InternalCheckError(
                f"c_v^chi changed from {values[0]} to {values[-1]} at m={mm} "
                f"(node {v}, chi {chi})")
    return values[0]


def c_v_chi(g: ResolutionGraph, v, chi) -> int:
    """c_v^chi = p(1), p the polynomial part of H^chi (``_cv_table``)."""
    group_data(g).check_character(chi)
    digits, sums = _cv_table(g, v)
    x = 0  # the label of g - chi
    for (y, d, s), c in zip(digits, chi):
        x += (y - c) % d * s
    return sums.get(x, 0)


def c_v_chi_routes(g, v, chi):
    """Both routes: (Route A, Route B = p(1) from the closed form).

    A mismatch for the trivial character is an error; for nontrivial
    characters the caller decides how to report a discrepancy.
    """
    # build the table once, to the largest degree either route reads
    _node_rows(g, v, max(_route_a_degree(g, v), _closed_degrees(g, v)[1] + 1))
    route_a = c_v_route_a(g, v, chi)
    p, _ = polynomial_part(molien_closed(g, v, chi))
    route_b = sum(p)
    if not any(chi) and route_a != route_b:
        raise InternalCheckError(
            f"c_v at node {v}: Route A {route_a} != Route B {route_b}")
    return route_a, route_b


# -- bundled per-node data -------------------------------------------------


class HilbertData(SimpleNamespace):
    node: str
    a_invariant: int
    coefficients: dict      # character tuple -> list[int]
    closed_forms: dict      # character tuple -> RationalFunctionQ (may be empty)


def hilbert_data(g, v, up_to, closed_for=()) -> HilbertData:
    _check_degree(up_to)
    if closed_for:  # build the table once, to the largest degree read
        _node_rows(g, v, max(up_to, _closed_degrees(g, v)[1] + 1))
    closed = {chi: molien_closed(g, v, chi) for chi in closed_for}
    return HilbertData(node=v, a_invariant=a_invariant(g, v),
                       coefficients=molien_coeffs(g, v, up_to),
                       closed_forms=closed)
