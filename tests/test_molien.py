import functools
import math
import random
from fractions import Fraction

import pytest

import reference as ref
import splicegenus.molien as molien
from fixtures import (
    HUGE_H_TREES,
    caterpillar,
    d4,
    e8,
    exmc,
    fig1,
    graph_file,
    small_stars,
    splice_quotient_trees,
    star,
)
from reference import HElement, molien_ci, total_ci_coeffs
from splicegenus import GroupData, parse_graph, pg
from splicegenus.errors import InternalCheckError
from splicegenus.graph import DualData
from splicegenus.molien import (
    P_chi,
    _cv_table,
    _series,
    a_invariant,
    c_v_chi,
    c_v_chi_routes,
    c_v_route_a,
    group_data,
    hilbert_data,
    molien_closed,
    molien_coeffs,
    truncation_m,
)
from splicegenus.series import RationalFunctionQ, divide, mul, polynomial_part


def _P(terms):
    """sum c t^e over the (e, c) in terms."""
    cs = [0] * (max(e for e, _ in terms) + 1)
    for e, c in terms:
        cs[e] += c
    return tuple(cs)


def _rf(num_terms, den_terms):
    return RationalFunctionQ(_P(num_terms), _P(den_terms))


def _branch_graphs():
    g = fig1()
    br = {b.attach: b for b in g.branches("v0")}
    return g, br["u4"].subgraph, br["u6"].subgraph


# -- a-invariant and truncation --------------------------------------------

def test_a_invariant_values():
    g = fig1()
    assert a_invariant(g, "v0") == 9
    assert a_invariant(g, "v1") == 29
    assert a_invariant(g, "v2") == 16
    assert a_invariant(d4(), "c") == -1


def test_a_invariant_is_weighted_sum_over_non_chain_vertices():
    g = exmc()
    for v in ("E5", "E6"):
        nw = g.node_weights(v)
        expect = sum((g.degree(w) - 2) * nw.m[w]
                     for w in g.ids if g.degree(w) != 2)
        assert a_invariant(g, v) == expect


def test_truncation_m_values():
    g = fig1()
    assert truncation_m(g, "v0") == 1
    assert truncation_m(g, "v1") == 1
    assert truncation_m(g, "v2") == 1
    assert truncation_m(d4(), "c") == 1


# -- coefficient tables ----------------------------------------------------

def test_trivial_group_single_table_matches_total():
    g = e8()
    gd = group_data(g)
    assert gd.order == 1
    tab = molien_coeffs(g, "e3", 10)[gd.trivial_character]
    assert tab == total_ci_coeffs(g, "e3", 10)


def test_fig1_invariant_coefficients_to_degree_12():
    g = fig1()
    tab = molien_coeffs(g, "v0", 12)[group_data(g).trivial_character]
    assert tab == [1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 4]


def test_coefficients_nonnegative_and_start_with_delta():
    # degree 0 holds only the constants, in the invariant part
    for g, v in ((exmc(), "E5"), (exmc(), "E6"), (d4(), "c")):
        gd = group_data(g)
        tabs = molien_coeffs(g, v, 8)
        for chi, tab in tabs.items():
            assert all(c >= 0 for c in tab)
            assert tab[0] == (1 if chi == gd.trivial_character else 0)


def test_koszul_identity_to_degree_15():
    for g, v in ((fig1(), "v0"), (exmc(), "E5"), (exmc(), "E6")):
        tabs = molien_coeffs(g, v, 15)
        total = total_ci_coeffs(g, v, 15)
        for i in range(16):
            assert sum(t[i] for t in tabs.values()) == total[i]


def test_P_chi_partial_sums():
    g = exmc()
    gd = group_data(g)
    tab = molien_coeffs(g, "E5", 9)[gd.trivial_character]
    for n in range(11):
        assert P_chi(g, "E5", gd.trivial_character, n) == sum(tab[:n])
    assert P_chi(g, "E5", gd.trivial_character, 0) == 0


# -- closed forms ----------------------------------------------------------

def test_closed_form_at_central_node():
    g = fig1()
    f = molien_closed(g, "v0", group_data(g).trivial_character)
    expect = _rf(
        [(24, 1), (21, -1), (18, 1), (15, -1), (12, 3),
         (9, -1), (6, 1), (3, -1), (0, 1)],
        [(15, 1), (12, -1), (3, -1), (0, 1)])
    assert f == expect
    # the form the README's library example prints
    assert repr(f) == ("(t^24 - t^21 + t^18 - t^15 + 3*t^12 - t^9 + t^6 - t^3 "
                       "+ 1) / (t^15 - t^12 - t^3 + 1)")


def test_closed_forms_on_the_two_branches():
    _, g1, g2 = _branch_graphs()
    f1 = molien_closed(g1, "v1", group_data(g1).trivial_character)
    assert f1 == _rf(
        [(36, 1), (33, -1), (24, 1), (18, -1), (12, 1), (3, -1), (0, 1)],
        [(19, 1), (16, -1), (3, -1), (0, 1)])
    f2 = molien_closed(g2, "v2", group_data(g2).trivial_character)
    assert f2 == _rf([(24, 1), (0, 1)],
                     [(20, 1), (14, -1), (6, -1), (0, 1)])


def _expands_to(f, tab):
    """den * tab = num up to the length of tab, so tab is the start of the
    series of f (den(0) = 1)."""
    n = len(tab)
    return mul(f.den, tab, n - 1) == list(f.num[:n]) + [0] * (n - len(f.num))


def test_closed_form_series_matches_table():
    g = exmc()
    gd = group_data(g)
    for chi in gd.characters():
        f = molien_closed(g, "E6", chi)
        tab = molien_coeffs(g, "E6", 20)[chi]
        assert _expands_to(f, tab)


def test_polynomial_parts_of_closed_forms():
    g, g1, g2 = _branch_graphs()
    p0, _ = polynomial_part(molien_closed(g, "v0",
                                          group_data(g).trivial_character))
    assert p0 == _P([(9, 1), (3, 1)])
    p1, _ = polynomial_part(molien_closed(g1, "v1",
                                          group_data(g1).trivial_character))
    assert p1 == _P([(17, 1), (5, 1), (2, 1), (1, 1)])
    p2, _ = polynomial_part(molien_closed(g2, "v2",
                                          group_data(g2).trivial_character))
    assert p2 == _P([(4, 1)])


def _assert_integer_closed_form(g, v, chi):
    f = molien_closed(g, v, chi)
    p, rest = polynomial_part(f)
    for poly in (f.num, f.den, p, rest.num):
        assert all(type(c) is int for c in poly), (v, chi, poly)
    assert f.den[0] == 1


def test_closed_forms_and_polynomial_parts_are_integral():
    for g in (d4(), e8(), exmc()):
        for v in g.nodes():
            for chi in group_data(g).characters():
                _assert_integer_closed_form(g, v, chi)
    g = fig1()
    graphs = [g] + [br.subgraph for v in g.nodes() for br in g.branches(v)
                    if br.subgraph.nodes()]
    for h in graphs:
        for v in h.nodes():
            _assert_integer_closed_form(h, v, group_data(h).trivial_character)


# -- the constants c_v -----------------------------------------------------

def test_c_values_sum_to_genus_7():
    g, g1, g2 = _branch_graphs()
    c0 = c_v_chi(g, "v0", group_data(g).trivial_character)
    c1 = c_v_chi(g1, "v1", group_data(g1).trivial_character)
    c2 = c_v_chi(g2, "v2", group_data(g2).trivial_character)
    assert (c0, c1, c2) == (2, 4, 1)
    assert c0 + c1 + c2 == 7


def test_routes_agree_on_every_character():
    for g, v in ((exmc(), "E5"), (exmc(), "E6"), (d4(), "c")):
        for chi in group_data(g).characters():
            a, b = c_v_chi_routes(g, v, chi)
            assert a == b
            assert a >= 0 and type(a) is int


def _recursion_graphs(g, seen=None):
    """g and every non-chain branch subgraph the h1 recursion can reach."""
    seen = {} if seen is None else seen
    if g.nodes() and g.fingerprint() not in seen:
        seen[g.fingerprint()] = g
        for v in g.nodes():
            for br in g.branches(v):
                _recursion_graphs(br.subgraph, seen)
    return list(seen.values())


def _route_a_at(g, v, chi, m):
    """Route A at a given m, in Fractions from the reference c_1(L_chi):
    P^chi(m a_v) - (m^2 a_v + m e_v (K + 2 c_1(L_chi))_v) / 2, as
    D.E*_v = -D_v."""
    nw, k = g.node_weights(v), g.index(v)
    K_v = Fraction(g.canonical_cycle()[0][k], g.dual_data().det_abs)
    c1_v = ref.fractional_representative(g, chi)[v]
    quad = Fraction(m * m * nw.a_v + m * nw.e * (K_v + 2 * c1_v), 2)
    assert quad.denominator == 1
    return P_chi(g, v, chi, m * nw.a_v) - int(quad)


def _assert_cv_consistent(g, v, chi):
    """t = infinity equals Route A, which is stable at m + 1 and m + 2, is
    a nonnegative integer, and for the trivial character equals Route B."""
    value = c_v_chi(g, v, chi)
    assert c_v_route_a(g, v, chi) == value
    m = truncation_m(g, v)
    assert _route_a_at(g, v, chi, m + 1) == _route_a_at(g, v, chi, m + 2) == value
    assert type(value) is int and value >= 0
    if chi == group_data(g).trivial_character:
        assert c_v_chi_routes(g, v, chi)[1] == value


def test_cv_at_infinity_every_character_small_graphs():
    stars = random.Random(2).sample(small_stars(), 6)
    graphs = [d4(), e8(), exmc()] + [star(b, legs) for b, legs in stars]
    for g in graphs:
        for v in g.nodes():
            for chi in group_data(g).characters():
                _assert_cv_consistent(g, v, chi)


def test_cv_at_infinity_sampled_characters_fig1_subgraphs():
    rng = random.Random(3)
    graphs = _recursion_graphs(fig1())
    assert len(graphs) == 6
    for g in graphs:
        gd = group_data(g)
        others = [c for c in gd.characters() if c != gd.trivial_character]
        for v in sorted(g.nodes()):
            for chi in [gd.trivial_character] + rng.sample(others, 2):
                _assert_cv_consistent(g, v, chi)


def test_route_a_is_an_int_equal_to_c_v_chi():
    # Route A divides its quadratic term exactly in the integers; every
    # node and character of the fixtures, fig1's recursion graphs (|H| up
    # to 258) and the 96 small stars
    graphs = [d4(), e8(), exmc(), *_recursion_graphs(fig1()),
              *(star(b, legs) for b, legs in small_stars())]
    checked = 0
    for g in graphs:
        for v in g.nodes():
            for chi in group_data(g).characters():
                value = c_v_route_a(g, v, chi)
                assert type(value) is int and value == c_v_chi(g, v, chi)
                checked += 1
    assert checked > 1000


def test_route_a_raises_on_a_non_exact_quadratic_term(monkeypatch, capsys):
    import splicegenus.molien as M
    from splicegenus.cli import run

    # one more than the true numerator, so 2 |det I| cannot divide it
    monkeypatch.setattr(M, "divmod", lambda a, b: divmod(a + 1, b),
                        raising=False)
    g = exmc()
    with pytest.raises(InternalCheckError, match="not an integer"):
        c_v_route_a(g, "E5", group_data(g).trivial_character)
    assert run(["cv", "--input", graph_file("exmc.json")]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("internal check failed: Route A's")


def test_route_a_raises_when_unstable_in_m(monkeypatch, capsys):
    import splicegenus.molien as M
    from splicegenus.cli import run

    # below the threshold the partial sum at m = 0 is empty, so Route A
    # there (0) differs from Route B, c_v^chi = 2, for the trivial character
    g = fig1()
    chi = group_data(g).trivial_character
    assert c_v_chi(g, "v0", chi) == 2
    monkeypatch.setattr(M, "truncation_m", lambda g_, v_: 0)
    with pytest.raises(InternalCheckError, match="Route A 0 != Route B 2"):
        c_v_chi_routes(g, "v0", chi)
    assert run(["cv", "--input", graph_file("fig1.json"), "--node", "v0"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == (
        "internal check failed: c_v at node v0: Route A 0 != Route B 2\n")


def test_route_a_needs_no_adjugate_products(monkeypatch):
    # N_v is K's numerator at v plus 2 r_v from c_1's numerators, so Route
    # A never multiplies E*-coordinates by the adjugate
    def no_products(*args, **kwargs):
        raise AssertionError("DualData.numerators called")

    monkeypatch.setattr(DualData, "numerators", no_products)
    for g in (d4(), e8(), exmc(), fig1()):
        for v in sorted(g.nodes()):
            for chi in group_data(g).characters():
                assert c_v_route_a(g, v, chi) == c_v_chi(g, v, chi), (v, chi)


def _cyclotomic_part(p, d):
    """p mod (t^d - 1), which Phi_d divides iff it divides p; p itself when
    it is no longer than d."""
    if len(p) <= d:
        return p
    return [sum(p[j::d]) for j in range(d)]


def _phi_divides(d, p):
    phi = ref.cyclotomic_polynomial(d)
    return not divide(_cyclotomic_part(p, d), phi)[1]


def _assert_reduced(g, v, ks, chi, tab):
    """den(0) = 1, the form expands to the start tab of its series, den
    divides prod (1 - t^k), and no Phi_d divides both num and den, by long
    division by the reference Phi_d."""
    f = molien_closed(g, v, chi)
    assert f.den[0] == 1 and f.num
    assert _expands_to(f, tab), chi
    rest = f.den  # divided by each Phi_d while it divides
    for d in sorted({d for k in ks for d in range(1, k + 1) if k % d == 0}):
        phi = ref.cyclotomic_polynomial(d)
        times = 0
        while len(phi) <= len(rest) and _phi_divides(d, rest):
            rest, rem = divide(rest, phi)
            assert not rem
            times += 1
        assert times <= sum(k % d == 0 for k in ks), (d, chi)
        if times:
            assert not _phi_divides(d, f.num), (d, chi)
    assert rest in ((1,), (-1,)), chi


def _prime_factors(n):
    """The distinct primes dividing n, by trial division."""
    out, q = [], 2
    while q * q <= n:
        if n % q == 0:
            out.append(q)
            while n % q == 0:
                n //= q
        q += 1
    return out + [n] * (n > 1)


@functools.lru_cache(maxsize=1024)
def _roots_of_unity(d, count=3):
    """(p, z) for the first ``count`` odd primes p = 1 (mod d), with z a
    primitive d-th root of unity mod p."""
    qs, out, p = _prime_factors(d), [], 1
    while len(out) < count:
        p += d
        if p > 2 and _prime_factors(p) == [p]:
            out.append((p, next(z for z in (pow(x, (p - 1) // d, p)
                                             for x in range(2, p))
                                if all(pow(z, d // q, p) != 1 for q in qs))))
    return out


def _root_multiplicity(f, d, p, z):
    """How often t - z divides f mod p, for z of order d: f(z) is read off
    f mod (t^d - 1), and each zero divides f by t - z (synthetic division)."""
    times = 0
    while f:
        value = 0
        for c in reversed(_cyclotomic_part(f, d)):
            value = (value * z + c) % p
        if value:
            return times
        q, r = [], 0
        for c in reversed(f):  # Horner: quotient high to low, then f(z) = 0
            r = (r * z + c) % p
            q.append(r)
        f, times = q[-2::-1], times + 1
    return times  # f = 0 mod p: no bound from this prime


def _cyclotomic_bound(f, d):
    """An upper bound on the multiplicity of Phi_d in f: Phi_d^j | f makes
    (t - z)^j divide f mod p.  A zero mod p may be an accident, so a
    positive count is retried at the next prime until two primes agree."""
    counts = []
    for p, z in _roots_of_unity(d):
        counts.append(_root_multiplicity(f, d, p, z))
        if not counts[-1] or counts[-1] in counts[:-1]:
            break
    return min(counts)


def _assert_reduced_mod_p(g, v, ks, chi, tab):
    """The claims of _assert_reduced without dividing by Phi_d: the expansion
    to tab, bounds u_d on the multiplicities in den, at most the number of k
    divisible by d; den equal to prod Phi_d^u_d (so every u_d is exact); and
    num(z) != 0 mod some p wherever u_d > 0."""
    f = molien_closed(g, v, chi)
    assert f.den[0] == 1 and f.num
    assert _expands_to(f, tab), chi
    top = len(f.den) - 1
    powers, degree = {}, 0  # prod Phi_d^u_d = +-prod (1 - t^e)^powers[e]
    for d in sorted({d for k in ks for d in range(1, k + 1) if k % d == 0}):
        u = _cyclotomic_bound(f.den, d)
        assert u <= sum(k % d == 0 for k in ks), (d, chi)
        if u:
            assert _cyclotomic_bound(f.num, d) == 0, (d, chi)
            qs = _prime_factors(d)
            degree += u * math.prod(q - 1 for q in qs) * d // math.prod(qs)
            for e in range(1, d + 1):  # Mobius: Phi_d = prod (1 - t^e)^mu(d/e)
                m = d // e
                if d % e == 0 and all(m % (q * q) for q in _prime_factors(m)):
                    powers[e] = powers.get(e, 0) + u * (-1) ** len(_prime_factors(m))
    assert degree == top, chi
    # the product has degree top, so it is its own expansion mod t^(top + 1)
    series = [1] + [0] * top
    for e, n in powers.items():
        for _ in range(abs(n)):
            if n > 0:
                for i in range(top, e - 1, -1):
                    series[i] -= series[i - e]
            else:
                for i in range(e, top + 1):
                    series[i] += series[i - e]
    assert series == list(f.den), chi


def test_closed_forms_are_fully_reduced():
    # long division by the reference Phi_d is quadratic, so where
    # prod (1 - t^k_w) has degree above 2000 (three nodes of the fig1
    # recursion graphs, up to degree 18,318) the check runs modulo primes,
    # on the trivial character and four others
    graphs = [d4(), e8(), exmc(), *_recursion_graphs(fig1()),
              *(star(b, legs) for b, legs in small_stars())]
    checked = large = 0
    for g in graphs:
        gd = group_data(g)
        for v in g.nodes():
            m = g.node_weights(v).m
            # k_w = (order of [E*_w] in H) m_vw, the order from the reference
            ks = []
            for w in g.ends():
                h = ref.class_of(g, ref.dual_cycle(g, w))
                ks.append(math.lcm(*(d // math.gcd(d, c) for c, d in
                                     zip(h.coords, ref.invariant_factors(g))))
                          * m[w])
            # each form expands to its table one coefficient past the
            # numerator's degree bound
            up_to = sum(ks) + max(a_invariant(g, v), 0) + 1
            if sum(ks) <= 2000:
                tabs = molien_coeffs(g, v, up_to)
                for chi in gd.characters():
                    _assert_reduced(g, v, ks, chi, tabs[chi])
                    checked += 1
            else:
                large += 1
                others = [c for c in gd.characters() if c != gd.trivial_character]
                for chi in [gd.trivial_character, *random.Random(v).sample(others, 4)]:
                    _assert_reduced_mod_p(g, v, ks, chi, _series(g, v, chi, up_to))
                    checked += 1
    assert (checked, large) == (1267 + 3 * 5, 3)


def test_exmc_trivial_c_is_one():
    g = exmc()
    gd = group_data(g)
    assert c_v_chi(g, "E5", gd.trivial_character) == 1
    assert c_v_chi(g, "E6", gd.trivial_character) == 1


# -- general Molien kernel -------------------------------------------------

def test_molien_ci_free_ring():
    assert molien_ci([1], [], [[]], [], (), 5) == [1, 1, 1, 1, 1, 1]


def test_molien_ci_z2_sign_action():
    # Z/2 acting by -1 on one degree-1 variable
    inv = molien_ci([1], [2], [[Fraction(1, 2)]], [], (0,), 6)
    assert inv == [1, 0, 1, 0, 1, 0, 1]
    anti = molien_ci([1], [2], [[Fraction(1, 2)]], [], (1,), 6)
    assert anti == [0, 1, 0, 1, 0, 1, 0]


def test_molien_ci_hypersurface():
    # (1 - t^2)/(1 - t)^2 = (1 + t)/(1 - t)
    assert molien_ci([1, 1], [], [[], []], [(2, ())], (), 5) == [1, 2, 2, 2, 2, 2]


def _molien_ci_at_node(g, v, chi, up_to):
    """The Q(zeta) reference at node v: the ends are the variables, acted on
    by theta(E*_w), and each node w carries delta_w - 2 relations of degree
    m_vw and character theta(E*_w); all read off the Fraction pairing."""
    gd = group_data(g)
    nw = g.node_weights(v)
    ends = [w for w in g.ids if g.degree(w) == 1]
    gens = [HElement(tuple(int(i == k) for i in range(gd.rank)))
            for k in range(gd.rank)]
    weights = [nw.m[w] for w in ends]
    action = [[ref.pair(g, h, ref.dual_cycle(g, w)) for h in gens] for w in ends]
    rels = []
    for w in g.ids:
        if g.degree(w) > 2:
            coords = [int(o * ref.pair(g, h, ref.dual_cycle(g, w))) % o
                      for h, o in zip(gens, gd.invariant_factors)]
            rels += [(nw.m[w], coords)] * (g.degree(w) - 2)
    return molien_ci(weights, gd.invariant_factors, action, rels,
                     chi, up_to)


def test_molien_ci_matches_graph_kernel():
    for g in (d4(), e8(), exmc(), fig1()):
        for v in sorted(g.nodes()):
            tabs = molien_coeffs(g, v, 12)
            for chi in group_data(g).characters():
                assert _molien_ci_at_node(g, v, chi, 12) == tabs[chi], (v, chi)


# -- the sum over characters needs no group --------------------------------

def _cv_sum_without_group(g, v):
    """sum_chi c_v^chi by the Koszul identity: the s^0 .. s^a(G)
    coefficients of the trivial-group series, which total_ci_coeffs gives
    in t (the s-expansion is the same product)."""
    a = a_invariant(g, v)
    return sum(total_ci_coeffs(g, v, a)) if a >= 0 else 0


def test_cv_sum_over_characters_needs_no_group():
    graphs = [d4(), e8(), exmc(), *_recursion_graphs(fig1()),
              *splice_quotient_trees(seed=1, count=10)]
    for g in graphs:
        chars = list(group_data(g).characters())
        for v in sorted(g.nodes()):
            assert sum(c_v_chi(g, v, chi) for chi in chars) == \
                _cv_sum_without_group(g, v), (g.fingerprint(), v)
    g, h = fig1(), exmc()
    assert [_cv_sum_without_group(g, v) for v in ("v0", "v1", "v2")] == \
        [55, 141, 42]
    assert [_cv_sum_without_group(h, v) for v in ("E5", "E6")] == [1, 1]


def test_pg_does_no_work_over_h(monkeypatch):
    # the t = infinity kernel reaches few characters, so p_g never walks H;
    # the sum of c_v^chi over them is still checked, without the group
    def no_walk(self):
        raise AssertionError("walked the characters of H")

    monkeypatch.setattr(GroupData, "characters", no_walk)
    found = {}
    for order, text in HUGE_H_TREES.items():
        g = parse_graph(text)
        assert group_data(g).order == order
        found[order] = pg(g)
        for v in sorted(g.nodes()):
            assert sum(_cv_table(g, v)[1].values()) == \
                _cv_sum_without_group(g, v), (order, v)
    assert found == {19273: 0, 34908: 0, 119154: 1}


# -- the sparse kernel against the dense reference -------------------------

def _graphs_of_the_dense_check():
    return [d4(), e8(), exmc(), *_recursion_graphs(fig1()),
            *(star(b, legs) for b, legs in small_stars()),
            *splice_quotient_trees(seed=1, count=10)]


def test_sparse_kernel_matches_dense_reference():
    # to degree 16 on the corpus; then where labels can go wrong: fig1's
    # nearly full rows to degree 179 = (m + 2) a_v - 1 at v1, the large
    # cyclic group of caterpillar(3), and the rank-2 groups (Z/6)^2 of fig1
    # and (Z/2)^2 of d4 well past the degree where every character is
    # reached
    cases = [(g, sorted(g.nodes()), 16) for g in _graphs_of_the_dense_check()]
    g = fig1()
    assert group_data(g).invariant_factors == [6, 6]
    cases.append((g, ["v1"], 179))
    g = caterpillar(3)
    assert group_data(g).invariant_factors == [2857]
    cases.append((g, sorted(g.nodes()), 48))
    g = d4()
    assert group_data(g).invariant_factors == [2, 2]
    cases.append((g, ["c"], 60))
    for g, nodes, up_to in cases:
        for v in nodes:
            assert molien_coeffs(g, v, up_to) == \
                ref.dense_molien_coeffs(g, v, up_to), (g.fingerprint(), v)
            assert {chi: c_v_chi(g, v, chi) for chi in group_data(g).characters()} \
                == ref.dense_cv_at_infinity(g, v), (g.fingerprint(), v)


def test_a_negative_coefficient_is_named_by_its_character(monkeypatch):
    # the kernel's rows are keyed by labels; the diagnostic decodes the
    # offending one back to its coordinates
    real = molien._zh_product

    def one_negative(dims, factors, up_to):
        rows = real(dims, factors, up_to)
        rows[3][group_data(g)._label((2, 5))] = -1
        return rows

    g = fig1()
    monkeypatch.setattr(molien, "_zh_product", one_negative)
    with pytest.raises(InternalCheckError) as err:
        molien_coeffs(g, "v0", 5)
    assert str(err.value) == "dim G^(2, 5)_3 = -1"


def test_c_v_kernel_expands_the_node_factors_as_they_are(monkeypatch):
    # c_v reads the t = 0 product itself, not a list with negated characters
    calls = []
    real = molien._zh_product
    monkeypatch.setattr(molien, "_zh_product", lambda dims, factors, up_to: (
        calls.append(factors) or real(dims, factors, up_to)))
    negated = 0
    for g in [exmc(), fig1(), *(star(b, legs) for b, legs in small_stars()[::8])]:
        dims = group_data(g).invariant_factors
        for v in sorted(g.nodes()):
            calls.clear()
            c_v_chi(g, v, group_data(g).trivial_character)
            factors = molien._node_factors(g, v)
            assert calls == ([factors] if a_invariant(g, v) >= 0 else [])
            negated += any(tuple(-x % d for x, d in zip(psi, dims)) != psi
                           for psi, _, _ in factors)
    assert negated  # a negated list would differ from these


def test_c_v_is_a_partial_sum_of_the_dual_character_table():
    # c_v^chi = P^{g - chi}(a(G) + 1) with g = sum_w (delta_w - 2) psi_w,
    # at every node and character; a(G) < 0 gives 0
    below = 0
    for g in _graphs_of_the_dense_check():
        gd = group_data(g)
        dims = gd.invariant_factors
        shift = [sum((g.degree(w) - 2) * gd.dual_character(w)[i] for w in g.ids)
                 for i in range(len(dims))]
        for v in sorted(g.nodes()):
            n = a_invariant(g, v) + 1
            below += n <= 0
            for chi in gd.characters():
                dual = tuple((s - c) % d for s, c, d in zip(shift, chi, dims))
                assert c_v_chi(g, v, chi) == P_chi(g, v, dual, n), \
                    (g.fingerprint(), v, chi)
    assert below


# -- bundled data ----------------------------------------------------------

def test_hilbert_data_with_koszul_check():
    g = exmc()
    gd = group_data(g)
    hd = hilbert_data(g, "E6", 12, closed_for=[gd.trivial_character])
    assert hd.node == "E6" and hd.a_invariant == 1
    assert set(hd.coefficients) == set(gd.characters())
    # the Koszul identity, against the reference series
    assert [sum(col) for col in zip(*hd.coefficients.values())] == \
        total_ci_coeffs(g, "E6", 12)
    f = hd.closed_forms[gd.trivial_character]
    tab = hd.coefficients[gd.trivial_character]
    assert _expands_to(f, tab)


def test_closed_form_detects_a_short_degree_bound(monkeypatch):
    import splicegenus.molien as M
    g = fig1()
    chi = group_data(g).trivial_character
    f = molien_closed(g, "v0", chi)
    ks, _ = M._closed_degrees(g, "v0")
    # the degree of H * prod (1 - t^k), before any factor is cancelled
    top = len(f.num) + sum(ks) - len(f.den)
    monkeypatch.setattr(M, "_closed_degrees", lambda g_, v_: (ks, top - 1))
    with pytest.raises(InternalCheckError):
        molien_closed(g, "v0", chi)
    monkeypatch.setattr(M, "_closed_degrees", lambda g_, v_: (ks, top))
    assert molien_closed(g, "v0", chi) == f
