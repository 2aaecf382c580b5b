import hashlib
import json
import random
import re
from fractions import Fraction

import pytest

import reference as ref
from fixtures import (
    a_chain,
    d4,
    e8,
    exmc,
    fig1,
    graph_file,
    record_eliminations,
    small_stars,
    splice_quotient_trees,
    star,
)
from splicegenus.genus import (
    euler_char_on_cycle,
    genus_report,
    h1_eigensheaf,
    h1_twisted,
    minimal_nef_correction,
    pg,
    pg_uac,
)
import splicegenus.genus as genus
from splicegenus.cli import run
from splicegenus.graph import DualData, ResolutionGraph
from splicegenus.errors import (
    CycleOutOfRange,
    GraphInputError,
    InternalCheckError,
    NegativeH1,
)
from splicegenus.molien import (
    P_chi,
    c_v_chi,
    c_v_route_a,
    group_data,
    molien_closed,
)


def _ints(g, coeffs):
    """The int list in g.ids order of a dict of E-coefficients."""
    return [coeffs.get(w, 0) for w in g.ids]


# -- Riemann-Roch on cycles ------------------------------------------------

def test_euler_char_zero_cycle():
    assert euler_char_on_cycle(d4(), [0] * 4) == 0


def test_euler_char_single_rational_curve():
    # chi(O_E) = 1 for a -2 curve (K = 0)
    g = e8()
    assert euler_char_on_cycle(g, _ints(g, {"e1": 1})) == 1


def test_euler_char_of_fundamental_cycle_matches_pa():
    g = fig1()
    Z, pa = g.fundamental_cycle()
    assert euler_char_on_cycle(g, Z) == 1 - pa == -3


def test_euler_char_twist_adds_degrees():
    g = d4()
    D = _ints(g, {"c": 2, "l1": 1})
    base = euler_char_on_cycle(g, D)
    twisted = euler_char_on_cycle(
        g, D, _ints(g, {"c": 3, "l1": -1, "l2": 7, "l3": 7}))
    assert twisted == base + 2 * 3 + 1 * (-1)
    # -D.(D+K)/2 by the Fraction intersection form
    K = ref.as_qcycle(g, g.canonical_cycle()[0], g.dual_data().det_abs)
    Dq = ref.as_qcycle(g, D)
    assert base == -ref.intersect(g, Dq, Dq + K) / 2


def test_euler_char_rejects_non_effective():
    g = d4()
    with pytest.raises(CycleOutOfRange):
        euler_char_on_cycle(g, _ints(g, {"c": -1}))


def test_euler_char_rejects_non_integral():
    g = d4()
    with pytest.raises(CycleOutOfRange) as info:
        euler_char_on_cycle(g, _ints(g, {"c": Fraction(1, 2)}))
    assert isinstance(info.value, GraphInputError)


@pytest.mark.parametrize("ldeg", [{"c": Fraction(1, 2)},
                                  lambda w: Fraction(-3, 2),
                                  [Fraction(1, 2), 0, 0, 0],
                                  [Fraction(4, 2), 0, 0, 0],
                                  ["x", 0, 0, 0],
                                  [1.0, 0, 0, 0],
                                  [0, 0, 0]],
                         ids=["mapping", "callable", "fraction",
                              "integral-fraction", "string", "float",
                              "short"])
def test_euler_char_rejects_non_integral_degrees(ldeg):
    # degrees are an int list in g.ids order: anything else is refused,
    # also where the cycle is 0
    g = d4()
    for d in (_ints(g, {"c": 1}), [0] * 4):
        with pytest.raises(CycleOutOfRange):
            euler_char_on_cycle(g, d, ldeg)


def test_riemann_roch_values_are_ints():
    # D.(D+K) is even by adjunction, so no value of the recursion needs a
    # Fraction
    g = fig1()
    gd = group_data(g)
    Z, pa = g.fundamental_cycle()
    assert type(pa) is int
    assert type(euler_char_on_cycle(g, Z)) is int
    assert type(euler_char_on_cycle(g, Z, [1] * len(g.ids))) is int
    assert type(g.riemann_roch([1] * len(g.ids), [0] * len(g.ids))) is int
    for chi in gd.characters():
        assert type(c_v_chi(g, "v0", chi)) is int
        assert type(h1_eigensheaf(g, chi)) is int
    h = exmc()
    values = h1_twisted(h, "E5", group_data(h).trivial_character, 2,
                        _ints(h, {"E6": 1}))
    assert [type(x) for x in values] == [int, int]


# -- minimal nef correction ------------------------------------------------

def _reference_base(g, v, chi, n):
    """[c_1(L_chi) - (n/e_v)E_v] - c_1(L_chi) from the Fraction reference."""
    c1 = ref.fractional_representative(g, chi)
    e_v = g.node_weights(v).e
    return (c1 - ref.unit_cycle(v).scale(Fraction(n, e_v))).floor() - c1


def test_nef_correction_trivial_n0_is_zero():
    g = exmc()
    gd = group_data(g)
    nc = minimal_nef_correction(g, "E5", gd.trivial_character, 0)
    assert nc == [0] * len(g.ids) and sum(nc) == 0


def test_nef_correction_known_cycle():
    g = exmc()
    gd = group_data(g)
    nc = minimal_nef_correction(g, "E5", gd.trivial_character, 2)
    assert nc == _ints(g, {"E1": 1, "E2": 1, "E3": 1, "E4": 1,
                                 "E5": 1, "E6": 2})


def test_nef_correction_order_independent():
    # Laufer's loop from the reference's slack base.E_w gives the package's
    # correction whatever order it scans the vertices in
    g = exmc()
    gd = group_data(g)
    rng = random.Random(7)
    for chi in gd.characters():
        nc = minimal_nef_correction(g, "E6", chi, 3)
        base = _reference_base(g, "E6", chi, 3)
        slack = [int(ref.intersect(g, base, ref.unit_cycle(w))) for w in g.ids]
        for _ in range(5):
            order = list(g.ids)
            rng.shuffle(order)
            assert g.laufer(slack, order) == nc


def test_nef_correction_result_is_nef_and_minimal():
    g = exmc()
    gd = group_data(g)
    for chi in gd.characters():
        for n in (1, 2, 3):
            base = _reference_base(g, "E5", chi, n)
            D = ref.as_qcycle(g, minimal_nef_correction(g, "E5", chi, n))
            for w in g.ids:
                assert ref.intersect(g, base - D, ref.unit_cycle(w)) >= 0
            # decrementing any support coordinate must break nefness
            for w in g.ids:
                if D[w] > 0:
                    smaller = D - ref.unit_cycle(w)
                    assert any(
                        ref.intersect(g, base - smaller, ref.unit_cycle(u)) < 0
                        for u in g.ids)


def test_twists_are_only_along_nodes():
    g = exmc()
    chi = group_data(g).trivial_character
    for v in ("nope", "E1", None):  # not a vertex; an end; no default node
        with pytest.raises(GraphInputError):
            minimal_nef_correction(g, v, chi, 3)
        with pytest.raises(GraphInputError):
            h1_twisted(g, v, chi, 0, [0] * len(g.ids))


# -- the h1 recursion ------------------------------------------------------

def test_chain_h1_vanishes_for_all_characters():
    g = a_chain(4)
    gd = group_data(g)
    assert gd.order == 5
    for chi in gd.characters():
        assert h1_eigensheaf(g, chi) == 0


def test_rational_singularities_have_pg_zero():
    assert pg(d4()) == 0
    assert pg(e8()) == 0
    assert pg_uac(d4()) == 0


def test_exmc_h1_table():
    g = exmc()
    gd = group_data(g)
    table = {chi: h1_eigensheaf(g, chi) for chi in gd.characters()}
    assert table == {(0,): 1, (1,): 0, (2,): 0, (3,): 0}
    assert pg(g) == 1 and pg_uac(g) == 1


def test_fig1_pg_is_7():
    assert pg(fig1()) == 7


def test_fig1_pg_uac_is_165():
    assert pg_uac(fig1()) == 165


def test_h1_independent_of_root_node():
    g = fig1()
    gd = group_data(g)
    tables = {}
    for root in ("v0", "v1", "v2"):
        tables[root] = {chi: h1_eigensheaf(g, chi, root=root)
                        for chi in gd.characters()}
    assert tables["v0"] == tables["v1"] == tables["v2"]


def test_h1_independent_of_root_on_generated_splice_quotients():
    # every root of a fresh copy of the graph gives the same h1 table, so
    # no root reads values cached by another
    for g in splice_quotient_trees(seed=1, count=10):
        vs = [(v, g.weight[v]) for v in g.ids]
        tables = [genus_report(ResolutionGraph(vs, g.edges),
                               root=r).per_character_h1
                  for r in sorted(g.nodes())]
        assert all(t == tables[0] for t in tables[1:]), g.fingerprint()
        assert min(tables[0].values()) >= 0, g.fingerprint()


def test_h1_is_cached_by_character_alone():
    # three roots leave one cached value per character of fig1, not three
    g = fig1()
    for root in ("v0", "v1", "v2"):
        genus_report(g, root=root)
    keys = [k for k in g._cache if isinstance(k, tuple) and k[0] == "h1"]
    assert len(keys) == group_data(g).order == 36
    assert sorted(k[1:] for k in keys) == sorted(
        (chi,) for chi in group_data(g).characters())


def test_a_named_root_is_compared_with_the_cached_value(monkeypatch):
    # c_v shifted at root v2 for one nontrivial character alone: the
    # root=None table (from v0) and every other (root, character) agree,
    # and that one call names v2 and the character
    g = fig1()
    chars = list(group_data(g).characters())
    chi = (1, 2)
    real = genus.c_v_chi
    monkeypatch.setattr(genus, "c_v_chi", lambda h, v, c: real(h, v, c) + (
        h is g and v == "v2" and c == chi))
    table = {c: h1_eigensheaf(g, c) for c in chars}
    for root in ("v0", "v1", "v2"):
        for c in chars:
            if (root, c) != ("v2", chi):
                assert h1_eigensheaf(g, c, root=root) == table[c]
    with pytest.raises(InternalCheckError) as info:
        h1_eigensheaf(g, chi, root="v2")
    assert str(info.value) == (
        f"h1 depends on the root node: {table[chi]} cached, "
        f"{table[chi] + 1} at root v2 (chi (1, 2))")
    assert h1_eigensheaf(g, chi) == table[chi]


def test_fig1_h1_values_nonnegative_and_bounded_by_pg():
    g = fig1()
    gd = group_data(g)
    vals = [h1_eigensheaf(g, chi) for chi in gd.characters()]
    assert all(0 <= v <= 7 for v in vals)
    assert sorted(set(vals)) == [4, 5, 6, 7]


# -- twisted h1 ------------------------------------------------------------

def test_h1_twisted_degenerate_case_recovers_pg():
    g = exmc()
    gd = group_data(g)
    h0drop, h1 = h1_twisted(g, "E5", gd.trivial_character, 0, [0] * len(g.ids))
    assert h0drop == 0 and h1 == pg(g)


def test_h1_twisted_known_values():
    g = exmc()
    gd = group_data(g)
    chi = gd.trivial_character
    assert h1_twisted(g, "E5", chi, 2, [0] * len(g.ids)) == (1, 1)
    assert h1_twisted(g, "E5", chi, 2, _ints(g, {"E6": 1})) == (1, 1)


def test_h1_twisted_rejects_out_of_range_cycles():
    g = exmc()
    gd = group_data(g)
    with pytest.raises(CycleOutOfRange):
        h1_twisted(g, "E5", gd.trivial_character, 0, _ints(g, {"E1": -1}))
    with pytest.raises(CycleOutOfRange):
        # n = 0 forces the bound cycle to be 0
        h1_twisted(g, "E5", gd.trivial_character, 0, _ints(g, {"E1": 1}))


def test_cycles_on_unknown_vertices_are_rejected():
    # a cycle is an int list in g.ids order: one that also carries a
    # vertex outside the graph, or misses one, has the wrong length
    g = exmc()
    n = len(g.ids)
    chi = group_data(g).trivial_character
    for d in ([5] + [0] * n, [1] * (n + 1), [0] * (n - 1), []):
        with pytest.raises(CycleOutOfRange):
            euler_char_on_cycle(g, d)
        with pytest.raises(CycleOutOfRange):
            euler_char_on_cycle(g, [0] * n, d)
        with pytest.raises(CycleOutOfRange):
            h1_twisted(g, "E5", chi, 0, d)


@pytest.mark.parametrize("bad", ["x", Fraction(1), 1.0, None],
                         ids=["string", "fraction", "float", "none"])
def test_h1_twisted_rejects_non_int_entries(bad):
    g = exmc()
    d = [0] * len(g.ids)
    d[0] = bad
    with pytest.raises(CycleOutOfRange):
        h1_twisted(g, "E5", group_data(g).trivial_character, 0, d)
    with pytest.raises(CycleOutOfRange):
        euler_char_on_cycle(g, d)


# -- reports ---------------------------------------------------------------

def test_genus_report_json_shape():
    g = exmc()
    rep = genus_report(g, with_trace=True)
    data = rep.to_json()
    assert data["pg"] == 1 and data["pgUAC"] == 1
    assert data["h1"] == [{"char": [0], "value": 1}, {"char": [1], "value": 0},
                          {"char": [2], "value": 0}, {"char": [3], "value": 0}]
    assert data["trace"] and data["trace"][0]["node"] == "E5"


def test_genus_report_chain():
    rep = genus_report(a_chain(3))
    assert rep.pg == 0 and rep.pg_uac == 0
    assert all(v == 0 for v in rep.per_character_h1.values())


# -- Pinkham's formula on star graphs ----------------------------------------

def _pinkham_pg(b, legs):
    """p_g = sum_{l>=0} max(0, -l b + sum_i ceil(l omega_i/alpha_i) - 1) for
    the weighted homogeneous singularity of a star (Pinkham, Math. Ann. 227,
    1977).  A term is positive only while l (b - sum omega_i/alpha_i) is
    below the number of legs."""
    slack = b - sum(Fraction(w, a) for a, w in legs)
    total, l = 0, 0
    while l * slack < len(legs):
        total += max(0, -l * b + sum(-(-l * w // a) for a, w in legs) - 1)
        l += 1
    return total


def test_pg_matches_pinkham_on_small_stars():
    stars = small_stars()
    assert len(stars) == 96
    for b, legs in stars:
        assert pg(star(b, legs)) == _pinkham_pg(b, legs), (b, legs)


def test_pg_brieskorn_237_is_one():
    legs = [(2, 1), (3, 1), (7, 1)]
    assert _pinkham_pg(1, legs) == 1
    assert pg(star(1, legs)) == 1


def test_h1_recursion_reads_c_v_without_tables(monkeypatch):
    import splicegenus.molien as M

    def no_tables(*args, **kwargs):
        raise AssertionError("the h1 recursion built a Hilbert table")

    monkeypatch.setattr(M, "molien_coeffs", no_tables)
    monkeypatch.setattr(M, "_node_rows", no_tables)
    assert pg(fig1()) == 7


def test_pg_uac_scans_for_nodes_once_per_graph(monkeypatch):
    # nodes and chains come from the cached validation, so the number of
    # degree scans does not grow with the number of characters
    calls = []
    real = ResolutionGraph.nodes

    def counted(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(ResolutionGraph, "nodes", counted)
    scanned = []
    for b in (3, 4):
        calls.clear()
        pg_uac(star(b, [(2, 1)] * 4))
        scanned.append(list(calls))
    assert [group_data(star(b, [(2, 1)] * 4)).order for b in (3, 4)] == [16, 32]
    assert len(scanned[0]) == len(scanned[1])
    # the star and each of its four legs, once each
    assert all(len(set(map(id, s))) == len(s) == 5 for s in scanned)


def test_chain_branches_are_never_validated(monkeypatch):
    # a branch of a valid tree is valid, and whether it is a chain is read
    # off its degrees: pg_uac on a star decomposes the star alone, on all 96
    # small stars once per star, and the star's definiteness is read off its
    # adjugate, with no Bareiss pass
    bareiss, smith = record_eliminations(monkeypatch)
    g = star(3, [(2, 1)] * 4)
    assert pg_uac(g) == 1 and smith == [g.intersection_matrix()]
    smith.clear()
    for b, legs in small_stars():
        pg_uac(star(b, legs))
    assert len(smith) == len(small_stars()) == 96
    assert bareiss == []


@pytest.mark.parametrize("root", ["l1", "nope"], ids=["leaf", "unknown"])
def test_root_that_is_not_a_node_is_an_input_error(root):
    g = d4()
    message = re.escape(f"{root!r} is not a node of the graph")
    for f in (pg, pg_uac, genus_report):
        with pytest.raises(GraphInputError, match=message):
            f(g, root=root)


@pytest.mark.parametrize("chi, message", [
    ((0,), "character needs 2 coordinates (invariant factors [2, 2]), got 1"),
    ((2, 0), "coordinate 2 out of range [0,2)"),
    ((0, 0, 0), "character needs 2 coordinates (invariant factors [2, 2]), got 3"),
    ((5, 0), "coordinate 5 out of range [0,2)"),
    ((7, 7), "coordinate 7 out of range [0,2)"),
    ((0, 0.5), "character must be a tuple of ints, got (0, 0.5)"),
    ([0, 0], "character must be a tuple of ints, got [0, 0]"),
    # these hash and compare as (0, 1), whose values are cached below
    ((0.0, 1.0), "character must be a tuple of ints, got (0.0, 1.0)"),
    ((0, True), "character must be a tuple of ints, got (0, True)"),
])
def test_malformed_character_is_an_input_error(chi, message):
    # the CLI's --char check, reached from the library: d4 has H = Z/2 x Z/2;
    # it runs before any cache lookup
    g = d4()
    assert h1_eigensheaf(g, (0, 1)) == 0
    assert group_data(g).c1_alpha((0, 1)) == group_data(g).c1_alpha((0, 1))
    for call in (lambda: h1_eigensheaf(g, chi),
                 lambda: group_data(g).c1_alpha(chi),
                 lambda: c_v_chi(g, "c", chi),
                 lambda: P_chi(g, "c", chi, 3),
                 lambda: c_v_route_a(g, "c", chi),
                 lambda: molien_closed(g, "c", chi)):
        with pytest.raises(GraphInputError, match=re.escape(message)):
            call()


@pytest.mark.parametrize("n", [2.5, 2.0, "3", None, True],
                         ids=["2.5", "2.0", "'3'", "None", "True"])
def test_twist_degree_must_be_an_int(n):
    g = fig1()
    chi = group_data(g).trivial_character
    message = re.escape(f"twist degree must be an int, got {n!r}")
    for call in (lambda: minimal_nef_correction(g, "v0", chi, n),
                 lambda: h1_twisted(g, "v0", chi, n, [0] * len(g.ids)),
                 lambda: P_chi(g, "v0", chi, n)):
        with pytest.raises(GraphInputError, match=message):
            call()
    # an int degree still works
    assert P_chi(g, "v0", chi, 2) == 1
    assert len(minimal_nef_correction(g, "v0", chi, 2)) == len(g.ids)


def test_negative_twist_degree_is_an_input_error():
    g = fig1()
    chi = group_data(g).trivial_character
    message = re.escape("twist degree must be >= 0, got -5")
    for call in (lambda: minimal_nef_correction(g, "v0", chi, -5),
                 lambda: h1_twisted(g, "v0", chi, -5, [0] * len(g.ids))):
        with pytest.raises(GraphInputError, match=message):
            call()
    assert P_chi(g, "v0", chi, -5) == 0
    assert len(minimal_nef_correction(g, "v0", chi, 0)) == len(g.ids)


# -- one branch term per distinct phi -----------------------------------------

def _distinct_branch_terms(g, roots):
    """The (branch vertex set, phi) pairs the recursion reaches from each
    root over all characters, from ``c1_alpha`` restricted by vertex id."""
    seen = set()

    def walk(g, root, chars):
        if g.require_valid().is_chain:
            return
        gd = group_data(g)
        for br in g.branches(g.node(root)):
            sub = br.subgraph
            phis = {tuple(ref.phi_alpha(gd, br, chi)) for chi in chars}
            seen.update((frozenset(sub.ids), phi) for phi in phis)
            if not sub.require_valid().is_chain:
                walk(sub, None, {group_data(sub).theta_alpha(p) for p in phis})

    for root in roots:
        walk(g, root, list(group_data(g).characters()))
    return len(seen)


@pytest.mark.parametrize("make, roots, total", [
    (fig1, ["v0", "v1", "v2"], 165),
    (lambda: star(3, [(2, 1)] * 4), [None], 1),
], ids=["fig1-allroots", "star"])
def test_one_branch_term_per_distinct_phi(monkeypatch, make, roots, total):
    # Riemann-Roch and the nef shift run once per (branch, phi), not once
    # per character and branch
    calls = {"nef": 0, "rr": 0}
    real_nef, real_rr = genus.nef_shift, ResolutionGraph.riemann_roch

    def nef(*args):
        calls["nef"] += 1
        return real_nef(*args)

    def rr(*args):
        calls["rr"] += 1
        return real_rr(*args)

    monkeypatch.setattr(genus, "nef_shift", nef)
    monkeypatch.setattr(ResolutionGraph, "riemann_roch", rr)
    g = make()
    values = {pg_uac(g, root=root) for root in roots}
    expected = _distinct_branch_terms(make(), roots)
    assert calls == {"nef": expected, "rr": expected}
    per_character = sum(group_data(g).order * len(g.branches(g.node(root)))
                        for root in roots)
    assert expected < per_character
    assert values == {total}


def _check_branch_keys(g, root, chars):
    """Every branch of g at root: phi_i(chi) read by the branch's picker is
    the tuple of c_1's E*-coordinates at the branch's columns, and it keys
    the branch table, whose every key is a tuple of the branch's length;
    then the same in every branch the recursion entered.  Returns the
    lengths of the (graph, root, branch) triples checked."""
    gd = group_data(g)
    checked = []
    for br in g.branches(g.node(root)):
        cols, table = br.cols, br.terms
        assert len(cols) == len(br.subgraph.ids)
        phis = set()
        for chi in chars:
            alpha = gd.c1_alpha(chi)
            phi = br.pick(alpha)
            assert phi == tuple(alpha[j] for j in cols) and phi in table
            phis.add(phi)
        assert all(type(key) is tuple and len(key) == len(cols)
                   for key in table)
        checked.append(len(cols))
        if not br.subgraph.require_valid().is_chain:
            checked += _check_branch_keys(
                br.subgraph, None, {table[phi][0] for phi in phis})
    return checked


def test_branch_keys_are_phi_tuples_from_every_root():
    # the branch tables are keyed by phi_i(c_1(L_chi)) as a tuple of the
    # branch's length, one-vertex branches (d4's legs) included
    graphs = [fig1(), exmc(), d4(), e8()]
    graphs += [star(b, legs) for b, legs in small_stars()]
    graphs += splice_quotient_trees(1, 10)
    lengths = []
    for g in graphs:
        for root in sorted(g.nodes()):
            pg_uac(g, root=root)
            lengths += _check_branch_keys(
                g, root, list(group_data(g).characters()))
    assert len(lengths) > len(graphs) and 1 in lengths and max(lengths) > 2


def test_the_recursion_never_multiplies_by_the_adjugate(monkeypatch, capsys):
    # c_1's numerators feed the nef shift and the twist along v, so neither
    # pg-uac, pg_uac nor the nef correction reads DualData.numerators
    stars = [(b, legs, pg_uac(star(b, legs))) for b, legs in small_stars()]
    twists = {(chi, n): minimal_nef_correction(fig1(), "v0", chi, n)
              for chi in [(0, 0), (1, 5), (3, 2)] for n in range(4)}

    def adjugate_product(*args):
        raise AssertionError("the h1 recursion multiplied by the adjugate")

    monkeypatch.setattr(DualData, "numerators", adjugate_product)
    code = run(["pg-uac", "--input", graph_file("fig1.json"), "--all-nodes"])
    assert code == 0
    assert capsys.readouterr().out.splitlines()[0] == "pg_uac = 165"
    for b, legs, total in stars:
        rep = genus_report(star(b, legs))
        assert rep.pg == _pinkham_pg(b, legs), (b, legs)
        assert rep.pg_uac == total, (b, legs)
    for (chi, n), D in twists.items():
        assert minimal_nef_correction(fig1(), "v0", chi, n) == D


def test_fig1_trace_is_unchanged():
    # a traced call computes every branch term again: the trace lists every
    # step of the recursion, as it did before the branch tables
    trace = json.dumps(genus_report(fig1(), with_trace=True).trace)
    assert hashlib.sha256(trace.encode()).hexdigest() == (
        "0c9b5192e5746d75476cad90eef8076f5f18d1f6222e13b91573ef6cc1a5ee92")


def test_negative_h1_from_a_table_read_keeps_its_branches(monkeypatch):
    # two characters of fig1 share phi on a branch of v0; the second reads
    # that term from the table and still reports every branch
    g = fig1()
    gd = group_data(g)
    branches = g.branches("v0")
    chars = list(gd.characters())
    shared = next((br, a, b) for br in branches
                  for i, a in enumerate(chars) for b in chars[i + 1:]
                  if ref.phi_alpha(gd, br, a) == ref.phi_alpha(gd, br, b))
    br, chi1, chi2 = shared
    real_cv = genus.c_v_chi
    monkeypatch.setattr(genus, "c_v_chi", lambda h, v, chi: (
        -10**6 if h is g else real_cv(h, v, chi)))
    # a term is computed, with its nef shift, only on a table miss; a shift
    # on g names its branch by the branch's columns in g.ids
    cols = [g.index(w) for w in br.subgraph.ids]
    reached = []
    real_nef = genus.nef_shift

    def nef(dual, k, branch_cols, num):
        if dual is gd.dual:
            reached[-1].append(list(branch_cols))
        return real_nef(dual, k, branch_cols, num)

    monkeypatch.setattr(genus, "nef_shift", nef)
    errors = []
    for chi in (chi1, chi2):
        reached.append([])
        with pytest.raises(NegativeH1) as info:
            h1_eigensheaf(g, chi, root="v0")
        errors.append(info.value.trace)
    assert len(reached[0]) == len(branches) and cols in reached[0]
    assert cols not in reached[1]       # served from the table
    expected = {}
    for step in genus_report(fig1(), root="v0", with_trace=True).trace:
        if step["graph"] == g.fingerprint():
            expected[tuple(step["chi"])] = step
    for chi, err in zip((chi1, chi2), errors):
        assert err["node"] == "v0" and err["chi"] == list(chi)
        assert err["c_v"] == -10**6
        assert [set(s) for s in err["branches"]] == (
            [{"attach", "psi", "h1", "euler"}] * len(branches))
        assert [s["attach"] for s in err["branches"]] == [b.attach for b in branches]
        assert err["branches"] == expected[chi]["branches"]
    k = branches.index(br)
    assert errors[0]["branches"][k] == errors[1]["branches"][k]
