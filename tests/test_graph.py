import inspect
import json
import math
import os
import random
import re
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference as ref
from fixtures import (
    HUGE_H_TREES,
    a_chain,
    caterpillar,
    d4,
    e8,
    exmc,
    fig1,
    graph_file,
    record_eliminations,
    single,
    small_stars,
    splice_quotient_trees,
    star,
)
from reference import QCycle, as_qcycle, unit_cycle
from splicegenus import ResolutionGraph, exact, parse_graph
from splicegenus.discgroup import group_data, nef_shift
from splicegenus.errors import (
    GraphInputError,
    GraphSyntaxError,
    InternalCheckError,
    NotATree,
    NotNegativeDefinite,
)
from splicegenus.genus import _twist, h1_twisted, minimal_nef_correction
from splicegenus.graph import DualData
from splicegenus.molien import (
    P_chi,
    a_invariant,
    c_v_chi,
    c_v_chi_routes,
    c_v_route_a,
    hilbert_data,
    molien_closed,
    molien_coeffs,
    truncation_m,
)
from splicegenus.oracle import bruteforce_eigendims
from splicegenus.splice import (
    emit_splice_system,
    find_admissible_monomial,
    v_degree,
)


@st.composite
def random_trees(draw, max_n=8):
    """Random weighted trees, strictly diagonally dominant so that the
    intersection matrix is always negative definite."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    parents = [draw(st.integers(0, i - 1)) for i in range(1, n)]
    deg = [0] * n
    for i, p in enumerate(parents, start=1):
        deg[i] += 1
        deg[p] += 1
    extra = [draw(st.integers(1, 3)) for _ in range(n)]
    vs = [(f"t{i}", -(deg[i] + extra[i])) for i in range(n)]
    es = [(f"t{i}", f"t{p}") for i, p in enumerate(parents, start=1)]
    return ResolutionGraph(vs, es)


# -- parsing ---------------------------------------------------------------

def test_parse_json_single_vertex():
    g = parse_graph('{"vertices":[{"id":"e","weight":-2}],"edges":[]}')
    assert g.ids == ["e"] and g.weight["e"] == -2


def test_parse_dsl_with_comments():
    g = parse_graph("# two vertices\nvertex a -2\nvertex b -3\nedge a b\n")
    assert g.ids == ["a", "b"] and g.edges == [("a", "b")]


def test_parse_dsl_reports_line_number():
    with pytest.raises(GraphSyntaxError) as exc:
        parse_graph("vertex a -2\nvertex b oops\n")
    assert exc.value.line == 2


def test_parse_rejects_bad_json():
    with pytest.raises(GraphSyntaxError):
        parse_graph("{not json")


@pytest.mark.parametrize("edges", ['[["a"]]', '["ab"]', '[["a", "b", "c"]]'],
                         ids=["one-id", "string", "three-ids"])
def test_parse_json_rejects_an_edge_that_is_not_a_pair(edges):
    doc = '{"vertices":[{"id":"a","weight":-2},{"id":"b","weight":-2}],' \
        f'"edges":{edges}}}'
    with pytest.raises(GraphSyntaxError, match="bad edge entry"):
        parse_graph(doc)


def test_duplicate_vertex_rejected():
    with pytest.raises(GraphInputError):
        ResolutionGraph([("a", -2), ("a", -3)], [])


def test_edge_to_unknown_vertex_rejected():
    with pytest.raises(GraphInputError):
        ResolutionGraph([("a", -2)], [("a", "b")])


def test_self_loop_rejected():
    with pytest.raises(GraphInputError):
        ResolutionGraph([("a", -2)], [("a", "a")])


def test_exmc_has_6_vertices_5_edges():
    g = exmc()
    assert len(g) == 6 and len(g.edges) == 5


def test_fig1_has_14_vertices_13_edges():
    g = fig1()
    assert len(g) == 14 and len(g.edges) == 13


def test_dump_roundtrip_both_formats():
    for g in (fig1(), exmc(), single()):
        for fmt in ("json", "dsl"):
            h = parse_graph(g.dump(fmt))
            assert h.fingerprint() == g.fingerprint()
            assert h.dump(fmt) == g.dump(fmt)
    with pytest.raises(ValueError, match="unknown format 'xml'"):
        single().dump("xml")


# -- validation ------------------------------------------------------------

def test_single_vertex_valid_chain():
    rep = single().validate()
    assert rep.valid and rep.is_chain


def test_fig1_nodes_and_ends():
    rep = fig1().validate()
    assert rep.valid and not rep.is_chain
    assert sorted(rep.nodes) == ["v0", "v1", "v2"]
    assert sorted(rep.ends) == ["w1", "w2", "w3", "w4", "w5"]


def test_singular_pair_not_negative_definite():
    g = ResolutionGraph([("a", -1), ("b", -1)], [("a", "b")])
    rep = g.validate()
    assert not rep.valid and not rep.negative_definite
    with pytest.raises(NotNegativeDefinite):
        g.require_valid()


@pytest.mark.parametrize("weights", [(-1, -1), (-1, 2)],
                         ids=["singular", "indefinite"])
def test_validate_raises_when_the_minors_find_no_violation(monkeypatch,
                                                           weights):
    # the adjugate's signs fail, so the Bareiss pass must name a minor; a
    # pass that finds none means the two routes disagree
    monkeypatch.setattr(exact, "negative_definite_violation", lambda I: None)
    g = ResolutionGraph(list(zip("ab", weights)), [("a", "b")])
    with pytest.raises(InternalCheckError, match="disagree"):
        g.validate()


def test_disconnected_not_a_tree():
    g = ResolutionGraph([("a", -2), ("b", -2)], [])
    with pytest.raises(NotATree):
        g.require_valid()


def test_chain_warning_mentions_assumption():
    rep = a_chain(3).validate()
    assert rep.valid and rep.warnings
    assert "chain" in rep.warnings[0]


# -- intersections and Riemann-Roch ------------------------------------------

@st.composite
def relabelled_trees(draw, max_n=14):
    """A random tree (``random_trees``) given again with its vertices and
    edges in shuffled order, its first edge repeated and its second edge
    reversed; returns (the original, the rebuilt graph)."""
    g = draw(random_trees(max_n=max_n))
    ids = draw(st.permutations(g.ids))
    es = draw(st.permutations(g.edges))
    es = [(b, a) if k == 1 else (a, b) for k, (a, b) in enumerate(es)] + es[:1]
    return g, ResolutionGraph([(v, g.weight[v]) for v in ids], es)


@given(relabelled_trees(), st.data())
@settings(max_examples=60, deadline=None)
def test_intersections_and_riemann_roch_on_relabelled_trees(pair, data):
    g, h = pair
    assert h.edges == g.edges and sorted(h.ids) == sorted(g.ids)
    n = len(h)
    I = h.intersection_matrix()
    ints = st.lists(st.integers(-50, 50), min_size=n, max_size=n)
    for _ in range(3):
        x = data.draw(ints)
        assert h.intersections(x) == [
            sum(a * b for a, b in zip(row, x)) for row in I]
        d = data.draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
        D = as_qcycle(h, d)
        # D.K = sum_w d_w (-E_w^2 - 2), by adjunction on each E_w
        dk = sum(x * (-ref.intersect(h, unit_cycle(w), unit_cycle(w)) - 2)
                 for w, x in zip(h.ids, d))
        want = sum(a * b for a, b in zip(x, d)) - (ref.intersect(h, D, D) + dk) / 2
        assert h.riemann_roch(d, x) == want


# -- dual data -------------------------------------------------------------

def test_single_vertex_dual():
    g = single()
    dd = g.dual_data()
    assert dd.det_abs == 2
    assert as_qcycle(g, dd.numerators([1]), 2) == QCycle({"e": Fraction(1, 2)})
    assert ref.dual_cycle(g, "e") == QCycle({"e": Fraction(1, 2)})


def test_d4_dual_cycle_of_center():
    g = d4()
    dd = g.dual_data()
    assert dd.det_abs == 4
    expect = QCycle({"c": 2, "l1": 1, "l2": 1, "l3": 1})
    num = dd.numerators([int(v == "c") for v in g.ids])
    assert num == [8, 4, 4, 4]
    assert as_qcycle(g, num, dd.det_abs) == expect
    assert ref.dual_cycle(g, "c") == expect


def test_exmc_dual_identity():
    # 2 E*_1 - E*_5 = E_1
    g = exmc()
    dd = g.dual_data()
    alpha = {"E1": 2, "E5": -1}
    num = dd.numerators([alpha.get(v, 0) for v in g.ids])
    assert as_qcycle(g, num, dd.det_abs) == unit_cycle("E1")
    lhs = ref.dual_cycle(g, "E1").scale(2) - ref.dual_cycle(g, "E5")
    assert lhs == unit_cycle("E1")


def _recursion_subgraphs(g):
    """g and every branch subgraph reached from the nodes of g, of its
    branches, and so on: each graph the h1 recursion can visit, once."""
    seen, todo = {}, [g]
    while todo:
        h = todo.pop()
        if seen.setdefault(h.fingerprint(), h) is h:
            for v in h.nodes():
                todo += [br.subgraph for br in h.branches(v)]
    return list(seen.values())


def _check_dual_cycles(g):
    dd = g.dual_data()
    for v in g.ids:
        # row v of the adjugate is |det I| E*_v
        dual = as_qcycle(g, dd.numerators([int(u == v) for u in g.ids]),
                         dd.det_abs)
        assert dual == ref.dual_cycle(g, v)
        for w in g.ids:
            expect = Fraction(-1 if v == w else 0)
            assert ref.intersect(g, dual, unit_cycle(w)) == expect


@given(random_trees())
@settings(max_examples=40, deadline=None)
def test_dual_cycles_pair_to_minus_delta(g):
    _check_dual_cycles(g)


@pytest.mark.parametrize("family", ["fig1", "exmc", "stars", "huge", "cater"])
def test_dual_cycles_pair_to_minus_delta_on_named_graphs(family):
    # the adjugate read off the Smith form, on the fixtures, the small
    # stars, graphs whose U and V entries grow large, and every recursion
    # subgraph of each
    graphs = {
        "fig1": lambda: [fig1()],
        "exmc": lambda: [exmc()],
        "stars": lambda: [star(b, legs) for b, legs in small_stars()],
        "huge": lambda: [parse_graph(t) for t in HUGE_H_TREES.values()],
        "cater": lambda: [caterpillar(k) for k in range(3, 9)],
    }[family]()
    for g in graphs:
        for h in _recursion_subgraphs(g):
            _check_dual_cycles(h)


def _smith_forms_of_pg_uac_all_nodes(monkeypatch, capsys, path):
    """The matrices one ``pg-uac --all-nodes`` run on the graph file at path
    hands to the Smith form, and the graph objects whose dual data it
    built, one entry per object."""
    from splicegenus import cli, exact

    calls, built = [], {}
    real_snf, real_dual = exact.smith_normal_form, ResolutionGraph.dual_data

    def counted_snf(A):
        calls.append(A)
        return real_snf(A)

    def recorded_dual(self):
        built[id(self)] = self
        return real_dual(self)

    with monkeypatch.context() as m:
        m.setattr(exact, "smith_normal_form", counted_snf)
        m.setattr(ResolutionGraph, "dual_data", recorded_dual)
        assert cli.run(["pg-uac", "--input", path, "--all-nodes"]) == 0
    capsys.readouterr()
    return calls, list(built.values())


def test_one_smith_form_per_graph(monkeypatch, capsys):
    # |det I|, the adjugate, theta and c_1 all read one U I V = S per graph,
    # and the recursion reaches one graph object per vertex set from every
    # root; a chain branch needs only its nef shifts, read from the parent,
    # so only the 5 graphs with a node are decomposed (12 with the chains,
    # 28 before graphs shared their subgraphs)
    from splicegenus import exact
    from splicegenus.discgroup import group_data

    assert not hasattr(exact, "eliminate")
    calls, built = _smith_forms_of_pg_uac_all_nodes(
        monkeypatch, capsys, graph_file("fig1.json"))
    prints = [h.fingerprint() for h in built]
    assert len(calls) == len(prints) == len(set(prints)) == 5
    assert not any(h.require_valid().is_chain for h in built)
    g = fig1()
    g.dual_data()
    monkeypatch.setattr(exact, "smith_normal_form", None)
    assert group_data(g).dual is g.dual_data()


def test_no_chain_reaches_the_smith_form(monkeypatch, capsys):
    # every chain subgraph the recursion validates on fig1, from every root,
    # is absent from the matrices the Smith form sees
    calls, _ = _smith_forms_of_pg_uac_all_nodes(
        monkeypatch, capsys, graph_file("fig1.json"))
    chains = [h for h in _recursion_subgraphs(fig1())
              if h.require_valid().is_chain]
    assert len(chains) > 5
    for h in chains:
        assert h.intersection_matrix() not in calls


def test_one_smith_form_per_vertex_set_on_a_huge_tree(monkeypatch, capsys,
                                                      tmp_path):
    # |H| = 19,273: 2 Smith forms, where 8 were run with the chains and 11
    # objects for 8 sets were built before
    path = tmp_path / "huge.json"
    path.write_text(HUGE_H_TREES[19273])
    calls, built = _smith_forms_of_pg_uac_all_nodes(monkeypatch, capsys,
                                                    str(path))
    prints = [h.fingerprint() for h in built]
    assert len(calls) == len(prints) == len(set(prints)) == 2


@given(random_trees())
@settings(max_examples=40, deadline=None)
def test_det_sign_alternates(g):
    det = ref.det_bareiss(g.intersection_matrix())
    assert (det > 0) == (len(g) % 2 == 0)
    assert abs(det) == g.dual_data().det_abs


def _check_implied_identities(g, rng):
    """What follows from I A = -|det I| Id, which ``dual_data`` checks, or
    holds for every integer cycle; ``src/`` asserts none of it."""
    dd = g.dual_data()
    det, A = dd.det_abs, dd.adjugate
    assert all(dd.diag)  # I is nonsingular
    # -I is an irreducible Stieltjes matrix on a connected negative definite
    # tree, so its inverse, A / |det I|, is entrywise positive
    assert all(x > 0 for row in A for x in row)
    for row in A:  # node_weights: m = e_v A_v / |det I|, integral, gcd 1
        e = det // math.gcd(*row)
        assert all(e * x % det == 0 for x in row)
        assert math.gcd(*(e * x // det for x in row)) == 1
    K, _ = g.canonical_cycle()
    assert g.intersections(K) == [det * (-g.weight[w] - 2) for w in g.ids]
    for _ in range(4):  # Riemann-Roch: D.(D+K) is even for every integral D
        d = [rng.randint(-3, 3) for _ in g.ids]
        assert sum(x * (y - g.weight[w] - 2) for w, x, y
                   in zip(g.ids, d, g.intersections(d))) % 2 == 0
    if not g.nodes():
        return
    gd = group_data(g)
    chars = (list(gd.characters()) if gd.order <= 500 else
             [tuple(rng.randrange(d) for d in gd.invariant_factors)
              for _ in range(20)])
    for v in g.nodes():
        nw, k = g.node_weights(v), g.index(v)
        # v_degree: sum_w alpha_w m_vw |det I| = e_v (A alpha)_v
        exps = {w: rng.randint(0, 4) for w in g.ends()}
        assert v_degree(g, v, exps) * det == nw.e * sum(
            A[k][g.index(w)] * a for w, a in exps.items())
        cols = [[g.index(w) for w in br.subgraph.ids] for br in g.branches(v)]
        for chi in chars:
            num = gd._c1_numerators(chi)
            # nef_shift: D_{chi,i} is effective
            assert all(c >= 0 for b in cols for c in nef_shift(dd, k, b, num))
            # h1_twisted: [c_1 - (n/e_v) E_v] <= 0, so D' = D - it is >= 0
            for n in (0, 1, nw.e, nw.a_v + 1):
                assert max(_twist(g, v, chi, n)[1]) <= 0


@pytest.mark.parametrize("family", ["d4", "e8", "exmc", "fig1", "stars",
                                    "seeded"])
def test_identities_the_adjugate_check_implies(family):
    # each identity was an assert in src/ on every call; they hold on the
    # graph and every subgraph its recursion reaches
    tops = {
        "d4": lambda: [d4()],
        "e8": lambda: [e8()],
        "exmc": lambda: [exmc()],
        "fig1": lambda: [fig1()],
        "stars": lambda: [star(b, legs) for b, legs in small_stars()],
        "seeded": lambda: list(splice_quotient_trees(1, 10)),
    }[family]()
    rng = random.Random(family)
    for top in tops:
        for g in _recursion_subgraphs(top):
            _check_implied_identities(g, rng)


@given(random_trees(max_n=9))
@settings(max_examples=60, deadline=None)
def test_identities_the_adjugate_check_implies_on_random_trees(g):
    for h in _recursion_subgraphs(g):
        _check_implied_identities(h, random.Random(len(h)))


@pytest.mark.parametrize("sign", [1, -1], ids=["too large", "too small"])
@pytest.mark.parametrize("make", [d4, e8, fig1], ids=["d4", "e8", "fig1"])
def test_dual_data_catches_a_wrong_adjugate_entry(monkeypatch, make, sign):
    # V' = V - sign e_i (row j of I V) in the Smith form moves A = -V D U,
    # D = diag(|det I| / s_k), by sign |det I| at (i, j) alone, because
    # I V D U = |det I| Id; I A = -|det I| Id no longer holds
    good = make().dual_data()
    i, j = 0, len(good.adjugate) - 1
    patched = _wrong_smith_form(exact.smith_normal_form, i, j, sign)
    U, S, V = patched(make().intersection_matrix())
    n, det = len(S), good.det_abs
    wrong = [[-sum(V[r][k] * (det // S[k][k]) * U[k][c] for k in range(n))
              for c in range(n)] for r in range(n)]
    assert [(r, c, wrong[r][c] - good.adjugate[r][c])
            for r in range(n) for c in range(n)
            if wrong[r][c] != good.adjugate[r][c]] == [(i, j, sign * det)]
    monkeypatch.setattr(exact, "smith_normal_form", patched)
    with pytest.raises(InternalCheckError):
        make().dual_data()


def _wrong_smith_form(real, i, j, sign):
    """``real`` with V' = V - sign e_i (row j of I V): A moves by
    sign |det I| at (i, j) alone (``test_dual_data_catches_...``)."""
    def patched(M):
        U, S, V = real(M)
        n = len(M)
        row_j = [sum(M[j][t] * V[t][c] for t in range(n)) for c in range(n)]
        V = [r[:] for r in V]
        V[i] = [x - sign * y for x, y in zip(V[i], row_j)]
        return U, S, V
    return patched


_WRONG_ADJUGATE_ON_D4 = """
import sys
from fixtures import d4
from splicegenus import exact
from splicegenus.errors import InternalCheckError
from test_graph import _wrong_smith_form
exact.smith_normal_form = _wrong_smith_form(exact.smith_normal_form, 0, 3, 1)
try:
    print(sys.flags.optimize, d4().dual_data().adjugate[0])
except InternalCheckError as exc:
    print(sys.flags.optimize, "InternalCheckError:", exc)
"""


def test_adjugate_check_is_kept_under_python_O():
    # an assert would vanish under -O and d4 would return row [8, 4, 4, 8]
    here = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=os.pathsep.join(
        [os.path.join(here, os.pardir, "src"), here]))
    proc = subprocess.run([sys.executable, "-O", "-c", _WRONG_ADJUGATE_ON_D4],
                          capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == ("1 InternalCheckError: "
                           "I A != -|det I| Id in column 'c'\n")


# -- node weights ----------------------------------------------------------

def test_single_vertex_node_weights():
    g = single()
    nw = g.node_weights("e")
    assert g.dual_data().adjugate == [[1]]
    assert nw.e == 2 and nw.m == {"e": 1}
    assert nw.a_v == 2


def test_d4_center_node_weights():
    g = d4()
    nw = g.node_weights("c")
    assert g.dual_data().adjugate[g.index("c")] == [8, 4, 4, 4]
    assert nw.e == 1
    assert nw.m == {"c": 2, "l1": 1, "l2": 1, "l3": 1}
    assert nw.a_v == 2


@given(random_trees())
@settings(max_examples=30, deadline=None)
def test_m_weights_integral_with_gcd_one(g):
    import math
    for v in g.ids:
        nw = g.node_weights(v)
        assert all(isinstance(m, int) and m > 0 for m in nw.m.values())
        assert math.gcd(*nw.m.values()) == 1


def test_end_variable_v_degree_is_m():
    # v-degree of z(E*_w) equals e_v * (coefficient of E*_w at v) = m_vw
    g = fig1()
    for v in ("v0", "v1", "v2"):
        nw = g.node_weights(v)
        for w in g.ends():
            dual = ref.dual_cycle(g, w)
            assert nw.e * dual[v] == nw.m[w]


# -- canonical and fundamental cycles --------------------------------------

def test_all_minus_two_canonical_zero():
    K, gor = e8().canonical_cycle()
    assert K == [0] * 8 and gor


def test_single_minus_three_canonical():
    g = single(-3)
    K, gor = g.canonical_cycle()
    # K . E = -(-3) - 2 = 1 and E . E = -3 force the coefficient -1/3
    assert K == [-1] and g.dual_data().det_abs == 3 and not gor
    assert as_qcycle(g, K, 3) == QCycle({"e": Fraction(-1, 3)})


def test_fig1_numerically_gorenstein():
    _, gor = fig1().canonical_cycle()
    assert gor


def test_single_vertex_fundamental():
    g = single()
    Z, pa = g.fundamental_cycle()
    assert Z == [1] and pa == 0
    assert as_qcycle(g, Z) == unit_cycle("e")


def test_fig1_pa_is_4():
    _, pa = fig1().fundamental_cycle()
    assert pa == 4


def test_d4_fundamental_cycle():
    g = d4()
    Z, pa = g.fundamental_cycle()
    assert as_qcycle(g, Z) == QCycle({"c": 2, "l1": 1, "l2": 1, "l3": 1})
    assert pa == 0


@given(random_trees())
@settings(max_examples=25, deadline=None)
def test_fundamental_cycle_nef_and_minimal(g):
    import itertools
    z, _ = g.fundamental_cycle()
    assert all(type(x) is int for x in z)
    Z = as_qcycle(g, z)
    for w in g.ids:
        assert ref.intersect(g, Z, unit_cycle(w)) <= 0
        assert Z[w] >= 1
    # minimality by brute force on small graphs: no smaller positive cycle
    # is anti-nef
    if len(g) <= 5:
        ranges = [range(1, int(Z[w]) + 1) for w in g.ids]
        for combo in itertools.product(*ranges):
            D = QCycle(dict(zip(g.ids, combo)))
            if D == Z:
                continue
            if all(ref.intersect(g, D, unit_cycle(w)) <= 0 for w in g.ids):
                pytest.fail(f"smaller anti-nef cycle {D!r} below {Z!r}")


@given(random_trees())
@settings(max_examples=30, deadline=None)
def test_arithmetic_genus_matches_intersection_formula(g):
    # p_a(Z) = 1 - chi(O_Z) from Riemann-Roch against 1 + Z.(Z+K)/2
    z, pa = g.fundamental_cycle()
    k, _ = g.canonical_cycle()
    Z, K = as_qcycle(g, z), as_qcycle(g, k, g.dual_data().det_abs)
    assert pa == 1 + ref.intersect(g, Z, Z + K) / 2


def test_canonical_adjunction_exact():
    for g in (fig1(), exmc(), d4(), single(-7)):
        k, _ = g.canonical_cycle()
        K = as_qcycle(g, k, g.dual_data().det_abs)
        for w in g.ids:
            assert ref.intersect(g, K, unit_cycle(w)) == -g.weight[w] - 2


# -- branches --------------------------------------------------------------

def test_fig1_branches_of_v0():
    g = fig1()
    brs = g.branches("v0")
    supports = sorted(sorted(b.subgraph.ids) for b in brs)
    assert supports == [
        ["a1", "u6", "u7", "u9", "v2", "w4", "w5"],
        ["u2", "u4", "v1", "w1", "w2"],
        ["w3"],
    ]


def test_d4_center_branches_single_vertices():
    brs = d4().branches("c")
    assert [b.subgraph.ids for b in brs] == [["l1"], ["l2"], ["l3"]]


def test_exmc_branches_of_E5():
    brs = exmc().branches("E5")
    supports = sorted(sorted(b.subgraph.ids) for b in brs)
    assert supports == [["E1"], ["E2"], ["E3", "E4", "E6"]]


def test_branch_order_deterministic():
    g = fig1()
    assert [b.attach for b in g.branches("v0")] == ["u4", "u6", "w3"]


def _branch(g, v, attach):
    return next(b.subgraph for b in g.branches(v) if b.attach == attach)


def test_a_vertex_set_names_one_subgraph():
    # {u2, u4, v1, w1, w2} from root v0, and from v0 inside v2's branch at u7
    g = fig1()
    from_v0 = _branch(g, "v0", "u4")
    via_v2 = _branch(_branch(g, "v2", "u7"), "v0", "u4")
    assert sorted(from_v0.ids) == ["u2", "u4", "v1", "w1", "w2"]
    assert via_v2 is from_v0
    assert g.subgraph(g.ids) is g
    # it is the input's induced subgraph, in the input's vertex order
    keep = set(from_v0.ids)
    induced = ResolutionGraph([(v, g.weight[v]) for v in g.ids if v in keep],
                              [e for e in g.edges if keep.issuperset(e)])
    assert (from_v0.ids, from_v0.weight, from_v0.edges) == \
        (induced.ids, induced.weight, induced.edges)
    # sharing stays within one input
    assert _branch(fig1(), "v0", "u4") is not from_v0


@given(random_trees(max_n=7))
@settings(max_examples=25, deadline=None)
def test_branches_partition_and_validate(g):
    for v in g.ids:
        brs = g.branches(v)
        assert len(brs) == g.degree(v)
        seen = set()
        for b in brs:
            assert b.subgraph.validate().valid
            assert b.is_chain == b.subgraph.validate().is_chain
            assert not seen & set(b.subgraph.ids)
            seen |= set(b.subgraph.ids)
        assert seen == set(g.ids) - {v}


def _recursion_graphs(g):
    """g and every branch with a node of a graph in the list, each once."""
    out, stack = [], [g]
    while stack:
        h = stack.pop()
        if all(h is not x for x in out):
            out.append(h)
            stack += [b.subgraph for v in h.nodes() for b in h.branches(v)
                      if not b.is_chain]
    return out


@pytest.mark.parametrize("graphs", [
    lambda: [d4(), e8(), exmc(), fig1()],
    lambda: [star(b, legs) for b, legs in small_stars()],
    lambda: list(splice_quotient_trees(1, 10)),
    lambda: [caterpillar(k) for k in (3, 4, 5)],
], ids=["fixtures", "small-stars", "splice-quotient-trees", "caterpillars"])
def test_branches_record_the_validation_the_branch_would_compute(
        graphs, monkeypatch):
    # a branch of a valid tree is a connected induced subtree with a
    # principal submatrix of a negative definite matrix: valid and
    # negative definite, a chain exactly when it has no node.  No branch
    # is decomposed to be validated, and the recorded report is the one it
    # would build
    graphs = graphs()
    # splice_quotient_trees validates its trees as it draws them
    fresh = [g for g in graphs if "validation" not in g._cache]
    bareiss, smith = record_eliminations(monkeypatch)
    recorded = []
    for g in graphs:
        for h in _recursion_graphs(g):
            for v in h.nodes():
                for b in h.branches(v):
                    rep = b.subgraph._cache.get("validation")
                    assert (rep is None) == b.is_chain
                    if rep is not None:
                        assert b.subgraph.require_valid() is rep
                        recorded.append((b.subgraph, rep))
    # one Smith form per input graph, in input order, none per branch, and
    # no Bareiss pass: each input's definiteness is read off its adjugate
    assert smith == [g.intersection_matrix() for g in fresh]
    assert bareiss == []
    for sub, rep in recorded:
        assert rep == ResolutionGraph.validate.__wrapped__(sub)


# -- vertex ids -------------------------------------------------------------

@pytest.mark.parametrize("call", [
    lambda g: c_v_chi(g, "zz", (0, 0)),
    lambda g: molien_coeffs(g, "zz", 3),
    lambda g: P_chi(g, "zz", (0, 0), 3),
    lambda g: v_degree(g, "zz", {}),
], ids=["c_v_chi", "molien_coeffs", "P_chi", "v_degree"])
def test_unknown_vertex_is_an_input_error(call):
    # every lookup of a vertex id goes through ResolutionGraph.index
    with pytest.raises(GraphInputError,
                       match=re.escape("'zz' is not a vertex of the graph")):
        call(d4())


@pytest.mark.parametrize("call", [
    a_invariant,
    truncation_m,
    lambda g, v: P_chi(g, v, (0, 0), 3),
    lambda g, v: molien_coeffs(g, v, 3),
    lambda g, v: molien_closed(g, v, (0, 0)),
    lambda g, v: c_v_chi(g, v, (0, 0)),
    lambda g, v: c_v_route_a(g, v, (0, 0)),
    lambda g, v: c_v_chi_routes(g, v, (0, 0)),
    lambda g, v: hilbert_data(g, v, 3),
    lambda g, v: find_admissible_monomial(g, v, g.branches("c")[0]),
    lambda g, v: P_chi(g, v, (0, 0), 0),
    lambda g, v: v_degree(g, v, {"l2": 1, "l3": 2}),
    lambda g, v: minimal_nef_correction(g, v, (0, 0), 1),
    lambda g, v: h1_twisted(g, v, (0, 0), 1, [0, 0, 0, 0]),
    lambda g, v: bruteforce_eigendims(g, v, emit_splice_system(g), 3),
], ids=["a_invariant", "truncation_m", "P_chi", "molien_coeffs",
        "molien_closed", "c_v_chi", "c_v_route_a", "c_v_chi_routes",
        "hilbert_data", "find_admissible_monomial", "P_chi_at_0", "v_degree",
        "minimal_nef_correction", "h1_twisted", "bruteforce_eigendims"])
def test_node_taking_functions_reject_a_leaf(call):
    # the vertex lookup comes first, so an unknown id is named as such
    with pytest.raises(GraphInputError,
                       match=re.escape("'l1' is not a node of the graph")):
        call(d4(), "l1")
    for v in ("zz", ["a"], None):
        with pytest.raises(GraphInputError,
                           match=re.escape(f"{v!r} is not a vertex of the graph")):
            call(d4(), v)


@pytest.mark.parametrize("v", ["zz", ["a"], None],
                         ids=["unknown", "unhashable", "none"])
def test_index_rejects_what_is_not_a_vertex(v):
    # one position map serves index, intersection_matrix and the branch
    # records; the memo names an unhashable id through index
    g = d4()
    assert [g.index(w) for w in g.ids] == list(range(len(g)))
    for call in (g.index, g.node_weights, g.branches):
        with pytest.raises(GraphInputError,
                           match=re.escape(f"{v!r} is not a vertex of the graph")):
            call(v)


def test_numerators_take_no_rows():
    # a single position reads its row of the adjugate; see v_degree
    assert list(inspect.signature(DualData.numerators).parameters) == \
        ["self", "alpha"]


# -- weight constraint ------------------------------------------------------

@pytest.mark.parametrize("weight", [float("nan"), float("inf"), float("-inf"),
                                    None, "x", "-2", -2.5, [-2]],
                         ids=repr)
def test_non_integral_weight_is_an_input_error(weight):
    with pytest.raises(GraphInputError,
                       match=re.escape("weight of 'a' is not an integer")):
        ResolutionGraph([("a", weight)], [])


def test_integral_weights_are_kept_as_ints():
    g = ResolutionGraph([("a", -2.0), ("b", Fraction(-3)), ("c", -2)],
                        [("a", "b"), ("b", "c")])
    assert g.weight == {"a": -2, "b": -3, "c": -2}
    assert all(type(w) is int for w in g.weight.values())


def test_weight_zero_rejected_by_validation():
    g = ResolutionGraph([("a", 0)], [])
    assert not g.validate().valid


@st.composite
def _trees_with_a_weight_above_minus_one(draw):
    g = draw(random_trees(max_n=7))
    u = draw(st.sampled_from(g.ids))
    w = draw(st.integers(0, 3))
    return ResolutionGraph([(v, w if v == u else g.weight[v]) for v in g.ids],
                           g.edges), u


@given(_trees_with_a_weight_above_minus_one())
@example((ResolutionGraph([("a", 0)], []), "a"))
@settings(max_examples=50, deadline=None)
def test_a_weight_above_minus_one_fails_the_definiteness_pass(case):
    # E_u^2 >= 0 on the diagonal: the leading block through u is not
    # negative definite, so a minor up to u's is wrongly signed and
    # validation needs no separate weight bound
    g, u = case
    rep = g.validate()
    assert rep.is_tree and not rep.valid and not rep.negative_definite
    assert 1 <= rep.minor_index <= g.index(u) + 1
    with pytest.raises(NotNegativeDefinite):
        g.require_valid()
