import functools
import itertools
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference as ref
from fixtures import (
    caterpillar,
    d4,
    e8,
    exmc,
    fig1,
    small_stars,
    splice_quotient_trees,
    star,
)
from splicegenus import splice
from splicegenus.discgroup import group_data
from splicegenus.errors import GraphInputError
from splicegenus.graph import parse_graph
from splicegenus.splice import (
    check_monomial_condition,
    emit_splice_system,
    find_admissible_monomial,
    v_degree,
    validate_witness,
    verify_equivariance,
)


# The two trees of the ROADMAP's monomial-condition item: one whose (x2, x1)
# and (x3, x2) witnesses need an exponent above 64 (115 at one end), and one
# with no witness for (x3, x1)
TREE_115 = (
    '{"vertices":[{"id":"x0","weight":-5},{"id":"x1","weight":-5},'
    '{"id":"x2","weight":-5},{"id":"x3","weight":-3},{"id":"x4","weight":-5},'
    '{"id":"x5","weight":-4},{"id":"x6","weight":-5},{"id":"x7","weight":-5},'
    '{"id":"x8","weight":-5}],"edges":[["x0","x1"],["x1","x2"],["x2","x3"],'
    '["x2","x4"],["x3","x5"],["x2","x6"],["x3","x7"],["x0","x8"]]}')
TREE_VIOLATED = (
    '{"vertices":[{"id":"x0","weight":-5},{"id":"x1","weight":-2},'
    '{"id":"x2","weight":-3},{"id":"x3","weight":-5},{"id":"x4","weight":-3},'
    '{"id":"x5","weight":-4},{"id":"x6","weight":-2},{"id":"x7","weight":-3},'
    '{"id":"x8","weight":-4}],"edges":[["x0","x1"],["x1","x2"],["x1","x3"],'
    '["x1","x4"],["x4","x5"],["x3","x6"],["x6","x7"],["x3","x8"]]}')


def _branch(g, v, attach):
    return next(b for b in g.branches(v) if b.attach == attach)


# -- monomials and v-degrees ------------------------------------------------

def test_witness_exponents_drop_zero_entries():
    g = exmc()
    wit = validate_witness(g, "E5", _branch(g, "E5", "E1"), {"E1": 2, "E2": 0})
    assert wit.exponents == {"E1": 2}


def test_v_degree_known_values():
    g = exmc()
    # end weights m at E5 are E1,E2 -> 7, E3 -> 6, E4 -> 4
    assert v_degree(g, "E5", {"E1": 2}) == 14
    assert v_degree(g, "E5", {"E2": 2}) == 14
    assert v_degree(g, "E5", {"E3": 1, "E4": 2}) == 14
    assert v_degree(g, "E6", {"E3": 2}) == 6
    assert v_degree(g, "E6", {"E4": 3}) == 6
    assert v_degree(g, "E6", {"E1": 1, "E2": 1}) == 6


# -- witness validation ----------------------------------------------------

def test_validate_known_two_node_witnesses():
    # the six admissible monomials of the z1^2+z2^2+z3z4^2, z3^2+z4^3+z1z2
    # system, one per (node, branch)
    g = exmc()
    cases = [
        ("E5", "E1", {"E1": 2}),
        ("E5", "E2", {"E2": 2}),
        ("E5", "E6", {"E3": 1, "E4": 2}),
        ("E6", "E3", {"E3": 2}),
        ("E6", "E4", {"E4": 3}),
        ("E6", "E5", {"E1": 1, "E2": 1}),
    ]
    for v, attach, exps in cases:
        wit = validate_witness(g, v, _branch(g, v, attach), exps)
        assert wit is not None
        assert all(type(x) is int and x >= 0 for x in wit.residual)
        support = {w for w, x in zip(g.ids, wit.residual) if x}
        assert support <= set(_branch(g, v, attach).subgraph.ids)


def test_validate_alternative_witnesses_on_three_node_graph():
    # a published choice of admissible monomials; equally valid even where
    # the minimal search below returns a different one
    g = fig1()
    cases = [
        ("v0", "u4", {"w1": 1}),
        ("v0", "w3", {"w3": 2}),
        ("v0", "u6", {"w4": 1, "w5": 1}),
        ("v1", "u2", {"w1": 3}),
        ("v1", "w2", {"w2": 4}),
        ("v1", "u4", {"w3": 30}),
        ("v2", "u7", {"w1": 1, "w2": 7, "w3": 1}),
        ("v2", "a1", {"w4": 3}),
        ("v2", "u9", {"w5": 3}),
    ]
    for v, attach, exps in cases:
        assert validate_witness(g, v, _branch(g, v, attach), exps) is not None


def test_validate_rejects_bad_witnesses():
    g = exmc()
    br = _branch(g, "E5", "E1")
    # exponent on a non-end vertex
    assert validate_witness(g, "E5", br, {"E5": 1}) is None
    # support off the branch
    assert validate_witness(g, "E5", br, {"E2": 2}) is None
    # residual not effective / not integral
    assert validate_witness(g, "E5", br, {"E1": 1}) is None
    assert validate_witness(g, "E5", br, {"E1": 3}) is None


@pytest.mark.parametrize("a", [1.5, True, 2.0])
def test_non_int_exponents_are_refused_not_truncated(a):
    # {"w1": 1} is a witness at (v0, u4) on fig1, and no non-int stands for 1
    g = fig1()
    br = _branch(g, "v0", "u4")
    assert validate_witness(g, "v0", br, {"w1": 1}) is not None
    assert validate_witness(g, "v0", br, {"w1": a}) is None
    with pytest.raises(GraphInputError, match="exponents must be ints"):
        v_degree(g, "v0", {"w1": a})


@pytest.mark.parametrize("exps, message", [
    ({"zz": 1}, "'zz' is not a vertex of the graph"),
    ({"w1": -1}, "exponents must be ints >= 0"),
    ({"v1": 1}, "'v1' is not an end of the graph"),
], ids=["unknown", "negative", "node"])
def test_v_degree_refuses_what_no_monomial_has(exps, message):
    # validate_witness refuses each of these as well
    g = fig1()
    assert validate_witness(g, "v0", _branch(g, "v0", "u4"), exps) is None
    with pytest.raises(GraphInputError, match=re.escape(message)):
        v_degree(g, "v0", exps)


# -- the search ------------------------------------------------------------

@st.composite
def _knapsacks(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    weights = draw(st.lists(st.integers(1, 12), min_size=n, max_size=n))
    caps = draw(st.none() | st.lists(st.integers(0, 6), min_size=n, max_size=n))
    return weights, draw(st.integers(0, 40)), caps


@given(_knapsacks())
@settings(max_examples=300, deadline=None)
def test_exponent_vectors_match_the_box(case):
    # the box [0, cap]^n, with degree // w as the cap of an uncapped weight
    weights, degree, caps = case
    tops = caps or [degree // w for w in weights]
    box = [a for a in itertools.product(*(range(c + 1) for c in tops))
           if sum(x * w for x, w in zip(a, weights)) == degree]
    assert splice._exponent_vectors(weights, degree, caps) == box


def test_search_agrees_with_validation_path():
    g = exmc()
    for v in g.nodes():
        for br in g.branches(v):
            wit = find_admissible_monomial(g, v, br)
            assert wit is not None
            again = validate_witness(g, v, br, wit.exponents)
            assert again is not None
            assert again.exponents == wit.exponents


def test_search_returns_none_at_bound_zero():
    g = exmc()
    br = _branch(g, "E5", "E1")
    assert find_admissible_monomial(g, "E5", br, bound=0) is None


def test_condition_report_two_node_graph():
    rep = check_monomial_condition(exmc())
    assert rep.verdict == "satisfied"
    found = {k: w.exponents for k, w in rep.witnesses.items()}
    assert found == {
        ("E5", "E1"): {"E1": 2},
        ("E5", "E2"): {"E2": 2},
        ("E5", "E6"): {"E3": 1, "E4": 2},
        ("E6", "E3"): {"E3": 2},
        ("E6", "E4"): {"E4": 3},
        ("E6", "E5"): {"E1": 1, "E2": 1},
    }


def test_condition_report_three_node_graph_minimal_witnesses():
    rep = check_monomial_condition(fig1())
    assert rep.verdict == "satisfied"
    found = {k: w.exponents for k, w in rep.witnesses.items()}
    # minimal by (total exponent, lex); differs from the published choice
    # at (v1, u4) and (v2, u7) by equally admissible monomials
    assert found[("v0", "u4")] == {"w1": 1}
    assert found[("v0", "w3")] == {"w3": 2}
    assert found[("v0", "u6")] == {"w4": 1, "w5": 1}
    assert found[("v1", "u4")] == {"w4": 30}
    assert found[("v2", "u7")] == {"w1": 4, "w2": 3, "w3": 1}


def test_condition_unknown_when_bound_too_small():
    rep = check_monomial_condition(fig1(), bound=4)
    assert rep.verdict == "unknown"
    assert rep.to_json()["verdict"] == "unknown"


@pytest.mark.parametrize("bound", [None, "3", -1, True, 2.5], ids=repr)
def test_bound_must_be_a_nonnegative_int(bound):
    # the library checks the bound as the CLI's --bound does; 0 and 64
    # stay valid (above and test_search_returns_none_at_bound_zero)
    g = fig1()
    msg = re.escape(f"bound must be a nonnegative int, got {bound!r}")
    with pytest.raises(GraphInputError, match=msg):
        check_monomial_condition(g, bound=bound)
    with pytest.raises(GraphInputError, match=msg):
        find_admissible_monomial(g, "v0", g.branches("v0")[0], bound=bound)


# -- emitted systems -------------------------------------------------------

def test_emitted_system_shape_and_quasihomogeneity():
    g = exmc()
    system = emit_splice_system(g, seed=0)
    assert [ns.node for ns in system.nodes] == ["E5", "E6"]
    for ns in system.nodes:
        assert len(ns.monomials) == 3 and len(ns.equations) == 1
        degs = {v_degree(g, ns.node, m) for m in ns.monomials}
        assert degs == {ns.v_degree}
    assert system.nodes[0].v_degree == 14
    assert system.nodes[1].v_degree == 6


def test_emitted_system_deterministic():
    a = emit_splice_system(exmc(), seed=3).to_json()
    b = emit_splice_system(exmc(), seed=3).to_json()
    assert a == b
    c = emit_splice_system(exmc(), seed=4).to_json()
    assert a != c


def test_equivariance_of_emitted_systems():
    # every emitted monomial passed validate_witness, so D - E*_v is
    # integral and theta(D) = psi_v
    graphs = [d4(), e8(), exmc(), fig1(),
              *(star(b, legs) for b, legs in small_stars()),
              *splice_quotient_trees(1, 10), *splice_quotient_trees(2, 20)]
    for g in graphs:
        system = emit_splice_system(g, seed=0)
        ok, offender = verify_equivariance(g, system)
        assert ok and offender is None


def test_equivariance_detects_corruption():
    g = exmc()
    system = emit_splice_system(g, seed=0)
    bad = {"E1": 1}  # wrong character at E5
    system.nodes[0].monomials[0] = bad
    ok, offender = verify_equivariance(g, system)
    assert not ok
    assert offender[1] == "E5" and offender[2] == {"E1": 1}
    # the Fraction pairing over every h agrees, and names the same theta(D)
    assert not _equivariant_by_pairing(g, system)
    assert offender[0] == ref.theta(g, ref.class_of(g, _cycle(g, bad)))


def test_emitted_v_degree_is_m_vv_for_every_monomial():
    # every witness solves sum_w a_w m_vw = m_vv, the search's one
    # equation, so the system reads its v-degree off the node weights
    for g in [d4(), e8(), exmc(), fig1(), *splice_quotient_trees(1, 10)]:
        for ns in emit_splice_system(g).nodes:
            m_vv = g.node_weights(ns.node).m[ns.node]
            assert ns.v_degree == m_vv
            assert [v_degree(g, ns.node, mono) for mono in ns.monomials] == \
                [m_vv] * len(ns.monomials)


def test_emit_requires_monomial_condition():
    # D4 is a quotient singularity with delta = 3 at its node, but the
    # search still succeeds; assert emission works and is equivariant
    g = d4()
    system = emit_splice_system(g, seed=1)
    assert len(system.nodes) == 1 and len(system.nodes[0].equations) == 1
    assert verify_equivariance(g, system)[0]


def _coefficient_rows(rng, delta):
    """delta - 2 rows of delta entries: the generic draw of
    emit_splice_system, or small entries and repeated or scaled columns,
    where some maximal minors vanish."""
    kind = rng.randrange(3)
    hi = 997 if kind == 0 else 2
    F = [[rng.randint(0 if kind else 1, hi) for _ in range(delta)]
         for _ in range(delta - 2)]
    if kind == 2:
        i, j = rng.sample(range(delta), 2)
        c = rng.randint(-3, 3)
        for row in F:
            row[j] = c * row[i]
    return F


def test_minor_check_by_rank_matches_determinants():
    rng = random.Random(5)
    seen = set()
    for _ in range(300):
        F = _coefficient_rows(rng, rng.randint(3, 7))
        by_det = all(ref.det_bareiss([[row[c] for c in cols] for row in F])
                     for cols in itertools.combinations(range(len(F[0])),
                                                        len(F)))
        assert splice._all_maximal_minors_nonzero(F) == by_det, F
        seen.add(by_det)
    assert seen == {True, False}


# -- the QCycle definitions as references ------------------------------------

def _cycle(g, exponents):
    """sum_w alpha_w E*_w as a reference QCycle."""
    return ref.from_alpha(g, [exponents.get(w, 0) for w in g.ids])


@pytest.mark.parametrize("make", [exmc, fig1])
def test_validate_witness_matches_qcycle_definition(make):
    # every end-exponent vector with entries <= 3, on every branch: D - E*_v
    # must be integral, effective and supported on the branch
    g = make()
    ends = g.ends()
    duals = {v: ref.dual_cycle(g, v) for v in g.nodes()}
    hits = 0
    for vals in itertools.product(range(4), repeat=len(ends)):
        exps = dict(zip(ends, vals))
        D = _cycle(g, exps)
        for v, dual in duals.items():
            residual = D - dual
            ok = residual.is_integral() and residual.is_effective()
            for br in g.branches(v):
                wit = validate_witness(g, v, br, exps)
                assert (wit is not None) == (
                    ok and residual.support() <= set(br.subgraph.ids))
                if wit is not None:
                    hits += 1
                    assert wit.exponents == {w: a for w, a in exps.items() if a}
                    assert ref.as_qcycle(g, wit.residual) == residual
    assert hits > 0


def test_monomial_search_matches_exhaustive_loop():
    # enumerating the v-degree equation and validating in key order returns
    # the witness of the loop over the [0, bound] box that validates every
    # candidate
    graphs = [d4(), e8(), exmc(), fig1(), *splice_quotient_trees(seed=1, count=10),
              *(star(b, legs) for b, legs in small_stars())]
    checked = 0
    for g in graphs:
        for v in g.nodes():
            for br in g.branches(v):
                for bound in (0, 1, 2, 16):
                    wit = find_admissible_monomial(g, v, br, bound=bound)
                    assert wit == ref.find_admissible_monomial(g, v, br, bound=bound)
                    checked += wit is not None
    assert checked >= 3 * 14
    # caterpillars: many nodes, and ends of unequal weight on each branch
    for k, bounds in ((3, range(17)), (4, (0, 1, 2)), (5, (0, 1, 2))):
        g = caterpillar(k)
        for v in g.nodes():
            for br in g.branches(v):
                for bound in bounds:
                    wit = find_admissible_monomial(g, v, br, bound=bound)
                    assert wit == ref.find_admissible_monomial(g, v, br, bound=bound)
    # the ROADMAP trees: one needs exponent 115 at an end, one is violated
    g = parse_graph(TREE_115)
    missing = {64: {("x2", "x1"), ("x3", "x2")}, 120: set()}
    for bound, absent in missing.items():
        for v in g.nodes():
            for br in g.branches(v):
                wit = find_admissible_monomial(g, v, br, bound=bound)
                assert wit == ref.find_admissible_monomial(g, v, br, bound=bound)
                assert (wit is None) == ((v, br.attach) in absent)
    g = parse_graph(TREE_VIOLATED)
    br = _branch(g, "x3", "x1")
    for bound in (64, 120):
        assert ref.find_admissible_monomial(g, "x3", br, bound=bound) is None
        assert find_admissible_monomial(g, "x3", br, bound=bound) is None
    # 10**6 is above every m_vv // m_vw, so the search is exhaustive
    assert find_admissible_monomial(g, "x3", br, bound=10**6) is None


@pytest.mark.parametrize("k, order", [(3, 2857), (4, 32353), (5, 511855),
                                      (6, 5489407)])
def test_caterpillars_satisfy_the_monomial_condition(k, order):
    g = caterpillar(k)
    assert group_data(g).order == order
    assert check_monomial_condition(g, bound=64).verdict == "satisfied"


def _count_validations(monkeypatch, check=None):
    calls = []

    def counted(g, v, branch, exponents):
        if check:
            check(g, v, branch, exponents)
        calls.append(dict(exponents))
        return validate_witness(g, v, branch, exponents)

    monkeypatch.setattr(splice, "validate_witness", counted)
    return calls


def test_large_bound_costs_the_caps(monkeypatch):
    # every m_vv // m_vw on fig1 is below 64, so a larger bound visits the
    # same candidates
    calls = _count_validations(monkeypatch)
    found = {}
    for bound in (64, 10**9):
        calls.clear()
        rep = check_monomial_condition(fig1(), bound=bound)
        found[bound] = ({k: w.exponents for k, w in rep.witnesses.items()},
                        len(calls))
    assert found[64] == found[10**9]
    assert found[64][1] > 0


def test_candidates_have_the_node_v_degree(monkeypatch):
    graphs = [d4(), e8(), exmc(), fig1(), *splice_quotient_trees(seed=1, count=10)]

    def check(g, v, branch, exps):
        assert v_degree(g, v, exps) == g.node_weights(v).m[v]
        assert set(exps) <= set(g.ends()) & set(branch.subgraph.ids)

    calls = _count_validations(monkeypatch, check)
    for g in graphs:
        assert check_monomial_condition(g).verdict == "satisfied"
    assert len(calls) >= sum(len(g.branches(v)) for g in graphs for v in g.nodes())


@functools.lru_cache(maxsize=16)
def _lifts(g):
    """A QCycle lift of every element of H, made once per graph."""
    return [ref.lift(g, h) for h in ref.elements(g)]


@functools.lru_cache(maxsize=1024)
def _class_pairings(g, cls):
    D = ref.lift(g, cls)
    return [ref.mod1(ref.intersect(g, h, D)) for h in _lifts(g)]


_class_theta = functools.lru_cache(maxsize=1024)(ref.theta)


def _pairings(g, D):
    """theta(h, D) for every h in H, by the Fraction pairing; the pairing
    depends on D only through its class, so each class is paired once."""
    return _class_pairings(g, ref.class_of(g, D))


def _equivariant_by_pairing(g, system):
    return all(_pairings(g, _cycle(g, mono)) == _pairings(g, ref.dual_cycle(g, ns.node))
               for ns in system.nodes for mono in ns.monomials)


@pytest.mark.parametrize("make", [d4, e8, exmc, fig1])
def test_equivariance_matches_pairing_definition(make):
    g = make()
    system = emit_splice_system(g, seed=0)
    assert verify_equivariance(g, system) == (True, None)
    assert _equivariant_by_pairing(g, system)
    # replace the first monomial at the first node by every end-exponent
    # vector with entries <= 2
    ends = g.ends()
    target = _pairings(g, ref.dual_cycle(g, system.nodes[0].node))
    for vals in itertools.product(range(3), repeat=len(ends)):
        mono = {w: a for w, a in zip(ends, vals) if a}
        system.nodes[0].monomials[0] = mono
        ok, offender = verify_equivariance(g, system)
        # the other monomials are equivariant, as checked above
        cls = ref.class_of(g, _cycle(g, mono))
        assert ok == (_class_pairings(g, cls) == target)
        if not ok:
            assert offender == (_class_theta(g, cls),
                                system.nodes[0].node, mono)
