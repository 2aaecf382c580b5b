import random

import pytest

from fixtures import (
    HUGE_H_TREES,
    a_chain,
    caterpillar,
    d4,
    e8,
    exmc,
    fig1,
    small_stars,
    splice_quotient_trees,
    star,
    star_order,
)
import splicegenus.oracle as O
from reference import bruteforce_eigendims as tuple_reference
from reference import total_ci_coeffs
from splicegenus import parse_graph, pg
from splicegenus.errors import GraphInputError, InternalCheckError
from splicegenus.molien import group_data, hilbert_data, molien_coeffs
from splicegenus.oracle import (
    artin_rational,
    bruteforce_eigendims,
    oracle_verify,
)
from splicegenus.splice import (
    NodeSystem,
    SpliceSystem,
    _alpha,
    emit_splice_system,
)


def test_artin_rational_values():
    assert artin_rational(d4())
    assert artin_rational(e8())
    assert artin_rational(a_chain(5))
    assert artin_rational(exmc()) is False
    assert artin_rational(fig1()) is False


def test_artin_rational_iff_pg_is_zero():
    # Artin's criterion reads only the fundamental cycle, so it checks
    # p_g = 0 from outside the recursion and the Molien kernel; the huge-|H|
    # trees are held to their recorded p_g (0, 0, 1), which the recursion
    # takes seconds to recompute
    graphs = [a_chain(3), d4(), e8(), exmc(), fig1(),
              *(star(b, legs) for b, legs in small_stars()),
              *splice_quotient_trees(seed=1, count=10),
              *splice_quotient_trees(seed=2, count=20),
              *map(caterpillar, (3, 4, 5))]
    rational = [artin_rational(g) for g in graphs]
    assert rational == [pg(g) == 0 for g in graphs]
    assert 0 < sum(rational) < len(graphs)
    huge = {order: artin_rational(parse_graph(text))
            for order, text in HUGE_H_TREES.items()}
    assert huge == {19273: True, 34908: True, 119154: False}


def test_bruteforce_matches_molien_on_two_node_graph():
    assert oracle_verify(exmc(), up_to=15) == []


def test_bruteforce_matches_molien_on_quotient_graph():
    assert oracle_verify(d4(), up_to=15) == []


def test_bruteforce_shuffle_invariant(monkeypatch):
    # at fig1's v0 the blocks up to degree 8 hold up to 25 monomials, so a
    # shuffle reorders them
    g = fig1()
    system = emit_splice_system(g, seed=0)
    ref = bruteforce_eigendims(g, "v0", system, 8)
    real = O._node_table
    for seed in (1, 2, 3):
        rng = random.Random(seed)
        moved = []

        def shuffled(g, v, up_to):
            codes, chars = real(g, v, up_to)
            for i, (cs, xs) in enumerate(zip(codes, chars)):
                pairs = list(zip(cs, xs))
                rng.shuffle(pairs)
                codes[i] = [c for c, _ in pairs]
                chars[i] = [x for _, x in pairs]
                if len(cs) >= 2:
                    moved.append(codes[i] != cs)
            return codes, chars

        monkeypatch.setattr(O, "_node_table", shuffled)
        assert bruteforce_eigendims(g, "v0", system, 8) == ref
        assert len(moved) >= 5 and 2 * sum(moved) > len(moved), moved


def test_bruteforce_returns_every_character():
    g = fig1()
    gd = group_data(g)
    dims = bruteforce_eigendims(g, "v0", emit_splice_system(g), 6)
    assert list(dims) == list(gd.characters())
    assert all(len(tab) == 7 for tab in dims.values())


def test_bruteforce_sums_to_total_series():
    g = exmc()
    system = emit_splice_system(g, seed=0)
    for v in g.nodes():
        total = total_ci_coeffs(g, v, 12)
        per_char = bruteforce_eigendims(g, v, system, 12).values()
        for i in range(13):
            assert sum(tab[i] for tab in per_char) == total[i]


def test_different_seeds_give_same_dimensions():
    # dimensions are independent of the generic coefficient draw
    g = exmc()
    gd = group_data(g)
    tables = molien_coeffs(g, "E6", 10)
    for seed in (0, 11):
        dims = bruteforce_eigendims(g, "E6", emit_splice_system(g, seed=seed), 10)
        for chi in gd.characters():
            assert dims[chi] == tables[chi]


def test_oracle_builds_monomials_once_per_node(monkeypatch):
    calls = []
    real = O._node_table

    def counted(g, v, up_to):
        calls.append(v)
        return real(g, v, up_to)

    monkeypatch.setattr(O, "_node_table", counted)
    g = exmc()
    assert oracle_verify(g, 12) == []
    assert len(calls) == len(g.nodes()) == 2


def test_oracle_mismatch_records_follow_node_then_character(monkeypatch):
    g = exmc()
    gd = group_data(g)
    real = O.bruteforce_eigendims

    def off_by_one(*args, **kwargs):
        return {chi: [d + 1 for d in tab]
                for chi, tab in real(*args, **kwargs).items()}

    monkeypatch.setattr(O, "bruteforce_eigendims", off_by_one)
    diffs = oracle_verify(g, 4)
    assert [(d["node"], d["char"]) for d in diffs] == [
        (v, list(chi)) for v in g.nodes() for chi in gd.characters()]
    assert all(d["bruteforce"] == [x + 1 for x in d["molien"]] for d in diffs)


def test_oracle_agrees_on_generated_splice_quotients():
    for g in splice_quotient_trees(seed=1, count=10):
        assert oracle_verify(g, up_to=8) == []


def test_oracle_does_no_gauss_jordan(monkeypatch):
    # the blocks are ranked by the sparse forward pass; the graph's one
    # decomposition, its Smith form, happens once, in group_data
    from splicegenus import exact

    graphs = [(d4(), 15), (exmc(), 25)]
    for g, _ in graphs:
        group_data(g)

    def no_decomposition(rows):
        raise AssertionError("a decomposition of I in the oracle")

    monkeypatch.setattr(exact, "smith_normal_form", no_decomposition)
    for g, up_to in graphs:
        assert oracle_verify(g, up_to) == []


def _node_query_stars():
    """The middle star of each of 8 equal |H| strata of the small stars,
    as the node-queries benchmark picks them."""
    stars = sorted(small_stars(), key=lambda t: (star_order(*t), t[0], t[1]))
    size = len(stars) / 8
    return [star(*stars[int((k + 0.5) * size)]) for k in range(8)]


def _exponents(code, ends, up_to):
    """The exponent dict (over ends) of a monomial packed in base up_to + 1."""
    out = {}
    for w in ends:
        code, out[w] = divmod(code, up_to + 1)
    assert code == 0
    return out


def test_end_characters_match_theta_of_alpha():
    # second route: theta of the full E*-coordinate vector, against the
    # table's characters, built by adding the ends' theta columns
    graphs = [d4(), e8(), exmc(), fig1(), *_node_query_stars()]
    checked = 0
    for g in graphs:
        gd = group_data(g)
        chis = list(gd.characters())
        ends = g.ends()
        for v in g.nodes():
            m = g.node_weights(v).m
            codes, chars = O._node_table(g, v, 12)
            for i, (cs, xs) in enumerate(zip(codes, chars)):
                assert len(set(cs)) == len(cs) == len(xs)
                for code, x in zip(cs, xs):
                    exps = _exponents(code, ends, 12)
                    assert sum(a * m[w] for w, a in exps.items()) == i
                    want = gd.theta_alpha(_alpha(g, exps))
                    assert chis[x] == want, (v, exps)
                    checked += 1
    assert checked > 500


def _reference_cases():
    """(graph, degrees): the fixtures, the 96 small stars and ten seeded
    splice-quotient trees, each at degrees 0 and 1 and one larger one."""
    cases = [(d4(), 15), (exmc(), 25), (fig1(), 8), (e8(), 12)]
    cases += [(star(*t), 10) for t in small_stars()]
    cases += [(g, 8) for g in splice_quotient_trees(seed=1, count=10)]
    return [(g, (0, 1, d)) for g, d in cases]


def test_bruteforce_matches_the_tuple_reference():
    checked = 0
    for g, degrees in _reference_cases():
        system = emit_splice_system(g, seed=0)
        for v in g.nodes():
            for up_to in degrees:
                assert (bruteforce_eigendims(g, v, system, up_to)
                        == tuple_reference(g, v, system, up_to)), (g.ids, v, up_to)
                checked += 1
    assert checked == 3 * 124  # (graph, node) pairs, three degrees each


def test_packed_exponents_reach_the_degree_bound():
    # at d4's node every end has m_vw = 1, so a pure power of one end has
    # exponent up_to, the largest digit base up_to + 1 holds; the reference
    # test holds d4 at degree 15 to the tuple version
    g = d4()
    ends = g.ends()
    assert all(g.node_weights("c").m[w] == 1 for w in ends)
    codes, _ = O._node_table(g, "c", 15)
    for j in range(len(ends)):
        assert 15 * 16 ** j in codes[15]


@pytest.mark.parametrize("make, v, up_to", [(exmc, "E5", 13), (fig1, "v0", 6)])
def test_generators_above_the_degree_bound_are_skipped(make, v, up_to):
    # some leading forms fall inside the table and some above it
    g = make()
    system = emit_splice_system(g, seed=0)
    n = sum(len(ns.equations) for ns in system.nodes)
    assert 0 < len(O._generators(g, v, system, up_to)) < n
    assert (bruteforce_eigendims(g, v, system, up_to)
            == tuple_reference(g, v, system, up_to))


@pytest.mark.parametrize("up_to", [-1, True, False, 2.5, "3", None])
def test_degree_bound_must_be_a_nonnegative_int(up_to):
    # one check for every reader of a degree bound, Molien's and the oracle's
    g = d4()
    for call in (lambda: oracle_verify(g, up_to),
                 lambda: bruteforce_eigendims(g, "c", emit_splice_system(g), up_to),
                 lambda: molien_coeffs(g, "c", up_to),
                 lambda: hilbert_data(g, "c", up_to),
                 lambda: hilbert_data(g, "c", up_to, closed_for=[(0, 1)])):
        with pytest.raises(GraphInputError, match="max degree must be"):
            call()


@pytest.mark.parametrize("v, what", [("l1", "node"), ("zz", "vertex"),
                                     (0, "vertex")], ids=["l1", "zz", "0"])
def test_bruteforce_takes_only_nodes(v, what):
    # the vertex lookup comes first, as in every node-taking function
    g = d4()
    with pytest.raises(GraphInputError, match=f"is not a {what} of the graph"):
        bruteforce_eigendims(g, v, emit_splice_system(g), 4)


def test_non_int_coefficients_are_a_type_error():
    g = d4()
    system = emit_splice_system(g, seed=0)
    (c, exps), *rest = system.nodes[0].equations[0]
    system.nodes[0].equations[0] = [(c + 0.5, exps), *rest]
    with pytest.raises(TypeError):
        bruteforce_eigendims(g, "c", system, 1)


def test_non_isotypic_leading_form_is_caught():
    # l1 and l2 both have v-degree 1 at c, and different characters
    g = d4()
    assert group_data(g).dual_character("l1") != group_data(g).dual_character("l2")
    eq = [(1, {"l1": 1}), (1, {"l2": 1})]
    system = SpliceSystem(nodes=[NodeSystem(node="c", monomials=[], v_degree=1,
                                            equations=[eq])], seed=0)
    with pytest.raises(InternalCheckError, match="leading form is not isotypic"):
        bruteforce_eigendims(g, "c", system, 2)
