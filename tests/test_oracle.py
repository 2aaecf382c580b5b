import random

from fixtures import (
    a_chain,
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
from reference import total_ci_coeffs
from splicegenus.molien import group_data, molien_coeffs
from splicegenus.oracle import (
    artin_rational,
    bruteforce_eigendims,
    oracle_verify,
)
from splicegenus.splice import _alpha, emit_splice_system


def test_artin_rational_values():
    assert artin_rational(d4())
    assert artin_rational(e8())
    assert artin_rational(a_chain(5))
    assert artin_rational(exmc()) is False
    assert artin_rational(fig1()) is False


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
    real = O._monomials_by_degree
    for seed in (1, 2, 3):
        rng = random.Random(seed)
        moved = []

        def shuffled(weights, up_to):
            table = real(weights, up_to)
            for lst in table:
                before = list(lst)
                rng.shuffle(lst)
                if len(lst) >= 2:
                    moved.append(lst != before)
            return table

        monkeypatch.setattr(O, "_monomials_by_degree", shuffled)
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
    real = O._monomials_by_degree

    def counted(weights, up_to):
        calls.append(weights)
        return real(weights, up_to)

    monkeypatch.setattr(O, "_monomials_by_degree", counted)
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


def test_end_characters_match_theta_of_alpha():
    # second route: theta of the full E*-coordinate vector, against the
    # sum of the ends' theta columns
    graphs = [d4(), e8(), exmc(), fig1(), *_node_query_stars()]
    checked = 0
    for g in graphs:
        gd = group_data(g)
        ends = g.ends()
        char_of = O._end_theta(g)
        for v in g.nodes():
            m = g.node_weights(v).m
            for lst in O._monomials_by_degree([m[w] for w in ends], 12):
                for exps in lst:
                    want = gd.theta_alpha(_alpha(g, dict(zip(ends, exps))))
                    assert char_of(exps) == want, (v, exps)
                    checked += 1
    assert checked > 500
