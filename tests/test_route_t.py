"""Route T: h1(L_chi) by lattice cohomology reduced to the nodes
(``reference.lattice_h1``), held against the recursion.

alpha comes from the reference c_1 route and K from a Fraction inverse, so
nothing here reads the Smith form, ``GroupData`` or the Molien kernel on
the Route T side.  The route is calibrated first: Pinkham's formula on the
stars, and fig1's p_g = 7 with its 36 characters summing to 165.
"""

import reference as ref
from fixtures import (
    HUGE_H_TREES,
    a_chain,
    d4,
    e8,
    exmc,
    fig1,
    small_stars,
    splice_quotient_trees,
    star,
)
from test_genus import _pinkham_pg
from splicegenus import parse_graph
from splicegenus.discgroup import group_data
from splicegenus.genus import h1_eigensheaf, pg, pg_uac


def _trivial(g):
    return ref.lattice_h1(g, [0] * len(g.ids))


def _route_t(g, chi):
    return ref.lattice_h1(g, ref.alpha_of(g, ref.fractional_representative(g, chi)))


def test_route_t_matches_pinkham_on_small_stars():
    stars = small_stars()
    assert len(stars) == 96
    values = [_trivial(star(b, legs)) for b, legs in stars]
    assert values == [_pinkham_pg(b, legs) for b, legs in stars]
    assert 0 < sum(v > 0 for v in values) < len(stars)


def test_route_t_on_fig1_every_character():
    g = fig1()
    assert _trivial(g) == 7
    values = {chi: _route_t(g, chi) for chi in group_data(g).characters()}
    assert len(values) == 36 and sum(values.values()) == 165 == pg_uac(g)
    assert values == {chi: h1_eigensheaf(g, chi) for chi in values}


def test_route_t_trivial_character_is_pg():
    graphs = [a_chain(3), d4(), e8(), exmc(), fig1(),
              *splice_quotient_trees(1, 10), *splice_quotient_trees(2, 20)]
    values = [_trivial(g) for g in graphs]
    assert values == [pg(g) for g in graphs]
    assert sum(v > 0 for v in values) >= 3


def test_route_t_on_the_huge_h_trees():
    # p_g is 0, 0 and 1 (``HUGE_H_TREES``); the recursion takes seconds
    # on them, Route T milliseconds
    found = {order: _trivial(parse_graph(text))
             for order, text in HUGE_H_TREES.items()}
    assert found == {19273: 0, 34908: 0, 119154: 1}


def test_route_t_every_character_where_h_is_small():
    # every character of every corpus graph with |H| <= 50; pg_uac is the
    # sum over the characters
    graphs = [d4(), e8(), exmc(), *(star(b, legs) for b, legs in small_stars()),
              *splice_quotient_trees(1, 10), *splice_quotient_trees(2, 20)]
    pairs = 0
    for g in graphs:
        gd = group_data(g)
        if gd.order > 50:
            continue
        values = {chi: _route_t(g, chi) for chi in gd.characters()}
        assert values == {chi: h1_eigensheaf(g, chi) for chi in values}, \
            g.fingerprint()
        assert sum(values.values()) == pg_uac(g)
        pairs += len(values)
    assert pairs > 1000
