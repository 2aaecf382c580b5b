from fractions import Fraction

import pytest
from hypothesis import assume, given, settings

from fixtures import a_chain, d4, e8, exmc, fig1, single
from test_graph import random_trees
from splicegenus import QCycle, unit_cycle
from splicegenus.discgroup import (
    GroupData,
    HElement,
    group_data,
    mod1,
    nef_shift_cycle,
    phi_branch,
    psi_branch,
)
from splicegenus.errors import NotInDualLattice


def test_mod1():
    assert mod1(Fraction(7, 3)) == Fraction(1, 3)
    assert mod1(Fraction(-1, 4)) == Fraction(3, 4)
    assert mod1(5) == 0


def test_e8_trivial_group():
    gd = GroupData(e8())
    assert gd.order == 1 and gd.invariant_factors == [] and gd.exponent == 1
    assert list(gd.characters()) == [gd.trivial_character]


def test_fig1_group_order_36():
    gd = GroupData(fig1())
    assert gd.order == 36
    assert gd.order == gd.dual.det_abs


def test_fig1_displayed_relations_are_zero():
    g = fig1()
    gd = GroupData(g)
    dual = gd.dual.dual_cycles
    zero = HElement((0,) * gd.rank)
    assert gd.class_of(dual["w2"].scale(2)) == zero
    assert gd.class_of(dual["w3"].scale(6)) == zero
    comb = dual["w2"] + dual["w3"].scale(3) + dual["w4"].scale(3)
    assert gd.class_of(comb) == zero


def test_fig1_generated_by_end_duals():
    g = fig1()
    gd = GroupData(g)
    dual = gd.dual.dual_cycles
    gens = [dual["w2"], dual["w3"], dual["w4"]]
    seen = set()
    for a in range(2):
        for b in range(6):
            for c in range(6):
                D = gens[0].scale(a) + gens[1].scale(b) + gens[2].scale(c)
                seen.add(gd.class_of(D))
    assert len(seen) == 36


def test_class_of_lattice_element_is_zero():
    g = exmc()
    gd = GroupData(g)
    zero = HElement((0,) * gd.rank)
    for w in g.ids:
        assert gd.class_of(unit_cycle(w)) == zero
    # 2 E*_1 - E*_5 = E_1 in L
    D = g.dual_cycle("E1").scale(2) - g.dual_cycle("E5")
    assert gd.class_of(D) == zero


def test_class_of_rejects_outside_dual_lattice():
    g = single()
    gd = GroupData(g)
    with pytest.raises(NotInDualLattice):
        gd.class_of(QCycle({"e": Fraction(1, 3)}))


def test_theta_identity_and_single_vertex():
    g = single()
    gd = GroupData(g)
    h = gd.class_of(g.dual_cycle("e"))
    assert gd.pair(HElement((0,)), h) == 0
    # E* . E* = -1/2, so the exponent is 1/2
    assert gd.pair(h, h) == Fraction(1, 2)


@pytest.mark.parametrize("make", [single, d4, exmc, fig1, lambda: a_chain(4)])
def test_theta_symmetric_and_bijective(make):
    gd = GroupData(make())
    elems = list(gd.elements())
    assert len(elems) == gd.order
    lifts = {h: gd.lift(h) for h in elems}
    # exhaustive for small H, a prefix slice for the 36-element group
    probe = elems if gd.order <= 16 else elems[:10]
    for a in probe:
        for b in probe:
            assert gd.pair(lifts[a], lifts[b]) == gd.pair(lifts[b], lifts[a])
    images = {gd.theta(h) for h in elems}
    assert len(images) == gd.order


def test_lift_class_roundtrip():
    gd = GroupData(fig1())
    for h in gd.elements():
        assert gd.class_of(gd.lift(h)) == h


def test_fractional_representative_trivial_is_zero():
    for make in (single, fig1, exmc):
        gd = GroupData(make())
        assert gd.fractional_representative(gd.trivial_character).is_zero()


def test_fractional_representative_single_vertex():
    gd = GroupData(single())
    chis = [c for c in gd.characters() if c != gd.trivial_character]
    assert len(chis) == 1
    rep = gd.fractional_representative(chis[0])
    assert rep == QCycle({"e": Fraction(1, 2)})


@pytest.mark.parametrize("make", [single, d4, exmc, fig1])
def test_fractional_representative_is_a_section(make):
    gd = GroupData(make())
    for chi in gd.characters():
        rep = gd.fractional_representative(chi)
        assert all(0 <= c < 1 for c in rep.coeffs.values())
        assert gd.theta(gd.class_of(rep)) == chi


# -- branch maps ------------------------------------------------------------

def test_phi_drops_outside_support():
    g = fig1()
    br = next(b for b in g.branches("v0") if "v1" in b.subgraph.ids)
    # E*_w5 lives on the other branch entirely
    assert phi_branch(g, br, g.dual_cycle("w5")).is_zero()


def test_phi_single_term_maps_to_branch_dual():
    g = fig1()
    br = next(b for b in g.branches("v0") if "v1" in b.subgraph.ids)
    out = phi_branch(g, br, g.dual_cycle("w2"))
    assert out == br.subgraph.dual_cycle("w2")


def test_phi_alpha_extraction_oracle():
    # phi agrees with rebuilding from alpha_w = -D.E_w on the branch
    g = fig1()
    gd = GroupData(g)
    chi = gd.theta(gd.class_of(g.dual_cycle("w4")))
    D = gd.fractional_representative(chi)
    for br in g.branches("v0"):
        out = phi_branch(g, br, D)
        expected = QCycle()
        for w in br.subgraph.ids:
            a = -g.intersect(D, unit_cycle(w))
            assert a.denominator == 1
            expected = expected + br.subgraph.dual_cycle(w).scale(a)
        assert out == expected


def test_psi_trivial_maps_to_trivial():
    g = fig1()
    gd = GroupData(g)
    for br in g.branches("v0"):
        sub_gd = group_data(br.subgraph)
        psi = psi_branch(gd, br, gd.trivial_character)
        assert psi == sub_gd.trivial_character


def test_psi_matches_direct_class_computation():
    g = exmc()
    gd = GroupData(g)
    for br in g.branches("E5"):
        sub_gd = group_data(br.subgraph)
        for chi in gd.characters():
            psi = psi_branch(gd, br, chi)
            phi = phi_branch(g, br, gd.fractional_representative(chi))
            assert psi == sub_gd.theta(sub_gd.class_of(phi))


@pytest.mark.parametrize("make,node", [(fig1, "v0"), (fig1, "v2"),
                                       (exmc, "E5"), (exmc, "E6"),
                                       (d4, "c")])
def test_nef_shift_effective_for_all_characters(make, node):
    g = make()
    gd = GroupData(g)
    for br in g.branches(node):
        for chi in gd.characters():
            D = nef_shift_cycle(gd, br, chi)
            assert D.is_integral() and D.is_effective()


# -- the integer core on random trees ----------------------------------------

@given(random_trees(max_n=6))
@settings(max_examples=40, deadline=None)
def test_integer_core_matches_fraction_route(g):
    dd = g.dual_data()
    assume(dd.det_abs <= 64)
    n = len(g)
    I = g.intersection_matrix()
    IA = [[sum(I[i][k] * dd.adjugate[k][j] for k in range(n)) for j in range(n)]
          for i in range(n)]
    assert IA == [[-dd.det_abs * (i == j) for j in range(n)] for i in range(n)]
    gd = GroupData(g)
    elems = list(gd.elements())
    for h in elems:
        assert gd.class_of(gd.lift(h)) == h
    # the theta matrix against the rational intersection form
    for h in elems[:8]:
        for k in elems[:8]:
            expect = mod1(g.intersect(gd.lift(h), gd.lift(k)))
            assert gd.pair(h, k) == expect
            assert gd.char_value_exponent(gd.theta(h), k) == expect
    for chi in gd.characters():
        rep = gd.fractional_representative(chi)
        assert all(0 <= c < 1 for c in rep.coeffs.values())
        assert gd.theta(gd.class_of(rep)) == chi
        for v in g.nodes():
            for br in g.branches(v):
                expected = QCycle()
                for w in br.subgraph.ids:
                    a = -g.intersect(rep, unit_cycle(w))
                    assert a.denominator == 1
                    expected = expected + br.subgraph.dual_cycle(w).scale(a)
                assert phi_branch(g, br, rep) == expected
