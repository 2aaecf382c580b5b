import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings

import reference as ref
from fixtures import (
    HUGE_H_TREES,
    a_chain,
    caterpillar,
    d4,
    e8,
    exmc,
    fig1,
    single,
    small_stars,
    splice_quotient_trees,
    star,
)
from reference import (
    HElement,
    NotInDualLattice,
    QCycle,
    mod1,
    phi_alpha,
    unit_cycle,
)
from test_graph import _recursion_subgraphs, random_trees
from splicegenus import parse_graph
import splicegenus.oracle as oracle
from splicegenus.discgroup import (
    GroupData,
    _mover,
    group_data,
    nef_shift,
)
from splicegenus.errors import InternalCheckError
from splicegenus.genus import h1_eigensheaf, pg_uac


def test_mod1():
    assert mod1(Fraction(7, 3)) == Fraction(1, 3)
    assert mod1(Fraction(-1, 4)) == Fraction(3, 4)
    assert mod1(5) == 0


def test_e8_trivial_group():
    gd = GroupData(e8())
    assert gd.order == 1 and gd.invariant_factors == []
    assert list(gd.characters()) == [gd.trivial_character]


def test_fig1_group_order_36():
    gd = GroupData(fig1())
    assert gd.order == 36
    assert gd.order == gd.dual.det_abs


def test_fig1_displayed_relations_are_zero():
    g = fig1()
    gd = GroupData(g)
    dual = ref.dual_cycles(g)
    zero = HElement((0,) * gd.rank)
    assert ref.class_of(g, dual["w2"].scale(2)) == zero
    assert ref.class_of(g, dual["w3"].scale(6)) == zero
    comb = dual["w2"] + dual["w3"].scale(3) + dual["w4"].scale(3)
    assert ref.class_of(g, comb) == zero


def test_fig1_generated_by_end_duals():
    g = fig1()
    dual = ref.dual_cycles(g)
    gens = [dual["w2"], dual["w3"], dual["w4"]]
    seen = set()
    for a in range(2):
        for b in range(6):
            for c in range(6):
                D = gens[0].scale(a) + gens[1].scale(b) + gens[2].scale(c)
                seen.add(ref.class_of(g, D))
    assert len(seen) == 36
    # the theta matrix reads the same group: psi_w on the end duals
    gd = GroupData(g)
    for w in ("w2", "w3", "w4"):
        assert gd.dual_character(w) == ref.theta(g, dual[w])


def test_class_of_lattice_element_is_zero():
    g = exmc()
    gd = GroupData(g)
    zero = HElement((0,) * gd.rank)
    for w in g.ids:
        assert ref.class_of(g, unit_cycle(w)) == zero
    # 2 E*_1 - E*_5 = E_1 in L
    D = ref.dual_cycle(g, "E1").scale(2) - ref.dual_cycle(g, "E5")
    assert ref.class_of(g, D) == zero


def test_class_of_rejects_outside_dual_lattice():
    g = single()
    with pytest.raises(NotInDualLattice):
        ref.class_of(g, QCycle({"e": Fraction(1, 3)}))


def test_theta_identity_and_single_vertex():
    g = single()
    h = ref.class_of(g, ref.dual_cycle(g, "e"))
    assert ref.pair(g, HElement((0,)), h) == 0
    # E* . E* = -1/2, so the exponent is 1/2
    assert ref.pair(g, h, h) == Fraction(1, 2)


@pytest.mark.parametrize("make", [single, d4, exmc, fig1, lambda: a_chain(4)])
def test_theta_symmetric_and_bijective(make):
    g = make()
    gd = GroupData(g)
    elems = list(ref.elements(g))
    assert len(elems) == gd.order
    lifts = {h: ref.lift(g, h) for h in elems}
    # exhaustive for small H, a prefix slice for the 36-element group
    probe = elems if gd.order <= 16 else elems[:10]
    for a in probe:
        for b in probe:
            assert ref.pair(g, lifts[a], lifts[b]) == ref.pair(g, lifts[b], lifts[a])
    images = {ref.theta(g, h) for h in elems}
    assert len(images) == gd.order
    # the integer theta on E*-coordinates agrees with the pairing
    for h in elems:
        assert gd.theta_alpha(ref.alpha_of(g, lifts[h])) == ref.theta(g, h)


def test_lift_class_roundtrip():
    g = fig1()
    for h in ref.elements(g):
        assert ref.class_of(g, ref.lift(g, h)) == h


def _dual_cycle(g, alpha):
    """sum_w alpha_w E*_w from its numerators over |det I|, as a reference
    QCycle."""
    dd = g.dual_data()
    return ref.as_qcycle(g, dd.numerators(alpha), dd.det_abs)


def _c1_cycle(gd, chi):
    return _dual_cycle(gd.graph, gd.c1_alpha(chi))


def test_fractional_representative_trivial_is_zero():
    for make in (single, fig1, exmc):
        g = make()
        gd = GroupData(g)
        assert ref.fractional_representative(g, gd.trivial_character).is_zero()
        assert _c1_cycle(gd, gd.trivial_character).is_zero()


def test_fractional_representative_single_vertex():
    g = single()
    gd = GroupData(g)
    chis = [c for c in gd.characters() if c != gd.trivial_character]
    assert len(chis) == 1
    assert ref.fractional_representative(g, chis[0]) == QCycle({"e": Fraction(1, 2)})
    assert _c1_cycle(gd, chis[0]) == QCycle({"e": Fraction(1, 2)})


@pytest.mark.parametrize("make", [single, d4, exmc, fig1])
def test_fractional_representative_is_a_section(make):
    g = make()
    gd = GroupData(g)
    for chi in gd.characters():
        rep = ref.fractional_representative(g, chi)
        assert all(0 <= c < 1 for c in rep.coeffs.values())
        assert ref.theta(g, ref.class_of(g, rep)) == chi


@pytest.mark.parametrize("make", [d4, e8, exmc, fig1])
def test_c1_alpha_matches_fractional_representative(make):
    # the Smith-row c_1(L_chi) against the reference from the definition
    g = make()
    gd = GroupData(g)
    for chi in gd.characters():
        assert _c1_cycle(gd, chi) == ref.fractional_representative(g, chi)


# -- branch maps ------------------------------------------------------------

def test_phi_drops_outside_support():
    g = fig1()
    br = next(b for b in g.branches("v0") if "v1" in b.subgraph.ids)
    # E*_w5 lives on the other branch entirely
    assert ref.phi_branch(g, br, ref.dual_cycle(g, "w5")).is_zero()


def test_phi_single_term_maps_to_branch_dual():
    g = fig1()
    br = next(b for b in g.branches("v0") if "v1" in b.subgraph.ids)
    out = ref.phi_branch(g, br, ref.dual_cycle(g, "w2"))
    assert out == ref.dual_cycle(br.subgraph, "w2")


def test_phi_alpha_extraction_oracle():
    # phi agrees with rebuilding from alpha_w = -D.E_w on the branch
    g = fig1()
    gd = GroupData(g)
    chi = ref.theta(g, ref.dual_cycle(g, "w4"))
    assert chi == gd.dual_character("w4")
    D = ref.fractional_representative(g, chi)
    for br in g.branches("v0"):
        out = ref.phi_branch(g, br, D)
        expected = QCycle()
        for w in br.subgraph.ids:
            a = -ref.intersect(g, D, unit_cycle(w))
            assert a.denominator == 1
            expected = expected + ref.dual_cycle(br.subgraph, w).scale(a)
        assert out == expected
        # the integer phi_alpha names the same cycle
        assert _dual_cycle(br.subgraph, phi_alpha(gd, br, chi)) == out


def test_psi_trivial_maps_to_trivial():
    g = fig1()
    gd = GroupData(g)
    for br in g.branches("v0"):
        sub_gd = group_data(br.subgraph)
        psi = sub_gd.theta_alpha(phi_alpha(gd, br, gd.trivial_character))
        assert psi == sub_gd.trivial_character


def test_psi_matches_direct_class_computation():
    g = exmc()
    gd = GroupData(g)
    for br in g.branches("E5"):
        sub_gd = group_data(br.subgraph)
        sub = br.subgraph
        for chi in gd.characters():
            psi = sub_gd.theta_alpha(phi_alpha(gd, br, chi))
            phi = ref.phi_branch(g, br, ref.fractional_representative(g, chi))
            assert psi == ref.theta(sub, ref.class_of(sub, phi))


def _shift_cycle(gd, node, br, chi):
    """The package's D_{chi,i}, read from the numerators of c_1 and the
    parent's adjugate, as a QCycle on the branch."""
    g = gd.graph
    cols = [g.index(w) for w in br.subgraph.ids]
    shift = nef_shift(gd.dual, g.index(node), cols, gd._c1_numerators(chi))
    return QCycle(dict(zip(br.subgraph.ids, shift)))


@pytest.mark.parametrize("make,node", [(fig1, "v0"), (fig1, "v2"),
                                       (exmc, "E5"), (exmc, "E6"),
                                       (d4, "c")])
def test_nef_shift_effective_for_all_characters(make, node):
    g = make()
    gd = GroupData(g)
    for br in g.branches(node):
        for chi in gd.characters():
            D = ref.nef_shift_cycle(g, br, chi)
            assert D.is_integral() and D.is_effective()
            # the integer D_{chi,i} of the recursion is the same cycle
            assert _shift_cycle(gd, node, br, chi) == D


@pytest.mark.parametrize("family", ["fig1", "stars", "seeded", "cater", "huge"])
def test_nef_shift_from_the_parent_matches_the_fraction_route(family):
    # D_{chi,i} from rows v and B of the parent's adjugate against -[phi_i]
    # through the branch's own dual cycles, at every (node, branch) of every
    # graph the recursion reaches: every character where |H| <= 64, with
    # c_1 found by walking H; the trivial and 4 seeded characters beyond,
    # with c_1 the cycle of E-coefficients in [0, 1) whose theta is chi
    tops = {
        "fig1": lambda: [fig1()],
        "stars": lambda: [star(b, legs) for b, legs in small_stars()],
        "seeded": lambda: list(splice_quotient_trees(seed=1, count=10)),
        "cater": lambda: [caterpillar(k) for k in range(3, 6)],
        "huge": lambda: [parse_graph(t) for t in HUGE_H_TREES.values()],
    }[family]()
    rng = random.Random(1)
    cases = 0
    for top in tops:
        for g in _recursion_subgraphs(top):
            if g.require_valid().is_chain:
                continue
            gd = group_data(g)
            walk = gd.order <= 64
            chars = list(gd.characters()) if walk else [gd.trivial_character] + [
                tuple(rng.randrange(d) for d in gd.invariant_factors)
                for _ in range(4)]
            for chi in chars:
                c1 = None
                if not walk:
                    c1 = _c1_cycle(gd, chi)
                    assert all(0 <= c < 1 for c in c1.coeffs.values())
                    assert ref.theta(g, c1) == chi
                for v in g.nodes():
                    for br in g.branches(v):
                        D = ref.nef_shift_cycle(g, br, chi, c1)
                        assert _shift_cycle(gd, v, br, chi) == D
                        cases += 1
    assert cases > len(tops)


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
    elems = list(ref.elements(g))
    for h in elems:
        assert ref.class_of(g, ref.lift(g, h)) == h
    # the theta matrix against the rational intersection form
    for h in elems[:8]:
        lift_h = ref.lift(g, h)
        theta_h = gd.theta_alpha(ref.alpha_of(g, lift_h))
        assert theta_h == ref.theta(g, h)
        for k in elems[:8]:
            expect = mod1(ref.intersect(g, lift_h, ref.lift(g, k)))
            assert ref.pair(g, h, k) == expect
            assert ref.char_value_exponent(g, theta_h, k) == expect
    for chi in gd.characters():
        rep = ref.fractional_representative(g, chi)
        assert all(0 <= c < 1 for c in rep.coeffs.values())
        assert ref.theta(g, ref.class_of(g, rep)) == chi
        # the Smith-row c_1(L_chi) of the package is the same cycle
        assert _c1_cycle(gd, chi) == rep
        for v in g.nodes():
            for br in g.branches(v):
                expected = QCycle()
                for w in br.subgraph.ids:
                    a = -ref.intersect(g, rep, unit_cycle(w))
                    assert a.denominator == 1
                    expected = expected + ref.dual_cycle(br.subgraph, w).scale(a)
                assert ref.phi_branch(g, br, rep) == expected
                assert _dual_cycle(br.subgraph,
                                   phi_alpha(gd, br, chi)) == expected


@given(random_trees(max_n=8))
@settings(max_examples=60, deadline=None)
def test_c1_numerators_are_the_adjugate_product(g):
    # the numerators the nef shift reads are A alpha for the alpha read off
    # them, the E-coefficients in [0, 1) times |det I|, theta takes
    # c_1(L_chi) back to chi, and alpha is the reference c_1's E*-coordinates
    gd = GroupData(g)
    assume(gd.order <= 64)
    det = gd.dual.det_abs
    for chi in gd.characters():
        num = gd._c1_numerators(chi)
        alpha = gd._c1_alpha(num)
        assert num == gd.dual.numerators(alpha)
        assert all(0 <= r < det for r in num)
        assert gd.theta_alpha(alpha) == chi
        assert alpha == ref.alpha_of(g, ref.fractional_representative(g, chi))


@given(random_trees(max_n=8))
@example(fig1())
@example(d4())
@settings(max_examples=60, deadline=None)
def test_labels_are_positions_and_the_kernel_adds_psi(g):
    # the Molien kernel and the oracle key a character by its label, its
    # position in characters(); the kernel adds psi to a label with one
    # carry per coordinate, the oracle in coordinates, and both agree
    gd = GroupData(g)
    assume(gd.order <= 400)
    dims = gd.invariant_factors
    chars = list(gd.characters())
    position = {chi: x for x, chi in enumerate(chars)}
    assert [gd._label(chi) for chi in chars] == list(range(len(chars)))
    for psi in {*map(gd.dual_character, g.ids), *chars[:: len(chars) // 7 + 1]}:
        move, table = _mover(dims, psi), oracle._shift(gd, psi)
        assert [move(x) for x in range(len(chars))] == table
        assert table == [position[tuple((c + p) % d for c, p, d in
                                        zip(chi, psi, dims))]
                         for chi in chars]


def test_c1_off_the_dual_lattice_is_caught(monkeypatch):
    # numerators r with I r not divisible by |det I| name no class of L*;
    # alpha = -I r // |det I| would floor them into a wrong c_1, both where
    # c1_alpha reads them and where an h1 step does
    g = fig1()
    gd = group_data(g)
    real = gd._c1_numerators
    monkeypatch.setattr(gd, "_c1_numerators",
                        lambda chi: [real(chi)[0] + 1, *real(chi)[1:]])
    with pytest.raises(InternalCheckError, match="c_1\\(L_chi\\) is not in L"):
        gd.c1_alpha((1, 5))
    with pytest.raises(InternalCheckError, match="c_1\\(L_chi\\) is not in L"):
        h1_eigensheaf(g, (1, 5))


def test_group_data_keeps_nothing_per_character():
    # c_1(L_chi) is a value, not a cache: once pg_uac has evaluated every
    # character, no container on the graph's GroupData holds |H| items
    g = fig1()
    pg_uac(g)
    gd = group_data(g)
    assert gd.order == 36
    assert all(("h1", chi) in g._cache for chi in gd.characters())
    sizes = {name: len(x) for name, x in vars(gd).items()
             if isinstance(x, (dict, list, tuple, set))}
    assert sizes and max(sizes.values()) < gd.order, sizes


# -- c_1(L_chi) without walking H ----------------------------------------------

# a 12-vertex tree with |H| = 119,154
HUGE_H_TREE = (
    '{"vertices":[{"id":"x0","weight":-4},{"id":"x1","weight":-5},'
    '{"id":"x10","weight":-2},{"id":"x11","weight":-7},{"id":"x2","weight":-2},'
    '{"id":"x3","weight":-2},{"id":"x4","weight":-5},{"id":"x5","weight":-2},'
    '{"id":"x6","weight":-3},{"id":"x7","weight":-3},{"id":"x8","weight":-2},'
    '{"id":"x9","weight":-6}],"edges":[["x0","x1"],["x0","x2"],["x0","x3"],'
    '["x0","x4"],["x3","x5"],["x2","x6"],["x1","x7"],["x2","x8"],["x3","x9"],'
    '["x5","x10"],["x8","x11"]]}')


def test_c1_alpha_builds_no_table_over_h(monkeypatch):
    import random

    from splicegenus import parse_graph

    def walks_h(*args, **kwargs):
        raise AssertionError("H enumerated")

    monkeypatch.setattr(GroupData, "characters", walks_h)
    monkeypatch.setattr(GroupData, "elements", walks_h, raising=False)
    g = parse_graph(HUGE_H_TREE)
    gd = GroupData(g)
    assert gd.order == 119154
    det = gd.dual.det_abs
    rng = random.Random(7)
    chis = [gd.trivial_character] + [
        tuple(rng.randrange(d) for d in gd.invariant_factors)
        for _ in range(3)]
    for chi in chis:
        alpha = gd.c1_alpha(chi)
        assert gd.theta_alpha(alpha) == chi
        # A alpha / |det I| are the E-coefficients, all in [0, 1)
        assert all(0 <= c < det for c in gd.dual.numerators(alpha))
