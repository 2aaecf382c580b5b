"""Acceptance suite: twelve end-to-end criteria, one test and one printed
pass/fail line each.  Run with -s (or read the captured output) to see the
lines."""

import json
import time

import reference as ref
from fixtures import a_chain, d4, e8, exmc, fig1, graph_file
from reference import HElement, total_ci_coeffs
from test_molien import _rf
from splicegenus.cli import run as cli_run
from splicegenus.genus import genus_report, pg, pg_uac
from splicegenus.molien import (
    c_v_chi,
    c_v_chi_routes,
    c_v_route_a,
    group_data,
    molien_closed,
    molien_coeffs,
)
from splicegenus.oracle import artin_rational, oracle_verify
from splicegenus.splice import (
    check_monomial_condition,
    emit_splice_system,
    validate_witness,
    verify_equivariance,
)


def _report(n, ok, desc):
    print(f"criterion {n:2d}: {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {n} failed: {desc}"


def _fig1_branches():
    g = fig1()
    br = {b.attach: b.subgraph for b in g.branches("v0")}
    return g, br["u4"], br["u6"]


def test_criterion_1_genus_seven_under_60s():
    t0 = time.monotonic()
    value = pg(fig1())
    dt = time.monotonic() - t0
    _report(1, value == 7 and dt < 60,
            f"pg of the 14-vertex fixture = {value} in {dt:.1f}s")


def test_criterion_2_group_order_and_relations():
    g = fig1()
    gd = group_data(g)
    zero = HElement((0,) * gd.rank)
    dual = ref.dual_cycles(g)
    rels_zero = (
        ref.class_of(g, dual["w2"].scale(2)) == zero
        and ref.class_of(g, dual["w3"].scale(6)) == zero
        and ref.class_of(g, dual["w2"] + dual["w3"].scale(3)
                         + dual["w4"].scale(3)) == zero)
    _report(2, gd.order == 36 and rels_zero,
            f"|H| = {gd.order}, displayed relations vanish: {rels_zero}")


def test_criterion_3_closed_forms():
    g, g1, g2 = _fig1_branches()
    f0 = molien_closed(g, "v0", group_data(g).trivial_character)
    f1 = molien_closed(g1, "v1", group_data(g1).trivial_character)
    f2 = molien_closed(g2, "v2", group_data(g2).trivial_character)
    ok = (
        f0 == _rf([(24, 1), (21, -1), (18, 1), (15, -1), (12, 3),
                   (9, -1), (6, 1), (3, -1), (0, 1)],
                  [(15, 1), (12, -1), (3, -1), (0, 1)])
        and f1 == _rf([(36, 1), (33, -1), (24, 1), (18, -1), (12, 1),
                       (3, -1), (0, 1)],
                      [(19, 1), (16, -1), (3, -1), (0, 1)])
        and f2 == _rf([(24, 1), (0, 1)],
                      [(20, 1), (14, -1), (6, -1), (0, 1)]))
    _report(3, ok, "closed Hilbert series at v0, v1, v2 match the "
                   "displayed rational functions exactly")


def test_criterion_4_constants_both_routes():
    g, g1, g2 = _fig1_branches()
    pairs = [
        c_v_chi_routes(g, "v0", group_data(g).trivial_character),
        c_v_chi_routes(g1, "v1", group_data(g1).trivial_character),
        c_v_chi_routes(g2, "v2", group_data(g2).trivial_character),
    ]
    values = [int(a) for a, _ in pairs]
    agree = all(a == b for a, b in pairs)
    _report(4, values == [2, 4, 1] and agree,
            f"c values {values} via both routes, agreement: {agree}")


def test_criterion_5_fundamental_cycle_and_gorenstein():
    g = fig1()
    _, pa = g.fundamental_cycle()
    _, gor = g.canonical_cycle()
    _report(5, pa == 4 and gor,
            f"p_a(Z) = {pa}, numerically Gorenstein: {gor}")


def test_criterion_6_monomial_condition_two_node_graph():
    g = exmc()
    rep = check_monomial_condition(g)
    witnesses = [
        ("E5", "E1", {"E1": 2}), ("E5", "E2", {"E2": 2}),
        ("E5", "E6", {"E3": 1, "E4": 2}), ("E6", "E3", {"E3": 2}),
        ("E6", "E4", {"E4": 3}), ("E6", "E5", {"E1": 1, "E2": 1}),
    ]
    branch = {(v, b.attach): b for v in g.nodes() for b in g.branches(v)}
    six_ok = all(validate_witness(g, v, branch[(v, a)], e) is not None
                 for v, a, e in witnesses)
    system = emit_splice_system(g, seed=0)
    supports = {ns.node: sorted(sorted(m.items())
                                for m in ns.monomials)
                for ns in system.nodes}
    expected = {
        "E5": sorted([sorted({"E1": 2}.items()), sorted({"E2": 2}.items()),
                      sorted({"E3": 1, "E4": 2}.items())]),
        "E6": sorted([sorted({"E3": 2}.items()), sorted({"E4": 3}.items()),
                      sorted({"E1": 1, "E2": 1}.items())]),
    }
    equiv, _off = verify_equivariance(g, system)
    ok = (rep.verdict == "satisfied" and six_ok
          and supports == expected and equiv)
    _report(6, ok, f"verdict {rep.verdict}, six witnesses valid: {six_ok}, "
                   f"emitted supports match, equivariant: {equiv}")


def test_criterion_7_oracle_equivalence():
    diffs = oracle_verify(exmc(), up_to=15) + oracle_verify(d4(), up_to=15)
    _report(7, diffs == [],
            f"brute-force dims equal Molien dims to degree 15 "
            f"({len(diffs)} mismatches)")


def test_criterion_8_node_and_m_independence():
    g = fig1()
    gd = group_data(g)
    reports = {r: genus_report(g, root=r) for r in ("v0", "v1", "v2")}
    tables = [rep.per_character_h1 for rep in reports.values()]
    same = tables[0] == tables[1] == tables[2]
    pgs = {rep.pg for rep in reports.values()}
    # Route A asserts stability at m, m+1, m+2 internally
    stable = c_v_route_a(g, "v0", gd.trivial_character) == \
        c_v_chi(g, "v0", gd.trivial_character) == 2
    _report(8, same and pgs == {7} and stable,
            f"identical h1 tables at roots v0/v1/v2: {same}, "
            f"pg = {pgs}, c_v stable in m: {stable}")


def test_criterion_9_rationality_and_integrality():
    ok = True
    for g in (fig1(), exmc(), d4(), e8()):
        for v in g.nodes():
            for tab in molien_coeffs(g, v, 15).values():
                if any(not isinstance(c, int) or c < 0 for c in tab):
                    ok = False
    _report(9, ok, "every Hilbert coefficient across the corpus is a "
                   "nonnegative integer (no rationality assertion fired)")


def test_criterion_10_rational_fixtures():
    ok = True
    for g in (a_chain(3), a_chain(6), d4(), e8()):
        ok = ok and pg(g) == 0 and pg_uac(g) == 0 and artin_rational(g)
    _report(10, ok, "A_n, D4, E8 all give pg = pg_uac = 0, matching "
                    "Artin's rationality criterion")


def test_criterion_11_koszul_identity():
    ok = True
    for g in (fig1(), exmc(), d4(), e8()):
        for v in g.nodes():
            tabs = molien_coeffs(g, v, 15)
            total = total_ci_coeffs(g, v, 15)
            for i in range(16):
                if sum(t[i] for t in tabs.values()) != total[i]:
                    ok = False
    _report(11, ok, "sum over characters equals the full graded series, "
                    "degrees 0..15, every fixture and node")


def test_criterion_12_pg_uac_reproducible(capsys):
    argv = ["pg-uac", "--input", graph_file("fig1.json"), "--all-nodes",
            "--format", "json"]
    code1 = cli_run(argv)
    out1 = capsys.readouterr().out
    code2 = cli_run(argv)
    out2 = capsys.readouterr().out
    data = json.loads(out1)
    ok = (code1 == code2 == 0 and out1 == out2 and data["pgUAC"] == 165
          and data["rootsChecked"] == ["v0", "v1", "v2"])
    _report(12, ok, f"pg_uac = {data['pgUAC']} (pinned 165), byte-identical "
                    f"across runs and root nodes")
