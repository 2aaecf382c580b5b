"""Shared test graphs, built in code so tests do not depend on data files.

fig1: the 14-vertex three-node graph with |H| = 36 and p_g = 7.
exmc: the 6-vertex two-node graph whose splice system is
      z1^2 + z2^2 + z3 z4^2, z3^2 + z4^3 + z1 z2.
star: a central curve with Hirzebruch-Jung legs, given by Seifert pairs.
splice_quotient_trees: seeded random trees with at least two nodes, small
      |H| and the monomial condition established.
HUGE_H_TREES: three trees with |H| = 19,273, 34,908 and 119,154, as JSON
      text; too large for any table over H.
caterpillar: a spine of k nodes, each with two leaves; |H| grows about
      tenfold per node.
record_eliminations: the matrices a call hands to the Bareiss pass and to
      the Smith form.
"""

import itertools
import os
import random
from fractions import Fraction
from math import gcd

from splicegenus import ResolutionGraph, exact
from splicegenus.discgroup import group_data
from splicegenus.errors import GraphInputError
from splicegenus.splice import check_monomial_condition

GRAPHS_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "graphs")


def fig1() -> ResolutionGraph:
    vs = [("w1", -2), ("u2", -2), ("v1", -1), ("u4", -16), ("v0", -2),
          ("u6", -4), ("u7", -2), ("v2", -2), ("u9", -2), ("w5", -2),
          ("w2", -4), ("w3", -2), ("a1", -2), ("w4", -2)]
    es = [("w1", "u2"), ("u2", "v1"), ("v1", "u4"), ("u4", "v0"),
          ("v0", "u6"), ("u6", "u7"), ("u7", "v2"), ("v2", "u9"),
          ("u9", "w5"), ("v1", "w2"), ("v0", "w3"), ("v2", "a1"),
          ("a1", "w4")]
    return ResolutionGraph(vs, es)


def exmc() -> ResolutionGraph:
    vs = [("E1", -2), ("E2", -2), ("E3", -2), ("E4", -3), ("E5", -2),
          ("E6", -2)]
    es = [("E1", "E5"), ("E2", "E5"), ("E5", "E6"), ("E3", "E6"),
          ("E4", "E6")]
    return ResolutionGraph(vs, es)


def d4() -> ResolutionGraph:
    return ResolutionGraph(
        [("c", -2), ("l1", -2), ("l2", -2), ("l3", -2)],
        [("c", "l1"), ("c", "l2"), ("c", "l3")])


def e8() -> ResolutionGraph:
    vs = [(f"e{i}", -2) for i in range(1, 9)]
    es = [("e1", "e2"), ("e2", "e3"), ("e3", "e4"), ("e4", "e5"),
          ("e5", "e6"), ("e6", "e7"), ("e3", "e8")]
    return ResolutionGraph(vs, es)


def a_chain(n, weight=-2) -> ResolutionGraph:
    vs = [(f"a{i}", weight) for i in range(1, n + 1)]
    es = [(f"a{i}", f"a{i + 1}") for i in range(1, n)]
    return ResolutionGraph(vs, es)


def single(weight=-2) -> ResolutionGraph:
    return ResolutionGraph([("e", weight)], [])


def hj_chain(alpha, omega):
    """Weights -b_1, ..., -b_k with alpha/omega = [b_1, ..., b_k]."""
    out = []
    while omega:
        b = -(-alpha // omega)
        out.append(-b)
        alpha, omega = omega, b * omega - alpha
    return out


def star(b, legs) -> ResolutionGraph:
    """Central weight -b; leg i is the chain of alpha_i/omega_i, b_1 next
    to the centre."""
    vs, es = [("c", -b)], []
    for i, (alpha, omega) in enumerate(legs):
        prev = "c"
        for j, weight in enumerate(hj_chain(alpha, omega)):
            vid = f"l{i}_{j}"
            vs.append((vid, weight))
            es.append((prev, vid))
            prev = vid
    return ResolutionGraph(vs, es)


def star_order(b, legs):
    """|H| = prod alpha_i * (b - sum omega_i/alpha_i)."""
    order = b - sum(Fraction(w, a) for a, w in legs)
    for a, _ in legs:
        order *= a
    return int(order)


def small_stars(max_order=16):
    """Every star with 3-4 legs alpha/omega, alpha <= 5, and |H| <= max_order
    (negative definite: b > sum omega_i/alpha_i), each up to isomorphism."""
    leg_types = [(a, w) for a in range(2, 6) for w in range(1, a)
                 if gcd(a, w) == 1]
    out = []
    for k in (3, 4):
        for legs in itertools.combinations_with_replacement(leg_types, k):
            b = int(sum(Fraction(w, a) for a, w in legs)) + 1
            while star_order(b, legs) <= max_order:
                out.append((b, legs))
                b += 1
    return out


def splice_quotient_trees(seed, count, max_order=500):
    """``count`` seeded random trees (6-10 vertices, weights -1..-5) that are
    valid resolution graphs with at least two nodes, |H| <= max_order and
    the monomial condition satisfied within bound 16: splice quotients
    outside the fixtures."""
    rng = random.Random(seed)
    while count:
        ids = [f"x{i}" for i in range(rng.randint(6, 10))]
        g = ResolutionGraph([(v, -rng.randint(1, 5)) for v in ids],
                            [(ids[rng.randrange(i)], ids[i])
                             for i in range(1, len(ids))])
        try:
            g.require_valid()
        except GraphInputError:
            continue
        if (len(g.nodes()) >= 2 and group_data(g).order <= max_order
                and check_monomial_condition(g, bound=16).verdict
                == "satisfied"):
            count -= 1
            yield g


def caterpillar(k) -> ResolutionGraph:
    """The spine n0 - n1 - ... - n{k-1}: n_i has weight -3 for odd i and
    -(3 + i mod 3) for even i, and carries the leaves a_i (weight -2) and
    b_i (weight -3)."""
    vs, es = [], []
    for i in range(k):
        vs += [(f"n{i}", -3 if i % 2 else -(3 + i % 3)), (f"a{i}", -2),
               (f"b{i}", -3)]
        es += [(f"n{i}", f"a{i}"), (f"n{i}", f"b{i}")]
        if i:
            es.append((f"n{i - 1}", f"n{i}"))
    return ResolutionGraph(vs, es)


# |H| -> the graph as JSON text; p_g is 0, 0 and 1
HUGE_H_TREES = {
    19273: '{"vertices":[{"id":"x0","weight":-5},{"id":"x1","weight":-2},'
           '{"id":"x2","weight":-4},{"id":"x3","weight":-3},'
           '{"id":"x4","weight":-3},{"id":"x5","weight":-3},'
           '{"id":"x6","weight":-3},{"id":"x7","weight":-3},'
           '{"id":"x8","weight":-2},{"id":"x9","weight":-3}],'
           '"edges":[["x0","x1"],["x1","x2"],["x0","x3"],["x0","x4"],'
           '["x2","x5"],["x0","x6"],["x4","x7"],["x3","x8"],["x3","x9"]]}',
    34908: '{"vertices":[{"id":"x0","weight":-3},{"id":"x1","weight":-3},'
           '{"id":"x2","weight":-3},{"id":"x3","weight":-3},'
           '{"id":"x4","weight":-7},{"id":"x5","weight":-2},'
           '{"id":"x6","weight":-2},{"id":"x7","weight":-4},'
           '{"id":"x8","weight":-3},{"id":"x9","weight":-5}],'
           '"edges":[["x0","x1"],["x1","x2"],["x2","x3"],["x1","x4"],'
           '["x0","x5"],["x0","x6"],["x3","x7"],["x0","x8"],["x8","x9"]]}',
    119154: '{"vertices":[{"id":"x0","weight":-4},{"id":"x1","weight":-5},'
            '{"id":"x10","weight":-2},{"id":"x11","weight":-7},'
            '{"id":"x2","weight":-2},{"id":"x3","weight":-2},'
            '{"id":"x4","weight":-5},{"id":"x5","weight":-2},'
            '{"id":"x6","weight":-3},{"id":"x7","weight":-3},'
            '{"id":"x8","weight":-2},{"id":"x9","weight":-6}],'
            '"edges":[["x0","x1"],["x0","x2"],["x0","x3"],["x0","x4"],'
            '["x3","x5"],["x2","x6"],["x1","x7"],["x2","x8"],["x3","x9"],'
            '["x5","x10"],["x8","x11"]]}',
}


def record_eliminations(monkeypatch):
    """Two lists that collect, while monkeypatch is in effect, the matrices
    handed to ``exact.negative_definite_violation`` (the Bareiss pass) and
    to ``exact.smith_normal_form``."""
    bareiss, smith = [], []
    for name, calls in (("negative_definite_violation", bareiss),
                        ("smith_normal_form", smith)):
        real = getattr(exact, name)
        monkeypatch.setattr(exact, name, lambda M, real=real, calls=calls:
                            calls.append(M) or real(M))
    return bareiss, smith


def graph_file(name) -> str:
    return os.path.join(GRAPHS_DIR, name)
