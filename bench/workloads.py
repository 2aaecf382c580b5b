"""Seeded inputs and operations for each benchmark workload.

Star graphs and the fixtures are generated from the seed with plain
arithmetic; only the seeded trees of ``large-trees`` are filtered through
splicegenus's monomial-condition search, the hypothesis of the theorem.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from pathlib import Path

import checks

# Seifert pairs (alpha, omega) of the Hirzebruch-Jung legs a star may have.
LEG_TYPES = [(a, w) for a in range(2, 6) for w in range(1, a) if gcd(a, w) == 1]
# Every star with 3-4 such legs and |H| up to this bound is in the corpus:
# 96 graphs whose pg-uac times span two orders of magnitude.
STAR_MAX_ORDER = 16
# Stars of the corpus that node-queries runs emit-equations and
# oracle-verify on, one from each |H| stratum.
NODE_QUERY_STARS = 8


def _graph(weights, edges):
    return {"vertices": [{"id": v, "weight": w} for v, w in weights],
            "edges": [list(e) for e in edges]}


# The paper's Figure 1 graph: p_g = 7, p_g(UAC) = 165.
FIG1 = _graph(
    [("w1", -2), ("u2", -2), ("v1", -1), ("u4", -16), ("v0", -2), ("u6", -4),
     ("u7", -2), ("v2", -2), ("u9", -2), ("w5", -2), ("w2", -4), ("w3", -2),
     ("a1", -2), ("w4", -2)],
    [("w1", "u2"), ("u2", "v1"), ("v1", "u4"), ("u4", "v0"), ("v0", "u6"),
     ("u6", "u7"), ("u7", "v2"), ("v2", "u9"), ("u9", "w5"), ("v1", "w2"),
     ("v0", "w3"), ("v2", "a1"), ("a1", "w4")])
D4 = _graph([("c", -2), ("l1", -2), ("l2", -2), ("l3", -2)],
            [("c", "l1"), ("c", "l2"), ("c", "l3")])
EXMC = _graph(
    [("E1", -2), ("E2", -2), ("E3", -2), ("E4", -3), ("E5", -2), ("E6", -2)],
    [("E1", "E5"), ("E2", "E5"), ("E5", "E6"), ("E3", "E6"), ("E4", "E6")])
# Random 8-vertex tree with |H| = 3540 on which Route A asks for a
# 286,740-degree table per character.
BASELINE_TREE = _graph(
    [("x0", -5), ("x1", -3), ("x2", -2), ("x3", -6), ("x4", -2), ("x5", -3),
     ("x6", -3), ("x7", -2)],
    [("x0", "x1"), ("x0", "x2"), ("x0", "x4"), ("x1", "x3"), ("x3", "x5"),
     ("x3", "x6"), ("x3", "x7")])


def hj_chain(alpha, omega):
    """Weights -b_1, ..., -b_k with alpha/omega = [b_1, ..., b_k], b_1 next
    to the central curve."""
    out = []
    while omega:
        b = -(-alpha // omega)
        out.append(-b)
        alpha, omega = omega, b * omega - alpha
    return out


def star_space(max_order=STAR_MAX_ORDER):
    """Every star (b, legs) with 3-4 legs from LEG_TYPES and |H| <= max_order,
    legs sorted, so each isomorphism class appears once."""
    out = []
    for k in (3, 4):
        for legs in itertools.combinations_with_replacement(LEG_TYPES, k):
            b = int(sum(Fraction(w, a) for a, w in legs)) + 1
            while checks.star_group_order(b, legs) <= max_order:
                out.append((b, legs))
                b += 1
    return out


def star_graph(b, legs, rng=None):
    """Graph of the star with central weight -b and these legs.

    With ``rng`` the vertex ids, the vertex order and the leg order are drawn
    from it; the isomorphism class, hence every invariant, is unchanged.
    """
    legs = list(legs)
    if rng is not None:
        rng.shuffle(legs)
    chains = [hj_chain(a, w) for a, w in legs]
    names = [f"v{i}" for i in range(1 + sum(map(len, chains)))]
    if rng is not None:
        rng.shuffle(names)
    centre = names[0]
    weights = [(centre, -b)]
    edges = []
    it = iter(names[1:])
    for chain in chains:
        prev = centre
        for weight in chain:
            vid = next(it)
            weights.append((vid, weight))
            edges.append((prev, vid))
            prev = vid
    if rng is not None:
        rng.shuffle(weights)
        rng.shuffle(edges)
    return _graph(weights, edges)


def star_corpus(seed):
    """The whole star space, each star relabelled and reordered from the seed.

    The set of isomorphism classes is the same for every seed, so the work a
    pass does varies little between seeds; the files, the vertex ids and the
    order of the operations do vary.
    """
    rng = random.Random(seed)
    corpus = [(b, legs, star_graph(b, legs, rng)) for b, legs in star_space()]
    rng.shuffle(corpus)
    return corpus


def random_tree(rng):
    """A negative-definite tree with 7-9 vertices, two or more nodes and
    |det I| in [1000, 6000], or None."""
    n = rng.randint(7, 9)
    weights = {f"x{i}": -rng.randint(2, 6) for i in range(n)}
    edges = [(f"x{rng.randrange(i)}", f"x{i}") for i in range(1, n)]
    degree = {v: 0 for v in weights}
    for a, b in edges:
        degree[a] += 1
        degree[b] += 1
    if sum(d >= 3 for d in degree.values()) < 2:
        return None
    if not checks.negative_definite(weights, edges):
        return None
    if not 1000 <= abs(checks.tree_det(weights, edges)) <= 6000:
        return None
    return weights, edges


def seeded_trees(seed, count=2):
    """``count`` random trees that pass check_monomial_condition."""
    from splicegenus import check_monomial_condition, parse_graph

    rng = random.Random(seed)
    out = []
    while len(out) < count:
        tree = random_tree(rng)
        if tree is None:
            continue
        graph = _graph(sorted(tree[0].items()), tree[1])
        g = parse_graph(json.dumps(graph))
        if check_monomial_condition(g, bound=64).verdict == "satisfied":
            out.append(graph)
    return out


# -- operations ----------------------------------------------------------


@dataclass
class Op:
    label: str
    argv: list
    check: object     # JSON output of a run that exited 0 -> wrong answer or None


@dataclass
class Workload:
    budget_s: float   # time budget of one operation
    mem_mb: int       # address-space cap the worker sets on itself
    build: object     # (seed, workdir) -> list of Op


def _write(workdir: Path, name, graph):
    path = workdir / name
    path.write_text(json.dumps(graph))
    return str(path)


def _exit0_only(out):
    return None


def _check_fig1(out):
    if (out["pg"], out["pgUAC"]) != (checks.FIG1_PG, checks.FIG1_PG_UAC):
        return f"pg {out['pg']} pgUAC {out['pgUAC']}"
    return None


def _check_star(b, legs):
    want_pg = checks.pinkham_pg(b, legs)
    want_order = checks.star_group_order(b, legs)

    def check(out):
        h1 = [e["value"] for e in out["h1"]]
        if out["pg"] != want_pg:
            return f"pg {out['pg']}, Pinkham {want_pg}"
        if len(h1) != want_order or min(h1) < 0 or sum(h1) != out["pgUAC"]:
            return f"h1 table of {len(h1)} entries, min {min(h1)}"
        return None
    return check


def _check_no_mismatches(out):
    return f"{len(out['mismatches'])} mismatches" if out["mismatches"] else None


def _check_cv(out):
    return None if out["routesAgree"] else "c_v routes disagree"


def _pg_pair_check(order):
    """pg and pg-uac on one tree: same p_g, |H| entries, every h1 >= 0."""
    pair = {}

    def pg_check(out):
        pair["pg"] = out["pg"]
        return None

    def uac_check(out):
        h1 = [e["value"] for e in out["h1"]]
        if "pg" in pair and pair["pg"] != out["pg"]:
            return f"pg {pair['pg']} but pg-uac reports pg {out['pg']}"
        if len(h1) != order or min(h1) < 0:
            return f"h1 table of {len(h1)} entries for |H| = {order}"
        return None
    return pg_check, uac_check


def fig1_ops(seed, workdir):
    path = _write(workdir, "fig1.json", FIG1)
    return [Op("pg-uac --all-nodes fig1",
               ["pg-uac", "--input", path, "--all-nodes"], _check_fig1)]


def star_ops(seed, workdir):
    ops = []
    for i, (b, legs, graph) in enumerate(star_corpus(seed)):
        path = _write(workdir, f"star{i:03d}.json", graph)
        ops.append(Op(f"pg-uac star b={b} legs={list(legs)}",
                      ["pg-uac", "--input", path], _check_star(b, legs)))
    return ops


def node_query_ops(seed, workdir):
    fig1 = _write(workdir, "fig1.json", FIG1)
    d4 = _write(workdir, "d4.json", D4)
    exmc = _write(workdir, "exmc.json", EXMC)
    s = str(seed)
    ops = [Op("hilbert fig1 v0", ["hilbert", "--input", fig1, "--node", "v0"],
              _exit0_only)]
    ops += [Op(f"cv fig1 {v}", ["cv", "--input", fig1, "--node", v], _check_cv)
            for v in ("v0", "v1", "v2")]
    ops += [Op("monomial-check fig1", ["monomial-check", "--input", fig1],
               _exit0_only),
            Op("emit-equations fig1",
               ["emit-equations", "--input", fig1, "--seed", s], _exit0_only)]
    for name, path, degrees in (("d4", d4, (10, 15)), ("exmc", exmc, (15, 25)),
                                ("fig1", fig1, (6,))):
        ops += [Op(f"oracle-verify {name} {d}",
                   ["oracle-verify", "--input", path, "--max-degree", str(d),
                    "--seed", s], _check_no_mismatches) for d in degrees]
    # the middle star of each |H| stratum, relabelled from the seed as in
    # star-corpus, so the work does not depend on the seed
    stars = sorted(star_corpus(seed),
                   key=lambda t: (checks.star_group_order(t[0], t[1]), t[0], t[1]))
    size = len(stars) / NODE_QUERY_STARS
    for k in range(NODE_QUERY_STARS):
        b, legs, graph = stars[int((k + 0.5) * size)]
        path = _write(workdir, f"star{k}.json", graph)
        ops += [Op(f"emit-equations star b={b} legs={list(legs)}",
                   ["emit-equations", "--input", path, "--seed", s],
                   _exit0_only),
                Op(f"oracle-verify star b={b} legs={list(legs)}",
                   ["oracle-verify", "--input", path, "--max-degree", "10",
                    "--seed", s], _check_no_mismatches)]
    return ops


def large_tree_ops(seed, workdir):
    ops = []
    for i, graph in enumerate([BASELINE_TREE] + seeded_trees(seed)):
        path = _write(workdir, f"tree{i}.json", graph)
        weights = {v["id"]: v["weight"] for v in graph["vertices"]}
        order = abs(checks.tree_det(weights, graph["edges"]))
        pg_check, uac_check = _pg_pair_check(order)
        ops += [Op(f"pg tree{i} |H|={order}", ["pg", "--input", path], pg_check),
                Op(f"pg-uac tree{i} |H|={order}", ["pg-uac", "--input", path],
                   uac_check)]
    return ops


WORKLOADS = {
    "fig1-allroots": Workload(budget_s=60, mem_mb=1024, build=fig1_ops),
    "star-corpus": Workload(budget_s=20, mem_mb=1024, build=star_ops),
    "node-queries": Workload(budget_s=30, mem_mb=1024, build=node_query_ops),
    "large-trees": Workload(budget_s=120, mem_mb=2048, build=large_tree_ops),
}
