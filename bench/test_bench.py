"""Tests of the benchmark's own logic.

    PYTHONPATH=src python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import calibrate
import checks
import run
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


def test_pinkham_brieskorn_237():
    # central -1, legs -2, -3, -7: Sigma(2,3,7), p_g = 1
    legs = [(2, 1), (3, 1), (7, 1)]
    assert workloads.star_graph(1, legs)["vertices"][0]["weight"] == -1
    assert [workloads.hj_chain(a, w) for a, w in legs] == [[-2], [-3], [-7]]
    assert checks.star_group_order(1, legs) == 1
    assert checks.pinkham_pg(1, legs) == 1


@pytest.mark.parametrize("b, legs", [
    (1, [(2, 1), (3, 1), (7, 1)]),
    (2, [(2, 1), (5, 1), (5, 3), (5, 3)]),
    (2, [(3, 2), (5, 2), (5, 2)]),
    (2, [(3, 1), (3, 1), (4, 3)]),
])
def test_pinkham_and_order_agree_with_library(b, legs):
    from splicegenus import parse_graph, pg
    from splicegenus.molien import group_data

    g = parse_graph(json.dumps(workloads.star_graph(b, legs)))
    assert pg(g) == checks.pinkham_pg(b, legs)
    assert group_data(g).order == checks.star_group_order(b, legs)


def test_tree_det_and_definiteness():
    tree = workloads.BASELINE_TREE
    weights = {v["id"]: v["weight"] for v in tree["vertices"]}
    assert abs(checks.tree_det(weights, tree["edges"])) == 3540
    assert checks.negative_definite(weights, tree["edges"])
    assert not checks.negative_definite({"a": -1, "b": -1}, [("a", "b")])


def _inputs(build, seed, workdir):
    workdir.mkdir()
    ops = build(seed, workdir)
    files = {p.name: p.read_text() for p in sorted(workdir.iterdir())}
    return [op.argv for op in ops], files


@pytest.mark.parametrize("build", [workloads.star_ops, workloads.node_query_ops])
def test_same_seed_same_inputs(tmp_path, build):
    a = _inputs(build, 7, tmp_path / "a")
    b = _inputs(build, 7, tmp_path / "b")
    c = _inputs(build, 8, tmp_path / "c")
    assert [[x.replace("/a/", "/") for x in argv] for argv in a[0]] == \
           [[x.replace("/b/", "/") for x in argv] for argv in b[0]]
    assert a[1] == b[1]
    assert a[1] != c[1]


def test_star_corpus_deduplicated():
    # splicegenus fingerprints a graph by its sorted weighted vertices and
    # edges; genus._h1_memo must never see one twice
    def fingerprint(graph):
        vs = sorted((v["id"], v["weight"]) for v in graph["vertices"])
        return json.dumps([vs, sorted(sorted(e) for e in graph["edges"])])

    corpus = workloads.star_corpus(3)
    prints = {fingerprint(graph) for _, _, graph in corpus}
    assert len(prints) == len(corpus) == len(set((b, legs) for b, legs, _ in corpus))
    assert 90 <= len(corpus) <= 110


def test_self_time_on_hand_built_tree():
    spans = [
        ("cli.run", -1, 0.0, 10.0),
        ("genus.h1_eigensheaf", 0, 1.0, 9.0),
        ("molien.c_v_chi", 1, 2.0, 5.0),
        ("graph.ResolutionGraph.intersect", 2, 3.0, 4.0),
        ("genus.h1_eigensheaf", 1, 6.0, 8.0),       # memo hit: no c_v child
        ("graph.ResolutionGraph.intersect", 0, 9.5, 9.75),
    ]
    assert tracer.self_times(spans) == [1.75, 3.0, 2.0, 1.0, 2.0, 0.25]
    m = tracer.layer_metrics(spans, dict.fromkeys(
        ["molien.table_coeffs", "molien.max_degree", "discgroup.h_order_max",
         "splice.witness_hits"], 0))
    assert m["cli.self_s"] == 1.75
    assert m["genus.self_s"] == 5.0
    assert m["molien.self_s"] == 2.0
    assert m["graph.self_s"] == 1.25
    assert m["molien.cv_s"] == 3.0
    assert m["graph.intersect_calls"] == 2
    assert m["genus.h1_calls"] == 2
    assert m["genus.max_depth"] == 2
    assert m["genus.h1_memo_hit_ratio"] == 0.5


def test_overlapping_children_are_counted_once():
    spans = [("a.f", -1, 0.0, 10.0), ("b.g", 0, 1.0, 4.0), ("b.h", 0, 3.0, 6.0)]
    assert tracer.self_times(spans)[0] == 5.0


def test_failed_op_scored_at_budget():
    p = run.Pass(traced=False, setup_s=0.1, budget_s=20.0, raw_wall_s=0.0,
                 ops=[(1.5, None, False), (0.2, "MemoryError", False),
                      (0.3, "pg 3, Pinkham 2", True)])
    assert p.scores() == [1.5, 20.0, 20.0]
    assert p.wall_s() == 41.5
    assert run.score(25.0, "over the 20 s budget", 20.0) == 20.0


def test_speed_factors_use_the_chunks_around_each_op():
    ref = calibrate.REFERENCE_S
    cals = [(-1, 4 * ref), (1, ref), (2, 2 * ref)]
    assert run.speed_factors(cals, [[], [], []]) == [0.4, 0.4, 2 / 3]
    # chunks run inside a long operation count with the ones around it
    assert run.speed_factors(cals, [[ref, ref], [], []])[0] == 4 / 7
    # a worker that died after op 0 leaves only the chunk before it
    assert run.speed_factors([(-1, 2 * ref)], [[]]) == [0.5]


def test_tail_percentile_keeps_ten_samples_beyond():
    value, q, above = run.tail_percentile(range(1, 201))
    assert (round(value, 6), q, above) == (180.1, 0.9, 20)
    value, q, above = run.tail_percentile(range(1, 51))
    assert (round(value, 6), q, above) == (40.2, 0.8, 10)
    # too few samples for ten above any percentile: the median
    assert run.tail_percentile([3.0, 1.0, 2.0]) == (2.0, 0.5, 1)


def test_benchmark_json_names_what_the_script_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    layers = tracer.layer_metrics([], dict.fromkeys(
        ["molien.table_coeffs", "molien.max_degree", "discgroup.h_order_max",
         "splice.witness_hits"], 0))
    names = set(layers) | {"fail_frac", "trace.overhead_s", "trace.overhead_frac"}
    assert {m["name"] for m in spec["per_layer"]} == names
    assert all(m["unit"] == run.per_layer_unit(m["name"]) for m in spec["per_layer"])


def test_tracer_rebinds_imported_names(tmp_path):
    d4 = tmp_path / "d4.json"
    d4.write_text(json.dumps(workloads.D4))
    code = (
        "import io, contextlib, tracer\n"
        "t = tracer.Tracer(); t.install()\n"
        "import splicegenus.cli as cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    cli.run(['pg-uac', '--input', {str(d4)!r}])\n"
        "m = tracer.layer_metrics(t.spans(), t.counters)\n"
        "print(t.spans()[0][0], m['molien.cv_calls'], m['genus.h1_calls'],"
        " m['discgroup.groupdata_calls'])\n")
    env = {"PYTHONPATH": f"{SRC}:{ROOT / 'bench'}", "PATH": "/usr/bin:/bin"}
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    root, cv_calls, h1_calls, groups = out.stdout.split()
    assert root == "cli.run"
    assert int(cv_calls) == int(h1_calls) == 4      # |H| = 4 characters
    assert int(groups) == 1
