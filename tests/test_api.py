"""The public API: ``splicegenus.__all__`` and the names the benchmark
harness under bench/ imports (tier-1 does not collect bench/, so a removal
there would otherwise go unnoticed)."""

import ast
import json
from pathlib import Path

import splicegenus

PUBLIC = [
    "GenusReport", "GroupData", "P_chi", "RationalFunctionQ",
    "ResolutionGraph", "a_invariant", "artin_rational", "bruteforce_eigendims",
    "c_v_chi", "c_v_chi_routes", "c_v_route_a", "check_monomial_condition",
    "emit_splice_system", "euler_char_on_cycle", "find_admissible_monomial",
    "genus_report", "group_data", "h1_eigensheaf", "h1_twisted",
    "hilbert_data", "minimal_nef_correction", "molien_closed",
    "molien_coeffs", "oracle_verify", "parse_graph", "pg", "pg_uac",
    "polynomial_part", "truncation_m", "v_degree",
    "validate_witness", "verify_equivariance",
]

# the star with Seifert legs (2,1), (3,1), (7,1) and central weight -1:
# the Brieskorn singularity x^2 + y^3 + z^7 = 0, |H| = 1 and p_g = 1
BRIESKORN_237 = {"vertices": [{"id": "c", "weight": -1}, {"id": "a", "weight": -2},
                   {"id": "b1", "weight": -3}, {"id": "d1", "weight": -7}],
      "edges": [["c", "a"], ["c", "b1"], ["c", "d1"]]}


def test_all_is_pinned():
    assert sorted(splicegenus.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(splicegenus, name) is not None
    assert not hasattr(splicegenus, "Character")
    assert not hasattr(splicegenus, "PolyQ")
    assert not hasattr(splicegenus, "QCycle")
    assert not hasattr(splicegenus, "unit_cycle")


def test_molien_keeps_no_self_checks():
    # the Koszul series is a test reference, and Route A is one function
    from splicegenus import molien

    assert not hasattr(molien, "total_ci_coeffs")
    assert not hasattr(molien, "_route_a_value")


def test_monomials_and_nef_corrections_are_plain_values():
    # a monomial is its exponent dict and a nef correction its int list
    from splicegenus import genus, splice

    assert not hasattr(splice, "MonomialCycle")
    assert not hasattr(splice, "monomial_cycle")
    assert not hasattr(genus, "NefCorrection")


def test_package_does_not_import_fractions():
    # cycles are int lists and numerators over |det I|, and Route A divides
    # exactly in the integers; rational cycles live in tests/reference.py
    sources = sorted(Path(splicegenus.__file__).parent.glob("*.py"))
    assert len(sources) >= 10
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert "fractions" not in names, f"{path.name} imports fractions"


def test_records_build_by_keyword_and_compare_by_value():
    # the records are SimpleNamespace subclasses: built by keyword, equal
    # when their fields are, and their to_json is what the CLI prints
    from splicegenus.splice import NodeSystem, SpliceSystem

    eq = [(1, {"l1": 1}), (1, {"l2": 1})]

    def system(seed):
        return SpliceSystem(nodes=[NodeSystem(node="c", monomials=[],
                                              v_degree=1, equations=[eq])],
                            seed=seed)

    assert system(0) == system(0) and system(0) != system(1)
    assert system(0).nodes[0].v_degree == 1
    assert system(0).to_json() == {"seed": 0, "nodes": [{
        "node": "c", "vDegree": 1, "monomials": [],
        "equations": [[{"coefficient": "1", "exponents": {"l1": 1}},
                       {"coefficient": "1", "exponents": {"l2": 1}}]]}]}
    assert repr(system(0)) == (
        "SpliceSystem(nodes=[NodeSystem(node='c', monomials=[], v_degree=1, "
        "equations=[[(1, {'l1': 1}), (1, {'l2': 1})]])], seed=0)")

    report = splicegenus.genus_report(
        splicegenus.parse_graph(json.dumps(BRIESKORN_237)))
    assert report == splicegenus.GenusReport(
        pg=1, per_character_h1={(): 1}, pg_uac=1, trace=[])
    # trace defaults to empty
    bare = splicegenus.GenusReport(pg=1, per_character_h1={(): 1}, pg_uac=1)
    assert bare.to_json() == report.to_json() == {
        "pg": 1, "pgUAC": 1, "h1": [{"char": [], "value": 1}], "trace": []}


def test_package_has_no_assert():
    # python -O drops an assert; every internal check raises
    # InternalCheckError, and cli.run catches that alone
    sources = sorted(Path(splicegenus.__file__).parent.glob("*.py"))
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            assert not isinstance(node, ast.Assert), \
                f"{path.name}:{node.lineno} asserts"
            assert not (isinstance(node, ast.Name)
                        and node.id == "AssertionError"), \
                f"{path.name}:{node.lineno} names AssertionError"


def test_only_graph_builds_graphs():
    # a graph and the subgraphs it builds share one object per vertex set
    # (ResolutionGraph.subgraph); a ResolutionGraph(...) call elsewhere in
    # the package would bring back per-call copies and their caches
    sources = sorted(Path(splicegenus.__file__).parent.glob("*.py"))
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                assert name != "ResolutionGraph" or path.name == "graph.py", \
                    f"{path.name}:{node.lineno} calls ResolutionGraph(...)"


def test_only_the_memo_and_the_growing_caches_touch_a_graph_cache():
    # every per-graph value is built by graph._per_graph; the others read
    # or write g._cache because they are not plain memos: the report a
    # branch is given, the kernel rows kept for the largest degree, the h1
    # values compared at a named root and the branch term tables
    sources = sorted(Path(splicegenus.__file__).parent.glob("*.py"))
    found = set()
    for path in sources:
        tree = ast.parse(path.read_text(), str(path))
        inside = {}
        for f in ast.walk(tree):
            if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(f):
                    inside.setdefault(node, f.name)  # the outermost function
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "_cache":
                found.add((path.name, inside.get(node)))
    assert found == {("graph.py", "__init__"), ("graph.py", "_per_graph"),
                     ("graph.py", "branches"), ("molien.py", "_node_rows"),
                     ("genus.py", "h1_eigensheaf")}


def test_only_the_full_parser_builds_a_parser():
    # a well-formed call is read from the command table (cli._plain_args);
    # an ArgumentParser(...) call outside cli._build_parser would bring
    # back a parser build, and its locale import, on every call
    sources = sorted(Path(splicegenus.__file__).parent.glob("*.py"))
    found = []
    for path in sources:
        tree = ast.parse(path.read_text(), str(path))
        inside = {}
        for f in ast.walk(tree):
            if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(f):
                    inside.setdefault(node, f.name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                if name == "ArgumentParser":
                    found.append((path.name, inside.get(node)))
    assert found == [("cli.py", "_build_parser")]


def test_names_the_benchmark_uses_resolve():
    from splicegenus import check_monomial_condition, parse_graph, pg
    from splicegenus.cli import run
    from splicegenus.molien import group_data

    g = parse_graph(json.dumps(BRIESKORN_237))
    assert pg(g) == 1
    assert group_data(g).order == 1
    assert check_monomial_condition(g, bound=64).verdict == "satisfied"
    assert callable(run)


def test_tracer_layers_import():
    # bench/tracer.py wraps the public functions of splicegenus.<layer> for
    # each name in its LAYERS; read that tuple without importing the tracer
    import importlib

    path = Path(__file__).parent.parent / "bench" / "tracer.py"
    tree = ast.parse(path.read_text(), str(path))
    layers = next(ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and [t.id for t in node.targets if isinstance(t, ast.Name)]
                  == ["LAYERS"])
    assert "exact" in layers and "discgroup" in layers
    for layer in layers:
        importlib.import_module(f"splicegenus.{layer}")
