import argparse
import json
import os
import signal
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fixtures import GRAPHS_DIR, fig1, graph_file
from splicegenus import cli
from splicegenus.cli import run
from splicegenus.errors import InternalCheckError


def _json_out(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _payload(capsys, argv):
    code, out, err = _json_out(capsys, argv)
    return code, json.loads(out), err


# -- exit codes ------------------------------------------------------------

def test_missing_file_exits_1(capsys):
    code, _, err = _json_out(capsys, ["validate", "--input", "/nope.json"])
    assert code == 1 and "cannot read" in err


def test_unknown_flag_exits_1(capsys):
    assert run(["validate", "--bogus"]) == 1
    capsys.readouterr()


def test_version_exits_0(capsys):
    assert run(["--version"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("doc", ["", "# nothing\n", '{"vertices": [], "edges": []}'],
                         ids=["empty-dsl", "comment-dsl", "empty-json"])
def test_empty_graph_has_no_vertices(tmp_path, capsys, doc):
    path = tmp_path / "empty.txt"
    path.write_text(doc)
    code, out, err = _json_out(capsys, ["pg", "--input", str(path)])
    assert (code, out, err) == (1, "", "error: graph has no vertices\n")
    code, data, err = _payload(
        capsys, ["validate", "--input", str(path), "--format", "json"])
    assert code == 1 and err == ""
    assert data["error"] == "graph has no vertices"
    assert data["valid"] is False and data["isTree"] is False


def test_invalid_graph_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"vertices":[{"id":"a","weight":-1},'
                   '{"id":"b","weight":-1}],"edges":[["a","b"]]}')
    code, data, _ = _payload(
        capsys, ["validate", "--input", str(bad), "--format", "json"])
    assert code == 1
    assert data["valid"] is False and data["negativeDefinite"] is False


# the chain -2, -1, -2: leading minors -2, 1, 0
_INDEFINITE_TREE = "vertex a -2\nvertex b -1\nvertex c -2\nedge a b\nedge b c\n"


@pytest.mark.parametrize("command, out, err", [
    ("validate", "valid: False\ntree: True\nnegative definite: False\n"
                 "chain: False\nnodes: -\nends: -\n"
                 "error: not negative definite (minor 3)\n", ""),
    ("pg", "", "error: intersection matrix is not negative definite "
               "(leading principal minor 3 has wrong sign)\n"),
])
def test_indefinite_tree_names_its_minor(tmp_path, capsys, command, out, err):
    path = tmp_path / "indefinite.dsl"
    path.write_text(_INDEFINITE_TREE)
    assert _json_out(capsys, [command, "--input", str(path)]) == (1, out, err)


def _fresh_run(argv, flags=()):
    """(exit code, stdout, stderr) of the CLI in a fresh process, run with
    the interpreter flags ``flags``."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=os.path.join(
        os.path.dirname(__file__), os.pardir, "src"))
    env.pop("PYTHONOPTIMIZE", None)
    proc = subprocess.run(
        [sys.executable, *flags, "-m", "splicegenus.cli", *argv],
        capture_output=True, text=True, env=env, timeout=60)
    return proc.returncode, proc.stdout, proc.stderr


def test_pg_uac_prints_the_same_bytes_under_python_O():
    # every internal check raises InternalCheckError, which -O keeps
    argv = ["pg-uac", "--input", graph_file("fig1.json"), "--format", "json"]
    plain, optimized = _fresh_run(argv), _fresh_run(argv, ["-O"])
    assert plain[0] == 0 and plain[1]
    assert optimized == plain


@pytest.fixture
def built_parsers(monkeypatch):
    """The ArgumentParsers built from now on, the full parser's cache
    cleared."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kw):
        built.append(self)
        init(self, *args, **kw)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli._build_parser.cache_clear()
    return built


def test_parser_reuse_leaks_no_state(tmp_path, capsys, built_parsers):
    bad = tmp_path / "indefinite.dsl"
    bad.write_text(_INDEFINITE_TREE)
    calls = [["pg", "--bogus"], ["--version"], ["pg"],
             ["validate", "--input", str(bad)],
             ["pg-uac", "--input", graph_file("fig1.json"), "--format", "json"]]
    fresh = [_fresh_run(argv) for argv in calls]
    built = []
    for _ in range(2):
        for argv, expected in zip(calls, fresh):
            assert _json_out(capsys, argv) == expected, argv
            built.append(len(built_parsers))
    # the full parser's 12 (its own and one per command) for the first
    # call, the error "pg --bogus", reused for --version and the usage
    # error "pg"; the valid validate and pg-uac calls and the second round
    # build none
    assert built == [12] * 10


def _parse_outcome(parse, argv, capsys):
    """(namespace or exit code, stdout, stderr) of one parse."""
    try:
        result = vars(parse(argv))
    except SystemExit as exc:
        result = exc.code
    captured = capsys.readouterr()
    return result, captured.out, captured.err


_D4 = graph_file("d4.json")
_PARSER_CASES = [
    [command, "--input", _D4, "--format", fmt]
    + (["--char", "1,1"] if command == "h1" else [])
    for command in cli._COMMANDS for fmt in ("text", "json")] + [
    ["-h"], ["--version"], ["pg", "-h"], ["bogus"], [],
    ["pg"], ["pg", "--input", _D4, "--format", "xml"],
    ["emit-equations", "--input", _D4, "--seed", "q"],
    ["hilbert", "--input", _D4, "--max-degree", "-1"],
    ["pg", "--bogus"], ["pg", "--input", _D4, "--bogus"], ["pg", "--version"],
    ["pg", "--input", _D4, "--version"], ["--format", "json", "pg", "--input", _D4],
    ["pg", "--inp", _D4], ["hilbert", "--inp", _D4, "--max-d", "3"],
    ["pg", "--input", _D4, "--", "--all-nodes"], ["pg", "--", "--input", _D4],
]


def _case_id(argv):
    return " ".join("d4.json" if a == _D4 else a for a in argv) or "(none)"


@pytest.mark.parametrize("argv", _PARSER_CASES, ids=_case_id)
def test_one_command_parser_matches_the_full_parser(argv, capsys):
    # a call read from the command table reads, prints and exits as the
    # full parser does, and as a fresh process does
    assert _parse_outcome(cli._parse_args, argv, capsys) == _parse_outcome(
        cli._build_parser().parse_args, argv, capsys)
    assert _json_out(capsys, argv) == _fresh_run(argv)


def test_a_valid_call_builds_no_parser(capsys, built_parsers):
    assert run(["pg", "--input", _D4]) == 0
    assert capsys.readouterr().out == "pg = 0\n" and built_parsers == []


# modules a well-formed call or a bare import must not load: argparse (and
# with it gettext and locale) serves only help, --version and usage errors,
# and the records are SimpleNamespace subclasses, not dataclasses (which
# load inspect)
_COLD_START_FREE = {"argparse", "gettext", "locale", "dataclasses", "inspect"}


def _added_modules(body, *argv):
    """The modules a fresh interpreter running body (with sys imported and
    code, its exit code, set to 0) on argv has loaded beyond those of a
    fresh ``python -c pass``, its exit code and its standard output; src
    is on the path."""
    env = dict(os.environ, PYTHONPATH=os.path.join(
        os.path.dirname(__file__), os.pardir, "src"))

    def loaded(body, *argv):
        script = (f"import sys; code = 0; {body}; "
                  "print(*sorted(sys.modules), file=sys.stderr); sys.exit(code)")
        proc = subprocess.run([sys.executable, "-c", script, *argv],
                              capture_output=True, text=True, env=env,
                              timeout=60)
        return set(proc.stderr.split()), proc.returncode, proc.stdout

    baseline, _, _ = loaded("pass")
    modules, code, out = loaded(body, *argv)
    return modules - baseline, code, out


def test_a_valid_call_imports_no_locale():
    added, code, out = _added_modules(
        "from splicegenus.cli import run; code = run(sys.argv[1:])",
        "pg-uac", "--input", graph_file("fig1.json"))
    assert code == 0 and out.startswith("pg_uac = ")
    assert "splicegenus.cli" in added
    assert not added & _COLD_START_FREE


def test_importing_the_package_loads_no_dataclasses():
    added, code, _ = _added_modules("import splicegenus")
    assert code == 0 and "splicegenus.genus" in added
    assert not added & {"dataclasses", "inspect"}


def test_a_valid_call_runs_one_definiteness_pass(capsys, monkeypatch):
    # every branch with a node inherits the validation of fig1, and the
    # chain branches are never validated: one Bareiss pass for all roots
    from splicegenus import exact

    calls = []
    real = exact.negative_definite_violation
    monkeypatch.setattr(exact, "negative_definite_violation",
                        lambda M: calls.append(M) or real(M))
    assert run(["pg-uac", "--input", graph_file("fig1.json"),
                "--all-nodes"]) == 0
    capsys.readouterr()
    assert len(calls) == 1


# the tokens of a call: commands and one unknown name; every option in
# full, abbreviated and as --opt=value; help, --version and --; values
_SPECS = {flag: kw for _, specs, *_ in cli._COMMANDS.values()
          for flag, kw in cli._SHARED + specs}
_OPTIONS = sorted(_SPECS)
_VALUES = st.sampled_from(["", "-", "0", "3", "-1", "-7", "12", "word", "a,b",
                           "json", "text", "xml", _D4]) | st.integers(
                               -20, 70).map(str)
_TOKENS = st.one_of(
    st.sampled_from([*cli._COMMANDS, "bogus"]),
    st.sampled_from(_OPTIONS),
    st.sampled_from(_OPTIONS).map(lambda f: f[:4]),
    st.builds(lambda f, v: f"{f}={v}", st.sampled_from(_OPTIONS), _VALUES),
    st.sampled_from(["-h", "--help", "--version", "--"]),
    _VALUES)


def _values_for(kw):
    """Values aimed at an option with spec kw: its choices and one outside
    them; for a typed option ints (a few negative) and texts that int()
    reads (" -1" is negative without starting with "-") or does not; words
    otherwise."""
    if "choices" in kw:
        return st.sampled_from([*kw["choices"], "xml"])
    if "type" in kw:
        return st.integers(-2, 70).map(str) | st.sampled_from(
            [" -1", "+5", "1_0", "q"])
    return st.sampled_from([_D4, "word", "0,1"])


@st.composite
def _command_call(draw):
    """A command (or the unknown name), mostly with its required options,
    then its options (any option for the unknown name) in any order, each
    with a value unless it is a switch (mostly one aimed at the option,
    else any token), and sometimes one stray token."""
    command = draw(st.sampled_from([*cli._COMMANDS, "bogus"]))
    specs = dict(cli._SHARED + cli._COMMANDS[command][1]) \
        if command in cli._COMMANDS else _SPECS
    flags = [f for f, kw in specs.items() if kw.get("required")] \
        if draw(st.integers(0, 3)) else []
    flags += draw(st.lists(st.sampled_from(sorted(specs)), max_size=4))
    argv = [command]
    for f in draw(st.permutations(flags)):
        argv.append(f)
        if not specs[f].get("action"):
            argv.append(draw(_values_for(specs[f]) if draw(st.integers(0, 3))
                             else _TOKENS))
    return argv + ([] if draw(st.integers(0, 3)) else [draw(_TOKENS)])


_CALLS = _command_call() | st.lists(_TOKENS, max_size=8)


@given(_CALLS)
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_the_reader_agrees_with_the_full_parser(capsys, argv):
    # the command-table reader returns the full parser's namespace or
    # declines, and it declines whenever the full parser exits
    plain = cli._plain_args(argv)
    try:
        full = vars(cli._build_parser().parse_args(argv))
    except SystemExit:
        full = None
    capsys.readouterr()
    assert plain is None or vars(plain) == full


def test_monomial_check_bound_zero_exits_3(capsys):
    code, data, _ = _payload(
        capsys, ["monomial-check", "--input", graph_file("exmc.json"),
                 "--bound", "0", "--format", "json"])
    assert code == 3 and data["verdict"] == "unknown"


def test_bad_character_exits_1(capsys):
    code, _, err = _json_out(
        capsys, ["h1", "--input", graph_file("exmc.json"), "--char", "9"])
    assert code == 1 and "out of range" in err
    code, _, err = _json_out(
        capsys, ["h1", "--input", graph_file("exmc.json"), "--char", "1,1"])
    assert code == 1 and "coordinates" in err
    code, _, err = _json_out(
        capsys, ["h1", "--input", graph_file("exmc.json"), "--char", "1,x"])
    assert code == 1
    assert err == "error: bad character '1,x': expected integers\n"


# -- outputs ---------------------------------------------------------------

def test_validate_json_payload(capsys):
    code, data, _ = _payload(
        capsys, ["validate", "--input", graph_file("fig1.json"),
                 "--format", "json"])
    assert code == 0
    assert data["valid"] and sorted(data["nodes"]) == ["v0", "v1", "v2"]
    assert data["version"] and data["fingerprint"]


_NOT_A_TREE = "vertex a -2\nvertex b -2\nvertex c -2\nedge a b\nedge b c\nedge a c\n"


@pytest.mark.parametrize("doc, passes, code, out", [
    (None, 1, 0, "valid: True\ntree: True\nnegative definite: True\n"
                 "chain: False\nnodes: E5 E6\nends: E1 E2 E3 E4\n"),
    (_INDEFINITE_TREE, 1, 1, "valid: False\ntree: True\nnegative definite: False\n"
                             "chain: False\nnodes: -\nends: -\n"
                             "error: not negative definite (minor 3)\n"),
    (_NOT_A_TREE, 0, 1, "valid: False\ntree: False\nnegative definite: False\n"
                        "chain: False\nnodes: -\nends: -\n"
                        "error: graph is not a tree\n"),
], ids=["valid", "indefinite", "not-a-tree"])
def test_validate_runs_one_bareiss_pass(tmp_path, capsys, monkeypatch,
                                        doc, passes, code, out):
    from splicegenus import exact

    path = graph_file("exmc.json")
    if doc is not None:
        path = tmp_path / "graph.dsl"
        path.write_text(doc)
    calls = []
    real = exact.negative_definite_violation
    monkeypatch.setattr(exact, "negative_definite_violation",
                        lambda I: calls.append(I) or real(I))
    assert _json_out(capsys, ["validate", "--input", str(path)]) == (code, out, "")
    assert len(calls) == passes


def test_chain_warning_on_stderr(capsys):
    code, _, err = _json_out(
        capsys, ["validate", "--input", graph_file("a3.dsl")])
    assert code == 0 and "chain" in err


def test_invariants_reports_group(capsys):
    code, data, _ = _payload(
        capsys, ["invariants", "--input", graph_file("fig1.json"),
                 "--format", "json"])
    assert code == 0
    assert data["groupOrder"] == 36 and data["invariantFactors"] == [6, 6]
    assert data["numericallyGorenstein"] is True
    assert data["nodes"]["v0"]["aInvariant"] == 9


def test_fundamental_cycle_output(capsys):
    code, data, _ = _payload(
        capsys, ["fundamental-cycle", "--input", graph_file("fig1.json"),
                 "--format", "json"])
    assert code == 0 and data["pa"] == 4


def test_cv_both_routes(capsys):
    code, data, _ = _payload(
        capsys, ["cv", "--input", graph_file("fig1.json"), "--node", "v0",
                 "--format", "json"])
    assert code == 0
    assert data["routeA"] == "2" and data["routeB"] == "2"
    assert data["routesAgree"] is True


def test_cv_reports_routes_that_disagree(monkeypatch, capsys):
    # a nontrivial character's disagreement is a warning, not an error
    monkeypatch.setattr(cli, "c_v_chi_routes", lambda g, v, chi: (3, 4))
    code, data, err = _payload(
        capsys, ["cv", "--input", graph_file("fig1.json"), "--node", "v0",
                 "--char", "5,5", "--format", "json"])
    assert code == 0
    assert err == "warning: routes disagree for chi [5, 5]: A=3 B=4\n"
    assert (data["routeA"], data["routeB"], data["routesAgree"]) == \
        ("3", "4", False)


def test_hilbert_text_output(capsys):
    code, out, _ = _json_out(
        capsys, ["hilbert", "--input", graph_file("exmc.json"),
                 "--node", "E6", "--max-degree", "8"])
    assert code == 0
    assert "a(G) = 1" in out and "H^[0](t) =" in out


def test_pg_values(capsys):
    code, data, _ = _payload(
        capsys, ["pg", "--input", graph_file("fig1.json"), "--format", "json"])
    assert code == 0 and data["pg"] == 7
    code, data, _ = _payload(
        capsys, ["pg", "--input", graph_file("e8.json"), "--format", "json"])
    assert code == 0 and data["pg"] == 0


def test_text_pg_needs_only_the_trivial_character(monkeypatch, capsys):
    # text `pg` prints p_g alone, so it computes h1 at the trivial character
    # (and its images in the branches) and nowhere else
    from splicegenus import genus

    argv = ["pg", "--input", graph_file("fig1.json")]
    code, expected, _ = _json_out(capsys, argv)
    assert code == 0 and expected == "pg = 7\n"
    h1 = genus.h1_eigensheaf

    def trivial_only(g, chi, *args, **kwargs):
        if any(chi):
            raise AssertionError(f"h1 asked at chi {chi}")
        return h1(g, chi, *args, **kwargs)

    monkeypatch.setattr(genus, "h1_eigensheaf", trivial_only)
    code, out, _ = _json_out(capsys, argv)
    assert code == 0 and out == expected


def test_pg_uac_all_nodes_byte_identical(capsys):
    argv = ["pg-uac", "--input", graph_file("fig1.json"), "--all-nodes",
            "--format", "json"]
    code1, out1, _ = _json_out(capsys, argv)
    code2, out2, _ = _json_out(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2
    data = json.loads(out1)
    assert data["pgUAC"] == 165 and data["rootsChecked"] == ["v0", "v1", "v2"]


@pytest.mark.parametrize("command", ["pg", "pg-uac"])
def test_all_nodes_on_chain_checks_no_root(capsys, command):
    # a chain has no node, so --all-nodes checks no root
    code, data, err = _payload(
        capsys, [command, "--input", graph_file("a3.dsl"), "--all-nodes",
                 "--format", "json"])
    assert code == 0 and data["rootsChecked"] == [] and "chain" in err


def test_h1_trivial_character_is_pg(capsys):
    code, data, _ = _payload(
        capsys, ["h1", "--input", graph_file("exmc.json"), "--char", "0",
                 "--format", "json"])
    assert code == 0 and data["h1"] == 1


def test_emit_equations_deterministic(capsys):
    argv = ["emit-equations", "--input", graph_file("exmc.json"),
            "--seed", "5", "--format", "json"]
    _, out1, _ = _json_out(capsys, argv)
    _, out2, _ = _json_out(capsys, argv)
    assert out1 == out2
    data = json.loads(out1)
    assert data["seed"] == 5 and len(data["nodes"]) == 2


def test_emit_equations_catches_a_non_equivariant_system(monkeypatch, capsys):
    offender = ((1, 0), "v1", {"v3": 1})
    monkeypatch.setattr(cli, "verify_equivariance",
                        lambda g, system: (False, offender))
    with pytest.raises(InternalCheckError,
                       match="emitted system is not equivariant"):
        cli._run_emit_equations(fig1(), argparse.Namespace(seed=0, bound=64))
    code, out, err = _json_out(
        capsys, ["emit-equations", "--input", graph_file("fig1.json")])
    assert code == 2 and out == ""
    assert err == ("internal check failed: emitted system is not "
                   f"equivariant: {offender}\n")


def test_oracle_verify_agrees(capsys):
    code, data, _ = _payload(
        capsys, ["oracle-verify", "--input", graph_file("d4.json"),
                 "--max-degree", "10", "--format", "json"])
    assert code == 0 and data["mismatches"] == []


def test_oracle_verify_reports_mismatches(monkeypatch, capsys):
    record = {"node": "c", "char": [0, 1], "molien": [1], "bruteforce": [0]}
    monkeypatch.setattr(cli, "oracle_verify", lambda g, up_to, seed, bound:
                        [record])
    code, out, _ = _json_out(
        capsys, ["oracle-verify", "--input", graph_file("d4.json"),
                 "--max-degree", "0"])
    assert code == 2
    assert out.splitlines() == ["1 mismatches",
                                json.dumps(record, sort_keys=True)]


def test_pg_on_chain_is_zero_with_warning(capsys):
    code, data, err = _payload(
        capsys, ["pg", "--input", graph_file("a3.dsl"), "--format", "json"])
    assert code == 0 and data["pg"] == 0 and "chain" in err


@pytest.mark.parametrize("error", [MemoryError, RecursionError])
def test_resource_exhaustion_exits_2_without_traceback(monkeypatch, capsys,
                                                       error):
    import splicegenus.cli as cli

    def exhausted(*args):
        raise error("maximum depth" if error is RecursionError else "")

    text, arguments, _, warns = cli._COMMANDS["pg"]
    monkeypatch.setitem(cli._COMMANDS, "pg", (text, arguments, exhausted, warns))
    code, out, err = _json_out(
        capsys, ["pg", "--input", graph_file("fig1.json")])
    assert code == 2 and out == ""
    assert err.count("\n") == 1
    assert err.startswith(f"internal check failed: {error.__name__}")


@pytest.mark.parametrize("command", ["hilbert", "oracle-verify"])
def test_negative_max_degree_exits_1(capsys, command):
    code, out, err = _json_out(
        capsys, [command, "--input", graph_file("d4.json"),
                 "--max-degree", "-1"])
    assert code == 1 and out == "" and "degree must be >= 0" in err


@pytest.mark.parametrize("command", ["emit-equations", "oracle-verify"])
def test_bound_hit_exits_3(capsys, command):
    code, out, err = _json_out(
        capsys, [command, "--input", graph_file("exmc.json"), "--bound", "0"])
    assert code == 3 and out == ""
    assert err.count("\n") == 1
    assert err.startswith("unknown: monomial condition not established")


@pytest.mark.parametrize("command",
                         ["monomial-check", "emit-equations", "oracle-verify"])
def test_negative_bound_exits_1(capsys, command):
    code, out, err = _json_out(
        capsys, [command, "--input", graph_file("exmc.json"), "--bound", "-1"])
    assert code == 1 and out == "" and "bound must be >= 0" in err


# -- integers only ------------------------------------------------------------

@pytest.mark.parametrize("name", ["exmc.json", "fig1.json"])
def test_commands_run_without_fraction_cycle_algebra(name, monkeypatch, capsys):
    # cycles, Route A and the reports stay in the integers: the Fraction
    # routes live in tests/reference.py, and no command makes a Fraction
    import fractions

    def no_fractions(*args, **kwargs):
        raise AssertionError("a Fraction was made")

    monkeypatch.setattr(fractions.Fraction, "__new__", no_fractions)
    path = graph_file(name)
    for argv in (["validate"], ["invariants"], ["hilbert"], ["cv"], ["pg"],
                 ["pg-uac"], ["monomial-check"], ["emit-equations"],
                 ["oracle-verify", "--max-degree", "6"],
                 ["fundamental-cycle"]):
        code, _, err = _json_out(capsys, argv + ["--input", path])
        assert code == 0, (argv, err)
    with pytest.raises(AssertionError):
        fractions.Fraction(1, 3)


# -- malformed JSON input ---------------------------------------------------

def _d4_json(centre_weight):
    leaves = ", ".join(f'{{"id": "l{i}", "weight": -2}}' for i in (1, 2, 3))
    return (f'{{"vertices": [{{"id": "c", "weight": {centre_weight}}}, '
            f'{leaves}], "edges": [["c", "l1"], ["c", "l2"], ["c", "l3"]]}}')


@pytest.mark.parametrize("doc", [
    '{"vertices": 5}',
    '{"vertices": null}',
    '{"vertices": [{"id": "a", "weight": -2}], "edges": 7}',
    _d4_json("-1e400"),
    _d4_json("-2.9"),
    _d4_json("true"),
    _d4_json("1" * 5000),
    '{"vertices": ' + "[" * 100000 + "]" * 100000 + "}",
], ids=["vertices-int", "vertices-null", "edges-int", "weight-overflow",
        "weight-fraction", "weight-bool", "weight-digits", "deep-nesting"])
@pytest.mark.parametrize("command", ["validate", "pg"])
def test_malformed_json_exits_1(tmp_path, capsys, doc, command):
    path = tmp_path / "bad.json"
    path.write_text(doc)
    code, out, err = _json_out(capsys, [command, "--input", str(path)])
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_undecodable_file_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.dsl"
    path.write_bytes(b"vertex a \xff\n")
    code, out, err = _json_out(capsys, ["validate", "--input", str(path)])
    assert code == 1 and out == "" and err.startswith("error: cannot read")


@pytest.mark.parametrize("weight", ["-2", "-2.0", '"-2"'],
                         ids=["int", "float", "string"])
def test_integral_json_weights_parse(tmp_path, capsys, weight):
    path = tmp_path / "d4.json"
    path.write_text(_d4_json(weight))
    code, data, _ = _payload(
        capsys, ["pg", "--input", str(path), "--format", "json"])
    assert code == 0 and data["pg"] == 0


def _two_vertex_json(a, b, edge=None):
    """JSON graph on vertices a, b with the one edge [a, b] unless given."""
    return json.dumps({
        "vertices": [{"id": a, "weight": -2}, {"id": b, "weight": -2}],
        "edges": [edge or [a, b]]})


_bad_ids = [None, True, 1.5, [1, 2], {"a": 1}]
_bad_id_names = ["null", "bool", "float", "list", "object"]


# edge endpoint x with a vertex named str(x), which str() would have matched
@pytest.mark.parametrize(
    "doc", [_two_vertex_json(x, "b") for x in _bad_ids]
    + [_two_vertex_json(str(x), "b", [x, "b"]) for x in _bad_ids]
    + [_two_vertex_json(None, [1, 2])],
    ids=[f"vertex-{n}" for n in _bad_id_names]
    + [f"edge-{n}" for n in _bad_id_names] + ["null-and-list"])
def test_non_scalar_json_ids_exit_1(tmp_path, capsys, doc):
    path = tmp_path / "bad.json"
    path.write_text(doc)
    code, out, err = _json_out(capsys, ["validate", "--input", str(path)])
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_int_json_ids_read_as_decimal_strings(tmp_path, capsys):
    path = tmp_path / "ints.json"
    path.write_text(_two_vertex_json(7, "b"))
    code, data, _ = _payload(
        capsys, ["validate", "--input", str(path), "--format", "json"])
    assert code == 0 and sorted(data["ends"]) == ["7", "b"]


_json_leaves = (st.none() | st.booleans() | st.integers(-4, 2)
                | st.floats(allow_nan=True, allow_infinity=True)
                | st.text(max_size=3))
_json_values = st.recursive(
    _json_leaves,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6)
_ids = st.sampled_from(["a", "b", "c", "d", "e"])
_weights = (_json_leaves | st.integers(-4, -1) | st.integers(-4, -1).map(float)
            | st.integers(-4, -1).map(str))
_vertex = st.fixed_dictionaries({"id": _ids, "weight": _weights}) | _json_values
_edge = st.lists(_ids, min_size=2, max_size=2) | _json_values
_graph_doc = (st.fixed_dictionaries(
    {"vertices": st.lists(_vertex, max_size=5) | _json_values},
    optional={"edges": st.lists(_edge, max_size=5) | _json_values})
    | _json_values)
_dsl_line = (st.builds(lambda v, w: f"vertex {v} {w}", _ids, _weights)
             | st.builds(lambda a, b: f"edge {a} {b}", _ids, _ids)
             | st.text(alphabet="vertxdg #-12.\t", max_size=12))


@given(doc=_graph_doc, lines=st.lists(_dsl_line, max_size=6))
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_cli_fuzz_no_exception_escapes(tmp_path, capsys, doc, lines):
    json_path = tmp_path / "fuzz.json"
    json_path.write_text(json.dumps(doc))
    dsl_path = tmp_path / "fuzz.dsl"
    dsl_path.write_text("\n".join(lines))
    for path in (json_path, dsl_path):
        for command in ("validate", "invariants"):
            assert run([command, "--input", str(path)]) in (0, 1, 2, 3)
    capsys.readouterr()


# -- root independence -------------------------------------------------------

def test_pg_uac_all_nodes_detects_root_dependence(monkeypatch, capsys):
    import splicegenus.genus as genus

    top = fig1().fingerprint()
    real = genus.c_v_chi

    def shifted(g, v, chi):
        value = real(g, v, chi)
        return value + 1 if v == "v1" and g.fingerprint() == top else value

    monkeypatch.setattr(genus, "c_v_chi", shifted)
    code, out, err = _json_out(
        capsys, ["pg-uac", "--input", graph_file("fig1.json"), "--all-nodes"])
    assert code == 2 and out == ""
    assert err.startswith("internal check failed: h1 depends on the root node")


def test_pg_uac_all_nodes_names_the_root_and_character(monkeypatch, capsys):
    # c_v shifted at root v2 of the top graph, for one nontrivial character
    import splicegenus.genus as genus

    top = fig1().fingerprint()
    real = genus.c_v_chi

    def shifted(g, v, chi):
        value = real(g, v, chi)
        return value + 1 if (v, chi) == ("v2", (1, 2)) and g.fingerprint() == top \
            else value

    monkeypatch.setattr(genus, "c_v_chi", shifted)
    code, out, err = _json_out(
        capsys, ["pg-uac", "--input", graph_file("fig1.json"), "--all-nodes"])
    assert code == 2 and out == ""
    assert err.startswith("internal check failed: h1 depends on the root node")
    assert err.endswith(" at root v2 (chi (1, 2))\n")


def test_negative_h1_exits_2_with_integer_trace(monkeypatch, capsys):
    import splicegenus.genus as genus

    real = genus.c_v_chi
    monkeypatch.setattr(genus, "c_v_chi",
                        lambda g, v, chi: real(g, v, chi) - 10**6)
    code, out, err = _json_out(capsys, ["pg", "--input", graph_file("fig1.json")])
    assert code == 2 and out == ""
    message, trace, *rest = err.splitlines()
    assert not rest
    assert message.startswith("internal check failed: h1 = -")
    trace = json.loads(trace)
    assert type(trace["c_v"]) is int and trace["c_v"] < -10**5
    assert trace["branches"]
    assert all(type(step["euler"]) is int for step in trace["branches"])


# -- broken pipe ---------------------------------------------------------------

@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE")
def test_closed_stdout_pipe_ends_quietly():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src)
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the child writes
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "splicegenus.cli", "pg-uac", "--input",
             os.path.join(GRAPHS_DIR, "fig1.json")],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert b"BrokenPipeError" not in proc.stderr
    assert b"Traceback" not in proc.stderr
