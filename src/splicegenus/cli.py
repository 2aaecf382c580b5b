"""Command-line front end.

Every command takes one path through ``run``: read the graph, check it
(``validate`` reports instead), warn on a chain for ``validate``, ``pg``,
``pg-uac`` and ``h1``, then print what the command's handler
``_run_<command>(g, args)`` computed, (exit code, JSON body or None, text
lines), as JSON with ``version`` and ``fingerprint`` added or as text.
A well-formed call, a command followed only by its own options, each
spelled in full and with a value that does not start with ``-``, is read
straight from the command table (``_plain_args``), so it imports no
``argparse``.  Anything else (help, ``--version``, an abbreviation,
``--opt=value``, ``--``, an unknown or missing argument, a value that does
not convert) goes to the full parser (``_build_parser``, built once per
process), so every usage message, error and exit code is argparse's own;
only that parser and a rejected value (``_nonnegative``) load ``argparse``.
The package's records are ``types.SimpleNamespace`` subclasses, so no call
imports ``dataclasses`` either.

Exit codes: 0 success, 1 invalid input, 2 violated internal consistency
check, 3 Unknown verdict (monomial-condition search hit its bound; for
``emit-equations`` and ``oracle-verify`` with a one-line ``unknown: ...``
message).
Running out of memory or of recursion depth also exits 2, with a one-line
``internal check failed: ...`` message instead of a traceback.
Reports go to standard output, diagnostics to standard error.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from types import SimpleNamespace

from . import __version__
from .discgroup import group_data
from .errors import GraphInputError, InternalCheckError, MonomialConditionUnknown
from .genus import genus_report, h1_eigensheaf, pg
from .graph import parse_graph
from .molien import (
    a_invariant,
    c_v_chi_routes,
    hilbert_data,
    truncation_m,
)
from .oracle import oracle_verify
from .series import render_poly
from .splice import check_monomial_condition, emit_splice_system, verify_equivariance

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INTERNAL = 2
EXIT_UNKNOWN = 3


def _nonnegative(what):
    def parse(text):
        value = int(text)
        if value < 0:
            from argparse import ArgumentTypeError
            raise ArgumentTypeError(f"{what} must be >= 0, got {value}")
        return value
    parse.__name__ = what  # argparse names it in "invalid <what> value"
    return parse


_degree = _nonnegative("degree")
_bound = _nonnegative("bound")


# the arguments every command takes, before its own in _COMMANDS
_SHARED = (("--input", {"required": True, "help": "graph file (JSON or DSL)"}),
           ("--format", {"choices": ["text", "json"], "default": "text"}))


def _add_arguments(c, name):
    for flag, kw in _SHARED + _COMMANDS[name][1]:
        c.add_argument(flag, **kw)


@functools.cache
def _build_parser():
    """The full parser: every command as a subparser."""
    import argparse
    p = argparse.ArgumentParser(
        prog="splicegenus",
        description="Invariants of splice-quotient surface singularities "
                    "from weighted resolution graphs.")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)
    for name, (text, *_) in _COMMANDS.items():
        _add_arguments(sub.add_parser(name, help=text), name)
    return p


def _plain_args(argv):
    """The namespace the full parser returns for argv, read from the
    command table when argv is a command followed only by its options,
    each spelled in full: a flag alone, any other option with the next
    token, which must not start with "-" and must convert by the option's
    type into its choices; the last of a repeated option wins.  None for
    anything else, and when a required option is missing."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    specs = dict(_SHARED + _COMMANDS[argv[0]][1])
    switches = {f for f, kw in specs.items() if kw.get("action") == "store_true"}
    values = {f: kw.get("default", False if f in switches else None)
              for f, kw in specs.items()}
    missing = {f for f, kw in specs.items() if kw.get("required")}
    tokens = iter(argv[1:])
    for flag in tokens:
        kw = specs.get(flag)
        if kw is None:
            return None
        missing.discard(flag)
        if flag in switches:
            values[flag] = True
            continue
        text = next(tokens, None)
        if text is None or text.startswith("-"):
            return None
        try:
            values[flag] = kw.get("type", str)(text)
        except Exception:  # the full parser converts again and reports it
            return None
        if "choices" in kw and values[flag] not in kw["choices"]:
            return None
    if missing:
        return None
    return SimpleNamespace(command=argv[0], **{
        f[2:].replace("-", "_"): value for f, value in values.items()})


def _parse_args(argv):
    """The parsed arguments, read from the command table when argv is a
    well-formed call (``_plain_args``); anything else goes to the full
    parser, which alone prints usage, help and errors."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _plain_args(argv)
    return args if args is not None else _build_parser().parse_args(argv)


def _load_graph(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise GraphInputError(f"cannot read {path}: {exc}") from exc
    return parse_graph(text)


def _parse_char(g, text):
    gd = group_data(g)
    if text is None:
        return gd.trivial_character
    try:
        coords = tuple(int(x) for x in text.split(",")) if text.strip() else ()
    except ValueError:
        raise GraphInputError(f"bad character {text!r}: expected integers")
    gd.check_character(coords)
    return coords


def _render_cycle(g, num, den=1):
    """The JSON object of the cycle sum_w (num_w / den) E_w: the nonzero
    coefficients in lowest terms ("2", "-1/3"), keyed by id, sorted."""
    out = {}
    for w, c in sorted(zip(g.ids, num)):
        if c:
            k = math.gcd(c, den)
            out[w] = str(c // k) if k == den else f"{c // k}/{den // k}"
    return out


# -- command implementations ----------------------------------------------


def _run_validate(g, args):
    rep = g.validate()
    body = {
        "valid": rep.valid, "isTree": rep.is_tree,
        "negativeDefinite": rep.negative_definite, "isChain": rep.is_chain,
        "nodes": rep.nodes, "ends": rep.ends,
        "error": rep.error, "warnings": rep.warnings}
    lines = [f"valid: {rep.valid}", f"tree: {rep.is_tree}",
             f"negative definite: {rep.negative_definite}",
             f"chain: {rep.is_chain}",
             f"nodes: {' '.join(rep.nodes) or '-'}",
             f"ends: {' '.join(rep.ends) or '-'}"]
    if rep.error:
        lines.append(f"error: {rep.error}")
    return (EXIT_OK if rep.valid else EXIT_INPUT), body, lines


def _run_invariants(g, args):
    gd = group_data(g)
    K, gor = g.canonical_cycle()
    nodes = {}
    for v in g.nodes():
        nw = g.node_weights(v)
        nodes[v] = {"e": nw.e, "aV": nw.a_v, "aInvariant": a_invariant(g, v),
                    "m": {w: nw.m[w] for w in g.ids}}
    body = {
        "detAbs": gd.dual.det_abs,
        "groupOrder": gd.order,
        "invariantFactors": gd.invariant_factors,
        "numericallyGorenstein": gor,
        "canonicalCycle": _render_cycle(g, K, gd.dual.det_abs),
        "nodes": nodes}
    lines = [f"|det I| = {gd.dual.det_abs}",
             f"|H| = {gd.order}  invariant factors {gd.invariant_factors}",
             f"numerically Gorenstein: {gor}"]
    for v, info in sorted(nodes.items()):
        lines.append(f"node {v}: e={info['e']} a_v={info['aV']} "
                     f"a(G)={info['aInvariant']}")
    return EXIT_OK, body, lines


def _run_hilbert(g, args):
    v = g.node(args.node)
    chi = _parse_char(g, args.char)
    up_to = args.max_degree
    if up_to is None:
        up_to = truncation_m(g, v) * g.node_weights(v).a_v
    data = hilbert_data(g, v, up_to, closed_for=[chi])
    closed = data.closed_forms[chi]
    tables = sorted(data.coefficients.items())
    body = {
        "node": v,
        "aInvariant": data.a_invariant,
        "maxDegree": up_to,
        "coefficients": [{"char": list(c), "dims": tab} for c, tab in tables],
        "closedForm": {"char": list(chi), **closed.to_json()}}
    lines = [f"node {v}: a(G) = {data.a_invariant}",
             f"H^{list(chi)}(t) = ({render_poly(closed.num)}) / "
             f"({render_poly(closed.den)})"]
    lines += [f"chi {list(c)}: {tab}" for c, tab in tables]
    return EXIT_OK, body, lines


def _run_cv(g, args):
    v = g.node(args.node)
    chi = _parse_char(g, args.char)
    route_a, route_b = c_v_chi_routes(g, v, chi)
    agree = route_a == route_b
    if not agree:
        print(f"warning: routes disagree for chi {list(chi)}: "
              f"A={route_a} B={route_b}", file=sys.stderr)
    body = {"node": v, "char": list(chi),
            "routeA": str(route_a), "routeB": str(route_b),
            "routesAgree": agree}
    return EXIT_OK, body, [f"c_{v}^chi = {route_a} (Route A), "
                           f"{route_b} (Route B), agree: {agree}"]


def _run_pg(g, args):
    uac = args.command == "pg-uac"
    if not uac and not args.all_nodes and args.format == "text":
        # the text report is p_g alone, which needs the trivial character only
        return EXIT_OK, None, [f"pg = {pg(g)}"]
    checked = sorted(g.nodes()) if args.all_nodes else []
    first = genus_report(g)  # from the default root, checked[0]
    for root in checked[1:]:
        # a named root recomputes the top level of each h1 value, and
        # h1_eigensheaf raises if it differs from the value cached before
        genus_report(g, root=root)
    body = first.to_json()
    body.pop("trace")
    if args.all_nodes:
        body["rootsChecked"] = checked
    if uac:
        lines = [f"pg_uac = {first.pg_uac}"]
        lines += [f"chi {e['char']}: h1 = {e['value']}" for e in body["h1"]]
    else:
        lines = [f"pg = {first.pg}"]
    return EXIT_OK, body, lines


def _run_h1(g, args):
    chi = _parse_char(g, args.char)
    value = h1_eigensheaf(g, chi)
    return EXIT_OK, {"char": list(chi), "h1": value}, \
        [f"h1(L_chi) = {value}"]


def _run_monomial_check(g, args):
    report = check_monomial_condition(g, bound=args.bound)
    lines = [f"verdict: {report.verdict}"]
    for (v, u), wit in sorted(report.witnesses.items()):
        if wit is None:
            lines.append(f"node {v}, branch at {u}: not found within bound")
        else:
            lines.append(f"node {v}, branch at {u}: "
                         f"{dict(wit.exponents)}")
    code = EXIT_OK if report.verdict == "satisfied" else EXIT_UNKNOWN
    return code, report.to_json(), lines


def _render_equation(eq):
    parts = []
    for c, exps in eq:
        mono = "*".join(f"z({w})^{a}" if a > 1 else f"z({w})"
                        for w, a in sorted(exps.items()))
        parts.append(f"{c}*{mono}" if mono else str(c))
    return " + ".join(parts)


def _run_emit_equations(g, args):
    system = emit_splice_system(g, seed=args.seed, bound=args.bound)
    ok, offender = verify_equivariance(g, system)
    if not ok:
        raise InternalCheckError(
            f"emitted system is not equivariant: {offender}")
    lines = []
    for ns in system.nodes:
        lines.append(f"node {ns.node} (v-degree {ns.v_degree}):")
        monos = ", ".join(str(dict(m)) for m in ns.monomials)
        lines.append(f"  monomials: {monos}")
        for eq in ns.equations:
            lines.append(f"  {_render_equation(eq)} = 0")
    return EXIT_OK, system.to_json(), lines


def _run_oracle_verify(g, args):
    diffs = oracle_verify(g, args.max_degree, seed=args.seed, bound=args.bound)
    body = {"maxDegree": args.max_degree, "mismatches": diffs}
    if diffs:
        return EXIT_INTERNAL, body, [f"{len(diffs)} mismatches"] \
            + [json.dumps(d, sort_keys=True) for d in diffs]
    return EXIT_OK, body, ["all characters agree"]


def _run_fundamental_cycle(g, args):
    Z, pa = g.fundamental_cycle()
    cycle = _render_cycle(g, Z)
    return EXIT_OK, {"cycle": cycle, "pa": pa}, \
        [f"Z = {cycle}", f"p_a(Z) = {pa}"]


# name -> (help, the command's arguments besides those in _SHARED,
# handler, whether it warns on a chain, which is outside Assumption 2.1),
# in the order the full parser lists them
_COMMANDS = {
    "validate": ("check tree-ness and negative definiteness", (),
                 _run_validate, True),
    "invariants": ("determinant, group, node weights, canonical cycle", (),
                   _run_invariants, False),
    "hilbert": ("eigenspace Hilbert series at a node",
                (("--node", {}), ("--char", {}),
                 ("--max-degree", {"type": _degree})),
                _run_hilbert, False),
    "cv": ("the constant c_v^chi by both routes",
           (("--node", {}), ("--char", {})), _run_cv, False),
    "pg": ("geometric genus p_g(X)",
           (("--all-nodes", {"action": "store_true"}),), _run_pg, True),
    "pg-uac": ("p_g of the universal abelian cover",
               (("--all-nodes", {"action": "store_true"}),), _run_pg, True),
    "h1": ("h1(L_chi) for one character",
           (("--char", {"required": True}),), _run_h1, True),
    "monomial-check": ("search admissible monomials per node/branch",
                       (("--bound", {"type": _bound, "default": 64}),),
                       _run_monomial_check, False),
    "emit-equations": ("emit a generic splice equation system",
                       (("--seed", {"type": int, "default": 0}),
                        ("--bound", {"type": _bound, "default": 64})),
                       _run_emit_equations, False),
    "oracle-verify": ("brute-force check of the Molien dimensions",
                      (("--max-degree", {"type": _degree, "default": 10}),
                       ("--seed", {"type": int, "default": 0}),
                       ("--bound", {"type": _bound, "default": 64})),
                      _run_oracle_verify, False),
    "fundamental-cycle": ("Artin's fundamental cycle and p_a(Z)", (),
                          _run_fundamental_cycle, False),
}


def run(argv=None) -> int:
    try:
        args = _parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; that slot means "internal
        # check failed" here, so remap to the invalid-input code
        return EXIT_OK if exc.code in (0, None) else EXIT_INPUT
    try:
        g = _load_graph(args.input)
        rep = g.validate() if args.command == "validate" else g.require_valid()
        _, _, handler, warns = _COMMANDS[args.command]
        for w in rep.warnings if warns else ():
            print(f"warning: {w}", file=sys.stderr)
        code, body, lines = handler(g, args)
        if args.format == "json":
            print(json.dumps({"version": __version__,
                              "fingerprint": g.fingerprint(), **body},
                             sort_keys=True, separators=(",", ":")))
        else:
            for line in lines:
                print(line)
        return code
    except GraphInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MonomialConditionUnknown as exc:
        print(f"unknown: {exc}", file=sys.stderr)
        return EXIT_UNKNOWN
    except InternalCheckError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        trace = getattr(exc, "trace", None)
        if trace is not None:
            print(json.dumps(trace, sort_keys=True), file=sys.stderr)
        return EXIT_INTERNAL
    except (MemoryError, RecursionError) as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"internal check failed: {type(exc).__name__}{detail}",
              file=sys.stderr)
        return EXIT_INTERNAL


def main():
    import signal
    if hasattr(signal, "SIGPIPE"):
        # a reader that closes the pipe early (``| head``) ends the process
        # quietly, as it does other filters, instead of a BrokenPipeError
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(run())


if __name__ == "__main__":
    main()
