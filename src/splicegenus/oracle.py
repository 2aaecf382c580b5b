"""Brute-force verification of the eigenspace Hilbert dimensions.

Independent of the Molien machinery: enumerate all end-variable monomials of
each v-degree, split them into character blocks, span the ideal's graded
piece by monomial multiples of the leading forms of the emitted equations,
and count dimensions by exact rank over Q (exact.rank).  One pass per node
serves every character: the monomial table and the character of each
monomial are built once.  An exponent vector a is the monomial's
E*-coordinates at the ends, so its character is
theta(sum_w a_w E*_w) = sum_w a_w psi_w mod d, read from the ends' columns
psi_w of the theta matrix.  The table comes from the monomial search's
enumerator (splice._exponent_vectors, pruned by gcd and capped sum), called
once per node with a slack exponent of weight 1 so that every degree up to
the limit is listed in one pass.  Agreement with molien_coeffs is the core
anti-bug property of the whole package.
"""

from __future__ import annotations

from . import exact
from .discgroup import group_data
from .graph import ResolutionGraph
from .molien import molien_coeffs
from .splice import SpliceSystem, _exponent_vectors, emit_splice_system


def artin_rational(g: ResolutionGraph) -> bool:
    """Artin's criterion: p_a(Z) = 0 for the fundamental cycle Z."""
    _, pa = g.fundamental_cycle()
    return pa == 0


def _leading_form(g, v, equation):
    """Terms of minimal v-degree of one equation.

    Equations at other nodes are quasihomogeneous in their own grading, not
    in v's; the associated graded ideal is generated by these v-leading
    forms (the dropped term is the one from the branch containing v).
    """
    nw = g.node_weights(v)
    degs = [sum(a * nw.m[w] for w, a in exps.items()) for _, exps in equation]
    low = min(degs)
    return low, [(c, exps) for (c, exps), d in zip(equation, degs) if d == low]


def _monomials_by_degree(weights, up_to):
    """All exponent tuples of degree d = sum a_j * weights[j] <= up_to, in
    one call with a slack exponent up_to - d of weight 1."""
    table = [[] for _ in range(up_to + 1)]
    for a in _exponent_vectors([*weights, 1], up_to):
        table[up_to - a[-1]].append(a[:-1])
    return table


def _end_theta(g):
    """exps (over g.ends()) -> sum_w exps_w psi_w mod d, psi_w the ends'
    columns of the theta matrix."""
    gd = group_data(g)
    cols = [g.index(w) for w in g.ends()]
    theta = [([row[k] for k in cols], d) for row, d in
             zip(gd.theta_matrix, gd.invariant_factors)]

    def char_of(exps):
        return tuple(sum(t * a for t, a in zip(row, exps)) % d
                     for row, d in theta)
    return char_of


def bruteforce_eigendims(g: ResolutionGraph, v, system: SpliceSystem, up_to):
    """{chi: [dim G^chi_i for i = 0..up_to]} for every character, by
    monomial linear algebra."""
    gd = group_data(g)
    ends = g.ends()
    char_of = _end_theta(g)

    gens = []
    for ns in system.nodes:
        for eq in ns.equations:
            low, terms = _leading_form(g, v, eq)
            vecs = [(c, tuple(exps.get(w, 0) for w in ends)) for c, exps in terms]
            chars = {char_of(e) for _, e in vecs}
            assert len(chars) == 1, "leading form is not isotypic"
            gens.append((low, chars.pop(), vecs))

    nw = g.node_weights(v)
    monos = _monomials_by_degree([nw.m[w] for w in ends], up_to)
    char = {m: char_of(m) for lst in monos for m in lst}

    dims = {chi: [] for chi in gd.characters()}
    for i in range(up_to + 1):
        # degree i split into character blocks, each monomial at its column
        blocks, pos, rows = {}, {}, {}
        for m in monos[i]:
            block = blocks.setdefault(char[m], [])
            pos[m] = len(block)
            block.append(m)
        for low, gchar, vecs in gens:
            for mu in monos[i - low] if low <= i else ():
                chi = gd.char_mul(char[mu], gchar)
                row = [0] * len(blocks[chi])
                for c, e in vecs:
                    row[pos[tuple(x + y for x, y in zip(mu, e))]] += c
                rows.setdefault(chi, []).append(row)
        for chi, tab in dims.items():
            rank = exact.rank(rows[chi]) if chi in rows else 0
            tab.append(len(blocks.get(chi, ())) - rank)
    return dims


def oracle_verify(g: ResolutionGraph, up_to, seed=0, bound=64):
    """Compare brute-force dims with molien_coeffs on every node/character.

    Returns a list of mismatch records (empty means agreement).
    """
    gd = group_data(g)
    system = emit_splice_system(g, seed=seed, bound=bound)
    diffs = []
    for v in g.nodes():
        tables = molien_coeffs(g, v, up_to)
        brute = bruteforce_eigendims(g, v, system, up_to)
        for chi in gd.characters():
            if brute[chi] != tables[chi]:
                diffs.append({"node": v, "char": list(chi),
                              "molien": tables[chi], "bruteforce": brute[chi]})
    return diffs
