"""Brute-force verification of the eigenspace Hilbert dimensions.

Independent of the Molien machinery: enumerate all end-variable monomials of
each v-degree, split them into character blocks, span the ideal's graded
piece by monomial multiples of the leading forms of the emitted equations,
and count dimensions by exact Gaussian rank.  Agreement with molien_coeffs
is the core anti-bug property of the whole package.
"""

from __future__ import annotations

import random

from . import exact
from .discgroup import group_data
from .graph import ResolutionGraph
from .molien import molien_coeffs
from .splice import SpliceSystem, emit_splice_system


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
    """All exponent tuples with sum a_j * weights[j] = d, for d <= up_to."""
    table = [[] for _ in range(up_to + 1)]
    n = len(weights)

    def rec(j, deg, acc):
        if j == n:
            table[deg].append(tuple(acc))
            return
        w = weights[j]
        k = 0
        while deg + k * w <= up_to:
            rec(j + 1, deg + k * w, acc + [k])
            k += 1

    rec(0, 0, [])
    return table


def bruteforce_eigendims(g: ResolutionGraph, v, system: SpliceSystem,
                         chi, up_to, shuffle_seed=None):
    """dim G^chi_i for i = 0..up_to, by monomial linear algebra."""
    gd = group_data(g)
    nw = g.node_weights(v)
    ends = g.ends()
    weights = [nw.m[w] for w in ends]
    # character of a monomial is multiplicative in the exponents
    end_chars = [gd.dual_character(w) for w in ends]

    def char_of(exps):
        coords = [0] * gd.rank
        for a, ec in zip(exps, end_chars):
            if a:
                coords = [(x + a * y) % d for x, y, d in
                          zip(coords, ec.coords, gd.invariant_factors)]
        return tuple(coords)

    gens = []
    for ns in system.nodes:
        for eq in ns.equations:
            low, terms = _leading_form(g, v, eq)
            vecs = [(c, tuple(exps.get(w, 0) for w in ends)) for c, exps in terms]
            chars = {char_of(e) for _, e in vecs}
            assert len(chars) == 1, "leading form is not isotypic"
            gens.append((low, chars.pop(), vecs))

    monos = _monomials_by_degree(weights, up_to)
    if shuffle_seed is not None:
        rng = random.Random(shuffle_seed)
        for lst in monos:
            rng.shuffle(lst)

    target = tuple(chi.coords)
    dims = []
    for i in range(up_to + 1):
        # basis of the target block in degree i
        block = [m for m in monos[i] if char_of(m) == target]
        pos = {m: k for k, m in enumerate(block)}
        rows = []
        for low, gchar, vecs in gens:
            if low > i:
                continue
            for mu in monos[i - low]:
                prod_char = tuple((a + b) % d for a, b, d in
                                  zip(char_of(mu), gchar, gd.invariant_factors))
                if prod_char != target:
                    continue
                row = [0] * len(block)
                for c, e in vecs:
                    key = tuple(x + y for x, y in zip(mu, e))
                    row[pos[key]] += c
                rows.append(row)
        dims.append(len(block) - len(exact.eliminate(rows)[0]))
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
        for chi in gd.characters():
            brute = bruteforce_eigendims(g, v, system, chi, up_to)
            if brute != tables[chi]:
                diffs.append({"node": v, "char": list(chi.coords),
                              "molien": tables[chi], "bruteforce": brute})
    return diffs
