"""Brute-force verification of the eigenspace Hilbert dimensions.

Independent of the Molien machinery: enumerate all end-variable monomials of
each v-degree, split them into character blocks, span the ideal's graded
piece by monomial multiples of the leading forms of the emitted equations,
and count dimensions by exact rank over Q (exact.rank).  One pass per node
serves every character.  A monomial prod_j x_j^{a_j} over the ends is one
int, sum_j a_j R^j with R = up_to + 1: below the degree bound every
exponent is at most up_to, so the product of two monomials is the sum of
their codes, with no carry.  The table of codes by degree is filled by the
coin-change recurrence over the ends, which lists each monomial once, and
the same loop fills each monomial's character: a is the monomial's
E*-coordinates at the ends, so its character is
theta(sum_j a_j E*_j) = sum_j a_j psi_j mod d, and multiplying by x_j adds
psi_j (one lookup in a table over the characters, which are labelled by
their position in GroupData.characters(): the labels of the Molien
kernel, from the one definition of their place values in
``discgroup._places``).  Each multiple of a leading
form is a sparse row {position in its block: coefficient}, its block the
character of the multiple of the form's first term.  Agreement with
molien_coeffs is the core anti-bug property of the whole package.
"""

from __future__ import annotations

from . import exact
from .discgroup import group_data
from .errors import InternalCheckError
from .graph import ResolutionGraph
from .molien import _check_degree, molien_coeffs
from .splice import SpliceSystem, _alpha, emit_splice_system, v_degree


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
    degs = [v_degree(g, v, exps) for _, exps in equation]
    low = min(degs)
    return low, [(c, exps) for (c, exps), d in zip(equation, degs) if d == low]


def _shift(gd, psi):
    """label of chi -> label of chi + psi, over every character, a label
    being sum_j c_j s_j, the position in GroupData.characters() (place
    values s_j: ``GroupData._places``); added in coordinates, so it does
    not share the kernel's carries."""
    out = [0]
    for d, p, s in zip(gd.invariant_factors, psi, gd._places):
        out = [t + (x + p) % d * s for t in out for x in range(d)]
    return out


def _node_table(g, v, up_to):
    """(codes, chars): codes[i] lists the monomials of v-degree i in the
    ends (ids order), each packed as sum_j a_j R^j with R = up_to + 1,
    and chars[i] their character labels.  Coin change over the ends: for
    end j in turn and i ascending, codes[i] gains codes[i - m_vj] + R^j,
    whose characters are those of codes[i - m_vj] shifted by psi_j."""
    gd = group_data(g)
    m = g.node_weights(v).m
    codes = [[0]] + [[] for _ in range(up_to)]
    chars = [[0]] + [[] for _ in range(up_to)]
    unit = 1
    for w in g.require_valid().ends:
        step = _shift(gd, gd.dual_character(w))
        for i in range(m[w], up_to + 1):
            codes[i] += [c + unit for c in codes[i - m[w]]]
            chars[i] += [step[x] for x in chars[i - m[w]]]
        unit *= up_to + 1
    return codes, chars


def _generators(g, v, system, up_to):
    """(v-degree, [(code, coefficient)]) for the v-leading form of each
    equation of v-degree <= up_to, packed as in _node_table, the
    coefficients of equal codes summed.  Every leading form must be
    isotypic and every coefficient an int, also above the degree bound."""
    gd = group_data(g)
    ends = g.require_valid().ends
    gens = []
    for ns in system.nodes:
        for eq in ns.equations:
            low, terms = _leading_form(g, v, eq)
            chars = {gd.theta_alpha(_alpha(g, exps)) for _, exps in terms}
            if len(chars) != 1:
                raise InternalCheckError("leading form is not isotypic")
            if not all(isinstance(c, int) for c, _ in terms):
                raise TypeError("equation coefficients must be ints")
            if low > up_to:
                continue
            packed = {}
            for c, exps in terms:
                code = 0
                for w in reversed(ends):
                    code = code * (up_to + 1) + exps.get(w, 0)
                packed[code] = packed.get(code, 0) + c
            gens.append((low, list(packed.items())))
    return gens


def bruteforce_eigendims(g: ResolutionGraph, v, system: SpliceSystem, up_to):
    """{chi: [dim G^chi_i for i = 0..up_to]} for every character, by
    monomial linear algebra, at the node v."""
    g.index(v)  # an unknown id, None included, is named as a vertex
    g.node(v)
    _check_degree(up_to)
    codes, chars = _node_table(g, v, up_to)
    char = {c: x for cs, xs in zip(codes, chars) for c, x in zip(cs, xs)}
    gens = _generators(g, v, system, up_to)

    chis = list(group_data(g).characters())
    out = [[] for _ in chis]
    for i in range(up_to + 1):
        # each monomial of degree i at its position in its character block
        size, at = {}, {}
        for c, x in zip(codes[i], chars[i]):
            at[c] = n = size.get(x, 0)
            size[x] = n + 1
        rows = {}
        for low, terms in gens:
            if low > i:
                continue
            e0 = terms[0][0]
            for mu in codes[i - low]:
                rows.setdefault(char[mu + e0], []).append(
                    {at[mu + e]: c for e, c in terms})
        for x, tab in enumerate(out):
            tab.append(size.get(x, 0) - (exact.rank(rows[x]) if x in rows else 0))
    return dict(zip(chis, out))


def oracle_verify(g: ResolutionGraph, up_to, seed=0, bound=64):
    """Compare brute-force dims with molien_coeffs on every node/character.

    Returns a list of mismatch records (empty means agreement).
    """
    _check_degree(up_to)
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
