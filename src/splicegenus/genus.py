"""Geometric genus and eigensheaf cohomology by node/branch recursion.

The central recursion: pick a node v, then

    h1(L_chi) = c_v^chi + sum_i [ h1(branch_i, psi_i(chi)) - chi(O_{D_i}(-L_chi)) ]

where D_i = -[phi_i(c_1(L_chi))] is effective and the Euler characteristic
is Riemann-Roch on the branch.  D_i is read from the parent graph
(``discgroup.nef_shift``), so a branch is decomposed only if the recursion
enters it.  Chains contribute 0 for every character (their universal
abelian covers are smooth), so a chain branch is neither validated nor
decomposed.  p_g(X) is the value at the trivial character and p_g of the
universal abelian cover is the sum over all characters.  h1(L_chi) does
not depend on v (Okuma), so each graph caches it by chi alone.

A branch term depends on chi only through phi_i, the E*-coordinates of
c_1(L_chi) on the branch, and many characters share one phi_i.  Each
branch graph keeps a table phi -> (psi, h1(branch, psi), Euler term),
filled on demand; a character costs c_v^chi, its c_1 and, per branch,
one ``itemgetter`` call that reads phi_i out of c_1's E*-coordinates and
one table read.  No table over H is built.

Cycles are int lists of E-coefficients in g.ids order, and so are the
degree lists of line bundles; c_1(L_chi), built once per step, gives its
numerators over |det I| to the floors (``GroupData._c1_numerators``) and
E*-coordinates read off them (``GroupData._c1_alpha``): all is integral.
"""

from __future__ import annotations

from types import SimpleNamespace

from .discgroup import group_data, nef_shift
from .errors import (
    CycleOutOfRange,
    GraphInputError,
    InternalCheckError,
    NegativeH1,
)
from .graph import ResolutionGraph
from .molien import P_chi, c_v_chi


def _check_ints(g, x, what, effective=False):
    """Check that x is a list (or tuple) of ints in g.ids order, >= 0 if
    ``effective``; CycleOutOfRange otherwise."""
    if not (isinstance(x, (list, tuple)) and len(x) == len(g.ids)
            and all(type(c) is int for c in x)):
        raise CycleOutOfRange(
            f"{what} must be {len(g.ids)} ints in the graph's vertex order, "
            f"got {x!r}")
    if effective and any(c < 0 for c in x):
        raise CycleOutOfRange(f"{what} is not effective: {x!r}")


def euler_char_on_cycle(g: ResolutionGraph, d, ldeg=None) -> int:
    """chi(L (x) O_D) = -D.(D+K)/2 + L.D by Riemann-Roch.

    d is the effective integral cycle D = sum_w d_w E_w and ldeg the
    degrees L.E_w of the twisting bundle (default 0), both int lists in
    g.ids order.
    """
    _check_ints(g, d, "cycle", effective=True)
    ldeg = [0] * len(g.ids) if ldeg is None else ldeg
    _check_ints(g, ldeg, "degree list")
    return g.riemann_roch(d, ldeg)


def _twist(g, v, chi, n):
    """(alpha, q, D) for the degree-n twist along the node v, with v, n
    and chi checked, from one build of c_1's numerators: alpha holds the
    E*-coordinates of c_1(L_chi), q = [c_1(L_chi) - (n/e_v)E_v] its
    integer E-coefficients in g.ids order, of which only the one at v can
    be nonzero, and D the minimal nef correction."""
    k = g.index(v)  # an unknown id, None included, is named as a vertex
    g.node(v)
    if type(n) is not int:  # bool excluded, as for characters
        raise GraphInputError(f"twist degree must be an int, got {n!r}")
    if n < 0:
        raise GraphInputError(f"twist degree must be >= 0, got {n}")
    gd = group_data(g)
    gd.check_character(chi)
    num = gd._c1_numerators(chi)
    det, e_v = gd.dual.det_abs, g.node_weights(v).e
    q = [0] * len(g.ids)
    q[k] = (num[k] * e_v - n * det) // (det * e_v)
    alpha = gd._c1_alpha(num)
    base = [x + a for x, a in zip(g.intersections(q), alpha)]
    return alpha, q, g.laufer(base, g.ids)


def minimal_nef_correction(g: ResolutionGraph, v, chi, n: int) -> list:
    """Smallest D >= 0 making -L_chi + [c_1(L_chi) - (n/e_v)E_v] - D nef,
    for a node v, as integer E-coefficients in g.ids order.

    Laufer's loop (``ResolutionGraph.laufer``): while some E_w has negative
    intersection with the corrected class, add E_w to D; the result does
    not depend on the scan order.  The class base = [c_1 - (n/e_v)E_v] - c_1
    has base.E_w = (I q)_w + alpha_w, with alpha the E*-coordinates of c_1,
    so the loop runs in the integers (``_twist``).
    """
    return _twist(g, v, chi, n)[2]


def _branch_term(br, phi, D, trace):
    """(psi, h1(branch, psi), chi(O_D(-L_chi))) for phi = phi_i(c_1(L_chi)),
    the E*-coordinates alpha_w = -c_1(L_chi).E_w on the branch, which are
    also the degrees of -L_chi, and D = D_{chi,i} = -[phi] (``nef_shift``)."""
    sub = br.subgraph
    e_term = sub.riemann_roch(D, phi)
    if br.is_chain:
        return None, 0, e_term
    # psi_i(chi) = theta_i(phi_i(c_1(L_chi)))
    psi = group_data(sub).theta_alpha(phi)
    return psi, h1_eigensheaf(sub, psi, trace=trace), e_term


def h1_eigensheaf(g: ResolutionGraph, chi, root=None, trace=None) -> int:
    """h1(L_chi) by the node/branch recursion; chains return 0.

    chi is checked before any cached value is read.  A branch enters only
    through phi_i(c_1(L_chi)), the branch's picker applied to c_1's
    E*-coordinates, so h1(L_chi) is c_v^chi plus one read per branch of a
    table that holds one term per distinct phi (``Branch.terms``); on a
    miss, D_{chi,i} comes from the numerators of c_1 and the parent's
    adjugate (``nef_shift``), so a chain branch is neither validated nor
    decomposed.  Each step that is not read from the h1 cache builds the
    numerators once and c_1's E*-coordinates once from them; neither is
    kept.  A traced call computes every term again, so the trace lists
    every step; the per-branch steps are built only for a trace or a
    ``NegativeH1``.
    h1 does not depend on the node, so it is cached under ("h1", chi) and
    read when root is None; a named root recomputes the top level and is
    compared with the cached value.  A branch is one graph per vertex set,
    entered at its default root.  Nodes and chains come from the validation.
    """
    rep = g.require_valid()
    gd = group_data(g)
    gd.check_character(chi)
    if rep.is_chain:
        return 0
    prev = g._cache.get(("h1", chi))
    if prev is not None and root is None and trace is None:
        return prev
    v = g.node(root)
    k, branches = g.index(v), g.branches(v)
    c_v = c_v_chi(g, v, chi)
    num = gd._c1_numerators(chi)
    alpha = gd._c1_alpha(num)
    value = c_v
    terms = []
    for br in branches:
        phi = br.pick(alpha)
        term = br.terms.get(phi) if trace is None else None
        if term is None:
            D = nef_shift(gd.dual, k, br.cols, num)
            term = br.terms[phi] = _branch_term(br, phi, D, trace)
        terms.append(term)
        value += term[1] - term[2]
    if value < 0 or trace is not None:
        steps = [{"attach": br.attach, "psi": psi, "h1": h1_br, "euler": e_term}
                 for br, (psi, h1_br, e_term) in zip(branches, terms)]
    if value < 0:
        raise NegativeH1(
            f"h1 = {value} at node {v}, chi {chi} (c_v = {c_v})",
            trace={"node": v, "chi": list(chi), "c_v": c_v,
                   "branches": steps})
    if trace is not None:
        trace.append({"graph": g.fingerprint(), "node": v, "chi": list(chi),
                      "c_v": c_v, "branches": steps, "h1": value})
    if prev is not None and prev != value:
        raise InternalCheckError(
            f"h1 depends on the root node: {prev} cached, {value} at root "
            f"{v} (chi {chi})")
    g._cache[("h1", chi)] = value
    return value


def pg(g: ResolutionGraph, root=None) -> int:
    """Geometric genus p_g(X) = h1 at the trivial character."""
    return h1_eigensheaf(g, group_data(g).trivial_character, root=root)


def pg_uac(g: ResolutionGraph, root=None) -> int:
    """p_g of the universal abelian cover: sum of h1(L_chi) over all chi."""
    return sum(h1_eigensheaf(g, chi, root=root)
               for chi in group_data(g).characters())


def h1_twisted(g: ResolutionGraph, v, chi, n: int, d):
    """(h0drop, h1) for the degree-n twist along node v.

    h0drop = P^chi(n) is the codimension of sections vanishing to v-order n;
    h1 uses Riemann-Roch on D' = D - [c_1(L_chi) - (n/e_v)E_v], which is
    effective (r_v < |det I| and n >= 0 make the floor <= 0), and requires
    0 <= D <= D_{chi,n} for the int list d of E-coefficients of D in g.ids
    order.
    """
    _check_ints(g, d, "cycle", effective=True)
    alpha, q, bound = _twist(g, v, chi, n)
    if any(x > b for x, b in zip(d, bound)):
        raise CycleOutOfRange(
            f"cycle exceeds the minimal nef correction {bound!r}")
    d_prime = [x - y for x, y in zip(d, q)]
    h0drop = P_chi(g, v, chi, n)
    # the degree of -L_chi on E_w is -c_1(L_chi).E_w = alpha_w
    h1 = g.riemann_roch(d_prime, alpha) - h0drop
    return h0drop, h1 + h1_eigensheaf(g, chi)


class GenusReport(SimpleNamespace):
    pg: int
    per_character_h1: dict          # character tuple -> int
    pg_uac: int
    trace = ()                      # the h1 steps (with_trace); a class default

    def to_json(self):
        return {
            "pg": self.pg,
            "pgUAC": self.pg_uac,
            "h1": [{"char": list(chi), "value": h}
                   for chi, h in sorted(self.per_character_h1.items())],
            "trace": list(self.trace),
        }


def genus_report(g: ResolutionGraph, root=None, with_trace=False) -> GenusReport:
    gd = group_data(g)
    trace = [] if with_trace else None
    table = {chi: h1_eigensheaf(g, chi, root=root, trace=trace)
             for chi in gd.characters()}
    return GenusReport(pg=table[gd.trivial_character], per_character_h1=table,
                       pg_uac=sum(table.values()), trace=trace or [])
