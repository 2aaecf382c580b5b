"""The monomial condition and splice diagram equations.

A monomial cycle is a nonnegative integer combination D of the end duals
E*_w.  D is admissible for (node v, branch C) when D - E*_v is an effective
integral cycle supported on C.  The monomial condition asks for one such D
per branch per node; the emitted system takes delta_v - 2 generic linear
combinations of the delta_v admissible monomials at each node.

The search is finite: C does not contain v, so an admissible D has the
v-coefficient of E*_v and its v-degree is sum_w alpha_w m_vw = m_vv.  Every
m_vw > 0, so alpha_w <= m_vv // m_vw, and only the branch's ends carry
exponents; the candidates are the solutions of this one equation, listed
by _exponent_vectors (pruned by gcd and capped sum).  A monomial is its
exponent dict {end id: positive int}.

Everything here runs in the integers: the exponent vector of D is its
E*-coordinates alpha, A alpha (A the graph's adjugate) is |det I| times its
E-coefficients, and its class in H is read by theta(alpha) = T alpha mod d.
The residual D - E*_v of a witness is an integral cycle, an int list of
E-coefficients in g.ids order.
"""

from __future__ import annotations

import itertools
import random
from math import gcd
from types import SimpleNamespace

from . import exact
from .discgroup import group_data
from .errors import (
    GraphInputError,
    InternalCheckError,
    MonomialConditionUnknown,
)
from .graph import ResolutionGraph
from .molien import _check_degree


class AdmissibilityWitness(SimpleNamespace):
    node: str
    attach: str                # identifies the branch
    exponents: dict            # end id -> positive int
    residual: list             # D - E*_v, E-coefficients in g.ids order


class NodeSystem(SimpleNamespace):
    node: str
    monomials: list            # one exponent dict per branch, branch order
    v_degree: int
    equations: list            # per row: list of (coeff, exponents dict)


class SpliceSystem(SimpleNamespace):
    nodes: list                # list of NodeSystem
    seed: int

    def to_json(self):
        return {
            "seed": self.seed,
            "nodes": [
                {"node": ns.node,
                 "vDegree": ns.v_degree,
                 "monomials": [dict(m) for m in ns.monomials],
                 "equations": [
                     [{"coefficient": str(c), "exponents": dict(e)}
                      for c, e in eq]
                     for eq in ns.equations]}
                for ns in self.nodes],
        }


def _alpha(g: ResolutionGraph, exponents):
    """The exponent vector as E*-coordinates, in g.ids order."""
    return [exponents.get(w, 0) for w in g.ids]


def v_degree(g: ResolutionGraph, v, exponents) -> int:
    """Sum of alpha_w m_vw; equals -e_v D.E*_v = e_v (coefficient of D at v),
    since m_vw |det I| = e_v A_vw: row v of the adjugate, which
    ``dual_data`` checks.  Exponents are ints >= 0, bool excluded, at ends."""
    m = g.node_weights(v).m
    g.node(v)
    for w, a in exponents.items():
        if type(a) is not int or a < 0:
            raise GraphInputError(f"exponents must be ints >= 0, got {exponents!r}")
        g.index(w)  # an id that is not a vertex is named as such
        if g.degree(w) > 1:
            raise GraphInputError(f"{w!r} is not an end of the graph")
    return sum(a * m[w] for w, a in exponents.items())


def validate_witness(g: ResolutionGraph, v, branch, exponents):
    """Independent check of admissibility; returns the witness or None.

    Deliberately a separate code path from the search: recomputes the
    residual from scratch.  |det I| (D - E*_v) has E-coefficients
    A alpha - A_v (A_v column v of the adjugate); each must be >= 0,
    divisible by |det I|, and 0 off the branch.  Exponents are ints >= 0.
    """
    ends = g.require_valid().ends
    branch_vs = set(branch.subgraph.ids)
    # only ends on the branch may carry exponents
    if any(w not in ends or type(a) is not int or a < 0
           or (a and w not in branch_vs) for w, a in exponents.items()):
        return None
    dd = g.dual_data()
    det = dd.det_abs
    residual = []
    for u, x, y in zip(g.ids, dd.numerators(_alpha(g, exponents)),
                       dd.adjugate[g.index(v)]):
        r, rem = divmod(x - y, det)
        if rem or r < 0 or (r and u not in branch_vs):
            return None
        residual.append(r)
    return AdmissibilityWitness(node=v, attach=branch.attach,
                                exponents={w: a for w, a in
                                           exponents.items() if a},
                                residual=residual)


def _exponent_vectors(weights, degree, caps=None):
    """Every tuple a, in lex order, with 0 <= a_j <= caps[j] (no cap when
    caps is None) and sum_j a_j weights[j] = degree; weights is a nonempty
    list of positive ints.  A prefix is extended only while the rest of the
    degree is a multiple of the gcd of the remaining weights and at most
    their capped sum, and the last exponent is computed: besides the
    output, the state is O(len(weights))."""
    n = len(weights)
    caps = caps or [degree // w for w in weights]
    # gcd and capped sum of weights[j:]
    gcds, tops = [0] * (n + 1), [0] * (n + 1)
    for j in reversed(range(n)):
        gcds[j] = gcd(weights[j], gcds[j + 1])
        tops[j] = tops[j + 1] + caps[j] * weights[j]
    out, a = [], [0] * n

    def extend(j, rest):
        # rest is a multiple of gcds[j] and at most tops[j]; j < n - 1
        w, d = weights[j], gcds[j]
        lo = max(0, -((tops[j + 1] - rest) // w))
        # rest - k w is a multiple of gcds[j + 1] on one class of k mod step
        step = gcds[j + 1] // d
        if step > 1:
            lo += (rest // d * pow(w // d, -1, step) - lo) % step
        for k in range(lo, min(caps[j], rest // w) + 1, step):
            a[j] = k
            if j + 2 < n:
                extend(j + 1, rest - k * w)
            else:  # the last exponent is determined
                a[-1] = (rest - k * w) // weights[-1]
                out.append(tuple(a))

    if 0 <= degree <= tops[0] and degree % gcds[0] == 0:
        if n > 1:
            extend(0, degree)
        else:
            out.append((degree // weights[0],))
    return out


def find_admissible_monomial(g: ResolutionGraph, v, branch, bound=64):
    """Search for an admissible monomial for (v, branch).

    D - E*_v is supported on the branch, which does not contain v, so D has
    the v-coefficient of E*_v: its v-degree is fixed,
    sum_w alpha_w m_vw = m_vv.  Every m_vw > 0, so alpha_w is capped by
    min(bound, m_vv // m_vw), and ends off the branch carry 0.  The
    solutions of this bounded knapsack over the branch's ends, listed with
    the ends by decreasing m_vw (so the computed last exponent has the
    smallest weight), are validated by the independent path in key order
    (total exponent, then lex over the ends in ids order); the first valid
    one is returned.  None means not found within the bound; a bound of at
    least every m_vv // m_vw makes the search exhaustive.
    """
    _check_degree(bound, "bound")
    m = g.node_weights(v).m
    g.node(v)
    branch_vs = set(branch.subgraph.ids)
    ends = [w for w in g.require_valid().ends if w in branch_vs]
    by_m = sorted(ends, key=lambda w: -m[w])
    pos = [by_m.index(w) for w in ends]
    vecs = _exponent_vectors([m[w] for w in by_m], m[v],
                             [min(bound, m[v] // m[w]) for w in by_m])
    for _, *alpha in sorted((sum(a), *map(a.__getitem__, pos)) for a in vecs):
        wit = validate_witness(g, v, branch,
                               {w: a for w, a in zip(ends, alpha) if a})
        if wit is not None:
            return wit
    return None


class MonomialConditionReport(SimpleNamespace):
    verdict: str               # "satisfied" or "unknown"
    witnesses: dict            # (node, attach) -> AdmissibilityWitness or None
    bound: int

    def to_json(self):
        return {
            "verdict": self.verdict,
            "bound": self.bound,
            "branches": [
                {"node": v, "attach": u,
                 "found": w is not None,
                 "exponents": dict(w.exponents) if w else None}
                for (v, u), w in sorted(self.witnesses.items())],
        }


def check_monomial_condition(g: ResolutionGraph, bound=64) -> MonomialConditionReport:
    _check_degree(bound, "bound")
    g.require_valid()
    witnesses = {}
    verdict = "satisfied"
    for v in g.nodes():
        for br in g.branches(v):
            wit = find_admissible_monomial(g, v, br, bound=bound)
            witnesses[(v, br.attach)] = wit
            if wit is None:
                verdict = "unknown"
    return MonomialConditionReport(verdict=verdict, witnesses=witnesses,
                                   bound=bound)


def _all_maximal_minors_nonzero(F):
    """A square submatrix has a nonzero determinant iff it has full rank."""
    return all(exact.rank([{k: row[c] for k, c in enumerate(cols)} for row in F])
               == len(F)
               for cols in itertools.combinations(range(len(F[0])), len(F)))


def emit_splice_system(g: ResolutionGraph, seed=0, bound=64) -> SpliceSystem:
    """One admissible monomial per branch per node, with generic coefficients.

    Coefficient rows are drawn from a seeded generator and redrawn until
    every maximal minor is nonzero (checked exactly).
    """
    report = check_monomial_condition(g, bound=bound)
    if report.verdict != "satisfied":
        v, u = min(k for k, w in report.witnesses.items() if w is None)
        raise MonomialConditionUnknown(
            f"monomial condition not established within bound {bound}: "
            f"no admissible monomial for node {v}, branch at {u}")
    rng = random.Random(seed)
    out = []
    for v in g.nodes():
        monos = [report.witnesses[(v, br.attach)].exponents
                 for br in g.branches(v)]
        delta = len(monos)
        F = []
        if delta > 2:
            for _ in range(200):
                F = [[rng.randint(1, 997) for _ in range(delta)]
                     for _ in range(delta - 2)]
                if _all_maximal_minors_nonzero(F):
                    break
            else:
                raise InternalCheckError(
                    f"no generic coefficient matrix found at node {v}")
        equations = [[(row[j], dict(monos[j])) for j in range(delta)]
                     for row in F]
        out.append(NodeSystem(node=v, monomials=monos,
                              v_degree=g.node_weights(v).m[v],
                              equations=equations))
    return SpliceSystem(nodes=out, seed=seed)


def verify_equivariance(g: ResolutionGraph, system: SpliceSystem):
    """Check theta(h, D) = theta(h, E*_v) for every h and every monomial D
    of the system.

    The pairing is nondegenerate, so this is theta(D) = psi_v: T alpha_D
    mod d against column v of the theta matrix.  Returns (True, None) or
    (False, (theta(D), node, exponents)).
    """
    gd = group_data(g)
    for ns in system.nodes:
        target = gd.dual_character(ns.node)
        for mono in ns.monomials:
            got = gd.theta_alpha(_alpha(g, mono))
            if got != target:
                return False, (got, ns.node, dict(mono))
    return True, None
