"""The monomial condition and splice diagram equations.

A monomial cycle is a nonnegative integer combination D of the end duals
E*_w.  D is admissible for (node v, branch C) when D - E*_v is an effective
integral cycle supported on C.  The monomial condition asks for one such D
per branch per node; the emitted system takes delta_v - 2 generic linear
combinations of the delta_v admissible monomials at each node.

The search is finite: C does not contain v, so an admissible D has the
v-coefficient of E*_v and its v-degree is sum_w alpha_w m_vw = m_vv.  Every
m_vw > 0, so alpha_w <= m_vv // m_vw, and only the branch's ends carry
exponents; the candidates are the solutions of this one equation.

Everything here runs in the integers: the exponent vector of D is its
E*-coordinates alpha, A alpha (A the graph's adjugate) is |det I| times its
E-coefficients, and its class in H is read by theta(alpha) = T alpha mod d.
The residual D - E*_v of a witness is an integral cycle, an int list of
E-coefficients in g.ids order.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from . import exact
from .discgroup import group_data
from .errors import DegenerateCoefficients, MonomialConditionUnknown
from .graph import ResolutionGraph


@dataclass
class MonomialCycle:
    exponents: dict            # end-id -> positive int; D = sum alpha_w E*_w

    def total(self):
        return sum(self.exponents.values())


@dataclass
class AdmissibilityWitness:
    node: str
    attach: str                # identifies the branch
    monomial: MonomialCycle
    residual: list             # D - E*_v, E-coefficients in g.ids order


@dataclass
class NodeSystem:
    node: str
    monomials: list            # one MonomialCycle per branch, branch order
    v_degree: int
    coefficients: list         # (delta-2) x delta rows of ints
    equations: list            # per row: list of (coeff, exponents dict)


@dataclass
class SpliceSystem:
    nodes: list                # list of NodeSystem
    seed: int

    def to_json(self):
        return {
            "seed": self.seed,
            "nodes": [
                {"node": ns.node,
                 "vDegree": ns.v_degree,
                 "monomials": [dict(m.exponents) for m in ns.monomials],
                 "equations": [
                     [{"coefficient": str(c), "exponents": dict(e)}
                      for c, e in eq]
                     for eq in ns.equations]}
                for ns in self.nodes],
        }


def _alpha(g: ResolutionGraph, exponents):
    """The exponent vector as E*-coordinates, in g.ids order."""
    return [int(exponents.get(w, 0)) for w in g.ids]


def monomial_cycle(exponents) -> MonomialCycle:
    assert all(int(a) >= 0 for a in exponents.values())
    return MonomialCycle({w: int(a) for w, a in exponents.items() if a})


def v_degree(g: ResolutionGraph, v, exponents) -> int:
    """Sum of alpha_w m_vw; equals -e_v D.E*_v = e_v (coefficient of D at v),
    checked as e_v (A alpha)_v = deg |det I|."""
    nw = g.node_weights(v)
    deg = sum(int(a) * nw.m[w] for w, a in exponents.items())
    dd = g.dual_data()
    check = nw.e * dd.numerators(_alpha(g, exponents))[g.index(v)]
    assert check == deg * dd.det_abs, \
        f"v-degree identity fails: {deg} |det I| != {check}"
    return deg


def validate_witness(g: ResolutionGraph, v, branch, exponents):
    """Independent check of admissibility; returns the witness or None.

    Deliberately a separate code path from the search: recomputes the
    residual from scratch.  |det I| (D - E*_v) has E-coefficients
    A alpha - A_v (A_v column v of the adjugate); each must be >= 0,
    divisible by |det I|, and 0 off the branch.
    """
    ends = set(g.ends())
    branch_vs = set(branch.subgraph.ids)
    # only ends on the branch may carry exponents
    if any(w not in ends or int(a) < 0 or (a and w not in branch_vs)
           for w, a in exponents.items()):
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
                                monomial=monomial_cycle(exponents),
                                residual=residual)


def find_admissible_monomial(g: ResolutionGraph, v, branch, bound=64):
    """Search for an admissible monomial for (v, branch).

    D - E*_v is supported on the branch, which does not contain v, so D has
    the v-coefficient of E*_v: its v-degree is fixed,
    sum_w alpha_w m_vw = m_vv.  Every m_vw > 0, so alpha_w is capped by
    min(bound, m_vv // m_vw), and ends off the branch carry 0.  The
    solutions of this bounded knapsack over the branch's ends (the last end
    is determined by the others) are validated by the independent path in
    key order (total exponent, then lex over g.ends()), and the first valid
    one is returned.  None means not found within the bound; a bound of at
    least every m_vv // m_vw makes the search exhaustive.
    """
    g.require_valid()
    m = g.node_weights(v).m
    branch_vs = set(branch.subgraph.ids)
    ends = [w for w in g.ends() if w in branch_vs]
    caps = [min(bound, m[v] // m[w]) for w in ends]

    def solutions(k, rest):
        # exponents of ends[k:] with sum alpha_w m_vw = rest
        if k == len(ends) - 1:
            a, rem = divmod(rest, m[ends[k]])
            if not rem and a <= caps[k]:
                yield (a,)
            return
        for a in range(min(caps[k], rest // m[ends[k]]) + 1):
            for tail in solutions(k + 1, rest - a * m[ends[k]]):
                yield (a,) + tail

    for alpha in sorted(solutions(0, m[v]), key=lambda a: (sum(a), a)):
        wit = validate_witness(g, v, branch,
                               {w: a for w, a in zip(ends, alpha) if a})
        if wit is not None:
            return wit
    return None


@dataclass
class MonomialConditionReport:
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
                 "exponents": dict(w.monomial.exponents) if w else None}
                for (v, u), w in sorted(self.witnesses.items())],
        }


def check_monomial_condition(g: ResolutionGraph, bound=64) -> MonomialConditionReport:
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


def _draw_coefficients(rng, nrows, ncols):
    return [[rng.randint(1, 997) for _ in range(ncols)]
            for _ in range(nrows)]


def _all_maximal_minors_nonzero(F, nrows, ncols):
    for cols in itertools.combinations(range(ncols), nrows):
        sub = [[F[i][c] for c in cols] for i in range(nrows)]
        if exact.det_bareiss(sub) == 0:
            return False
    return True


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
        monos = [report.witnesses[(v, br.attach)].monomial
                 for br in g.branches(v)]
        degs = {v_degree(g, v, m.exponents) for m in monos}
        assert len(degs) == 1, f"monomials at {v} are not quasihomogeneous"
        delta = len(monos)
        nrows = delta - 2
        F = None
        if nrows > 0:
            for _ in range(200):
                cand = _draw_coefficients(rng, nrows, delta)
                if _all_maximal_minors_nonzero(cand, nrows, delta):
                    F = cand
                    break
            if F is None:
                raise DegenerateCoefficients(
                    f"no generic coefficient matrix found at node {v}")
        else:
            F = []
        equations = [[(row[j], dict(monos[j].exponents)) for j in range(delta)]
                     for row in F]
        out.append(NodeSystem(node=v, monomials=monos, v_degree=degs.pop(),
                              coefficients=F, equations=equations))
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
            got = gd.theta_alpha(_alpha(g, mono.exponents))
            if got != target:
                return False, (got, ns.node, dict(mono.exponents))
    return True, None
