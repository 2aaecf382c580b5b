"""Weighted resolution graphs, dual cycles, and basic cycle computations.

A resolution graph is a tree of rational curves E_v with self-intersection
weights; the intersection matrix I has the weights on the diagonal and 1 for
each edge.  All linear algebra is in the integers.

Every cycle is an integer list in ``ids`` order, in one of two forms.  An
integral cycle D = sum_u x_u E_u is the list x of its E-coefficients, with
``intersections`` (I x) and ``riemann_roch`` on it.  A rational cycle is
held by its integer E*-coordinates alpha_w = -D.E_w, so
D = sum_w alpha_w E*_w; the integer adjugate A = |det I| (-I^{-1}) turns
them into numerators over |det I|: D = sum_u (A alpha)_u / |det I| E_u
(``DualData.numerators`` for every u; a single u reads row u of A).

The Smith normal form U I V = S is the one decomposition of I, computed
in ``dual_data`` once per graph whose group or dual cycles are read: |det
I| is the product of the s_k, and I^{-1} = V S^{-1} U gives
A = -V diag(|det I| / s_k) U, summed from the rows of U at the nonzero
entries of V.  ``DualData`` keeps U, the diagonal of S and V, from which
``discgroup`` reads H = L*/L.  A chain reached as a branch of the h1
recursion is neither validated nor decomposed: ``branches`` marks it,
and its nef shifts come from the parent's adjugate
(``discgroup.nef_shift``); a branch with a node inherits its validation
from the parent.  ``intersections`` is one pass over the edges,
as position pairs built once per graph.
"""

from __future__ import annotations

import functools
import json
import math
from operator import itemgetter
from types import SimpleNamespace

from . import exact
from .errors import (
    GraphInputError,
    GraphSyntaxError,
    InternalCheckError,
    NotATree,
    NotNegativeDefinite,
)


# A record is a SimpleNamespace built by keyword with every field given (a
# class attribute is a default); the annotations name the fields.
class ValidationReport(SimpleNamespace):
    valid: bool
    is_tree: bool
    negative_definite: bool
    is_chain: bool
    nodes: list
    ends: list
    error: str | None
    warnings: list
    minor_index: int | None  # first wrongly signed leading minor


class DualData(SimpleNamespace):
    """|det I|, the integer adjugate A = |det I| (-I^{-1}) and the Smith
    form U I V = S it is read from.

    A is symmetric with positive entries, and row v of A is |det I| E*_v.
    """

    adjugate: list         # A as a list of rows, in ids order
    det_abs: int
    U: list                # unimodular, as a list of rows
    diag: list             # s_k = S[k][k] > 0, each dividing the next
    V: list                # unimodular, as a list of rows

    def numerators(self, alpha):
        """|det I| times the E-coefficients of sum_w alpha_w E*_w."""
        nz = [(j, a) for j, a in enumerate(alpha) if a]
        return [sum(row[j] * a for j, a in nz) for row in self.adjugate]


class NodeWeights(SimpleNamespace):
    e: int                 # e_v
    m: dict                # w -> m_vw = e_v * a_vw
    a_v: int               # e_v * m_vv


class Branch(SimpleNamespace):
    """A connected component of E - E_v, as a standalone graph, with what
    the h1 recursion reads of it at v.

    Vertex ids are shared with the parent graph.
    """

    attach: str            # the branch vertex adjacent to the node
    subgraph: "ResolutionGraph"
    is_chain: bool         # no node: a branch of a valid tree is valid
    cols: list             # the positions of its ids, in its order, in the parent
    pick: object           # phi_i: alpha -> alpha's entries at cols
    terms: dict            # phi -> branch term, one per branch graph


def _per_graph(key):
    """Memoise f(g, *args) in g._cache under key, or under (key, *args),
    built on the first call; no value it builds is None."""
    def memo(f):
        @functools.wraps(f)
        def cached(g, *args):
            k = (key, *args) if args else key
            try:
                value = g._cache.get(k)
            except TypeError:  # an unhashable argument: no vertex id
                g.index(*args)
                raise
            if value is None:
                value = g._cache[k] = f(g, *args)
            return value
        return cached
    return memo


class ResolutionGraph:
    """Weighted tree of rational curves.  Vertex order is the input order."""

    def __init__(self, vertices, edges):
        self.ids = []
        self.weight = {}
        for vid, w in vertices:
            if vid in self.weight:
                raise GraphInputError(f"duplicate vertex id {vid!r}")
            try:
                integral = int(w) == w
            except (TypeError, ValueError, OverflowError):  # None, "x", nan, inf
                integral = False
            if not integral:
                raise GraphInputError(f"weight of {vid!r} is not an integer")
            self.ids.append(vid)
            self.weight[vid] = int(w)
        self.adj = {v: set() for v in self.ids}
        self.edges = []
        seen = set()
        for a, b in edges:
            if a not in self.weight or b not in self.weight:
                missing = a if a not in self.weight else b
                raise GraphInputError(f"edge references unknown vertex {missing!r}")
            if a == b:
                raise GraphInputError(f"self-loop at {a!r}")
            key = frozenset((a, b))
            if key in seen:
                continue
            seen.add(key)
            self.edges.append(tuple(sorted((a, b))))
            self.adj[a].add(b)
            self.adj[b].add(a)
        self.edges.sort()
        # vertex positions, and the ids-order weights and edge position
        # pairs that ``intersections`` reads
        self._pos = {v: k for k, v in enumerate(self.ids)}
        self._weights = [self.weight[v] for v in self.ids]
        self._edge_pos = [(self._pos[a], self._pos[b]) for a, b in self.edges]
        self._cache = {}
        self._subgraphs = {frozenset(self.ids): self}  # shared with subgraphs

    # -- basic queries ----------------------------------------------------

    def __len__(self):
        return len(self.ids)

    def index(self, v):
        try:
            return self._pos[v]
        except (KeyError, TypeError):  # TypeError: v is unhashable
            raise GraphInputError(f"{v!r} is not a vertex of the graph") from None

    def degree(self, v):
        return len(self.adj[v])

    def nodes(self):
        return [v for v in self.ids if self.degree(v) >= 3]

    def node(self, v=None):
        """v, checked to be a node; None names the first in sorted order."""
        nodes = self.require_valid().nodes
        if not nodes:
            raise GraphInputError("graph is a chain: no node to compute at")
        if v is not None and v not in nodes:
            raise GraphInputError(f"{v!r} is not a node of the graph "
                                  f"(nodes: {sorted(nodes)})")
        return min(nodes) if v is None else v

    def ends(self):
        return [v for v in self.ids if self.degree(v) <= 1]

    def intersection_matrix(self):
        n = len(self.ids)
        I = [[0] * n for _ in range(n)]
        for i, w in enumerate(self._weights):
            I[i][i] = w
        for i, j in self._edge_pos:
            I[i][j] = I[j][i] = 1
        return I

    def intersections(self, x):
        """I x: the numbers D.E_w, w in ids order, for D = sum_u x_u E_u."""
        y = [w * a for w, a in zip(self._weights, x)]
        for i, j in self._edge_pos:
            y[i] += x[j]
            y[j] += x[i]
        return y

    def riemann_roch(self, d, ldeg) -> int:
        """chi(L (x) O_D) = -(D.D + D.K)/2 + L.D for the integral cycle
        D = sum_w d_w E_w and integer degrees L.E_w = ldeg_w (lists in ids
        order), with D.K = sum_w d_w (-E_w^2 - 2) by adjunction, so that
        D.(D+K) = 2 p_a(D) - 2 is even."""
        dd_k = sum(x * (y - w - 2)
                   for w, x, y in zip(self._weights, d, self.intersections(d)) if x)
        return sum(x * l for x, l in zip(d, ldeg) if x) - dd_k // 2

    def fingerprint(self):
        """Deterministic identity of the weighted graph (ids included)."""
        vs = ";".join(f"{v}:{self.weight[v]}" for v in sorted(self.ids))
        es = ";".join(f"{a}-{b}" for a, b in self.edges)
        return vs + "|" + es

    # -- validation -------------------------------------------------------

    @_per_graph("validation")
    def validate(self) -> ValidationReport:
        """The validation report, built once per graph (one Bareiss pass).
        A tree whose leading minors are all correctly signed is negative
        definite, so every weight E_v^2 is <= -1."""
        n = len(self.ids)
        tree = (n > 0 and len(self.edges) == n - 1
                and len(self._reach(self.ids[0])) == n)
        bad = (exact.negative_definite_violation(self.intersection_matrix())
               if tree else None)
        if not tree or bad is not None:
            error = ("graph has no vertices" if n == 0 else
                     "graph is not a tree" if not tree else
                     f"not negative definite (minor {bad})")
            return ValidationReport(
                valid=False, is_tree=tree, negative_definite=False,
                is_chain=False, nodes=[], ends=[], error=error, warnings=[],
                minor_index=bad)
        nodes = self.nodes()
        warnings = [] if nodes else [
            "chain (cyclic quotient): excluded by Assumption 2.1 at top level"]
        return ValidationReport(
            valid=True, is_tree=True, negative_definite=True,
            is_chain=not nodes, nodes=nodes, ends=self.ends(), error=None,
            warnings=warnings, minor_index=None)

    def _reach(self, u, cut=()):
        """The vertices reached from u without passing through a vertex of
        cut (u itself not in cut)."""
        seen = {u, *cut}
        stack = [u]
        while stack:
            for x in self.adj[stack.pop()]:
                if x not in seen:
                    seen.add(x)
                    stack.append(x)
        return seen.difference(cut)

    def require_valid(self):
        rep = self.validate()
        if not rep.valid:
            if not rep.is_tree:
                raise NotATree(rep.error)
            raise NotNegativeDefinite(rep.minor_index)
        return rep

    # -- dual cycles and weights ------------------------------------------

    @_per_graph("dual")
    def dual_data(self) -> DualData:
        self.require_valid()
        U, S, V = exact.smith_normal_form(self.intersection_matrix())
        n = len(S)
        diag = [S[k][k] for k in range(n)]  # nonzero: I is negative definite
        det_abs = math.prod(diag)
        # A = -V diag(|det I| / s_k) U, from I^{-1} = V S^{-1} U: row i of
        # A sums the scaled rows of U at the nonzero entries of row i of V
        scaled = [[-(det_abs // s) * x for x in row] for s, row in zip(diag, U)]
        A = []
        for vrow in V:
            acc = [0] * n
            for v, row in zip(vrow, scaled):
                if v:
                    acc = [a + v * x for a, x in zip(acc, row)]
            A.append(acc)
        if not all(x > 0 for row in A for x in row):
            raise InternalCheckError(
                "entries of |det I| (-I^{-1}) must be positive integers")
        # I A = -|det I| Id, checked in the integers (A is symmetric)
        for i, col in enumerate(A):
            if self.intersections(col) != [
                    -det_abs if j == i else 0 for j in range(n)]:
                raise InternalCheckError(
                    f"I A != -|det I| Id in column {self.ids[i]!r}")
        return DualData(adjugate=A, det_abs=det_abs, U=U, diag=diag, V=V)

    @_per_graph("nw")
    def node_weights(self, v) -> NodeWeights:
        dd = self.dual_data()
        det = dd.det_abs
        row = dd.adjugate[self.index(v)]  # l_vw = |det I| a_vw
        # I row = -|det I| e_v (``dual_data``): m is integral, with gcd 1
        e = det // math.gcd(*row)
        m = {w: e * l // det for w, l in zip(self.ids, row)}
        return NodeWeights(e=e, m=m, a_v=e * m[v])

    # -- canonical and fundamental cycles ---------------------------------

    def canonical_cycle(self):
        """c_1(K), the cycle with K . E_w = -E_w^2 - 2 for every w.

        K = -I^{-1} (-E_w^2 - 2) = A (E_w^2 + 2) / |det I|.  Returns (the
        numerators of K over |det I|, numerically_gorenstein).
        """
        dd = self.dual_data()
        num = dd.numerators([self.weight[w] + 2 for w in self.ids])
        return num, all(c % dd.det_abs == 0 for c in num)

    def fundamental_cycle(self):
        """Artin's fundamental cycle Z by Laufer's increment loop.

        Returns (Z as an integer list, p_a(Z)) with p_a(Z) = 1 - chi(O_Z) by
        Riemann-Roch.
        """
        self.require_valid()
        # slack_w = -(Z.E_w) for Z = sum_w E_w
        D = self.laufer([-x for x in self.intersections([1] * len(self.ids))],
                        self.ids)
        z = [1 + x for x in D]
        pa = 1 - self.riemann_roch(z, [0] * len(z))
        return z, pa

    def laufer(self, slack, scan):
        """Laufer's loop from slack_w = B.E_w (a list in ids order): while
        some slack_w < 0, the first in ``scan`` (the vertices in some
        order), add E_w to D and subtract column w of I from the slack, so
        that slack_w stays (B - D).E_w.  Returns D as an integer list in
        ids order; the number of steps is sum(D)."""
        slack = dict(zip(self.ids, slack))
        D = dict.fromkeys(self.ids, 0)
        while (w := next((u for u in scan if slack[u] < 0), None)) is not None:
            D[w] += 1
            slack[w] -= self.weight[w]
            for u in self.adj[w]:
                slack[u] -= 1
        return [D[w] for w in self.ids]

    # -- branches ----------------------------------------------------------

    def subgraph(self, vertex_ids):
        """The induced subgraph, one object per vertex set for the graph and
        all it builds: a subgraph's subgraph is the input's on those ids."""
        keep = frozenset(vertex_ids)
        if keep not in self._subgraphs:
            vs = [(v, self.weight[v]) for v in self.ids if v in keep]
            es = [(a, b) for a, b in self.edges if a in keep and b in keep]
            sub = self._subgraphs[keep] = ResolutionGraph(vs, es)
            sub._subgraphs = self._subgraphs
        return self._subgraphs[keep]

    @_per_graph("branches")
    def branches(self, v):
        """Connected components of E - E_v, ordered by attaching-vertex id;
        each is the one shared graph of its vertex set (``subgraph``).  A
        branch with a node is given its validation report unless it has
        one, so it runs no Bareiss pass.  Its picker reads phi_i out of
        c_1's E*-coordinates (``itemgetter`` of one index returns the entry
        itself, so a one-vertex branch wraps it in a 1-tuple), and its term
        table is kept in the branch graph's cache, so it serves every
        (graph, root) the branch hangs on."""
        self.index(v)  # an unknown id is named as a vertex
        self.require_valid()
        out = []
        for u in sorted(self.adj[v]):
            sub = self.subgraph(self._reach(u, (v,)))
            nodes = sub.nodes()
            if nodes and "validation" not in sub._cache:
                # a connected induced subtree of a valid tree, its matrix a
                # principal submatrix of a negative definite one
                sub._cache["validation"] = ValidationReport(
                    valid=True, is_tree=True, negative_definite=True,
                    is_chain=False, nodes=nodes, ends=sub.ends(), error=None,
                    warnings=[], minor_index=None)
            cols = [self._pos[w] for w in sub.ids]
            pick = (itemgetter(*cols) if len(cols) > 1
                    else lambda alpha, j=cols[0]: (alpha[j],))
            out.append(Branch(attach=u, subgraph=sub, is_chain=not nodes,
                              cols=cols, pick=pick,
                              terms=sub._cache.setdefault("terms", {})))
        return out

    # -- serialization -----------------------------------------------------

    def dump(self, fmt="json"):
        if fmt == "json":
            return json.dumps(
                {"vertices": [{"id": v, "weight": self.weight[v]} for v in self.ids],
                 "edges": [[a, b] for a, b in self.edges]},
                separators=(",", ":"))
        if fmt == "dsl":
            lines = [f"vertex {v} {self.weight[v]}" for v in self.ids]
            lines += [f"edge {a} {b}" for a, b in self.edges]
            return "\n".join(lines) + "\n"
        raise ValueError(f"unknown format {fmt!r}")


def parse_graph(text: str) -> ResolutionGraph:
    """Parse a graph from the JSON schema or the line-oriented DSL."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return _parse_json(text)
    return _parse_dsl(text)


def _json_weight(w):
    """An int, an integral float or an integer string; anything else
    (booleans, null, fractional or infinite floats) is a ValueError."""
    if (isinstance(w, float) and w.is_integer()) or isinstance(w, str):
        return int(w)
    if isinstance(w, int) and not isinstance(w, bool):
        return w
    raise ValueError(f"weight {w!r} is not an integer")


def _json_id(x):
    """A JSON string, or an int read as its decimal string; anything else
    (null, booleans, floats, lists, objects) is a ValueError."""
    if isinstance(x, str) or (isinstance(x, int) and not isinstance(x, bool)):
        return str(x)
    raise ValueError(f"id {x!r} is not a string or an integer")


def _parse_json(text):
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise GraphSyntaxError(f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict) or not isinstance(data.get("vertices"), list):
        raise GraphSyntaxError("expected an object with a 'vertices' list")
    vertices = []
    for item in data["vertices"]:
        try:
            vertices.append((_json_id(item["id"]), _json_weight(item["weight"])))
        except (KeyError, TypeError, ValueError) as exc:
            raise GraphSyntaxError(f"bad vertex entry {item!r}") from exc
    edges = data.get("edges", [])
    if not isinstance(edges, list):
        raise GraphSyntaxError("'edges' must be a list")
    for pair in edges:
        if not isinstance(pair, list) or len(pair) != 2:
            raise GraphSyntaxError(f"bad edge entry {pair!r}")
    try:
        pairs = [(_json_id(a), _json_id(b)) for a, b in edges]
    except ValueError as exc:
        raise GraphSyntaxError(f"bad edge entry: {exc}") from exc
    return ResolutionGraph(vertices, pairs)


def _parse_dsl(text):
    vertices = []
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "vertex" and len(parts) == 3:
            try:
                vertices.append((parts[1], int(parts[2])))
            except ValueError:
                raise GraphSyntaxError(f"bad weight {parts[2]!r}", line=lineno)
        elif parts[0] == "edge" and len(parts) == 3:
            edges.append((parts[1], parts[2]))
        else:
            raise GraphSyntaxError(f"unrecognized directive {line!r}", line=lineno)
    return ResolutionGraph(vertices, edges)
