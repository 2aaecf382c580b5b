"""Independent answers the benchmark checks the CLI against.

Nothing here imports splicegenus: each expected value comes from a closed
formula, a published value or plain integer arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, prod

# p_g and p_g of the universal abelian cover of the paper's Figure 1 graph.
FIG1_PG = 7
FIG1_PG_UAC = 165


def star_group_order(b, legs):
    """|H| = |det I| = prod(alpha_i) * (b - sum(omega_i / alpha_i)).

    ``legs`` holds Seifert pairs (alpha, omega) with 0 < omega < alpha; the
    central curve has self-intersection -b.
    """
    e = b - sum(Fraction(w, a) for a, w in legs)
    order = prod(a for a, _ in legs) * e
    if order <= 0 or order.denominator != 1:
        raise ValueError(f"not a negative-definite star: b={b} legs={legs}")
    return int(order)


def pinkham_pg(b, legs):
    """p_g of the weighted-homogeneous singularity with this star graph.

    Pinkham (Math. Ann. 227, 1977): the degree-l piece contributes
    h1 = max(0, -l*b + sum(ceil(l*omega_i/alpha_i)) - 1).  With
    e = b - sum(omega_i/alpha_i) > 0 a term is at most (k - 1) - l*e for k
    legs, so only l <= (k - 1)/e can contribute.
    """
    e = b - sum(Fraction(w, a) for a, w in legs)
    if e <= 0:
        raise ValueError(f"not a negative-definite star: b={b} legs={legs}")
    last = int((len(legs) - 1) / e)
    return sum(max(0, -l * b + sum(ceil(Fraction(l * w, a)) for a, w in legs) - 1)
               for l in range(last + 1))


def tree_det(weights, edges, off=1):
    """Determinant of the symmetric matrix with ``weights`` on the diagonal
    and ``off`` at each edge, by exact Gaussian elimination."""
    ids = sorted(weights)
    pos = {v: i for i, v in enumerate(ids)}
    n = len(ids)
    m = [[Fraction(0)] * n for _ in range(n)]
    for v, w in weights.items():
        m[pos[v]][pos[v]] = Fraction(w)
    for a, b in edges:
        m[pos[a]][pos[b]] = m[pos[b]][pos[a]] = Fraction(off)
    det = Fraction(1)
    for c in range(n):
        p = next((r for r in range(c, n) if m[r][c] != 0), None)
        if p is None:
            return 0
        if p != c:
            m[c], m[p] = m[p], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            if f:
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return int(det)


def negative_definite(weights, edges):
    """Sylvester's criterion: every leading minor of -I is positive."""
    ids = sorted(weights)
    for k in range(1, len(ids) + 1):
        keep = set(ids[:k])
        minor = tree_det({v: -weights[v] for v in keep},
                         [(a, b) for a, b in edges if a in keep and b in keep],
                         off=-1)
        if minor <= 0:
            return False
    return True
