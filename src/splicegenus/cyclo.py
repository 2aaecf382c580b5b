"""Cyclotomic polynomials, for the closed forms of the Hilbert series.

Phi_N is computed from Phi_N = prod_{d | N} (x^d - 1)^{mu(N/d)} by exact
multiplications and divisions by x^d - 1, all in the integers.

One user, :func:`splicegenus.molien.molien_closed`: it cancels cyclotomic
factors of a denominator with ``cyclotomic_quotient`` and rebuilds the
reduced denominator from ``cyclotomic_polynomial``.  The reduction
Z[x]/(x^N - 1) -> Z[zeta_N] of the reference Molien sum lives in
tests/reference.py.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache


def _prime_factors(n):
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    return out + [n] if n > 1 else out


def _mobius_divisors(d):
    """The e | d with mu(d/e) = +1, and those with mu(d/e) = -1."""
    primes = _prime_factors(d)
    plus, minus = [], []
    for r in range(len(primes) + 1):
        for combo in itertools.combinations(primes, r):
            (minus if r % 2 else plus).append(d // math.prod(combo))
    return plus, minus


def _reshape(q, times, divide):
    """q * prod_times (x^e - 1) / prod_divide (x^e - 1), or None if a
    division is not exact.  q has no trailing zeros and stays so."""
    for e in times:
        q = [a - b for a, b in zip([0] * e + q, q + [0] * e)]
    for e in divide:
        # q = (x^e - 1) r  <=>  r_i = r_{i-e} - q_i, with r_i = 0 for i >= n
        n = len(q) - e
        if n < 0:
            return None
        r = [-c for c in q[:e]] + [0] * max(0, n - e)
        for i in range(e, n):
            r[i] = r[i - e] - q[i]
        if q[n:] != ([0] * e + r)[n:n + e]:
            return None
        q = r[:n]
    return q


def cyclotomic_quotient(poly, d):
    """poly / Phi_d as an integer coefficient list, or None if Phi_d does
    not divide poly.

    Phi_d = prod_{e | d} (x^e - 1)^{mu(d/e)}, so the quotient is a few
    multiplications and exact divisions by x^e - 1, each one pass over the
    coefficients; every division is exact iff Phi_d divides poly.
    """
    q = list(poly)
    while q and q[-1] == 0:
        q.pop()
    if not q:
        return q
    plus, minus = _mobius_divisors(d)
    return _reshape(q, minus, plus)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(N: int):
    """Coefficients of Phi_N, constant term first."""
    assert N >= 1
    plus, minus = _mobius_divisors(N)
    return tuple(_reshape([1], plus, minus))
