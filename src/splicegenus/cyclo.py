"""Exact arithmetic in Q(zeta_N) = Q[x] / Phi_N(x).

Phi_N is computed from Phi_N = prod_{d | N} (x^d - 1)^{mu(N/d)} by exact
multiplications and divisions by x^d - 1.  A CycloNumber is rational iff
its non-constant coordinates vanish.

Two users in :mod:`splicegenus.molien`: ``molien_ci`` evaluates Molien's sum
over Q(zeta_N) with length-N integer vectors (the group ring
Z[x]/(x^N - 1), where a root of unity acts by a cyclic shift) and maps them
into Q[x]/Phi_N(x) with ``reduce_group_ring``; ``molien_closed`` cancels
cyclotomic factors of a denominator with ``cyclotomic_quotient``.  The
Hilbert tables themselves never leave the integers.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
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


@lru_cache(maxsize=None)
def euler_phi(N: int) -> int:
    return len(cyclotomic_polynomial(N)) - 1


@lru_cache(maxsize=None)
def _power_table(N: int):
    """x^j mod Phi_N for j = 0 .. 2N, as integer coefficient tuples."""
    phi = cyclotomic_polynomial(N)
    deg = len(phi) - 1
    table = []
    cur = [0] * deg
    if deg > 0:
        cur[0] = 1
    for _ in range(2 * N + 1):
        table.append(tuple(cur))
        nxt = [0] + cur[:-1] if deg > 0 else []
        carry = cur[-1] if deg > 0 else 0
        if carry:
            nxt = [c - carry * p for c, p in zip(nxt + [0], phi)][:deg]
        cur = nxt
    return table


def reduce_group_ring(vec, N):
    """Reduce sum_j vec[j] x^j (j < N) mod Phi_N; returns coefficient list."""
    deg = euler_phi(N)
    table = _power_table(N)
    out = [0] * deg
    for j, c in enumerate(vec):
        if c:
            pw = table[j]
            for k in range(deg):
                if pw[k]:
                    out[k] += c * pw[k]
    return out


class CycloNumber:
    """An element of Q(zeta_N) in the power basis 1, x, ..., x^(phi(N)-1)."""

    __slots__ = ("N", "coords")

    def __init__(self, N, coords):
        self.N = N
        deg = euler_phi(N)
        coords = [Fraction(c) for c in coords]
        assert len(coords) <= deg
        coords += [Fraction(0)] * (deg - len(coords))
        self.coords = tuple(coords)

    @classmethod
    def from_rational(cls, N, value):
        return cls(N, [Fraction(value)])

    @classmethod
    def zeta_pow(cls, N, k):
        """zeta_N^k."""
        pw = _power_table(N)[k % N]
        return cls(N, list(pw))

    def __add__(self, other):
        assert self.N == other.N
        return CycloNumber(self.N, [a + b for a, b in zip(self.coords, other.coords)])

    def __sub__(self, other):
        assert self.N == other.N
        return CycloNumber(self.N, [a - b for a, b in zip(self.coords, other.coords)])

    def __neg__(self):
        return CycloNumber(self.N, [-a for a in self.coords])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return CycloNumber(self.N, [a * other for a in self.coords])
        assert self.N == other.N
        deg = euler_phi(self.N)
        conv = [Fraction(0)] * (2 * deg)
        for i, a in enumerate(self.coords):
            if a:
                for j, b in enumerate(other.coords):
                    if b:
                        conv[i + j] += a * b
        table = _power_table(self.N)
        out = [Fraction(0)] * deg
        for idx, c in enumerate(conv):
            if c:
                pw = table[idx]
                for k in range(deg):
                    if pw[k]:
                        out[k] += c * pw[k]
        return CycloNumber(self.N, out)

    __rmul__ = __mul__

    def mul_zeta_pow(self, k):
        return self * CycloNumber.zeta_pow(self.N, k)

    def is_rational(self):
        return all(c == 0 for c in self.coords[1:])

    def rational_value(self) -> Fraction:
        from .errors import IrrationalCoefficient
        if not self.is_rational():
            raise IrrationalCoefficient(f"not rational: {self.coords}")
        return self.coords[0] if self.coords else Fraction(0)

    def __eq__(self, other):
        return (isinstance(other, CycloNumber) and self.N == other.N
                and self.coords == other.coords)

    def __hash__(self):
        return hash((self.N, self.coords))

    def __repr__(self):
        return f"CycloNumber(N={self.N}, {list(self.coords)})"
