from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splicegenus.cyclo import (
    CycloNumber,
    cyclotomic_polynomial,
    cyclotomic_quotient,
    euler_phi,
    reduce_group_ring,
)
from splicegenus.errors import IrrationalCoefficient


def test_known_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    # first index with a coefficient outside {-1, 0, 1}
    assert -2 in cyclotomic_polynomial(105)


def test_euler_phi_values():
    assert [euler_phi(n) for n in range(1, 13)] == \
        [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]


@given(st.integers(min_value=1, max_value=60))
@settings(deadline=None)
def test_product_over_divisors_is_xn_minus_1(n):
    # multiply Phi_d over d | n and compare with x^n - 1
    prod = [1]
    for d in range(1, n + 1):
        if n % d == 0:
            phi = cyclotomic_polynomial(d)
            out = [0] * (len(prod) + len(phi) - 1)
            for i, a in enumerate(prod):
                for j, b in enumerate(phi):
                    out[i + j] += a * b
            prod = out
    assert prod == [-1] + [0] * (n - 1) + [1]


def _mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


@given(st.integers(min_value=1, max_value=40),
       st.lists(st.integers(-3, 3), min_size=1, max_size=12))
@settings(deadline=None)
def test_cyclotomic_quotient_exact_division(d, q):
    if not any(q):
        return
    while q[-1] == 0:
        q.pop()
    phi = list(cyclotomic_polynomial(d))
    assert cyclotomic_quotient(_mul(q, phi), d) == q
    assert cyclotomic_quotient(_mul(q, phi) + [0, 0], d) == q
    # adding 1 breaks divisibility unless Phi_d divides 1, which it never does
    p = _mul(q, phi)
    p[0] += 1
    assert cyclotomic_quotient(p, d) is None


def test_cyclotomic_quotient_of_zero_is_zero():
    assert cyclotomic_quotient([0, 0], 6) == []


def test_zeta_pow_order():
    z = CycloNumber.zeta_pow(5, 1)
    acc = CycloNumber.from_rational(5, 1)
    for _ in range(5):
        acc = acc * z
    assert acc == CycloNumber.from_rational(5, 1)


def test_zeta_sum_over_full_orbit_vanishes():
    for N in (2, 3, 4, 6, 12):
        total = CycloNumber.from_rational(N, 0)
        for k in range(N):
            total = total + CycloNumber.zeta_pow(N, k)
        assert total == CycloNumber.from_rational(N, 0)


def test_rational_value_and_rejection():
    x = CycloNumber.from_rational(7, Fraction(3, 4))
    assert x.is_rational() and x.rational_value() == Fraction(3, 4)
    z = CycloNumber.zeta_pow(7, 1)
    assert not z.is_rational()
    with pytest.raises(IrrationalCoefficient):
        z.rational_value()


def test_mul_zeta_pow_matches_explicit_product():
    x = CycloNumber(9, [1, 2, 0, 3])
    for k in range(9):
        assert x.mul_zeta_pow(k) == x * CycloNumber.zeta_pow(9, k)


@given(st.integers(2, 12), st.lists(st.integers(-9, 9), min_size=1, max_size=12))
@settings(deadline=None)
def test_reduce_group_ring_matches_zeta_sum(N, vec):
    vec = vec[:N]
    out = reduce_group_ring(vec, N)
    direct = CycloNumber.from_rational(N, 0)
    for j, c in enumerate(vec):
        direct = direct + c * CycloNumber.zeta_pow(N, j)
    assert CycloNumber(N, out) == direct


def test_reduce_group_ring_constant_vector_is_zero():
    # 1 + zeta + ... + zeta^(N-1) = 0 for N > 1
    for N in (2, 3, 6, 10):
        out = reduce_group_ring([1] * N, N)
        assert all(c == 0 for c in out)


def test_arithmetic_ring_axioms_spot():
    a = CycloNumber(8, [1, 1])
    b = CycloNumber(8, [0, 2, 1])
    c = CycloNumber(8, [3, 0, 0, 1])
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a
    assert a - a == CycloNumber.from_rational(8, 0)
    assert -a == CycloNumber.from_rational(8, 0) - a
