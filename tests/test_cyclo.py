from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import (
    IrrationalCoefficient,
    _rot,
    cyclotomic_polynomial,
    molien_ci,
    reduce_group_ring,
)
from splicegenus.cyclo import _cyclotomic_exponents, reshape
from splicegenus.series import mul


def _p(d):
    """P_d as a coefficient list, through reshape."""
    return reshape([1], _cyclotomic_exponents(d))


def _inverse(d):
    return {e: -n for e, n in _cyclotomic_exponents(d).items()}


def test_known_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    # first index with a coefficient outside {-1, 0, 1}
    assert -2 in cyclotomic_polynomial(105)


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


def test_p_d_is_the_reference_phi_d():
    # P_d = Phi_d for d > 1 and 1 - t = -Phi_1 for d = 1
    assert _p(1) == [1, -1]
    for d in range(2, 121):
        assert _p(d) == list(cyclotomic_polynomial(d)), d


def test_p_d_over_the_divisors_of_k_is_one_minus_t_k():
    # Moebius inversion: the exponents of prod_{d | k} P_d are {k: 1}
    for k in range(1, 121):
        total = {}
        for d in range(1, k + 1):
            if k % d == 0:
                for e, n in _cyclotomic_exponents(d).items():
                    total[e] = total.get(e, 0) + n
        assert {e: n for e, n in total.items() if n} == {k: 1}, k


def test_reshape_multiplies_before_dividing():
    # (1 - t^2) / (1 - t) = 1 + t, although 1 / (1 - t) is not a polynomial
    assert reshape([1], {1: -1, 2: 1}) == [1, 1]
    assert reshape([1], {1: -1}) is None
    assert reshape([1, 0, -1], {1: -2}) is None
    assert reshape([1, 2, 3], {}) == [1, 2, 3]


@given(st.integers(min_value=1, max_value=40),
       st.lists(st.integers(-3, 3), min_size=1, max_size=12))
@settings(deadline=None)
def test_reshape_exact_division_round_trip(d, q):
    if not any(q):
        return
    while q[-1] == 0:
        q.pop()
    p = mul(q, _p(d))
    assert reshape(p, _inverse(d)) == q
    assert reshape(p + [0, 0], _inverse(d)) == q
    assert reshape(q, _cyclotomic_exponents(d)) == p
    # adding 1 breaks divisibility unless P_d divides 1, which it never does
    p[0] += 1
    assert reshape(p, _inverse(d)) is None


def test_reshape_of_zero_is_zero():
    assert reshape([0, 0], _inverse(6)) == []
    assert reshape([], {3: 2, 1: -1}) == []


def _sub(p, q):
    n = max(len(p), len(q))
    return [a - b for a, b in zip(p + [0] * (n - len(p)), q + [0] * (n - len(q)))]


def test_zeta_pow_order():
    # x^N = 1 mod Phi_N, and no smaller positive power is
    for N in range(1, 13):
        assert reduce_group_ring([0] * N + [1], N) == [1]
        for k in range(1, N):
            assert reduce_group_ring([0] * k + [1], N) != [1]


def test_zeta_sum_over_full_orbit_vanishes():
    # sum_k zeta^(jk) over k < N is N if N | j and 0 otherwise
    for N in (2, 3, 4, 6, 12):
        for j in range(2 * N):
            vec = [0] * (j * (N - 1) + 1)
            for k in range(N):
                vec[j * k] += 1
            assert reduce_group_ring(vec, N) == ([N] if j % N == 0 else [])


def test_rational_value_and_rejection():
    assert reduce_group_ring([3], 7) == [3]
    assert reduce_group_ring([0, 1], 7) == [0, 1]
    # exponent 1/3 is not an action of Z/2: the Molien sum 1/(1 - t) +
    # 1/(1 - zeta_3 t) has the irrational coefficient 1 + zeta_3 at t^1
    with pytest.raises(IrrationalCoefficient):
        molien_ci([1], [2], [[Fraction(1, 3)]], [], (0,), 2)


def test_mul_zeta_pow_matches_explicit_product():
    # multiplying by zeta^k is a cyclic shift of the group-ring vector
    vec = [1, 2, 0, 3, 0, 0, -1, 0, 5]
    for k in range(9):
        shifted = _rot(vec, k, 9)
        assert reduce_group_ring(shifted, 9) == \
            reduce_group_ring(mul(vec, [0] * k + [1]), 9)


@given(st.integers(1, 12), st.lists(st.integers(-9, 9), max_size=30))
@settings(deadline=None)
def test_reduce_group_ring_is_remainder_mod_phi(N, vec):
    r = reduce_group_ring(vec, N)
    assert len(r) <= len(cyclotomic_polynomial(N)) - 1  # phi(N)
    assert reshape(_sub(vec, r), _inverse(N)) is not None


def test_reduce_group_ring_constant_vector_is_zero():
    # 1 + zeta + ... + zeta^(N-1) = 0 for N > 1
    for N in (2, 3, 6, 10):
        out = reduce_group_ring([1] * N, N)
        assert all(c == 0 for c in out)


def test_arithmetic_ring_axioms_spot():
    # reduction mod Phi_8 is a ring map
    a, b, c = [1, 1], [0, 2, 1], [3, 0, 0, 1, 0, 0, 0, 0, 0, 2]
    red = lambda p: reduce_group_ring(p, 8)  # noqa: E731
    assert red(mul(a, b)) == red(mul(red(a), red(b)))
    assert red(mul(a, _sub(b, c))) == red(_sub(mul(a, b), mul(a, c)))
    assert red(_sub(b, c)) == red(_sub(red(b), red(c)))
    assert red(_sub(a, a)) == []
