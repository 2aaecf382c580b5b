from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from splicegenus.series import (
    PolyQ,
    RationalFunctionQ,
    mul,
    polynomial_part,
    render_poly,
)

polys = st.lists(st.integers(-20, 20), min_size=0, max_size=6).map(PolyQ)
# divisors for exact integer division: leading coefficient +-1
divisors = st.tuples(st.lists(st.integers(-20, 20), max_size=5),
                     st.sampled_from([1, -1])).map(lambda t: PolyQ(t[0] + [t[1]]))


def test_constructor_strips_trailing_zeros():
    assert PolyQ([1, 2, 0, 0]).coeffs == (1, 2)
    assert PolyQ([0, 0]).is_zero() and PolyQ().degree() == -1


def test_coefficients_are_integers():
    p = PolyQ([Fraction(4, 2), 3.0, 1])
    assert p.coeffs == (2, 3, 1) and all(type(c) is int for c in p.coeffs)
    with pytest.raises(ValueError):
        PolyQ([Fraction(1, 2)])
    with pytest.raises(ValueError):
        PolyQ.from_terms([(2, Fraction(-3, 2))])


def test_from_terms_accumulates():
    p = PolyQ.from_terms([(0, 1), (3, 2), (3, -2), (1, 5)])
    assert p == PolyQ([1, 5])


def test_one_minus_tk():
    assert PolyQ.one_minus_tk(3) == PolyQ([1, 0, 0, -1])


def test_evaluate():
    p = PolyQ([1, -2, 1])  # (1 - t)^2
    assert p(Fraction(1, 2)) == Fraction(1, 4)
    assert p(1) == 0


def _plus(p, q):
    return PolyQ([p[i] + q[i] for i in range(max(len(p.coeffs), len(q.coeffs)))])


@given(polys, polys, polys)
@settings(deadline=None)
def test_ring_axioms(a, b, c):
    assert a * _plus(b, c) == _plus(a * b, a * c)
    assert a * (b * c) == (a * b) * c
    assert a * b == b * a
    assert a * PolyQ([1]) == a
    assert (a * b)(3) == a(3) * b(3)


@given(polys, divisors)
@settings(deadline=None)
def test_divmod_identity(a, b):
    q, r = divmod(a, b)
    assert a == _plus(q * b, r)
    assert r.degree() < b.degree()


def test_divmod_needs_unit_leading_coefficient():
    with pytest.raises(ValueError):
        divmod(PolyQ([1, 1]), PolyQ([1, 2]))
    with pytest.raises(ValueError):
        divmod(PolyQ([1, 1]), PolyQ())


def test_render_poly():
    assert render_poly(PolyQ([1, 0, -1])) == "-t^2 + 1"
    assert render_poly(PolyQ([0, -3])) == "-3*t"
    assert render_poly(PolyQ()) == "0"


# -- rational functions ----------------------------------------------------

def test_reduce_false_keeps_factors_but_eq_holds():
    # construction cancels nothing; equality is cross-multiplication
    f = RationalFunctionQ(PolyQ.one_minus_tk(2), PolyQ.one_minus_tk(1))
    assert f.den.degree() == 1
    assert f == RationalFunctionQ(PolyQ([1, 1]), PolyQ([1]))


def test_eq_with_other_types_is_false():
    f = RationalFunctionQ(PolyQ([1]), PolyQ.one_minus_tk(1))
    assert f != None and not f == None  # noqa: E711
    assert f != PolyQ([1]) and f != 1
    assert f in [None, f] and [None, f].index(f) == 1


def test_denominator_normalized_to_constant_term_one():
    f = RationalFunctionQ(PolyQ([0, 2]), PolyQ([-1, 0, 1]))
    assert f.num == PolyQ([0, -2]) and f.den == PolyQ([1, 0, -1])
    for den in ([2, 1], [0, 1], []):
        with pytest.raises(ValueError):
            RationalFunctionQ(PolyQ([1]), PolyQ(den))


def test_geometric_series():
    f = RationalFunctionQ(PolyQ([1]), PolyQ.one_minus_tk(1))
    assert f.series_coefficients(5) == [1] * 6


def test_series_of_known_quotient():
    # 1/((1-t)(1-t^2)): partitions into parts 1 and 2
    den = PolyQ.one_minus_tk(1) * PolyQ.one_minus_tk(2)
    f = RationalFunctionQ(PolyQ([1]), den)
    assert f.series_coefficients(6) == [1, 1, 2, 2, 3, 3, 4]


@given(polys, polys)
@settings(deadline=None)
def test_series_reproduces_polynomial(p, q):
    if q[0] not in (1, -1):
        return
    f = RationalFunctionQ(p * q, q)
    n = max(p.degree(), 0) + 2
    got = f.series_coefficients(n)
    assert got == [p[i] for i in range(n + 1)]


def test_polynomial_part_split():
    # t^3/(1-t) = -(t^2 + t + 1) + 1/(1-t)
    f = RationalFunctionQ(PolyQ([0, 0, 0, 1]), PolyQ.one_minus_tk(1))
    p, rem = polynomial_part(f)
    assert p == PolyQ([-1, -1, -1])
    assert rem == RationalFunctionQ(PolyQ([1]), PolyQ.one_minus_tk(1))
    assert p(1) == -3


def test_polynomial_part_of_proper_fraction_is_zero():
    f = RationalFunctionQ(PolyQ([1, 1]), PolyQ([1, 0, 0, -1]))
    p, _ = polynomial_part(f)
    assert p.is_zero()


# -- the truncated product -------------------------------------------------

def test_truncated_product_respects_bound():
    assert mul([1] * 4, [1] * 6, 3) == [1, 2, 3, 4]
    assert mul([1] * 4, [1] * 6) == [1, 2, 3, 4, 4, 4, 3, 2, 1]
    assert mul([0, 1], [1, 1], 5) == [0, 1, 1, 0, 0, 0]
    assert not any(mul([], [1, 2]))
