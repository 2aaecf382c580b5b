from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from splicegenus.series import (
    RationalFunctionQ,
    divide,
    mul,
    polynomial_part,
    render_poly,
)


def _trim(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


polys = st.lists(st.integers(-20, 20), min_size=0, max_size=6).map(_trim)
# divisors for exact integer division: leading coefficient +-1
divisors = st.tuples(st.lists(st.integers(-20, 20), max_size=5),
                     st.sampled_from([1, -1])).map(lambda t: tuple(t[0] + [t[1]]))


def _times(p, q):
    return _trim(mul(p, q))


def _plus(p, q):
    n = max(len(p), len(q))
    return _trim(a + b for a, b in zip(p + (0,) * n, q + (0,) * n))


def _at(p, x):
    return sum(c * x ** i for i, c in enumerate(p))


def test_constructor_strips_trailing_zeros():
    f = RationalFunctionQ([1, 2, 0, 0], [1, 0])
    assert f.num == (1, 2) and f.den == (1,)
    assert RationalFunctionQ([0, 0], [1]).num == ()
    assert divide([1, 0, 0], [1]) == ((1,), ())


def test_coefficients_are_integers():
    f = RationalFunctionQ([Fraction(4, 2), 3.0, 1], [1])
    assert f.num == (2, 3, 1) and all(type(c) is int for c in f.num)
    with pytest.raises(ValueError):
        RationalFunctionQ([Fraction(1, 2)], [1])
    with pytest.raises(ValueError):
        RationalFunctionQ([1], [1, Fraction(-3, 2)])


@given(polys, polys, polys)
@settings(deadline=None)
def test_ring_axioms(a, b, c):
    assert _times(a, _plus(b, c)) == _plus(_times(a, b), _times(a, c))
    assert _times(a, _times(b, c)) == _times(_times(a, b), c)
    assert _times(a, b) == _times(b, a)
    assert _times(a, (1,)) == a
    assert _at(_times(a, b), 3) == _at(a, 3) * _at(b, 3)


@given(polys, divisors)
@settings(deadline=None)
def test_divmod_identity(a, b):
    q, r = divide(a, b)
    assert a == _plus(_times(q, b), r)
    assert len(r) < len(b)


def test_divmod_needs_unit_leading_coefficient():
    with pytest.raises(ValueError):
        divide([1, 1], [1, 2])
    with pytest.raises(ValueError):
        divide([1, 1], [])


def test_render_poly():
    assert render_poly((1, 0, -1)) == "-t^2 + 1"
    assert render_poly((0, -3)) == "-3*t"
    assert render_poly(()) == "0"


@given(st.lists(st.integers(-10**6, 10**6), max_size=8).map(_trim))
@settings(deadline=None)
def test_render_poly_evaluates_to_p(p):
    # the text, read as Python with t^e as t**e, is p at every t
    text = render_poly(p).replace("^", "**")
    for x in (2, -3):
        assert eval(text, {"t": x}) == _at(p, x)


# -- rational functions ----------------------------------------------------

def test_reduce_false_keeps_factors_but_eq_holds():
    # construction cancels nothing; equality is cross-multiplication
    f = RationalFunctionQ([1, 0, -1], [1, -1])
    assert len(f.den) == 2
    assert f == RationalFunctionQ([1, 1], [1])


def test_eq_with_other_types_is_false():
    f = RationalFunctionQ([1], [1, -1])
    assert f != None and not f == None  # noqa: E711
    assert f != (1,) and f != 1
    assert f in [None, f] and [None, f].index(f) == 1


def test_denominator_normalized_to_constant_term_one():
    f = RationalFunctionQ([0, 2], [1, 0, -1])
    assert f.num == (0, 2) and f.den == (1, 0, -1)
    # den(0) = -1 is not flipped: every closed form is built with den(0) = 1
    for den in ([-1, 0, 1], [2, 1], [0, 1], []):
        with pytest.raises(ValueError):
            RationalFunctionQ([1], den)


def test_geometric_series():
    # 1/(1 - t) = 1 + t + t^2 + ...: den * series = num up to t^5
    assert mul((1, -1), [1] * 6, 5) == [1, 0, 0, 0, 0, 0]


def test_series_of_known_quotient():
    # 1/((1-t)(1-t^2)): partitions into parts 1 and 2
    den = mul((1, -1), (1, 0, -1))
    assert mul(den, [1, 1, 2, 2, 3, 3, 4], 6) == [1, 0, 0, 0, 0, 0, 0]


@given(polys, divisors)
@settings(deadline=None)
def test_series_reproduces_polynomial(p, b):
    # (p q)/q is the polynomial p: its polynomial part is p, remainder 0
    q = (1,) + b  # q(0) = 1, leading coefficient +-1
    f = RationalFunctionQ(mul(p, q), q)
    assert f == RationalFunctionQ(p, (1,))
    poly, rem = polynomial_part(f)
    assert poly == p and rem.num == ()


def test_polynomial_part_split():
    # t^3/(1-t) = -(t^2 + t + 1) + 1/(1-t)
    f = RationalFunctionQ([0, 0, 0, 1], [1, -1])
    p, rem = polynomial_part(f)
    assert p == (-1, -1, -1)
    assert rem == RationalFunctionQ([1], [1, -1])
    assert sum(p) == -3  # Route B's p(1)


def test_polynomial_part_of_proper_fraction_is_zero():
    f = RationalFunctionQ([1, 1], [1, 0, 0, -1])
    p, _ = polynomial_part(f)
    assert p == ()


# -- the truncated product -------------------------------------------------

def test_truncated_product_respects_bound():
    assert mul([1] * 4, [1] * 6, 3) == [1, 2, 3, 4]
    assert mul([1] * 4, [1] * 6) == [1, 2, 3, 4, 4, 4, 3, 2, 1]
    assert mul([0, 1], [1, 1], 5) == [0, 1, 1, 0, 0, 0]
    assert not any(mul([], [1, 2]))
