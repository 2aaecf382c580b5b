"""Integer polynomials in t and the closed forms built from them.

Every closed form the package builds is an eigenspace Hilbert series
num/den whose denominator is a product of factors (1 - t^k) with some
cyclotomic factors cancelled, so numerator, denominator and polynomial part
all lie in Z[t].  A polynomial is a tuple of ints, constant term first,
with no trailing zeros (the zero polynomial is ()); a non-integral
coefficient is a ValueError.  ``mul`` is the one truncated polynomial
product, and ``divide`` is exact long division by polynomials with leading
coefficient +-1 (products of cyclotomic polynomials).
"""

from __future__ import annotations


def mul(p, q, up_to=None):
    """Product of coefficient lists, truncated after t^up_to (default: the
    whole product).  The result has length up_to + 1."""
    if up_to is None:
        up_to = len(p) + len(q) - 2
    out = [0] * (up_to + 1)
    for i, a in enumerate(p[: up_to + 1]):
        if a:
            n = min(len(q), up_to + 1 - i)
            out[i:i + n] = [x + a * b for x, b in zip(out[i:i + n], q)]
    return out


def _poly(coeffs):
    """coeffs as a polynomial: ints, no trailing zeros."""
    coeffs = list(coeffs)
    cs = [int(c) for c in coeffs]
    if cs != coeffs:
        raise ValueError(f"non-integral coefficient in {coeffs!r}")
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def divide(a, b):
    """(quotient, remainder) of a by b, exact long division; b's leading
    coefficient is +-1."""
    b = _poly(b)
    if not b or b[-1] not in (1, -1):
        raise ValueError(f"divisor {b!r} does not have leading "
                         f"coefficient +-1")
    lead, db = b[-1], len(b) - 1
    rem = list(a)
    quot = [0] * max(0, len(rem) - db)
    for i in range(len(rem) - 1, db - 1, -1):
        q = rem[i] * lead
        if q:
            quot[i - db] = q
            for j, d in enumerate(b):
                rem[i - db + j] -= q * d
    return _poly(quot), _poly(rem)


def render_poly(p):
    """p as text, highest degree first, each sign written once:
    "-t^3 + 2*t - 1"; the zero polynomial is "0"."""
    out = ""
    for e in range(len(p) - 1, -1, -1):
        c = p[e]
        if c:
            sign = (" - " if c < 0 else " + ") if out else "-" * (c < 0)
            mono = "t" if e == 1 else f"t^{e}"
            a = abs(c)
            out += sign + (str(a) if e == 0 else mono if a == 1 else f"{a}*{mono}")
    return out or "0"


class RationalFunctionQ:
    """num/den in Z[t], both polynomials (int tuples), with den(0) = 1; any
    other constant term of den is a ValueError."""

    __slots__ = ("num", "den")

    def __init__(self, num, den):
        self.num = _poly(num)
        self.den = _poly(den)
        if self.den[:1] != (1,):
            raise ValueError(f"denominator {render_poly(self.den)} does "
                             f"not have constant term 1")

    def __eq__(self, other):
        """Exact equality as rational functions (cross-multiplication)."""
        if not isinstance(other, RationalFunctionQ):
            return NotImplemented
        return _poly(mul(self.num, other.den)) == _poly(mul(self.den, other.num))

    def __repr__(self):
        return f"({render_poly(self.num)}) / ({render_poly(self.den)})"

    def to_json(self):
        return {"num": [str(c) for c in self.num],
                "den": [str(c) for c in self.den]}


def polynomial_part(f: RationalFunctionQ):
    """Write f = p + r/q with deg r < deg q; returns (p, r/q).

    p(1) = sum(p) is the invariant used for the constants c_v.
    """
    p, r = divide(f.num, f.den)
    return p, RationalFunctionQ(r, f.den)
