"""Integer polynomials in t and the closed forms built from them.

Every closed form the package builds is an eigenspace Hilbert series
num/den whose denominator is a product of factors (1 - t^k) with some
cyclotomic factors cancelled, so numerator, denominator and polynomial part
all lie in Z[t].  Coefficient lists are dense, constant term first, and hold
ints; a non-integral coefficient is a ValueError.  ``mul`` is the one
truncated polynomial product, and division is exact long division by
polynomials with leading coefficient +-1 (products of cyclotomic
polynomials).
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


def _integer(c):
    n = int(c)
    if n != c:
        raise ValueError(f"non-integral coefficient {c!r}")
    return n


class PolyQ:
    """A polynomial in Z[t]."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [_integer(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def from_terms(cls, terms):
        """terms: iterable of (exponent, coefficient)."""
        terms = list(terms)
        if not terms:
            return cls()
        cs = [0] * (max(e for e, _ in terms) + 1)
        for e, c in terms:
            cs[e] += _integer(c)
        return cls(cs)

    @classmethod
    def one_minus_tk(cls, k):
        return cls.from_terms([(0, 1), (k, -1)])

    def degree(self):
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def is_zero(self):
        return not self.coeffs

    def __getitem__(self, i):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __mul__(self, other):
        return PolyQ(mul(self.coeffs, other.coeffs))

    def __divmod__(self, other):
        """Exact long division; the divisor's leading coefficient is +-1."""
        lead = other[other.degree()]
        if lead not in (1, -1):
            raise ValueError(f"divisor {other!r} does not have leading "
                             f"coefficient +-1")
        rem = list(self.coeffs)
        dd = other.degree()
        quot = [0] * max(0, len(rem) - dd)
        for i in range(len(rem) - 1, dd - 1, -1):
            q = rem[i] * lead
            if q:
                quot[i - dd] = q
                for j, d in enumerate(other.coeffs):
                    rem[i - dd + j] -= q * d
        return PolyQ(quot), PolyQ(rem)

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __eq__(self, other):
        return isinstance(other, PolyQ) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"PolyQ({render_poly(self)})"

    def to_json(self):
        return [str(c) for c in self.coeffs]


def render_poly(p: PolyQ, var="t"):
    if p.is_zero():
        return "0"
    parts = []
    for e in range(p.degree(), -1, -1):
        c = p[e]
        if c == 0:
            continue
        if e == 0:
            term = str(c)
        else:
            mono = var if e == 1 else f"{var}^{e}"
            if c == 1:
                term = mono
            elif c == -1:
                term = f"-{mono}"
            else:
                term = f"{c}*{mono}"
        parts.append(term)
    out = parts[0]
    for term in parts[1:]:
        out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
    return out


class RationalFunctionQ:
    """num/den in Z[t], stored with den(0) = 1 (signs are flipped to get
    there); any other constant term of den is a ValueError."""

    __slots__ = ("num", "den")

    def __init__(self, num: PolyQ, den: PolyQ):
        if den[0] == -1:
            num = PolyQ([-c for c in num.coeffs])
            den = PolyQ([-c for c in den.coeffs])
        elif den[0] != 1:
            raise ValueError(f"denominator {den!r} has constant term "
                             f"{den[0]}, not +-1")
        self.num = num
        self.den = den

    def __eq__(self, other):
        """Exact equality as rational functions (cross-multiplication)."""
        if not isinstance(other, RationalFunctionQ):
            return NotImplemented
        return (self.num * other.den) == (self.den * other.num)

    def __repr__(self):
        return f"({render_poly(self.num)}) / ({render_poly(self.den)})"

    def series_coefficients(self, up_to):
        """First up_to+1 Taylor coefficients."""
        den = self.den
        out = []
        for i in range(up_to + 1):
            out.append(self.num[i] - sum(den[j] * out[i - j] for j in
                                         range(1, min(i, den.degree()) + 1)))
        return out

    def to_json(self):
        return {"num": self.num.to_json(), "den": self.den.to_json()}


def polynomial_part(f: RationalFunctionQ):
    """Write f = p + r/q with deg r < deg q; returns (p, r/q).

    p(1) is the invariant used for the constants c_v.
    """
    p, r = divmod(f.num, f.den)
    return p, RationalFunctionQ(r, f.den)
