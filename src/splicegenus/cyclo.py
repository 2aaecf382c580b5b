"""Products and exact quotients by the factors 1 - t^e, for the closed forms.

Every closed-form denominator is prod_e (1 - t^e)^{n_e}, held as the map
e -> n_e, and every cyclotomic factor is such a product too:

    P_d = prod_{e | d} (1 - t^e)^{mu(d/e)},

which is Phi_d for d > 1 and 1 - t = -Phi_1 for d = 1 (the product of
P_d over d | k is 1 - t^k).  :func:`reshape` does every multiplication and
exact division by these factors, each one pass over the coefficients, all
in the integers.  One user, :func:`splicegenus.molien.molien_closed`.
"""

from __future__ import annotations

import itertools


def _cyclotomic_exponents(d):
    """{e: mu(d/e)} over the e | d with mu(d/e) != 0, so that
    P_d = prod_e (1 - t^e)^{mu(d/e)}."""
    exps, n, p = {d: 1}, d, 2
    while n > 1:
        if p * p > n:
            p = n  # the last prime factor
        if n % p == 0:
            exps.update({e // p: -m for e, m in exps.items()})
            while n % p == 0:
                n //= p
        p += 1
    return exps


def reshape(q, exponents):
    """q * prod_e (1 - t^e)^{n_e} for exponents {e: n_e}, dividing exactly
    where n_e < 0; None if a division is not exact.

    q is a list of ints, constant term first; the result has no trailing
    zeros.  Multiplications go first, so the result is None exactly when
    the product is not a polynomial.
    """
    q = list(q)
    while q and q[-1] == 0:
        q.pop()
    if not q:
        return q
    for e, n in exponents.items():
        for _ in range(n):
            # times (1 - t^e)
            q += [0] * e
            q[e:] = [a - b for a, b in zip(q[e:], q)]
    for e, n in exponents.items():
        for _ in range(-n):
            # q / (1 - t^e) as a series: prefix sums along each class mod e;
            # exact iff the series stops before degree len(q) - e
            top = len(q) - e
            if top <= 0:
                return None
            for j in range(e):
                q[j::e] = itertools.accumulate(q[j::e])
            if any(q[top:]):
                return None
            del q[top:]
    return q
