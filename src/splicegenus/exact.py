"""Exact linear algebra over the integers.

``smith_normal_form`` is the one decomposition of a graph's intersection
matrix I: ``ResolutionGraph.dual_data`` calls it once per graph and reads
|det I|, the adjugate and the discriminant group H = L*/L off U I V = S.
Callers that need only a rank use ``rank``, a forward pass over sparse
rows that keeps no reduced form; its rows are kept primitive (divided by
the gcd of their entries), so entries stay near the size of the input
instead of growing into the minors a fraction-free elimination carries.
Definiteness runs the Bareiss step forward only, without row exchanges,
so that its pivots are the leading principal minors.  Matrices are lists
of rows of ints, except for ``rank``, which takes sparse rows
{column: int}, the form it eliminates in.
"""

from math import gcd


def rank(rows):
    """Rank over Q of an integer matrix given as sparse rows.

    Each row is a dict {column: int}; absent columns and zero entries are
    0, and the caller's rows are copied, never changed.  The basis holds
    one primitive row per leading column; an incoming row whose leading
    entry f meets a basis row with leading entry p is replaced by
    (p/g) row - (f/g) basis_row, g = gcd(p, f), until its leading column
    is free or it vanishes.  A row joins the basis divided by the gcd of
    its entries.  Every step scales by a nonzero integer and subtracts a
    basis row, so the row space over Q is kept, and basis rows with
    distinct leading columns are independent: the rank is the basis size.
    A nonzero entry that is not an int raises TypeError.
    """
    basis = {}
    for row in rows:
        r = {c: x for c, x in row.items() if x}
        for x in r.values():
            if not isinstance(x, int):
                raise TypeError("rank takes a matrix of ints")
        # r is rank's own from here on, so it is changed in place
        while r:
            lead = min(r)
            b = basis.get(lead)
            if b is None:
                g = gcd(*r.values())
                basis[lead] = r if g == 1 else {c: x // g for c, x in r.items()}
                break
            f, p = r[lead], b[lead]
            g = gcd(p, f)
            p, f = p // g, f // g
            if p != 1:
                r = {c: p * x for c, x in r.items()}
            for c, y in b.items():
                x = r.get(c, 0) - f * y
                if x:
                    r[c] = x
                else:
                    del r[c]
    return len(basis)


def negative_definite_violation(A):
    """Index of the first leading principal minor with the wrong sign.

    A symmetric integer matrix is negative definite iff the k-th leading
    principal minor has sign (-1)^k.  Returns the 1-based offending index,
    or None if the matrix is negative definite.

    The k-th pivot of a forward Bareiss pass without row exchanges is the
    k-th leading minor, so one pass stops at the first bad pivot.
    """
    R = [list(row) for row in A]
    prev = 1
    for k, prow in enumerate(R):
        p = prow[k]
        if p == 0 or (p > 0) != (k % 2 == 1):
            return k + 1
        for i in range(k + 1, len(R)):
            f = R[i][k]
            R[i] = [(p * x - f * y) // prev for x, y in zip(R[i], prow)]
        prev = p
    return None


def smith_normal_form(A):
    """Smith normal form with transforms: returns (U, S, V) with U A V = S.

    U and V are unimodular integer matrices; S is diagonal with
    S[i][i] dividing S[i+1][i+1] (entries nonnegative).

    Each step moves a nonzero entry of least absolute value, the first in
    row-major order, to the pivot, clears its row and column by division
    with remainder, and folds a row whose entries the pivot does not divide
    into the pivot row.  The pivot scan stops at the first entry of
    absolute value 1, which no later entry can undercut; a pivot of ±1
    divides everything, so it skips the divisibility scan; column
    operations skip the rows whose entry in the source column is 0.  None
    of these shortcuts changes U, S or V.
    """
    n = len(A)
    m = len(A[0]) if n else 0
    S = [list(map(int, row)) for row in A]
    U = [[int(i == j) for j in range(n)] for i in range(n)]
    V = [[int(i == j) for j in range(m)] for i in range(m)]

    def row_op(i, j, q):  # row_i -= q * row_j
        S[i] = [a - q * b for a, b in zip(S[i], S[j])]
        U[i] = [a - q * b for a, b in zip(U[i], U[j])]

    def col_op(i, j, q):  # col_i -= q * col_j
        for M in (S, V):
            for row in M:
                if row[j]:
                    row[i] -= q * row[j]

    def swap_rows(i, j):
        S[i], S[j] = S[j], S[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for row in S:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    t = 0
    while t < min(n, m):
        # the first nonzero entry of minimal absolute value
        best, least = None, 0
        for i in range(t, n):
            row = S[i]
            for j in range(t, m):
                x = abs(row[j])
                if x and (best is None or x < least):
                    best, least = (i, j), x
                    if x == 1:
                        break
            if least == 1:
                break
        if best is None:
            break
        swap_rows(t, best[0])
        swap_cols(t, best[1])
        p = S[t][t]
        dirty = False
        for i in range(t + 1, n):
            if S[i][t] != 0:
                row_op(i, t, S[i][t] // p)
                if S[i][t] != 0:
                    dirty = True
        for j in range(t + 1, m):
            if S[t][j] != 0:
                col_op(j, t, S[t][j] // p)
                if S[t][j] != 0:
                    dirty = True
        if dirty:
            continue
        if least != 1:
            # ensure divisibility of the remaining block by the pivot
            bad = next((i for i in range(t + 1, n)
                        if any(S[i][j] % p for j in range(t + 1, m))), None)
            if bad is not None:
                row_op(t, bad, -1)  # fold the offending row into the pivot row
                continue
        if p < 0:
            S[t] = [-a for a in S[t]]
            U[t] = [-a for a in U[t]]
        t += 1
    return U, S, V
