"""Exact linear algebra over the rationals and the integers.

One Gauss-Jordan elimination over ``Fraction`` (``rref``) serves every
rational solve, inverse and rank in the package; determinants, definiteness
and the Smith normal form stay in the integers.  Matrices are lists of rows.
Sizes are tiny (resolution graphs have at most a few dozen vertices) so
clarity wins over asymptotics.
"""

from fractions import Fraction


def rref(rows):
    """Reduced row echelon form of a rational matrix, by Gauss-Jordan.

    Returns (pivots, R): R holds the nonzero rows of the reduced form, row k
    with a 1 in column pivots[k] and zeros elsewhere in that column.  The
    pivot of each column is the candidate entry of smallest numerator plus
    denominator bit size, which keeps the entries small; the reduced form
    does not depend on that choice.  Augmented blocks ride along: [A | Id]
    with A invertible reduces to [Id | A^-1], and a pivot in the last column
    of [A | b] means that A x = b has no solution.
    """
    R = [[Fraction(x) for x in row] for row in rows if any(row)]
    ncols = len(R[0]) if R else 0
    pivots = []
    for col in range(ncols):
        k = len(pivots)
        if k == len(R):
            break
        cands = [i for i in range(k, len(R)) if R[i][col]]
        if not cands:
            continue
        piv = min(cands, key=lambda i: R[i][col].numerator.bit_length()
                  + R[i][col].denominator.bit_length())
        R[k], R[piv] = R[piv], R[k]
        inv = 1 / R[k][col]
        R[k] = [x * inv if x else x for x in R[k]]
        for i in range(len(R)):
            if i != k and R[i][col]:
                f = R[i][col]
                R[i] = [x - f * y if y else x for x, y in zip(R[i], R[k])]
        pivots.append(col)
    return pivots, R[:len(pivots)]


def det_bareiss(A):
    """Exact determinant of an integer matrix (fraction-free Bareiss)."""
    n = len(A)
    if n == 0:
        return 1
    M = [list(map(int, row)) for row in A]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if M[k][k] == 0:
            piv = next((r for r in range(k + 1, n) if M[r][k] != 0), None)
            if piv is None:
                return 0
            M[k], M[piv] = M[piv], M[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
            M[i][k] = 0
        prev = M[k][k]
    return sign * M[n - 1][n - 1]


def negative_definite_violation(A):
    """Index of the first leading principal minor with the wrong sign.

    A symmetric integer matrix is negative definite iff the k-th leading
    principal minor has sign (-1)^k.  Returns the 1-based offending index,
    or None if the matrix is negative definite.
    """
    n = len(A)
    for k in range(1, n + 1):
        d = det_bareiss([row[:k] for row in A[:k]])
        if d == 0 or (d > 0) != (k % 2 == 0):
            return k
    return None


def smith_normal_form(A):
    """Smith normal form with transforms: returns (U, S, V) with U A V = S.

    U and V are unimodular integer matrices; S is diagonal with
    S[i][i] dividing S[i+1][i+1] (entries nonnegative).
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
        for row in S:
            row[i] -= q * row[j]
        for row in V:
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
        # find a nonzero pivot of minimal absolute value
        best = None
        for i in range(t, n):
            for j in range(t, m):
                if S[i][j] != 0 and (best is None or abs(S[i][j]) < abs(S[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        swap_rows(t, best[0])
        swap_cols(t, best[1])
        dirty = False
        for i in range(t + 1, n):
            if S[i][t] != 0:
                q = S[i][t] // S[t][t]
                row_op(i, t, q)
                if S[i][t] != 0:
                    dirty = True
        for j in range(t + 1, m):
            if S[t][j] != 0:
                q = S[t][j] // S[t][t]
                col_op(j, t, q)
                if S[t][j] != 0:
                    dirty = True
        if dirty:
            continue
        # ensure divisibility of the remaining block by the pivot
        bad = None
        for i in range(t + 1, n):
            for j in range(t + 1, m):
                if S[i][j] % S[t][t] != 0:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            row_op(t, bad, -1)  # fold the offending row into the pivot row
            continue
        if S[t][t] < 0:
            S[t] = [-a for a in S[t]]
            U[t] = [-a for a in U[t]]
        t += 1
    return U, S, V
