import itertools
import os
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fixtures import (
    GRAPHS_DIR,
    HUGE_H_TREES,
    caterpillar,
    d4,
    e8,
    exmc,
    fig1,
    small_stars,
    splice_quotient_trees,
    star,
)
from reference import det_bareiss, eliminate
from reference import smith_normal_form as ref_smith_normal_form
from test_graph import _recursion_subgraphs, random_trees
from splicegenus import exact
from splicegenus.exact import negative_definite_violation, rank
from splicegenus.graph import parse_graph
from splicegenus.splice import find_admissible_monomial, validate_witness


def rref(rows):
    """Reference: Gauss-Jordan over Fraction, (pivots, nonzero rows)."""
    R = [[Fraction(x) for x in row] for row in rows if any(row)]
    pivots = []
    for col in range(len(R[0]) if R else 0):
        k = len(pivots)
        piv = next((i for i in range(k, len(R)) if R[i][col]), None)
        if piv is None:
            continue
        R[k], R[piv] = R[piv], R[k]
        R[k] = [x / R[k][col] for x in R[k]]
        for i in range(len(R)):
            if i != k:
                f = R[i][col]
                R[i] = [x - f * y for x, y in zip(R[i], R[k])]
        pivots.append(col)
    return pivots, R[:len(pivots)]


def cofactor_det(M):
    if not M:
        return 1
    return sum((-1) ** j * M[0][j]
               * cofactor_det([row[:j] + row[j + 1:] for row in M[1:]])
               for j in range(len(M)) if M[0][j])


def matrices(min_rows=0, max_rows=5, min_cols=1, max_cols=6):
    """Small entries, so zero rows, zero leading entries (row exchanges)
    and rank deficiency are all common."""
    return st.integers(min_cols, max_cols).flatmap(lambda m: st.lists(
        st.lists(st.integers(-3, 3), min_size=m, max_size=m),
        min_size=min_rows, max_size=max_rows))


def square_matrices(max_n=5):
    return st.integers(0, max_n).flatmap(lambda n: st.lists(
        st.lists(st.integers(-4, 4), min_size=n, max_size=n),
        min_size=n, max_size=n))


@given(matrices())
@example([[0, 1], [1, 0]])
@example([[0, 0, 0], [0, 2, 4], [3, 0, 1]])
@example([[2, 4], [1, 2], [0, 0]])
@settings(max_examples=300, deadline=None)
def test_eliminate_is_scaled_rref(M):
    pivots, R = eliminate(M)
    ref_pivots, ref = rref(M)
    assert pivots == ref_pivots
    assert all(type(x) is int for row in R for x in row)
    if not R:
        return
    d = R[0][pivots[0]]
    assert d != 0 and all(row[p] == d for p, row in zip(pivots, R))
    assert [[Fraction(x, d) for x in row] for row in R] == ref


@given(square_matrices())
@example([[0, 0], [0, 0]])
@example([])
@settings(max_examples=300, deadline=None)
def test_det_bareiss_matches_cofactor_expansion(M):
    assert det_bareiss(M) == cofactor_det(M)


def test_det_bareiss_known_values():
    assert det_bareiss([[0, 1], [1, 0]]) == -1
    assert det_bareiss([[1, 2], [2, 4]]) == 0
    assert det_bareiss([[0, 0, 1], [0, 1, 0], [1, 0, 0]]) == -1
    assert det_bareiss([[-2, 1], [1, -2]]) == 3


@given(matrices(min_rows=1), st.data())
@settings(max_examples=200, deadline=None)
def test_pivot_in_last_column_iff_inconsistent(A, data):
    b = data.draw(st.lists(st.integers(-3, 3), min_size=len(A),
                           max_size=len(A)))
    pivots, _ = eliminate([row + [x] for row, x in zip(A, b)])
    inconsistent = len(rref([row + [x] for row, x in zip(A, b)])[0]) \
        > len(rref(A)[0])
    assert (bool(pivots) and pivots[-1] == len(A[0])) == inconsistent


def test_inconsistent_system_pivots_in_last_column():
    pivots, _ = eliminate([[1, 2, 1], [2, 4, 3]])
    assert pivots == [0, 2]


def test_eliminate_rejects_non_integers():
    with pytest.raises(TypeError):
        eliminate([[Fraction(1, 2), 1]])


# -- rank -------------------------------------------------------------------

def wide_entry_matrices():
    """Tall, wide and empty matrices with entries up to +-1000; zeros and
    small entries are drawn often, so sparse rows occur."""
    entry = st.one_of(st.just(0), st.integers(-3, 3), st.integers(-1000, 1000))
    return st.tuples(st.integers(0, 9), st.integers(1, 9)).flatmap(
        lambda shape: st.lists(
            st.lists(entry, min_size=shape[1], max_size=shape[1]),
            min_size=shape[0], max_size=shape[0]))


@st.composite
def dependent_matrices(draw):
    """Rows that are integer combinations of at most three base rows, so
    the rank is usually below both dimensions."""
    m = draw(st.integers(1, 8))
    base = draw(st.lists(st.lists(st.integers(-30, 30), min_size=m,
                                  max_size=m), min_size=1, max_size=3))
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        coeffs = draw(st.lists(st.integers(-5, 5), min_size=len(base),
                               max_size=len(base)))
        rows.append([sum(c * b[j] for c, b in zip(coeffs, base))
                     for j in range(m)])
    return rows


def sparse(M):
    return [dict(enumerate(row)) for row in M]


@given(st.one_of(wide_entry_matrices(), dependent_matrices()))
@example([])
@example([[0, 0, 0]])
@example([[1000, -1000], [999, 1], [-1, 1000], [7, 7]])    # tall
@example([[0, 868, 0, 1, 0, 0], [5, 0, 0, 0, 868, 2]])     # wide
@example([[6, 10, 15], [12, 20, 30], [3, 5, 7]])
@settings(max_examples=250, deadline=None)
def test_rank_matches_eliminate(M):
    assert rank(sparse(M)) == len(eliminate(M)[0])


@st.composite
def sparse_rows(draw):
    """Rows {column: int} over up to 8 columns: empty rows, explicit zero
    entries and repeats of earlier rows (scaled or not) are all drawn."""
    entry = st.one_of(st.just(0), st.integers(-3, 3), st.integers(-1000, 1000))
    rows = []
    for _ in range(draw(st.integers(0, 9))):
        kind = draw(st.integers(0, 3))
        if kind == 0 and rows:
            k = draw(st.integers(-2, 2))
            rows.append({c: k * x for c, x in
                         draw(st.sampled_from(rows)).items()})
        else:
            rows.append(draw(st.dictionaries(st.integers(0, 7), entry,
                                             max_size=0 if kind == 1 else 8)))
    return rows


@given(sparse_rows())
@example([{}, {}])
@example([{3: 2, 0: 0}, {3: 2, 0: 0}])
@example([{5: 7, 1: -3}, {1: 3, 5: -7}, {}])
@settings(max_examples=250, deadline=None)
def test_sparse_rank_matches_eliminate_and_keeps_its_input(rows):
    before = [dict(row) for row in rows]
    width = 1 + max((c for row in rows for c in row), default=0)
    dense = [[row.get(c, 0) for c in range(width)] for row in rows]
    assert rank(rows) == len(eliminate(dense)[0])
    assert rows == before


def test_rank_when_every_entry_shares_a_prime():
    # a rank mod p would read 0 here: the rank is taken over Q
    assert rank(sparse([[2, 4], [4, 8]])) == 1
    assert rank(sparse([[3, 0], [0, 3]])) == 2
    assert rank(sparse([[7, 14, 21], [14, 7, 0], [21, 21, 21]])) == 2


def test_rank_rejects_non_integers():
    with pytest.raises(TypeError):
        rank(sparse([[1, 0], [Fraction(1, 2), 1]]))
    with pytest.raises(TypeError):
        rank(sparse([[1.0, 2]]))


# -- negative definiteness --------------------------------------------------

def violation_by_minors(A):
    """Reference: one determinant per leading principal minor."""
    for k in range(1, len(A) + 1):
        d = det_bareiss([row[:k] for row in A[:k]])
        if d == 0 or (d > 0) != (k % 2 == 0):
            return k
    return None


@st.composite
def symmetric_matrices(draw, max_n=8):
    """Symmetric integer matrices.  A negative diagonal with small
    off-diagonal entries is often definite or fails at a late minor; fully
    random entries fail early, at zero or wrongly signed minors."""
    n = draw(st.integers(1, max_n))
    lo, hi = draw(st.sampled_from([(-3, 3), (-9, -1)]))
    M = [[0] * n for _ in range(n)]
    for i in range(n):
        M[i][i] = draw(st.integers(lo, hi))
        for j in range(i):
            M[i][j] = M[j][i] = draw(st.integers(-2, 2))
    return M


@given(symmetric_matrices())
@example([[-1]])
@example([[0]])
@example([[2]])
@example([[-2, 2], [2, -2]])           # second minor zero
@example([[-1, 2], [2, -1]])           # indefinite
@example([[-2, 1, 0], [1, -1, 1], [0, 1, -2]])  # third minor zero
@example([[0, 1], [1, -2]])            # zero first minor, nonzero second
@settings(max_examples=400, deadline=None)
def test_negative_definite_violation_matches_minors(M):
    assert negative_definite_violation(M) == violation_by_minors(M)


def test_negative_definite_violation_takes_one_pass(monkeypatch):
    def per_minor(*args):
        raise AssertionError("per-minor elimination")
    monkeypatch.setattr(exact, "rank", per_minor)
    monkeypatch.setattr(exact, "smith_normal_form", per_minor)
    assert negative_definite_violation([[-2, 1], [1, -2]]) is None
    assert negative_definite_violation([[-2, 1, 0], [1, -1, 1], [0, 1, -2]]) == 3


@pytest.mark.parametrize("name", sorted(os.listdir(GRAPHS_DIR)))
def test_graph_files_are_negative_definite(name):
    with open(os.path.join(GRAPHS_DIR, name), encoding="utf-8") as fh:
        g = parse_graph(fh.read())
    assert negative_definite_violation(g.intersection_matrix()) is None


@given(random_trees())
@settings(max_examples=100, deadline=None)
def test_random_trees_are_negative_definite(g):
    assert negative_definite_violation(g.intersection_matrix()) is None


# -- the monomial search against a brute force over the box -----------------

def _bruteforce_monomial(g, v, branch, bound):
    ends = g.ends()
    best = None
    for alpha in itertools.product(range(bound + 1), repeat=len(ends)):
        exps = {w: a for w, a in zip(ends, alpha) if a}
        wit = validate_witness(g, v, branch, exps)
        if wit is not None:
            key = (sum(wit.exponents.values()), alpha)
            if best is None or key < best:
                best = key
    return best


@given(random_trees(max_n=7))
@settings(max_examples=40, deadline=None)
def test_admissible_monomial_search_matches_bruteforce(g):
    ends = g.ends()
    for v in g.nodes():
        for br in g.branches(v):
            found = find_admissible_monomial(g, v, br, bound=3)
            best = _bruteforce_monomial(g, v, br, 3)
            if best is None:
                assert found is None
            else:
                assert found is not None
                alpha = tuple(found.exponents.get(w, 0) for w in ends)
                assert (sum(alpha), alpha) == best


# -- the Smith form ----------------------------------------------------------

def _check_smith(M):
    U, S, V = exact.smith_normal_form(M)
    assert (U, S, V) == ref_smith_normal_form(M)
    n, m = len(M), len(M[0]) if M else 0
    UMV = [[sum(U[i][k] * M[k][l] * V[l][j] for k in range(n) for l in range(m))
            for j in range(m)] for i in range(n)]
    assert UMV == S


@given(st.one_of(matrices(), square_matrices(), wide_entry_matrices(),
                 dependent_matrices()))
@example([])
@example([[0, 0], [0, 0]])
@example([[2, 4], [1, 2], [0, 0]])
@example([[6, 10, 15], [12, 20, 30], [3, 5, 7]])
@settings(max_examples=400, deadline=None)
def test_smith_form_matches_the_reference(M):
    # the pivot scan that stops at a unit, the skipped divisibility scan and
    # the column operations that skip zeros give the reference's U, S and V
    # on square, non-square and singular matrices
    _check_smith(M)


@given(random_trees())
@settings(max_examples=60, deadline=None)
def test_smith_form_matches_the_reference_on_random_trees(g):
    _check_smith(g.intersection_matrix())


def test_smith_form_matches_the_reference_on_named_graphs():
    # every intersection matrix of the fixtures, the small stars, the seeded
    # splice quotients, the caterpillars and the huge-|H| trees, and of every
    # branch the recursion reaches on them, chains included
    tops = [fig1(), exmc(), d4(), e8(), *list(splice_quotient_trees(1, 10)),
            *[star(b, legs) for b, legs in small_stars()],
            *[caterpillar(k) for k in range(3, 9)],
            *[parse_graph(t) for t in HUGE_H_TREES.values()]]
    seen = set()
    for top in tops:
        for g in _recursion_subgraphs(top):
            M = g.intersection_matrix()
            if repr(M) not in seen:
                seen.add(repr(M))
                assert exact.smith_normal_form(M) == ref_smith_normal_form(M)
    assert len(seen) > 200
