"""Exact linear algebra: ranks, rref, kernels and solves, checked against
values that do not come from the elimination kernel itself."""

import random
from fractions import Fraction

import pytest

from dense_matrices import identity_matrix, is_zero_matrix, mat_eq
from nilschober.linalg import (
    LinAlgError,
    SparseMatrix,
    mat_mul,
    nullspace,
    rank,
    rref,
    solve_matrix,
    sparse_mul,
    sparse_nullspace,
    sparse_rank,
    zeros,
)


def F(x):
    return Fraction(x)


def test_rank_hand_cases():
    assert rank([[1, 2], [2, 4]]) == 1
    assert rank([[1, 0], [0, 1]]) == 2
    assert rank([[0, 0], [0, 0]]) == 0
    assert rank([]) == 0
    assert rank([[Fraction(1, 2), F(1)], [F(1), F(2)]]) == 1


def test_rref_pivots():
    reduced, pivots = rref([[2, 4, 6], [1, 2, 4]])
    assert pivots == [0, 2]
    assert reduced[0][:2] == [F(1), F(2)]


def test_nullspace_annihilates():
    rng = random.Random(99)
    for _ in range(25):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        m = [[F(rng.randint(-3, 3)) for _ in range(cols)] for _ in range(rows)]
        basis = nullspace(m)
        k = len(basis[0]) if basis and basis[0] else 0
        assert k == cols - rank(m)
        if k:
            assert is_zero_matrix(mat_mul(m, basis))


def test_solve_matrix_roundtrip():
    a = [[F(1), F(0)], [F(2), F(1)], [F(0), F(3)]]
    x = [[F(2)], [F(-1)]]
    b = mat_mul(a, x)
    assert mat_eq(solve_matrix(a, b), x)


def test_solve_matrix_rejects_inconsistent():
    a = [[F(1)], [F(0)]]
    b = [[F(0)], [F(1)]]  # second coordinate unreachable
    with pytest.raises(LinAlgError):
        solve_matrix(a, b)


def test_solve_matrix_rejects_rank_deficient():
    a = [[F(1), F(2)], [F(2), F(4)]]
    with pytest.raises(LinAlgError):
        solve_matrix(a, [[F(1)], [F(2)]])


def _known_rank(rng, rows, cols, r):
    """B @ C with B (rows x r) and C (r x cols) each carrying an r x r
    identity block, so the product has rank exactly r."""
    b = [[F(rng.randint(-2, 2)) for _ in range(r)] for _ in range(rows)]
    for i, row in enumerate(rng.sample(range(rows), r)):
        b[row] = [F(int(i == j)) for j in range(r)]
    c = [[F(rng.randint(-2, 2)) for _ in range(cols)] for _ in range(r)]
    for j, col in enumerate(rng.sample(range(cols), r)):
        for i in range(r):
            c[i][col] = F(int(i == j))
    return mat_mul(b, c)


def _cases(seed, count=30):
    rng = random.Random(seed)
    for _ in range(count):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        r = rng.randint(0, min(rows, cols))
        yield _known_rank(rng, rows, cols, r), r


def _transpose(m):
    return [list(col) for col in zip(*m)]


def _rows(m):
    return [{j: v for j, v in enumerate(row) if v} for row in m]


def test_rank_of_known_rank_products():
    for m, r in _cases(7):
        assert rank(m) == r
        assert rank(_transpose(m)) == r
        assert sparse_rank(_rows(m)) == r


def _fractions(values):
    return all(type(v) is Fraction for v in values)


def test_int_input_gives_exact_fractions():
    """Int entries are eliminated exactly: every result entry is a Fraction
    equal to the one computed from the same matrix given as Fractions."""
    for m, r in _cases(23):
        ints = [[int(v) for v in row] for row in m]
        cols = len(m[0])
        assert rank(ints) == sparse_rank(_rows(ints)) == r
        reduced, pivots = rref(ints)
        assert (reduced, pivots) == rref(m)
        assert _fractions(v for row in reduced for v in row)
        basis = nullspace(ints)
        assert basis == nullspace(m)
        assert _fractions(v for row in basis for v in row)
        kernel = sparse_nullspace(_rows(ints), cols)
        assert kernel == sparse_nullspace(_rows(m), cols)
        assert _fractions(v for row in kernel.rows for v in row.values())


def test_sparse_mul_matches_dense():
    """Row-sparse products against the dense loop, with entries from
    {-1, 0, 1} so that sums cancel and must be dropped."""
    rng = random.Random(23)
    for _ in range(40):
        rows, inner, cols = rng.randint(0, 5), rng.randint(1, 5), rng.randint(1, 5)
        a = [[F(rng.choice((-1, 0, 0, 1))) for _ in range(inner)] for _ in range(rows)]
        b = [[F(rng.choice((-1, 0, 0, 1))) for _ in range(cols)] for _ in range(inner)]
        prod = sparse_mul(SparseMatrix(_rows(a), inner), SparseMatrix(_rows(b), cols))
        assert prod.cols == cols
        assert prod.rows == _rows(mat_mul(a, b))
        assert prod.dense() == mat_mul(a, b)
    with pytest.raises(LinAlgError):
        sparse_mul(SparseMatrix([{}], 2), SparseMatrix([{}], 1))


def test_rank_is_transpose_invariant():
    rng = random.Random(11)
    for _ in range(30):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        m = [[F(rng.choice((-1, 0, 0, 1, 2, Fraction(1, 3))))
              for _ in range(cols)] for _ in range(rows)]
        assert rank(m) == rank(_transpose(m))


def test_rref_meets_definition():
    for m, r in _cases(13):
        reduced, pivots = rref(m)
        assert len(reduced) == len(m) and len(pivots) == r
        assert pivots == sorted(set(pivots))
        for i, pc in enumerate(pivots):
            assert all(x == 0 for x in reduced[i][:pc])
            assert reduced[i][pc] == 1
            assert all(reduced[k][pc] == 0 for k in range(len(m)) if k != i)
        assert all(x == 0 for row in reduced[r:] for x in row)
        # every row of m is the combination of the reduced rows read off
        # its pivot entries, so the row spaces agree
        for row in m:
            combo = [sum((row[pc] * reduced[i][j] for i, pc in enumerate(pivots)),
                         F(0)) for j in range(len(row))]
            assert combo == row


def test_nullspace_basis_of_known_rank():
    for m, r in _cases(17):
        cols = len(m[0])
        sparse = [{j: v for j, v in enumerate(row) if v} for row in m]
        for basis in (nullspace(m), sparse_nullspace(sparse, cols).dense()):
            k = len(basis[0]) if basis and basis[0] else 0
            assert len(basis) == cols and k == cols - r
            if k:
                assert is_zero_matrix(mat_mul(m, basis))
                assert rank(basis) == k


def test_nullspace_hand_computed():
    # rref is [[1, 2, 0, 1], [0, 0, 1, -1]]: free columns 1 and 3
    m = [[F(2), F(4), F(1), F(1)], [F(1), F(2), F(1), F(0)]]
    expected = [[F(-2), F(-1)], [F(1), F(0)], [F(0), F(1)], [F(0), F(1)]]
    assert nullspace(m) == expected
    sparse = [{0: F(2), 1: F(4), 2: F(1), 3: F(1)}, {0: F(1), 1: F(2), 2: F(1)}]
    assert sparse_nullspace(sparse, 4).dense() == expected


def test_identity_and_zeros_shapes():
    assert mat_eq(mat_mul(identity_matrix(3), identity_matrix(3)),
                  identity_matrix(3))
    assert zeros(2, 0) == [[], []]
    assert nullspace([], cols=3) == identity_matrix(3)
