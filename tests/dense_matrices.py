"""
Dense-matrix comparisons that only the tests read.

The library computes on row-sparse matrices (`nilschober.linalg`); its
dense views (`realize_map`, `action_matrix`, `act_matrix`, `from_entries`)
and the dense kernels `rank`, `rref`, `nullspace`, `solve_matrix` and
`mat_mul` serve as references in the tests.  These helpers compare and
build such matrices.  Nothing in the library uses them.
"""

from __future__ import annotations

from fractions import Fraction

from nilschober.linalg import Matrix, zeros


def identity_matrix(n: int) -> Matrix:
    m = zeros(n, n)
    for i in range(n):
        m[i][i] = Fraction(1)
    return m


def mat_eq(a: Matrix, b: Matrix) -> bool:
    if len(a) != len(b) or (a and len(a[0]) != len(b[0])):
        return False
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def is_zero_matrix(a: Matrix) -> bool:
    return all(x == 0 for row in a for x in row)
