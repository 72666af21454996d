"""
Exact linear algebra over the rationals.

Matrices are lists of row lists with int or Fraction entries; everything is
decidable equality, no floating point.  All elimination runs through one
kernel, sparse Gauss-Jordan over Fraction: rows go in as {column: value}
dicts and the reduced row echelon form comes out as {pivot column: monic
row}.  Ranks, `rref`, kernels and solves are read off that form, and since
the reduced form is unique, so is every kernel basis built from it.
"""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction

Matrix = list[list[Fraction]]
SparseRow = dict[int, Fraction]
Entries = dict[tuple[int, int], Fraction]  # nonzero {(row, col): value}


class LinAlgError(ValueError):
    pass


def zeros(rows: int, cols: int) -> Matrix:
    return [[Fraction(0)] * cols for _ in range(rows)]


def from_entries(entries: Entries, rows: int, cols: int) -> Matrix:
    """The dense matrix with the given {(row, col): value} entries."""
    m = zeros(rows, cols)
    for (r, c), v in entries.items():
        m[r][c] = v
    return m


def identity_matrix(n: int) -> Matrix:
    m = zeros(n, n)
    for i in range(n):
        m[i][i] = Fraction(1)
    return m


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if a and b and len(a[0]) != len(b):
        raise LinAlgError(f"shape mismatch {len(a[0])} vs {len(b)}")
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    out = zeros(rows, cols)
    for i in range(rows):
        ai = a[i]
        oi = out[i]
        for k in range(inner):
            c = ai[k]
            if c == 0:
                continue
            bk = b[k]
            for j in range(cols):
                if bk[j]:
                    oi[j] += c * bk[j]
    return out


def mat_eq(a: Matrix, b: Matrix) -> bool:
    if len(a) != len(b) or (a and len(a[0]) != len(b[0])):
        return False
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def is_zero_matrix(a: Matrix) -> bool:
    return all(x == 0 for row in a for x in row)


def _sparse(m: Iterable[list]) -> list[SparseRow]:
    return [{c: x for c, x in enumerate(row) if x} for row in m]


def _subtract(row: SparseRow, f: Fraction, piv: SparseRow) -> None:
    """row -= f * piv in place, dropping the entries that cancel."""
    for c, v in piv.items():
        x = row.get(c, 0) - f * v
        if x:
            row[c] = x
        else:
            del row[c]


def _echelon(rows: Iterable[SparseRow]) -> dict[int, SparseRow]:
    """Reduced row echelon form of the span of `rows`: {pivot column: monic
    row}, each row zero in every other pivot column.

    The forward pass reduces each row against the existing pivots, lowest
    column first, until it vanishes or opens a new pivot.  Back-substitution
    then walks the pivots from the highest column down: every higher pivot
    row is already reduced, so substituting it brings in free columns only.
    """
    pivots: dict[int, SparseRow] = {}
    for row in rows:
        row = {c: Fraction(v) for c, v in row.items() if v}
        while row:
            c = min(row)
            if c not in pivots:
                inv = 1 / row[c]
                pivots[c] = {k: v * inv for k, v in row.items()}
                break
            _subtract(row, row[c], pivots[c])
    for c in sorted(pivots, reverse=True):
        row = pivots[c]
        for k in [k for k in row if k != c and k in pivots]:
            _subtract(row, row[k], pivots[k])
    return pivots


def _kernel_basis(pivots: dict[int, SparseRow], ncols: int) -> Matrix:
    """Kernel basis as the columns of a (ncols x free) matrix: one column
    per free variable, set to 1, with the pivot variables it forces."""
    free = [c for c in range(ncols) if c not in pivots]
    slot = {c: k for k, c in enumerate(free)}
    basis = zeros(ncols, len(free))
    for c, k in slot.items():
        basis[c][k] = Fraction(1)
    for pc, row in pivots.items():
        for c, v in row.items():
            if c != pc:
                basis[pc][slot[c]] = -v
    return basis


def rank(m: Matrix) -> int:
    return len(_echelon(_sparse(m)))


def rref(m: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form (zero rows last) and pivot columns."""
    cols = len(m[0]) if m else 0
    pivots = _echelon(_sparse(m))
    order = sorted(pivots)
    reduced = zeros(len(m), cols)
    for r, c in enumerate(order):
        for k, v in pivots[c].items():
            reduced[r][k] = v
    return reduced, order


def nullspace(m: Matrix, cols: int | None = None) -> Matrix:
    """Basis of the kernel, as columns of the returned (cols x k) matrix."""
    ncols = len(m[0]) if m else cols or 0
    return _kernel_basis(_echelon(_sparse(m)), ncols)


def solve_matrix(a: Matrix, b: Matrix) -> Matrix:
    """Solve a @ X = b column by column; raise if inconsistent.

    `a` must have full column rank (the columns form a basis of a subspace).
    """
    acols = len(a[0]) if a else 0
    bcols = len(b[0]) if b else 0
    if len(b) != len(a):
        raise LinAlgError("row mismatch in solve")
    pivots = _echelon(_sparse(ra + rb for ra, rb in zip(a, b)))
    if sum(c < acols for c in pivots) != acols:
        raise LinAlgError("coefficient matrix does not have full column rank")
    if len(pivots) > acols:
        raise LinAlgError("inconsistent system: image leaves the subspace")
    x = zeros(acols, bcols)
    for pc, row in pivots.items():
        for c, v in row.items():
            if c != pc:
                x[pc][c - acols] = v
    return x


def sparse_nullspace(rows: list[SparseRow], ncols: int) -> Matrix:
    """Kernel basis for a sparse system; suited to intertwiner equations
    whose rows touch only a couple of unknowns."""
    return _kernel_basis(_echelon(rows), ncols)
