"""
Exact linear algebra over the rationals.

Everything is decidable equality over Fraction, no floating point.  Two
forms share one elimination kernel: row-sparse `SparseMatrix` values (one
{column: value} dict per row, zeros dropped, plus the column count) behind
`sparse_mul`, `sparse_solve`, `sparse_rank` and `sparse_nullspace`, which
every library path uses, and dense matrices (lists of row lists with int
or Fraction entries) behind `rank`, `rref`, `nullspace`, `solve_matrix` and
`mat_mul`, which only the tests read (`perfbench/tracer.py` still wraps
them).  The kernel is sparse Gauss-Jordan: rows go in as {column: value}
dicts and the reduced row echelon form comes out as {pivot column: monic
row}.  Ranks, `rref`, kernels and solves are read off that form, and
since the reduced form is unique, so is every kernel basis built from it.
"""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction
from typing import NamedTuple

Matrix = list[list[Fraction]]
SparseRow = dict[int, Fraction]
Entries = dict[tuple[int, int], Fraction]  # nonzero {(row, col): value}

ONE = Fraction(1)


class LinAlgError(ValueError):
    pass


class SparseMatrix(NamedTuple):
    """A row-sparse matrix: one {column: value} dict per row holding the
    nonzero entries, and the column count (rows alone do not fix it)."""

    rows: list[SparseRow]
    cols: int

    @classmethod
    def from_entries(cls, entries: Entries, rows: int, cols: int) -> "SparseMatrix":
        out: list[SparseRow] = [{} for _ in range(rows)]
        for (r, c), v in entries.items():
            out[r][c] = v
        return cls(out, cols)

    def dense(self) -> Matrix:
        m = zeros(len(self.rows), self.cols)
        for out, row in zip(m, self.rows):
            for c, v in row.items():
                out[c] = v
        return m


def zeros(rows: int, cols: int) -> Matrix:
    return [[Fraction(0)] * cols for _ in range(rows)]


def from_entries(entries: Entries, rows: int, cols: int) -> Matrix:
    """The dense matrix with the given {(row, col): value} entries."""
    m = zeros(rows, cols)
    for (r, c), v in entries.items():
        m[r][c] = v
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


def _sparse(m: Matrix) -> SparseMatrix:
    return SparseMatrix(
        [{c: x for c, x in enumerate(row) if x} for row in m], len(m[0]) if m else 0
    )


def _subtract(row: SparseRow, f: Fraction, piv: SparseRow) -> None:
    """row -= f * piv in place, dropping the entries that cancel."""
    for c, v in piv.items():
        x = row.get(c, 0) - f * v
        if x:
            row[c] = x
        else:
            del row[c]


def _reduce(row: SparseRow, pivots: dict[int, SparseRow]) -> int | None:
    """Forward-reduce `row` in place against monic pivot rows, lowest column
    first, until it vanishes (None) or its lowest column is not a pivot
    (that column is returned)."""
    while row:
        c = min(row)
        if c not in pivots:
            return c
        _subtract(row, row[c], pivots[c])
    return None


def _echelon(rows: Iterable[SparseRow]) -> dict[int, SparseRow]:
    """Reduced row echelon form of the span of `rows`: {pivot column: monic
    row}, each row zero in every other pivot column.

    The forward pass reduces each row against the existing pivots until it
    vanishes or opens a new pivot (`_reduce`).  Back-substitution then walks
    the pivots from the highest column down: every higher pivot row is
    already reduced, so substituting it brings in free columns only.
    """
    pivots: dict[int, SparseRow] = {}
    for row in rows:
        row = {c: v for c, v in row.items() if v}
        c = _reduce(row, pivots)
        if c is not None:
            inv = ONE / row[c]
            pivots[c] = {k: v * inv for k, v in row.items()}
    for c in sorted(pivots, reverse=True):
        row = pivots[c]
        for k in [k for k in row if k != c and k in pivots]:
            _subtract(row, row[k], pivots[k])
    return pivots


def _kernel_basis(pivots: dict[int, SparseRow], ncols: int) -> SparseMatrix:
    """Kernel basis as the columns of a (ncols x free) matrix: one column
    per free variable, set to 1, with the pivot variables it forces."""
    slot = {c: k for k, c in enumerate(c for c in range(ncols) if c not in pivots)}
    rows: list[SparseRow] = [{slot[c]: ONE} if c in slot else {} for c in range(ncols)]
    for pc, row in pivots.items():
        rows[pc] = {slot[c]: -v for c, v in row.items() if c != pc}
    return SparseMatrix(rows, len(slot))


def rank(m: Matrix) -> int:
    return len(_echelon(_sparse(m).rows))


def rref(m: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form (zero rows last) and pivot columns."""
    cols = len(m[0]) if m else 0
    pivots = _echelon(_sparse(m).rows)
    order = sorted(pivots)
    reduced = zeros(len(m), cols)
    for r, c in enumerate(order):
        for k, v in pivots[c].items():
            reduced[r][k] = v
    return reduced, order


def nullspace(m: Matrix, cols: int | None = None) -> Matrix:
    """Basis of the kernel, as columns of the returned (cols x k) matrix."""
    ncols = len(m[0]) if m else cols or 0
    return _kernel_basis(_echelon(_sparse(m).rows), ncols).dense()


def solve_matrix(a: Matrix, b: Matrix) -> Matrix:
    """Solve a @ X = b column by column; raise if inconsistent.

    `a` must have full column rank (the columns form a basis of a subspace).
    """
    return sparse_solve(_sparse(a), _sparse(b)).dense()


def sparse_mul(a: SparseMatrix, b: SparseMatrix) -> SparseMatrix:
    """The product a @ b: row i is the sum of a[i][k] * b[k]."""
    if a.cols != len(b.rows):
        raise LinAlgError(f"shape mismatch {a.cols} vs {len(b.rows)}")
    out = []
    for row in a.rows:
        acc: SparseRow = {}
        for k, x in row.items():
            for j, y in b.rows[k].items():
                acc[j] = acc.get(j, 0) + x * y
        out.append({j: v for j, v in acc.items() if v})
    return SparseMatrix(out, b.cols)


def sparse_solve(a: SparseMatrix, b: SparseMatrix) -> SparseMatrix:
    """Solve a @ X = b column by column; raise if inconsistent.

    `a` must have full column rank (the columns form a basis of a subspace).
    One elimination of the rows of [a | b]: every column of `a` must be a
    pivot, and no column of `b` may be one.
    """
    if len(b.rows) != len(a.rows):
        raise LinAlgError("row mismatch in solve")
    k = a.cols
    pivots = _echelon(
        {**ra, **{k + c: v for c, v in rb.items()}} for ra, rb in zip(a.rows, b.rows)
    )
    if sum(c < k for c in pivots) != k:
        raise LinAlgError("coefficient matrix does not have full column rank")
    if len(pivots) > k:
        raise LinAlgError("inconsistent system: image leaves the subspace")
    return SparseMatrix(
        [{c - k: v for c, v in pivots[pc].items() if c != pc} for pc in range(k)],
        b.cols,
    )


def sparse_rank(rows: list[SparseRow]) -> int:
    """Rank of the matrix with these sparse rows."""
    return len(_echelon(rows))


def sparse_nullspace(rows: list[SparseRow], ncols: int) -> SparseMatrix:
    """Kernel basis of a sparse system, as the columns of a row-sparse
    (ncols x k) matrix whose `cols` is the kernel dimension k."""
    return _kernel_basis(_echelon(rows), ncols)
