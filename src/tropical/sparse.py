"""CSR sparse matrices bound to a semiring.

Structural invariants, maintained by every constructor and by spmm:
row_ptr non-decreasing with row_ptr[0] == 0 and row_ptr[rows] == nnz; column
indices strictly increasing within each row; no stored value ever equals the
semiring zero (the sparsity pattern is exactly the support).

Every constructor except spmm goes through one coordinate (COO) assembly: it
sorts the entries by (row, column) key, folds duplicates with the semiring
addition (``reduceat``), drops zeros and counts rows with ``bincount``. The
reverse direction is the COO view ``np.repeat(arange(rows), diff(row_ptr))``,
which serves validation, ``to_dense`` and the transpose; ``spmv`` reduces
over ``row_ptr`` segments. None of them loops over rows in Python; Gustavson
``spmm`` is the one row loop left.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from . import semiring as sr
from .dense import (
    _SWEEP_OPS, _WIDE_ZERO, ADD_UFUNC, DenseMatrix, _check_vector, _decode, _encode
)
from .semiring import SemiringId

_I32 = np.int32
_I64 = np.int64
_U32 = np.uint32


class CsrMatrix:
    """Compressed-sparse-row matrix; immutable after construction."""

    __slots__ = ("rows", "cols", "values", "col_idx", "row_ptr", "semiring")

    def __init__(self, rows, cols, values, col_idx, row_ptr, semiring: SemiringId):
        self.rows = int(rows)
        self.cols = int(cols)
        self.values = np.asarray(values, dtype=_I32)
        self.col_idx = np.asarray(col_idx, dtype=_U32)
        self.row_ptr = np.asarray(row_ptr, dtype=_U32)
        self.semiring = semiring
        self._validate()

    def _validate(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ValueError("matrix must have at least one row and one column")
        nnz = len(self.values)
        if len(self.col_idx) != nnz:
            raise ValueError("values and col_idx lengths differ")
        if len(self.row_ptr) != self.rows + 1:
            raise ValueError("row_ptr must have rows+1 entries")
        if self.row_ptr[0] != 0 or self.row_ptr[-1] != nnz:
            raise ValueError("row_ptr must start at 0 and end at nnz")
        if np.any(np.diff(self.row_ptr.astype(_I64)) < 0):
            raise ValueError("row_ptr must be non-decreasing")
        # a row is bad if a column is out of range or does not exceed the
        # previous column of the same row
        row = _coo_rows(self)
        cols = self.col_idx.astype(_I64)
        bad = row[cols >= self.cols]
        step_bad = (np.diff(cols) <= 0) & (row[1:] == row[:-1])
        bad = np.concatenate((bad, row[1:][step_bad]))
        if bad.size:
            raise ValueError(f"row {bad.min()}: column indices not strictly increasing in range")
        if nnz and np.any(self.values == sr.zero(self.semiring)):
            raise ValueError("stored values must not equal the semiring zero")
        if self.semiring is SemiringId.BOOLEAN and nnz and np.any(self.values != 1):
            raise ValueError("boolean matrices may only store the value 1")

    @property
    def nnz(self) -> int:
        return len(self.values)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CsrMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.semiring is other.semiring
            and np.array_equal(self.values, other.values)
            and np.array_equal(self.col_idx, other.col_idx)
            and np.array_equal(self.row_ptr, other.row_ptr)
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.semiring, self.values.tobytes()))

    def __repr__(self) -> str:
        return f"CsrMatrix({self.rows}x{self.cols}, nnz={self.nnz}, {self.semiring.name.lower()})"


def _coo_rows(a: CsrMatrix) -> np.ndarray:
    """Row index of every stored entry, in storage order."""
    return np.repeat(np.arange(a.rows, dtype=_I64), np.diff(a.row_ptr.astype(_I64)))


def _from_coo(rows: int, cols: int, i, j, v, s: SemiringId) -> CsrMatrix:
    """CSR from int64 coordinate arrays with indices in range and values in
    the 32-bit range: Boolean values become 0/1, duplicate coordinates fold
    with the semiring addition and entries equal to zero(s) are dropped."""
    if s is SemiringId.BOOLEAN:
        v = (v != 0).astype(_I64)
    key = i * cols + j
    order = np.argsort(key)
    key, v = key[order], v[order]
    if v.size:
        first = np.flatnonzero(np.diff(key, prepend=-1))
        key, v = key[first], ADD_UFUNC[s].reduceat(v, first)
    keep = v != sr.zero(s)
    i, j = np.divmod(key[keep], cols)
    row_ptr = np.zeros(rows + 1, dtype=_I64)
    np.cumsum(np.bincount(i, minlength=rows), out=row_ptr[1:])
    return CsrMatrix(rows, cols, v[keep], j, row_ptr, s)


def from_triplets(
    rows: int,
    cols: int,
    entries: Iterable[tuple[int, int, int]] | np.ndarray,
    s: SemiringId,
) -> CsrMatrix:
    """Build a CSR matrix from (i, j, value) triplets or an (m, 3) integer array.

    Duplicate coordinates are combined with the semiring addition; entries
    whose (combined) value equals the semiring zero are dropped. Boolean
    inputs are normalized to {0, 1} here, at the construction boundary.
    """
    if not isinstance(entries, np.ndarray):
        entries = list(entries)
    t = np.asarray(entries, dtype=_I64)
    if t.size == 0:
        t = t.reshape(0, 3)
    if t.ndim != 2 or t.shape[1] != 3:
        raise ValueError("entries must be (i, j, value) triplets")
    i, j, v = t[:, 0], t[:, 1], t[:, 2]
    bad = np.flatnonzero((i < 0) | (i >= rows) | (j < 0) | (j >= cols))
    if bad.size:
        k = bad[0]
        raise ValueError(f"entry index ({i[k]}, {j[k]}) out of range for {rows}x{cols}")
    if s is not SemiringId.BOOLEAN:
        bad = np.flatnonzero((v < sr.NEG_INF) | (v > sr.POS_INF))
        if bad.size:
            raise ValueError(f"value {v[bad[0]]} outside the 32-bit tropical range")
    return _from_coo(rows, cols, i, j, v, s)


def from_dense(a: DenseMatrix, s: SemiringId) -> CsrMatrix:
    """CSR holding exactly the entries of a that differ from zero(s)."""
    i, j = np.nonzero(a._arr != sr.zero(s))
    return _from_coo(a.rows, a.cols, i, j, a._arr[i, j].astype(_I64), s)


def to_dense(a: CsrMatrix) -> DenseMatrix:
    """Dense matrix with absent entries set to zero(a.semiring)."""
    out = np.full((a.rows, a.cols), sr.zero(a.semiring), dtype=_I32)
    out[_coo_rows(a), a.col_idx] = a.values
    return DenseMatrix._wrap(out)


def transpose(a: CsrMatrix) -> CsrMatrix:
    """A^T in CSR form (the CSC layout of a)."""
    return _from_coo(
        a.cols, a.rows, a.col_idx.astype(_I64), _coo_rows(a), a.values.astype(_I64), a.semiring
    )


def spmv(a: CsrMatrix, x: Sequence[int]) -> list[int]:
    """y_i = (+)_{stored j in row i} values (x) x[col]; O(nnz) multiplies."""
    y, _ = spmv_instrumented(a, x)
    return y


def spmv_instrumented(a: CsrMatrix, x: Sequence[int]) -> tuple[list[int], int]:
    """spmv plus the exact count of semiring multiplications performed.

    A gather of x, the (x), and a segment reduction over the non-empty rows;
    empty rows stay zero(s). Min-plus and max-plus run on the wide encoding
    (see ``dense._WIDE``); no stored value is zero(s), so only x is encoded.
    """
    if len(x) != a.cols:
        raise ValueError(f"matrix has {a.cols} columns but vector has {len(x)}")
    xv = _check_vector(x)
    s = a.semiring
    mul, add = _SWEEP_OPS[s]
    wide = s in _WIDE_ZERO
    if wide:
        xv = _encode(xv, s)
    y = np.full(a.rows, sr.zero(s), dtype=_I32)
    if a.nnz:
        prod = mul(a.values, xv[a.col_idx])
        ptr = a.row_ptr.astype(_I64)
        nonempty = np.flatnonzero(ptr[1:] != ptr[:-1])
        fold = add.reduceat(prod, ptr[nonempty])
        y[nonempty] = _decode(fold, s) if wide else fold
    return y.tolist(), a.nnz


def spmm(a: CsrMatrix, b: CsrMatrix) -> CsrMatrix:
    """Sparse-sparse product with a Gustavson row accumulator.

    Symbolic and numeric work share one pass per row: products accumulate
    into a dense scratch of length b.cols, touched columns are tracked, and
    results equal to the semiring zero are dropped when the row is emitted.
    """
    if a.semiring is not b.semiring:
        raise ValueError("spmm operands must share a semiring")
    if a.cols != b.rows:
        raise ValueError(f"inner dimensions differ: {a.cols} vs {b.rows}")
    s = a.semiring
    add_ = sr.add_fn(s)
    mul_ = sr.mul_fn(s)
    z = sr.zero(s)
    avals = a.values.tolist()
    acols = a.col_idx.tolist()
    aptr = a.row_ptr.tolist()
    bvals = b.values.tolist()
    bcols = b.col_idx.tolist()
    bptr = b.row_ptr.tolist()
    scratch = [z] * b.cols
    present = [False] * b.cols
    values, col_idx, row_ptr = [], [], [0]
    for i in range(a.rows):
        touched = []
        for pa in range(aptr[i], aptr[i + 1]):
            k = acols[pa]
            aik = avals[pa]
            for pb in range(bptr[k], bptr[k + 1]):
                j = bcols[pb]
                prod = mul_(aik, bvals[pb])
                if present[j]:
                    scratch[j] = add_(scratch[j], prod)
                else:
                    scratch[j] = add_(z, prod)
                    present[j] = True
                    touched.append(j)
        touched.sort()
        for j in touched:
            if scratch[j] != z:
                values.append(scratch[j])
                col_idx.append(j)
            scratch[j] = z
            present[j] = False
        row_ptr.append(len(values))
    return CsrMatrix(a.rows, b.cols, values, col_idx, row_ptr, s)


def memory_bytes(a: CsrMatrix) -> int:
    """Storage footprint 8*nnz + 4*n + 4 bytes (n = rows)."""
    return 8 * a.nnz + 4 * a.rows + 4
