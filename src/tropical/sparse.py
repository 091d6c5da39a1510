"""CSR sparse matrices bound to a semiring.

Structural invariants: row_ptr non-decreasing with row_ptr[0] == 0 and
row_ptr[rows] == nnz; column indices strictly increasing within each row;
no stored value ever equals the semiring zero (the sparsity pattern is
exactly the support). ``CsrMatrix(...)`` checks them on the arrays a caller
hands it. The library's own CSRs are assembled in one place, ``_assemble``,
from per-row counts and arrays that hold them already: the coordinate (COO)
assembly behind ``from_triplets``, ``from_dense`` and each ``spmm`` block
(sort by (row, column) key, fold duplicates with ``reduceat``, drop zeros,
``bincount`` the rows), ``transpose`` (one sort of the (column, row) keys of
entries that are sorted, unique and non-zero already), and the join of
``spmm``'s blocks. The reverse direction, ``edges``, is the one edge-list
view of a dense or CSR matrix for every reader, and ``to_dense`` the one
layout of a CSR as a grid. ``spmv`` reduces over ``row_ptr`` segments. None
of them loops over rows in Python.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from . import semiring as sr
from .dense import (
    _SWEEP_OPS, _WIDE_ZERO, ADD_UFUNC, DenseMatrix, _check_out, _check_vector, _decode,
    _encode,
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
        self.values = _stored(values, _I32, "value {} outside the 32-bit tropical range")
        self.col_idx = _stored(col_idx, _U32, "column index {} outside [0, 2**32)")
        self.row_ptr = _stored(row_ptr, _U32, "row pointer {} outside [0, 2**32)")
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


def _integers(data) -> np.ndarray:
    """data as an array of integers; a non-integer raises TypeError."""
    arr = np.asarray(data)
    if arr.size and arr.dtype.kind not in "biu":
        for v in arr.ravel().tolist():
            if not isinstance(v, int):
                raise TypeError(f"tropical values must be integers, got {type(v).__name__}")
    return arr


def _stored(data, dtype, message: str) -> np.ndarray:
    """data in a storage dtype. An array already in it is taken as it is;
    anything else must hold integers that the dtype holds, else the first
    number it would wrap fills the ValueError's message."""
    arr = np.asarray(data)
    if arr.dtype == dtype:
        return arr
    arr = _integers(arr)
    info = np.iinfo(dtype)
    bad = np.flatnonzero((arr < info.min) | (arr > info.max))
    if bad.size:
        raise ValueError(message.format(arr.ravel()[bad[0]]))
    return arr.astype(dtype)


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
    v = v[order]
    if v.size:
        first = np.flatnonzero(np.diff(key[order], prepend=-1))
        v = ADD_UFUNC[s].reduceat(v, first)
        order = order[first]
    i, j = i[order], j[order]
    zero = v == sr.zero(s)
    if zero.any():
        keep = ~zero
        i, j, v = i[keep], j[keep], v[keep]
    return _assemble(rows, cols, np.bincount(i, minlength=rows), j, v, s)


def _assemble(rows, cols, counts, col_idx, values, s: SemiringId) -> CsrMatrix:
    """CSR of arrays the library made, which hold the invariants already:
    row pointers from the per-row entry counts, the storage dtypes, and no
    validation (the CSR twin of ``DenseMatrix._wrap``)."""
    a = object.__new__(CsrMatrix)
    a.rows, a.cols, a.semiring = int(rows), int(cols), s
    a.values, a.col_idx = values.astype(_I32, copy=False), col_idx.astype(_U32, copy=False)
    a.row_ptr = np.zeros(a.rows + 1, dtype=_U32)
    np.cumsum(counts, out=a.row_ptr[1:])
    return a


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
    if rows < 1 or cols < 1:
        raise ValueError("matrix must have at least one row and one column")
    if not isinstance(entries, np.ndarray):
        entries = list(entries)
    t = _integers(entries)
    if t.size == 0:
        t = t.reshape(0, 3)
    if t.ndim != 2 or t.shape[1] != 3:
        raise ValueError("entries must be (i, j, value) triplets")
    # the ranges are checked on the integers as given, which the int64 cast
    # could wrap (uint64) or overflow (Python ints in an object array)
    i, j, v = t[:, 0], t[:, 1], t[:, 2]
    bad = np.flatnonzero((i < 0) | (i >= rows) | (j < 0) | (j >= cols))
    if bad.size:
        k = bad[0]
        raise ValueError(f"entry index ({i[k]}, {j[k]}) out of range for {rows}x{cols}")
    if s is SemiringId.BOOLEAN:
        v = v != 0
    else:
        bad = np.flatnonzero((v < sr.NEG_INF) | (v > sr.POS_INF))
        if bad.size:
            raise ValueError(f"value {v[bad[0]]} outside the 32-bit tropical range")
    return _from_coo(
        rows, cols, i.astype(_I64, copy=False), j.astype(_I64, copy=False),
        v.astype(_I64, copy=False), s,
    )


def edges(a: DenseMatrix | CsrMatrix, s: SemiringId):
    """Row-major int64 (src, dst, w) arrays of the entries of a dense matrix
    that differ from zero(s), or of the stored entries of a CSR matrix bound
    to s; a CSR matrix bound to another semiring is refused."""
    if isinstance(a, CsrMatrix):
        check_bound(a, s)
        return _coo_rows(a), a.col_idx.astype(_I64), a.values.astype(_I64)
    # a 1-D nonzero split by divmod keeps the row-major order, and is the
    # fast one
    flat = np.flatnonzero(a._arr != sr.zero(s))
    src, dst = np.divmod(flat, a.cols)
    return src, dst, np.take(a._arr, flat).astype(_I64)


def check_bound(a: CsrMatrix, s: SemiringId) -> None:
    """Refuse a CSR matrix bound to a semiring other than s."""
    if a.semiring is not s:
        raise ValueError(
            f"matrix is bound to {a.semiring.name.lower()} but {s.name.lower()} requested"
        )


def from_dense(a: DenseMatrix, s: SemiringId) -> CsrMatrix:
    """CSR holding exactly the entries of a that differ from zero(s)."""
    return _from_coo(a.rows, a.cols, *edges(a, s), s)


def to_dense(a: CsrMatrix) -> DenseMatrix:
    """Dense matrix with absent entries set to zero(a.semiring)."""
    out = np.full((a.rows, a.cols), sr.zero(a.semiring), dtype=_I32)
    out[_coo_rows(a), a.col_idx] = a.values
    return DenseMatrix._wrap(out)


def transpose(a: CsrMatrix) -> CsrMatrix:
    """A^T in CSR form (the CSC layout of a). A's entries are sorted, unique
    and non-zero already, so nothing folds or drops: one argsort of their
    (column, row) keys orders A^T's entries; a bincount of the columns
    counts its rows."""
    row = _coo_rows(a)
    col = a.col_idx.astype(_I64)
    order = np.argsort(col * a.rows + row)
    counts = np.bincount(col, minlength=a.cols)
    return _assemble(a.cols, a.rows, counts, row[order], a.values[order], a.semiring)


def spmv(
    a: CsrMatrix, x: Sequence[int], out: np.ndarray | None = None
) -> list[int] | np.ndarray:
    """y_i = (+)_{stored j in row i} values (x) x[col]; O(nnz) multiplies.

    A gather of x, the (x), and a segment reduction over the non-empty rows;
    empty rows get zero(s). Min-plus and max-plus run on the wide encoding
    (see ``dense._WIDE``); no stored value is zero(s), so only x is encoded.
    ``out``, a 1-D int64 array of A's row count, takes every y_i, empty
    rows included, and is returned in place of a new list. A wrong ``out``
    raises ValueError before anything is written.
    """
    if len(x) != a.cols:
        raise ValueError(f"matrix has {a.cols} columns but vector has {len(x)}")
    if out is not None:
        _check_out(out, a.rows)
    xv = _check_vector(x)
    s = a.semiring
    mul, add = _SWEEP_OPS[s]
    wide = s in _WIDE_ZERO
    if wide:
        xv = _encode(xv, s)
    y = np.empty(a.rows, dtype=_I64) if out is None else out
    y.fill(sr.zero(s))
    if a.nnz:
        prod = mul(a.values, np.take(xv, a.col_idx))
        ptr = a.row_ptr.astype(_I64)
        nonempty = np.flatnonzero(ptr[1:] != ptr[:-1])
        fold = add.reduceat(prod, ptr[nonempty])
        y[nonempty] = _decode(fold, s) if wide else fold
    return y.tolist() if out is None else y


def spmv_instrumented(
    a: CsrMatrix, x: Sequence[int], out: np.ndarray | None = None
) -> tuple[list[int] | np.ndarray, int]:
    """spmv plus its count of semiring multiplications, one per stored entry."""
    return spmv(a, x, out), a.nnz


# Products of one spmm block: a run of whole rows of A (or one row) whose
# products, about 100 bytes of scratch each, one COO assembly folds. On
# degree-8 min-plus graphs of 2,000 and 32,000 vertices, 2^14-2^20 ran
# within 20 % of each other.
_SPMM_BLOCK = 1 << 16


def spmm(a: CsrMatrix, b: CsrMatrix) -> CsrMatrix:
    """Sparse-sparse product C = A (x) B in O(nnz(A) + _SPMM_BLOCK + nnz(C))
    scratch: each stored a_ik meets row k of B, a block of A's rows at a
    time. Min-plus and max-plus sums are clipped to the finite range; no
    stored value is zero(s), so that is the saturating (x)."""
    if a.semiring is not b.semiring:
        raise ValueError("spmm operands must share a semiring")
    if a.cols != b.rows:
        raise ValueError(f"inner dimensions differ: {a.cols} vs {b.rows}")
    s = a.semiring
    mul = _SWEEP_OPS[s][0]
    arow, k, av = edges(a, s)
    aptr, bptr = a.row_ptr.astype(_I64), b.row_ptr.astype(_I64)
    first, count = bptr[k], bptr[k + 1] - bptr[k]
    # products before each stored entry of A, and before each row of A
    before = np.concatenate(([0], np.cumsum(count)))
    at_row = before[aptr]
    blocks = []
    r0 = 0
    while r0 < a.rows:
        r1 = int(np.searchsorted(at_row, at_row[r0] + _SPMM_BLOCK, side="right")) - 1
        r1 = max(r1, r0 + 1)
        e0, e1 = aptr[r0], aptr[r1]
        pa = np.repeat(np.arange(e0, e1), count[e0:e1])
        pb = first[pa] + np.arange(pa.size) - (before[pa] - before[e0])
        v = mul(av[pa], b.values[pb])
        if s in _WIDE_ZERO:
            np.clip(v, sr.FINITE_MIN, sr.FINITE_MAX, out=v)
        blocks.append(_from_coo(r1 - r0, b.cols, arow[pa] - r0, b.col_idx[pb].astype(_I64), v, s))
        r0 = r1
    counts = np.concatenate([np.diff(c.row_ptr) for c in blocks])
    col_idx = np.concatenate([c.col_idx for c in blocks])
    return _assemble(a.rows, b.cols, counts, col_idx, np.concatenate([c.values for c in blocks]), s)


def memory_bytes(a: CsrMatrix) -> int:
    """Storage footprint 8*nnz + 4*n + 4 bytes (n = rows)."""
    return 8 * a.nnz + 4 * a.rows + 4
