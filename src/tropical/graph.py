"""Path, reachability, and bottleneck solvers over adjacency matrices.

Convention: entry A_ij is the weight of the edge from vertex i to vertex j;
an absent edge holds the semiring zero. Because of that orientation, the
single-source relaxation propagates with the transpose-style product
(vecmat / spmv on the transposed CSR), so the result reads "best path value
from the source to i".
"""

from __future__ import annotations

from typing import Union

import numpy as np

from . import dense, semiring as sr, sparse
from .dense import DenseMatrix
from .errors import NegativeCycleError
from .semiring import SemiringId
from .sparse import CsrMatrix

Matrix = Union[DenseMatrix, CsrMatrix]


def _square_size(a: Matrix) -> int:
    if a.rows != a.cols:
        raise ValueError("adjacency matrix must be square")
    return a.rows


def sssp(
    a: Matrix,
    source: int,
    s: SemiringId,
    *,
    early_exit: bool = True,
) -> list[int]:
    """Single-source optimal path values via fixed-point relaxation.

    d starts at zero(s) everywhere except one(s) at the source, then relaxes
    d <- d (+) (d vecmat A) for at most n-1 rounds, stopping early once d is
    stable. Under min-plus, failure to stabilize means a negative cycle is
    reachable and NegativeCycleError is raised.
    """
    n = _square_size(a)
    if not 0 <= source < n:
        raise ValueError(f"source {source} out of range for {n} vertices")
    if isinstance(a, CsrMatrix):
        if a.semiring is not s:
            raise ValueError(
                f"matrix is bound to {a.semiring.name.lower()} but {s.name.lower()} requested"
            )
        return _sssp_sparse(a, source, s, early_exit)

    cur = [sr.zero(s)] * n
    cur[source] = sr.one(s)
    for _ in range(n - 1):
        relaxed = dense.vecmat(cur, a, s)
        nxt = [sr.add(x, y, s) for x, y in zip(cur, relaxed)]
        if nxt == cur and early_exit:
            return cur
        cur = nxt
    _check_stable_minplus(cur, lambda v: dense.vecmat(v, a, s), s)
    return cur


def _sssp_sparse(a: CsrMatrix, source: int, s: SemiringId, early_exit: bool) -> list[int]:
    n = a.rows
    # transpose once so each round is a plain O(nnz) spmv
    ptr = a.row_ptr.tolist()
    triplets = []
    for i in range(n):
        for p in range(ptr[i], ptr[i + 1]):
            triplets.append((int(a.col_idx[p]), i, int(a.values[p])))
    at = sparse.from_triplets(n, n, triplets, s)
    cur = [sr.zero(s)] * n
    cur[source] = sr.one(s)
    for _ in range(n - 1):
        relaxed = sparse.spmv(at, cur)
        nxt = [sr.add(x, y, s) for x, y in zip(cur, relaxed)]
        if nxt == cur and early_exit:
            return cur
        cur = nxt
    _check_stable_minplus(cur, lambda v: sparse.spmv(at, v), s)
    return cur


def _check_stable_minplus(cur, relax, s: SemiringId) -> None:
    if s is not SemiringId.MINPLUS:
        return
    relaxed = relax(cur)
    if [sr.add(x, y, s) for x, y in zip(cur, relaxed)] != cur:
        raise NegativeCycleError(
            "single-source paths did not stabilize within n-1 rounds "
            "(negative cycle reachable from the source)"
        )


def all_pairs_paths(a: Matrix, s: SemiringId) -> DenseMatrix:
    """A*; entry (i, j) is the optimal path value from i to j."""
    _square_size(a)
    if isinstance(a, CsrMatrix):
        if a.semiring is not s:
            raise ValueError(
                f"matrix is bound to {a.semiring.name.lower()} but {s.name.lower()} requested"
            )
        a = sparse.to_dense(a)
    return dense.closure(a, s)


def reachability(a: Matrix, s: SemiringId = SemiringId.BOOLEAN) -> DenseMatrix:
    """Boolean transitive closure; (i, j) == 1 iff j is reachable from i.

    A dense entry is an edge iff it differs from zero(s). A CSR matrix
    stores only entries that differ from its own semiring's zero, so its
    stored pattern is taken as the edge set.
    """
    n = _square_size(a)
    if isinstance(a, CsrMatrix):
        arr = np.zeros((n, n), dtype=np.int32)
        arr[np.repeat(np.arange(n), np.diff(a.row_ptr)), a.col_idx] = 1
    else:
        arr = (a._arr != sr.zero(s)).astype(np.int32)
    return dense.closure(DenseMatrix._wrap(arr), SemiringId.BOOLEAN)


def bottleneck_paths(a: Matrix) -> DenseMatrix:
    """Max-min closure; (i, j) is the best minimum edge weight over paths."""
    _square_size(a)
    if isinstance(a, CsrMatrix):
        if a.semiring is not SemiringId.MAXMIN:
            raise ValueError("bottleneck_paths expects a max-min matrix")
        a = sparse.to_dense(a)
    return dense.closure(a, SemiringId.MAXMIN)
