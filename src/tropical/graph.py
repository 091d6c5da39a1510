"""Path, reachability, and bottleneck solvers over adjacency matrices.

Convention: entry A_ij is the weight of the edge from vertex i to vertex j;
an absent edge holds the semiring zero. Because of that orientation, the
single-source relaxation propagates with the transpose-style product
x vecmat A, so the result reads "best path value from the source to i".

Dense and CSR ``sssp`` share one relaxation loop over arrays, ``relax``;
only the per-round product differs: ``dense.vecmat`` with A, or
``sparse.spmv`` with A^T. ``sparse.transpose`` builds A^T once per call
from one sort of A's entries. The scheduler runs no rounds: its graph is
acyclic, and it substitutes forward in topological order. ``sssp``
allocates one int64 buffer per call, and each round's product is written
into it with ``out=``, so no round builds a list. The input type selects
the product: the CLI parses sssp input into CSR, so its memory is O(n + m),
and the dense branch serves a caller that already holds the grid.

The CLI hands every graph command a CSR matrix. The weighted closures are
dense sweeps, so ``all_pairs_paths`` lays a CSR input out as a grid with
``sparse.to_dense``, the one CSR-to-grid layout. ``reachability`` runs on
the edge list (``structure.reach``) and builds no grid but its n x n
result; it and the saturation check of ``sssp`` read their input through
``sparse.edges``.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from . import dense, semiring as sr, sparse, structure
from .dense import DenseMatrix
from .errors import SaturationError
from .semiring import SemiringId
from .sparse import CsrMatrix

Matrix = Union[DenseMatrix, CsrMatrix]


def _square_size(a: Matrix) -> int:
    if a.rows != a.cols:
        raise ValueError("adjacency matrix must be square")
    return a.rows


def sssp(a: Matrix, source: int, s: SemiringId) -> list[int]:
    """Single-source optimal path values via fixed-point relaxation.

    d starts at zero(s) everywhere except one(s) at the source, then relaxes
    d <- d (+) (d vecmat A) for at most n rounds, stopping early once d is
    stable. Simple paths have at most n-1 edges, so under min-plus and
    max-plus a change in round n means that a cycle which improves every
    path through it is reachable from the source: NegativeCycleError
    (min-plus) or PositiveCycleError (max-plus) is raised. A min-plus or
    max-plus distance outside [FINITE_MIN, FINITE_MAX], which the saturating
    (x) would clip to a plausible value, raises SaturationError.
    """
    n = _square_size(a)
    if not 0 <= source < n:
        raise ValueError(f"source {source} out of range for {n} vertices")
    buf = np.empty(n, dtype=np.int64)
    if isinstance(a, CsrMatrix):
        sparse.check_bound(a, s)
        at = sparse.transpose(a)
        product = lambda x: sparse.spmv(at, x, out=buf)
    else:
        product = lambda x: dense.vecmat(x, a, s, out=buf)
    z = sr.zero(s)
    d = np.full(n, z, dtype=np.int64)
    d[source] = sr.one(s)
    d, frontier, _ = relax(d, product, s, n)
    if s in dense.DIVERGENCE:
        if (frontier != z).any():
            error, sign = dense.DIVERGENCE[s]
            raise error(
                "single-source paths did not stabilize within n-1 rounds "
                f"({sign} cycle reachable from the source)"
            )
        _check_saturation(a, d, s)
    return d.tolist()


def _check_saturation(a: Matrix, d: np.ndarray, s: SemiringId) -> None:
    """Refuse a min-plus or max-plus distance that came out clipped.

    d is a fixed point, so each distance is the clip of its best in-edge
    sum, or the source's one(s). Only a distance at a limit of the finite
    range can have been clipped: for those, the best in-edge sum is
    recomputed unclipped in int64, and a sum beyond the limit raises
    SaturationError naming the first such vertex. An edge weight equal to
    the other sentinel (POS_INF under max-plus, NEG_INF under min-plus) is
    unbounded, and the saturating (x) defines its sums as clipped, so those
    sums enter clipped.
    """
    at_limit = (d == sr.FINITE_MIN) | (d == sr.FINITE_MAX)
    if not at_limit.any():
        return
    z = sr.zero(s)
    src, dst, w = sparse.edges(a, s)
    keep = at_limit[dst] & (d[src] != z)
    dst, w = dst[keep], w[keep]
    sums = d[src[keep]] + w
    other = w == (sr.POS_INF if s is SemiringId.MAXPLUS else sr.NEG_INF)
    sums[other] = np.clip(sums[other], sr.FINITE_MIN, sr.FINITE_MAX)
    # each vertex starts from one of its own sums; one without any stays 0
    best = np.zeros(d.size, dtype=np.int64)
    best[dst] = sums
    dense.ADD_UFUNC[s].at(best, dst, sums)
    past = np.flatnonzero((best < sr.FINITE_MIN) | (best > sr.FINITE_MAX))
    if past.size:
        v = past[0]
        limit = sr.FINITE_MAX if best[v] > sr.FINITE_MAX else sr.FINITE_MIN
        raise SaturationError(f"distance to vertex {v} sums to {best[v]}, past {limit}")


def relax(d: np.ndarray, product, s: SemiringId, rounds: int):
    """Up to ``rounds`` rounds of d <- d (+) product(d), the relaxation that
    dense and CSR single-source paths share.

    Each round multiplies only the frontier: the entries that changed in the
    previous round, with zero(s) elsewhere (at first, all of d). (+) is
    idempotent, so the products of the unchanged entries are already folded
    into d, and every round gives the d that a product of the whole vector
    would. The rounds stop at the first one that changes nothing. Returns d,
    the frontier of the last round (all zero(s) once d is stable) and the
    number of rounds run. ``sssp``'s product writes into one int64 buffer
    that every round reuses; a product that returns a list (``vecmat`` or
    ``spmv`` without ``out``) is converted with its dtype given.
    """
    z = sr.zero(s)
    add = dense.ADD_UFUNC[s]
    frontier = d
    for k in range(1, rounds + 1):
        nxt = add(d, np.asarray(product(frontier), dtype=np.int64))
        changed = nxt != d
        frontier = np.where(changed, nxt, z)
        d = nxt
        if not changed.any():
            return d, frontier, k
    return d, frontier, rounds


def all_pairs_paths(a: Matrix, s: SemiringId) -> DenseMatrix:
    """A*; entry (i, j) is the optimal path value from i to j."""
    _square_size(a)
    if isinstance(a, CsrMatrix):
        sparse.check_bound(a, s)
        a = sparse.to_dense(a)
    return dense.closure(a, s)


def reachability(a: Matrix, s: SemiringId = SemiringId.BOOLEAN) -> DenseMatrix:
    """Boolean transitive closure; (i, j) == 1 iff j is reachable from i.

    A dense entry is an edge iff it differs from zero(s). A CSR matrix
    stores only entries that differ from its own semiring's zero, so its
    stored pattern is taken as the edge set, and s is not used. The edge
    list goes straight to ``structure.reach``: the result equals the
    Boolean closure of the 0/1 grid of those edges, and no other n x n
    array is built.
    """
    n = _square_size(a)
    if isinstance(a, CsrMatrix):
        s = a.semiring
    src, dst, _ = sparse.edges(a, s)
    return DenseMatrix._wrap(structure.reach(n, src, dst))


def bottleneck_paths(a: Matrix) -> DenseMatrix:
    """Max-min closure; (i, j) is the best minimum edge weight over paths."""
    return all_pairs_paths(a, SemiringId.MAXMIN)
