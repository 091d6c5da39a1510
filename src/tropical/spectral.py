"""Spectral analysis of max-plus matrices, on edge lists.

The unique eigenvalue of an irreducible max-plus matrix is its maximum cycle
mean, an exact rational. The edge-list core behind ``max_cycle_mean`` (and
the scheduler's cycle time) splits the graph into strongly connected
components with ``structure.components`` (Tarjan) and runs the source-based
Karp recurrence on the edges of every component that holds a cycle: D[k][v]
is the heaviest k-edge walk from a fixed source, one gather, add and segment
max per k into an int64 table, and the component's value is
max_v min_k (D[m][v] - D[k][v]) / (m - k). Exactness: every walk weight
fits in int64 (|D| <= m * 2**31), each ratio is held as an integer part and
a remainder over its denominator, so ratios compare with an integer compare
and a cross product below m**2, and the last maximum and the comparison of
components use Fraction. Floats never decide a maximum.

Each function takes a ``DenseMatrix`` or a max-plus ``CsrMatrix`` and reads
it as one edge list, the entries above NEG_INF; ``eigenvector`` multiplies on
it too, so a CSR input is never expanded to an n x n grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import sparse, structure
from .dense import _WIDE, _WIDE_CUT
from .errors import NoCycleError
from .graph import Matrix, relax
from .semiring import NEG_INF, SemiringId


class CycleMean(Fraction):
    """Exact rational cycle mean, a ``Fraction`` with an advisory connectivity
    flag.

    Equality, hashing and ordering are Fraction's and compare the value only;
    the flag records whether the source graph was strongly connected (when it
    is not, the eigenvalue-uniqueness guarantee does not apply). The text is
    always ``p/q``, also for a whole mean; arithmetic gives plain Fractions.
    """

    __slots__ = ("strongly_connected",)

    def __new__(cls, numerator: int, denominator: int, strongly_connected: bool = True):
        if denominator == 0:
            raise ValueError("cycle length must be positive")
        self = super().__new__(cls, numerator, denominator)
        self.strongly_connected = strongly_connected
        return self

    @property
    def as_float(self) -> float:
        return float(self)

    def as_fraction(self) -> Fraction:
        return Fraction(self.numerator, self.denominator)

    def __str__(self) -> str:
        return f"{self.numerator}/{self.denominator}"

    def __format__(self, spec: str) -> str:
        return format(str(self), spec)

    # Fraction's copy and pickle rebuild from the value alone and drop the flag
    def __reduce__(self):
        return (type(self), (self.numerator, self.denominator, self.strongly_connected))

    def __copy__(self):
        return type(self)(self.numerator, self.denominator, self.strongly_connected)

    def __deepcopy__(self, memo):
        return self.__copy__()


@dataclass
class EigenvectorResult:
    """Outcome of the power iteration; converged=False is the not-converged
    signal and still carries the last iterate and its residual."""

    vector: list[float]
    converged: bool
    iterations: int
    residual: float


def max_cycle_mean(a: Matrix) -> CycleMean | None:
    """Maximum cycle mean of a max-plus adjacency matrix, or None if acyclic.

    The strongly_connected flag on the result is advisory: when False, the
    value is still the exact maximum over all cycles, but it is not the
    unique eigenvalue of the whole matrix.
    """
    return _max_cycle_mean_edges(a.rows, *_edge_list(a))


def _edge_list(a: Matrix):
    """Source, target and int64 weight arrays of the entries above NEG_INF,
    sorted by source."""
    if a.rows != a.cols:
        raise ValueError("cycle mean requires a square matrix")
    return sparse.edges(a, SemiringId.MAXPLUS)


def _max_cycle_mean_edges(n: int, src, dst, w) -> CycleMean | None:
    """``max_cycle_mean`` of the graph on n vertices with edges
    (src[i], dst[i]) weighing w[i] (int64 arrays, duplicates allowed)."""
    labels = structure.components(n, src, dst)
    cyclic = structure.cyclic(labels, src, dst)
    if not cyclic.any():
        return None
    # number the vertices of each component 0..size-1, keep the edges inside
    # cyclic components and sort them by (component, local destination)
    sizes = np.bincount(labels)
    order = np.argsort(labels, kind="stable")
    local = np.empty_like(labels)
    local[order] = np.arange(n) - (np.cumsum(sizes) - sizes)[labels[order]]
    comp = labels[src]
    keep = (comp == labels[dst]) & cyclic[comp]
    comp, w = comp[keep], w[keep]
    src, dst = local[src[keep]], local[dst[keep]]
    edges = np.lexsort((dst, comp))
    comp, src, dst, w = comp[edges], src[edges], dst[edges], w[edges]
    bounds = np.searchsorted(comp, np.arange(len(sizes) + 1))
    best = None
    for c in np.flatnonzero(cyclic).tolist():
        lo, hi = bounds[c], bounds[c + 1]
        cand = _karp(int(sizes[c]), src[lo:hi], dst[lo:hi], w[lo:hi])
        if best is None or cand > best:
            best = cand
    return CycleMean(best.numerator, best.denominator, strongly_connected=len(sizes) == 1)


def _karp(m: int, src: np.ndarray, dst: np.ndarray, w: np.ndarray) -> Fraction:
    """Maximum cycle mean of one strongly connected component.

    The m vertices are numbered 0..m-1 and the edges (duplicates allowed)
    are sorted by destination; every vertex has an in-edge. Row k of the
    table is the heaviest k-edge walk from vertex 0 to each vertex: one
    gather, one add and one segment max per row. A missing walk starts at
    the wide bottom -_WIDE = -2**61 and drifts by at most m * 2**31, so for
    m < 2**29 it stays below -_WIDE_CUT = -2**60 while every real walk,
    |weight| <= m * 2**31, stays above it.
    """
    starts = np.flatnonzero(np.r_[True, dst[1:] != dst[:-1]])
    d = np.full((m + 1, m), -_WIDE, dtype=np.int64)
    d[0, 0] = 0
    for k in range(1, m + 1):
        np.maximum.reduceat(d[k - 1][src] + w, starts, out=d[k])
    # per vertex v, the exact min over k of (d[m][v] - d[k][v]) / (m - k),
    # held as q + r/den with 0 <= r < den <= m: comparing two such values
    # needs only an integer compare and a cross product below m**2
    last = d[m]
    q = np.full(m, np.iinfo(np.int64).max)
    r = np.zeros(m, dtype=np.int64)
    den = np.ones(m, dtype=np.int64)
    for k in range(m):
        qk, rk = np.divmod(last - d[k], m - k)
        better = (d[k] > -_WIDE_CUT) & ((qk < q) | ((qk == q) & (rk * den < r * (m - k))))
        q[better] = qk[better]
        r[better] = rk[better]
        den[better] = m - k
    # every vertex with an m-edge walk has a shorter one (drop a cycle), so
    # its minimum is set; the maximum over those vertices is settled with
    # Fraction among the vertices that share the largest integer part
    reached = last > -_WIDE_CUT
    top = q[reached].max()
    tie = reached & (q == top)
    return int(top) + max(map(Fraction, r[tie].tolist(), den[tie].tolist()))


def critical_vertices(a: Matrix) -> frozenset[int]:
    """Vertices lying on a cycle whose mean equals the maximum cycle mean.

    With lambda = p/q, no cycle of the weights w' = q*w - p is positive and
    the critical ones weigh 0. Potentials pi, the heaviest walks from an
    all-zero start, lie in [0, n*q*2**32], so relax's NEG_INF marker stays
    free. A cycle is critical iff all of its edges are tight (pi_u + w' ==
    pi_v; Baccelli, Cohen, Olsder & Quadrat 1992): the critical vertices
    are those in the cyclic components of the tight subgraph.
    """
    n = a.rows
    src, dst, w = _edge_list(a)
    lam = _max_cycle_mean_edges(n, src, dst, w)
    if lam is None:
        raise NoCycleError("graph has no cycle")
    w = lam.denominator * w - lam.numerator

    def product(x):
        live = x[src] != NEG_INF
        out = np.full(n, NEG_INF, dtype=np.int64)
        np.maximum.at(out, dst[live], x[src[live]] + w[live])
        return out

    pi, _, _ = relax(np.zeros(n, dtype=np.int64), product, SemiringId.MAXPLUS, n)
    tight = pi[src] + w == pi[dst]
    src, dst = src[tight], dst[tight]
    labels = structure.components(n, src, dst)
    return frozenset(np.flatnonzero(structure.cyclic(labels, src, dst)[labels]).tolist())


def eigenvector(
    a: Matrix,
    lam: CycleMean,
    epsilon: float = 1e-9,
    max_iter: int | None = None,
) -> EigenvectorResult:
    """Power iteration v <- (A (x) v) - lambda with L-infinity convergence.

    A (x) v runs on the edge list in float64: entry i is the max of w + v[j]
    over the out-edges (i, j, w), -inf without one. A max of the same sums is
    exact in any order, so these are the floats of the row max over a dense
    grid, at O(n + m) memory.

    A critical graph of cyclicity c makes the raw iteration orbit with period
    c instead of settling; when a repeat of an earlier iterate is detected,
    the entry-wise max over one full period is returned, which is an exact
    fixed point of the normalized iteration.
    """
    if a.rows != a.cols:
        raise ValueError("eigenvector requires a square matrix")
    if lam is None:
        raise NoCycleError("no eigenvalue: graph has no cycle")
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ValueError("epsilon must be positive and finite")
    n = a.rows
    if max_iter is None:
        max_iter = 10 * n
    product = _edge_product(n, *_edge_list(a))
    lam_f = lam.as_float
    v = np.zeros(n, dtype=np.float64)
    # every iterate so far, one per row; the buffer doubles when full
    history = np.empty((8, n))
    history[0] = v
    count = 1
    iterations = 0
    for it in range(1, max_iter + 1):
        iterations = it
        v_new = product(v) - lam_f
        if _linf(v_new, v) <= epsilon:
            return EigenvectorResult(
                v_new.tolist(), True, it, _residual(product, v_new, lam_f)
            )
        # a repeat of an iterate before v closes a period; the latest one wins
        hits = np.flatnonzero(_distances(history[: count - 1], v_new) <= epsilon)
        if hits.size:
            merged = np.maximum(history[hits[-1] + 1 : count].max(axis=0), v_new)
            return EigenvectorResult(
                merged.tolist(), True, it, _residual(product, merged, lam_f)
            )
        if count == len(history):
            history = np.concatenate((history, np.empty_like(history)))
        history[count] = v_new
        count += 1
        v = v_new
    return EigenvectorResult(v.tolist(), False, iterations, _residual(product, v, lam_f))


def _edge_product(n: int, src: np.ndarray, dst: np.ndarray, w: np.ndarray):
    """x -> A (x) x in float64 for the edges (src[i], dst[i], w[i]), sorted
    by source: a gather, an add and one segment max per source."""
    w = w.astype(np.float64)
    starts = np.flatnonzero(np.diff(src, prepend=-1))
    rows = src[starts]

    def product(x: np.ndarray) -> np.ndarray:
        out = np.full(n, -np.inf)
        out[rows] = np.maximum.reduceat(w + x[dst], starts)
        return out

    return product


def _distances(rows: np.ndarray, v: np.ndarray) -> np.ndarray:
    """L-infinity distance from each row to v. Two -inf entries are equal;
    a NaN difference makes the distance NaN, which compares like infinity."""
    both_bot = np.isneginf(rows) & np.isneginf(v)
    with np.errstate(invalid="ignore"):
        diff = np.abs(rows - v)
    diff[both_bot] = 0.0
    return diff.max(axis=-1)


def _linf(u: np.ndarray, v: np.ndarray) -> float:
    dist = float(_distances(u, v))
    return math.inf if math.isnan(dist) else dist


def _residual(product, v: np.ndarray, lam_f: float) -> float:
    return _linf(product(v), lam_f + v)
