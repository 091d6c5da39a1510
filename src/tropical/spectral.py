"""Spectral analysis of max-plus matrices, on edge lists.

The unique eigenvalue of an irreducible max-plus matrix is its maximum cycle
mean, an exact rational. The edge-list core behind ``max_cycle_mean`` (and
the scheduler's cycle time) splits the graph into strongly connected
components with ``structure.components`` (Tarjan) and runs Howard policy
iteration (Cochet-Terrasson, Cohen, Gaubert, McGettrick & Quadrat 1998) on
the edges of every component that holds a cycle, all components at once:
one out-edge per vertex, its cycles and walks by pointer doubling, and
improvements by segment maxima over the edges sorted by source. Floats only
steer it. Each component's value p/q is the exact mean of a cycle of the
final policy, certified with integer potentials X for the weights q*w - p
(the policy walk weights to each cycle's root): X[src] >= q*w - p + X[dst]
on every edge, so no cycle beats p/q. Improvement stops after a fixed
number of rounds at the latest. A component whose final policy fails the
certificate, or whose potentials could leave int64 (m * (q*max|w| + |p|)
>= 2**62 for its m vertices), goes to a rolling Karp: two passes of the
recurrence D[k][v] (the heaviest k-edge walk from a fixed source) that hold
two rows at a time, with the value max_v min_k (D[m][v] - D[k][v]) / (m - k)
compared on integer parts, remainders and Fractions. Memory is O(n + m) for
n vertices and m edges; no array grows with the square of a component. Means
compare on integer parts, then as Fractions, so floats never decide a maximum.
The critical graph comes from the same certificate: ``critical_vertices``
keeps the edges that X makes tight in the components of maximum mean.

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
    (src[i], dst[i]) weighing w[i] (int64 arrays of int32-range weights,
    duplicates allowed)."""
    try:
        vertices, _, _, _, _, lam, top, _, _ = _cycle_means(n, src, dst, w)
    except NoCycleError:
        return None
    strong = len(top) == 1 and len(vertices) == n
    return CycleMean(lam.numerator, lam.denominator, strongly_connected=strong)


def _cycle_means(n: int, src, dst, w):
    """The cyclic vertices in component order with their component, the
    edges inside components on ids 0..k-1, the maximum cycle mean lambda,
    the components of mean lambda, the certified ones and X; or NoCycleError."""
    labels = structure.components(n, src, dst)
    cyclic = structure.cyclic(labels, src, dst)
    if not cyclic.any():
        raise NoCycleError("graph has no cycle")
    # number the vertices of the cyclic components 0..k-1, component by
    # component, and keep the edges inside them, sorted by source
    vertices = np.flatnonzero(cyclic[labels])
    vertices = vertices[np.argsort(labels[vertices], kind="stable")]
    k = len(vertices)
    ids = np.empty(n, dtype=np.int64)
    ids[vertices] = np.arange(k)
    keep = (labels[src] == labels[dst]) & cyclic[labels[src]]
    src, dst, w = ids[src[keep]], ids[dst[keep]], w[keep]
    edges = np.argsort(src, kind="stable")
    src, dst, w = src[edges], dst[edges], w[edges]
    # Howard runs on all components at once; a component whose value it
    # cannot certify goes to the rolling Karp
    firsts = np.flatnonzero(np.diff(labels[vertices], prepend=-1))
    p, q, certified, x = _certify(firsts, src, dst, w, *_howard(k, src, dst, w))
    ends = np.r_[firsts[1:], k]
    for i in np.flatnonzero(~certified).tolist():
        lo, hi = firsts[i], ends[i]
        e0, e1 = np.searchsorted(src, [lo, hi])
        mean = _karp(int(hi - lo), src[e0:e1] - lo, dst[e0:e1] - lo, w[e0:e1])
        p[i], q[i] = mean.numerator, mean.denominator
    # p/q is now each component's exact mean in lowest terms; a component
    # below the largest integer part is below the maximum
    whole = p // q
    best = whole == whole.max()
    lam = max(map(Fraction, p[best].tolist(), q[best].tolist()))
    top = (p == lam.numerator) & (q == lam.denominator)
    part = np.repeat(np.arange(len(firsts)), ends - firsts)
    return vertices, part, src, dst, w, lam, top, certified, x


# policy improvements before Howard's policy goes to the certificate as it is
_HOWARD_ROUNDS = 100
# the certificate's potentials and edge sums stay below this in magnitude
_CERTIFY_LIMIT = 2**62


def _howard(m: int, src: np.ndarray, dst: np.ndarray, w: np.ndarray):
    """Howard policy iteration (Cochet-Terrasson, Cohen, Gaubert, McGettrick
    & Quadrat 1998) on the m cyclic vertices of ``_max_cycle_mean_edges``,
    whose every edge joins two vertices of one strongly connected component,
    sorted by source: the final policy (one edge index per vertex) and its
    ``_policy_walks``.

    The first policy takes each vertex's heaviest out-edge, the lowest edge
    index on ties. Value determination gives every vertex the mean eta of
    the policy cycle its walk enters and the potential x = total - eta * dist
    of that walk, so x[v] = w - eta + x[succ v] along the policy and x is 0
    at each root. Improvement first moves every vertex that can gain on eta
    to the out-edge of the largest eta[dst]; when none can, it moves every
    vertex, among the edges of equal eta, to that of the largest
    w - eta + x[dst] when that beats x[v]. A new cycle can only form in the
    second step, and then its mean beats eta, so in exact arithmetic the
    iteration ends, with x a potential that no edge improves. Floats only
    steer it, and at most _HOWARD_ROUNDS improvements run: ``_certify``
    decides exactly.
    """
    starts = np.flatnonzero(np.r_[True, src[1:] != src[:-1]])
    edge = np.arange(len(src))
    vertex = np.arange(m)
    wf = w.astype(np.float64)
    scale = m * max(1, int(np.abs(w).max()))

    def first_max(values):
        """Each vertex's largest value and the lowest edge index holding it."""
        top = np.maximum.reduceat(values, starts)
        hit = np.where(values == top[src], edge, len(edge))
        return top, np.minimum.reduceat(hit, starts)

    _, policy = first_max(wf)
    for step in range(_HOWARD_ROUNDS + 1):
        succ = dst[policy]
        walks = _policy_walks(succ, w[policy])
        if step == _HOWARD_ROUNDS:
            break
        root, dist, total = walks
        # the mean of each policy cycle, at its root; the walk from succ[r]
        # to the root r goes round the rest of the cycle
        roots = np.flatnonzero(root == vertex)
        after = succ[roots]
        eta = np.zeros(m)
        eta[roots] = (w[policy[roots]] + total[after]) / (1 + dist[after])
        eta = eta[root]
        # each eta is the correctly rounded quotient of two integers below
        # 2**53 (for m < 2**22), so equal means are equal floats and a larger
        # mean is never a smaller float
        eta_dst = eta[dst]
        top, up = first_max(eta_dst)
        gain = top > eta
        if gain.any():
            policy = np.where(gain, up, policy)
            continue
        x = total - eta * dist
        eta_src = eta[src]
        value = np.where(eta_dst == eta_src, wf - eta_src + x[dst], -np.inf)
        top, up = first_max(value)
        # float noise in x stays far below this margin
        better = top > x + (scale + np.abs(x).max()) * 2.0**-44
        if not better.any():
            break
        policy = np.where(better, up, policy)
    return policy, *walks


def _policy_walks(succ: np.ndarray, c: np.ndarray):
    """For the policy graph v -> succ[v] of edge weights c: each vertex's
    root, the least vertex of the cycle its walk enters, and the number of
    steps and the int64 weight of the walk from it to that root.

    Pointer doubling, 2**k >= m steps at once: first the least vertex of a
    window of 2**k steps, which from a cycle vertex covers the whole cycle,
    and the vertex 2**k steps on, which is on a cycle; then the walks, with
    each root made a sink."""
    m = len(succ)
    rounds = (m - 1).bit_length()
    jump, low = succ, np.arange(m)
    for _ in range(rounds):
        low = np.minimum(low, low[jump])
        jump = jump[jump]
    root = low[jump]
    sink = root == np.arange(m)
    jump = np.where(sink, root, succ)
    dist = (~sink).astype(np.int64)
    total = np.where(sink, 0, c)
    for _ in range(rounds):
        total = total + total[jump]
        dist = dist + dist[jump]
        jump = jump[jump]
    return root, dist, total


def _certify(firsts, src, dst, w, policy, root, dist, total):
    """Per component (its vertices start at ``firsts``), the exact mean
    lambda = p/q of its best cycle of the policy and whether integer
    potentials prove lambda maximal; and per vertex, those potentials X.

    X = q*total - p*dist is the weight of each policy walk to its root under
    w' = q*w - p. When X[src] >= w' + X[dst] on every edge, any cycle,
    summed over that edge test, weighs <= 0: no mean beats lambda, which a
    policy cycle attains. (At a root the test bounds the policy cycle
    through it; elsewhere on the policy it holds with equality.)
    The test is made only where m * (q*max|w| + |p|) stays below
    _CERTIFY_LIMIT for the component's m vertices, which keeps every X and
    every edge sum in int64.
    """
    m = len(root)
    sizes = np.diff(np.r_[firsts, m])
    part = np.repeat(np.arange(len(firsts)), sizes)
    edge_runs = np.searchsorted(src, firsts)
    roots = np.flatnonzero(root == np.arange(m))
    after = dst[policy[roots]]
    sums, lengths = w[policy[roots]] + total[after], 1 + dist[after]
    # each component's roots form a run; take its first best float mean
    owner = part[roots]
    runs = np.flatnonzero(np.r_[True, owner[1:] != owner[:-1]])
    mean = sums / lengths
    index = np.arange(len(roots))
    hit = np.where(mean == np.maximum.reduceat(mean, runs)[owner], index, len(index))
    best = np.minimum.reduceat(hit, runs)
    common = np.gcd(sums[best], lengths[best])
    p, q = sums[best] // common, lengths[best] // common
    bounded = q * np.maximum.reduceat(np.abs(w), edge_runs) + np.abs(p) <= (
        (_CERTIFY_LIMIT - 1) // sizes
    )
    # unbounded components are not tested; p/q = 0/1 keeps their sums small
    p, q = np.where(bounded, p, 0), np.where(bounded, q, 1)
    pv, qv = p[part], q[part]
    x = qv * total - pv * dist
    tight = x[src] >= qv[src] * w - pv[src] + x[dst]
    return p, q, bounded & np.logical_and.reduceat(tight, edge_runs), x


def _karp(m: int, src: np.ndarray, dst: np.ndarray, w: np.ndarray) -> Fraction:
    """Maximum cycle mean of one component by Karp's recurrence, two rows at
    a time.

    Row k is the heaviest k-edge walk from vertex 0 to each vertex: one
    gather, one add and one segment max over the edges sorted by
    destination. The first pass rolls to row m; the second rolls rows
    0..m-1 again and keeps, per vertex, the exact min over k of
    (D[m][v] - D[k][v]) / (m - k) as q + r/den with 0 <= r < den <= m, so
    two of them compare with an integer compare and a cross product below
    m**2. A missing walk starts at the wide bottom -_WIDE = -2**61 and
    drifts by at most m * 2**31, so for m < 2**29 it stays below
    -_WIDE_CUT = -2**60 while every real walk, |weight| <= m * 2**31, stays
    above it.
    """
    order = np.argsort(dst, kind="stable")
    src, dst, w = src[order], dst[order], w[order]
    starts = np.flatnonzero(np.r_[True, dst[1:] != dst[:-1]])
    first = np.full(m, -_WIDE, dtype=np.int64)
    first[0] = 0
    last = first
    for _ in range(m):
        last = np.maximum.reduceat(last[src] + w, starts)
    q = np.full(m, np.iinfo(np.int64).max)
    r = np.zeros(m, dtype=np.int64)
    den = np.ones(m, dtype=np.int64)
    d = first
    for k in range(m):
        qk, rk = np.divmod(last - d, m - k)
        better = (d > -_WIDE_CUT) & ((qk < q) | ((qk == q) & (rk * den < r * (m - k))))
        q[better] = qk[better]
        r[better] = rk[better]
        den[better] = m - k
        d = np.maximum.reduceat(d[src] + w, starts)
    # every vertex with an m-edge walk has a shorter one (drop a cycle), so
    # its minimum is set; the maximum over those vertices is settled with
    # Fraction among the vertices that share the largest integer part
    reached = last > -_WIDE_CUT
    top = q[reached].max()
    tie = reached & (q == top)
    return int(top) + max(map(Fraction, r[tie].tolist(), den[tie].tolist()))


def critical_vertices(a: Matrix) -> frozenset[int]:
    """Vertices lying on a cycle whose mean equals the maximum cycle mean.

    With lambda = p/q, no cycle of w' = q*w - p is positive; the critical
    ones weigh 0 and lie in components of mean lambda. Under potentials pi
    with pi_u + w' <= pi_v there, a cycle is critical iff all its edges are
    tight (Baccelli, Cohen, Olsder & Quadrat 1992), so the critical vertices
    are those in the cyclic components of the tight subgraph. pi starts as
    the certificate's -X, a fixed point that ``relax`` ends in one round, or
    0 on a Karp component, which relaxes to its heaviest walks; a shift to a
    least pi of 0 per component keeps pi above the product's NEG_INF floor.
    Where certified, |X| < 2**62 keeps pi < 2**63 and every sum in int64; on
    a Karp component of m vertices pi < m*q*2**32 is not checked.
    """
    core = _cycle_means(a.rows, *_edge_list(a))
    vertices, part, src, dst, w, lam, top, certified, x = core
    keep = top[part[src]]
    src, dst, w = src[keep], dst[keep], lam.denominator * w[keep] - lam.numerator
    pi = np.where(certified[part], -x, 0)
    pi -= np.minimum.reduceat(pi, np.searchsorted(part, np.arange(len(top))))[part]

    def product(d):
        live = d[src] != NEG_INF
        out = np.full(len(d), NEG_INF, dtype=np.int64)
        np.maximum.at(out, dst[live], d[src[live]] + w[live])
        return out

    pi, _, _ = relax(pi, product, SemiringId.MAXPLUS, len(pi))
    tight = pi[src] + w == pi[dst]
    src, dst = src[tight], dst[tight]
    labels = structure.components(len(pi), src, dst)
    return frozenset(vertices[structure.cyclic(labels, src, dst)[labels]].tolist())


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
