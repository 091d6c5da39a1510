"""Independent output oracles.

Each oracle is computed from the generator's edge arrays, never from the
program's own parser or kernels, and each ``check_*`` function takes the
``--json`` payload the CLI printed and returns ``None`` when it is correct or
a one-line reason when it is not. scipy and plain numpy do the work here; the
program under test uses neither scipy nor these code paths.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order, connected_components, dijkstra

POS_INF = 2**31 - 1
NEG_INF = -(2**31)

# The CLI rounds eigenvector entries to 6 decimals, so a residual recomputed
# from the printed vector can differ from the exact one by about 1e-6.
PRINTED_RESIDUAL_TOL = 1e-5


def _csr(n, u, v, w, reduce):
    """Adjacency as CSR with duplicate edges reduced by ``reduce`` (the
    semiring addition); scipy would otherwise sum them."""
    key = u.astype(np.int64) * n + v
    order = np.lexsort((w, key))
    key, w = key[order], w[order]
    first = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
    wr = reduce.reduceat(w, first)
    k = key[first]
    return csr_matrix((wr.astype(np.float64), (k // n, k % n)), shape=(n, n))


def _to_int(d: np.ndarray) -> np.ndarray:
    out = np.full(d.shape, POS_INF, dtype=np.int64)
    finite = np.isfinite(d)
    out[finite] = d[finite].astype(np.int64)
    return out


def minplus_paths(n, u, v, w, sources=None) -> np.ndarray:
    """Shortest-path values (Dijkstra; weights are positive), POS_INF when
    unreachable, 0 on the diagonal."""
    return _to_int(dijkstra(_csr(n, u, v, w, np.minimum), directed=True, indices=sources))


def reachability(n, u, v) -> np.ndarray:
    """1 where j is reachable from i by breadth-first search, 1 on the diagonal."""
    g = _csr(n, u, v, np.ones_like(u), np.maximum)
    out = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        out[i, breadth_first_order(g, i, directed=True, return_predecessors=False)] = 1
    return out


def bottleneck(n, u, v, w) -> np.ndarray:
    """Widest-path values by a max-min Floyd sweep; NEG_INF when unreachable,
    POS_INF on the diagonal."""
    d = np.full((n, n), NEG_INF, dtype=np.int64)
    np.maximum.at(d, (u, v), w)
    d[np.diag_indices(n)] = POS_INF
    for k in range(n):
        np.maximum(d, np.minimum(d[:, k, None], d[None, k, :]), out=d)
    return d


def strongly_connected(n, u, v) -> bool:
    g = _csr(n, u, v, np.ones_like(u), np.maximum)
    return connected_components(g, directed=True, connection="strong")[0] == 1


def _decode(x):
    if x == "inf":
        return POS_INF
    if x == "-inf":
        return NEG_INF
    return x


def _as_matrix(rows) -> np.ndarray:
    return np.array([[_decode(x) for x in r] for r in rows], dtype=np.int64)


def check_matrix(payload, expected: np.ndarray):
    got = _as_matrix(payload["matrix"])
    if got.shape != expected.shape:
        return f"matrix shape {got.shape}, expected {expected.shape}"
    bad = np.argwhere(got != expected)
    if bad.size:
        i, j = bad[0]
        return f"{len(bad)} entries differ, first ({i}, {j}): {got[i, j]} != {expected[i, j]}"
    return None


def check_distances(payload, expected: np.ndarray):
    got = np.array([_decode(x) for x in payload["distances"]], dtype=np.int64)
    if got.shape != expected.shape:
        return f"{got.size} distances, expected {expected.size}"
    bad = np.flatnonzero(got != expected)
    if bad.size:
        i = bad[0]
        return f"{bad.size} distances differ, first at {i}: {got[i]} != {expected[i]}"
    return None


def maxplus_matrix(n, u, v, w) -> np.ndarray:
    """Float adjacency for max-plus: duplicates reduced by max, -inf absent."""
    a = np.full((n, n), -np.inf)
    np.maximum.at(a, (u, v), w.astype(np.float64))
    return a


def cycle_mean_certificate(a: np.ndarray, p: int, q: int):
    """lambda = p/q is the maximum cycle mean iff q*A - p has no positive
    cycle and has a zero-weight cycle (max-plus Floyd sweep on the diagonal)."""
    if q <= 0:
        return f"denominator {q} is not positive"
    d = q * a - p
    for k in range(d.shape[0]):
        np.maximum(d, d[:, k, None] + d[None, k, :], out=d)
    top = d.diagonal().max()
    if top > 0:
        return f"{p}/{q} is below the maximum cycle mean"
    if top < 0:
        return f"{p}/{q} is above the maximum cycle mean"
    return None


def check_eig(payload, a: np.ndarray):
    p, q = payload["numerator"], payload["denominator"]
    if payload["eigenvalue"] != f"{p}/{q}":
        return f"eigenvalue {payload['eigenvalue']!r} does not match {p}/{q}"
    return cycle_mean_certificate(a, p, q)


def check_eigvec(payload, a: np.ndarray, eps: float):
    if payload["converged"] is not True:
        return "power iteration did not converge"
    if payload["residual"] == "inf" or payload["residual"] > eps:
        return f"reported residual {payload['residual']} exceeds {eps}"
    p, _, q = payload["eigenvalue"].partition("/")
    bad = cycle_mean_certificate(a, int(p), int(q))
    if bad:
        return bad
    vec = np.array([float(x) for x in payload["vector"]])
    if not np.all(np.isfinite(vec)):
        return "eigenvector of a strongly connected graph has an infinite entry"
    resid = np.abs((a + vec[None, :]).max(axis=1) - int(p) / int(q) - vec).max()
    if resid > PRINTED_RESIDUAL_TOL:
        return f"recomputed residual {resid:.3g} exceeds {PRINTED_RESIDUAL_TOL}"
    return None


def schedule_times(durations: np.ndarray, edges) -> np.ndarray:
    """Earliest start times by one pass in topological order (edges go from a
    lower to a higher task id, so id order is topological)."""
    dur = durations.tolist()
    start = [0] * len(dur)
    for src, dst in sorted(edges, key=lambda e: e[1]):
        start[dst] = max(start[dst], start[src] + dur[src])
    return np.array(start, dtype=np.int64)


def check_schedule(payload, durations: np.ndarray, edges, start: np.ndarray):
    tasks = payload["tasks"]
    got_start = np.array([t["start"] for t in tasks], dtype=np.int64)
    got_done = np.array([t["completion"] for t in tasks], dtype=np.int64)
    if got_start.shape != start.shape or np.any(got_start != start):
        return "start times differ from the topological longest-path pass"
    if np.any(got_done != start + durations):
        return "completion != start + duration"
    makespan = int((start + durations).max())
    if payload["makespan"] != makespan:
        return f"makespan {payload['makespan']} != {makespan}"
    ids = {t["name"]: t["id"] for t in tasks}
    path = [ids.get(name) for name in payload["critical_path"]]
    if not path or None in path:
        return "critical path names an unknown task"
    if start[path[0]] != 0:
        return "critical path does not begin at time 0"
    if start[path[-1]] + durations[path[-1]] != makespan:
        return "critical path does not end at the makespan"
    edge_set = set(edges)
    for src, dst in zip(path, path[1:]):
        if (src, dst) not in edge_set:
            return f"critical path hop {src}->{dst} is not a dependency"
        if start[dst] != start[src] + durations[src]:
            return f"critical path hop {src}->{dst} is not tight"
    return None
