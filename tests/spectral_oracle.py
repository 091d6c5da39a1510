"""Reference implementations for the spectral layer, kept as test oracles.

These are the original scalar versions: strongly connected components from
the Boolean reachability closure, Karp's recurrence over exact Python
integers on an adjacency grid, the critical vertices from an n^3 Floyd sweep
over the scaled matrix, and the power iteration that compares each iterate
with every earlier one through ``linf``. They are slow by design and define
the results the array versions in ``tropical.spectral`` and
``tropical.structure`` must reproduce.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from tropical import dense
from tropical.dense import DenseMatrix
from tropical.semiring import NEG_INF, SemiringId
from tropical.spectral import EigenvectorResult


def closure_components(arr: np.ndarray) -> list[list[int]]:
    """Strongly connected components via the Boolean reachability closure,
    each sorted, in order of their smallest vertex."""
    presence = (arr != NEG_INF).astype(np.int32)
    reach = dense.closure(DenseMatrix._wrap(presence), SemiringId.BOOLEAN)._arr
    mutual = (reach != 0) & (reach.T != 0)
    n = arr.shape[0]
    seen = [False] * n
    comps = []
    for i in range(n):
        if seen[i]:
            continue
        comp = [j for j in range(n) if mutual[i, j]]
        for j in comp:
            seen[j] = True
        comps.append(comp)
    return comps


def karp_component(w: list[list[int | None]]) -> Fraction:
    """Maximum cycle mean of one strongly connected component (m >= 1);
    w[u][v] is the edge weight or None."""
    m = len(w)
    d: list[list[int | None]] = [[None] * m for _ in range(m + 1)]
    d[0][0] = 0
    for k in range(1, m + 1):
        prev = d[k - 1]
        row = d[k]
        for u in range(m):
            pu = prev[u]
            if pu is None:
                continue
            for v in range(m):
                wuv = w[u][v]
                if wuv is None:
                    continue
                cand = pu + wuv
                if row[v] is None or cand > row[v]:
                    row[v] = cand
    best: Fraction | None = None
    dn = d[m]
    for v in range(m):
        if dn[v] is None:
            continue
        inner: Fraction | None = None
        for k in range(m):
            if d[k][v] is None:
                continue
            r = Fraction(dn[v] - d[k][v], m - k)
            if inner is None or r < inner:
                inner = r
        if inner is not None and (best is None or inner > best):
            best = inner
    assert best is not None, "strongly connected component without an m-edge walk"
    return best


def max_cycle_mean(a: DenseMatrix) -> tuple[Fraction, bool] | None:
    """(maximum cycle mean, strongly connected?) or None if acyclic."""
    rows = a.to_rows()
    comps = closure_components(a._arr)
    best: Fraction | None = None
    for comp in comps:
        if len(comp) == 1:
            i = comp[0]
            if rows[i][i] == NEG_INF:
                continue
            cand = Fraction(rows[i][i], 1)
        else:
            w = [[rows[u][v] if rows[u][v] != NEG_INF else None for v in comp] for u in comp]
            cand = karp_component(w)
        if best is None or cand > best:
            best = cand
    if best is None:
        return None
    return best, len(comps) == 1


def critical_vertices(a: DenseMatrix) -> frozenset[int] | None:
    """Vertices on a cycle whose mean is the maximum, or None if acyclic.

    On the integer matrix q*A - p (lambda = p/q from the scalar Karp) every
    cycle weighs <= 0 and the critical ones exactly 0, so after a Floyd
    sweep a vertex is critical iff its best closed walk weighs 0. "No walk"
    is an int64 bottom far below every real walk weight."""
    found = max_cycle_mean(a)
    if found is None:
        return None
    p, q = found[0].numerator, found[0].denominator
    bot, bot_cut = -(2**62), -(2**61)
    arr = a._arr.astype(np.int64)
    scaled = np.where(arr == NEG_INF, bot, q * arr - p)
    for k in range(a.rows):
        cand = scaled[:, k, None] + scaled[None, k, :]
        cand[cand < bot_cut] = bot
        np.maximum(scaled, cand, out=scaled)
    return frozenset(np.flatnonzero(np.diagonal(scaled) == 0).tolist())


def linf(u: np.ndarray, v: np.ndarray) -> float:
    both_bot = np.isneginf(u) & np.isneginf(v)
    with np.errstate(invalid="ignore"):
        diff = np.abs(u - v)
    diff[both_bot] = 0.0
    if np.any(np.isnan(diff)):
        return math.inf
    return float(diff.max())


def _residual(f: np.ndarray, v: np.ndarray, lam_f: float) -> float:
    return linf((f + v[None, :]).max(axis=1), lam_f + v)


def eigenvector(a: DenseMatrix, lam, epsilon: float = 1e-9, max_iter: int | None = None):
    """Power iteration with a scan of the whole iterate history per step."""
    n = a.rows
    if max_iter is None:
        max_iter = 10 * n
    f = a._arr.astype(np.float64)
    f[a._arr == NEG_INF] = -np.inf
    lam_f = lam.as_float
    v = np.zeros(n, dtype=np.float64)
    history = [v]
    iterations = 0
    for it in range(1, max_iter + 1):
        iterations = it
        v_new = (f + v[None, :]).max(axis=1) - lam_f
        if linf(v_new, v) <= epsilon:
            return EigenvectorResult(v_new.tolist(), True, it, _residual(f, v_new, lam_f))
        for c in range(2, len(history) + 1):
            if linf(v_new, history[-c]) <= epsilon:
                period = history[len(history) - c + 1 :] + [v_new]
                merged = period[0]
                for w in period[1:]:
                    merged = np.maximum(merged, w)
                return EigenvectorResult(merged.tolist(), True, it, _residual(f, merged, lam_f))
        history.append(v_new)
        v = v_new
    return EigenvectorResult(v.tolist(), False, iterations, _residual(f, v, lam_f))
