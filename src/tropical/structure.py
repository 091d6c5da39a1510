"""Graph structure on edge lists: strongly connected components, the
topological order of their condensation, reachability, and the levels of a
DAG.

A graph is n vertices and two equal-length integer arrays ``src`` and
``dst``, one entry per edge; duplicate edges and self-loops are allowed.
``components`` is Tarjan's algorithm (Tarjan 1972), run iteratively so that
deep graphs do not reach the recursion limit. Its labels come out in reverse
topological order: every edge between two components runs from the higher
label to the lower one, so visiting labels from the highest down is a
topological order of the condensation. ``reach``, the 0/1 Boolean closure,
visits them from the lowest up, so a component's successors are done before
it (Purdom 1970; Nuutila 1995). ``levels`` is one pass of Kahn's algorithm
(Kahn 1962): the longest-path level of every vertex no cycle reaches.
"""

from __future__ import annotations

import numpy as np


def _adjacency(n: int, src, dst) -> tuple[np.ndarray, np.ndarray]:
    """(succ, ptr), int64: the heads of the edges out of vertex u are
    succ[ptr[u]:ptr[u + 1]], in their order in the edge list."""
    src = np.asarray(src, dtype=np.int64)
    succ = np.asarray(dst, dtype=np.int64)[np.argsort(src, kind="stable")]
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=ptr[1:])
    return succ, ptr


def components(n: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Strongly connected component label of every vertex (int64, 0..c-1).

    The first component completed gets label 0; an edge u -> v between two
    components always has labels[u] > labels[v].
    """
    succ, ptr = _adjacency(n, src, dst)
    succ, ptr = succ.tolist(), ptr.tolist()
    index = [-1] * n
    low = [0] * n
    label = [-1] * n
    stack: list[int] = []
    count = 0
    comp = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = count
        count += 1
        stack.append(root)
        # the depth-first path, and for each vertex on it the next edge to scan
        path = [root]
        pos = [ptr[root]]
        while path:
            v = path[-1]
            i, end = pos[-1], ptr[v + 1]
            while i < end:
                w = succ[i]
                i += 1
                if index[w] < 0:
                    break
                if label[w] < 0 and index[w] < low[v]:
                    # w is still on the stack: it belongs to an open component
                    low[v] = index[w]
            else:
                path.pop()
                pos.pop()
                if low[v] == index[v]:
                    while True:
                        w = stack.pop()
                        label[w] = comp
                        if w == v:
                            break
                    comp += 1
                if path and low[v] < low[path[-1]]:
                    low[path[-1]] = low[v]
                continue
            pos[-1] = i
            index[w] = low[w] = count
            count += 1
            stack.append(w)
            path.append(w)
            pos.append(ptr[w])
    return np.array(label, dtype=np.int64)


def cyclic(labels: np.ndarray, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Per component: True iff it contains a cycle, that is, it has more than
    one vertex or a self-loop."""
    sizes = np.bincount(labels)
    out = sizes > 1
    out[labels[src[src == dst]]] = True
    return out


def levels(n: int, src, dst) -> np.ndarray:
    """Level of every vertex (int64): the most edges on a path that ends at
    it, or -1 for a vertex on a cycle (self-loops included) or downstream of
    one. Kahn's algorithm: a vertex is released once every edge into it, a
    duplicate once per copy, has been scanned, and its level is final then;
    out-edges are scanned in the order of release, a topological order."""
    succ, ptr = _adjacency(n, src, dst)
    succ, ptr = succ.tolist(), ptr.tolist()
    indegree = np.bincount(np.asarray(dst, dtype=np.int64), minlength=n)
    released = np.flatnonzero(indegree == 0).tolist()
    indegree = indegree.tolist()
    level = [0] * n
    for u in released:
        up = level[u] + 1
        for v in succ[ptr[u] : ptr[u + 1]]:
            if level[v] < up:
                level[v] = up
            indegree[v] -= 1
            if not indegree[v]:
                released.append(v)
    # a vertex left with an unscanned in-edge was never released
    return np.where(np.array(indegree) > 0, -1, np.array(level, dtype=np.int64))


def reach(n: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Reflexive-transitive closure as an n x n int32 array of 0/1: entry
    (i, j) is 1 iff j is reachable from i by zero or more edges.

    Every vertex of a component reaches the same set, so each component
    holds one packed bit row (``np.packbits`` order), set at first to its
    own vertices. In ascending label order every edge between components
    points to a lower label, whose row is already final, and a component's
    row ORs in the rows of its successors in one ``bitwise_or.reduce``.
    OR is idempotent, so duplicate condensation edges stay: grouping them by
    source label is enough. The rows expand to vertices by label.
    """
    labels = components(n, src, dst)
    c = int(labels.max()) + 1
    v = np.arange(n)
    rows = np.zeros((c, (n + 7) // 8), dtype=np.uint8)
    np.bitwise_or.at(rows, (labels, v >> 3), (0x80 >> (v & 7)).astype(np.uint8))
    lu, lv = labels[src], labels[dst]
    across = lu != lv
    succ, ptr = _adjacency(c, lu[across], lv[across])
    tails = np.flatnonzero(np.diff(ptr)).tolist()
    ptr = ptr.tolist()
    for u in tails:
        rows[u] |= np.bitwise_or.reduce(rows[succ[ptr[u] : ptr[u + 1]]], axis=0)
    return np.unpackbits(rows, axis=1, count=n)[labels].astype(np.int32)
