"""Seeded input generators: graph files and layered-DAG schedule files.

Every input the program sees is written by these functions from a
``numpy.random.Generator``; the same generator state gives byte-identical
files.
"""

from __future__ import annotations

import numpy as np


def random_edges(rng: np.random.Generator, n: int, degree: int, lo: int, hi: int):
    """n*degree edges with uniform endpoints and uniform weights in [lo, hi].

    Duplicate (u, v) pairs and self-loops are kept; the program combines
    duplicates with the semiring addition.
    """
    m = n * degree
    u = rng.integers(0, n, size=m)
    v = rng.integers(0, n, size=m)
    w = rng.integers(lo, hi + 1, size=m)
    return u, v, w


def graph_text(n: int, semiring: str, u, v, w) -> str:
    lines = [f"{n} {len(u)} {semiring}"]
    lines += [f"{a} {b} {c}" for a, b, c in zip(u.tolist(), v.tolist(), w.tolist())]
    return "\n".join(lines) + "\n"


def layered_dag(rng: np.random.Generator, n: int, preds: int, window: int, lo: int, hi: int):
    """Task durations and (src, dst) edges: each task after the first depends
    on ``preds`` distinct tasks among the ``window`` tasks before it."""
    durations = rng.integers(lo, hi + 1, size=n)
    edges = []
    for t in range(1, n):
        first = max(0, t - window)
        k = min(preds, t - first)
        for src in sorted(rng.choice(np.arange(first, t), size=k, replace=False).tolist()):
            edges.append((src, t))
    return durations, edges


def schedule_text(durations, edges) -> str:
    lines = [f"task {t} t{t} {d}" for t, d in enumerate(durations.tolist())]
    lines += [f"dep {a} {b}" for a, b in edges]
    return "\n".join(lines) + "\n"
