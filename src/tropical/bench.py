"""Micro-benchmark harness for the dense kernels and CSR single-source paths.

Timings are measurements, never assertions: the harness reports elapsed
wall-clock per repetition plus MOPS (millions of semiring multiply-add
operations per second), counting 2*n^3 operations for an n x n product or
closure sweep, 2*n^2 for a matrix-vector product, and 2*m for ``sssp`` on a
graph of m edges. The last is one relaxation sweep over the edges, so the
``sssp`` MOPS is an edge throughput, not a count of the rounds run.
"""

from __future__ import annotations

import time
import zlib
from dataclasses import dataclass

import numpy as np

from . import dense, graph, sparse
from .dense import DenseMatrix
from .semiring import SemiringId

BENCH_OPS = ("matmul", "matvec", "closure", "sssp")

# shape of the sssp graph: uniform endpoints, SSSP_DEGREE * n edges, weights
# uniform in [1, 1000]
SSSP_DEGREE = 8

_ENTRY_LO = -1000
_ENTRY_HI = 1000


@dataclass
class BenchReport:
    op: str
    n: int
    semiring: SemiringId
    reps: int
    seed: int
    elapsed_us: list[float]
    mean_us: float
    mops: float
    checksum: int


def random_matrix(n: int, rng: np.random.Generator) -> DenseMatrix:
    """Dense n x n matrix with entries uniform in [-1000, 1000]."""
    arr = rng.integers(_ENTRY_LO, _ENTRY_HI + 1, size=(n, n), dtype=np.int32)
    return DenseMatrix._wrap(arr)


def random_vector(n: int, rng: np.random.Generator) -> list[int]:
    return rng.integers(_ENTRY_LO, _ENTRY_HI + 1, size=n, dtype=np.int32).tolist()


def random_graph(n: int, s: SemiringId, rng: np.random.Generator) -> sparse.CsrMatrix:
    """CSR graph of SSSP_DEGREE * n edges with uniform endpoints and weights
    in [1, 1000]. Max-plus weights are negated, so that every cycle is
    negative and the longest paths exist."""
    m = SSSP_DEGREE * n
    u = rng.integers(0, n, size=m)
    v = rng.integers(0, n, size=m)
    w = rng.integers(1, _ENTRY_HI + 1, size=m)
    if s is SemiringId.MAXPLUS:
        w = -w
    return sparse.from_triplets(n, n, np.column_stack((u, v, w)), s)


def _crc32(*arrays: np.ndarray) -> int:
    checksum = 0
    for arr in arrays:
        checksum = zlib.crc32(arr.tobytes(), checksum)
    return checksum


def run_bench(op: str, n: int, s: SemiringId, reps: int, seed: int = 0) -> BenchReport:
    if op not in BENCH_OPS:
        raise ValueError(f"unknown benchmark operation {op!r}")
    if n < 1:
        raise ValueError("size must be >= 1")
    if reps < 1:
        raise ValueError("reps must be >= 1")
    rng = np.random.default_rng(seed)
    if op == "sssp":
        g = random_graph(n, s, rng)
        source = int(rng.integers(n))
        checksum = _crc32(g.row_ptr, g.col_idx, g.values)
        work = lambda: graph.sssp(g, source, s)
        ops = 2 * g.nnz
    elif op == "matmul":
        a = random_matrix(n, rng)
        b = random_matrix(n, rng)
        checksum = _crc32(a._arr, b._arr)
        work = lambda: dense.matmul(a, b, s)
        ops = 2 * n**3
    elif op == "matvec":
        a = random_matrix(n, rng)
        x = random_vector(n, rng)
        checksum = _crc32(a._arr, np.array(x, dtype=np.int32))
        work = lambda: dense.matvec(a, x, s)
        ops = 2 * n**2
    else:
        a = random_matrix(n, rng)
        checksum = _crc32(a._arr)
        # raw sweep: the kernel is timed without the negative-cycle diagnosis
        work = lambda: dense._closure_kernel(a, s)
        ops = 2 * n**3
    elapsed = []
    for _ in range(reps):
        t0 = time.perf_counter()
        work()
        t1 = time.perf_counter()
        elapsed.append((t1 - t0) * 1e6)
    mean_us = sum(elapsed) / len(elapsed)
    mops = ops / mean_us if mean_us > 0 else float("inf")
    return BenchReport(
        op=op,
        n=n,
        semiring=s,
        reps=reps,
        seed=seed,
        elapsed_us=elapsed,
        mean_us=mean_us,
        mops=mops,
        checksum=checksum,
    )
