"""Micro-benchmark harness for the dense kernels and CSR single-source paths.

Timings are measurements, never assertions: the harness reports elapsed
wall-clock per repetition, their mean and median, and MOPS (millions of
semiring multiply-add operations per second, over the mean), counting 2*n^3
operations for an n x n product or closure sweep, 2*n^2 for a matrix-vector
product, 2*m for ``sssp`` on a graph of m edges, and 2*n*m for ``eig``
(``max_cycle_mean``) on a strongly connected graph of n vertices and m
distinct edges. The ``sssp`` count is one relaxation sweep over the edges,
so its MOPS is an edge throughput, not a count of the rounds run.
``bellman-ford`` is the paper's baseline for ``sssp``, min-plus only: the
textbook scalar Bellman-Ford (``bellman_ford``) on the edges of the same
graph from the same source, relaxing every edge in Python each round and
stopping at the first round that changes nothing. It counts 2m as ``sssp``
does, so the two MOPS compare directly, and its ``output_checksum`` equals
that of ``sssp``. The
``eig`` count is Karp-equivalent work, n rounds that each relax every edge
with one add and one max, kept so that MOPS compares across runs;
``max_cycle_mean`` itself runs Howard policy iteration (a few rounds over
the edges and an exact certificate, with a rolling two-row Karp only where
the certificate fails) in O(n + m) memory. ``eig`` times it on the CSR form
of the graph, the form ``parse_graph`` returns, while its
``checksum`` is that of the dense grid, laid out once before the
repetitions. ``eigvec`` times ``spectral.eigenvector`` on the same CSR
graph and its eigenvalue, computed once before the repetitions, and counts
2m per power-iteration step over the steps it runs. ``render`` times the
--json text of an n x n matrix
(``io.format_array``), and its MOPS counts the n^2 values rendered per
microsecond. ``parse`` times ``io.parse_graph`` into CSR on the graph-file
text of the ``sssp`` graph's edge records as drawn (``graph_text``), with
their duplicate (u, v) pairs kept, so the parse folds them as it does for a
generated input file; its MOPS counts the edge records read per
microsecond. ``schedule`` times ``scheduler.solve`` on a max-plus task
graph of n tasks (``random_task_graph``), each task after the first
depending on 3 distinct tasks among the 50 before it, with durations in
[1, 99] as default lags; it counts 2m for m constraints, one add and one
max each, the work of one pass in topological order, and digests the start
times; its repetitions share the graph's edge arrays, built on the first.
``parse-schedule`` times ``io.parse_schedule`` on the schedule-file text of
that task graph (``schedule_text``: a task record per task, then a dep
record without a lag per edge), counts the records read per microsecond,
and digests the parsed durations and edges.

The closure, matmul and render benchmarks take one of three input kinds:
``uniform`` (the default) fills every entry uniformly from [-1000, 1000];
``graph`` draws a sparse graph of 16n edges with weights in [1, 1000]
(negated for max-plus, 1 for Boolean), the shape of the CLI's closure
inputs; ``convergent`` fills every entry uniformly from [1, 1000] (negated
for max-plus), a dense graph with no cycle that improves on 0, so that its
min-plus and max-plus closures are ones ``closure()`` returns (those of
``uniform`` inputs diverge). matmul multiplies two such matrices. Render
renders the uniform or convergent matrix itself, or the closure of the
graph. Each report carries a CRC-32 of the inputs (``checksum``; for parse,
that of the text) and one of the last repetition's result
(``output_checksum``; for render, that of the rendered text; for parse,
that of the CSR arrays; for eigvec, that of the float64 vector; for
schedule, that of the start times; for parse-schedule, that of the
durations and the edges' sources, targets and lags), and the
number of worker threads the closure sweeps may use (``workers``).
"""

from __future__ import annotations

import statistics
import time
import zlib
from dataclasses import dataclass

import numpy as np

from . import dense, graph, scheduler, sparse, spectral, structure
from .dense import DenseMatrix
from .io import format_array, parse_graph, parse_schedule
from .semiring import POS_INF, TOKEN_OF, SemiringId

BENCH_OPS = (
    "matmul", "matvec", "closure", "sssp", "bellman-ford", "eig", "eigvec", "schedule", "render",
    "parse", "parse-schedule",
)
BENCH_INPUTS = ("uniform", "graph", "convergent")

# mean out-degree of the sssp, parse and eig graphs, and of the closure graphs
GRAPH_DEGREE = 8
CLOSURE_DEGREE = 16

_ENTRY_LO = -1000
_ENTRY_HI = 1000

# schedule graphs: each task's predecessors, the window they are drawn
# from, and the range of the durations
_SCHEDULE_PREDS = 3
_SCHEDULE_WINDOW = 50
_SCHEDULE_DURATION = (1, 99)

# eig graph weights, and how many draws may fail to be strongly connected
_EIG_WEIGHT = 100
_EIG_DRAWS = 1000


@dataclass
class BenchReport:
    op: str
    n: int
    semiring: SemiringId
    reps: int
    seed: int
    elapsed_us: list[float]
    mean_us: float
    median_us: float
    mops: float
    checksum: int
    kind: str
    output_checksum: int
    workers: int


def random_matrix(n: int, rng: np.random.Generator) -> DenseMatrix:
    """Dense n x n matrix with entries uniform in [-1000, 1000]."""
    arr = rng.integers(_ENTRY_LO, _ENTRY_HI + 1, size=(n, n), dtype=np.int32)
    return DenseMatrix._wrap(arr)


def random_vector(n: int, rng: np.random.Generator) -> list[int]:
    return rng.integers(_ENTRY_LO, _ENTRY_HI + 1, size=n, dtype=np.int32).tolist()


def random_edges(n: int, degree: int, lo: int, hi: int, rng: np.random.Generator):
    """degree * n edges (u, v, w) with uniform endpoints and weights uniform
    in [lo, hi]; duplicates and self-loops are kept."""
    m = degree * n
    u = rng.integers(0, n, size=m)
    v = rng.integers(0, n, size=m)
    w = rng.integers(lo, hi + 1, size=m)
    return u, v, w


def graph_edges(n: int, s: SemiringId, rng: np.random.Generator, degree: int = GRAPH_DEGREE):
    """degree * n edge records (u, v, w) with weights in [1, 1000]. Max-plus
    weights are negated, so that every cycle is negative and the longest
    paths exist."""
    u, v, w = random_edges(n, degree, 1, _ENTRY_HI, rng)
    if s is SemiringId.MAXPLUS:
        w = -w
    return u, v, w


def random_graph(
    n: int, s: SemiringId, rng: np.random.Generator, degree: int = GRAPH_DEGREE
) -> sparse.CsrMatrix:
    """CSR graph of the records of ``graph_edges``."""
    u, v, w = graph_edges(n, s, rng, degree)
    return sparse.from_triplets(n, n, np.column_stack((u, v, w)), s)


def graph_text(n: int, s: SemiringId, u, v, w) -> str:
    """Graph-file text of n vertices holding the records u, v, w in order."""
    lines = [f"{n} {len(w)} {TOKEN_OF[s]}"]
    lines += [f"{a} {b} {c}" for a, b, c in zip(u.tolist(), v.tolist(), w.tolist())]
    return "\n".join(lines) + "\n"


def convergent_matrix(n: int, s: SemiringId, rng: np.random.Generator) -> DenseMatrix:
    """Dense n x n matrix with entries uniform in [1, 1000], negated for
    max-plus: every cycle is positive (negative under max-plus), so the
    closure converges."""
    arr = rng.integers(1, _ENTRY_HI + 1, size=(n, n), dtype=np.int32)
    return DenseMatrix._wrap(-arr if s is SemiringId.MAXPLUS else arr)


def _operand(n: int, s: SemiringId, rng: np.random.Generator, kind: str) -> DenseMatrix:
    """Dense n x n operand of the given input kind."""
    if kind == "graph":
        return sparse.to_dense(random_graph(n, s, rng, CLOSURE_DEGREE))
    if kind == "convergent":
        return convergent_matrix(n, s, rng)
    return random_matrix(n, rng)


def random_eig_graph(n: int, rng: np.random.Generator) -> DenseMatrix:
    """Dense max-plus graph of GRAPH_DEGREE * n edges with weights in
    [-100, 100], drawn again until it is strongly connected (duplicate edges
    keep their maximum)."""
    for _ in range(_EIG_DRAWS):
        u, v, w = random_edges(n, GRAPH_DEGREE, -_EIG_WEIGHT, _EIG_WEIGHT, rng)
        if structure.components(n, u, v).max() == 0:
            a = sparse.from_triplets(n, n, np.column_stack((u, v, w)), SemiringId.MAXPLUS)
            return sparse.to_dense(a)
    raise ValueError(f"no strongly connected graph of size {n} in {_EIG_DRAWS} draws")


def random_task_graph(n: int, rng: np.random.Generator) -> scheduler.TaskGraph:
    """n tasks with durations uniform in [1, 99], each task t after the
    first depending on 3 distinct tasks among the 50 before it; each
    constraint's lag is its source's duration."""
    durations = rng.integers(_SCHEDULE_DURATION[0], _SCHEDULE_DURATION[1] + 1, size=n)
    edges = []
    for t in range(1, n):
        first = max(0, t - _SCHEDULE_WINDOW)
        k = min(_SCHEDULE_PREDS, t - first)
        for u in sorted(rng.choice(np.arange(first, t), size=k, replace=False).tolist()):
            edges.append((u, t))
    g = scheduler.TaskGraph()
    for t, d in enumerate(durations.tolist()):
        g.add_task(f"t{t}", d)
    for u, v in edges:
        g.add_constraint(u, v)
    return g


def schedule_text(g: scheduler.TaskGraph) -> str:
    """Schedule-file text of a task graph whose lags are its sources'
    durations: a task record per task, then a dep record without a lag per
    edge, in order."""
    lines = [f"task {t} {name} {d}" for t, (name, d) in enumerate(zip(g.names, g.durations))]
    lines += [f"dep {e.src} {e.dst}" for e in g.edges]
    return "\n".join(lines) + "\n"


def bellman_ford(n: int, edges: list[tuple[int, int, int]], source: int) -> list[int]:
    """Min-plus distances from source by textbook Bellman-Ford in plain
    Python: each round relaxes every edge (u, v, w) in turn, for at most
    n - 1 rounds, stopping at the first round that changes nothing. POS_INF
    marks an unreachable vertex. No cycle may be negative."""
    dist = [POS_INF] * n
    dist[source] = 0
    for _ in range(n - 1):
        changed = False
        for u, v, w in edges:
            if dist[u] != POS_INF and dist[u] + w < dist[v]:
                dist[v] = dist[u] + w
                changed = True
        if not changed:
            break
    return dist


def _crc32(*arrays: np.ndarray) -> int:
    checksum = 0
    for arr in arrays:
        checksum = zlib.crc32(arr.tobytes(), checksum)
    return checksum


def _digest(result) -> int:
    """CRC-32 of a kernel's result: the int32 values of a matrix or a
    vector, the row pointers, column indices and values of a CSR matrix, or
    the text of a cycle mean or a rendering, the float64 vector of an
    eigenvector, or the durations and edge columns of a task graph."""
    if isinstance(result, scheduler.TaskGraph):
        edges = [(e.src, e.dst, e.lag) for e in result.edges]
        return _crc32(
            np.array(result.durations, dtype=np.int64), np.array(edges, dtype=np.int64).T
        )
    if isinstance(result, scheduler.ScheduleResult):
        result = result.start
    if isinstance(result, spectral.EigenvectorResult):
        return _crc32(np.array(result.vector))
    if isinstance(result, sparse.CsrMatrix):
        return _crc32(result.row_ptr, result.col_idx, result.values)
    if isinstance(result, DenseMatrix):
        result = result._arr
    if isinstance(result, (np.ndarray, list)):
        return _crc32(np.asarray(result, dtype=np.int32))
    return zlib.crc32(str(result).encode())


def run_bench(
    op: str, n: int, s: SemiringId, reps: int, seed: int = 0, kind: str = "uniform"
) -> BenchReport:
    if op not in BENCH_OPS:
        raise ValueError(f"unknown benchmark operation {op!r}")
    if kind not in BENCH_INPUTS:
        raise ValueError(f"unknown benchmark input kind {kind!r}")
    if kind != "uniform" and op not in ("closure", "matmul", "render"):
        raise ValueError(
            f"the {kind} input kind applies to the closure, matmul and render benchmarks only"
        )
    if n < 1:
        raise ValueError("size must be >= 1")
    if reps < 1:
        raise ValueError("reps must be >= 1")
    rng = np.random.default_rng(seed)
    if op in ("eig", "eigvec"):
        if s is not SemiringId.MAXPLUS:
            raise ValueError(f"the {op} benchmark requires the maxplus semiring")
        grid = random_eig_graph(n, rng)
        checksum = _crc32(grid._arr)
        # timed on the CSR form, the one the CLI parses a graph file into
        a = sparse.from_dense(grid, SemiringId.MAXPLUS)
        if op == "eig":
            work = lambda: spectral.max_cycle_mean(a)
            ops = 2 * n * a.nnz
        else:
            lam = spectral.max_cycle_mean(a)
            work = lambda: spectral.eigenvector(a, lam)
            ops = 2 * a.nnz * work().iterations
    elif op in ("schedule", "parse-schedule"):
        if s is not SemiringId.MAXPLUS:
            raise ValueError(f"the {op} benchmark requires the maxplus semiring")
        g = random_task_graph(n, rng)
        if op == "schedule":
            edges = np.array([(e.src, e.dst) for e in g.edges], dtype=np.int64)
            checksum = _crc32(np.array(g.durations, dtype=np.int64), edges)
            work = lambda: scheduler.solve(g)
            ops = 2 * len(g.edges)
        else:
            text = schedule_text(g)
            checksum = zlib.crc32(text.encode())
            work = lambda: parse_schedule(text)
            ops = g.n + len(g.edges)
    elif op in ("sssp", "bellman-ford"):
        if op == "bellman-ford" and s is not SemiringId.MINPLUS:
            raise ValueError(f"the {op} benchmark requires the minplus semiring")
        g = random_graph(n, s, rng)
        source = int(rng.integers(n))
        checksum = _crc32(g.row_ptr, g.col_idx, g.values)
        if op == "sssp":
            work = lambda: graph.sssp(g, source, s)
        else:
            edges = list(zip(*(e.tolist() for e in sparse.edges(g, s))))
            work = lambda: bellman_ford(n, edges, source)
        ops = 2 * g.nnz
    elif op == "parse":
        u, v, w = graph_edges(n, s, rng)
        text = graph_text(n, s, u, v, w)
        checksum = zlib.crc32(text.encode())
        work = lambda: parse_graph(text)[0]
        ops = len(w)
    elif op == "matmul":
        a = _operand(n, s, rng, kind)
        b = _operand(n, s, rng, kind)
        checksum = _crc32(a._arr, b._arr)
        work = lambda: dense.matmul(a, b, s)
        ops = 2 * n**3
    elif op == "matvec":
        a = random_matrix(n, rng)
        x = random_vector(n, rng)
        checksum = _crc32(a._arr, np.array(x, dtype=np.int32))
        work = lambda: dense.matvec(a, x, s)
        ops = 2 * n**2
    elif op == "render":
        a = _operand(n, s, rng, kind)
        arr = dense._closure_kernel(a, s) if kind == "graph" else a._arr
        checksum = _crc32(arr)
        work = lambda: format_array(arr, as_json=True)
        ops = n * n
    else:
        a = _operand(n, s, rng, kind)
        checksum = _crc32(a._arr)
        # raw sweep: the kernel is timed without the negative-cycle diagnosis
        work = lambda: dense._closure_kernel(a, s)
        ops = 2 * n**3
    elapsed = []
    for _ in range(reps):
        t0 = time.perf_counter()
        result = work()
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
        median_us=statistics.median(elapsed),
        mops=mops,
        checksum=checksum,
        kind=kind,
        output_checksum=_digest(result),
        workers=dense._WORKERS,
    )
