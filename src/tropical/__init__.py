"""Tropical (idempotent-semiring) linear algebra.

Five semirings (max-plus, min-plus, max-min, min-max, Boolean) over 32-bit
integer values with reserved infinity sentinels; dense and CSR matrices;
path/reachability/bottleneck solvers; spectral analysis (maximum cycle mean
and eigenvectors); and a precedence-constrained scheduler.

The benchmark harness, ``run_bench`` and ``BenchReport``, is imported on
first use.
"""

from .dense import (
    DenseMatrix,
    closure,
    closure_reference,
    elementwise_add,
    identity,
    matmul,
    matmul_reference,
    matpow,
    matvec,
    matvec_reference,
    transpose,
    vecmat,
    vecmat_reference,
)
from .errors import (
    CycleInAcyclicGraphError,
    GraphParseError,
    NegativeCycleError,
    NoCycleError,
    PositiveCycleError,
    SaturationError,
    TropicalError,
)
from .graph import all_pairs_paths, bottleneck_paths, reachability, sssp
from .io import format_graph, parse_graph, parse_schedule
from .scheduler import (
    ScheduleResult,
    TaskGraph,
    critical_path,
    cycle_time,
    solve,
    throughput,
)
from .semiring import (
    FINITE_MAX,
    FINITE_MIN,
    NEG_INF,
    POS_INF,
    SemiringId,
    add,
    mul,
    natural_leq,
    one,
    parse_semiring,
    zero,
)
from .sparse import (
    CsrMatrix,
    from_dense,
    from_triplets,
    memory_bytes,
    spmm,
    spmv,
    spmv_instrumented,
    to_dense,
)
from .spectral import (
    CycleMean,
    EigenvectorResult,
    critical_vertices,
    eigenvector,
    max_cycle_mean,
)

__all__ = [
    "BenchReport",
    "CsrMatrix",
    "CycleInAcyclicGraphError",
    "CycleMean",
    "DenseMatrix",
    "EigenvectorResult",
    "GraphParseError",
    "NegativeCycleError",
    "NoCycleError",
    "PositiveCycleError",
    "SaturationError",
    "ScheduleResult",
    "SemiringId",
    "TaskGraph",
    "TropicalError",
    "FINITE_MAX",
    "FINITE_MIN",
    "NEG_INF",
    "POS_INF",
    "add",
    "all_pairs_paths",
    "bottleneck_paths",
    "closure",
    "closure_reference",
    "critical_path",
    "critical_vertices",
    "cycle_time",
    "eigenvector",
    "elementwise_add",
    "format_graph",
    "from_dense",
    "from_triplets",
    "identity",
    "matmul",
    "matmul_reference",
    "matpow",
    "matvec",
    "matvec_reference",
    "max_cycle_mean",
    "memory_bytes",
    "mul",
    "natural_leq",
    "one",
    "parse_graph",
    "parse_schedule",
    "parse_semiring",
    "reachability",
    "run_bench",
    "solve",
    "spmm",
    "spmv",
    "spmv_instrumented",
    "sssp",
    "throughput",
    "to_dense",
    "transpose",
    "vecmat",
    "vecmat_reference",
    "zero",
]

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in ("BenchReport", "run_bench"):
        from . import bench

        return getattr(bench, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
