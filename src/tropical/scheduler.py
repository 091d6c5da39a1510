"""Precedence-constrained scheduling over max-plus.

Edge lags are start-to-start delays: an edge (u, v, lag) forces
start_v >= start_u + lag. When a constraint is added without an explicit
lag it defaults to the predecessor's duration ("v starts after u finishes"),
which is the usual finish-to-start reading.

Earliest start times are the least solution of s = b (+) (s vecmat A) over
max-plus, b the ready times (Baccelli, Cohen, Olsder & Quadrat 1992). On an
acyclic edge set it is solved by forward substitution, one topological
level at a time, as a level-scheduled triangular solve. One pass of Kahn's
algorithm (``structure.levels``) both checks the edges for a cycle and gives
each task's level, the most edges on a path that ends at it. One ``vecmat``
per level, written into one int64 buffer with ``out=``, multiplies the rows
of that level's tasks, whose starts are final, so each task's row is
multiplied once. ``iterations`` reports the rounds that
Jacobi relaxation from b would run. Feedback edges (declared for cyclic,
repeating systems) are excluded from this solve; they only enter the
cycle-time / throughput analysis, where the minimum achievable period is
the maximum cycle mean of all the edges, feedback included, computed on the
edge list.

Every start and completion must lie in [0, FINITE_MAX]; ``solve`` raises
SaturationError for a time outside it rather than return a saturated one.

A TaskGraph keeps its edges as columns of Python ints. The int64 arrays of
``_edges`` are built from them on first use and kept on the graph until a
mutator drops them, so ``solve``, ``critical_path`` and ``cycle_time`` on one
graph state share one build. A lag past POS_INF is refused by ``solve`` and
``cycle_time`` as the constraint matrix refuses it, named from the Python
column, so a lag past the int64 range is named as given too.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from . import dense, structure
from .dense import DenseMatrix
from .errors import CycleInAcyclicGraphError, NoCycleError, SaturationError
from .semiring import FINITE_MAX, NEG_INF, POS_INF, SemiringId
from .spectral import CycleMean, _max_cycle_mean_edges


@dataclass
class _Edge:
    src: int
    dst: int
    lag: int
    feedback: bool = False


@dataclass
class ScheduleResult:
    start: list[int]
    completion: list[int]
    makespan: int
    iterations: int


class TaskGraph:
    """Mutable task-graph builder; solve() snapshots are immutable.

    The edges are kept as columns in the order they were added: ``src``,
    ``dst`` and ``lag`` hold Python ints and ``feedback`` a flag per edge.
    ``edges`` reads them back as ``_Edge`` values. The int64 arrays that
    ``solve``, ``critical_path`` and ``cycle_time`` read are built from the
    columns on first use and kept until the graph changes: ``add_task``,
    ``add_constraint`` and ``add_feedback`` drop them, together with the
    last solve, which critical_path(g) reads. A refused change drops
    neither.
    """

    def __init__(self, cyclic: bool = False):
        self.cyclic = cyclic
        self.names: list[str] = []
        self.durations: list[int] = []
        self.ready: list[int] = []
        self.src: list[int] = []
        self.dst: list[int] = []
        self.lag: list[int] = []
        self.feedback: list[bool] = []
        self._changed()

    def _changed(self) -> None:
        self._last_result = None
        self._arrays = None

    @property
    def n(self) -> int:
        return len(self.names)

    @property
    def edges(self) -> list[_Edge]:
        return list(map(_Edge, self.src, self.dst, self.lag, self.feedback))

    def add_task(self, name: str, duration: int, ready: int = 0) -> int:
        duration, ready = operator.index(duration), operator.index(ready)
        if duration < 0:
            raise ValueError(f"task {name!r}: duration must be non-negative")
        if ready < 0:
            raise ValueError(f"task {name!r}: ready time must be non-negative")
        self.names.append(name)
        self.durations.append(duration)
        self.ready.append(ready)
        self._changed()
        return self.n - 1

    def _check_id(self, t: int) -> int:
        t = operator.index(t)
        if not 0 <= t < self.n:
            raise ValueError(f"task id {t} out of range (have {self.n} tasks)")
        return t

    def _add_edge(self, src: int, dst: int, lag: int, feedback: bool) -> None:
        if lag < 0:
            raise ValueError("lag must be non-negative")
        self.src.append(src)
        self.dst.append(dst)
        self.lag.append(lag)
        self.feedback.append(feedback)
        self._changed()

    def add_constraint(self, src: int, dst: int, lag: int | None = None) -> None:
        """Require start_dst >= start_src + lag; lag defaults to duration(src)."""
        src, dst = self._check_id(src), self._check_id(dst)
        lag = self.durations[src] if lag is None else operator.index(lag)
        self._add_edge(src, dst, lag, False)

    def add_feedback(self, src: int, dst: int, lag: int) -> None:
        """Declare a feedback edge for a repeating system; implies cyclic."""
        src, dst = self._check_id(src), self._check_id(dst)
        self._add_edge(src, dst, operator.index(lag), True)
        self.cyclic = True


# a lag past this is held as this in the int64 edge arrays; solve and
# cycle_time refuse every lag past POS_INF, naming it from the Python column
_LAG_CAP = 1 << 62


def _edges(g: TaskGraph, include_feedback: bool = False):
    """Source, target and lag arrays of the edges, read-only; feedback edges
    only when asked for. Built once per graph state and kept on the graph."""
    if g._arrays is None:
        lag = g.lag
        if max(lag, default=0) > _LAG_CAP:
            lag = [min(t, _LAG_CAP) for t in lag]
        every = np.array((g.src, g.dst, lag), dtype=np.int64)
        plain = every[:, ~np.array(g.feedback, dtype=bool)] if any(g.feedback) else every
        every.flags.writeable = plain.flags.writeable = False
        g._arrays = every, plain
    return g._arrays[0 if include_feedback else 1]


def _wide_lag(g: TaskGraph, include_feedback: bool) -> ValueError:
    """The constraint matrix's refusal of a lag past POS_INF: that of the
    first task pair holding one, in row-major order, and within it of the
    largest lag, named as given."""
    bad = [
        (u * g.n + v, -lag)
        for u, v, lag, feedback in zip(g.src, g.dst, g.lag, g.feedback)
        if lag > POS_INF and (include_feedback or not feedback)
    ]
    return ValueError(f"value {-min(bad)[1]} outside the 32-bit tropical range")


def _constraint_matrix(n: int, src, dst, lag) -> DenseMatrix:
    """Max-plus matrix of the edges: the largest lag from u to v, NEG_INF
    where there is none. DenseMatrix refuses a lag outside the 32-bit range."""
    grid = np.full((n, n), NEG_INF, dtype=np.int64)
    np.maximum.at(grid, (src, dst), lag)
    return DenseMatrix(grid)


def _check_acyclic(g: TaskGraph, src, dst) -> np.ndarray:
    """Reject a cycle among the non-feedback edges, naming every task on a
    cycle or downstream of one (the tasks no topological order can place).
    Returns each task's level, the most edges on a path that ends at it."""
    level = structure.levels(g.n, src, dst)
    stuck = np.flatnonzero(level < 0)
    if stuck.size:
        raise CycleInAcyclicGraphError(
            "precedence constraints contain a cycle "
            "(declare feedback edges for cyclic systems)",
            vertices=tuple(stuck.tolist()),
        )
    return level


def solve(g: TaskGraph, start_time: int = 0) -> ScheduleResult:
    """Earliest start/completion times; start_time offsets every ready time."""
    if g.n == 0:
        raise ValueError("task graph has no tasks")
    start_time = operator.index(start_time)
    src, dst, lag = _edges(g)
    level = _check_acyclic(g, src, dst)
    order = np.argsort(level[src], kind="stable")  # a topological order
    src, dst, lag = src[order], dst[order], lag[order]
    if lag.max(initial=0) > POS_INF:
        raise _wide_lag(g, include_feedback=False)
    a = _constraint_matrix(g.n, src, dst, lag)
    ready = [r + start_time for r in g.ready]
    _check_times(g, "start", ready)
    # a start below 0 is refused below. A ready time below 0 only matters
    # where no predecessor lifts the start to 0 or more, and there the start
    # stays below 0 whatever that ready time is: -1 stands for all of them
    floor = np.array([max(r, -1) for r in ready], dtype=np.int64)
    start = _forward_substitute(floor, a, level)
    low = np.flatnonzero(start < 0)
    if low.size:
        raise SaturationError(f"start of task {g.names[low[0]]!r} is below 0")
    # the product saturates at FINITE_MAX; the unclipped sums over the edges
    # show whether it did
    reach = start.copy()
    np.maximum.at(reach, dst, start[src] + lag)
    _check_times(g, "start", reach.tolist())
    cur = start.tolist()
    completion = [st + d for st, d in zip(cur, g.durations)]
    _check_times(g, "completion", completion)
    result = ScheduleResult(
        start=cur,
        completion=completion,
        makespan=max(completion),
        iterations=_rounds(start, floor, src, dst, lag),
    )
    g._last_result = result
    return result


def _forward_substitute(floor: np.ndarray, a: DenseMatrix, level: np.ndarray) -> np.ndarray:
    """x = floor (+) x vecmat A, level by level. Every predecessor of a task
    lies on a lower level, so the starts of a level are final once the levels
    below it are multiplied: one vecmat per level but the last, its vector
    holding that level's starts and NEG_INF elsewhere, multiplies each
    task's row once. Every product is written into one int64 buffer."""
    levels = np.split(np.argsort(level, kind="stable"), np.cumsum(np.bincount(level))[:-1])
    start = floor.copy()
    x = np.full(floor.size, NEG_INF, dtype=np.int64)
    y = np.empty(floor.size, dtype=np.int64)
    for tasks in levels[:-1]:
        x[tasks] = start[tasks]
        np.maximum(start, dense.vecmat(x, a, SemiringId.MAXPLUS, out=y), out=start)
        x[tasks] = NEG_INF
    return start


def _rounds(start: np.ndarray, floor: np.ndarray, src, dst, lag) -> int:
    """The rounds that Jacobi relaxation from the floor runs: the first round
    that changes nothing, at most n - 1.

    A task's start last changes in round hops, the fewest edges on a path
    that reaches it: 0 where the start is its floor, else 1 + the least hops
    over its tight in-edges (start_u + lag == start_v). No sum was clipped,
    so every start above its floor has a tight in-edge, and the edges come in
    a topological order.
    """
    n = start.size
    hops = np.where(start == floor, 0, n).tolist()
    tight = start[src] + lag == start[dst]
    for u, v in zip(src[tight].tolist(), dst[tight].tolist()):
        if hops[v] > hops[u] + 1:
            hops[v] = hops[u] + 1
    return min(max(hops) + 1, n - 1)


def _check_times(g: TaskGraph, what: str, times: list[int]) -> None:
    """Refuse the first of the times, each a lower bound, past FINITE_MAX."""
    for t, value in enumerate(times):
        if value > FINITE_MAX:
            raise SaturationError(
                f"{what} of task {g.names[t]!r} is at least {value}, past {FINITE_MAX}"
            )


def cycle_time(g: TaskGraph) -> CycleMean:
    """Minimum achievable period of the repeating system (max cycle mean of
    all the edges, feedback edges included)."""
    if g.n == 0:
        raise ValueError("task graph has no tasks")
    src, dst, lag = _edges(g, include_feedback=True)
    if lag.max(initial=0) > POS_INF:
        raise _wide_lag(g, include_feedback=True)
    lam = _max_cycle_mean_edges(g.n, src, dst, lag)
    if lam is None:
        raise NoCycleError("constraint graph has no cycle")
    return lam


def throughput(g: TaskGraph) -> float:
    """Completions per time unit: 1 / cycle_time, inf for a zero cycle time."""
    return _rate(cycle_time(g))


def _rate(lam: CycleMean) -> float:
    return math.inf if lam.numerator == 0 else lam.denominator / lam.numerator


def critical_path(g: TaskGraph, result: ScheduleResult | None = None) -> list[int]:
    """Task chain realizing the makespan, as task ids.

    Every hop is tight (start_dst == start_src + lag) and the final task
    completes at the makespan; ties are broken toward the lowest task id.
    A result of another task count, or one that breaks a constraint added
    after its solve, is refused; one that meets every constraint is still
    the least solution.
    """
    if result is None:
        result = g._last_result
    if result is None:
        raise ValueError("critical_path requires a completed solve")
    if len(result.start) != g.n:
        raise ValueError(
            f"critical_path: result has {len(result.start)} tasks but the graph has {g.n}"
        )
    src, dst, lag = _edges(g)
    start = np.array(result.start, dtype=np.int64)
    broken = np.flatnonzero(start[dst] < start[src] + lag)
    if broken.size:
        u, v = g.names[src[broken[0]]], g.names[dst[broken[0]]]
        raise ValueError(f"critical_path: result breaks the constraint {u!r} -> {v!r}")
    # the lowest-id tight predecessor of every task; n where there is none
    tight = start[dst] == start[src] + lag
    pred = np.full(g.n, g.n, dtype=np.int64)
    np.minimum.at(pred, dst[tight], src[tight])
    end = min(t for t in range(g.n) if result.completion[t] == result.makespan)
    path = [end]
    for _ in range(g.n):
        if pred[path[-1]] == g.n:
            break
        path.append(int(pred[path[-1]]))
    else:
        # n hops visit some task twice: a zero-lag cycle added after the solve
        _check_acyclic(g, src, dst)
    path.reverse()
    return path
