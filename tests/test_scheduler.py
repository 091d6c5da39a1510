import math
import random
import signal

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tropical as tr
from tropical import CycleMean, TaskGraph, dense, scheduler
from tropical.bench import random_task_graph
from tropical.graph import relax


def drone_graph():
    g = TaskGraph()
    for name, d in [
        ("IMU", 50), ("Baro", 30), ("GPS", 100), ("Fusion", 200),
        ("AttEst", 80), ("PosEst", 120), ("AltCtrl", 40), ("AttCtrl", 60),
        ("PosCtrl", 50), ("Mix", 30), ("PWM", 20), ("Telemetry", 150),
    ]:
        g.add_task(name, d)
    for src, dst in [
        (0, 3), (1, 3), (2, 3), (3, 4), (3, 5), (5, 6), (4, 7),
        (5, 8), (6, 9), (7, 9), (8, 9), (9, 10), (5, 11),
    ]:
        g.add_constraint(src, dst)
    return g


def production_graph(weld=20):
    g = TaskGraph()
    for name, d in [
        ("Input", 5), ("Mill", 15), ("Drill", 12), ("Grind", 10),
        ("Weld", weld), ("Finish", 8), ("QC", 6),
    ]:
        g.add_task(name, d)
    for src, dst in [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4), (4, 5), (5, 6)]:
        g.add_constraint(src, dst)
    g.add_feedback(6, 0, 6)
    return g


def rand_dag_graph(rng, n):
    g = TaskGraph()
    for t in range(n):
        g.add_task(f"T{t}", rng.randint(0, 20), ready=rng.randint(0, 5))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.4:
                lag = None if rng.random() < 0.5 else rng.randint(0, 15)
                g.add_constraint(i, j, lag)
    return g


def topological_order(g):
    """Kahn order of the tasks over the non-feedback edges, and the
    non-feedback in-edges of each task."""
    n = g.n
    incoming = [[] for _ in range(n)]
    indeg = [0] * n
    out = [[] for _ in range(n)]
    for e in g.edges:
        if e.feedback:
            continue
        incoming[e.dst].append(e)
        out[e.src].append(e.dst)
        indeg[e.dst] += 1
    order = [i for i in range(n) if indeg[i] == 0]
    pos = 0
    while pos < len(order):
        u = order[pos]
        pos += 1
        for v in out[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                order.append(v)
    return order, incoming


def longest_path_starts(g, start_time=0):
    """Topological-order earliest-start oracle."""
    starts = [r + start_time for r in g.ready]
    order, incoming = topological_order(g)
    for v in order:
        for e in incoming[v]:
            starts[v] = max(starts[v], starts[e.src] + e.lag)
    return starts


def critical_path_method(g, start_time=0):
    """Starts and relaxation rounds of ``solve`` from one topological pass.

    Each task carries (value, hops): its best start and the fewest edges
    among the paths that reach it, the 0-edge path holding solve's floor
    max(ready + start_time, -1). A task's start last changes in round hops
    of the relaxation, and the first round that changes nothing ends it, so
    solve runs min(max hops + 1, n - 1) rounds.
    """
    value = [max(r + start_time, -1) for r in g.ready]
    hops = [0] * g.n
    order, incoming = topological_order(g)
    for v in order:
        for e in incoming[v]:
            val, h = value[e.src] + e.lag, hops[e.src] + 1
            if val > value[v] or (val == value[v] and h < hops[v]):
                value[v], hops[v] = val, h
    return value, min(max(hops) + 1, g.n - 1)


def test_drone_case_study():
    g = drone_graph()
    r = tr.solve(g)
    assert r.makespan == 570
    assert r.iterations <= 11
    assert r.start[3] == 100          # Fusion waits for GPS
    assert r.completion[7] == 440     # AttCtrl
    assert r.completion[10] == 520    # PWM
    assert r.completion[11] == 570    # Telemetry
    names = [g.names[t] for t in tr.critical_path(g, r)]
    assert names == ["GPS", "Fusion", "PosEst", "Telemetry"]


def test_production_case_study():
    g = production_graph()
    r = tr.solve(g)
    assert r.makespan == 54
    lam = tr.cycle_time(g)
    assert lam == CycleMean(54, 5)
    assert abs(tr.throughput(g) - 0.09259259259) <= 1e-6
    names = [g.names[t] for t in tr.critical_path(g, r)]
    assert names == ["Input", "Mill", "Weld", "Finish", "QC"]


def test_production_what_if():
    g = production_graph(weld=15)
    assert tr.cycle_time(g) == CycleMean(49, 5)
    assert abs(tr.throughput(g) * 3600 - 367.0) < 1.0


def test_single_task():
    g = TaskGraph()
    g.add_task("only", 7, ready=3)
    r = tr.solve(g)
    assert r.start == [3]
    assert r.completion == [10]
    assert r.makespan == 10
    assert r.iterations == 0
    assert tr.critical_path(g, r) == [0]


def test_iterations_stop_at_the_first_stable_round():
    # one edge among five tasks: round 1 moves task 1, round 2 changes
    # nothing and ends the solve, well before the n-1 = 4 round cap
    g = TaskGraph()
    for k in range(5):
        g.add_task(f"t{k}", 3)
    g.add_constraint(0, 1)
    r = tr.solve(g)
    assert r.start == [0, 3, 0, 0, 0]
    assert r.iterations == 2


def test_start_time_offset():
    g = TaskGraph()
    a = g.add_task("a", 4, ready=2)
    b = g.add_task("b", 1)
    g.add_constraint(a, b)
    r = tr.solve(g, start_time=10)
    assert r.start == [12, 16]
    assert r.completion == [16, 17]


def test_default_lag_is_predecessor_duration():
    g = TaskGraph()
    a = g.add_task("a", 9)
    b = g.add_task("b", 1)
    g.add_constraint(a, b)
    r = tr.solve(g)
    assert r.start[b] == 9


def test_zero_lag_allows_simultaneous_start():
    g = TaskGraph()
    a = g.add_task("a", 9)
    b = g.add_task("b", 1)
    g.add_constraint(a, b, lag=0)
    r = tr.solve(g)
    assert r.start == [0, 0]


def test_self_edge_rejected():
    g = TaskGraph()
    a = g.add_task("a", 1)
    g.add_constraint(a, a, lag=0)
    with pytest.raises(tr.CycleInAcyclicGraphError):
        tr.solve(g)


def test_cycle_detected():
    g = TaskGraph()
    a = g.add_task("a", 1)
    b = g.add_task("b", 1)
    g.add_constraint(a, b)
    g.add_constraint(b, a)
    with pytest.raises(tr.CycleInAcyclicGraphError):
        tr.solve(g)


CYCLE_MESSAGE = (
    "precedence constraints contain a cycle (declare feedback edges for cyclic systems)"
)


def kahn_stuck(g):
    """Tasks that Kahn's algorithm never releases: every task on a cycle of
    non-feedback edges or downstream of one."""
    indeg = [0] * g.n
    out = [[] for _ in range(g.n)]
    for e in g.edges:
        if not e.feedback:
            out[e.src].append(e.dst)
            indeg[e.dst] += 1
    queue = [t for t in range(g.n) if indeg[t] == 0]
    while queue:
        for v in out[queue.pop()]:
            indeg[v] -= 1
            if indeg[v] == 0:
                queue.append(v)
    return tuple(t for t in range(g.n) if indeg[t] > 0)


def test_cycle_error_names_cycles_and_their_descendants():
    g = TaskGraph()
    for t in range(8):
        g.add_task(f"T{t}", 1)
    # 1 <-> 2 is a cycle that 0 feeds and 3 follows; 5 has a self-loop and
    # feeds 6; 4 and 7 are free, and the feedback edge 3 -> 0 does not count
    for src, dst in [(0, 1), (1, 2), (2, 1), (2, 3), (2, 3), (5, 5), (5, 6), (4, 7)]:
        g.add_constraint(src, dst)
    g.add_feedback(3, 0, 1)
    with pytest.raises(tr.CycleInAcyclicGraphError) as err:
        tr.solve(g)
    assert err.value.vertices == (1, 2, 3, 5, 6)
    assert str(err.value) == CYCLE_MESSAGE


def test_cycle_error_vertices_match_kahn():
    rng = random.Random(7)
    raised = 0
    for _ in range(200):
        g = TaskGraph()
        n = rng.randint(1, 9)
        for t in range(n):
            g.add_task(f"T{t}", rng.randint(0, 5))
        for _ in range(rng.randint(0, 2 * n)):
            src, dst = rng.randrange(n), rng.randrange(n)
            if rng.random() < 0.2:
                g.add_feedback(src, dst, 1)
            else:
                g.add_constraint(src, dst)
        stuck = kahn_stuck(g)
        if not stuck:
            tr.solve(g)
            continue
        raised += 1
        with pytest.raises(tr.CycleInAcyclicGraphError) as err:
            tr.solve(g)
        assert err.value.vertices == stuck
        assert str(err.value) == CYCLE_MESSAGE
    assert raised > 50


def test_feasibility_and_optimality_random():
    rng = random.Random(0)
    for _ in range(30):
        g = rand_dag_graph(rng, rng.randint(1, 8))
        start_time = rng.randint(0, 10)
        r = tr.solve(g, start_time)
        assert r.iterations <= max(0, g.n - 1)
        for e in g.edges:
            assert r.start[e.dst] >= r.start[e.src] + e.lag
        for t in range(g.n):
            assert r.start[t] >= g.ready[t] + start_time
            assert r.completion[t] == r.start[t] + g.durations[t]
        assert r.start == longest_path_starts(g, start_time)
        assert r.makespan == max(r.completion)


def test_makespan_monotone_in_durations():
    rng = random.Random(1)
    for _ in range(15):
        g = rand_dag_graph(rng, rng.randint(2, 7))
        base = tr.solve(g).makespan
        t = rng.randrange(g.n)
        g2 = TaskGraph()
        for i in range(g.n):
            g2.add_task(g.names[i], g.durations[i] + (5 if i == t else 0), g.ready[i])
        for e in g.edges:
            # re-derive default lags so the increased duration propagates
            explicit = e.lag if e.lag != g.durations[e.src] else None
            g2.add_constraint(e.src, e.dst, explicit)
        assert tr.solve(g2).makespan >= base


def test_cycle_time_matches_spectral():
    g = production_graph()
    lam = tr.cycle_time(g)
    n = g.n
    rows = [[tr.NEG_INF] * n for _ in range(n)]
    for e in g.edges:
        rows[e.src][e.dst] = max(rows[e.src][e.dst], e.lag)
    assert tr.max_cycle_mean(tr.DenseMatrix(rows)) == lam


def test_cycle_time_self_feedback():
    g = TaskGraph()
    a = g.add_task("a", 4)
    g.add_feedback(a, a, 4)
    assert tr.cycle_time(g) == CycleMean(4, 1)
    assert tr.throughput(g) == pytest.approx(0.25)


def test_no_cycle_error():
    g = TaskGraph()
    g.add_task("a", 1)
    with pytest.raises(tr.NoCycleError):
        tr.cycle_time(g)


def test_critical_path_tie_break():
    g = TaskGraph()
    for name in "abcd":
        g.add_task(name, 5)
    g.add_constraint(0, 2)
    g.add_constraint(1, 2)
    g.add_constraint(2, 3)
    r = tr.solve(g)
    # tasks 0 and 1 both tight into 2; the lower id wins
    assert tr.critical_path(g, r) == [0, 2, 3]


def test_a_changed_graph_drops_its_solve():
    g = TaskGraph()
    a, b, c = g.add_task("a", 5), g.add_task("b", 1), g.add_task("c", 2)
    g.add_constraint(a, c)
    r = tr.solve(g)
    assert tr.critical_path(g) == [0, 2]
    g.add_constraint(b, c, 10)
    with pytest.raises(ValueError, match="requires a completed solve"):
        tr.critical_path(g)
    with pytest.raises(ValueError, match="breaks the constraint 'b' -> 'c'"):
        tr.critical_path(g, r)
    tr.solve(g)
    assert tr.critical_path(g) == [1, 2]
    g.add_task("d", 1)
    with pytest.raises(ValueError, match="requires a completed solve"):
        tr.critical_path(g)
    tr.solve(g)
    g.add_feedback(c, a, 0)
    with pytest.raises(ValueError, match="requires a completed solve"):
        tr.critical_path(g)


def test_critical_path_refuses_a_result_of_fewer_tasks():
    g = TaskGraph()
    a, b, c = g.add_task("a", 5), g.add_task("b", 1), g.add_task("c", 2)
    g.add_constraint(a, c)
    r = tr.solve(g)
    g.add_task("d", 1)
    with pytest.raises(ValueError, match="result has 3 tasks but the graph has 4"):
        tr.critical_path(g, r)


def test_critical_path_walks_a_result_that_meets_a_later_slack_constraint():
    # a result that meets every current constraint is still the least one
    g = TaskGraph()
    a, b, c = g.add_task("a", 5), g.add_task("b", 1), g.add_task("c", 2)
    g.add_constraint(a, c)
    r = tr.solve(g)
    g.add_constraint(b, c, 3)
    assert tr.critical_path(g, r) == tr.critical_path(g, tr.solve(g)) == [0, 2]


def _timed_out(signum, frame):
    raise TimeoutError("critical_path did not return within 5 s")


def test_critical_path_refuses_a_zero_lag_cycle_added_after_the_solve():
    # the result meets both constraints, so only the walk can find the cycle;
    # the alarm turns a walk that never ends into a failure, not a hang
    g = TaskGraph()
    a, b = g.add_task("a", 0), g.add_task("b", 0)
    g.add_constraint(a, b, 0)
    r = tr.solve(g)
    g.add_constraint(b, a, 0)
    previous = signal.signal(signal.SIGALRM, _timed_out)
    signal.setitimer(signal.ITIMER_REAL, 5)
    try:
        with pytest.raises(tr.CycleInAcyclicGraphError) as walk:
            tr.critical_path(g, r)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    with pytest.raises(tr.CycleInAcyclicGraphError) as solve:
        tr.solve(g)
    assert walk.value.vertices == solve.value.vertices == (0, 1)


def test_a_refused_change_keeps_the_solve():
    g = TaskGraph()
    a = g.add_task("a", 5)
    tr.solve(g)
    with pytest.raises(ValueError):
        g.add_constraint(a, 3)
    with pytest.raises(ValueError):
        g.add_task("bad", -1)
    assert tr.critical_path(g) == [0]


def test_validation_errors():
    g = TaskGraph()
    with pytest.raises(ValueError):
        g.add_task("bad", -1)
    a = g.add_task("a", 1)
    with pytest.raises(ValueError):
        g.add_constraint(a, 7)
    with pytest.raises(ValueError):
        g.add_constraint(a, a, lag=-2)
    with pytest.raises(ValueError):
        tr.critical_path(TaskGraph())


# -- starts and completions past the finite range --------------------------------

def chained(durations, ready=0):
    g = TaskGraph()
    for t, d in enumerate(durations):
        g.add_task("abcdefgh"[t], d, ready=ready if t == 0 else 0)
    for t in range(1, len(durations)):
        g.add_constraint(t - 1, t)
    return g


def test_chained_starts_past_the_finite_range_raise():
    # the third start is 3e9: it used to print as 2147483646, with a
    # makespan of 3647483646 past int32
    with pytest.raises(tr.SaturationError, match="'c'"):
        tr.solve(chained([1_500_000_000] * 3))


def test_a_completion_past_the_finite_range_raises():
    with pytest.raises(tr.SaturationError, match="completion of task 'a'"):
        tr.solve(chained([5], ready=tr.FINITE_MAX - 4))
    with pytest.raises(tr.SaturationError, match="completion of task 'b'"):
        tr.solve(chained([tr.FINITE_MAX - 9, 10]))


def test_times_at_the_ends_of_the_finite_range_are_kept():
    r = tr.solve(chained([tr.FINITE_MAX - 7, 7]))
    assert r.start == [0, tr.FINITE_MAX - 7]
    assert r.makespan == tr.FINITE_MAX
    r = tr.solve(chained([0, 0]), start_time=tr.FINITE_MAX)
    assert r.start == r.completion == [tr.FINITE_MAX] * 2


def test_a_ready_time_past_the_finite_range_raises():
    with pytest.raises(tr.SaturationError, match="start of task 'a'"):
        tr.solve(chained([0]), start_time=tr.FINITE_MAX + 1)
    # refused before the relaxation, which takes no value past POS_INF
    with pytest.raises(tr.SaturationError, match="start of task 'a' is at least 2147483651"):
        tr.solve(chained([0, 0]), start_time=tr.FINITE_MAX + 5)


def test_a_negative_start_raises_unless_a_predecessor_lifts_it():
    with pytest.raises(tr.SaturationError, match="start of task 'a' is below 0"):
        tr.solve(chained([4, 1]), start_time=-3)
    with pytest.raises(tr.SaturationError, match="start of task 'a' is below 0"):
        tr.solve(chained([4, 1]), start_time=tr.FINITE_MIN - 5)
    # b's ready time is -3, but a, ready at 5 - 3, lifts b's start to 6
    r = tr.solve(chained([4, 1], ready=5), start_time=-3)
    assert r.start == [2, 6]


def test_a_lag_outside_the_32_bit_range_is_refused():
    # the constraint matrix is an int32 DenseMatrix, which checks its values
    g = chained([1, 1])
    g.add_constraint(0, 1, 2**31)
    with pytest.raises(ValueError, match="value 2147483648 outside the 32-bit tropical range"):
        tr.solve(g)
    g = chained([1, 1])
    g.add_feedback(1, 0, 2**31)
    with pytest.raises(ValueError, match="value 2147483648 outside the 32-bit tropical range"):
        tr.cycle_time(g)


def test_a_lag_outside_the_32_bit_range_exits_1(tmp_path, capsys):
    from tropical.cli import run

    path = tmp_path / "big.sched"
    path.write_text("task 0 a 1\ntask 1 b 1\ndep 0 1 2147483648\n")
    assert run(["schedule", str(path)]) == 1
    assert capsys.readouterr().err == (
        "error: value 2147483648 outside the 32-bit tropical range\n"
    )


def test_a_zero_cycle_time_has_infinite_throughput():
    g = TaskGraph()
    a = g.add_task("a", 3)
    g.add_feedback(a, a, 0)
    assert tr.cycle_time(g) == CycleMean(0, 1)
    assert tr.throughput(g) == math.inf


@st.composite
def cyclic_task_graphs(draw, max_n=10):
    """Task graphs with forward constraints, some repeated with another lag,
    and feedback edges, self-loops included; lags up to POS_INF."""
    n = draw(st.integers(1, max_n))
    g = TaskGraph()
    for t in range(n):
        g.add_task(f"t{t}", draw(st.integers(0, 20)))
    lags = st.one_of(st.integers(0, 30), st.sampled_from([tr.FINITE_MAX, tr.POS_INF]))
    vertex = st.integers(0, n - 1)
    for u, v in draw(st.lists(st.tuples(vertex, vertex), max_size=3 * n)):
        if u < v:
            g.add_constraint(u, v, draw(st.none() | lags))
            if draw(st.booleans()):
                g.add_constraint(u, v, draw(lags))
    for u, v in draw(st.lists(st.tuples(vertex, vertex), max_size=4)):
        g.add_feedback(u, v, draw(lags))
    return g


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(cyclic_task_graphs())
def test_cycle_time_is_the_cycle_mean_of_the_constraint_matrix(g):
    grid = scheduler._constraint_matrix(g.n, *scheduler._edges(g, include_feedback=True))
    expected = tr.max_cycle_mean(grid)
    if expected is None:
        with pytest.raises(tr.NoCycleError):
            tr.cycle_time(g)
        return
    lam = tr.cycle_time(g)
    assert (lam.numerator, lam.denominator, lam.strongly_connected) == (
        expected.numerator, expected.denominator, expected.strongly_connected
    )


def test_the_first_lag_outside_the_range_is_named_as_the_matrix_names_it():
    # row-major first task pair, and within it the largest lag
    g = chained([1, 1, 1])
    g.add_feedback(2, 0, 2**31 + 5)
    g.add_feedback(1, 0, 2**31 + 1)
    g.add_feedback(1, 0, 2**31 + 3)
    with pytest.raises(ValueError, match="value 2147483651 outside"):
        tr.cycle_time(g)
    src, dst, lag = scheduler._edges(g, include_feedback=True)
    with pytest.raises(ValueError, match="value 2147483651 outside"):
        scheduler._constraint_matrix(g.n, src, dst, lag)


@st.composite
def task_dags(draw, max_n=9):
    """Acyclic task graphs over a shuffled task order, with small durations
    and lags so that paths of different lengths tie, default and zero lags,
    repeated constraints, ready times and a start time."""
    n = draw(st.integers(1, max_n))
    g = TaskGraph()
    for t in range(n):
        g.add_task(f"t{t}", draw(st.integers(0, 3)), ready=draw(st.integers(0, 6)))
    rank = draw(st.permutations(range(n)))
    vertex = st.integers(0, n - 1)
    for u, v in draw(st.lists(st.tuples(vertex, vertex), max_size=3 * n)):
        if rank[u] < rank[v]:
            for _ in range(draw(st.integers(1, 2))):
                g.add_constraint(u, v, draw(st.none() | st.integers(0, 4)))
    return g, draw(st.integers(0, 3))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(task_dags())
def test_solve_runs_the_rounds_of_the_critical_path_method(case):
    g, start_time = case
    r = tr.solve(g, start_time)
    assert (r.start, r.iterations) == critical_path_method(g, start_time)


def test_critical_path_method_counts_the_fewest_hops_of_a_tie():
    # 0 -> 1 -> 2 reaches start 4 in two hops; the direct 0 -> 2 at lag 4
    # ties it in one, so round 2 is the first that changes nothing, below
    # the n - 1 = 3 cap
    g = TaskGraph()
    for k in range(4):
        g.add_task(f"t{k}", 2)
    g.add_constraint(0, 1)
    g.add_constraint(1, 2)
    assert critical_path_method(g) == ([0, 2, 4, 0], 3)
    g.add_constraint(0, 2, 4)
    assert critical_path_method(g) == ([0, 2, 4, 0], 2)
    r = tr.solve(g)
    assert (r.start, r.iterations) == ([0, 2, 4, 0], 2)


def level_count(g):
    """One more than the most edges on a path: the levels of the tasks."""
    order, incoming = topological_order(g)
    level = [0] * g.n
    for v in order:
        for e in incoming[v]:
            level[v] = max(level[v], level[e.src] + 1)
    return max(level) + 1


def task_chain(n):
    g = TaskGraph()
    for t in range(n):
        g.add_task(f"t{t}", t % 5)
    for t in range(1, n):
        g.add_constraint(t - 1, t)
    return g


@pytest.mark.parametrize(
    "build",
    [lambda: random_task_graph(2000, np.random.default_rng(3)), lambda: task_chain(300)],
    ids=["layered-2000", "chain-300"],
)
def test_solve_multiplies_each_task_row_once(build, monkeypatch):
    # work, not time: the vectors handed to vecmat hold at most n live
    # entries in all, one vecmat per level but the last
    g = build()
    calls, live = 0, 0
    vecmat = dense.vecmat

    def counting(x, a, s, **kwargs):
        nonlocal calls, live
        calls += 1
        live += int(np.count_nonzero(np.asarray(x) != tr.NEG_INF))
        return vecmat(x, a, s, **kwargs)

    monkeypatch.setattr(dense, "vecmat", counting)
    r = tr.solve(g)
    assert live <= g.n
    assert calls == level_count(g) - 1
    assert (r.start, r.iterations) == critical_path_method(g)


def jacobi_solve(g, start_time=0):
    """solve as Jacobi rounds: n - 1 rounds of graph.relax over dense.vecmat
    on the constraint matrix, with solve's checks in solve's order. Returns
    the starts, completions, makespan and rounds run."""
    src, dst, lag = scheduler._edges(g)
    scheduler._check_acyclic(g, src, dst)
    a = scheduler._constraint_matrix(g.n, src, dst, lag)
    ready = [r + start_time for r in g.ready]
    scheduler._check_times(g, "start", ready)
    floor = np.array([max(r, -1) for r in ready], dtype=np.int64)
    s = tr.SemiringId.MAXPLUS
    start, _, iterations = relax(floor, lambda x: dense.vecmat(x, a, s), s, g.n - 1)
    low = np.flatnonzero(start < 0)
    if low.size:
        raise tr.SaturationError(f"start of task {g.names[low[0]]!r} is below 0")
    reach = start.copy()
    np.maximum.at(reach, dst, start[src] + lag)
    scheduler._check_times(g, "start", reach.tolist())
    completion = [st + d for st, d in zip(start.tolist(), g.durations)]
    scheduler._check_times(g, "completion", completion)
    return start.tolist(), completion, max(completion), iterations


SATURATING = [0, 1, 3, 2**29, 2**30, tr.FINITE_MAX // 2, tr.FINITE_MAX - 5, tr.FINITE_MAX]


@st.composite
def saturating_dags(draw, max_n=7):
    """Acyclic task graphs whose durations, ready times and lags sit at the
    ends of the finite range, and a start time that may push ready times
    below 0 or past FINITE_MAX."""
    n = draw(st.integers(1, max_n))
    time = st.sampled_from(SATURATING)
    g = TaskGraph()
    for t in range(n):
        g.add_task(f"t{t}", draw(time), ready=draw(time))
    rank = draw(st.permutations(range(n)))
    vertex = st.integers(0, n - 1)
    for u, v in draw(st.lists(st.tuples(vertex, vertex), max_size=3 * n)):
        if rank[u] < rank[v]:
            g.add_constraint(u, v, draw(st.none() | time))
    return g, draw(st.sampled_from([0, -3, -(2**30), 5, 2**30]))


def outcome(solver, g, start_time):
    try:
        return solver(g, start_time)
    except Exception as err:
        return type(err), str(err)


def level_solve(g, start_time):
    r = tr.solve(g, start_time)
    return r.start, r.completion, r.makespan, r.iterations


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(saturating_dags())
def test_solve_matches_jacobi_relaxation_at_the_ends_of_the_range(case):
    g, start_time = case
    assert outcome(level_solve, g, start_time) == outcome(jacobi_solve, g, start_time)


@pytest.mark.parametrize(
    "call",
    [
        lambda g: g.add_task("c", 1.5),
        lambda g: g.add_task("c", 1, 0.5),
        lambda g: g.add_constraint(0, 1, 2.9),
        lambda g: g.add_constraint(0.9, 1, 3),
        lambda g: g.add_constraint(0, 1.0),
        lambda g: g.add_feedback(1, 0, 2.5),
        lambda g: scheduler.solve(g, 0.5),
    ],
    ids=["duration", "ready", "lag", "source", "target", "feedback-lag", "start-time"],
)
def test_task_graph_refuses_non_integer_times(call):
    g = TaskGraph()
    g.add_task("a", 2)
    g.add_task("b", 3, 1)
    g.add_constraint(0, 1)
    before = (list(g.durations), list(g.ready), list(g.edges), g.cyclic)
    with pytest.raises(TypeError):
        call(g)
    assert (g.durations, g.ready, g.edges, g.cyclic) == before


def test_task_graph_takes_numpy_integers_as_python_ints():
    g = TaskGraph()
    g.add_task("a", np.int64(2))
    g.add_task("b", np.uint8(3), np.int32(1))
    g.add_constraint(np.int64(0), np.int16(1), np.int64(4))
    g.add_feedback(np.uint32(1), 0, np.int8(5))
    assert g.durations == [2, 3] and g.ready == [0, 1]
    assert all(type(v) is int for v in g.durations + g.ready + [e.lag for e in g.edges])
    assert scheduler.solve(g, np.int64(7)) == scheduler.solve(g, 7)
    assert scheduler.solve(g, 7).start == [7, 11]


@pytest.mark.parametrize(
    "call", [scheduler.solve, scheduler.cycle_time], ids=["solve", "cycle_time"]
)
def test_an_empty_task_graph_is_refused(call):
    with pytest.raises(ValueError, match="^task graph has no tasks$"):
        call(TaskGraph())


WIDE = 10**20
WIDE_LAG_FILES = {
    "dep-lag": f"task 0 a 1\ntask 1 b 1\ndep 0 1 {WIDE}\n",
    "default-lag": f"task 0 a {WIDE}\ntask 1 b 1\ndep 0 1\n",
    "feedback-lag": f"task 0 a 1\ntask 1 b 1\ndep 0 1\nfeedback 1 0 {WIDE}\n",
}


@pytest.mark.parametrize("wide", [WIDE, 2**40], ids=["past-int64", "2^40"])
@pytest.mark.parametrize("case", sorted(WIDE_LAG_FILES))
def test_a_lag_past_int64_is_named_as_given(case, wide, tmp_path, capsys):
    # a lag past int64 is refused where a lag of 2^40 is, naming the number
    from tropical.cli import run

    text = WIDE_LAG_FILES[case].replace(str(WIDE), str(wide))
    message = f"value {wide} outside the 32-bit tropical range"
    g = tr.parse_schedule(text)
    if case == "feedback-lag":
        # feedback edges stay out of the solve; the cycle time refuses the lag
        tr.critical_path(g, tr.solve(g))
        call = tr.cycle_time
    else:
        call = tr.solve
    with pytest.raises(ValueError) as exc:
        call(g)
    assert str(exc.value) == message
    path = tmp_path / "wide.sched"
    path.write_text(text)
    assert run(["schedule", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_the_first_wide_lag_is_named_from_the_python_ints():
    # row-major first task pair, and within it the largest lag, as the matrix
    g = chained([1, 1, 1])
    g.add_constraint(1, 2, 2**70)
    g.add_constraint(0, 2, 2**64 + 1)
    g.add_constraint(0, 2, 2**65)
    g.add_constraint(0, 2, 2**31)
    g.add_feedback(0, 1, 2**80)
    with pytest.raises(ValueError, match=f"^value {2**65} outside"):
        tr.solve(g)
    with pytest.raises(ValueError, match=f"^value {2**80} outside"):
        tr.cycle_time(g)


def cache_graph():
    """a -> c with a's duration as lag, c -> a as a zero-lag feedback edge."""
    g = TaskGraph()
    a, b, c = g.add_task("a", 5), g.add_task("b", 1), g.add_task("c", 2)
    g.add_constraint(a, c)
    g.add_feedback(c, a, 0)
    return g


def test_the_edge_arrays_are_built_once_per_graph_state():
    g = cache_graph()
    r = tr.solve(g)
    arrays = g._arrays
    assert arrays is not None
    tr.critical_path(g, r)
    tr.cycle_time(g)
    tr.solve(g)
    assert g._arrays is arrays
    plain, every = scheduler._edges(g), scheduler._edges(g, include_feedback=True)
    assert plain.tolist() == [[0], [2], [5]]
    assert every.tolist() == [[0, 2], [2, 0], [5, 0]]
    assert not plain.flags.writeable and not every.flags.writeable


@pytest.mark.parametrize("change", ["add_task", "add_constraint", "add_feedback"])
def test_each_change_reaches_the_next_solve_critical_path_and_cycle_time(change):
    g = cache_graph()
    r = tr.solve(g)
    assert (r.start, tr.critical_path(g), tr.cycle_time(g)) == (
        [0, 0, 5], [0, 2], CycleMean(5, 2)
    )
    arrays = g._arrays
    if change == "add_task":
        d = g.add_task("d", 9, 1)
        # d's own constraint needs it in the graph first
        expected = ([0, 0, 5, 1], [3], CycleMean(5, 2))
    elif change == "add_constraint":
        g.add_constraint(1, 2, 9)
        expected = ([0, 0, 9], [1, 2], CycleMean(5, 2))
    else:
        g.add_feedback(2, 0, 4)
        expected = ([0, 0, 5], [0, 2], CycleMean(9, 2))
    assert g._arrays is None
    with pytest.raises(ValueError, match="requires a completed solve"):
        tr.critical_path(g)
    r = tr.solve(g)
    assert (r.start, tr.critical_path(g), tr.cycle_time(g)) == expected
    assert g._arrays is not arrays
    if change == "add_task":
        g.add_constraint(0, d)
        assert tr.solve(g).start == [0, 0, 5, 5]
        assert tr.critical_path(g) == [0, 3]


@pytest.mark.parametrize(
    "call",
    [
        lambda g: g.add_task("x", -1),
        lambda g: g.add_task("x", 1, 2.5),
        lambda g: g.add_constraint(0, 3),
        lambda g: g.add_constraint(-1, 0),
        lambda g: g.add_constraint(0, 1, -1),
        lambda g: g.add_constraint(0, 1, 1.5),
        lambda g: g.add_feedback(0, 7, 1),
        lambda g: g.add_feedback(0, 1, -2),
        lambda g: g.add_feedback(0, 1, None),
    ],
)
def test_a_refused_change_keeps_the_edges_and_their_arrays(call):
    g = cache_graph()
    r = tr.solve(g)
    edges, arrays = g.edges, g._arrays
    with pytest.raises((ValueError, TypeError)):
        call(g)
    assert g.edges == edges and g._arrays is arrays and g._last_result is r


@pytest.mark.parametrize("built", ["add", "parsed"])
def test_edges_are_edge_values_of_python_ints(built):
    if built == "add":
        g = cache_graph()
    else:
        g = tr.parse_schedule("task 2 c 2\ntask 0 a 5\ntask 1 b 1\ndep 0 2\nfeedback 2 0 0\n")
    assert g.edges == [scheduler._Edge(0, 2, 5), scheduler._Edge(2, 0, 0, feedback=True)]
    for e in g.edges:
        assert [type(v) for v in (e.src, e.dst, e.lag, e.feedback)] == [int, int, int, bool]
    with pytest.raises(AttributeError):
        g.edges = []
