"""The cycle-mean kernel behind ``max_cycle_mean`` and ``cycle_time``: Howard
policy iteration with an exact certificate, and the rolling Karp it falls
back to.

Both paths must give the scalar Karp oracle's value on multi-component
graphs, whichever path each component takes: the test lowers the round cap
(``_HOWARD_ROUNDS``) and the certificate's magnitude limit
(``_CERTIFY_LIMIT``) to send components to the fallback, and counts the
components each path settles. ``critical_vertices`` must give the Floyd
sweep's set on both paths, and on certified input its relaxation must end
after one round, counted through a wrapper of ``relax``. Memory is bounded
by a ``tracemalloc`` peak, not by the clock.
"""

import tracemalloc
from fractions import Fraction

import numpy as np
from hypothesis import given, settings, strategies as st

import spectral_oracle as oracle
import tropical as tr
from tropical import bench, scheduler, spectral
from tropical.semiring import FINITE_MAX, FINITE_MIN, SemiringId
from test_spectral_properties import check_critical_vertices, maxplus_matrix

# tie-heavy, small, and extreme weights (with a few small ones between)
WEIGHTS = {
    "ties": st.integers(-1, 1),
    "small": st.integers(-100, 100),
    "extreme": st.one_of(
        st.sampled_from([2**30, -(2**30), FINITE_MAX, FINITE_MIN]), st.integers(-2, 2)
    ),
}


@st.composite
def blocked_graphs(draw, weights, max_n=28):
    """n vertices in up to four blocks along a random order, a cycle through
    each block (a self-loop or none for a block of one), and more edges
    inside the blocks and forward between them: several components, most
    of them with cycles."""
    n = draw(st.integers(2, max_n))
    order = draw(st.permutations(range(n)))
    cuts = sorted(set(draw(st.lists(st.integers(1, n - 1), max_size=3))))
    rank = {}
    edges = []
    for b, block in enumerate(np.split(np.array(order), cuts)):
        block = block.tolist()
        rank.update(dict.fromkeys(block, b))
        if len(block) > 1 or draw(st.booleans()):
            ring_w = draw(st.lists(weights, min_size=len(block), max_size=len(block)))
            edges += zip(block, block[1:] + block[:1], ring_w)
    vertex = st.integers(0, n - 1)
    more = draw(st.lists(st.tuples(vertex, vertex, weights), min_size=n, max_size=3 * n))
    return n, edges + [(u, v, w) for u, v, w in more if rank[u] <= rank[v]]


# the kernel's settings: as shipped; no improvement round, so only a
# component whose heaviest-edge policy is optimal is certified; and a
# magnitude limit that turns away every component but the smallest
KERNELS = [{}, {"_HOWARD_ROUNDS": 0}, {"_CERTIFY_LIMIT": 2**12}]

MiB = 2**20


def test_both_paths_match_the_scalar_karp(monkeypatch):
    # components settled by the certificate and by Karp, per kernel setting
    paths = [{"certified": 0, "fallback": 0} for _ in KERNELS]
    setting = [0]
    certify, karp = spectral._certify, spectral._karp

    def counted_certify(*args):
        p, q, certified, x = certify(*args)
        paths[setting[0]]["certified"] += int(certified.sum())
        return p, q, certified, x

    def counted_karp(*args):
        paths[setting[0]]["fallback"] += 1
        return karp(*args)

    monkeypatch.setattr(spectral, "_certify", counted_certify)
    monkeypatch.setattr(spectral, "_karp", counted_karp)

    @settings(max_examples=90, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from(sorted(WEIGHTS)).flatmap(lambda k: blocked_graphs(WEIGHTS[k])))
    def check(graph):
        a = maxplus_matrix(*graph)
        expected = oracle.max_cycle_mean(a)
        for setting[0], kernel in enumerate(KERNELS):
            with monkeypatch.context() as patch:
                for name, value in kernel.items():
                    patch.setattr(spectral, name, value)
                for m in (a, tr.from_dense(a, SemiringId.MAXPLUS)):
                    lam = tr.max_cycle_mean(m)
                    got = None if lam is None else (lam.as_fraction(), lam.strongly_connected)
                    assert got == expected

    check()
    # as shipped, Howard settles every component; each lowered setting sends
    # some to Karp and still certifies others
    assert paths[0]["certified"] > 0 and paths[0]["fallback"] == 0
    assert all(p["certified"] > 0 and p["fallback"] > 0 for p in paths[1:])


def test_critical_vertices_match_the_floyd_sweep_on_both_paths(monkeypatch):
    # a certified component seeds the relaxation with its potentials, a
    # Karp component with zeros; the lowered settings send some to Karp
    fallback = [0] * len(KERNELS)
    setting = [0]
    karp = spectral._karp

    def counted_karp(*args):
        fallback[setting[0]] += 1
        return karp(*args)

    monkeypatch.setattr(spectral, "_karp", counted_karp)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from(sorted(WEIGHTS)).flatmap(lambda k: blocked_graphs(WEIGHTS[k])))
    def check(graph):
        a = maxplus_matrix(*graph)
        for setting[0], kernel in enumerate(KERNELS):
            with monkeypatch.context() as patch:
                for name, value in kernel.items():
                    patch.setattr(spectral, name, value)
                check_critical_vertices(a)

    check()
    assert fallback[0] == 0 and all(fallback[1:])


def test_components_whose_float_means_tie_compare_exactly():
    # rings of 4,095 and 4,096 vertices of means 2**30 + 1/4095 and
    # 2**30 + 1/4096, which round to the same float
    def cycle(lo, n):
        w = [2**30] * n
        w[0] += 1
        return [(lo + i, lo + (i + 1) % n, w[i]) for i in range(n)]

    for first, second in ((4095, 4096), (4096, 4095)):
        edges = np.array(cycle(0, first) + cycle(first, second))
        a = tr.from_triplets(8191, 8191, edges, SemiringId.MAXPLUS)
        assert float(2**30 + Fraction(1, 4095)) == float(2**30 + Fraction(1, 4096))
        assert tr.max_cycle_mean(a) == 2**30 + Fraction(1, 4095)


def test_an_optimal_first_policy_is_certified_without_improving(monkeypatch):
    # two components, 0 -> 1 -> 0 of mean 3/2 and the self-loop at 2 of
    # mean 1, joined by 1 -> 2; the heaviest out-edges already pick both
    # cycles, and the certificate settles both components without Karp
    src = np.array([0, 1, 1, 2], dtype=np.int64)
    dst = np.array([1, 0, 2, 2], dtype=np.int64)
    w = np.array([2, 1, -5, 1], dtype=np.int64)
    monkeypatch.setattr(spectral, "_HOWARD_ROUNDS", 0)
    monkeypatch.setattr(spectral, "_karp", None)
    assert spectral._max_cycle_mean_edges(3, src, dst, w) == Fraction(3, 2)


def ring(n: int, rng: np.random.Generator, weight: int = 100):
    w = rng.integers(-weight, weight + 1, size=n)
    edges = np.column_stack((np.arange(n), (np.arange(n) + 1) % n, w))
    return tr.from_triplets(n, n, edges, SemiringId.MAXPLUS), Fraction(int(w.sum()), n)


def peak_of(f):
    """f's result and the peak of the memory it traced."""
    tracemalloc.start()
    try:
        result = f()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def test_ring_cycle_mean_needs_no_square_table():
    # Karp's table was (n+1) x n int64 here: 129 MB
    a, mean = ring(4096, np.random.default_rng(21))
    lam, peak = peak_of(lambda: tr.max_cycle_mean(a))
    assert lam == mean and lam.strongly_connected
    assert peak < 16 * MiB


def test_certified_potentials_settle_the_relaxation_in_one_round(monkeypatch):
    # the certificate's potentials are a fixed point of critical_vertices'
    # relaxation; from zeros the ring takes 4,096 rounds and the graph 47
    rounds = []
    relax = spectral.relax

    def counted_relax(*args):
        d, frontier, k = relax(*args)
        rounds.append(k)
        return d, frontier, k

    monkeypatch.setattr(spectral, "relax", counted_relax)
    a, _ = ring(4096, np.random.default_rng(27), weight=1000)
    assert tr.critical_vertices(a) == frozenset(range(4096))
    g = bench.random_eig_graph(1024, np.random.default_rng(0))
    critical = tr.critical_vertices(g)
    assert rounds == [1, 1]
    # the same graph through Karp relaxes from zeros to the same set
    monkeypatch.setattr(spectral, "_CERTIFY_LIMIT", 0)
    assert tr.critical_vertices(g) == critical
    assert rounds[2] > 1


def layered_feedback_graph(tasks=5000, preds=3, window=50, feedback=8, seed=21):
    """Each task after the first few waits on 3 of the 50 before it; 8
    feedback edges run from late tasks back to early ones."""
    rng = np.random.default_rng(seed)
    g = tr.TaskGraph()
    for t in range(tasks):
        g.add_task(f"t{t}", int(rng.integers(1, 10)))
    for t in range(1, tasks):
        lo = max(0, t - window)
        for p in rng.choice(np.arange(lo, t), size=min(preds, t - lo), replace=False).tolist():
            g.add_constraint(p, t)
    for k in range(feedback):
        g.add_feedback(tasks - 1 - 97 * k, 13 * k, int(rng.integers(0, 5)))
    return g


def test_cycle_time_of_a_large_feedback_schedule_stays_small(monkeypatch):
    # the largest component has about 4,000 tasks; Karp's table was 124 MB
    g = layered_feedback_graph()
    lam, peak = peak_of(lambda: scheduler.cycle_time(g))
    assert peak < 16 * MiB
    # the rolling Karp alone gives the same value in the same bound
    monkeypatch.setattr(spectral, "_CERTIFY_LIMIT", 0)
    karp, peak = peak_of(lambda: scheduler.cycle_time(g))
    assert karp == lam
    assert peak < 16 * MiB
