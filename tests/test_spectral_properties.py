"""Property tests: the edge-list spectral layer against its scalar oracles.

``structure.components`` (iterative Tarjan) must give the partition into
mutual reachability classes of the Boolean closure; ``max_cycle_mean`` (Karp
per component on edge arrays) must equal the Python-integer Karp on closure
components and, on small graphs, the best mean among all elementary cycles;
``critical_vertices`` (potentials and the tight subgraph) must give the set
of the Floyd sweep; ``eigenvector`` (one array comparison per iteration
against the iterate history) must reproduce the loop that calls ``linf`` once
per earlier iterate, bit for bit. The oracles live in ``spectral_oracle``.
Each of the three also runs on the CSR form of the matrix and must give the
same result, bit for bit.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import spectral_oracle as oracle
import tropical as tr
from tropical import CycleMean, DenseMatrix, structure
from tropical.semiring import FINITE_MAX, FINITE_MIN, NEG_INF, POS_INF
from test_spectral import enumerate_cycles_with_vertices

PROPERTY = settings(max_examples=80, deadline=None, derandomize=True, database=None)

# edge weights: small values, where equal means are common, and values at and
# near the finite limits and the +inf sentinel, where walk sums leave int32
WEIGHTS = st.one_of(
    st.integers(-20, 20),
    st.sampled_from([FINITE_MAX, FINITE_MIN, POS_INF]),
    st.integers(FINITE_MAX - 3000, POS_INF),
    st.integers(FINITE_MIN, FINITE_MIN + 3000),
)


@st.composite
def edge_lists(draw, max_n=24, weights=WEIGHTS):
    """n and edges (u, v, w), duplicates and self-loops included. Vertices
    fall into up to four blocks along a random order and edges between
    blocks only run forward, so there are several components, singletons
    with and without self-loops, and acyclic graphs."""
    n = draw(st.integers(1, max_n))
    order = draw(st.permutations(range(n)))
    cuts = draw(st.lists(st.integers(0, n), max_size=3))
    block = [sum(pos >= c for c in cuts) for pos in range(n)]
    rank = {v: block[pos] for pos, v in enumerate(order)}
    vertex = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex, weights), max_size=3 * n + 2))
    return n, [(u, v, w) for u, v, w in edges if rank[u] <= rank[v]]


def maxplus_matrix(n, edges):
    """Max-plus matrix of an edge list; duplicate edges keep their maximum."""
    arr = np.full((n, n), NEG_INF, dtype=np.int64)
    if edges:
        u, v, w = np.array(edges, dtype=np.int64).T
        np.maximum.at(arr, (u, v), w)
    return DenseMatrix(arr.tolist())


def endpoints(edges):
    pairs = np.array([(u, v) for u, v, *_ in edges], dtype=np.int64).reshape(-1, 2)
    return pairs[:, 0], pairs[:, 1]


def reach_closure(n, edges):
    """Reflexive-transitive reachability from the Boolean closure."""
    rows = [[0] * n for _ in range(n)]
    for u, v, *_ in edges:
        rows[u][v] = 1
    return tr.closure(DenseMatrix(rows), tr.SemiringId.BOOLEAN)._arr != 0


def as_csr(a: DenseMatrix):
    return tr.from_dense(a, tr.SemiringId.MAXPLUS)


def check_cycle_mean(a: DenseMatrix):
    """Compare with the oracle, for the dense matrix and its CSR form;
    returns (mean, strongly connected) or None."""
    def result(m):
        lam = tr.max_cycle_mean(m)
        return None if lam is None else (lam.as_fraction(), lam.strongly_connected)

    got = result(a)
    assert got == result(as_csr(a)) == oracle.max_cycle_mean(a)
    return got


@PROPERTY
@given(edge_lists(max_n=24, weights=st.integers(-3, 3)))
def test_components_are_mutual_reachability_classes(graph):
    n, edges = graph
    src, dst = endpoints(edges)
    labels = structure.components(n, src, dst)
    reach = reach_closure(n, edges)
    assert ((labels[:, None] == labels[None, :]) == (reach & reach.T)).all()
    assert sorted(set(labels.tolist())) == list(range(len(set(labels.tolist()))))
    # reverse topological labels: every edge between components runs downhill
    across = labels[src] != labels[dst]
    assert (labels[src][across] > labels[dst][across]).all()
    # a component is cyclic iff one of its vertices has an edge back into it
    back = [any(reach[v][u] for x, v, *_ in edges if x == u) for u in range(n)]
    assert structure.cyclic(labels, src, dst)[labels].tolist() == back


@PROPERTY
@given(edge_lists())
def test_max_cycle_mean_matches_the_scalar_karp(graph):
    check_cycle_mean(maxplus_matrix(*graph))


@PROPERTY
@given(edge_lists(max_n=6))
def test_max_cycle_mean_is_the_best_elementary_cycle(graph):
    a = maxplus_matrix(*graph)
    means = [mean for _, mean, _ in enumerate_cycles_with_vertices(a.to_rows())]
    got = check_cycle_mean(a)
    assert (got is None and not means) or got[0] == max(means)


@st.composite
def ringed_edge_lists(draw, max_n=16, weights=WEIGHTS):
    """edge_lists, half of them with one more cycle through distinct vertices
    (a self-loop when it has one vertex), so fewer graphs are acyclic."""
    n, edges = draw(edge_lists(max_n, weights))
    if draw(st.booleans()):
        ring = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
        ring_w = draw(st.lists(weights, min_size=len(ring), max_size=len(ring)))
        edges += zip(ring, ring[1:] + ring[:1], ring_w)
    return n, edges


def check_critical_vertices(a: DenseMatrix):
    expected = oracle.critical_vertices(a)
    for m in (a, as_csr(a)):
        if expected is None:
            with pytest.raises(tr.NoCycleError):
                tr.critical_vertices(m)
        else:
            assert tr.critical_vertices(m) == expected


@settings(PROPERTY, max_examples=200)
@given(ringed_edge_lists(weights=st.integers(-3, 3)))
def test_critical_vertices_match_the_floyd_sweep_on_tied_means(graph):
    # small weights: many cycles share the maximum mean, in one component
    # or in several, and self-loops compete with longer cycles
    check_critical_vertices(maxplus_matrix(*graph))


@PROPERTY
@given(ringed_edge_lists())
def test_critical_vertices_match_the_floyd_sweep(graph):
    # weights at and near FINITE_MIN, FINITE_MAX and POS_INF
    check_critical_vertices(maxplus_matrix(*graph))


def test_critical_vertices_of_tied_components_and_self_loops():
    # two 2-cycles of mean 1 in separate components, a mean-1 self-loop, a
    # mean-0 self-loop and a 3-cycle of mean 1 with a lighter chord
    edges = [(0, 1, 1), (1, 0, 1), (1, 2, 5), (2, 3, 2), (3, 2, 0),
             (4, 4, 1), (5, 5, 0), (4, 5, 9), (6, 7, 1), (7, 8, 1), (8, 6, 1), (6, 8, -4)]
    a = maxplus_matrix(9, edges)
    assert tr.critical_vertices(a) == oracle.critical_vertices(a) == frozenset(
        {0, 1, 2, 3, 4, 6, 7, 8}
    )


def chord_cycles(length, x, y, base):
    """A path 1 -> 2 -> ... -> length-1 -> 0 of edges weighing ``base``,
    closed twice: by 0 -> 1 weighing base + x and by length-1 -> 1 weighing
    base + y. The only cycles have means base + x/length and
    base + y/(length-1); vertex 0 lies on the longer cycle only, so when that
    cycle is the lighter one, the first vertex Karp scans is not critical."""
    path = [(i, (i + 1) % length, base) for i in range(1, length)]
    back = [(0, 1, base + x), (length - 1, 1, base + y)]
    return tr.to_dense(tr.from_triplets(length, length, path + back, tr.SemiringId.MAXPLUS))


def near_ties(length, base):
    """Both ways round, chord cycles whose means differ by 1/(L(L-1)), with
    the larger mean: (L-1)/L beats (L-2)/(L-1), and 1/(L-1) beats 1/L."""
    heavy_long = chord_cycles(length, length - 1, length - 2, base)
    yield heavy_long, base + Fraction(length - 1, length)
    yield chord_cycles(length, 1, 1, base), base + Fraction(1, length - 1)


@pytest.mark.parametrize("length", [3, 4, 7, 12, 13])
@pytest.mark.parametrize("base", [FINITE_MAX - 12, FINITE_MIN])
def test_near_tie_means_are_told_apart(length, base):
    for a, want in near_ties(length, base):
        assert check_cycle_mean(a)[0] == want


@pytest.mark.parametrize("base", [FINITE_MAX - 2080, FINITE_MIN])
def test_near_tie_below_float_resolution(base):
    # at L = 2081 the two means round to the same double, so only exact
    # arithmetic can order them (the oracle is too slow at this size)
    for a, want in near_ties(2081, base):
        assert float(want) == float(want - Fraction(1, 2081 * 2080))
        lam = tr.max_cycle_mean(a)
        assert lam.as_fraction() == want and lam.strongly_connected


def test_csr_input_must_be_bound_to_maxplus():
    a = tr.from_triplets(2, 2, [(0, 1, 3), (1, 0, 4)], tr.SemiringId.MINPLUS)
    lam = CycleMean(7, 2)
    calls = (tr.max_cycle_mean, tr.critical_vertices, lambda m: tr.eigenvector(m, lam))
    for call in calls:
        with pytest.raises(ValueError, match="matrix is bound to minplus but maxplus requested"):
            call(a)


def test_self_loop_components_count():
    # a lone self-loop is the heaviest cycle; the 2-cycle beside it is lighter
    a = DenseMatrix([[NEG_INF, 1, NEG_INF], [1, NEG_INF, 0], [NEG_INF, NEG_INF, 5]])
    assert tr.max_cycle_mean(a) == CycleMean(5, 1)


def eig_result_bits(r):
    return np.asarray(r.vector).tobytes(), r.converged, r.iterations, r.residual.hex()


@st.composite
def periodic_graphs(draw):
    """Strongly connected graphs whose heaviest cycle has length c in 1..3
    (cyclicity c when it is the only critical cycle), with lighter chords."""
    c = draw(st.integers(1, 3))
    n = draw(st.integers(c, 9))
    rows = [[NEG_INF] * n for _ in range(n)]
    heavy = draw(st.integers(10, 40))
    for i in range(c):
        rows[i][(i + 1) % c] = heavy + draw(st.integers(-3, 3))
    # a spanning ring through every vertex keeps the graph strongly connected
    for i in range(n):
        j = (i + 1) % n
        if rows[i][j] == NEG_INF:
            rows[i][j] = draw(st.integers(-15, 5))
    vertex = st.integers(0, n - 1)
    chords = draw(st.lists(st.tuples(vertex, vertex, st.integers(-15, 5)), max_size=2 * n))
    for u, v, w in chords:
        if rows[u][v] == NEG_INF:
            rows[u][v] = w
    return DenseMatrix(rows)


EPS = st.sampled_from([1e-9, 1e-3, 0.5, 1.0, 2.5])
MAX_ITER = st.one_of(st.none(), st.integers(0, 25))


@PROPERTY
@given(periodic_graphs(), EPS, MAX_ITER)
def test_eigenvector_matches_the_history_loop_on_periodic_graphs(a, eps, max_iter):
    lam = tr.max_cycle_mean(a)
    got = tr.eigenvector(a, lam, epsilon=eps, max_iter=max_iter)
    assert eig_result_bits(got) == eig_result_bits(oracle.eigenvector(a, lam, eps, max_iter))
    got_csr = tr.eigenvector(as_csr(a), lam, epsilon=eps, max_iter=max_iter)
    assert eig_result_bits(got_csr) == eig_result_bits(got)


@PROPERTY
@given(edge_lists(max_n=12, weights=st.integers(-20, 20)), EPS, MAX_ITER)
def test_eigenvector_matches_the_history_loop(graph, eps, max_iter):
    a = maxplus_matrix(*graph)
    lam = tr.max_cycle_mean(a)
    if lam is None:
        return
    got = tr.eigenvector(a, lam, epsilon=eps, max_iter=max_iter)
    assert eig_result_bits(got) == eig_result_bits(oracle.eigenvector(a, lam, eps, max_iter))
    got_csr = tr.eigenvector(as_csr(a), lam, epsilon=eps, max_iter=max_iter)
    assert eig_result_bits(got_csr) == eig_result_bits(got)


@pytest.mark.parametrize("c", [2, 3])
def test_eigenvector_closes_a_period(c):
    # a lone critical c-cycle with unequal weights orbits with period c
    rows = [[NEG_INF] * c for _ in range(c)]
    for i in range(c):
        rows[i][(i + 1) % c] = 10 * (i + 1)
    a = DenseMatrix(rows)
    lam = tr.max_cycle_mean(a)
    got = tr.eigenvector(a, lam)
    want = oracle.eigenvector(a, lam)
    assert want.converged and want.iterations == c
    assert eig_result_bits(got) == eig_result_bits(want)


def test_eigenvector_period_closes_at_the_latest_match():
    # iterate 4 lies within eps = 3 of iterates 1 and 2 but not of iterate 3:
    # the latest match, iterate 2, closes the period, and the result is the
    # entry-wise max of iterates 3 and 4 alone
    a = DenseMatrix([[NEG_INF, 6, NEG_INF], [NEG_INF, 8, 0], [21, NEG_INF, NEG_INF]])
    lam = tr.max_cycle_mean(a)
    got = tr.eigenvector(a, lam, epsilon=3.0)
    assert (got.vector, got.converged, got.iterations) == ([0.0, 2.0, 12.0], True, 4)
    assert eig_result_bits(got) == eig_result_bits(oracle.eigenvector(a, lam, 3.0))
