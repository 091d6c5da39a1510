import random

import pytest

import tropical as tr
from tropical import NEG_INF, POS_INF, DenseMatrix, SemiringId

P, N = POS_INF, NEG_INF

CHAIN3 = DenseMatrix([[P, 2, 7], [P, P, 3], [P, P, P]])


def rand_minplus_graph(rng, n, density=0.4, lo=0, hi=30):
    rows = [[P] * n for _ in range(n)]
    edges = []
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < density:
                w = rng.randint(lo, hi)
                rows[i][j] = w
                edges.append((i, j, w))
    return DenseMatrix(rows), edges


def bellman_ford(n, edges, source):
    """Classical edge-relaxation oracle (min-plus, non-negative weights)."""
    dist = [P] * n
    dist[source] = 0
    for _ in range(n - 1):
        changed = False
        for u, v, w in edges:
            if dist[u] != P and dist[u] + w < dist[v]:
                dist[v] = dist[u] + w
                changed = True
        if not changed:
            break
    return dist


def test_sssp_chain_with_shortcut():
    assert tr.sssp(CHAIN3, 0, SemiringId.MINPLUS) == [0, 2, 5]


def test_sssp_single_vertex():
    for s in SemiringId:
        a = DenseMatrix([[tr.zero(s)]])
        assert tr.sssp(a, 0, s) == [tr.one(s)]


def test_sssp_matches_bellman_ford():
    rng = random.Random(0)
    for _ in range(30):
        n = rng.randint(2, 24)
        a, edges = rand_minplus_graph(rng, n)
        for source in {0, rng.randrange(n)}:
            assert tr.sssp(a, source, SemiringId.MINPLUS) == bellman_ford(n, edges, source)


def test_sssp_sparse_matches_dense():
    rng = random.Random(1)
    for _ in range(10):
        n = rng.randint(2, 16)
        a, _ = rand_minplus_graph(rng, n)
        csr = tr.from_dense(a, SemiringId.MINPLUS)
        assert tr.sssp(csr, 0, SemiringId.MINPLUS) == tr.sssp(a, 0, SemiringId.MINPLUS)


def test_sssp_matches_closure_row():
    rng = random.Random(2)
    for _ in range(10):
        n = rng.randint(2, 10)
        a, _ = rand_minplus_graph(rng, n)
        star = tr.all_pairs_paths(a, SemiringId.MINPLUS)
        for src in range(n):
            assert tr.sssp(a, src, SemiringId.MINPLUS) == star.row(src)


def test_sssp_fixed_point_and_early_exit():
    rng = random.Random(3)
    for s in (SemiringId.MINPLUS, SemiringId.MAXMIN, SemiringId.BOOLEAN):
        for _ in range(8):
            n = rng.randint(2, 12)
            z = tr.zero(s)
            rows = [
                [
                    (rng.randint(0, 1) if s is SemiringId.BOOLEAN else rng.randint(1, 20))
                    if rng.random() < 0.4 and i != j
                    else z
                    for j in range(n)
                ]
                for i in range(n)
            ]
            a = DenseMatrix(rows)
            d = tr.sssp(a, 0, s)
            relaxed = tr.vecmat(d, a, s)
            assert [tr.add(x, y, s) for x, y in zip(d, relaxed)] == d


def test_sssp_errors():
    with pytest.raises(ValueError):
        tr.sssp(CHAIN3, 5, SemiringId.MINPLUS)
    with pytest.raises(ValueError):
        tr.sssp(DenseMatrix([[1, 2, 3]]), 0, SemiringId.MINPLUS)
    neg = DenseMatrix([[P, -4], [1, P]])
    with pytest.raises(tr.NegativeCycleError):
        tr.sssp(neg, 0, SemiringId.MINPLUS)
    csr = tr.from_dense(CHAIN3, SemiringId.MINPLUS)
    with pytest.raises(ValueError):
        tr.sssp(csr, 0, SemiringId.MAXPLUS)


def test_sssp_maxplus_positive_cycle_raises():
    # 0 -> 1 -> 2 -> 1 with a +1 lap through 1 and 2: longest paths grow
    # every round, so n-1 rounds end on a vector that is not a fixed point
    rows = [[N, 1, N], [N, N, 0], [N, 1, N]]
    for a in (DenseMatrix(rows), tr.from_dense(DenseMatrix(rows), SemiringId.MAXPLUS)):
        with pytest.raises(tr.PositiveCycleError) as exc:
            tr.sssp(a, 0, SemiringId.MAXPLUS)
        assert isinstance(exc.value, tr.TropicalError)
        assert "positive cycle" in str(exc.value)
    # a zero-weight max-plus cycle has a fixed point
    flat = DenseMatrix([[N, 1, N], [N, N, 0], [N, 0, N]])
    assert tr.sssp(flat, 0, SemiringId.MAXPLUS) == [0, 1, 1]
    assert tr.sssp(tr.from_dense(flat, SemiringId.MAXPLUS), 0, SemiringId.MAXPLUS) == [0, 1, 1]


# A loop whose weight is the other sentinel (inf under max-plus, -inf under
# min-plus) clips its sum to the finite limit, so sssp settles before round n
# and prints a saturated number where closure refuses the cycle.
SENTINEL_LOOPS = [
    ("3 2 maxplus\n0 1 -1\n1 1 inf\n", tr.PositiveCycleError),
    ("3 2 minplus\n0 1 1\n1 1 -inf\n", tr.NegativeCycleError),
]


@pytest.mark.parametrize("text, error", SENTINEL_LOOPS, ids=["maxplus", "minplus"])
def test_closure_refuses_a_reachable_sentinel_weight_loop(text, error):
    m, s = tr.parse_graph(text)
    with pytest.raises(error):
        tr.closure(tr.to_dense(m), s)


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP 'one outcome for a path query on saturating inputs', class A: "
    "sssp returns a clipped distance where closure raises the cycle error",
)
@pytest.mark.parametrize("text, error", SENTINEL_LOOPS, ids=["maxplus", "minplus"])
def test_sssp_refuses_a_reachable_sentinel_weight_loop(text, error):
    m, s = tr.parse_graph(text)
    with pytest.raises(error):
        tr.sssp(m, 0, s)


# Class B case 2: no negative cycle, but the clipped sum 0->5->2 settles at
# FINITE_MAX, so the rounds keep changing through n and name a negative cycle;
# exact arithmetic puts the distance of 2 past FINITE_MAX.
CLIPPED_INTO_A_CYCLE = (
    "6 8 minplus\n5 2 1\n2 1 5\n3 3 2\n0 5 2147483646\n4 2 1\n4 2 -7\n"
    "1 4 2147483646\n5 5 5\n"
)


@pytest.mark.xfail(
    strict=True,
    raises=tr.NegativeCycleError,
    reason="ROADMAP 'sssp on exact int64 rounds', class B case 2: clipped sums "
    "invent a negative cycle where exact arithmetic saturates",
)
def test_sssp_names_saturation_where_clipping_invents_a_negative_cycle():
    m, s = tr.parse_graph(CLIPPED_INTO_A_CYCLE)
    with pytest.raises(tr.SaturationError):
        tr.sssp(m, 0, s)


def test_all_pairs_known_values_and_identity():
    assert tr.all_pairs_paths(CHAIN3, SemiringId.MINPLUS).to_rows() == [
        [0, 2, 5],
        [P, 0, 3],
        [P, P, 0],
    ]
    e = tr.identity(4, SemiringId.MINPLUS)
    assert tr.all_pairs_paths(e, SemiringId.MINPLUS) == e
    csr = tr.from_dense(CHAIN3, SemiringId.MINPLUS)
    assert tr.all_pairs_paths(csr, SemiringId.MINPLUS).get(0, 2) == 5


def dfs_reach(adj, src):
    n = len(adj)
    seen = [False] * n
    stack = [src]
    seen[src] = True
    while stack:
        u = stack.pop()
        for v in range(n):
            if adj[u][v] and not seen[v]:
                seen[v] = True
                stack.append(v)
    return seen


def test_reachability_chain_and_empty():
    chain = DenseMatrix([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    assert tr.reachability(chain).to_rows() == [[1, 1, 1], [0, 1, 1], [0, 0, 1]]
    empty = DenseMatrix.filled(3, 3, 0)
    assert tr.reachability(empty) == tr.identity(3, SemiringId.BOOLEAN)


def test_reachability_matches_dfs():
    rng = random.Random(4)
    for _ in range(20):
        n = rng.randint(2, 8)
        adj = [[1 if (i != j and rng.random() < 0.3) else 0 for j in range(n)] for i in range(n)]
        r = tr.reachability(DenseMatrix(adj))
        for src in range(n):
            expect = [1 if x else 0 for x in dfs_reach(adj, src)]
            assert r.row(src) == expect


def test_reachability_normalizes_dense():
    a = DenseMatrix([[0, 7], [0, 0]])
    assert tr.reachability(a).to_rows() == [[1, 1], [0, 1]]


def test_reachability_takes_the_semiring():
    # a 0-weight min-plus edge is an edge; the absent entries hold +inf
    a = DenseMatrix([[P, 0], [P, P]])
    assert tr.reachability(a, SemiringId.MINPLUS).to_rows() == [[1, 1], [0, 1]]
    b = DenseMatrix([[N, 0], [N, N]])
    assert tr.reachability(b, SemiringId.MAXPLUS).to_rows() == [[1, 1], [0, 1]]


def test_orientation_coherence():
    # a single directed edge must never create reverse reachability
    a = DenseMatrix([[0, 1], [0, 0]])
    r = tr.reachability(a)
    assert r.get(0, 1) == 1 and r.get(1, 0) == 0
    w = DenseMatrix([[P, 4], [P, P]])
    star = tr.all_pairs_paths(w, SemiringId.MINPLUS)
    assert star.get(0, 1) == 4 and star.get(1, 0) == P
    assert tr.sssp(w, 0, SemiringId.MINPLUS) == [0, 4]
    assert tr.sssp(w, 1, SemiringId.MINPLUS) == [P, 0]


def simple_path_bottlenecks(rows, src, dst):
    """Exhaustive simple-path oracle: best minimum edge weight src -> dst."""
    n = len(rows)
    best = N

    def walk(u, seen, cur):
        nonlocal best
        if u == dst:
            if cur > best:
                best = cur
            return
        for v in range(n):
            if rows[u][v] != N and v not in seen:
                walk(v, seen | {v}, min(cur, rows[u][v]))

    for v in range(n):
        if rows[src][v] != N:
            walk(v, {src, v}, rows[src][v])
    return best


def test_bottleneck_examples():
    single = DenseMatrix([[N, 8], [N, N]])
    b = tr.bottleneck_paths(single)
    assert b.get(0, 1) == 8
    assert b.get(0, 0) == P  # diagonal is the max-min identity
    two_routes = DenseMatrix(
        [[N, 3, 7, N], [N, N, N, 9], [N, N, N, 5], [N, N, N, N]]
    )
    assert tr.bottleneck_paths(two_routes).get(0, 3) == 5


def test_bottleneck_matches_enumeration():
    rng = random.Random(5)
    for _ in range(15):
        n = rng.randint(2, 6)
        rows = [
            [rng.randint(1, 50) if (i != j and rng.random() < 0.4) else N for j in range(n)]
            for i in range(n)
        ]
        b = tr.bottleneck_paths(DenseMatrix(rows))
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                assert b.get(i, j) == simple_path_bottlenecks(rows, i, j)


# -- saturated distances ---------------------------------------------------------

FMAX, FMIN = tr.FINITE_MAX, tr.FINITE_MIN


def chain_graph(weights, s, sparse):
    """Path 0 -> 1 -> ... with the given edge weights, dense or CSR."""
    n = len(weights) + 1
    edges = [(i, i + 1, w) for i, w in enumerate(weights)]
    a = tr.from_triplets(n, n, edges, s)
    return a if sparse else tr.to_dense(a)


PLUS = [SemiringId.MINPLUS, SemiringId.MAXPLUS]


@pytest.mark.parametrize("sparse", [False, True])
@pytest.mark.parametrize("s", PLUS)
@pytest.mark.parametrize("sign", [1, -1])
def test_sssp_distance_past_the_finite_range_raises(s, sparse, sign):
    # vertex 2 lies at +-4e9: it used to print as FINITE_MAX or FINITE_MIN
    a = chain_graph([sign * 2_000_000_000] * 3, s, sparse)
    limit = FMAX if sign > 0 else FMIN
    with pytest.raises(
        tr.SaturationError, match=f"distance to vertex 2 sums to {sign * 4_000_000_000}, past {limit}"
    ):
        tr.sssp(a, 0, s)


@pytest.mark.parametrize("sparse", [False, True])
@pytest.mark.parametrize("s", PLUS)
def test_sssp_saturation_is_found_where_later_edges_pull_back_into_range(s, sparse):
    # vertex 3's value, FINITE_MAX - 1e9, looks plausible; vertex 2 is the one
    # whose best in-edge sum passes the limit
    a = chain_graph([2_000_000_000, 2_000_000_000, -1_000_000_000], s, sparse)
    with pytest.raises(tr.SaturationError, match="vertex 2 "):
        tr.sssp(a, 0, s)


@pytest.mark.parametrize("sparse", [False, True])
@pytest.mark.parametrize("s", PLUS)
def test_sssp_distances_at_the_ends_of_the_finite_range_are_kept(s, sparse):
    a = chain_graph([2_000_000_000, FMAX - 2_000_000_000], s, sparse)
    assert tr.sssp(a, 0, s) == [0, 2_000_000_000, FMAX]
    a = chain_graph([-2_000_000_000, FMIN + 2_000_000_000], s, sparse)
    assert tr.sssp(a, 0, s) == [0, -2_000_000_000, FMIN]


@pytest.mark.parametrize("sparse", [False, True])
def test_sssp_saturation_takes_the_best_in_edge(sparse):
    # vertex 3 has two in-edges: one summing to exactly FINITE_MAX, one past it
    edges = [(0, 1, 2_000_000_000), (1, 3, FMAX - 2_000_000_000),
             (0, 2, 2_000_000_000), (2, 3, 2_000_000_000)]
    for s, ok in ((SemiringId.MINPLUS, True), (SemiringId.MAXPLUS, False)):
        a = tr.from_triplets(4, 4, edges, s)
        a = a if sparse else tr.to_dense(a)
        if ok:
            assert tr.sssp(a, 0, s)[3] == FMAX
        else:
            with pytest.raises(tr.SaturationError, match="vertex 3 sums to 4000000000"):
                tr.sssp(a, 0, s)


@pytest.mark.parametrize("sparse", [False, True])
def test_sssp_sums_through_an_infinite_weight_keep_their_clip(sparse):
    # POS_INF under max-plus and NEG_INF under min-plus are edge weights, not
    # the zero; the saturating (x) defines their sums as clipped
    for s, w, limit in ((SemiringId.MAXPLUS, P, FMAX), (SemiringId.MINPLUS, N, FMIN)):
        a = chain_graph([w], s, sparse)
        assert tr.sssp(a, 0, s) == [0, limit]


# -- a CSR input to the closures, against its grid --------------------------------

SEMIRINGS = list(SemiringId)


def closure_outcome(f, *args):
    """The closure's matrix, or the type, message, vertices and matrix of
    the cycle error it raises."""
    try:
        return f(*args)
    except (tr.NegativeCycleError, tr.PositiveCycleError) as exc:
        return type(exc), str(exc), exc.vertices, exc.matrix


def random_csr(rng, s):
    n = rng.randint(1, 7)
    edges = []
    for _ in range(rng.randint(0, 2 * n * n)):
        if s is SemiringId.BOOLEAN:
            w = rng.randint(0, 2)
        else:
            w = rng.choice([rng.randint(-6, 6), 0, NEG_INF, POS_INF])
        edges.append((rng.randrange(n), rng.randrange(n), w))
    return tr.from_triplets(n, n, edges, s)


@pytest.mark.parametrize("s", SEMIRINGS)
def test_a_csr_closure_equals_the_closure_of_its_grid(s):
    rng = random.Random(SEMIRINGS.index(s) * 101 + 7)
    raised = 0
    for _ in range(60):
        csr = random_csr(rng, s)
        grid = tr.to_dense(csr)
        got = closure_outcome(tr.all_pairs_paths, csr, s)
        assert got == closure_outcome(tr.all_pairs_paths, grid, s)
        raised += isinstance(got, tuple)
        assert tr.reachability(csr) == tr.reachability(grid, csr.semiring)
    # only min-plus and max-plus closures raise, and these seeds make some do
    assert (raised > 0) == (s in PLUS)


def test_all_pairs_paths_refuses_a_csr_of_another_semiring():
    csr = tr.from_dense(CHAIN3, SemiringId.MINPLUS)
    with pytest.raises(ValueError, match="bound to minplus but maxplus requested"):
        tr.all_pairs_paths(csr, SemiringId.MAXPLUS)
    with pytest.raises(ValueError, match="bound to minplus but maxmin requested"):
        tr.bottleneck_paths(csr)
