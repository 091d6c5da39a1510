"""Property tests for ``structure``: the strongly connected components against
scipy's, ``reach``, the 0/1 Boolean closure by condensation, against
``closure_reference``, and ``levels``, Kahn's longest-path levels, against
scipy's strong components and a scalar longest-path relaxation.

``reach`` rests on two facts about ``components``: the labels partition the
vertices into mutual reachability classes, and every edge between two
classes runs from the higher label to the lower. The graphs below are drawn
from seeds, in shapes that exercise the condensation: no edges, self-loops
only, duplicate edges, chains in both orientations, several strongly
connected components joined in a DAG, and random edges, each with permuted
vertex ids. Sizes sit on both sides of the byte boundaries of the packed
rows. ``reach`` is checked directly, through ``dense.closure`` on a 0/1
matrix, and through ``graph.reachability`` on the CSR parse of a graph file
of every semiring.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components, shortest_path

import tropical as tr
from tropical import DenseMatrix, SemiringId, structure
from tropical.semiring import NEG_INF, POS_INF, TOKEN_OF

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)

SIZES = (1, 7, 8, 9, 15, 16, 17, 63, 64, 65)
SHAPES = ("empty", "loops", "duplicates", "chain", "reverse_chain", "dag_of_sccs", "random")


def draw_graph(shape, n, seed):
    """(src, dst) int64 edge arrays of the given shape on n vertices whose
    ids are a random permutation."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    if shape == "empty":
        src = dst = np.zeros(0, dtype=np.int64)
    elif shape == "loops":
        src = dst = np.flatnonzero(rng.random(n) < 0.5)
    elif shape == "duplicates":
        m = rng.integers(0, 2 * n + 1)
        src, dst = rng.integers(0, n, m), rng.integers(0, n, m)
        times = rng.integers(1, 4, m)
        src, dst = np.repeat(src, times), np.repeat(dst, times)
    elif shape in ("chain", "reverse_chain"):
        src, dst = np.arange(n - 1), np.arange(1, n)
        if shape == "reverse_chain":
            src, dst = dst, src
    elif shape == "dag_of_sccs":
        # blocks of consecutive ids, each a cycle with chords; edges between
        # blocks only run from a lower block to a higher one
        cuts = np.sort(rng.integers(0, n + 1, rng.integers(0, 5)))
        block = np.searchsorted(cuts, np.arange(n), side="right")
        pairs = []
        for b in np.unique(block).tolist():
            members = np.flatnonzero(block == b)
            if members.size > 1 or rng.random() < 0.5:
                pairs += zip(members.tolist(), np.roll(members, -1).tolist())
            k = rng.integers(0, members.size + 1)
            pairs += zip(rng.choice(members, k).tolist(), rng.choice(members, k).tolist())
        u, v = rng.integers(0, n, 2 * n), rng.integers(0, n, 2 * n)
        forward = (block[u] < block[v]) & (rng.random(2 * n) < 0.3)
        pairs += zip(u[forward].tolist(), v[forward].tolist())
        src, dst = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    else:
        m = rng.integers(0, 3 * n + 1)
        src, dst = rng.integers(0, n, m), rng.integers(0, n, m)
    return perm[src].astype(np.int64), perm[dst].astype(np.int64)


def grid(n, src, dst):
    arr = np.zeros((n, n), dtype=np.int32)
    arr[src, dst] = 1
    return arr


# -- components -----------------------------------------------------------------

def check_components(n, src, dst):
    labels = structure.components(n, src, dst)
    a = coo_matrix((np.ones(src.size), (src, dst)), shape=(n, n))
    count, theirs = connected_components(a, directed=True, connection="strong")
    assert labels.dtype == np.int64
    # the same partition: labels 0..c-1, each matched to exactly one of scipy's
    assert sorted(set(labels.tolist())) == list(range(count))
    assert len(set(zip(labels.tolist(), theirs.tolist()))) == count
    # reverse topological order: every edge between components runs downhill
    across = labels[src] != labels[dst]
    assert (labels[src][across] > labels[dst][across]).all()
    return labels


@PROPERTY
@given(shape=st.sampled_from(SHAPES), n=st.integers(1, 70), seed=st.integers(0, 2**32 - 1))
def test_components_match_scipy_up_to_relabelling(shape, n, seed):
    check_components(n, *draw_graph(shape, n, seed))


def test_components_of_a_5000_vertex_chain_need_no_recursion():
    # a depth-first path 5,000 vertices deep, far past the recursion limit
    n = 5000
    perm = np.random.default_rng(1).permutation(n)
    src, dst = perm[:-1], perm[1:]
    labels = check_components(n, src, dst)
    # singletons, labelled against the direction of the chain
    assert (labels[src] > labels[dst]).all()
    # closed into a cycle, the chain is one component
    closed = check_components(n, perm, np.roll(perm, -1))
    assert (closed == 0).all()


# -- reach ------------------------------------------------------------------------

def edge_file(n, src, dst, s, rng):
    """Graph-file text holding an edge of a weight other than zero(s) for
    every (src, dst), and records of weight zero(s), which are no edges,
    on random pairs."""
    z = {POS_INF: "inf", NEG_INF: "-inf"}.get(tr.zero(s), str(tr.zero(s)))
    weights = {
        SemiringId.MINPLUS: ["-5", "0", "7", "-inf"],
        SemiringId.MAXPLUS: ["5", "0", "-7", "inf"],
        SemiringId.MAXMIN: ["5", "0", "-7", "inf"],
        SemiringId.MINMAX: ["5", "0", "-7", "-inf"],
        SemiringId.BOOLEAN: ["1", "3", "-2"],
    }[s]
    records = [f"{u} {v} {rng.choice(weights)}" for u, v in zip(src.tolist(), dst.tolist())]
    k = int(rng.integers(0, n + 1))
    records += [f"{u} {v} {z}" for u, v in rng.integers(0, n, (k, 2)).tolist()]
    rng.shuffle(records)
    return "\n".join([f"{n} {len(records)} {TOKEN_OF[s]}"] + records) + "\n"


def check_reach(n, src, dst, seed=0):
    want = tr.closure_reference(DenseMatrix(grid(n, src, dst)), SemiringId.BOOLEAN)._arr
    got = structure.reach(n, src, dst)
    assert got.dtype == np.int32 and got.shape == (n, n)
    assert np.array_equal(got, want)
    assert np.array_equal(tr.closure(DenseMatrix(grid(n, src, dst)), SemiringId.BOOLEAN)._arr, want)
    rng = np.random.default_rng(seed)
    for s in SemiringId:
        csr, parsed = tr.parse_graph(edge_file(n, src, dst, s, rng))
        assert parsed is s and isinstance(csr, tr.CsrMatrix)
        result = tr.reachability(csr)
        assert result._arr.dtype == np.int32
        assert np.array_equal(result._arr, want), s


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("n", SIZES)
def test_reach_equals_the_boolean_reference(shape, n):
    check_reach(n, *draw_graph(shape, n, 1000 * n + SHAPES.index(shape)))


@PROPERTY
@given(shape=st.sampled_from(SHAPES), n=st.sampled_from(SIZES), seed=st.integers(0, 2**32 - 1))
def test_reach_equals_the_boolean_reference_on_drawn_graphs(shape, n, seed):
    check_reach(n, *draw_graph(shape, n, seed), seed)


def test_reach_of_a_dense_matrix_reads_its_entries_under_s():
    # dense input: an entry is an edge iff it differs from zero(s)
    rows = [[POS_INF, 3, POS_INF], [POS_INF, POS_INF, 0], [POS_INF, POS_INF, POS_INF]]
    want = [[1, 1, 1], [0, 1, 1], [0, 0, 1]]
    assert tr.reachability(DenseMatrix(rows), SemiringId.MINPLUS).to_rows() == want


# -- levels -----------------------------------------------------------------------

def check_levels(n, src, dst):
    level = structure.levels(n, src, dst)
    assert level.dtype == np.int64 and level.shape == (n,)
    # stuck: reachable from a strong component of scipy's that holds a cycle
    a = coo_matrix((np.ones(src.size), (src, dst)), shape=(n, n)).tocsr()
    _, comp = connected_components(a, directed=True, connection="strong")
    cyclic = np.bincount(comp)[comp] > 1
    cyclic[src[src == dst]] = True
    stuck = np.isfinite(shortest_path(a, unweighted=True)[cyclic]).any(axis=0)
    assert (level < 0).tolist() == stuck.tolist()
    # elsewhere: the most edges on a path that ends at the vertex, found by
    # n rounds of scalar relaxation over the edges between such vertices
    live = [(u, v) for u, v in zip(src.tolist(), dst.tolist()) if not (stuck[u] or stuck[v])]
    want = [0] * n
    for _ in range(n):
        for u, v in live:
            want[v] = max(want[v], want[u] + 1)
    assert level[~stuck].tolist() == np.array(want)[~stuck].tolist()
    # so every edge between two of them goes up a level
    assert all(level[v] > level[u] for u, v in live)
    return level


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("n", SIZES)
def test_levels_are_longest_paths_and_mark_what_cycles_reach(shape, n):
    src, dst = draw_graph(shape, n, 2000 * n + SHAPES.index(shape))
    check_levels(n, src, dst)
    # the same edges, duplicates kept, each turned toward the higher id: a DAG
    lo, hi = np.minimum(src, dst), np.maximum(src, dst)
    assert (check_levels(n, lo[lo != hi], hi[lo != hi]) >= 0).all()
