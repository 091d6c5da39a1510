"""Property tests: the array-native CSR layer and ingest against scalar folds.

The COO assembly behind ``from_triplets`` sorts by key and folds duplicates
with ``reduceat``; ``spmv`` is a gather and a segment reduction; ``sssp`` runs
one relaxation loop over frontier vectors for dense and CSR input; and
``parse_graph`` converts tokens in bulk, falling back to a line-by-line parse
for errors. Each test compares one of them with a plain scalar definition,
on all five semirings, with duplicates, empty rows, rectangular shapes,
sentinels and values near the finite limits. The CSRs the library assembles
skip the checks ``CsrMatrix(...)`` runs on caller arrays, so one test runs
those checks on the result of every constructor.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tropical as tr
from tropical import GraphParseError, SemiringId, sparse
from tropical.semiring import FINITE_MAX, FINITE_MIN, NEG_INF, POS_INF

ALL = list(SemiringId)
P, N = POS_INF, NEG_INF

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def values(s):
    """Entries: sentinels, zero(s), one(s), values near the finite limits and
    small integers; Boolean also gets values beyond 0 and 1."""
    return st.one_of(
        st.sampled_from([N, P, tr.zero(s), tr.one(s), FINITE_MAX, FINITE_MIN]),
        st.integers(FINITE_MAX - 2000, POS_INF),
        st.integers(NEG_INF, FINITE_MIN + 2000),
        st.integers(-50, 50),
    )


def triplets(draw, s, rows, cols):
    # coordinates from a small range, so duplicates and empty rows are common
    cell = st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1), values(s))
    return draw(st.lists(cell, max_size=2 * rows + 4))


def scalar_fold(rows, cols, entries, s):
    grid = [[tr.zero(s)] * cols for _ in range(rows)]
    for i, j, v in entries:
        if s is SemiringId.BOOLEAN:
            v = 1 if v != 0 else 0
        grid[i][j] = tr.add(grid[i][j], v, s)
    return grid


@pytest.mark.parametrize("s", ALL)
@PROPERTY
@given(data=st.data())
def test_from_triplets_is_a_scalar_fold(s, data):
    rows, cols = data.draw(st.integers(1, 7)), data.draw(st.integers(1, 7))
    entries = triplets(data.draw, s, rows, cols)
    a = tr.from_triplets(rows, cols, entries, s)
    assert tr.to_dense(a).to_rows() == scalar_fold(rows, cols, entries, s)
    assert tr.from_dense(tr.to_dense(a), s) == a


def assert_transpose(a):
    t = sparse.transpose(a)
    t._validate()
    assert (t.rows, t.cols, t.semiring) == (a.cols, a.rows, a.semiring)
    grid = tr.to_dense(a).to_rows()
    assert tr.to_dense(t).to_rows() == [list(col) for col in zip(*grid)]
    assert sparse.transpose(t) == a


@pytest.mark.parametrize("s", ALL)
@PROPERTY
@given(data=st.data())
def test_transpose_is_the_transposed_grid(s, data):
    rows, cols = data.draw(st.integers(1, 7)), data.draw(st.integers(1, 7))
    assert_transpose(tr.from_triplets(rows, cols, triplets(data.draw, s, rows, cols), s))


@pytest.mark.parametrize("s", ALL)
def test_transpose_of_empty_rows_and_columns(s):
    one = tr.one(s)
    assert_transpose(tr.from_triplets(3, 5, [], s))
    # rows 0 and 2 and columns 0, 2 and 4 hold nothing
    a = tr.from_triplets(4, 5, [(3, 1, one), (1, 3, one), (1, 1, one)], s)
    assert a.nnz == 3
    assert_transpose(a)
    assert_transpose(tr.from_triplets(1, 6, [(0, 5, one)], s))


def assert_stored(a, s):
    """a holds the invariants CsrMatrix(...) checks on caller arrays, in its
    storage dtypes, with dimensions that are Python ints."""
    a._validate()
    assert (a.values.dtype, a.col_idx.dtype, a.row_ptr.dtype) == (np.int32, np.uint32, np.uint32)
    assert type(a.rows) is int and type(a.cols) is int
    assert a.semiring is s


@pytest.mark.parametrize("s", ALL)
@PROPERTY
@given(data=st.data())
def test_every_csr_the_library_builds_is_valid(s, data):
    # the library assembles its own CSRs without CsrMatrix's checks, so each
    # constructor's result must pass them here: on repeated coordinates,
    # empty rows, one cell whose duplicates fold to zero(s) and Boolean
    # values beyond 0 and 1
    rows, cols, inner = (data.draw(st.integers(1, 7)) for _ in range(3))
    z = tr.zero(s)
    cell = (data.draw(st.integers(0, rows - 1)), data.draw(st.integers(0, cols - 1)))
    entries = [e for e in triplets(data.draw, s, rows, cols) if e[:2] != cell]
    entries += [(*cell, z), (*cell, z)]
    a = tr.from_triplets(rows, cols, entries, s)
    assert tr.to_dense(a).to_rows()[cell[0]][cell[1]] == z
    assert_stored(a, s)
    # an array of triplets, and a shape of numpy integers
    shape = np.int64(rows), np.int64(cols)
    c = tr.from_triplets(*shape, np.array(entries, dtype=np.int64), s)
    assert_stored(c, s)
    assert c == a
    grid = data.draw(st.lists(st.lists(values(s), min_size=cols, max_size=cols),
                              min_size=rows, max_size=rows))
    assert_stored(tr.from_dense(tr.DenseMatrix(grid), s), s)
    assert_stored(sparse.transpose(a), s)
    b = tr.from_triplets(cols, inner, triplets(data.draw, s, cols, inner), s)
    # one block for the whole product, and blocks of one row or 3 products
    for block in (sparse._SPMM_BLOCK, 1, 3):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sparse, "_SPMM_BLOCK", block)
            assert_stored(tr.spmm(a, b), s)
    lines = [f"{rows} {cols} {len(entries)} {tr.semiring.TOKEN_OF[s]}"]
    lines += [f"{i} {j} {v}" for i, j, v in entries]
    parsed, _ = tr.parse_graph("\n".join(lines) + "\n")
    assert_stored(parsed, s)
    assert parsed == a


@pytest.mark.parametrize("s", ALL)
@PROPERTY
@given(data=st.data())
def test_spmv_matches_the_reference_and_counts_nnz(s, data):
    rows, cols = data.draw(st.integers(1, 7)), data.draw(st.integers(1, 7))
    a = tr.from_triplets(rows, cols, triplets(data.draw, s, rows, cols), s)
    x = data.draw(st.lists(values(s), min_size=cols, max_size=cols))
    y, mults = tr.spmv_instrumented(a, x)
    assert y == tr.matvec_reference(tr.to_dense(a), x, s)
    assert mults == a.nnz
    assert tr.spmv(a, x) == y
    # into a buffer of stale values: empty rows are overwritten with zero(s)
    out = np.array(data.draw(st.lists(values(s), min_size=rows, max_size=rows)), dtype=np.int64)
    assert tr.spmv(a, x, out=out) is out
    assert out.tolist() == y


def relax_oracle(rows, source, s):
    """Bellman-Ford in the semiring: n-1 rounds of d <- d (+) (d vecmat A),
    each computed from the previous d, then one more round to test
    stability. Under min-plus and max-plus, the unclipped sums into a stable
    d then tell whether the saturating (x) clipped a distance: a best sum
    past [FINITE_MIN, FINITE_MAX] is one. Returns the distances, or the
    error type expected."""
    n = len(rows)
    d = [tr.zero(s)] * n
    d[source] = tr.one(s)

    def round_(d):
        nxt = list(d)
        for i in range(n):
            for j in range(n):
                nxt[j] = tr.add(nxt[j], tr.mul(d[i], rows[i][j], s), s)
        return nxt

    for _ in range(n - 1):
        d = round_(d)
    if round_(d) != d:
        if s is SemiringId.MINPLUS:
            return tr.NegativeCycleError
        if s is SemiringId.MAXPLUS:
            return tr.PositiveCycleError
    if s in (SemiringId.MINPLUS, SemiringId.MAXPLUS):
        # the terms of each distance: one(s) at the source and d[i] + w over
        # its in-edges; a sum through an edge weighing the other sentinel
        # (-inf under min-plus, inf under max-plus) is clipped by definition
        z, other = tr.zero(s), (N if s is SemiringId.MINPLUS else P)
        best = min if s is SemiringId.MINPLUS else max
        for j in range(n):
            terms = [tr.one(s)] if j == source else []
            for i in range(n):
                w = rows[i][j]
                if d[i] != z and w != z:
                    terms.append(tr.mul(d[i], w, s) if w == other else d[i] + w)
            if terms and not FINITE_MIN <= best(terms) <= FINITE_MAX:
                return tr.SaturationError
    return d


def sssp_outcome(a, source, s):
    try:
        return tr.sssp(a, source, s)
    except (tr.NegativeCycleError, tr.PositiveCycleError, tr.SaturationError) as exc:
        return type(exc)


@pytest.mark.parametrize("s", ALL)
@PROPERTY
@given(data=st.data())
def test_csr_sssp_equals_dense_sssp_equals_bellman_ford(s, data):
    n = data.draw(st.integers(1, 7))
    entries = triplets(data.draw, s, n, n)
    if data.draw(st.booleans()):
        # small weights of both signs: cycles of every sign, no saturation
        entries = [(i, j, v % 21 - 10) for i, j, v in entries]
    csr = tr.from_triplets(n, n, entries, s)
    dense = tr.to_dense(csr)
    source = data.draw(st.integers(0, n - 1))
    want = relax_oracle(dense.to_rows(), source, s)
    assert sssp_outcome(dense, source, s) == want
    assert sssp_outcome(csr, source, s) == want


def test_bellman_ford_refuses_a_clipped_distance():
    # 0 -> 1 -> 2 sums to 2 * FINITE_MAX - 2, which the saturating (x) clips
    entries = [(0, 1, FINITE_MAX - 1), (1, 2, FINITE_MAX - 1)]
    csr = tr.from_triplets(3, 3, entries, SemiringId.MINPLUS)
    dense = tr.to_dense(csr)
    assert relax_oracle(dense.to_rows(), 0, SemiringId.MINPLUS) is tr.SaturationError
    assert sssp_outcome(dense, 0, SemiringId.MINPLUS) is tr.SaturationError
    assert sssp_outcome(csr, 0, SemiringId.MINPLUS) is tr.SaturationError
    assert relax_oracle(dense.to_rows(), 1, SemiringId.MINPLUS) == [P, 0, FINITE_MAX - 1]


@pytest.mark.parametrize(
    "s, entries, want",
    [
        (SemiringId.MAXPLUS, [(0, 2, P), (0, 1, FINITE_MIN), (1, 2, -5)],
         [0, FINITE_MIN, FINITE_MAX]),
        (SemiringId.MINPLUS, [(0, 2, N), (0, 1, FINITE_MAX), (1, 2, 5)],
         [0, FINITE_MAX, FINITE_MIN]),
    ],
)
def test_a_distance_set_by_an_infinite_edge_is_not_refused(s, entries, want):
    # vertex 2 sits at the limit through the sentinel edge 0 -> 2, whose sum
    # is clipped by definition; the sum past the range through vertex 1 is
    # not the best one, so nothing was clipped away
    csr = tr.from_triplets(3, 3, entries, s)
    dense = tr.to_dense(csr)
    assert relax_oracle(dense.to_rows(), 0, s) == want
    assert sssp_outcome(dense, 0, s) == want
    assert sssp_outcome(csr, 0, s) == want


@pytest.mark.parametrize("s", ALL)
@PROPERTY
@given(data=st.data())
def test_format_graph_round_trips(s, data):
    rows, cols = data.draw(st.integers(1, 7)), data.draw(st.integers(1, 7))
    csr = tr.from_triplets(rows, cols, triplets(data.draw, s, rows, cols), s)
    text = tr.format_graph(csr, s)
    back, s2 = tr.parse_graph(text)
    assert s2 is s and back == csr
    dense = tr.to_dense(csr)
    text = tr.format_graph(dense, s)
    back, s2 = tr.parse_graph(text)
    assert s2 is s and tr.to_dense(back) == dense
    assert tr.format_graph(back, s) == text


# tokens outside the grammar; "" drops the field, "out" is a value out of range
BAD_TOKENS = ["\u0663", "1_000", "+1", "0x1", "1.0", "-", "--1", "1-2", "1-", "info", "", "out"]


@pytest.mark.parametrize("token", BAD_TOKENS)
@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_the_first_bad_record_names_its_line(token, data):
    # one record carries the bad token; the error names its line, whatever
    # the valid records around it hold, with or without comment lines (with
    # them, the whole body is parsed line by line)
    n = data.draw(st.integers(1, 6))
    edge = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(-9, 9))
    edges = data.draw(st.lists(edge, min_size=1, max_size=8))
    bad = data.draw(st.integers(0, len(edges) - 1))
    field = data.draw(st.integers(0, 2))
    if token == "out":
        out = [str(n), "-1"] if field < 2 else ["2147483648", "-2147483649"]
        token = data.draw(st.sampled_from(out))
    fields = [list(map(str, e)) for e in edges]
    fields[bad][field] = token
    fillers = ["", "  \t", "# 0 1 2"] if data.draw(st.booleans()) else ["", "  \t"]
    lines = [f"{n} {len(edges)} minplus"]
    for k, f in enumerate(fields):
        if data.draw(st.booleans()):
            lines.append(data.draw(st.sampled_from(fillers)))
        lines.append(" ".join(t for t in f if t))
        if k == bad:
            line = len(lines)
    with pytest.raises(GraphParseError) as exc:
        tr.parse_graph("\n".join(lines) + "\n")
    assert exc.value.line == line
