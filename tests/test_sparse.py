import random
import tracemalloc

import numpy as np
import pytest

import tropical as tr
from tropical import NEG_INF, POS_INF, CsrMatrix, DenseMatrix, SemiringId, bench

ALL = list(SemiringId)

# 4x4 max-plus example: values [5,3,2,7,1,4,6] in rows (0,0)(0,2)(1,1)(1,3)(2,0)(3,2)(3,3)
SAMPLE4_DENSE = DenseMatrix(
    [
        [5, NEG_INF, 3, NEG_INF],
        [NEG_INF, 2, NEG_INF, 7],
        [1, NEG_INF, NEG_INF, NEG_INF],
        [NEG_INF, NEG_INF, 4, 6],
    ]
)
SAMPLE4_TRIPLETS = [(0, 0, 5), (0, 2, 3), (1, 1, 2), (1, 3, 7), (2, 0, 1), (3, 2, 4), (3, 3, 6)]


def check_invariants(a: CsrMatrix):
    assert a.row_ptr[0] == 0
    assert a.row_ptr[-1] == a.nnz
    z = tr.zero(a.semiring)
    for i in range(a.rows):
        lo, hi = int(a.row_ptr[i]), int(a.row_ptr[i + 1])
        cols = a.col_idx[lo:hi].tolist()
        assert cols == sorted(set(cols))
        assert all(0 <= c < a.cols for c in cols)
    assert all(v != z for v in a.values.tolist())


def rand_dense(rng, n, s, sparsity):
    z = tr.zero(s)
    rows = []
    for _ in range(n):
        row = []
        for _ in range(n):
            if rng.random() < sparsity:
                row.append(z)
            elif s is SemiringId.BOOLEAN:
                row.append(1)
            else:
                row.append(rng.randint(-40, 40))
        rows.append(row)
    return DenseMatrix(rows)


def test_from_triplets_known_layout():
    a = tr.from_triplets(4, 4, SAMPLE4_TRIPLETS, SemiringId.MAXPLUS)
    assert a.values.tolist() == [5, 3, 2, 7, 1, 4, 6]
    assert a.col_idx.tolist() == [0, 2, 1, 3, 0, 2, 3]
    assert a.row_ptr.tolist() == [0, 2, 4, 5, 7]
    check_invariants(a)


def test_from_triplets_empty_and_duplicates():
    a = tr.from_triplets(3, 3, [], SemiringId.MINPLUS)
    assert a.nnz == 0
    assert a.row_ptr.tolist() == [0, 0, 0, 0]
    b = tr.from_triplets(2, 2, [(0, 0, 3), (0, 0, 5)], SemiringId.MAXPLUS)
    assert b.nnz == 1
    assert b.values.tolist() == [5]
    with pytest.raises(ValueError):
        tr.from_triplets(2, 2, [(0, 5, 1)], SemiringId.MAXPLUS)


def test_from_triplets_drops_zero_results():
    # duplicate entries that combine to the semiring zero must vanish
    a = tr.from_triplets(1, 1, [(0, 0, NEG_INF)], SemiringId.MAXPLUS)
    assert a.nnz == 0
    b = tr.from_triplets(2, 2, [(0, 1, 0), (1, 0, 7)], SemiringId.BOOLEAN)
    assert b.nnz == 1


def test_boolean_normalized_at_construction():
    a = tr.from_triplets(2, 2, [(0, 1, 9), (1, 0, -3)], SemiringId.BOOLEAN)
    assert a.values.tolist() == [1, 1]


def test_to_dense_known_layout():
    a = tr.from_triplets(4, 4, SAMPLE4_TRIPLETS, SemiringId.MAXPLUS)
    assert tr.to_dense(a) == SAMPLE4_DENSE
    empty = tr.from_triplets(2, 3, [], SemiringId.MINPLUS)
    assert tr.to_dense(empty) == DenseMatrix.filled(2, 3, POS_INF)


def test_dense_round_trip():
    rng = random.Random(0)
    for s in ALL:
        for sparsity in (0.0, 0.5, 0.9):
            d = rand_dense(rng, 8, s, sparsity)
            a = tr.from_dense(d, s)
            check_invariants(a)
            assert tr.to_dense(a) == d
            assert tr.from_dense(tr.to_dense(a), s) == a


def test_from_dense_identity_minplus():
    a = tr.from_dense(tr.identity(3, SemiringId.MINPLUS), SemiringId.MINPLUS)
    assert a.nnz == 3
    assert a.values.tolist() == [0, 0, 0]
    z = tr.from_dense(DenseMatrix.filled(3, 3, NEG_INF), SemiringId.MAXPLUS)
    assert z.nnz == 0


def test_spmv_known_values():
    a = tr.from_triplets(4, 4, SAMPLE4_TRIPLETS, SemiringId.MAXPLUS)
    assert tr.spmv(a, [0, 0, 0, 0]) == [5, 7, 1, 6]


def test_spmv_matches_dense():
    rng = random.Random(1)
    for s in ALL:
        for _ in range(6):
            d = rand_dense(rng, 7, s, 0.5)
            a = tr.from_dense(d, s)
            x = [1 if s is SemiringId.BOOLEAN else rng.randint(-20, 20) for _ in range(7)]
            assert tr.spmv(a, x) == tr.matvec(d, x, s)


def test_spmv_empty_and_counts():
    a = tr.from_triplets(3, 3, [], SemiringId.MINPLUS)
    y, mults = tr.spmv_instrumented(a, [1, 2, 3])
    assert y == [POS_INF] * 3
    assert mults == 0
    b = tr.from_triplets(4, 4, SAMPLE4_TRIPLETS, SemiringId.MAXPLUS)
    y, mults = tr.spmv_instrumented(b, [0, 0, 0, 0])
    assert mults == b.nnz
    with pytest.raises(ValueError):
        tr.spmv(b, [0, 0])


@pytest.mark.parametrize("s", ALL)
def test_spmv_reused_buffer_is_overwritten_in_full(s):
    # rows 0 and 2 store nothing: the stale values there become zero(s)
    one = tr.one(s)
    a = tr.from_triplets(4, 3, [(1, 0, one), (3, 2, one)], s)
    out = np.full(4, 2**62, dtype=np.int64)
    for x in ([one, tr.zero(s), one], [tr.zero(s)] * 3):
        assert tr.spmv(a, x, out=out) is out
        assert out.tolist() == tr.spmv(a, x)
        out[:] = -(2**62)
    empty = tr.from_triplets(2, 2, [], s)
    assert tr.spmv(empty, [one, one], out=np.full(2, 5, dtype=np.int64)).tolist() == [
        tr.zero(s)
    ] * 2


def test_spmv_refuses_a_wrong_out_before_writing():
    a = tr.from_triplets(4, 4, SAMPLE4_TRIPLETS, SemiringId.MAXPLUS)
    for out in (
        np.full(4, 9, dtype=np.int32),
        np.full(4, 9, dtype=np.float64),
        np.full(3, 9, dtype=np.int64),
        np.full(5, 9, dtype=np.int64),
        np.full((1, 4), 9, dtype=np.int64),
    ):
        with pytest.raises(ValueError, match="out must be"):
            tr.spmv(a, [0, 0, 0, 0], out=out)
        with pytest.raises(ValueError, match="out must be"):
            tr.spmv_instrumented(a, [0, 0, 0, 0], out=out)
        assert (out == 9).all()
    with pytest.raises(ValueError, match="out must be"):
        tr.spmv(a, [0, 0, 0, 0], out=[9] * 4)


def test_spmm_matches_dense():
    rng = random.Random(2)
    for s in ALL:
        for sparsity in (0.3, 0.7):
            da = rand_dense(rng, 6, s, sparsity)
            db = rand_dense(rng, 6, s, sparsity)
            c = tr.spmm(tr.from_dense(da, s), tr.from_dense(db, s))
            check_invariants(c)
            assert tr.to_dense(c) == tr.matmul(da, db, s)


def test_spmm_identity_and_empty():
    a = tr.from_triplets(4, 4, SAMPLE4_TRIPLETS, SemiringId.MAXPLUS)
    e = tr.from_dense(tr.identity(4, SemiringId.MAXPLUS), SemiringId.MAXPLUS)
    assert tr.spmm(a, e) == a
    empty = tr.from_triplets(4, 4, [], SemiringId.MAXPLUS)
    assert tr.spmm(empty, a).nnz == 0


def test_spmm_errors():
    a = tr.from_triplets(2, 3, [(0, 0, 1)], SemiringId.MAXPLUS)
    b = tr.from_triplets(2, 2, [(0, 0, 1)], SemiringId.MAXPLUS)
    with pytest.raises(ValueError):
        tr.spmm(a, b)
    c = tr.from_triplets(3, 2, [(0, 0, 1)], SemiringId.MINPLUS)
    with pytest.raises(ValueError):
        tr.spmm(a, c)


@pytest.mark.parametrize("rows, cols", [(-1, 2), (0, 3), (3, 0), (2, -5)])
def test_from_triplets_refuses_a_shape_without_rows_or_columns(rows, cols):
    with pytest.raises(ValueError, match="^matrix must have at least one row and one column$"):
        tr.from_triplets(rows, cols, [], SemiringId.MINPLUS)


def test_spmm_scratch_is_bounded_by_its_product():
    # a degree-8 min-plus graph of 16,000 vertices times itself: about a
    # million stored products, 8.2 MB of CSR storage. Building the product
    # may hold it twice over (its blocks and their join) plus the scratch
    # of one block, but no validation pass over the whole of it. Under
    # numpy 2.4 the peak is 2.9 times the storage; validating each block
    # and then the join took it to 6.0.
    a = bench.random_graph(16_000, SemiringId.MINPLUS, np.random.default_rng(0), 8)
    tracemalloc.start()
    try:
        c = tr.spmm(a, a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4.5 * tr.memory_bytes(c)


def test_memory_bytes():
    a = tr.from_triplets(4, 4, SAMPLE4_TRIPLETS, SemiringId.MAXPLUS)
    assert tr.memory_bytes(a) == 8 * 7 + 4 * 4 + 4 == 76
    b = tr.from_triplets(1, 1, [], SemiringId.MAXPLUS)
    assert tr.memory_bytes(b) == 8


def test_memory_crossover():
    # CSR beats the 4n^2 dense footprint exactly when nnz < (n^2 - n - 1) / 2
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(2, 12)
        nnz = rng.randint(0, n * n)
        entries = []
        cells = [(i, j) for i in range(n) for j in range(n)]
        rng.shuffle(cells)
        for i, j in cells[:nnz]:
            entries.append((i, j, rng.randint(1, 9)))
        a = tr.from_triplets(n, n, entries, SemiringId.MAXPLUS)
        assert (tr.memory_bytes(a) < 4 * n * n) == (a.nnz < (n * n - n - 1) / 2)


def test_csr_validation():
    with pytest.raises(ValueError):
        CsrMatrix(2, 2, [1], [0], [0, 1, 2], SemiringId.MAXPLUS)
    with pytest.raises(ValueError):
        CsrMatrix(2, 2, [1, 2], [1, 0], [0, 2, 2], SemiringId.MAXPLUS)
    with pytest.raises(ValueError):
        CsrMatrix(1, 1, [NEG_INF], [0], [0, 1], SemiringId.MAXPLUS)
    with pytest.raises(ValueError):
        CsrMatrix(1, 1, [7], [0], [0, 1], SemiringId.BOOLEAN)


def test_csr_validation_names_the_first_bad_row():
    # row 1 repeats a column, row 2 holds one out of range: row 1 is named
    with pytest.raises(ValueError, match="^row 1: column indices"):
        CsrMatrix(3, 3, [1, 2, 3, 4], [0, 2, 2, 7], [0, 1, 3, 4], SemiringId.MAXPLUS)
    with pytest.raises(ValueError, match="^row 2: column indices"):
        CsrMatrix(3, 3, [1, 2, 3, 4], [0, 0, 2, 3], [0, 1, 3, 4], SemiringId.MAXPLUS)
    with pytest.raises(ValueError, match="^row 0: column indices"):
        CsrMatrix(2, 3, [1, 2], [2, 1], [0, 2, 2], SemiringId.MAXPLUS)


@pytest.mark.parametrize(
    "values, col_idx, row_ptr, error, match",
    [
        (np.array([2**32 + 5]), [0], [0, 1], ValueError, "^value 4294967301 outside the 32-bit"),
        ([POS_INF + 1], [0], [0, 1], ValueError, "^value 2147483648 outside the 32-bit"),
        ([NEG_INF - 1], [0], [0, 1], ValueError, "^value -2147483649 outside the 32-bit"),
        ([1.5], [0], [0, 1], TypeError, "^tropical values must be integers, got float$"),
        (np.array([2.0]), [0], [0, 1], TypeError, "got float$"),
        ([1], [-1], [0, 1], ValueError, "^column index -1 outside"),
        ([1], np.array([2**32]), [0, 1], ValueError, "^column index 4294967296 outside"),
        ([1], [0.0], [0, 1], TypeError, "got float$"),
        ([1, 2], [0, 0], np.array([0, 1, 2**32 + 2]), ValueError, "^row pointer 4294967298"),
        ([1, 2], [0, 0], [0, -1, 2], ValueError, "^row pointer -1 outside"),
        ([1, 2], [0, 0], [0, 1, 2.0], TypeError, "got float$"),
    ],
    ids=["value-array-past-2**32", "value-past-pos-inf", "value-below-neg-inf", "value-float",
         "value-float-array", "column-negative", "column-at-2**32", "column-float",
         "row-ptr-past-2**32", "row-ptr-negative", "row-ptr-float"],
)
def test_csr_refuses_numbers_its_storage_would_wrap(values, col_idx, row_ptr, error, match):
    rows = len(row_ptr) - 1
    with pytest.raises(error, match=match):
        CsrMatrix(rows, 1, values, col_idx, row_ptr, SemiringId.MINPLUS)


def test_csr_takes_any_integer_array_that_fits_its_storage():
    expect = CsrMatrix(2, 3, [NEG_INF, POS_INF - 1], [2, 0], [0, 1, 2], SemiringId.MINPLUS)
    for dtype in (np.int64, np.uint64, np.int32):
        cols = np.array([2, 0], dtype=dtype)
        ptr = np.array([0, 1, 2], dtype=dtype)
        vals = np.array([NEG_INF, POS_INF - 1], dtype=np.int64 if dtype is np.uint64 else dtype)
        a = CsrMatrix(2, 3, vals, cols, ptr, SemiringId.MINPLUS)
        assert a == expect
        assert (a.values.dtype, a.col_idx.dtype, a.row_ptr.dtype) == (
            np.int32, np.uint32, np.uint32
        )
    empty = CsrMatrix(1, 1, [], [], [0, 0], SemiringId.MAXPLUS)
    assert empty.nnz == 0


@pytest.mark.parametrize(
    "entries, match",
    [
        ([(0, 1, 1.7)], "^tropical values must be integers, got float$"),
        ([(0.9, 1, 3)], "^tropical values must be integers, got float$"),
        ([(0, 1, 3), (1, 0, "4")], "^tropical values must be integers, got str$"),
        (np.array([[0, 1, 2.0]]), "^tropical values must be integers, got float$"),
    ],
    ids=["value", "index", "string", "float-array"],
)
def test_from_triplets_refuses_non_integer_entries(entries, match):
    with pytest.raises(TypeError, match=match):
        tr.from_triplets(2, 2, entries, SemiringId.MINPLUS)


@pytest.mark.parametrize(
    "entries, match",
    [
        ([(0, 1, 2**70)], "^value 1180591620717411303424 outside the 32-bit tropical range$"),
        (
            np.array([[0, 1, 2**63 + 5]], dtype=np.uint64),
            "^value 9223372036854775813 outside the 32-bit tropical range$",
        ),
        (
            np.array([[2**64 - 1, 1, 3]], dtype=np.uint64),
            r"^entry index \(18446744073709551615, 1\) out of range for 2x2$",
        ),
    ],
    ids=["python-int", "uint64-value", "uint64-index"],
)
def test_from_triplets_names_an_integer_past_int64_as_given(entries, match):
    # the range checks come before the int64 cast, which would overflow or wrap
    with pytest.raises(ValueError, match=match):
        tr.from_triplets(2, 2, entries, SemiringId.MINPLUS)


@pytest.mark.parametrize(
    "build, match",
    [
        (lambda: tr.from_triplets(2, 2, [(0, 1)], SemiringId.MINPLUS), "triplets"),
        (lambda: tr.from_triplets(2, 2, [0, 1, 2], SemiringId.MINPLUS), "triplets"),
        (
            lambda: tr.from_triplets(2, 2, [(0, 1, POS_INF + 1)], SemiringId.MINPLUS),
            "^value 2147483648 outside the 32-bit tropical range$",
        ),
        (
            lambda: CsrMatrix(2, 2, [1, 2], [0], [0, 1, 2], SemiringId.MINPLUS),
            "^values and col_idx lengths differ$",
        ),
        (
            lambda: CsrMatrix(2, 2, [1], [0], [0, 1], SemiringId.MINPLUS),
            "^row_ptr must have rows\\+1 entries$",
        ),
        (
            lambda: CsrMatrix(2, 2, [1], [0], [1, 1, 1], SemiringId.MINPLUS),
            "^row_ptr must start at 0 and end at nnz$",
        ),
        (
            lambda: CsrMatrix(2, 2, [1], [0], [0, 2, 1], SemiringId.MINPLUS),
            "^row_ptr must be non-decreasing$",
        ),
    ],
    ids=["pairs", "flat", "past-pos-inf", "lengths", "row-ptr-length", "row-ptr-ends",
         "row-ptr-order"],
)
def test_sparse_construction_refusals(build, match):
    with pytest.raises(ValueError, match=match):
        build()
