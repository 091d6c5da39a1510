"""Property tests: the wide-encoded products against the scalar references.

``matmul``, ``matvec``, ``vecmat`` and ``spmv`` run min-plus and max-plus on
int64 with the zero held as, or masked to, the wide zero, and decode the
result once; the lattice semirings run on int32. ``matmul`` accumulates row
chunks. Inputs are heavy in sentinels, in values near the finite limits (so
that sums leave the finite range), in the other sentinel acting as a value
(POS_INF under max-plus, NEG_INF under min-plus), in zero(s) entries of x and
in all-zero columns; Boolean gets values beyond 0 and 1. Every case must
match the ``*_reference`` kernels bit for bit; ``spmm`` runs on the CSR forms
of the ``matmul`` operands.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tropical as tr
from tropical import DenseMatrix, SemiringId
from tropical.semiring import FINITE_MAX, FINITE_MIN, NEG_INF, POS_INF

ALL = list(SemiringId)
P, N = POS_INF, NEG_INF

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def values(s):
    return st.one_of(
        st.sampled_from([N, P, tr.zero(s), tr.zero(s), tr.one(s), FINITE_MAX, FINITE_MIN]),
        st.integers(FINITE_MAX - 2000, POS_INF),
        st.integers(NEG_INF, FINITE_MIN + 2000),
        st.integers(-50, 50),
    )


def matrix(draw, s, rows, cols):
    """A rows x cols matrix; some of its columns are all zero(s)."""
    grid = draw(st.lists(st.lists(values(s), min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows))
    for j in draw(st.lists(st.integers(0, cols - 1), max_size=cols)):
        for row in grid:
            row[j] = tr.zero(s)
    return DenseMatrix(grid)


def vector(draw, s, n):
    return draw(st.lists(st.one_of(values(s), st.just(tr.zero(s))), min_size=n, max_size=n))


def stale(draw, n):
    """An int64 out buffer of n leftover values from anywhere in its range."""
    return np.array(draw(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=n, max_size=n)),
                    dtype=np.int64)


def size(draw):
    return draw(st.integers(1, 8))


@pytest.mark.parametrize("s", ALL)
@PROPERTY
@given(data=st.data())
def test_matmul_matches_reference(s, data):
    m, k, n = size(data.draw), size(data.draw), size(data.draw)
    a, b = matrix(data.draw, s, m, k), matrix(data.draw, s, k, n)
    want = tr.matmul_reference(a, b, s)
    # the default chunk holds every row; 2n + 1 elements is two rows per
    # chunk, with a ragged last chunk when m is odd
    for chunk in (tr.dense._PRODUCT_CHUNK, 2 * n + 1):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tr.dense, "_PRODUCT_CHUNK", chunk)
            got = tr.matmul(a, b, s)
        assert got._arr.dtype.name == "int32"
        assert got == want
    # spmm on the CSR forms (from_dense maps Boolean values to 0 and 1), at
    # the default block, which holds every product, and at blocks of 3
    # products: one row per block when a row has more
    sa, sb = tr.from_dense(a, s), tr.from_dense(b, s)
    want = tr.matmul_reference(tr.to_dense(sa), tr.to_dense(sb), s)
    for block in (tr.sparse._SPMM_BLOCK, 3):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tr.sparse, "_SPMM_BLOCK", block)
            got = tr.spmm(sa, sb)
        assert tr.to_dense(got) == want


@pytest.mark.parametrize("s", ALL)
@PROPERTY
@given(data=st.data())
def test_matvec_and_vecmat_match_reference(s, data):
    m, n = size(data.draw), size(data.draw)
    a = matrix(data.draw, s, m, n)
    x = vector(data.draw, s, n)
    assert tr.matvec(a, x, s) == tr.matvec_reference(a, x, s)
    y = vector(data.draw, s, m)
    want = tr.vecmat_reference(y, a, s)
    assert tr.vecmat(y, a, s) == want
    # into a buffer of stale values: every entry is overwritten
    out = stale(data.draw, n)
    assert tr.vecmat(y, a, s, out=out) is out
    assert out.tolist() == want


@pytest.mark.parametrize("s", ALL)
@PROPERTY
@given(data=st.data())
def test_spmv_matches_reference(s, data):
    m, n = size(data.draw), size(data.draw)
    csr = tr.from_dense(matrix(data.draw, s, m, n), s)
    x = vector(data.draw, s, n)
    y, mults = tr.spmv_instrumented(csr, x)
    assert y == tr.matvec_reference(tr.to_dense(csr), x, s)
    assert mults == csr.nnz
    out = stale(data.draw, m)
    got, count = tr.spmv_instrumented(csr, x, out=out)
    assert got is out and count == csr.nnz
    assert out.tolist() == y


@pytest.mark.parametrize("s", [SemiringId.MINPLUS, SemiringId.MAXPLUS])
def test_sums_at_and_past_both_ends_of_the_finite_range(s):
    # every finite sum lies within 2^32 of 0: the largest and the smallest
    # clip to the limits, and none comes near the cut of the wide zero
    inf = P if s is SemiringId.MAXPLUS else N
    vals = [FINITE_MAX, FINITE_MIN, inf, tr.zero(s), 0, 1, -1]
    col = DenseMatrix([[v] for v in vals])
    row = DenseMatrix([vals])
    assert tr.matmul(col, row, s) == tr.matmul_reference(col, row, s)
    for v in vals:
        x = [v] * len(vals)
        assert tr.matvec(row, x, s) == tr.matvec_reference(row, x, s)
        assert tr.vecmat(x, col, s) == tr.vecmat_reference(x, col, s)
        assert tr.spmv(tr.from_dense(row, s), x) == tr.matvec_reference(row, x, s)


@pytest.mark.parametrize("s", [SemiringId.MINPLUS, SemiringId.MAXPLUS])
def test_decode_splits_at_the_cut(s):
    # the encoding: a sum up to 2^60 from 0 is a value, clipped to the finite
    # range; past 2^60 on the zero's side it is zero(s). No product sum comes
    # within 2^59 of the cut, so the cut is pinned here directly
    sign = 1 if s is SemiringId.MINPLUS else -1
    limit = FINITE_MAX if sign > 0 else FINITE_MIN
    w = np.array([sign * 2**60, sign * (2**60 + 1), sign * 2**61, 2**32, -(2**32), 7])
    want = [limit, tr.zero(s), tr.zero(s), FINITE_MAX, FINITE_MIN, 7]
    assert tr.dense._decode(w, s).tolist() == want
