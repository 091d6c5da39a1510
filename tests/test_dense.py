import random

import numpy as np
import pytest

import tropical as tr
from tropical import NEG_INF, POS_INF, DenseMatrix, SemiringId

ALL = list(SemiringId)
N, P = NEG_INF, POS_INF

MM_A = DenseMatrix([[2, 3, 1], [5, 0, 4]])
MM_B = DenseMatrix([[1, 2], [4, 0], [2, 3]])
CHAIN3 = DenseMatrix([[P, 2, 7], [P, P, 3], [P, P, P]])
# 4-vertex DAG: diamond with an extra middle edge
DIAMOND = DenseMatrix(
    [[P, 3, 5, P], [P, P, 4, 2], [P, P, P, 1], [P, P, P, P]]
)


def rand_matrix(rng, rows, cols, s, zero_p=0.3, lo=-50, hi=50):
    z = tr.zero(s)
    out = []
    for _ in range(rows):
        row = []
        for _ in range(cols):
            if rng.random() < zero_p:
                row.append(z)
            elif s is SemiringId.BOOLEAN:
                row.append(rng.randint(0, 1))
            else:
                row.append(rng.randint(lo, hi))
        out.append(row)
    return DenseMatrix(out)


def oracle_matmul(a, b, s):
    """Plain nested-loop product built from scalar ops only."""
    ar, br = a.to_rows(), b.to_rows()
    out = []
    for i in range(a.rows):
        row = []
        for j in range(b.cols):
            acc = tr.zero(s)
            for k in range(a.cols):
                acc = tr.add(acc, tr.mul(ar[i][k], br[k][j], s), s)
            row.append(acc)
        out.append(row)
    return DenseMatrix(out)


def oracle_power_sum(a, s):
    """(+)_{k=0}^{n-1} A^k from repeated oracle products."""
    n = a.rows
    total = tr.identity(n, s)
    power = tr.identity(n, s)
    for _ in range(n - 1):
        power = oracle_matmul(power, a, s)
        total = tr.elementwise_add(total, power, s)
    return total


def test_identity_examples():
    e = tr.identity(2, SemiringId.MAXPLUS)
    assert e.to_rows() == [[0, N], [N, 0]]
    assert tr.identity(1, SemiringId.BOOLEAN).to_rows() == [[1]]


def test_identity_law():
    rng = random.Random(0)
    for s in ALL:
        a = rand_matrix(rng, 4, 4, s)
        e = tr.identity(4, s)
        assert tr.matmul(a, e, s) == a
        assert tr.matmul(e, a, s) == a


def test_elementwise_add():
    a = DenseMatrix([[2]])
    b = DenseMatrix([[5]])
    assert tr.elementwise_add(a, b, SemiringId.MINPLUS).to_rows() == [[2]]
    rng = random.Random(1)
    for s in ALL:
        m = rand_matrix(rng, 3, 5, s)
        assert tr.elementwise_add(m, m, s) == m
        zmat = DenseMatrix.filled(3, 5, tr.zero(s))
        assert tr.elementwise_add(m, zmat, s) == m
    with pytest.raises(ValueError):
        tr.elementwise_add(a, DenseMatrix([[1, 2]]), SemiringId.MAXPLUS)


def test_matmul_known_values():
    c_max = tr.matmul(MM_A, MM_B, SemiringId.MAXPLUS)
    assert c_max.get(0, 0) == 7
    assert c_max.to_rows() == [[7, 4], [6, 7]]
    c_min = tr.matmul(MM_A, MM_B, SemiringId.MINPLUS)
    assert c_min.get(0, 0) == 3
    assert c_min.to_rows() == [[3, 3], [4, 0]]


def test_matmul_associative():
    rng = random.Random(2)
    for s in ALL:
        for _ in range(10):
            a = rand_matrix(rng, 4, 4, s)
            b = rand_matrix(rng, 4, 4, s)
            c = rand_matrix(rng, 4, 4, s)
            left = tr.matmul(tr.matmul(a, b, s), c, s)
            right = tr.matmul(a, tr.matmul(b, c, s), s)
            assert left == right


def test_matmul_distributes_over_add():
    rng = random.Random(12)
    for s in ALL:
        for _ in range(10):
            a = rand_matrix(rng, 4, 4, s)
            b = rand_matrix(rng, 4, 4, s)
            c = rand_matrix(rng, 4, 4, s)
            left = tr.matmul(a, tr.elementwise_add(b, c, s), s)
            right = tr.elementwise_add(tr.matmul(a, b, s), tr.matmul(a, c, s), s)
            assert left == right
            left = tr.matmul(tr.elementwise_add(a, b, s), c, s)
            right = tr.elementwise_add(tr.matmul(a, c, s), tr.matmul(b, c, s), s)
            assert left == right


def test_matmul_not_commutative_witness():
    rng = random.Random(3)
    found = False
    for _ in range(50):
        a = rand_matrix(rng, 3, 3, SemiringId.MAXPLUS)
        b = rand_matrix(rng, 3, 3, SemiringId.MAXPLUS)
        if tr.matmul(a, b, SemiringId.MAXPLUS) != tr.matmul(b, a, SemiringId.MAXPLUS):
            found = True
            break
    assert found


def test_matmul_dimension_error():
    with pytest.raises(ValueError):
        tr.matmul(MM_A, MM_A, SemiringId.MAXPLUS)


def test_matvec_examples():
    rng = random.Random(4)
    for s in ALL:
        x = [rand_matrix(rng, 1, 1, s).get(0, 0) for _ in range(4)]
        e = tr.identity(4, s)
        assert tr.matvec(e, x, s) == x
    # unit min-plus vector picks out a column
    x = [0, P, P]
    assert tr.matvec(CHAIN3, x, SemiringId.MINPLUS) == [P, P, P]
    # consistency with the matrix product on a one-column matrix
    xs = [3, 1, 4]
    col = DenseMatrix([[v] for v in xs])
    prod = tr.matmul(CHAIN3, col, SemiringId.MINPLUS)
    assert tr.matvec(CHAIN3, xs, SemiringId.MINPLUS) == [prod.get(i, 0) for i in range(3)]


def test_vecmat_examples():
    rng = random.Random(5)
    for s in ALL:
        x = [rand_matrix(rng, 1, 1, s).get(0, 0) for _ in range(3)]
        assert tr.vecmat(x, tr.identity(3, s), s) == x
        a = rand_matrix(rng, 3, 4, s)
        assert tr.vecmat(x, a, s) == tr.matvec(tr.transpose(a), x, s)
    # one relaxation step from the unit vector at vertex 0 realizes row 0 paths
    x = [0, P, P]
    step = tr.vecmat(x, CHAIN3, SemiringId.MINPLUS)
    relaxed = [tr.add(u, v, SemiringId.MINPLUS) for u, v in zip(x, step)]
    assert relaxed == [0, 2, 7]


@pytest.mark.parametrize("s", ALL)
def test_vecmat_reused_buffer_is_overwritten_in_full(s):
    rng = random.Random(6)
    a = rand_matrix(rng, 3, 4, s)
    out = np.full(4, 2**62, dtype=np.int64)
    # the last x is all zero(s): no row is live, and every y_j is zero(s)
    for x in ([tr.one(s), tr.zero(s), tr.one(s)], [tr.one(s)] * 3, [tr.zero(s)] * 3):
        assert tr.vecmat(x, a, s, out=out) is out
        assert out.tolist() == tr.vecmat_reference(x, a, s)
        out[:] = -(2**62)


def test_vecmat_refuses_a_wrong_out_before_writing():
    for out in (
        np.full(3, 9, dtype=np.int32),
        np.full(3, 9, dtype=np.float64),
        np.full(2, 9, dtype=np.int64),
        np.full(4, 9, dtype=np.int64),
        np.full((3, 1), 9, dtype=np.int64),
    ):
        with pytest.raises(ValueError, match="out must be"):
            tr.vecmat([0, 0, 0], CHAIN3, SemiringId.MINPLUS, out=out)
        assert (out == 9).all()
    with pytest.raises(ValueError, match="out must be"):
        tr.vecmat([0, 0, 0], CHAIN3, SemiringId.MINPLUS, out=[9] * 3)


def test_matpow():
    assert tr.matpow(CHAIN3, 0, SemiringId.MINPLUS) == tr.identity(3, SemiringId.MINPLUS)
    a2 = tr.matpow(DIAMOND, 2, SemiringId.MINPLUS)
    assert a2.get(0, 3) == 5
    a3 = tr.matpow(DIAMOND, 3, SemiringId.MINPLUS)
    assert a3.get(0, 3) == 8
    rng = random.Random(6)
    for s in ALL:
        a = rand_matrix(rng, 4, 4, s)
        assert tr.matpow(a, 3, s) == tr.matmul(tr.matmul(a, a, s), a, s)
    with pytest.raises(ValueError):
        tr.matpow(MM_A, 2, SemiringId.MAXPLUS)


def test_powers_as_paths():
    # (A^k)_ij equals the best value over all k-edge walks, per semiring
    rng = random.Random(7)
    for s in ALL:
        for _ in range(5):
            n = rng.randint(2, 6)
            m = rand_dag(rng, n, s)
            rows = m.to_rows()
            for k in range(n):
                pk = tr.matpow(m, k, s)
                for i in range(n):
                    for j in range(n):
                        assert pk.get(i, j) == walk_value(rows, i, j, k, s)


def rand_dag(rng, n, s):
    z = tr.zero(s)
    rows = [[z] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.6:
                if s is SemiringId.BOOLEAN:
                    rows[i][j] = 1
                else:
                    rows[i][j] = rng.randint(1, 9)
    return DenseMatrix(rows)


def walk_value(rows, i, j, k, s):
    if k == 0:
        return tr.one(s) if i == j else tr.zero(s)
    acc = tr.zero(s)
    for mid in range(len(rows)):
        tail = walk_value(rows, mid, j, k - 1, s)
        acc = tr.add(acc, tr.mul(rows[i][mid], tail, s), s)
    return acc


def test_closure_chain_with_shortcut():
    star = tr.closure(CHAIN3, SemiringId.MINPLUS)
    assert star.to_rows() == [[0, 2, 5], [P, 0, 3], [P, P, 0]]


def test_closure_of_zero_matrix_is_identity():
    for s in ALL:
        zmat = DenseMatrix.filled(4, 4, tr.zero(s))
        assert tr.closure(zmat, s) == tr.identity(4, s)


def convergent_bounds(s, lo=-50, hi=50):
    # Kleene convergence needs no "improving" cycles: non-negative weights for
    # min-plus, non-positive for max-plus; the lattice semirings always converge
    if s is SemiringId.MINPLUS:
        return 0, hi
    if s is SemiringId.MAXPLUS:
        return lo, 0
    return lo, hi


def test_closure_matches_power_sum_oracle():
    rng = random.Random(8)
    for s in ALL:
        for _ in range(8):
            lo, hi = convergent_bounds(s)
            a = rand_matrix(rng, 6, 6, s, lo=lo, hi=hi)
            assert tr.closure(a, s) == oracle_power_sum(a, s)


def test_closure_idempotent_minplus():
    rng = random.Random(9)
    for _ in range(10):
        a = rand_matrix(rng, 5, 5, SemiringId.MINPLUS, lo=0)
        star = tr.closure(a, SemiringId.MINPLUS)
        assert tr.matmul(star, star, SemiringId.MINPLUS) == star
        assert tr.closure(star, SemiringId.MINPLUS) == star


def test_closure_negative_cycle():
    a = DenseMatrix([[P, -5, P], [2, P, 1], [P, P, P]])
    with pytest.raises(tr.NegativeCycleError) as exc:
        tr.closure(a, SemiringId.MINPLUS)
    assert 0 in exc.value.vertices and 1 in exc.value.vertices
    # the swept matrix is still attached
    assert isinstance(exc.value.matrix, DenseMatrix)
    assert exc.value.matrix.get(0, 0) < 0


def test_closure_positive_cycle():
    # the max-plus counterpart: the 2-cycle 0 -> 1 -> 0 weighs 5, so its
    # longest paths grow without bound; vertex 2 lies on no cycle
    a = DenseMatrix([[N, 2, N], [3, N, 1], [N, N, N]])
    for closure in (tr.closure, tr.all_pairs_paths):
        with pytest.raises(tr.PositiveCycleError) as exc:
            closure(a, SemiringId.MAXPLUS)
        assert exc.value.vertices == (0, 1)
        assert str(exc.value) == "positive cycle through vertices [0, 1]"
        # the swept matrix is still attached, as the reference sweep gives it
        assert exc.value.matrix == tr.closure_reference(a, SemiringId.MAXPLUS)
        assert exc.value.matrix.get(0, 0) > 0


def test_transpose():
    assert tr.transpose(DenseMatrix([[1, 2], [3, 4]])).to_rows() == [[1, 3], [2, 4]]
    e = tr.identity(3, SemiringId.MAXPLUS)
    assert tr.transpose(e) == e
    a = DenseMatrix([[1, 2, 3], [4, 5, 6]])
    assert tr.transpose(tr.transpose(a)) == a


@pytest.mark.parametrize("s", ALL)
def test_vectorized_kernels_match_reference(s):
    rng = random.Random(10)
    for _ in range(6):
        n = rng.randint(1, 9)
        a = rand_sentinel_matrix(rng, n, n, s)
        b = rand_sentinel_matrix(rng, n, n, s)
        assert tr.matmul(a, b, s) == tr.matmul_reference(a, b, s)
        assert tr.dense._closure_kernel(a, s).tolist() == tr.closure_reference(a, s).to_rows()
        x = [rand_sentinel_matrix(rng, 1, 1, s).get(0, 0) for _ in range(n)]
        assert tr.matvec(a, x, s) == tr.matvec_reference(a, x, s)
        assert tr.vecmat(x, a, s) == tr.vecmat_reference(x, a, s)


def rand_sentinel_matrix(rng, rows, cols, s):
    out = []
    for _ in range(rows):
        row = []
        for _ in range(cols):
            c = rng.random()
            if c < 0.2:
                row.append(N)
            elif c < 0.3:
                row.append(P)
            elif s is SemiringId.BOOLEAN:
                row.append(rng.randint(0, 1))
            else:
                row.append(rng.randint(-(10**6), 10**6))
        out.append(row)
    return DenseMatrix(out)


def test_matrix_validation():
    with pytest.raises(ValueError):
        DenseMatrix([])
    with pytest.raises(ValueError):
        DenseMatrix([[1], [2, 3]])
    with pytest.raises(ValueError):
        DenseMatrix([[2**40]])
    with pytest.raises(TypeError):
        DenseMatrix([[1.5]])
