import copy
import math
import pickle
import random
from fractions import Fraction

import pytest

import tropical as tr
from tropical import NEG_INF, CycleMean, DenseMatrix, SemiringId

N = NEG_INF

# cycles 0->1->2->0 (mean 8/3) and 1->3->1 (mean 5/2)
CYCLES4 = DenseMatrix(
    [[N, 4, N, N], [N, N, 1, 3], [3, N, N, N], [N, 2, N, N]]
)


def enumerate_cycle_means(rows):
    """Every elementary cycle's mean, by DFS from each minimal start vertex."""
    n = len(rows)
    means = []

    def walk(start, u, seen, weight):
        for v in range(n):
            w = rows[u][v]
            if w == N:
                continue
            if v == start:
                means.append(Fraction(weight + w, len(seen)))
            elif v > start and v not in seen:
                walk(start, v, seen | {v}, weight + w)

    for start in range(n):
        walk(start, start, {start}, 0)
    return means


def rand_strongly_connected(rng, n, lo=-30, hi=30):
    """A random spanning cycle plus extra chords: strongly connected by construction."""
    rows = [[N] * n for _ in range(n)]
    perm = list(range(n))
    rng.shuffle(perm)
    for i in range(n):
        rows[perm[i]][perm[(i + 1) % n]] = rng.randint(lo, hi)
    for _ in range(rng.randint(0, n * 2)):
        u, v = rng.randrange(n), rng.randrange(n)
        if rows[u][v] == N:
            rows[u][v] = rng.randint(lo, hi)
    return DenseMatrix(rows)


def test_cycle_mean_value_type():
    a = CycleMean(16, 6)
    assert (a.numerator, a.denominator) == (8, 3)
    assert a == CycleMean(8, 3)
    assert str(a) == "8/3"
    assert a.as_float == pytest.approx(8 / 3)
    assert CycleMean(5, 2) < a
    assert a == Fraction(8, 3)
    assert CycleMean(-3, 2).numerator == -3
    with pytest.raises(ValueError):
        CycleMean(1, 0)


def test_cycle_mean_hashes_and_orders_as_the_number_it_equals():
    assert hash(CycleMean(2, 1)) == hash(2)
    assert hash(CycleMean(1, 2)) == hash(Fraction(1, 2)) == hash(0.5)
    assert len({CycleMean(1, 2), Fraction(1, 2)}) == 1
    assert CycleMean(1, 2) > 0
    assert CycleMean(1, 2) < 0.75
    assert CycleMean(1, 2) == 0.5
    assert max(CycleMean(1, 2), 1, Fraction(1, 3)) == 1
    assert isinstance(CycleMean(1, 2), Fraction)


def test_cycle_mean_copies_and_pickles_keep_the_flag():
    lam = CycleMean(3, 2, strongly_connected=False)
    for twin in (copy.copy(lam), copy.deepcopy(lam), pickle.loads(pickle.dumps(lam))):
        assert type(twin) is CycleMean
        assert twin == lam and (twin.numerator, twin.denominator) == (3, 2)
        assert twin.strongly_connected is False


def test_cycle_mean_text_is_p_over_q_also_for_whole_means():
    lam = CycleMean(4, 1)
    assert str(lam) == "4/1"
    assert f"{lam}" == "4/1"
    assert repr(lam) == "CycleMean(4, 1)"
    assert str(CycleMean(6, -4)) == "-3/2"


def test_cycle_mean_formats_and_computes_as_a_fraction():
    assert f"{CycleMean(4, 1):>5}" == "  4/1"
    total = CycleMean(1, 2) + 1
    assert total == Fraction(3, 2) and type(total) is Fraction


def test_nested_cycles_eigenvalue():
    lam = tr.max_cycle_mean(CYCLES4)
    assert lam == CycleMean(8, 3)
    assert lam.strongly_connected


def test_self_loop():
    a = DenseMatrix([[7]])
    assert tr.max_cycle_mean(a) == CycleMean(7, 1)
    b = DenseMatrix([[N, 1], [N, -4]])
    lam = tr.max_cycle_mean(b)
    assert lam == CycleMean(-4, 1)
    assert not lam.strongly_connected


def test_no_cycle_returns_none():
    dag = DenseMatrix([[N, 5], [N, N]])
    assert tr.max_cycle_mean(dag) is None


def test_diagonal_formula_counterexample():
    # heavy 2-cycle whose length does not divide n; the folklore
    # "max_i min_k over (A^n)_ii - (A^k)_ii" shortcut would report 10/3 here
    a = DenseMatrix([[N, 10, N], [10, N, 0], [0, N, N]])
    assert tr.max_cycle_mean(a) == CycleMean(10, 1)


def test_matches_cycle_enumeration():
    rng = random.Random(0)
    for _ in range(40):
        n = rng.randint(1, 7)
        a = rand_strongly_connected(rng, n)
        means = enumerate_cycle_means(a.to_rows())
        expect = max(means)
        lam = tr.max_cycle_mean(a)
        assert lam.as_fraction() == expect


def test_scaling_law():
    rng = random.Random(1)
    for _ in range(10):
        n = rng.randint(2, 6)
        a = rand_strongly_connected(rng, n)
        c = rng.randint(-20, 20)
        shifted = DenseMatrix(
            [[v + c if v != N else N for v in row] for row in a.to_rows()]
        )
        base = tr.max_cycle_mean(a).as_fraction()
        assert tr.max_cycle_mean(shifted).as_fraction() == base + c


def test_permutation_invariance():
    rng = random.Random(2)
    for _ in range(10):
        n = rng.randint(2, 6)
        a = rand_strongly_connected(rng, n)
        perm = list(range(n))
        rng.shuffle(perm)
        rows = a.to_rows()
        permuted = DenseMatrix(
            [[rows[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
        )
        assert tr.max_cycle_mean(permuted) == tr.max_cycle_mean(a)


def test_asymptotic_power_growth():
    # (A^k)_ii for a critical vertex approaches k*lambda; with k a multiple of
    # the witness cycle length the diagonal entry equals k*lambda exactly, well
    # inside the 1/k band. Wide Python integers, no saturation.
    rng = random.Random(3)
    for _ in range(8):
        n = rng.randint(2, 5)
        a = rand_strongly_connected(rng, n, lo=-9, hi=9)
        lam = tr.max_cycle_mean(a)
        crit = tr.critical_vertices(a)
        # find an actual critical cycle length through enumeration
        best_len = None
        for length, mean, verts in enumerate_cycles_with_vertices(a.to_rows()):
            if mean == lam.as_fraction():
                best_len = length
                break
        assert best_len is not None
        k = ((64 + best_len - 1) // best_len) * best_len
        diag = wide_power_diagonal(a.to_rows(), k)
        hits = [i for i in crit if diag[i] is not None]
        assert any(
            abs(Fraction(diag[i], k) - lam.as_fraction()) <= Fraction(1, k)
            for i in hits
        )


def enumerate_cycles_with_vertices(rows):
    n = len(rows)
    out = []

    def walk(start, u, seen, weight, path):
        for v in range(n):
            w = rows[u][v]
            if w == N:
                continue
            if v == start:
                out.append((len(path), Fraction(weight + w, len(path)), tuple(path)))
            elif v > start and v not in seen:
                walk(start, v, seen | {v}, weight + w, path + [v])

    for start in range(n):
        walk(start, start, {start}, 0, [start])
    return out


def wide_power_diagonal(rows, k):
    """Diagonal of A^k over exact Python integers (None = -infinity)."""
    n = len(rows)
    w = [[None if v == N else v for v in row] for row in rows]
    cur = [[0 if i == j else None for j in range(n)] for i in range(n)]
    base = w
    kk = k
    def mm(x, y):
        out = [[None] * n for _ in range(n)]
        for i in range(n):
            for l in range(n):
                if x[i][l] is None:
                    continue
                for j in range(n):
                    if y[l][j] is None:
                        continue
                    cand = x[i][l] + y[l][j]
                    if out[i][j] is None or cand > out[i][j]:
                        out[i][j] = cand
        return out
    while kk:
        if kk & 1:
            cur = mm(cur, base)
        kk >>= 1
        if kk:
            base = mm(base, base)
    return [cur[i][i] for i in range(n)]


def test_critical_vertices_nested_cycles():
    assert tr.critical_vertices(CYCLES4) == frozenset({0, 1, 2})


def test_critical_vertices_self_loop():
    a = DenseMatrix([[N, 0], [0, 5]])
    assert tr.critical_vertices(a) == frozenset({1})


def test_critical_vertices_two_cycles_in_wrapper():
    # 3-mean self-loop at 0 and 2-mean self-loop at 1 inside one SC wrapper
    a = DenseMatrix([[3, -9], [-9, 2]])
    assert tr.max_cycle_mean(a) == CycleMean(3, 1)
    assert tr.critical_vertices(a) == frozenset({0})
    dag = DenseMatrix([[N, 5], [N, N]])
    with pytest.raises(tr.NoCycleError):
        tr.critical_vertices(dag)


def test_critical_vertices_match_enumeration():
    rng = random.Random(4)
    for _ in range(25):
        n = rng.randint(2, 6)
        a = rand_strongly_connected(rng, n)
        lam = tr.max_cycle_mean(a).as_fraction()
        expect = set()
        for length, mean, verts in enumerate_cycles_with_vertices(a.to_rows()):
            if mean == lam:
                expect.update(verts)
        assert tr.critical_vertices(a) == frozenset(expect)


def test_eigenvector_trivial():
    a = DenseMatrix([[9]])
    res = tr.eigenvector(a, tr.max_cycle_mean(a))
    assert res.converged
    assert res.vector == [0.0]
    assert res.residual == 0.0


def test_eigenvector_nested_cycles_residual():
    lam = tr.max_cycle_mean(CYCLES4)
    res = tr.eigenvector(CYCLES4, lam)
    assert res.converged
    rows = CYCLES4.to_rows()
    lam_f = lam.as_float
    for i in tr.critical_vertices(CYCLES4):
        lhs = max(
            rows[i][j] + res.vector[j]
            for j in range(4)
            if rows[i][j] != N
        )
        assert abs(lhs - (lam_f + res.vector[i])) <= 1e-9


def test_eigenvector_two_cycle():
    a, b = 10, 4
    m = DenseMatrix([[N, a], [b, N]])
    lam = tr.max_cycle_mean(m)
    assert lam == CycleMean(a + b, 2)
    res = tr.eigenvector(m, lam)
    assert res.converged
    assert res.vector[0] - res.vector[1] == pytest.approx((a - b) / 2)


def test_eigenvector_not_converged_signal():
    lam = tr.max_cycle_mean(CYCLES4)
    res = tr.eigenvector(CYCLES4, lam, max_iter=1)
    assert not res.converged
    assert res.iterations == 1
    assert len(res.vector) == 4
    assert res.residual > 0


def test_eigenvector_errors():
    with pytest.raises(tr.NoCycleError):
        tr.eigenvector(CYCLES4, None)
    with pytest.raises(ValueError):
        tr.eigenvector(DenseMatrix([[1, 2]]), CycleMean(1, 1))
    with pytest.raises(ValueError):
        tr.eigenvector(CYCLES4, CycleMean(8, 3), epsilon=0.0)


@pytest.mark.parametrize("epsilon", [math.nan, math.inf, -math.inf, -1e-9])
def test_eigenvector_refuses_an_epsilon_that_is_not_finite_and_positive(epsilon):
    with pytest.raises(ValueError, match="epsilon"):
        tr.eigenvector(CYCLES4, CycleMean(8, 3), epsilon=epsilon)


@pytest.mark.parametrize(
    "a",
    [DenseMatrix([[1, 2, 3], [4, 5, 6]]), tr.from_triplets(2, 3, [(0, 2, 1)], SemiringId.MAXPLUS)],
    ids=["dense", "csr"],
)
def test_max_cycle_mean_refuses_a_non_square_matrix(a):
    with pytest.raises(ValueError, match="^cycle mean requires a square matrix$"):
        tr.max_cycle_mean(a)
