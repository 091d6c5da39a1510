import numpy as np
import pytest

import tropical as tr
from tropical import SemiringId
from tropical.bench import bellman_ford, random_eig_graph, random_matrix, run_bench


def test_report_fields_and_ops_formula():
    r = run_bench("matmul", 16, SemiringId.MAXPLUS, reps=3)
    assert r.reps == 3 and len(r.elapsed_us) == 3
    assert r.mean_us == pytest.approx(sum(r.elapsed_us) / 3)
    assert r.median_us == sorted(r.elapsed_us)[1]
    # 2n^3 semiring multiply-adds per product
    assert r.mops == pytest.approx(2 * 16**3 / r.mean_us)
    rv = run_bench("matvec", 16, SemiringId.MINPLUS, reps=2)
    assert rv.mops == pytest.approx(2 * 16**2 / rv.mean_us)


def test_same_seed_same_matrices():
    a = random_matrix(12, np.random.default_rng(0))
    b = random_matrix(12, np.random.default_rng(0))
    assert a == b
    c = random_matrix(12, np.random.default_rng(1))
    assert a != c
    r1 = run_bench("matmul", 12, SemiringId.MAXPLUS, reps=1, seed=5)
    r2 = run_bench("matmul", 12, SemiringId.MAXPLUS, reps=1, seed=5)
    assert r1.checksum == r2.checksum


def test_entry_range():
    a = random_matrix(20, np.random.default_rng(3))
    vals = [v for row in a.to_rows() for v in row]
    assert min(vals) >= -1000 and max(vals) <= 1000


def test_bad_args():
    with pytest.raises(ValueError):
        run_bench("sort", 8, SemiringId.MAXPLUS, reps=1)
    with pytest.raises(ValueError):
        run_bench("matmul", 0, SemiringId.MAXPLUS, reps=1)
    with pytest.raises(ValueError):
        run_bench("matmul", 8, SemiringId.MAXPLUS, reps=0)


def test_eig_graph_and_report():
    a = random_eig_graph(40, np.random.default_rng(2))
    rows = a.to_rows()
    weights = [v for row in rows for v in row if v != tr.NEG_INF]
    assert min(weights) >= -100 and max(weights) <= 100
    assert tr.max_cycle_mean(a).strongly_connected
    assert random_eig_graph(40, np.random.default_rng(2)) == a
    r = run_bench("eig", 40, SemiringId.MAXPLUS, reps=2, seed=2)
    # Karp-equivalent work: n rounds, each an add and a max per distinct edge
    assert r.mops == pytest.approx(2 * 40 * len(weights) / r.mean_us)
    assert r.checksum == run_bench("eig", 40, SemiringId.MAXPLUS, reps=1, seed=2).checksum
    with pytest.raises(ValueError):
        run_bench("eig", 40, SemiringId.MINPLUS, reps=1)


@pytest.mark.parametrize("n", [1, 2, 50, 200])
def test_bellman_ford_has_the_checksums_of_sssp(n):
    for seed in range(3):
        want = run_bench("sssp", n, SemiringId.MINPLUS, reps=1, seed=seed)
        got = run_bench("bellman-ford", n, SemiringId.MINPLUS, reps=2, seed=seed)
        assert (got.checksum, got.output_checksum) == (want.checksum, want.output_checksum)
        assert got.mops == pytest.approx(want.mops * want.mean_us / got.mean_us)


def test_bellman_ford_distances_and_semiring_refusal():
    # 0 -> 1 -> 2 with a shortcut 0 -> 2; vertex 3 is unreachable
    edges = [(1, 2, 1), (0, 1, 4), (0, 2, 9)]
    assert bellman_ford(4, edges, 0) == [0, 4, 5, tr.POS_INF]
    assert bellman_ford(1, [], 0) == [0]
    for s in SemiringId:
        if s is not SemiringId.MINPLUS:
            with pytest.raises(ValueError, match="requires the minplus semiring"):
                run_bench("bellman-ford", 8, s, reps=1)
