"""The benchmarks' input kinds and the output digest of every report."""

import zlib

import numpy as np
import pytest

import tropical as tr
from tropical import SemiringId, sparse
from tropical.bench import (
    BENCH_INPUTS, CLOSURE_DEGREE, graph_edges, graph_text, random_graph, random_matrix, run_bench
)
from tropical.cli import run

ALL = list(SemiringId)

# input checksums of seed 3, n = 12, from before the input kinds existed
UNIFORM_CHECKSUMS = {"matmul": 1334569136, "matvec": 4292866153, "closure": 562963077}


def crc(rows) -> int:
    return zlib.crc32(np.asarray(rows, dtype=np.int32).tobytes())


@pytest.mark.parametrize("kind", BENCH_INPUTS)
@pytest.mark.parametrize("s", ALL)
def test_both_kinds_run_on_every_semiring(kind, s):
    r = run_bench("closure", 24, s, reps=2, seed=4, kind=kind)
    assert r.kind == kind and len(r.elapsed_us) == 2
    assert r.mops == pytest.approx(2 * 24**3 / r.mean_us)
    again = run_bench("closure", 24, s, reps=1, seed=4, kind=kind)
    assert (again.checksum, again.output_checksum) == (r.checksum, r.output_checksum)


@pytest.mark.parametrize("s", ALL)
def test_output_checksum_is_the_crc_of_the_reference_closure(s):
    for kind in BENCH_INPUTS:
        rng = np.random.default_rng(6)
        if kind == "graph":
            a = sparse.to_dense(random_graph(20, s, rng, CLOSURE_DEGREE))
        else:
            a = random_matrix(20, rng)
        r = run_bench("closure", 20, s, reps=1, seed=6, kind=kind)
        assert r.checksum == crc(a.to_rows())
        assert r.output_checksum == crc(tr.closure_reference(a, s).to_rows())


def test_graph_kind_is_shaped_like_the_cli_inputs():
    n = 64
    for s in ALL:
        rng = np.random.default_rng(1)
        arr = sparse.to_dense(random_graph(n, s, rng, CLOSURE_DEGREE))._arr
        w = arr[arr != tr.zero(s)]
        assert 0 < w.size <= CLOSURE_DEGREE * n
        if s is SemiringId.BOOLEAN:
            assert set(np.unique(w)) == {1}
        elif s is SemiringId.MAXPLUS:
            assert -1000 <= w.min() and w.max() <= -1
        else:
            assert 1 <= w.min() and w.max() <= 1000


def test_uniform_checksums_are_unchanged():
    for op, checksum in UNIFORM_CHECKSUMS.items():
        for s in ALL:
            assert run_bench(op, 12, s, reps=1, seed=3).checksum == checksum
    assert run_bench("closure", 12, SemiringId.MINPLUS, 1, 3, "graph").checksum != 562963077


@pytest.mark.parametrize("s", ALL)
def test_matmul_graph_kind_multiplies_two_graphs(s):
    rng = np.random.default_rng(5)
    a = sparse.to_dense(random_graph(20, s, rng, CLOSURE_DEGREE))
    b = sparse.to_dense(random_graph(20, s, rng, CLOSURE_DEGREE))
    r = run_bench("matmul", 20, s, reps=1, seed=5, kind="graph")
    assert r.kind == "graph"
    assert r.checksum == zlib.crc32(b._arr.tobytes(), zlib.crc32(a._arr.tobytes()))
    assert r.output_checksum == crc(tr.matmul_reference(a, b, s).to_rows())


def test_graph_kind_is_for_closure_matmul_and_render_only():
    for op in ("matvec", "sssp"):
        with pytest.raises(ValueError, match="closure"):
            run_bench(op, 8, SemiringId.MINPLUS, reps=1, kind="graph")
    with pytest.raises(ValueError):
        run_bench("closure", 8, SemiringId.MINPLUS, reps=1, kind="banded")


def test_cli_reports_the_kind_and_the_output_checksum(capsys):
    code = run(["bench", "--op", "closure", "--size", "16", "--reps", "1",
                "--semiring", "maxmin", "--input", "graph"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    fields = dict(line.split(" ", 1) for line in out)
    r = run_bench("closure", 16, SemiringId.MAXMIN, reps=1, kind="graph")
    assert fields["input"] == "graph"
    assert int(fields["checksum"]) == r.checksum
    assert int(fields["output_checksum"]) == r.output_checksum
    assert run(["bench", "--op", "closure", "--size", "4", "--input", "dense"]) == 2


@pytest.mark.parametrize("s", ALL)
def test_parse_reads_back_the_sssp_graph(s):
    # the text keeps the drawn records, duplicate pairs included, and parses
    # into the sssp graph; MOPS counts the records
    u, v, w = graph_edges(40, s, np.random.default_rng(8))
    text = graph_text(40, s, u, v, w)
    g = random_graph(40, s, np.random.default_rng(8))
    assert len(set(zip(u.tolist(), v.tolist()))) < len(w) == 8 * 40
    r = run_bench("parse", 40, s, reps=2, seed=8)
    assert r.checksum == zlib.crc32(text.encode())
    arrays = (g.row_ptr, g.col_idx, g.values)
    assert r.output_checksum == zlib.crc32(b"".join(a.tobytes() for a in arrays))
    assert r.mops == pytest.approx(len(w) / r.mean_us)
