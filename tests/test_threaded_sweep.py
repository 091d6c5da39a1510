"""The blocked closure sweep on worker threads (``dense._sweep``).

An int32 or int16 sweep of at least ``_THREAD_FLOOR`` rows runs its passes
in blocks of ``_BLOCK`` pivots: the block's passes on its own rows, then the
same passes on every other row, one fixed range of rows per worker
(``_passes``). These tests force that path onto small matrices and check the
result against ``closure_reference``, which blocks ran, on which threads,
and that the sweep starts no thread before it needs one.
"""

import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import tropical as tr
from tropical import DenseMatrix, SemiringId, dense, semiring as sr

from sweep_runs import threaded

PLUS = (SemiringId.MINPLUS, SemiringId.MAXPLUS)
SRC = str(Path(dense.__file__).resolve().parents[1])


def spy_passes(mp):
    """Record (k0, k1, rows, on a worker thread) for every call of
    ``_passes``: the block's passes and how many rows they ran on."""
    calls = []
    passes = dense._passes
    main = threading.get_ident()

    def spy(parts, k0, k1, *rest):
        calls.append((k0, k1, sum(len(rows) for rows in parts), threading.get_ident() != main))
        return passes(parts, k0, k1, *rest)

    mp.setattr(dense, "_passes", spy)
    return calls


def blocks(calls):
    """{(k0, k1): rows swept} over all the calls of one closure."""
    out = {}
    for k0, k1, rows, _ in calls:
        out[(k0, k1)] = out.get((k0, k1), 0) + rows
    return out


def chain(n, w, s):
    z = tr.zero(s)
    return [[w if j == i + 1 else z for j in range(n)] for i in range(n)]


@pytest.mark.parametrize("s", PLUS)
def test_a_ragged_last_block(s, monkeypatch):
    # n = 10 in blocks of 3: the last block holds one pivot, and every block
    # sweeps the n - 3 (last: n - 1) rows outside it on both workers
    sign = 1 if s is SemiringId.MINPLUS else -1
    rows = chain(10, 4 * sign, s)
    rows[9][0] = 2 * sign
    threaded(monkeypatch, 2, 3)
    calls = spy_passes(monkeypatch)
    got = dense._closure_kernel(DenseMatrix(rows), s)
    assert got.tolist() == tr.closure_reference(DenseMatrix(rows), s).to_rows()
    assert blocks(calls) == {(0, 3): 7, (3, 6): 7, (6, 9): 7, (9, 10): 9}
    assert {k0 for k0, _, _, worker in calls if worker} == {0, 3, 6, 9}


@pytest.mark.parametrize("s", PLUS)
def test_a_divergent_pass_inside_a_block(s, monkeypatch):
    # the 2-cycle 1 -> 4 -> 1 improves on 0, so pass 4 is the first
    # divergent one: the second block (3, 4, 5) sweeps only pass 3 on the
    # other rows, and the wide sweep resumes at pass 4 from that state
    rows = chain(9, 5, s)
    sign = 1 if s is SemiringId.MINPLUS else -1
    rows[1][4], rows[4][1] = 7, -7 - sign
    threaded(monkeypatch, 2, 3)
    calls = spy_passes(monkeypatch)
    starts = []
    wide = dense._wide_sweep

    def spy(w, s, start):
        starts.append(start)
        return wide(w, s, start)

    monkeypatch.setattr(dense, "_wide_sweep", spy)
    got = dense._closure_kernel(DenseMatrix(rows), s)
    assert got.tolist() == tr.closure_reference(DenseMatrix(rows), s).to_rows()
    assert blocks(calls) == {(0, 3): 6, (3, 4): 6}
    assert starts == [4]


def scalar_states(rows, s):
    """The matrix after each pass k of the scalar loop, states[k]."""
    add, mul = sr.add_fn(s), sr.mul_fn(s)
    d = [row[:] for row in rows]
    n = len(d)
    for i in range(n):
        d[i][i] = add(d[i][i], sr.one(s))
    states = []
    for k in range(n):
        for i in range(n):
            for j in range(n):
                d[i][j] = add(d[i][j], mul(d[i][k], d[k][j]))
        states.append([row[:] for row in d])
    return states


@pytest.mark.parametrize("s", PLUS)
def test_each_pass_reads_the_pivot_row_as_that_pass_found_it(s, monkeypatch):
    # the other rows take pass k from pivot row k as the scalar loop held it
    # after pass k, not as later passes of the block left it; a complete
    # graph of weights 1..20 (negated for max-plus) holds no zero(s), so the
    # int32 sweep holds the values themselves, and its later passes do
    # rewrite earlier pivot rows
    sign = 1 if s is SemiringId.MINPLUS else -1
    rows = (sign * np.random.default_rng(4).integers(1, 21, size=(9, 9))).tolist()
    threaded(monkeypatch, 2, 3)
    seen = []
    passes = dense._passes

    def spy(parts, k0, k1, piv, *rest):
        seen.append((k0, piv[: k1 - k0].tolist()))
        return passes(parts, k0, k1, piv, *rest)

    monkeypatch.setattr(dense, "_passes", spy)
    dense._closure_kernel(DenseMatrix(rows), s)
    states = scalar_states(rows, s)
    assert len(seen) == 6  # 3 blocks, 2 workers
    for k0, piv in seen:
        assert piv == [states[k][k] for k in range(k0, k0 + len(piv))]
    assert any(states[k][k] != states[-1][k] for k in range(9))


@pytest.mark.parametrize("s", list(SemiringId))
def test_more_workers_than_rows(s, monkeypatch):
    # 6 workers on 4 rows: ranges (0, 0), (0, 1), (1, 2), (2, 2), (2, 3),
    # (3, 4); the calling thread's range is empty, and so is every range
    # that holds only the block
    rng = np.random.default_rng(2)
    arr = rng.integers(1, 9, size=(4, 4))
    if s is SemiringId.MAXPLUS:
        arr = -arr
    rows = np.where(rng.random((4, 4)) < 0.4, tr.zero(s), arr).tolist()
    threaded(monkeypatch, 6, 2)
    calls = spy_passes(monkeypatch)
    got = dense._closure_kernel(DenseMatrix(rows), s)
    assert got.tolist() == tr.closure_reference(DenseMatrix(rows), s).to_rows()
    if s is not SemiringId.BOOLEAN:  # a 0/1 Boolean closure runs on bool
        assert blocks(calls) == {(0, 2): 2, (2, 4): 2}
        assert {swept for _, _, swept, worker in calls if worker} == {1}
        assert all(swept == 0 for _, _, swept, worker in calls if not worker)


@pytest.mark.parametrize("s", list(SemiringId))
def test_the_floor_and_one_worker_keep_one_block(s, monkeypatch):
    # below the floor, and on one worker, the block is all n rows
    calls = spy_passes(monkeypatch)
    monkeypatch.setattr(dense, "_BLOCK", 2)
    rows = chain(12, 3, s)
    monkeypatch.setattr(dense, "_WORKERS", 2)
    monkeypatch.setattr(dense, "_THREAD_FLOOR", {"int32": 13, "int16": 13})
    dense._closure_kernel(DenseMatrix(rows), s)
    monkeypatch.setattr(dense, "_WORKERS", 1)
    monkeypatch.setattr(dense, "_THREAD_FLOOR", {"int32": 1, "int16": 1})
    dense._closure_kernel(DenseMatrix(rows), s)
    assert calls == []


def test_the_default_floor_is_bit_identical_to_one_worker(monkeypatch):
    # the constants as shipped, on inputs past the floor: an int32 min-plus
    # graph whose first divergent pass (a 2-cycle through 100 and 201) falls
    # inside a block, a convergent max-plus graph, and an int16 max-min one
    rng = np.random.default_rng(11)
    cases = []
    for s, n in ((SemiringId.MINPLUS, 300), (SemiringId.MAXPLUS, 320), (SemiringId.MAXMIN, 576)):
        assert n >= dense._THREAD_FLOOR["int16" if s is SemiringId.MAXMIN else "int32"]
        arr = rng.integers(1, 1000, size=(n, n)) * (-1 if s is SemiringId.MAXPLUS else 1)
        cases.append((s, np.where(rng.random((n, n)) < 0.9, tr.zero(s), arr)))
    cases[0][1][100, 201], cases[0][1][201, 100] = 5, -6
    monkeypatch.setattr(dense, "_WORKERS", 2)
    calls = spy_passes(monkeypatch)
    got = [dense._closure_kernel(DenseMatrix(arr), s) for s, arr in cases]
    assert {k1 for k0, k1, _, _ in calls if k1 - k0 < dense._BLOCK} == {201}
    monkeypatch.setattr(dense, "_WORKERS", 1)
    for (s, arr), g in zip(cases, got):
        assert np.array_equal(g, dense._closure_kernel(DenseMatrix(arr), s))


def test_two_closures_at_once_from_two_threads(monkeypatch):
    # two user threads share a fresh pool of 3 worker threads (4 workers
    # with the caller), with the interpreter switching threads as often as
    # it can; each closure keeps its own buffers and pivot copies
    threaded(monkeypatch, 4, 3)
    monkeypatch.setattr(dense, "_POOL", None)
    rng = np.random.default_rng(5)
    jobs = []
    for s in (SemiringId.MINPLUS, SemiringId.MAXMIN):
        arr = rng.integers(1, 50, size=(11, 11))
        a = DenseMatrix(np.where(rng.random((11, 11)) < 0.5, tr.zero(s), arr))
        jobs.append((a, s, tr.closure_reference(a, s).to_rows()))
    start = threading.Barrier(2)
    results = [[], []]

    def work(i):
        a, s, _ = jobs[i]
        start.wait()
        for _ in range(40):
            results[i].append(dense._closure_kernel(a, s).tolist())

    users = [threading.Thread(target=work, args=(i,)) for i in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in users:
            t.start()
        for t in users:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
        if dense._POOL is not None:
            dense._POOL.shutdown()
    assert not any(t.is_alive() for t in users)
    for (_, _, want), got in zip(jobs, results):
        assert got == [want] * 40


def run_python(script):
    return subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=SRC),
    )


def test_import_starts_no_thread_and_the_first_threaded_sweep_makes_the_pool():
    script = (
        "import sys, threading\n"
        "import tropical.cli\n"
        "print(threading.active_count(), 'concurrent.futures' in sys.modules)\n"
        "from tropical import DenseMatrix, SemiringId, dense\n"
        "dense._WORKERS = 2\n"
        "dense._closure_kernel(DenseMatrix([[0] * 8] * 8), SemiringId.MINPLUS)\n"
        "print(threading.active_count(), dense._POOL is None)\n"
        "dense._closure_kernel(DenseMatrix([[0] * 300] * 300), SemiringId.MINPLUS)\n"
        "print(threading.active_count(), 'concurrent.futures' in sys.modules)\n"
    )
    proc = run_python(script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n") == ["1 False", "1 True", "2 True", ""]


def test_a_forked_child_makes_its_own_pool():
    # the child of a process whose pool has threads has none of them; a
    # closure there must not wait on them
    script = (
        "import os, sys, time\n"
        "import numpy as np\n"
        "from tropical import DenseMatrix, SemiringId, dense\n"
        "dense._WORKERS = 2\n"
        "a = DenseMatrix(np.arange(300 * 300).reshape(300, 300) % 97 + 1)\n"
        "want = dense._closure_kernel(a, SemiringId.MINPLUS)\n"
        "assert dense._POOL is not None\n"
        "pid = os.fork()\n"
        "if pid == 0:\n"
        "    ok = np.array_equal(dense._closure_kernel(a, SemiringId.MINPLUS), want)\n"
        "    os._exit(0 if ok else 3)\n"
        "for _ in range(200):\n"
        "    done, status = os.waitpid(pid, os.WNOHANG)\n"
        "    if done:\n"
        "        sys.exit(os.waitstatus_to_exitcode(status))\n"
        "    time.sleep(0.1)\n"
        "os.kill(pid, 9)\n"
        "os.waitpid(pid, 0)\n"
        "sys.exit(4)\n"
    )
    if not hasattr(os, "fork"):
        pytest.skip("no fork on this platform")
    proc = run_python(script)
    assert proc.returncode == 0, proc.stderr
