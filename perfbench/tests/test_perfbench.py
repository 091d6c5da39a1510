"""Tests of the benchmark itself: generators, oracles, tracer and runner."""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import client  # noqa: E402
import gen  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from tropical import cli  # noqa: E402

SMALL = {
    "closure_dense": {"sizes": (12, 20)},
    "sparse_paths": {"sizes": (40, 60), "per_size": 1},
    "relax_spectral": {"tasks": 40, "eig_n": 12, "sssp_n": 24, "reps": 1},
}


def _build(name, seed, tmp_path):
    return workloads.build(name, seed, tmp_path / f"{name}-{seed}", **SMALL[name])


def _payload(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert cli.run(argv) == 0
    return json.loads(out.getvalue())


def test_generators_repeat_for_the_same_seed():
    a = gen.random_edges(np.random.default_rng(7), 50, 4, 1, 9)
    b = gen.random_edges(np.random.default_rng(7), 50, 4, 1, 9)
    assert gen.graph_text(50, "minplus", *a) == gen.graph_text(50, "minplus", *b)
    d1, e1 = gen.layered_dag(np.random.default_rng(7), 30, 3, 10, 1, 99)
    d2, e2 = gen.layered_dag(np.random.default_rng(7), 30, 3, 10, 1, 99)
    assert gen.schedule_text(d1, e1) == gen.schedule_text(d2, e2)
    assert all(src < dst and dst - src <= 10 for src, dst in e1)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_workload_inputs_repeat_for_the_same_seed(name, tmp_path):
    first = _build(name, 3, tmp_path)
    again = _build(name, 3, tmp_path / "again")
    other = _build(name, 4, tmp_path / "other")

    def files(reqs):
        return [Path(r.argv[1]).read_bytes() for r in reqs]

    assert [r.argv[2:] for r in first] == [r.argv[2:] for r in again]
    assert files(first) == files(again)
    assert files(first) != files(other)


def _bump(x):
    return 7 if isinstance(x, str) else x + 1


def _perturbations(payload):
    """Copies of a correct payload, each with one deliberate error."""
    cmd = payload["command"]
    out = []
    if "matrix" in payload:
        for i, j in ((0, 1), (-1, 0)):
            bad = json.loads(json.dumps(payload))
            bad["matrix"][i][j] = _bump(bad["matrix"][i][j])
            out.append(bad)
    elif cmd == "sssp":
        bad = json.loads(json.dumps(payload))
        bad["distances"][-1] = _bump(bad["distances"][-1])
        out.append(bad)
    elif cmd == "schedule":
        bad = json.loads(json.dumps(payload))
        bad["tasks"][-1]["start"] += 1
        out.append(bad)
        bad = json.loads(json.dumps(payload))
        bad["critical_path"] = bad["critical_path"][1:]
        out.append(bad)
        bad = json.loads(json.dumps(payload))
        bad["makespan"] += 1
        out.append(bad)
    elif cmd == "eig":
        for dn in (1, -1):
            bad = dict(payload, numerator=payload["numerator"] + dn)
            bad["eigenvalue"] = f"{bad['numerator']}/{bad['denominator']}"
            out.append(bad)
    elif cmd == "eigvec":
        out.append(dict(payload, converged=False))
        out.append(dict(payload, residual=1.0))
        vec = list(payload["vector"])
        vec[0] += 0.5
        out.append(dict(payload, vector=vec))
    return out


@pytest.mark.parametrize("name", sorted(SMALL))
def test_oracles_accept_the_program_and_flag_perturbed_outputs(name, tmp_path):
    seen = set()
    for req in _build(name, 5, tmp_path):
        payload = _payload(req.argv)
        assert req.check(payload) is None, req.label
        bad = _perturbations(payload)
        assert bad, req.label
        for p in bad:
            assert req.check(p) is not None, (req.label, p)
        seen.add(payload["command"])
    assert seen


def test_traced_self_times_add_up_to_traced_wall_time(tmp_path):
    import tropical.io
    import tropical.sparse

    reqs = [r for name in sorted(SMALL) for r in _build(name, 6, tmp_path)]
    original = tropical.io.from_triplets
    t = tracer.Tracer()
    for k, req in enumerate(reqs):
        t.request = k
        t.install()
        try:
            assert tropical.io.from_triplets.__wrapped__ is original
            assert tropical.sparse.from_triplets.__wrapped__ is original
            with contextlib.redirect_stdout(io.StringIO()):
                assert t.call(tracer.ROOT, cli.run, req.argv) == 0
        finally:
            t.uninstall()
    assert tropical.io.from_triplets is original

    roots = [s for s in t.spans if s[0] == tracer.ROOT]
    assert len(roots) == len(reqs)
    wall = sum(s[3] - s[2] for s in roots)
    selfs = tracer.self_times(t.spans)
    assert all(ns >= 0 for ns in selfs)
    assert sum(selfs) == wall

    m = tracer.summarize(t.spans, len(reqs))
    layers = sum(m[f"{layer}.self_ms"] for layer in tracer.LAYERS)
    assert layers == pytest.approx(m["trace.request_ms"], rel=1e-9)
    names = {s[0] for s in t.spans}
    assert {"dense.closure", "sparse.spmv", "dense.vecmat", "spectral.max_cycle_mean",
            "scheduler.solve", "io.parse_schedule", "dense.construct"} <= names


def test_client_counts_an_escaping_exception_as_exit_code_1():
    def crash(argv):
        print("partial")
        raise RuntimeError("boom")

    rc, ns, text = client._run(crash, ["apsp"])
    assert (rc, text) == (1, "partial\n") and ns > 0


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170,
    )


def test_runner_prints_every_declared_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        out = _run(ROOT, "--workload", "relax_spectral", "--seed", "1",
                   "--seconds", "0.5", "--trace", trace)
        assert out.returncode == 0, out.stderr
        result = json.loads(out.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        units = {m["name"]: m["unit"] for m in spec[key]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == units


def test_runner_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = _run(tmp_path, "--workload", "sparse_paths", "--seed", "1",
               "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
