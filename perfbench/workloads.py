"""The benchmark's workloads: seeded inputs, CLI requests and their oracles.

A workload is a list of requests. Each request is one ``tropical`` argv (a
``--json`` call on a generated file) and a check that compares the printed
payload with an oracle computed here, before any timing starts. The client
cycles through the list in order, so every cycle has the same request mix.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import gen
import oracles


@dataclass
class Request:
    label: str
    argv: list[str]
    check: Callable[[dict], "str | None"]


def _write(workdir: Path, name: str, text: str) -> str:
    path = workdir / name
    path.write_text(text, encoding="ascii")
    return str(path)


def _graph(rng, workdir, name, n, degree, lo, hi, semiring, accept=None):
    """Write one random graph file; redraw until ``accept(u, v)`` holds."""
    while True:
        u, v, w = gen.random_edges(rng, n, degree, lo, hi)
        if accept is None or accept(u, v):
            break
    return _write(workdir, name, gen.graph_text(n, semiring, u, v, w)), (u, v, w)


def closure_dense(rng, workdir: Path, sizes=(256, 320, 384), degree=16) -> list[Request]:
    """apsp, closure --sparse and reach on minplus graphs, bottleneck on maxmin
    graphs. The cubic dense closure dominates, then dense construction and the
    n^2 JSON render; the Boolean and maxmin requests keep a change that helps
    one semiring but costs another from going unseen."""
    reqs = []
    for cmd in ("apsp", "closure", "reach", "bottleneck"):
        for n in sizes:
            semiring = "maxmin" if cmd == "bottleneck" else "minplus"
            path, (u, v, w) = _graph(
                rng, workdir, f"{cmd}-{n}.graph", n, degree, 1, 1000, semiring
            )
            argv = [cmd, path, "--json"]
            if cmd == "closure":
                argv.insert(2, "--sparse")
            if cmd == "reach":
                expected = oracles.reachability(n, u, v)
            elif cmd == "bottleneck":
                expected = oracles.bottleneck(n, u, v, w)
            else:
                expected = oracles.minplus_paths(n, u, v, w)
            reqs.append(Request(
                f"{cmd} n={n}", argv,
                functools.partial(oracles.check_matrix, expected=expected),
            ))
    return reqs


def sparse_paths(rng, workdir: Path, sizes=(2048, 3072, 4096), degree=8, per_size=2):
    """sssp --sparse from a seeded source. CSR ingest and spmv relaxation do
    nearly all the work and the dense closure never runs: the bypass workload
    for dense-kernel changes and the target for CSR changes."""
    reqs = []
    for rep in range(per_size):
        for n in sizes:
            path, (u, v, w) = _graph(
                rng, workdir, f"sssp-{n}-{rep}.graph", n, degree, 1, 1000, "minplus"
            )
            src = int(rng.integers(n))
            expected = oracles.minplus_paths(n, u, v, w, sources=src)
            reqs.append(Request(
                f"sssp --sparse n={n}", ["sssp", path, "--sparse", "--source", str(src), "--json"],
                functools.partial(oracles.check_distances, expected=expected),
            ))
    return reqs


EIGVEC_EPS = 1e-9


def relax_spectral(rng, workdir: Path, tasks=500, eig_n=128, sssp_n=512, reps=2):
    """schedule on a layered DAG, eig and eigvec on strongly connected maxplus
    graphs, dense sssp on a minplus graph. Many vecmat relaxation rounds and
    DenseMatrix builds instead of closures; the only workload that reaches the
    spectral and scheduler layers."""
    reqs = []

    def sc(u, v):
        return oracles.strongly_connected(eig_n, u, v)

    for rep in range(reps):
        durations, edges = gen.layered_dag(rng, tasks, preds=3, window=50, lo=1, hi=99)
        path = _write(workdir, f"schedule-{rep}.sched", gen.schedule_text(durations, edges))
        start = oracles.schedule_times(durations, edges)
        reqs.append(Request(
            f"schedule tasks={tasks}", ["schedule", path, "--json"],
            functools.partial(oracles.check_schedule, durations=durations,
                              edges=edges, start=start),
        ))
        for cmd in ("eig", "eigvec"):
            path, (u, v, w) = _graph(
                rng, workdir, f"{cmd}-{rep}.graph", eig_n, 8, -100, 100, "maxplus", accept=sc
            )
            a = oracles.maxplus_matrix(eig_n, u, v, w)
            if cmd == "eig":
                check = functools.partial(oracles.check_eig, a=a)
                argv = ["eig", path, "--json"]
            else:
                check = functools.partial(oracles.check_eigvec, a=a, eps=EIGVEC_EPS)
                argv = ["eigvec", path, "--eps", str(EIGVEC_EPS), "--json"]
            reqs.append(Request(f"{cmd} n={eig_n}", argv, check))
        path, (u, v, w) = _graph(
            rng, workdir, f"sssp-{rep}.graph", sssp_n, 8, 1, 1000, "minplus"
        )
        src = int(rng.integers(sssp_n))
        reqs.append(Request(
            f"sssp n={sssp_n}", ["sssp", path, "--source", str(src), "--json"],
            functools.partial(oracles.check_distances,
                              expected=oracles.minplus_paths(sssp_n, u, v, w, sources=src)),
        ))
    return reqs


WORKLOADS = {
    "closure_dense": closure_dense,
    "sparse_paths": sparse_paths,
    "relax_spectral": relax_spectral,
}


def build(name: str, seed: int, workdir: Path, **sizes) -> list[Request]:
    """Generate the inputs of workload ``name`` from ``seed`` into ``workdir``."""
    workdir.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[name](np.random.default_rng(seed), workdir, **sizes)
