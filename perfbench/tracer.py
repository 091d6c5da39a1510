"""Layer trace taken from outside the program.

``Tracer.install`` replaces the public functions at each module boundary with
wrappers that record a span (name, parent span, start, end, request, counters).
It patches the module attributes that callers resolve at call time, including
names a module imported from another (``tropical.io.from_triplets``), and
``DenseMatrix.__init__``; nothing under ``src/`` changes. Spans stay in memory
until the run writes them out. ``summarize`` turns spans into the per-layer
metrics: a span's self time is its duration minus that of its direct children.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

# (module, attribute, span name). One span name may be patched under several
# module attributes: every name a caller resolves must lead to the wrapper.
BOUNDARIES = [
    ("tropical.io", "parse_graph", "io.parse_graph"),
    ("tropical.io", "parse_schedule", "io.parse_schedule"),
    ("tropical.dense", "DenseMatrix.__init__", "dense.construct"),
    ("tropical.dense", "closure", "dense.closure"),
    ("tropical.dense", "vecmat", "dense.vecmat"),
    ("tropical.sparse", "from_triplets", "sparse.from_triplets"),
    ("tropical.io", "from_triplets", "sparse.from_triplets"),
    ("tropical.sparse", "to_dense", "sparse.to_dense"),
    ("tropical.sparse", "spmv", "sparse.spmv"),
    ("tropical.graph", "sssp", "graph.sssp"),
    ("tropical.graph", "all_pairs_paths", "graph.all_pairs_paths"),
    ("tropical.graph", "reachability", "graph.reachability"),
    ("tropical.graph", "bottleneck_paths", "graph.bottleneck_paths"),
    ("tropical.spectral", "max_cycle_mean", "spectral.max_cycle_mean"),
    ("tropical.spectral", "eigenvector", "spectral.eigenvector"),
    ("tropical.scheduler", "solve", "scheduler.solve"),
    ("tropical.scheduler", "critical_path", "scheduler.critical_path"),
]

ROOT = "cli.run"
LAYERS = ("cli", "io", "dense", "sparse", "graph", "spectral", "scheduler")
RELAX = ("dense.vecmat", "sparse.spmv")


def _counters(name, args, result):
    """Work counts recorded on a span, from its arguments and result."""
    if name in ("io.parse_graph", "io.parse_schedule"):
        return {"bytes": len(args[0])}
    if name == "dense.closure":
        return {"ops": 2 * args[0].rows ** 3}
    if name == "sparse.spmv":
        return {"mults": args[0].nnz}
    if name in ("spectral.eigenvector", "scheduler.solve"):
        return {"iterations": result.iterations}
    return None


def _owner(module, attr):
    """The object holding the last component of the dotted ``attr``."""
    owner = importlib.import_module(module)
    for part in attr.split(".")[:-1]:
        owner = getattr(owner, part)
    return owner, attr.rpartition(".")[2]


class Tracer:
    """Span recorder; one per traced run. Single-threaded by design."""

    def __init__(self):
        # span: [name, parent index or -1, start_ns, end_ns, request, counters]
        self.spans: list[list] = []
        self.request = -1
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def call(self, name, fn, *args, **kwargs):
        spans, stack = self.spans, self._stack
        rec = [name, stack[-1] if stack else -1, 0, 0, self.request, None]
        stack.append(len(spans))
        spans.append(rec)
        rec[2] = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            rec[3] = time.perf_counter_ns()
            stack.pop()
        rec[5] = _counters(name, args, result)
        return result

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for module, dotted, name in BOUNDARIES:
            owner, attr = _owner(module, dotted)
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(name, fn))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)


def self_times(spans) -> list[int]:
    """Self time of each span in ns: its duration minus its direct children's."""
    out = [end - start for _, _, start, end, _, _ in spans]
    for _, parent, start, end, _, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def self_by_name(spans) -> dict[str, int]:
    """Total self time in ns per span name."""
    out = defaultdict(int)
    for (name, *_), ns in zip(spans, self_times(spans)):
        out[name] += ns
    return dict(out)


def summarize(spans, requests: int) -> dict[str, float]:
    """Per-request layer metrics from the spans of ``requests`` traced requests."""
    self_ns = defaultdict(int)
    for name, ns in self_by_name(spans).items():
        self_ns[name] += ns
        self_ns[name.split(".")[0]] += ns
    count = defaultdict(int)
    calls = defaultdict(int)
    for name, parent, _, _, _, counters in spans:
        calls[name] += 1
        for key, val in (counters or {}).items():
            count[f"{name}.{key}"] += val
        if name in RELAX and parent >= 0 and spans[parent][0] == "graph.sssp":
            count["graph.sssp.rounds"] += 1
    wall_ns = sum(end - start for name, _, start, end, _, _ in spans if name == ROOT)

    def ms(key):
        return self_ns[key] / 1e6 / requests

    def per_req(key, table=count):
        return table[key] / requests

    def rate(work, key):
        return work / (self_ns[key] / 1e9) if self_ns[key] else 0.0

    parse_bytes = count["io.parse_graph.bytes"] + count["io.parse_schedule.bytes"]
    m = {"trace.request_ms": wall_ns / 1e6 / requests}
    m.update({f"{layer}.self_ms": ms(layer) for layer in LAYERS})
    m.update({
        "io.parse_graph.self_ms": ms("io.parse_graph"),
        "io.parse_schedule.self_ms": ms("io.parse_schedule"),
        "io.input_mb_per_s": rate(parse_bytes, "io") / 1e6,
        "dense.construct.self_ms": ms("dense.construct"),
        "dense.closure.self_ms": ms("dense.closure"),
        "dense.closure.mops": rate(count["dense.closure.ops"], "dense.closure") / 1e6,
        "dense.vecmat.self_ms": ms("dense.vecmat"),
        "dense.vecmat.calls": per_req("dense.vecmat", calls),
        "sparse.from_triplets.self_ms": ms("sparse.from_triplets"),
        "sparse.from_triplets.calls": per_req("sparse.from_triplets", calls),
        "sparse.spmv.self_ms": ms("sparse.spmv"),
        "sparse.spmv.calls": per_req("sparse.spmv", calls),
        "sparse.spmv.mults": per_req("sparse.spmv.mults"),
        "graph.sssp.self_ms": ms("graph.sssp"),
        "graph.sssp.rounds": per_req("graph.sssp.rounds"),
        "spectral.max_cycle_mean.self_ms": ms("spectral.max_cycle_mean"),
        "spectral.eigenvector.self_ms": ms("spectral.eigenvector"),
        "spectral.eigvec.iterations": per_req("spectral.eigenvector.iterations"),
        "scheduler.solve.self_ms": ms("scheduler.solve"),
        "scheduler.iterations": per_req("scheduler.solve.iterations"),
        "scheduler.critical_path.self_ms": ms("scheduler.critical_path"),
    })
    return m
