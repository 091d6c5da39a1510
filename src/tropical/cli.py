"""Command-line front end.

Every subcommand builds one payload dict and its text lines from the same
values, so the two modes always carry the same numeric content. Sentinels
print as ``inf`` / ``-inf`` in text and appear as the strings "inf" / "-inf"
in JSON (JSON has no infinities).

Integer matrices and the sssp distances are rendered straight from their
array by ``io.format_array``, which formats each distinct value once. Under
--json the handler writes the whole line: ``json.dumps`` of the rest of the
payload, then the array's JSON text as the last key. Every other payload is
printed with one ``json.dumps`` call.

Exit codes: 0 success, 1 library-level failure (e.g. a negative cycle, or
running out of memory), 2 parse or usage errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import dense, graph, io as tio, scheduler, semiring as sr, sparse, spectral
from .errors import GraphParseError, NoCycleError, TropicalError
from .semiring import SemiringId

DEFAULT_CLOSURE_GUARD = 2048


def _fmt_float(v: float, digits: int = 6):
    if v == float("-inf"):
        return "-inf"
    if v == float("inf"):
        return "inf"
    return round(v, digits)


def _read_file(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise GraphParseError(f"cannot read {path}: {exc.strerror or exc}") from None


def _load_graph(path: str, closure_guard: int | None = None, what: str = "closure"):
    """Parse a graph file into (CsrMatrix, SemiringId); with a guard, refuse
    an oversized header before any edge is parsed or any matrix storage is
    built. A command that needs the grid lays it out from the CSR."""
    check = None
    if closure_guard is not None:
        check = lambda rows, cols: _guard_closure(rows, cols, closure_guard, what)
    return tio.parse_graph(_read_file(path), check_shape=check)


def _guard_closure(rows: int, cols: int, guard: int, what: str = "closure") -> None:
    if max(rows, cols) > guard:
        raise _GuardRefusal(
            f"refusing {what} of a {rows}x{cols} matrix (guard is {guard}; "
            f"raise --closure-guard to override)"
        )


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


class _GuardRefusal(Exception):
    pass


def build_parser() -> argparse.ArgumentParser:
    from .bench import BENCH_INPUTS, BENCH_OPS

    p = argparse.ArgumentParser(
        prog="tropical",
        description="Tropical linear algebra analysis of graph and schedule files",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_guard(c, help_text="largest n accepted for the cubic closure sweep"):
        c.add_argument(
            "--closure-guard", type=_non_negative_int, default=DEFAULT_CLOSURE_GUARD,
            help=help_text,
        )

    def add_cmd(name, handler, help_text):
        c = sub.add_parser(name, help=help_text)
        c.set_defaults(handler=handler)
        return c

    def add_graph_cmd(name, handler, help_text, guard=False):
        c = add_cmd(name, handler, help_text)
        c.add_argument("file", help="graph file")
        c.add_argument(
            "--sparse", action="store_true",
            help="accepted and ignored: every graph command parses into CSR",
        )
        if guard:
            add_guard(c)
        c.add_argument("--json", action="store_true", help="emit JSON instead of text")
        return c

    add_graph_cmd("closure", _cmd_closure, "Kleene star of the adjacency matrix", guard=True)
    c = add_graph_cmd("sssp", _cmd_sssp, "single-source optimal path values")
    c.add_argument("--source", type=int, required=True, help="0-based source vertex")
    add_graph_cmd("apsp", _cmd_closure, "all-pairs optimal path values", guard=True)
    add_graph_cmd("reach", _cmd_closure, "reachability (Boolean transitive closure)", guard=True)
    add_graph_cmd(
        "bottleneck", _cmd_closure, "all-pairs widest-path values (max-min)", guard=True
    )

    c = add_cmd("matmul", _cmd_matmul, "tropical product of two matrix files")
    c.add_argument("file_a")
    c.add_argument("file_b")
    add_guard(c, "largest row or column count accepted for either operand")
    c.add_argument("--json", action="store_true")

    c = add_cmd("eig", _cmd_eig, "eigenvalue (maximum cycle mean) of a max-plus graph")
    c.add_argument("file")
    c.add_argument("--json", action="store_true")

    c = add_cmd("eigvec", _cmd_eigvec, "eigenvector by tropical power iteration")
    c.add_argument("file")
    c.add_argument("--eps", type=float, default=1e-9, help="L-infinity tolerance")
    c.add_argument(
        "--max-iter", type=_non_negative_int, default=None, help="iteration cap (default 10n)"
    )
    c.add_argument("--json", action="store_true")

    c = add_cmd("schedule", _cmd_schedule, "solve a precedence-constrained schedule file")
    c.add_argument("file")
    c.add_argument("--start", type=int, default=0, help="global start-time offset")
    c.add_argument("--json", action="store_true")

    c = add_cmd("bench", _cmd_bench, "micro-benchmark a kernel")
    c.add_argument("--op", choices=BENCH_OPS, required=True)
    c.add_argument("--size", type=int, required=True)
    c.add_argument("--semiring", choices=sorted(sr.SEMIRING_TOKENS), default="maxplus")
    c.add_argument("--reps", type=int, default=3)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument(
        "--input", choices=BENCH_INPUTS, default="uniform",
        help="closure, matmul and render input: uniform entries, a sparse graph of 16n edges,"
        " or entries in [1, 1000] (negated for maxplus) whose closure converges",
    )
    add_guard(
        c, "largest n accepted for the dense benchmarks (matmul, matvec, closure, render, schedule)"
    )
    c.add_argument("--json", action="store_true")
    return p


# -- subcommand handlers: each returns (payload, text_lines) -------------------
# Matrix and sssp commands render only the mode that is printed: under --json
# the payload is the finished JSON line, with the array as its last key
# (text_lines None), else the array's lines, joined into one string.

def _array_result(args, payload: dict, key: str, arr):
    if args.json:
        array = tio.format_array(arr, as_json=True)
        return f"{json.dumps(payload)[:-1]}, {json.dumps(key)}: {array}}}", None
    return payload, [tio.format_array(arr)]


def _cmd_closure(args):
    m, s = _load_graph(args.file, closure_guard=args.closure_guard)
    if args.command == "reach":
        result, token = graph.reachability(m, s), "boolean"
    elif args.command == "bottleneck":
        if s is not SemiringId.MAXMIN:
            raise ValueError("bottleneck requires a maxmin graph file")
        result, token = graph.bottleneck_paths(m), "maxmin"
    else:
        result, token = graph.all_pairs_paths(m, s), sr.TOKEN_OF[s]
    payload = {"command": args.command, "semiring": token, "n": result.rows}
    return _array_result(args, payload, "matrix", result._arr)


def _cmd_sssp(args):
    m, s = _load_graph(args.file)
    d = np.array(graph.sssp(m, args.source, s), dtype=np.int64)
    payload = {"command": "sssp", "semiring": sr.TOKEN_OF[s], "source": args.source}
    return _array_result(args, payload, "distances", d)


def _cmd_matmul(args):
    a, s_a = _load_graph(args.file_a, closure_guard=args.closure_guard, what="matmul")
    b, s_b = _load_graph(args.file_b, closure_guard=args.closure_guard, what="matmul")
    if s_a is not s_b:
        raise ValueError(
            f"operand semirings differ: {sr.TOKEN_OF[s_a]} vs {sr.TOKEN_OF[s_b]}"
        )
    c = dense.matmul(sparse.to_dense(a), sparse.to_dense(b), s_a)
    payload = {
        "command": "matmul", "semiring": sr.TOKEN_OF[s_a], "rows": c.rows, "cols": c.cols
    }
    return _array_result(args, payload, "matrix", c._arr)


def _maxplus_cycle_mean(args):
    """The max-plus graph of args.file and its maximum cycle mean."""
    m, s = _load_graph(args.file)
    if s is not SemiringId.MAXPLUS:
        raise ValueError(f"{args.command} requires a maxplus graph file")
    return m, spectral.max_cycle_mean(m)


def _cmd_eig(args):
    m, lam = _maxplus_cycle_mean(args)
    if lam is None:
        payload = {"command": "eig", "eigenvalue": None}
        return payload, ["no cycle"]
    payload = {
        "command": "eig",
        "eigenvalue": str(lam),
        "numerator": lam.numerator,
        "denominator": lam.denominator,
        "float": round(lam.as_float, 6),
        "strongly_connected": lam.strongly_connected,
    }
    lines = [f"{lam} ({lam.as_float:.6f})"]
    if not lam.strongly_connected:
        print(
            "warning: graph is not strongly connected; eigenvalue uniqueness does not hold",
            file=sys.stderr,
        )
    return payload, lines


def _cmd_eigvec(args):
    m, lam = _maxplus_cycle_mean(args)
    if lam is None:
        raise NoCycleError("graph has no cycle, eigenvector undefined")
    res = spectral.eigenvector(m, lam, epsilon=args.eps, max_iter=args.max_iter)
    payload = {
        "command": "eigvec",
        "eigenvalue": str(lam),
        "vector": [_fmt_float(v) for v in res.vector],
        "residual": _fmt_float(res.residual, 9),
        "converged": res.converged,
        "iterations": res.iterations,
    }
    lines = [
        " ".join(_render_float(v) for v in payload["vector"]),
        f"residual {payload['residual']}",
    ]
    if not res.converged:
        lines.append("not converged")
    return payload, lines


def _render_float(v) -> str:
    if isinstance(v, str):
        return v
    return f"{v:.6f}"


def _cmd_schedule(args):
    g = tio.parse_schedule(_read_file(args.file))
    result = scheduler.solve(g, args.start)
    path = scheduler.critical_path(g, result)
    payload = {
        "command": "schedule",
        "cyclic": g.cyclic,
        "tasks": [
            {
                "id": t,
                "name": g.names[t],
                "start": result.start[t],
                "completion": result.completion[t],
            }
            for t in range(g.n)
        ],
        "makespan": result.makespan,
        "iterations": result.iterations,
        "critical_path": [g.names[t] for t in path],
    }
    lines = [
        f"task {t['id']} {t['name']} start {t['start']} completion {t['completion']}"
        for t in payload["tasks"]
    ]
    lines.append(f"makespan {result.makespan}")
    lines.append(f"iterations {result.iterations}")
    lines.append("critical_path " + " ".join(payload["critical_path"]))
    if g.cyclic:
        lam = scheduler.cycle_time(g)
        thr = round(scheduler._rate(lam), 4)
        payload["cycle_time"] = str(lam)
        payload["throughput"] = _fmt_float(thr)
        lines.append(f"cycle_time {lam}")
        lines.append(f"throughput {thr:.4f}")
    return payload, lines


def _cmd_bench(args):
    from .bench import run_bench

    s = sr.parse_semiring(args.semiring)
    if args.op in ("matmul", "matvec", "closure", "render", "schedule"):
        _guard_closure(args.size, args.size, args.closure_guard, args.op)
    report = run_bench(args.op, args.size, s, args.reps, args.seed, args.input)
    # the report's fields in order: the semiring as its token, floats to 3
    # places, and the input kind under the key "input"
    payload = {"command": "bench"}
    for field in dataclasses.fields(report):
        v = getattr(report, field.name)
        if field.name == "semiring":
            v = sr.TOKEN_OF[v]
        elif isinstance(v, float):
            v = round(v, 3)
        elif isinstance(v, list):
            v = [round(e, 3) for e in v]
        payload["input" if field.name == "kind" else field.name] = v
    # one "key value" line per field, a list as its space-separated items
    lines = [
        f"{k} {' '.join(map(str, v)) if isinstance(v, list) else v}"
        for k, v in payload.items()
        if k != "command"
    ]
    return payload, lines


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built on the first call and reused: no action keeps state between
    # parse_args calls (no append or count actions, no mutable defaults)
    return build_parser()


def run(argv: list[str]) -> int:
    """Dispatch one CLI invocation; returns the process exit status."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        payload, lines = args.handler(args)
    except (GraphParseError, _GuardRefusal) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (TropicalError, MemoryError, OverflowError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(payload if isinstance(payload, str) else json.dumps(payload))
    else:
        for line in lines:
            print(line)
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))
