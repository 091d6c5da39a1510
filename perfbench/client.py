"""Closed-loop client: one process, one request in flight, no extra threads.

Usage: python3 perfbench/client.py PLAN.json

The plan lists CLI argv lists. Every request goes through
``tropical.cli.run(argv)`` in this process with stdout and stderr captured.
A warm-up pass runs each request once and writes its stdout to
``<outdir>/warm-<i>.out`` for the oracle check; the timed loop then cycles
through the list for ``seconds`` and records each request's exit code, wall
time, output size and whether its output is byte-identical to the warm-up
output. With ``trace`` set, every request runs twice, untraced and traced in
alternating order, and the spans of the traced runs, kept in memory until the
loop ends, go into the result. Results go to ``<outdir>/result.json``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import time
import traceback
from pathlib import Path


def _run(call, argv, report=False):
    """One request: (exit code, wall ns, stdout). An exception escaping
    ``cli.run`` is a failed request with exit code 1, as in the real CLI."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter_ns()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = call(argv)
    except Exception:
        rc = 1
        if report:
            print(f"request {argv} raised:\n{traceback.format_exc()}", file=sys.stderr)
    ns = time.perf_counter_ns() - t0
    return rc, ns, out.getvalue()


def _peak_rss_kb() -> int:
    """Peak resident memory of this process image. getrusage's ru_maxrss is no
    use here: on Linux it keeps the parent's peak across fork and exec."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def _digest(text: str) -> bytes:
    return hashlib.blake2b(text.encode()).digest()


def main(plan_path: str) -> None:
    plan = json.loads(Path(plan_path).read_text())
    sys.path.insert(0, plan["src"])
    from tropical import cli

    outdir = Path(plan["outdir"])
    requests = plan["requests"]
    warm, digests = [], []
    for i, argv in enumerate(requests):
        rc, _, text = _run(cli.run, argv, report=True)
        (outdir / f"warm-{i}.out").write_text(text)
        warm.append(rc)
        digests.append(_digest(text))

    tracer = None
    if plan["trace"]:
        import tracer as tracing

        tracer = tracing.Tracer()

        def traced_run(argv):
            return tracer.call(tracing.ROOT, cli.run, argv)

    timed, traced_runs = [], []
    k = 0
    t_start = time.perf_counter()
    deadline = t_start + plan["seconds"]
    while time.perf_counter() < deadline:
        i = k % len(requests)
        modes = ["plain"]
        if tracer is not None:
            modes = ["plain", "traced"] if k % 2 == 0 else ["traced", "plain"]
        for mode in modes:
            if mode == "traced":
                tracer.request = len(traced_runs)
                tracer.install()
                try:
                    rc, ns, text = _run(traced_run, requests[i])
                finally:
                    tracer.uninstall()
                traced_runs.append([i, rc, ns, _digest(text) == digests[i], len(text)])
            else:
                rc, ns, text = _run(cli.run, requests[i])
                timed.append([i, rc, ns, _digest(text) == digests[i], len(text)])
        k += 1
    loop_s = time.perf_counter() - t_start

    result = {
        "warm": warm,
        "timed": timed,
        "traced": traced_runs,
        "spans": tracer.spans if tracer is not None else [],
        "loop_s": loop_s,
        "peak_rss_kb": _peak_rss_kb(),
    }
    (outdir / "result.json").write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1])
