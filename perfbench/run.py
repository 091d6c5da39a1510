"""End-to-end benchmark of the tropical CLI.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The benchmark generates the
workload's inputs from the seed, computes every expected output with an
independent oracle, times ``python -c "import tropical.cli"`` cold starts,
then starts one closed-loop client process that sends ``--json`` requests
through ``tropical.cli.run`` for S seconds. Every output is checked.

With ``--trace 0`` it prints the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` each request also runs under the layer tracer and it prints the
per-layer metrics. Human-readable lines come first; the last line of stdout is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The ``env`` line records the machine, versions, thread settings, commit and
seed; a traced run also writes it, with every span, to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
from scipy.stats.mstats import hdquantiles

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Fresh interpreters started to measure the cold start, half before and half
# after the client loop so that they sample two moments of a machine whose
# speed drifts; setup_s is their median.
COLD_STARTS = 12
# One client, no extra threads: BLAS and OpenMP pools are held to one thread
# (numpy's integer kernels do not use BLAS).
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# A tail percentile is reported only with at least this many samples beyond it.
TAIL_SAMPLES = 10


def _env(**extra) -> dict:
    return dict(os.environ, **THREAD_ENV, **extra)


def cold_start_s() -> float:
    """Wall time of one fresh ``import tropical.cli`` process."""
    env = _env(PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import tropical.cli"], env=env, cwd=ROOT, check=True)
    return time.perf_counter() - t0


def _git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        )
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(args) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": THREAD_ENV,
        "commit": _git_commit(),
    }


def tail_percentile(n: int) -> int:
    """Highest percentile, at most 90, with TAIL_SAMPLES samples beyond it."""
    return max(50, min(90, int(100 * (1 - TAIL_SAMPLES / n))))


def check_outputs(requests, warm_rc, outdir: Path) -> list[str | None]:
    """Oracle verdict for each request's warm-up output (None when correct)."""
    verdicts = []
    for i, (req, rc) in enumerate(zip(requests, warm_rc)):
        if rc != 0:
            verdicts.append(f"exit code {rc}")
            continue
        text = (outdir / f"warm-{i}.out").read_text()
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            verdicts.append(f"output is not JSON: {exc}")
            continue
        verdicts.append(req.check(payload))
    return verdicts


def _failures(runs, verdicts) -> int:
    return sum(1 for i, rc, _, same, _ in runs if rc != 0 or not same or verdicts[i])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")

    if not (SRC / "tropical" / "cli.py").is_file():
        print(f"error: no tropical sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]

    env = environment(args)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("env " + json.dumps(env))

    workdir = OUT / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        requests = workloads.build(args.workload, args.seed, workdir)
        cold = [cold_start_s() for _ in range(COLD_STARTS // 2)]
        plan = {
            "src": str(SRC),
            "outdir": str(workdir),
            "requests": [r.argv for r in requests],
            "seconds": args.seconds,
            "trace": bool(args.trace),
        }
        (workdir / "plan.json").write_text(json.dumps(plan))
        subprocess.run(
            [sys.executable, str(HERE / "client.py"), str(workdir / "plan.json")],
            env=_env(), cwd=ROOT, check=True, timeout=args.seconds + 120,
        )
        result = json.loads((workdir / "result.json").read_text())
        cold += [cold_start_s() for _ in range(COLD_STARTS - len(cold))]
        verdicts = check_outputs(requests, result["warm"], workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for req, verdict in zip(requests, verdicts):
        print(f"request {req.label:<24} {'ok' if verdict is None else 'FAIL: ' + verdict}")
    timed, traced = result["timed"], result["traced"]
    failed = sum(v is not None for v in verdicts) + _failures(timed, verdicts)
    failed += _failures(traced, verdicts)
    attempted = len(requests) + len(timed) + len(traced)

    if args.trace:
        spans = result["spans"]
        metrics = tracer.summarize(spans, len(traced))
        metrics["cli.output_bytes"] = sum(r[4] for r in traced) / len(traced)
        metrics["trace.overhead_frac"] = (
            sum(r[2] for r in traced) / sum(r[2] for r in timed) - 1
        )
        trace_file = OUT / f"trace-{args.workload}-{args.seed}.json"
        trace_file.write_text(json.dumps({
            "env": env,
            "requests": [r.label for r in requests],
            "traced": traced,
            "spans": spans,
        }))
        wall = sum(e - s for name, _, s, e, _, _ in spans if name == tracer.ROOT)
        shares = sorted(tracer.self_by_name(spans).items(), key=lambda kv: -kv[1])
        for name, ns in shares:
            print(f"share {name:<28} {100 * ns / wall:6.2f} %")
        print(f"spans written to {trace_file.relative_to(ROOT)}")
    else:
        lat_ms = np.array([r[2] for r in timed]) / 1e6
        q = tail_percentile(len(lat_ms))
        # Harrell-Davis estimates: the fixed request mix clusters latencies by
        # request type, and a plain sample percentile that falls between two
        # clusters jumps between the extreme samples of two types.
        p50, tail = hdquantiles(lat_ms, prob=[0.5, q / 100])
        metrics = {
            "setup_s": statistics.median(cold),
            "req_p50_ms": float(p50),
            "req_p90_ms": float(tail),
            "req_per_s": len(timed) / result["loop_s"],
            "peak_rss_mb": result["peak_rss_kb"] / 1024,
        }
        print(f"samples {len(lat_ms)} tail_percentile p{q} failed_frac {failed / attempted:.6f}")

    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(metrics):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} "
              f"are not both computed and declared in BENCHMARK.json", file=sys.stderr)
        return 2
    for name in units:
        print(f"metric {name:<32} {metrics[name]:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
