import json
import subprocess
import sys
import tracemalloc
import zlib

import numpy as np
import pytest
from conftest import FIXTURES

from tropical import dense
from tropical.cli import run


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def invoke_json(capsys, *argv):
    code, out, err = invoke(capsys, *argv, "--json")
    return code, json.loads(out), err


def test_closure_text(fixtures, capsys):
    code, out, _ = invoke(capsys, "closure", str(fixtures / "chain3_minplus.graph"))
    assert code == 0
    assert out.splitlines() == ["0 2 5", "inf 0 3", "inf inf 0"]


def test_closure_json_matches_text(fixtures, capsys):
    code, payload, _ = invoke_json(capsys, "closure", str(fixtures / "chain3_minplus.graph"))
    assert code == 0
    assert payload["matrix"] == [[0, 2, 5], ["inf", 0, 3], ["inf", "inf", 0]]
    code, out, _ = invoke(capsys, "closure", str(fixtures / "chain3_minplus.graph"))
    text_rows = [
        [int(tok) if tok.lstrip("-").isdigit() else tok for tok in line.split()]
        for line in out.splitlines()
    ]
    assert text_rows == payload["matrix"]


def test_closure_sparse_flag(fixtures, capsys):
    code, out, _ = invoke(capsys, "closure", str(fixtures / "chain3_minplus.graph"), "--sparse")
    assert code == 0
    assert out.splitlines()[0] == "0 2 5"


def test_apsp_same_as_closure(fixtures, capsys):
    _, p1, _ = invoke_json(capsys, "closure", str(fixtures / "chain3_minplus.graph"))
    _, p2, _ = invoke_json(capsys, "apsp", str(fixtures / "chain3_minplus.graph"))
    assert p1["matrix"] == p2["matrix"]


def test_sssp(fixtures, capsys):
    code, out, _ = invoke(capsys, "sssp", str(fixtures / "chain3_minplus.graph"), "--source", "0")
    assert code == 0
    assert out.strip() == "0 2 5"
    code, payload, _ = invoke_json(
        capsys, "sssp", str(fixtures / "chain3_minplus.graph"), "--source", "1"
    )
    assert payload["distances"] == ["inf", 0, 3]


def test_reach(fixtures, capsys):
    code, out, _ = invoke(capsys, "reach", str(fixtures / "chain3_minplus.graph"))
    assert code == 0
    assert out.splitlines() == ["1 1 1", "0 1 1", "0 0 1"]


def test_bottleneck(fixtures, capsys):
    code, out, _ = invoke(capsys, "bottleneck", str(fixtures / "maxmin_parallel.graph"))
    assert code == 0
    rows = out.splitlines()
    assert rows[0].split()[3] == "5"
    code, _, err = invoke(capsys, "bottleneck", str(fixtures / "chain3_minplus.graph"))
    assert code == 1 and "maxmin" in err


def test_matmul_known_operands(fixtures, capsys):
    code, out, _ = invoke(
        capsys,
        "matmul",
        str(fixtures / "matmul_a_maxplus.graph"),
        str(fixtures / "matmul_b_maxplus.graph"),
    )
    assert code == 0
    assert out.splitlines() == ["7 4", "6 7"]
    code, payload, _ = invoke_json(
        capsys,
        "matmul",
        str(fixtures / "matmul_a_minplus.graph"),
        str(fixtures / "matmul_b_minplus.graph"),
    )
    assert payload["matrix"][0][0] == 3
    code, _, err = invoke(
        capsys,
        "matmul",
        str(fixtures / "matmul_a_maxplus.graph"),
        str(fixtures / "matmul_b_minplus.graph"),
    )
    assert code == 1 and "semiring" in err


def test_eig(fixtures, capsys):
    code, out, _ = invoke(capsys, "eig", str(fixtures / "cycles4_maxplus.graph"))
    assert code == 0
    assert out.strip() == "8/3 (2.666667)"
    code, payload, _ = invoke_json(capsys, "eig", str(fixtures / "cycles4_maxplus.graph"))
    assert payload["numerator"] == 8 and payload["denominator"] == 3
    assert payload["float"] == pytest.approx(2.666667)
    assert payload["strongly_connected"] is True


def test_eig_requires_maxplus(fixtures, capsys):
    code, _, err = invoke(capsys, "eig", str(fixtures / "chain3_minplus.graph"))
    assert code == 1 and "maxplus" in err


def test_eigvec(fixtures, capsys):
    code, out, _ = invoke(capsys, "eigvec", str(fixtures / "cycles4_maxplus.graph"))
    assert code == 0
    lines = out.splitlines()
    assert len(lines[0].split()) == 4
    assert lines[1].startswith("residual ")
    assert float(lines[1].split()[1]) <= 1e-6
    code, payload, _ = invoke_json(
        capsys, "eigvec", str(fixtures / "cycles4_maxplus.graph"), "--eps", "1e-9"
    )
    assert payload["converged"] is True
    assert payload["residual"] <= 1e-6
    assert len(payload["vector"]) == 4


@pytest.mark.parametrize("eps", ["nan", "inf", "0"])
def test_eigvec_refuses_an_eps_that_is_not_finite_and_positive(tmp_path, capsys, eps):
    path = tmp_path / "two_cycle.graph"
    path.write_text("2 2 maxplus\n0 1 5\n1 0 3\n")
    code, out, err = invoke(capsys, "eigvec", str(path), "--eps", eps)
    assert code == 1 and out == ""
    assert "epsilon must be positive" in err


def test_eigvec_without_iterations_prints_an_infinite_residual(tmp_path, capsys):
    # vertex 2 has no out-edge, so the product of the start vector is -inf there
    path = tmp_path / "sink.graph"
    path.write_text("3 3 maxplus\n0 1 2\n1 0 -1\n0 0 -5\n")
    code, out, err = invoke(capsys, "eigvec", str(path), "--max-iter", "0")
    assert (code, err) == (0, "")
    assert "residual inf" in out.splitlines()
    code, out, err = invoke(capsys, "eigvec", str(path), "--max-iter", "0", "--json")
    assert (code, err) == (0, "")
    assert '"residual": "inf"' in out


def test_eigvec_residual_keeps_nine_digits(fixtures, capsys):
    # the vector rounds to 6 digits, the residual to 9
    graph = str(fixtures / "cycles4_maxplus.graph")
    code, out, _ = invoke(capsys, "eigvec", graph, "--max-iter", "0")
    assert code == 0 and "residual 1.333333333" in out.splitlines()
    code, payload, _ = invoke_json(capsys, "eigvec", graph, "--max-iter", "0")
    assert payload["residual"] == 1.333333333


@pytest.mark.parametrize("mode", [(), ("--json",)])
def test_eigvec_of_an_acyclic_graph_is_a_no_cycle_error(tmp_path, capsys, mode):
    path = tmp_path / "acyclic.graph"
    path.write_text("3 2 maxplus\n0 1 2\n1 2 3\n")
    code, out, err = invoke(capsys, "eigvec", str(path), *mode)
    assert (code, out) == (1, "")
    assert err == "error: NoCycleError: graph has no cycle, eigenvector undefined\n"


def test_schedule_production(fixtures, capsys):
    code, out, _ = invoke(capsys, "schedule", str(fixtures / "production.sched"))
    assert code == 0
    lines = out.splitlines()
    assert "makespan 54" in lines
    assert "cycle_time 54/5" in lines
    assert "throughput 0.0926" in lines
    assert "critical_path Input Mill Weld Finish QC" in lines
    code, payload, _ = invoke_json(capsys, "schedule", str(fixtures / "production.sched"))
    assert payload["makespan"] == 54
    assert payload["cycle_time"] == "54/5"
    assert payload["throughput"] == pytest.approx(0.0926)


def test_schedule_drone(fixtures, capsys):
    code, payload, _ = invoke_json(capsys, "schedule", str(fixtures / "drone.sched"))
    assert code == 0
    assert payload["makespan"] == 570
    assert payload["iterations"] <= 11
    assert payload["critical_path"] == ["GPS", "Fusion", "PosEst", "Telemetry"]
    assert "cycle_time" not in payload
    by_name = {t["name"]: t for t in payload["tasks"]}
    assert by_name["Fusion"]["start"] == 100
    assert by_name["PWM"]["completion"] == 520


def test_schedule_start_offset(fixtures, capsys):
    code, payload, _ = invoke_json(
        capsys, "schedule", str(fixtures / "drone.sched"), "--start", "100"
    )
    assert payload["makespan"] == 670


def test_schedule_what_if(fixtures, capsys):
    code, payload, _ = invoke_json(
        capsys, "schedule", str(fixtures / "production_weld15.sched")
    )
    assert payload["cycle_time"] == "49/5"


def test_schedule_zero_cycle_time_prints_infinite_throughput(tmp_path, capsys):
    path = tmp_path / "zero.sched"
    path.write_text("task 0 a 3\nfeedback 0 0 0\n")
    code, out, err = invoke(capsys, "schedule", str(path))
    assert code == 0, err
    assert out.splitlines()[-2:] == ["cycle_time 0/1", "throughput inf"]
    code, payload, err = invoke_json(capsys, "schedule", str(path))
    assert code == 0, err
    assert payload["cycle_time"] == "0/1"
    assert payload["throughput"] == "inf"


def test_cyclic_schedule_runs_howard_once(fixtures, capsys, monkeypatch):
    from tropical import spectral

    calls = []
    howard = spectral._howard
    monkeypatch.setattr(spectral, "_howard", lambda *a: calls.append(1) or howard(*a))
    code, out, _ = invoke(capsys, "schedule", str(fixtures / "production.sched"))
    assert code == 0
    assert "throughput 0.0926" in out.splitlines()
    assert len(calls) == 1


def test_negative_cycle_exit_code(fixtures, capsys):
    code, _, err = invoke(capsys, "closure", str(fixtures / "negative_cycle.graph"))
    assert code == 1
    assert "NegativeCycle" in err
    code, _, err = invoke(
        capsys, "sssp", str(fixtures / "negative_cycle.graph"), "--source", "0"
    )
    assert code == 1
    assert "NegativeCycle" in err


def test_maxplus_positive_cycle_exit_code(tmp_path, capsys):
    path = tmp_path / "up.graph"
    path.write_text("3 3 maxplus\n0 1 1\n1 2 0\n2 1 1\n")
    for extra in ([], ["--sparse"]):
        code, out, err = invoke(capsys, "sssp", str(path), "--source", "0", *extra)
        assert code == 1
        assert out == ""
        assert "PositiveCycleError" in err


def test_maxplus_positive_cycle_closure_exit_code(tmp_path, capsys):
    # the 2-cycle 0 -> 1 -> 0 weighs 5: no finite longest path exists
    path = tmp_path / "star.graph"
    path.write_text("2 2 maxplus\n0 1 2\n1 0 3\n")
    for command in ("closure", "apsp"):
        for extra in ([], ["--json"]):
            code, out, err = invoke(capsys, command, str(path), *extra)
            assert code == 1
            assert out == ""
            assert err == (
                "error: PositiveCycleError: positive cycle through vertices [0, 1]\n"
            )


@pytest.mark.parametrize("command", ["closure", "apsp", "reach", "bottleneck"])
def test_sparse_flag_selects_nothing_on_the_closure_commands(capsys, command):
    # every graph fixture, malformed ones included, and a guard refusal: the
    # same exit code, stdout and stderr with and without --sparse
    codes = set()
    for path in sorted(FIXTURES.glob("*.graph")):
        for opts in ([], ["--json"], ["--closure-guard", "2"]):
            runs = [invoke(capsys, command, str(path), *opts, *extra)
                    for extra in ([], ["--sparse"])]
            assert runs[0] == runs[1], (path.name, opts)
            codes.add(runs[0][0])
    assert codes == {0, 1, 2}


@pytest.mark.parametrize("token", ["\u0663", "1_000"])
def test_non_ascii_and_underscore_integers_exit_2(tmp_path, capsys, token):
    graphs = {
        "header.graph": f"{token} 0 minplus\n",
        "edge.graph": f"2 1 minplus\n0 1 {token}\n",
    }
    for name, text in graphs.items():
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        for extra in ([], ["--sparse"]):
            code, _, err = invoke(capsys, "sssp", str(path), "--source", "0", *extra)
            assert code == 2
            assert err.startswith("error: line ")
    path = tmp_path / "task.sched"
    path.write_text(f"task 0 a 5\ntask 1 b {token}\n", encoding="utf-8")
    code, _, err = invoke(capsys, "schedule", str(path))
    assert code == 2
    assert err.startswith("error: line 2:")


def test_negative_max_iter_is_a_usage_error(fixtures, capsys):
    code, _, err = invoke(
        capsys, "eigvec", str(fixtures / "cycles4_maxplus.graph"), "--max-iter", "-1"
    )
    assert code == 2
    assert "must be >= 0" in err


@pytest.mark.parametrize("exc", [MemoryError, OverflowError])
def test_memory_and_overflow_errors_exit_1(fixtures, capsys, monkeypatch, exc):
    import tropical.graph

    def fail(*args, **kwargs):
        raise exc("cannot allocate")

    monkeypatch.setattr(tropical.graph, "sssp", fail)
    code, out, err = invoke(
        capsys, "sssp", str(fixtures / "chain3_minplus.graph"), "--source", "0"
    )
    assert code == 1
    assert out == ""
    assert err == f"error: {exc.__name__}: cannot allocate\n"


@pytest.mark.parametrize(
    "name",
    [
        "malformed_header.graph",
        "malformed_semiring.graph",
        "malformed_vertex.graph",
        "malformed_weight.graph",
        "malformed_count.graph",
    ],
)
def test_malformed_files_exit_2(fixtures, capsys, name):
    code, _, err = invoke(capsys, "closure", str(fixtures / name))
    assert code == 2
    assert err.startswith("error:")


def test_malformed_schedule_exit_2(fixtures, capsys):
    code, _, err = invoke(capsys, "schedule", str(fixtures / "malformed_task.sched"))
    assert code == 2


def test_missing_file_exit_2(capsys):
    code, _, err = invoke(capsys, "closure", "no_such_file.graph")
    assert code == 2


def test_usage_error_exit_2(capsys):
    code, _, _ = invoke(capsys, "frobnicate")
    assert code == 2
    code, _, _ = invoke(capsys, "sssp")  # missing args
    assert code == 2


def test_run_reuses_its_parser_without_carrying_state(fixtures, capsys):
    cycles = str(fixtures / "cycles4_maxplus.graph")
    chain = str(fixtures / "chain3_minplus.graph")
    code, payload, _ = invoke_json(capsys, "eigvec", cycles, "--max-iter", "1")
    assert (code, payload["iterations"], payload["converged"]) == (0, 1, False)
    code, out, err = invoke(capsys, "sssp", chain)  # --source is missing
    assert (code, out) == (2, "")
    assert "--source" in err
    code, out, _ = invoke(capsys, "eigvec", cycles)
    assert code == 0
    assert "not converged" not in out
    code, out, _ = invoke(capsys, "sssp", chain, "--source", "0")
    assert (code, out) == (0, "0 2 5\n")


def test_source_out_of_range_exit_1(fixtures, capsys):
    code, _, err = invoke(
        capsys, "sssp", str(fixtures / "chain3_minplus.graph"), "--source", "9"
    )
    assert code == 1


def test_closure_guard(fixtures, capsys):
    code, _, err = invoke(
        capsys, "closure", str(fixtures / "chain3_minplus.graph"), "--closure-guard", "2"
    )
    assert code == 2
    assert "guard" in err


def test_closure_guard_runs_before_the_grid_is_built(tmp_path, capsys):
    # a 15-byte header must not allocate an n^2 grid before the guard refuses it
    path = tmp_path / "big.graph"
    path.write_text("3000 0 minplus\n")
    for cmd in ("closure", "apsp", "reach"):
        tracemalloc.start()
        try:
            code, _, err = invoke(capsys, cmd, str(path))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2
        assert "guard" in err
        assert peak < 2_000_000


def test_closure_guard_checks_both_dimensions(tmp_path, capsys):
    path = tmp_path / "wide.graph"
    path.write_text("2 3000 0 minplus\n")
    code, _, err = invoke(capsys, "closure", str(path))
    assert code == 2
    assert "guard" in err


def test_matmul_guard_runs_before_any_edge_is_parsed(tmp_path, capsys):
    # n = guard + 1: unguarded, each operand would be a 2049 x 2049 int32
    # grid (16.8 MB); the bad record below the header is never reached
    big = tmp_path / "big.graph"
    big.write_text("2049 1 minplus\n0 1 x\n")
    small = str(FIXTURES / "matmul_a_minplus.graph")
    for argv in ([str(big), small], [small, str(big)]):
        tracemalloc.start()
        try:
            code, out, err = invoke(capsys, "matmul", *argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (code, out) == (2, "")
        assert "refusing matmul of a 2049x2049 matrix (guard is 2048" in err
        assert peak < 2_000_000
    wide = tmp_path / "wide.graph"
    wide.write_text("2 5 0 minplus\n")
    code, _, err = invoke(capsys, "matmul", small, str(wide), "--closure-guard", "4")
    assert code == 2 and "refusing matmul of a 2x5 matrix (guard is 4;" in err
    assert invoke(capsys, "matmul", small, small, "--closure-guard", "-1")[0] == 2


def test_path_and_spectral_commands_never_build_the_grid(tmp_path, capsys):
    # 3 edges on 4000 vertices: an n x n grid alone would take 64 MB or more
    path = tmp_path / "wide.graph"
    path.write_text("4000 3 maxplus\n0 1 2\n1 0 4\n3999 0 -7\n")
    for argv in (["eig"], ["eigvec"], ["sssp", "--source", "2"]):
        tracemalloc.start()
        try:
            code, _, _ = invoke(capsys, argv[0], str(path), *argv[1:])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 8_000_000, argv


def test_negative_closure_guard_is_a_usage_error(fixtures, capsys):
    graph = str(fixtures / "chain3_minplus.graph")
    assert invoke(capsys, "closure", graph, "--closure-guard", "-1")[0] == 2
    assert invoke(capsys, "bottleneck", graph, "--closure-guard", "-5")[0] == 2
    code, _, _ = invoke(
        capsys, "bench", "--op", "closure", "--size", "4", "--closure-guard", "-1"
    )
    assert code == 2


def test_bench_guard_runs_before_the_operands_are_built(capsys):
    # the closure guard fences every dense bench op: without it, matvec
    # would build a 1500 x 1500 operand before refusing nothing
    for op in ("matvec", "matmul"):
        tracemalloc.start()
        try:
            code, _, err = invoke(
                capsys, "bench", "--op", op, "--size", "1500", "--reps", "1",
                "--closure-guard", "1000",
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2
        assert "guard" in err
        assert peak < 2_000_000


def test_bench_report(capsys):
    code, payload, _ = invoke_json(
        capsys, "bench", "--op", "matmul", "--size", "16", "--reps", "3"
    )
    assert code == 0
    assert payload["op"] == "matmul"
    assert payload["n"] == 16
    assert payload["reps"] == 3
    assert len(payload["elapsed_us"]) == 3
    assert payload["mean_us"] > 0
    assert payload["median_us"] == round(sorted(payload["elapsed_us"])[1], 3)
    assert payload["mops"] > 0
    assert payload["workers"] == dense._WORKERS >= 1
    code2, payload2, _ = invoke_json(
        capsys, "bench", "--op", "matmul", "--size", "16", "--reps", "1"
    )
    assert payload2["checksum"] == payload["checksum"]
    code3, payload3, _ = invoke_json(
        capsys, "bench", "--op", "matmul", "--size", "16", "--reps", "1", "--seed", "9"
    )
    assert payload3["checksum"] != payload["checksum"]


def test_bench_matvec_and_closure(capsys):
    code, payload, _ = invoke_json(
        capsys, "bench", "--op", "matvec", "--size", "8", "--reps", "2",
        "--semiring", "minmax",
    )
    assert code == 0 and payload["semiring"] == "minmax"
    code, payload, _ = invoke_json(
        capsys, "bench", "--op", "closure", "--size", "8", "--reps", "1",
        "--semiring", "minplus",
    )
    assert code == 0


def test_bench_sssp(capsys):
    code, payload, _ = invoke_json(
        capsys, "bench", "--op", "sssp", "--size", "64", "--reps", "2",
        "--semiring", "minplus",
    )
    assert code == 0
    assert payload["op"] == "sssp" and payload["n"] == 64
    assert len(payload["elapsed_us"]) == 2
    assert payload["mops"] > 0
    _, again, _ = invoke_json(
        capsys, "bench", "--op", "sssp", "--size", "64", "--reps", "1",
        "--semiring", "minplus",
    )
    assert again["checksum"] == payload["checksum"]
    # max-plus draws negated weights, so its paths exist as well
    code, _, err = invoke(capsys, "bench", "--op", "sssp", "--size", "64", "--reps", "1")
    assert code == 0, err


def test_bench_bellman_ford_matches_sssp(capsys):
    # the scalar baseline on the graph and source of --op sssp: same input,
    # same distances
    runs = [
        invoke_json(
            capsys, "bench", "--op", op, "--size", "64", "--reps", "1", "--semiring", "minplus"
        )
        for op in ("bellman-ford", "sssp")
    ]
    (code, bf, _), (_, sssp, _) = runs
    assert code == 0 and bf["op"] == "bellman-ford"
    assert (bf["checksum"], bf["output_checksum"]) == (sssp["checksum"], sssp["output_checksum"])
    code, _, err = invoke(capsys, "bench", "--op", "bellman-ford", "--size", "8")
    assert (code, err) == (1, "error: the bellman-ford benchmark requires the minplus semiring\n")


def test_bench_parse(capsys):
    code, payload, _ = invoke_json(
        capsys, "bench", "--op", "parse", "--size", "64", "--reps", "2",
        "--semiring", "minplus",
    )
    assert code == 0
    assert payload["op"] == "parse" and payload["n"] == 64
    assert len(payload["elapsed_us"]) == 2
    assert payload["mops"] > 0
    _, again, _ = invoke_json(
        capsys, "bench", "--op", "parse", "--size", "64", "--reps", "1",
        "--semiring", "minplus",
    )
    assert (again["checksum"], again["output_checksum"]) == (
        payload["checksum"], payload["output_checksum"]
    )


def test_bench_eigvec(capsys):
    code, payload, err = invoke_json(
        capsys, "bench", "--op", "eigvec", "--size", "32", "--reps", "2"
    )
    assert code == 0, err
    assert payload["op"] == "eigvec" and len(payload["elapsed_us"]) == 2
    assert isinstance(payload["output_checksum"], int)


def test_bench_schedule(capsys):
    from tropical import bench, scheduler

    code, payload, err = invoke_json(
        capsys, "bench", "--op", "schedule", "--size", "60", "--reps", "2"
    )
    assert code == 0, err
    assert payload["op"] == "schedule" and len(payload["elapsed_us"]) == 2
    assert isinstance(payload["output_checksum"], int)
    # the CRC-32 of the int32 start times
    g = bench.random_task_graph(60, np.random.default_rng(0))
    starts = np.array(scheduler.solve(g).start, dtype=np.int32)
    assert payload["output_checksum"] == zlib.crc32(starts.tobytes())
    code, _, err = invoke(capsys, "bench", "--op", "schedule", "--size", "8", "--semiring", "minplus")
    assert (code, err) == (1, "error: the schedule benchmark requires the maxplus semiring\n")
    code, _, err = invoke(
        capsys, "bench", "--op", "schedule", "--size", "60", "--closure-guard", "59"
    )
    assert code == 2 and "guard is 59" in err


def test_bench_parse_schedule(capsys):
    from tropical import bench, io as tio

    code, payload, err = invoke_json(
        capsys, "bench", "--op", "parse-schedule", "--size", "60", "--reps", "2"
    )
    assert code == 0, err
    assert payload["op"] == "parse-schedule" and len(payload["elapsed_us"]) == 2
    assert isinstance(payload["output_checksum"], int)
    # the text of the schedule benchmark's graph, parsed back into that graph:
    # the CRC-32 of its int64 durations, then of its sources, targets and lags
    g = bench.random_task_graph(60, np.random.default_rng(0))
    text = bench.schedule_text(g)
    assert payload["checksum"] == zlib.crc32(text.encode())
    assert text.startswith("task 0 t0 ") and "\ndep 0 1\n" in text
    assert tio.parse_schedule(text).edges == g.edges
    durations = np.array(g.durations, dtype=np.int64).tobytes()
    edges = np.array((g.src, g.dst, g.lag), dtype=np.int64).tobytes()
    assert payload["output_checksum"] == zlib.crc32(edges, zlib.crc32(durations))
    assert payload["mops"] == pytest.approx((60 + len(g.src)) / payload["mean_us"], abs=2e-3)


def test_text_json_parity(fixtures, capsys):
    # the two renderings must carry identical numeric content, field by field
    _, out, _ = invoke(capsys, "sssp", str(fixtures / "chain3_minplus.graph"), "--source", "0")
    _, payload, _ = invoke_json(
        capsys, "sssp", str(fixtures / "chain3_minplus.graph"), "--source", "0"
    )
    assert out.split() == [str(v) for v in payload["distances"]]

    _, out, _ = invoke(capsys, "eig", str(fixtures / "cycles4_maxplus.graph"))
    _, payload, _ = invoke_json(capsys, "eig", str(fixtures / "cycles4_maxplus.graph"))
    ratio, paren = out.split()
    assert ratio == f"{payload['numerator']}/{payload['denominator']}"
    assert float(paren.strip("()")) == payload["float"]

    _, out, _ = invoke(capsys, "schedule", str(fixtures / "production.sched"))
    _, payload, _ = invoke_json(capsys, "schedule", str(fixtures / "production.sched"))
    fields = dict(
        line.split(" ", 1) for line in out.splitlines() if not line.startswith("task ")
    )
    assert int(fields["makespan"]) == payload["makespan"]
    assert fields["cycle_time"] == payload["cycle_time"]
    assert float(fields["throughput"]) == payload["throughput"]
    assert fields["critical_path"].split() == payload["critical_path"]

    _, out, _ = invoke(capsys, "eigvec", str(fixtures / "cycles4_maxplus.graph"))
    _, payload, _ = invoke_json(capsys, "eigvec", str(fixtures / "cycles4_maxplus.graph"))
    text_vec = [float(tok) for tok in out.splitlines()[0].split()]
    assert text_vec == [pytest.approx(v, abs=1e-6) for v in payload["vector"]]


def test_module_entry_point(fixtures):
    proc = subprocess.run(
        [sys.executable, "-m", "tropical", "eig", str(fixtures / "cycles4_maxplus.graph")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "8/3 (2.666667)"


def test_schedule_past_the_finite_range_exits_1(tmp_path, capsys):
    path = tmp_path / "long.sched"
    path.write_text(
        "task 0 a 1500000000\ntask 1 b 1500000000\ntask 2 c 1500000000\n"
        "dep 0 1\ndep 1 2\n"
    )
    for mode in ((), ("--json",)):
        code, out, err = invoke(capsys, "schedule", str(path), *mode)
        assert (code, out) == (1, "")
        assert err.startswith("error: SaturationError: start of task 'c' is at least 3000000000")


def test_the_bench_harness_is_imported_on_first_use():
    script = (
        "import sys, tropical.cli\n"
        "assert 'tropical.bench' not in sys.modules\n"
        "import tropical\n"
        "assert tropical.run_bench is sys.modules['tropical.bench'].run_bench\n"
        "from tropical import BenchReport\n"
        "assert BenchReport.__module__ == 'tropical.bench'\n"
        "assert not {'scipy', 'hypothesis'} & set(sys.modules), 'not a runtime dependency'\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    with pytest.raises(AttributeError, match="no attribute 'run_benchmark'"):
        import tropical

        tropical.run_benchmark


@pytest.mark.parametrize("extra", [(), ("--sparse",)])
@pytest.mark.parametrize("semiring", ["minplus", "maxplus"])
def test_sssp_saturated_distance_exits_1(tmp_path, capsys, semiring, extra):
    path = tmp_path / "g.graph"
    path.write_text(f"3 2 {semiring}\n0 1 2000000000\n1 2 2000000000\n")
    code, out, err = invoke(capsys, "sssp", str(path), "--source", "0", *extra)
    assert code == 1 and out == ""
    assert err == (
        "error: SaturationError: distance to vertex 2 sums to 4000000000, "
        "past 2147483646\n"
    )
    # a path that sums to exactly FINITE_MAX still prints
    path.write_text(f"3 2 {semiring}\n0 1 2000000000\n1 2 147483646\n")
    code, out, _ = invoke(capsys, "sssp", str(path), "--source", "0", *extra)
    assert code == 0 and out == "0 2000000000 2147483646\n"


@pytest.mark.parametrize(
    "flags, out",
    [((), "no cycle\n"), (("--json",), '{"command": "eig", "eigenvalue": null}\n')],
    ids=["text", "json"],
)
def test_eig_of_an_acyclic_graph_prints_no_cycle(tmp_path, capsys, flags, out):
    path = tmp_path / "acyclic.graph"
    path.write_text("3 2 maxplus\n0 1 4\n1 2 -1\n")
    assert invoke(capsys, "eig", str(path), *flags) == (0, out, "")
