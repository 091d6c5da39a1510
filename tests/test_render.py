"""The integer renderer, ``io.format_array``, against the per-element path
it replaced, which is kept here as the oracle: ``json.dumps`` of the
``tolist`` rows with the sentinels patched to "inf" / "-inf", and text lines
of ``" ".join(str(v))``. Also a CLI differential: every matrix and sssp
command on every fixture, in text and --json, printed exactly as the oracle
renders the library's result."""

import json
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tropical as tr
from tropical import SemiringId, dense, graph
from tropical import io as tio
from tropical.cli import run
from tropical.semiring import FINITE_MAX, FINITE_MIN, NEG_INF, POS_INF

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)


def patched(arr):
    """The tolist rows (or vector) with the sentinels as their JSON tokens."""
    tok = {POS_INF: "inf", NEG_INF: "-inf"}
    rows = np.asarray(arr).tolist()
    if np.ndim(arr) == 1:
        return [tok.get(v, v) for v in rows]
    return [[tok.get(v, v) for v in row] for row in rows]


def oracle_json(arr):
    return json.dumps(patched(arr))


def oracle_text(arr):
    rows = patched(arr)
    if np.ndim(arr) == 1:
        rows = [rows]
    return "\n".join(" ".join(str(v) for v in row) for row in rows)


def check(arr):
    assert tio.format_array(arr, as_json=True) == oracle_json(arr)
    assert tio.format_array(arr) == oracle_text(arr)


# -- the encoder ----------------------------------------------------------------

EDGES = (NEG_INF, POS_INF, FINITE_MIN, FINITE_MAX, 0, 1, -1)
VALUES = st.one_of(
    st.sampled_from(EDGES),
    st.integers(-3, 3),
    st.integers(-1000, 1000),
    st.integers(NEG_INF, POS_INF),
)


@pytest.mark.parametrize("table_span", (0, tio._TABLE_SPAN))
@PROPERTY
@given(data=st.data())
def test_matrices_match_the_oracle(table_span, data):
    # with table_span 0, a span of at least the entry count takes np.unique
    rows, cols = data.draw(st.integers(1, 7)), data.draw(st.integers(1, 7))
    flat = data.draw(st.lists(VALUES, min_size=rows * cols, max_size=rows * cols))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tio, "_TABLE_SPAN", table_span)
        check(np.array(flat, dtype=np.int32).reshape(rows, cols))


@PROPERTY
@given(values=st.lists(VALUES, min_size=1, max_size=30))
def test_vectors_match_the_oracle(values):
    check(np.array(values, dtype=np.int64))
    check(values)


@PROPERTY
@given(data=st.data())
def test_boolean_and_narrow_spans_match_the_oracle(data):
    rows, cols = data.draw(st.integers(1, 9)), data.draw(st.integers(1, 9))
    lo = data.draw(st.sampled_from([0, FINITE_MIN, FINITE_MAX - 3, -5]))
    entries = st.one_of(st.integers(lo, lo + 3), st.sampled_from([NEG_INF, POS_INF]))
    flat = data.draw(st.lists(entries, min_size=rows * cols, max_size=rows * cols))
    check(np.array(flat, dtype=np.int32).reshape(rows, cols))


@pytest.mark.parametrize(
    "value", [NEG_INF, POS_INF, FINITE_MIN, FINITE_MAX, 0, 1, -1, 123456789]
)
def test_one_by_one(value):
    check(np.array([[value]], dtype=np.int32))
    check(np.array([value], dtype=np.int32))


def test_rectangular_and_single_row_or_column():
    rng = np.random.default_rng(5)
    for shape in ((1, 9), (9, 1), (3, 5), (5, 3)):
        arr = rng.integers(-50, 50, size=shape, dtype=np.int32)
        arr[0, 0], arr[-1, -1] = POS_INF, NEG_INF
        check(arr)


def test_only_sentinels():
    check(np.array([[POS_INF, NEG_INF], [NEG_INF, NEG_INF]], dtype=np.int32))
    check(np.full((2, 3), POS_INF, dtype=np.int32))


def table_kind(arr):
    """The table's length; every entry's token checked against the oracle."""
    codes, table, _ = tio._token_table(np.array(arr, dtype=np.int32), "inf", "-inf")
    assert [table[c] for c in np.ravel(codes)] == [
        str(v) for v in np.ravel(patched(np.ravel(arr)))
    ]
    return len(table)


def test_span_below_the_entry_count_takes_the_value_table(monkeypatch):
    # finite span hi - lo = 3 < 4 entries: a slot for every value from lo
    # to hi, with the two sentinel tokens at the ends
    monkeypatch.setattr(tio, "_TABLE_SPAN", 0)
    assert table_kind([[0, 3], [0, 0]]) == 3 + 3
    assert table_kind([[7, POS_INF], [NEG_INF, 10]]) == 3 + 3
    assert table_kind([[FINITE_MAX, FINITE_MAX - 3], [POS_INF, NEG_INF]]) == 3 + 3
    assert table_kind([[FINITE_MIN, FINITE_MIN + 3], [POS_INF, NEG_INF]]) == 3 + 3


def test_span_at_the_entry_count_takes_the_distinct_values(monkeypatch):
    # hi - lo = 4 = the entry count: the table of the distinct values
    monkeypatch.setattr(tio, "_TABLE_SPAN", 0)
    assert table_kind([[0, 4], [0, 0]]) == 2
    assert table_kind([[7, POS_INF], [NEG_INF, 11]]) == 4
    assert table_kind([[FINITE_MIN, FINITE_MAX], [NEG_INF, 0]]) == 4


def test_spans_below_the_table_span_take_the_value_table():
    # fewer entries than _TABLE_SPAN: the value table covers any span below it
    span = tio._TABLE_SPAN
    assert table_kind([[0, span - 1], [POS_INF, 5]]) == span + 2
    assert table_kind([[0, span], [POS_INF, 5]]) == 4
    assert table_kind([-span, -1, NEG_INF]) == span + 2
    assert table_kind([-span, 0, NEG_INF]) == 3


# -- the one-width layout -----------------------------------------------------------

def layouts(arr):
    """check(arr), and for JSON and text, in that order, whether the
    one-width layout wrote the result."""
    taken = []
    fixed = tio._fixed_width

    def spy(codes, used, tokens, as_json, nested):
        taken.append(as_json)
        return fixed(codes, used, tokens, as_json, nested)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tio, "_fixed_width", spy)
        check(arr)
    return True in taken, False in taken


@pytest.mark.parametrize(
    "arr",
    [
        [0, 1, 1, 0],
        [7],
        [-3, -9, -1],
        [[0]],
        [[1]],
        [[5]],
        [[POS_INF]],
        [[NEG_INF]],
        [[1], [0], [1], [1], [0]],
        [[0, 1, 1, 0, 1]],
        [[1, 0, 0], [0, 1, 0], [1, 1, 1]],
        [[3, 9, 0], [4, 4, 8]],
        [[-1, -2], [-3, -4]],
        [[2147483646, 1000000000], [1234567890, 2147483646]],
        [POS_INF] * 4,
        [[NEG_INF] * 3] * 2,
        [[POS_INF] * 2] * 3,
    ],
)
def test_one_width_arrays_take_the_strided_layout(arr):
    # the table holds the "inf" and "-inf" slots whatever occurs: only the
    # tokens that occur decide the width
    for dtype in (np.int32, np.int64):
        assert layouts(np.array(arr, dtype=dtype)) == (True, True)


@pytest.mark.parametrize(
    "arr, taken",
    [
        ([[1, 10], [100, 5]], (False, False)),
        ([0, -1], (False, False)),
        ([[POS_INF, NEG_INF]], (False, False)),
        ([[POS_INF, 0]], (False, False)),
        # '"inf"' is as wide as 12345 in JSON, 'inf' is not in text
        ([[POS_INF, 12345], [12345, 67890]], (True, False)),
        ([[NEG_INF, -123]], (False, True)),
    ],
)
def test_mixed_widths_take_the_table(arr, taken):
    assert layouts(np.array(arr, dtype=np.int32)) == taken


@PROPERTY
@given(data=st.data())
def test_the_layout_follows_the_widths_of_the_tokens_that_occur(data):
    # values of w digits, all of one sign or of both, and sometimes the
    # sentinels: the one-width layout writes a mode's text iff the tokens
    # of that mode share one width
    width = data.draw(st.integers(1, 10))
    digits = st.integers(10 ** (width - 1) if width > 1 else 0, min(10**width - 1, FINITE_MAX))
    values = data.draw(st.sampled_from([
        digits, digits.map(lambda v: -v), st.one_of(digits, digits.map(lambda v: -v))
    ]))
    if data.draw(st.booleans()):
        values = st.one_of(values, st.sampled_from([POS_INF, NEG_INF]))
    rows, cols = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 8))
    flat = data.draw(st.lists(values, min_size=rows * cols, max_size=rows * cols))
    arr = np.array(flat, dtype=np.int64).reshape(rows, cols)
    if data.draw(st.booleans()):
        arr = arr[0]
    tokens = patched(arr.ravel())
    one_width = (
        len({len(json.dumps(t)) for t in tokens}) == 1,
        len({len(str(t)) for t in tokens}) == 1,
    )
    assert layouts(arr) == one_width


# -- the CLI --------------------------------------------------------------------

MATRIX_COMMANDS = ("closure", "apsp", "reach", "bottleneck")


def library_result(command, paths):
    """The array a command renders, computed by the library, and the
    payload key it is printed under."""
    loaded = [tr.parse_graph(p.read_text()) for p in paths]
    loaded = [(tr.to_dense(a), s) for a, s in loaded]
    (a, s) = loaded[0]
    if command in ("closure", "apsp"):
        return graph.all_pairs_paths(a, s)._arr, "matrix"
    if command == "reach":
        return graph.reachability(a, s)._arr, "matrix"
    if command == "bottleneck":
        if s is not SemiringId.MAXMIN:
            raise ValueError("bottleneck requires a maxmin graph file")
        return graph.bottleneck_paths(a)._arr, "matrix"
    if command == "sssp":
        return np.array(graph.sssp(a, 0, s)), "distances"
    (b, s_b) = loaded[1]
    if s_b is not s:
        raise ValueError("operand semirings differ")
    return dense.matmul(a, b, s)._arr, "matrix"


def cases(fixtures):
    graphs = sorted(fixtures.glob("*.graph"))
    for path in graphs:
        for command in MATRIX_COMMANDS + ("sssp",):
            argv = [command, str(path)] + (["--source", "0"] if command == "sssp" else [])
            yield command, [path], argv
    for a in graphs:
        for b in graphs:
            if "matmul" in a.name + b.name or a == b:
                yield "matmul", [a, b], ["matmul", str(a), str(b)]


def test_cli_prints_what_the_oracle_renders(fixtures, capsys):
    ran = {c: 0 for c in MATRIX_COMMANDS + ("sssp", "matmul")}
    for command, paths, argv in cases(fixtures):
        try:
            arr, key = library_result(command, paths)
        except (ValueError, tr.TropicalError):
            arr = None
        code = run(argv)
        text = capsys.readouterr().out
        code_json = run(argv + ["--json"])
        out = capsys.readouterr().out
        if arr is None:
            assert code != 0 and code_json != 0 and text == out == "", argv
            continue
        ran[command] += 1
        assert code == code_json == 0
        assert text == oracle_text(arr) + "\n", argv
        payload = json.loads(out)
        assert list(payload)[-1] == key
        assert json.dumps(payload[key]) == oracle_json(arr), argv
        # the spliced text is what one json.dumps of the whole payload gives
        assert out == json.dumps(payload) + "\n", argv
    assert all(ran.values()), ran


# -- the render benchmark ----------------------------------------------------------

@pytest.mark.parametrize("kind", ("uniform", "graph"))
@pytest.mark.parametrize("s", (SemiringId.MINPLUS, SemiringId.MAXMIN, SemiringId.BOOLEAN))
def test_bench_render_checksums_the_rendered_text(kind, s):
    from tropical import bench, sparse

    rng = np.random.default_rng(3)
    if kind == "graph":
        a = sparse.to_dense(bench.random_graph(12, s, rng, bench.CLOSURE_DEGREE))
        arr = tr.closure_reference(a, s)._arr
    else:
        arr = bench.random_matrix(12, rng)._arr
    report = bench.run_bench("render", 12, s, reps=2, seed=3, kind=kind)
    assert report.checksum == zlib.crc32(arr.tobytes())
    assert report.output_checksum == zlib.crc32(oracle_json(arr).encode())
    assert len(report.elapsed_us) == 2


def test_bench_render_is_fenced_by_the_closure_guard(capsys):
    code = run(["bench", "--op", "render", "--size", "3000", "--input", "graph"])
    assert code == 2
    assert "refusing render of a 3000x3000 matrix" in capsys.readouterr().err
