import random
import re
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

import tropical as tr
from tropical import NEG_INF, POS_INF, DenseMatrix, GraphParseError, SemiringId
from tropical.cli import run

P, N = POS_INF, NEG_INF


def test_parse_graph_known_file(fixtures):
    m, s = tr.parse_graph((fixtures / "chain3_minplus.graph").read_text())
    assert s is SemiringId.MINPLUS
    assert tr.to_dense(m).to_rows() == [
        [POS_INF, 2, 7],
        [POS_INF, POS_INF, 3],
        [POS_INF, POS_INF, POS_INF],
    ]


def test_parse_graph_sparse_flag(fixtures):
    # CSR is the one result of a parse; the former sparse option is refused
    text = (fixtures / "chain3_minplus.graph").read_text()
    m, s = tr.parse_graph(text)
    assert isinstance(m, tr.CsrMatrix)
    assert m.semiring is SemiringId.MINPLUS
    assert m.nnz == 3
    with pytest.raises(TypeError, match="sparse"):
        tr.parse_graph(text, sparse=True)


def test_parse_graph_builds_no_grid():
    # a header of 5,000 vertices and one edge record: O(n + m) memory, where
    # an n x n grid of int32 would take 95 MiB
    tracemalloc.start()
    try:
        m, s = tr.parse_graph("5000 1 minplus\n0 1 5\n")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert isinstance(m, tr.CsrMatrix)
    assert (m.rows, m.cols, m.nnz, s) == (5000, 5000, 1, SemiringId.MINPLUS)
    assert peak < 1 << 20


def test_parse_empty_edge_list():
    m, s = tr.parse_graph("2 0 maxplus\n")
    assert tr.to_dense(m) == DenseMatrix.filled(2, 2, NEG_INF)


def test_parse_duplicate_edges_combined():
    m, _ = tr.parse_graph("2 2 maxplus\n0 1 4\n0 1 6\n")
    assert tr.to_dense(m).get(0, 1) == 6
    m2, _ = tr.parse_graph("2 2 minplus\n0 1 4\n0 1 6\n")
    assert tr.to_dense(m2).get(0, 1) == 4


def test_parse_inf_tokens():
    m = tr.to_dense(tr.parse_graph("2 2 maxmin\n0 1 inf\n1 0 -inf\n")[0])
    assert m.get(0, 1) == POS_INF
    # -inf equals the max-min zero, so the entry stays absent
    assert m.get(1, 0) == NEG_INF


def test_parse_rectangular_header():
    m, s = tr.parse_graph("2 3 2 maxplus\n0 0 1\n1 2 4\n")
    assert (m.rows, m.cols) == (2, 3)
    assert tr.to_dense(m).get(1, 2) == 4


def test_parse_comments_and_blanks():
    text = "# heading\n\n2 1 minplus\n# edge below\n0 1 5\n\n"
    m, _ = tr.parse_graph(text)
    assert tr.to_dense(m).get(0, 1) == 5


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
def test_malformed_graphs(fixtures, name):
    with pytest.raises(GraphParseError):
        tr.parse_graph((fixtures / name).read_text())


def test_parse_errors_carry_line_numbers():
    with pytest.raises(GraphParseError) as exc:
        tr.parse_graph("2 1 minplus\n0 9 1\n")
    assert exc.value.line == 2
    with pytest.raises(GraphParseError):
        tr.parse_graph("")


def test_round_trip_dense():
    rng = random.Random(0)
    for s in SemiringId:
        z = tr.zero(s)
        rows = [
            [z if rng.random() < 0.4 else (1 if s is SemiringId.BOOLEAN else rng.randint(-9, 9))
             for _ in range(5)]
            for _ in range(5)
        ]
        m = DenseMatrix(rows)
        text = tr.format_graph(m, s)
        m2, s2 = tr.parse_graph(text)
        assert s2 is s and tr.to_dense(m2) == m
        assert tr.format_graph(m2, s2) == text


def test_round_trip_sparse_and_rectangular():
    a = tr.from_triplets(2, 4, [(0, 1, 3), (1, 3, -2)], SemiringId.MAXPLUS)
    text = tr.format_graph(a, SemiringId.MAXPLUS)
    m, s = tr.parse_graph(text)
    assert m == a
    # sentinel weights survive the trip
    b = DenseMatrix([[NEG_INF, POS_INF], [NEG_INF, NEG_INF]])
    text = tr.format_graph(b, SemiringId.MAXPLUS)
    m2, _ = tr.parse_graph(text)
    assert tr.to_dense(m2) == b


def test_format_graph_writes_a_column_index_equal_to_pos_inf_as_a_number():
    # record indices never go through the sentinel token table: a column
    # index can equal POS_INF, which the table would print as inf
    cols = 2**31
    a = tr.from_triplets(1, cols, [(0, POS_INF, 5)], SemiringId.MAXPLUS)
    text = tr.format_graph(a, SemiringId.MAXPLUS)
    assert text == "1 2147483648 1 maxplus\n0 2147483647 5\n"
    m, s = tr.parse_graph(text)
    assert s is SemiringId.MAXPLUS and m == a


def test_format_graph_refuses_a_csr_bound_to_another_semiring():
    a = tr.from_triplets(2, 2, [(0, 1, 3)], SemiringId.MAXPLUS)
    with pytest.raises(ValueError, match="matrix is bound to maxplus but minplus requested"):
        tr.format_graph(a, SemiringId.MINPLUS)


def test_parse_schedule_matches_programmatic(fixtures):
    g = tr.parse_schedule((fixtures / "drone.sched").read_text())
    assert g.n == 12
    assert g.names[3] == "Fusion"
    assert g.durations[2] == 100
    assert not g.cyclic
    r = tr.solve(g)
    assert r.makespan == 570

    p = tr.parse_schedule((fixtures / "production.sched").read_text())
    assert p.cyclic
    assert tr.cycle_time(p) == tr.CycleMean(54, 5)


def test_parse_schedule_ready_and_directives():
    g = tr.parse_schedule("task 0 a 5 3\ntask 1 b 2\ndep 0 1 0\ncyclic\n")
    assert g.ready == [3, 0]
    assert g.cyclic


def test_malformed_schedules(fixtures):
    with pytest.raises(GraphParseError):
        tr.parse_schedule((fixtures / "malformed_task.sched").read_text())
    with pytest.raises(GraphParseError):
        tr.parse_schedule("task 0 a 5\nwat 1 2\n")
    with pytest.raises(GraphParseError):
        tr.parse_schedule("task 0 a -5\n")
    with pytest.raises(GraphParseError):
        tr.parse_schedule("dep 0 1\n")
    with pytest.raises(GraphParseError):
        tr.parse_schedule("task 0 a 5\ntask 0 b 2\n")


@pytest.mark.parametrize("token", ["\u0663", "1_000", "+1"])
def test_integer_grammar_is_ascii_digits(token):
    # int() takes Arabic-Indic digits, underscores and a plus sign; the file
    # grammar is -?[0-9]+ only, and the error names the line
    cases = [
        (f"# header below\n{token} 0 minplus\n", 2),
        (f"2 1 minplus\n0 {token} 5\n", 2),
        (f"2 1 minplus\n0 1 5\n1 0 {token}\n", 3),
        (f"2 2 minplus\n0 1 5\n\n{token} 0 5\n", 4),
    ]
    for text, line in cases:
        with pytest.raises(GraphParseError) as exc:
            tr.parse_graph(text)
        assert exc.value.line == line
    for text, line in [
        (f"task 0 a {token}\n", 1),
        (f"task 0 a 5\ntask {token} b 2\n", 2),
        (f"task 0 a 5\ntask 1 b 2 {token}\n", 2),
        (f"task 0 a 5\ntask 1 b 2\ndep 0 1 {token}\n", 3),
    ]:
        with pytest.raises(GraphParseError) as exc:
            tr.parse_schedule(text)
        assert exc.value.line == line


def test_parse_keeps_the_first_error_in_line_order():
    # a range error on line 2 wins over a bad token and a short record later
    text = "3 3 minplus\n0 7 1\n0 1 x\n0 1\n"
    with pytest.raises(GraphParseError) as exc:
        tr.parse_graph(text)
    assert exc.value.line == 2 and "out of range" in str(exc.value)
    with pytest.raises(GraphParseError) as exc:
        tr.parse_graph("3 2 minplus\n0 1 x\n0 1\n")
    assert exc.value.line == 2 and "'x'" in str(exc.value)


def test_parse_inf_weights_comments_and_crlf():
    text = "# g\r\n3 4 maxplus\r\n0 1 inf\r\n# mid\r\n1 2 -inf\r\n\t2 0 -7 \r\n2 0 3\r\n"
    m, s = tr.parse_graph(text)
    assert tr.to_dense(m).to_rows() == [[N, P, N], [N, N, N], [3, N, N]]
    # tokens longer than 11 characters are valid when their value is in range
    m, _ = tr.parse_graph("2 1 maxplus\n0 00000000001 -000000000007\n")
    assert tr.to_dense(m).to_rows() == [[N, -7], [N, N]]



TWO_TASKS = "task 0 a 1\ntask 1 b 2\n"
TOO_LONG = "9" * 5000  # past int()'s default limit of 4,300 digits
PAST_LIMIT = "characters is past int()'s digit limit"


@pytest.mark.parametrize(
    "command, text, message",
    [
        (
            "schedule",
            "task 0 a\n",
            "line 1: task record must be 'task <id> <name> <duration> [ready]'",
        ),
        ("schedule", "task 0 a 5 -1\n", "line 1: ready time must be non-negative"),
        ("schedule", TWO_TASKS + "dep 0\n", "line 3: dep record must be 'dep <from> <to> [lag]'"),
        (
            "schedule",
            TWO_TASKS + "feedback 1 0\n",
            "line 3: feedback record must be 'feedback <from> <to> <lag>'",
        ),
        ("schedule", TWO_TASKS + "dep 0 7\n", "line 3: task id 7 out of range (have 2 tasks)"),
        ("schedule", TWO_TASKS + "feedback 1 0 -2\n", "line 3: lag must be non-negative"),
        ("closure", "0 0 minplus\n", "line 1: matrix dimensions must be >= 1"),
        ("closure", f"# c\n{TOO_LONG} 1 minplus\n", f"line 2: vertex count of 5000 {PAST_LIMIT}"),
        ("closure", f"2 1 minplus\n0 {TOO_LONG} 5\n", f"line 2: vertex of 5000 {PAST_LIMIT}"),
        ("closure", f"2 1 minplus\n0 1 -{TOO_LONG}\n", f"line 2: weight of 5001 {PAST_LIMIT}"),
        ("schedule", f"task 0 a 1\ntask 1 b {TOO_LONG}\n", f"line 2: duration of 5000 {PAST_LIMIT}"),
        ("schedule", TWO_TASKS + f"dep 0 1 {TOO_LONG}\n", f"line 3: lag of 5000 {PAST_LIMIT}"),
    ],
    ids=["task-arity", "negative-ready", "dep-arity", "feedback-arity", "dep-range",
         "negative-feedback-lag", "empty-header", "long-header-count", "long-vertex",
         "long-weight", "long-duration", "long-lag"],
)
def test_cli_names_the_line_of_a_bad_record(tmp_path, capsys, command, text, message):
    path = tmp_path / "input"
    path.write_text(text)
    assert run([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


# -- the column parse of schedule files against the line loop ----------------

def _reference_int(tok, what, lineno):
    if not re.fullmatch(r"-?[0-9]+", tok):
        raise GraphParseError(f"{what} {tok!r} is not an integer", lineno)
    try:
        return int(tok)
    except ValueError:  # past int()'s digit limit
        raise GraphParseError(
            f"{what} of {len(tok)} characters is past int()'s digit limit", lineno
        ) from None


def reference_parse_schedule(text):
    """The line-by-line schedule parse, record by record and add_* call by
    call, as io.parse_schedule ran before it read columns; plus the rule that
    a cyclic record takes no arguments."""
    tasks, deps, feedbacks = {}, [], []
    cyclic = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        kind = fields[0]
        if kind == "task":
            if len(fields) not in (4, 5):
                raise GraphParseError(
                    "task record must be 'task <id> <name> <duration> [ready]'", lineno
                )
            tid = _reference_int(fields[1], "task id", lineno)
            duration = _reference_int(fields[3], "duration", lineno)
            ready = _reference_int(fields[4], "ready time", lineno) if len(fields) == 5 else 0
            if duration < 0:
                raise GraphParseError("duration must be non-negative", lineno)
            if ready < 0:
                raise GraphParseError("ready time must be non-negative", lineno)
            if tid in tasks:
                raise GraphParseError(f"duplicate task id {tid}", lineno)
            tasks[tid] = (fields[2], duration, ready)
        elif kind == "dep":
            if len(fields) not in (3, 4):
                raise GraphParseError("dep record must be 'dep <from> <to> [lag]'", lineno)
            lag = _reference_int(fields[3], "lag", lineno) if len(fields) == 4 else None
            deps.append(
                (_reference_int(fields[1], "task id", lineno),
                 _reference_int(fields[2], "task id", lineno),
                 lag,
                 lineno)
            )
        elif kind == "feedback":
            if len(fields) != 4:
                raise GraphParseError(
                    "feedback record must be 'feedback <from> <to> <lag>'", lineno
                )
            feedbacks.append(
                (_reference_int(fields[1], "task id", lineno),
                 _reference_int(fields[2], "task id", lineno),
                 _reference_int(fields[3], "lag", lineno),
                 lineno)
            )
        elif kind == "cyclic":
            if len(fields) != 1:
                raise GraphParseError("cyclic record takes no arguments", lineno)
            cyclic = True
        else:
            raise GraphParseError(f"unknown record type {kind!r}", lineno)
    if not tasks:
        raise GraphParseError("schedule file declares no tasks")
    n = len(tasks)
    if sorted(tasks) != list(range(n)):
        raise GraphParseError(f"task ids must be dense 0..{n - 1}")
    g = tr.TaskGraph(cyclic=cyclic)
    for tid in range(n):
        name, duration, ready = tasks[tid]
        g.add_task(name, duration, ready)
    for src, dst, lag, lineno in deps:
        try:
            g.add_constraint(src, dst, lag)
        except ValueError as exc:
            raise GraphParseError(str(exc), lineno) from None
    for src, dst, lag, lineno in feedbacks:
        try:
            g.add_feedback(src, dst, lag)
        except ValueError as exc:
            raise GraphParseError(str(exc), lineno) from None
    return g


# one bad record of each kind, as the fields of its line; n is the task count
BAD_RECORDS = {
    "task-arity": lambda n, rng: ["task", str(n), "x"],
    "task-wide": lambda n, rng: ["task", str(n), "x", "1", "0", "7"],
    "task-id": lambda n, rng: ["task", rng.choice(["+1", "1_0", "٣", "x", "-"]), "x", "1"],
    "duration-token": lambda n, rng: ["task", str(n), "x", rng.choice(["1.5", "+3", "inf"])],
    "negative-duration": lambda n, rng: ["task", str(n), "x", "-4"],
    "negative-ready": lambda n, rng: ["task", str(n), "x", "4", "-1"],
    "ready-token": lambda n, rng: ["task", str(n), "x", "4", "0x1"],
    "duplicate-id": lambda n, rng: ["task", str(rng.randrange(n)), "x", "4"],
    "sparse-id": lambda n, rng: ["task", str(n + 1), "x", "4"],
    "negative-id": lambda n, rng: ["task", "-1", "x", "4"],
    "dep-arity": lambda n, rng: ["dep", "0"],
    "dep-wide": lambda n, rng: ["dep", "0", "1", "2", "3"],
    "dep-token": lambda n, rng: ["dep", "0", rng.choice(["one", "+1", "٣"])],
    "dep-lag-token": lambda n, rng: ["dep", "0", "0", rng.choice(["x", "1e3"])],
    "dep-range": lambda n, rng: ["dep", str(rng.randrange(n)), str(n + rng.randrange(3))],
    "dep-negative-id": lambda n, rng: ["dep", "-1", "0"],
    "dep-negative-lag": lambda n, rng: ["dep", "0", str(rng.randrange(n)), "-2"],
    "feedback-arity": lambda n, rng: ["feedback", "0", "1"],
    "feedback-token": lambda n, rng: ["feedback", "0", "0", "z"],
    "feedback-range": lambda n, rng: ["feedback", str(n), "0", "1"],
    "feedback-negative-lag": lambda n, rng: ["feedback", "0", "0", "-3"],
    "unknown-kind": lambda n, rng: [rng.choice(["wat", "Task", "deps", "-"]), "1"],
    "cyclic-arguments": lambda n, rng: ["cyclic", rng.choice(["junk", "1", "#"])],
    "too-many-digits": lambda n, rng: ["task", str(n), "x", "9" * 5000],
}


def schedule_text(rng, bad=()):
    """A schedule file of 1-8 tasks declared in a random order, with optional
    ready times and lags, feedback and cyclic records, comments and blank
    lines, tabs and wide gaps, and '\\n' or '\\r\\n' breaks; ``bad`` names
    records of BAD_RECORDS, each put at a random line."""
    n = rng.randint(1, 8)
    records = []
    for t in rng.sample(range(n), n):
        fields = ["task", str(t), rng.choice(["a", "#x", "task", "dep", f"t{t}", "é"]),
                  str(rng.choice([0, 1, 5, 99, 2**40]))]
        if rng.random() < 0.3:
            fields.append(str(rng.choice([0, 3, 7])))
        records.append(fields)
    for _ in range(rng.randint(0, 2 * n)):
        u, v = sorted(rng.sample(range(n), 2)) if n > 1 else (0, 0)
        fields = ["dep", str(u), str(v)]
        if rng.random() < 0.4:
            fields.append(str(rng.choice([0, 2, 10, 2**33])))
        records.insert(rng.randint(0, len(records)), fields)
    for _ in range(rng.choice([0, 0, 1, 2])):
        records.insert(rng.randint(0, len(records)), [
            "feedback", str(rng.randrange(n)), str(rng.randrange(n)), str(rng.randrange(9))
        ])
    if rng.random() < 0.3:
        records.insert(rng.randint(0, len(records)), ["cyclic"])
    for kind in bad:
        records.insert(rng.randint(0, len(records)), BAD_RECORDS[kind](n, rng))
    lines = []
    for fields in records:
        while rng.random() < 0.2:
            lines.append(rng.choice(["", "  ", "# note", "\t# task 0 a 1", "#", "#dep 0 9"]))
        gap = rng.choice([" ", " ", "\t", "   ", " \t "])
        lines.append(rng.choice(["", " ", "\t"]) + gap.join(fields) + rng.choice(["", " ", "\t"]))
    return rng.choice(["\n", "\r\n"]).join(lines) + rng.choice(["", "\n", "\r\n"])


def outcome(parse, text):
    try:
        g = parse(text)
    except (GraphParseError, ValueError) as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    return g.names, g.durations, g.ready, g.edges, g.cyclic


def test_schedule_columns_match_the_line_loop(monkeypatch):
    from tropical import io as tio

    loop = tio._schedule_lines
    calls = []
    monkeypatch.setattr(tio, "_schedule_lines", lambda text: calls.append(text) or loop(text))
    rng = random.Random(24)
    # a third of the files hold no bad record, the others one of each kind
    # in turn, and some of them a second one of any kind
    kinds = [None] * (len(BAD_RECORDS) // 2) + sorted(BAD_RECORDS)
    refused = 0
    for case in range(1500):
        bad = [] if kinds[case % len(kinds)] is None else [kinds[case % len(kinds)]]
        if bad and rng.random() < 0.3:
            bad.append(rng.choice(sorted(BAD_RECORDS)))
        text = schedule_text(rng, bad)
        expected = outcome(reference_parse_schedule, text)
        assert outcome(tr.parse_schedule, text) == expected, text
        if isinstance(expected[0], type):
            refused += 1
        # only a file the loop refuses takes the loop
        assert calls == ([text] if isinstance(expected[0], type) else []), text
        calls.clear()
    assert 900 < refused < 1100


def test_a_cyclic_record_with_arguments_is_refused(tmp_path, capsys):
    text = "task 0 a 1\n# the next line was read as cyclic\ncyclic junk 7\n"
    with pytest.raises(GraphParseError) as exc:
        tr.parse_schedule(text)
    assert (str(exc.value), exc.value.line) == (
        "line 3: cyclic record takes no arguments", 3
    )
    path = tmp_path / "cyclic.sched"
    path.write_text(text)
    assert run(["schedule", str(path)]) == 2
    assert capsys.readouterr() == ("", "error: line 3: cyclic record takes no arguments\n")
    assert tr.parse_schedule("task 0 a 1\n  cyclic \n").cyclic


@st.composite
def valid_schedules(draw):
    """A valid schedule file: task records with ids in a shuffled order, some
    with a ready time; dep records, some with a lag; feedback records, now
    and then a cyclic record, all in a shuffled order; comment and blank
    lines, blanks of several widths and '\\n' or '\\r\\n' breaks."""
    n = draw(st.integers(1, 8))
    task = st.integers(0, n - 1).map(str)
    number = st.sampled_from(["0", "1", "5", "99", "007", str(2**40)])
    records = []
    for t in draw(st.permutations(range(n))):
        name = draw(st.sampled_from(["a", "#x", "task", "dep", f"t{t}", "é"]))
        ready = draw(st.lists(number, max_size=1))
        records.append(["task", str(t), name, draw(number)] + ready)
    for _ in range(draw(st.integers(0, 2 * n))):
        records.append(["dep", draw(task), draw(task)] + draw(st.lists(number, max_size=1)))
    for _ in range(draw(st.integers(0, 2))):
        records.append(["feedback", draw(task), draw(task), draw(number)])
    if draw(st.booleans()):
        records.append(["cyclic"])
    lines = []
    for fields in draw(st.permutations(records)):
        lines += draw(st.lists(st.sampled_from(["", "  ", "# note", "\t# task 0 a 1"]), max_size=1))
        gap = draw(st.sampled_from([" ", "\t", "   "]))
        lines.append(draw(st.sampled_from(["", " ", "\t"])) + gap.join(fields))
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines) + "\n"


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(text=valid_schedules())
def test_the_column_and_line_parses_build_the_same_graph(text):
    # parse_schedule sends every valid file to the column parse, so the line
    # loop's own graph is checked here, on the same valid files
    from tropical import io as tio

    columns, lines = tio._schedule_columns(text), tio._schedule_lines(text)
    assert columns is not None, text
    for attr in ("names", "durations", "ready", "src", "dst", "lag", "feedback", "cyclic"):
        assert getattr(columns, attr) == getattr(lines, attr), (attr, text)
