import random

import pytest

import tropical as tr
from tropical import NEG_INF, POS_INF, DenseMatrix, GraphParseError, SemiringId
from tropical.cli import run

P, N = POS_INF, NEG_INF


def test_parse_graph_known_file(fixtures):
    m, s = tr.parse_graph((fixtures / "chain3_minplus.graph").read_text())
    assert s is SemiringId.MINPLUS
    assert m.to_rows() == [
        [POS_INF, 2, 7],
        [POS_INF, POS_INF, 3],
        [POS_INF, POS_INF, POS_INF],
    ]


def test_parse_graph_sparse_flag(fixtures):
    m, s = tr.parse_graph((fixtures / "chain3_minplus.graph").read_text(), sparse=True)
    assert isinstance(m, tr.CsrMatrix)
    assert m.semiring is SemiringId.MINPLUS
    assert m.nnz == 3


def test_parse_empty_edge_list():
    m, s = tr.parse_graph("2 0 maxplus\n")
    assert m == DenseMatrix.filled(2, 2, NEG_INF)


def test_parse_duplicate_edges_combined():
    m, _ = tr.parse_graph("2 2 maxplus\n0 1 4\n0 1 6\n")
    assert m.get(0, 1) == 6
    m2, _ = tr.parse_graph("2 2 minplus\n0 1 4\n0 1 6\n")
    assert m2.get(0, 1) == 4


def test_parse_inf_tokens():
    m, _ = tr.parse_graph("2 2 maxmin\n0 1 inf\n1 0 -inf\n")
    assert m.get(0, 1) == POS_INF
    # -inf equals the max-min zero, so the entry stays absent
    assert m.get(1, 0) == NEG_INF


def test_parse_rectangular_header():
    m, s = tr.parse_graph("2 3 2 maxplus\n0 0 1\n1 2 4\n")
    assert (m.rows, m.cols) == (2, 3)
    assert m.get(1, 2) == 4


def test_parse_comments_and_blanks():
    text = "# heading\n\n2 1 minplus\n# edge below\n0 1 5\n\n"
    m, _ = tr.parse_graph(text)
    assert m.get(0, 1) == 5


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
        assert s2 is s and m2 == m
        assert tr.format_graph(m2, s2) == text


def test_round_trip_sparse_and_rectangular():
    a = tr.from_triplets(2, 4, [(0, 1, 3), (1, 3, -2)], SemiringId.MAXPLUS)
    text = tr.format_graph(a, SemiringId.MAXPLUS)
    m, s = tr.parse_graph(text, sparse=True)
    assert m == a
    # sentinel weights survive the trip
    b = DenseMatrix([[NEG_INF, POS_INF], [NEG_INF, NEG_INF]])
    text = tr.format_graph(b, SemiringId.MAXPLUS)
    m2, _ = tr.parse_graph(text)
    assert m2 == b


def test_format_graph_writes_a_column_index_equal_to_pos_inf_as_a_number():
    # record indices never go through the sentinel token table: a column
    # index can equal POS_INF, which the table would print as inf
    cols = 2**31
    a = tr.from_triplets(1, cols, [(0, POS_INF, 5)], SemiringId.MAXPLUS)
    text = tr.format_graph(a, SemiringId.MAXPLUS)
    assert text == "1 2147483648 1 maxplus\n0 2147483647 5\n"
    m, s = tr.parse_graph(text, sparse=True)
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
        for sparse in (False, True):
            with pytest.raises(GraphParseError) as exc:
                tr.parse_graph(text, sparse=sparse)
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
    for sparse in (False, True):
        m, s = tr.parse_graph(text, sparse=sparse)
        rows = (tr.to_dense(m) if sparse else m).to_rows()
        assert rows == [[N, P, N], [N, N, N], [3, N, N]]
    # tokens longer than 11 characters are valid when their value is in range
    m, _ = tr.parse_graph("2 1 maxplus\n0 00000000001 -000000000007\n")
    assert m.to_rows() == [[N, -7], [N, N]]



TWO_TASKS = "task 0 a 1\ntask 1 b 2\n"


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
    ],
    ids=["task-arity", "negative-ready", "dep-arity", "feedback-arity", "dep-range",
         "negative-feedback-lag", "empty-header"],
)
def test_cli_names_the_line_of_a_bad_record(tmp_path, capsys, command, text, message):
    path = tmp_path / "input"
    path.write_text(text)
    assert run([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")
