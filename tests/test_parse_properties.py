"""Property tests: ``parse_graph`` against the line-by-line parse.

``parse_graph`` splits only the lines up to the header and checks a plain
body as byte arrays; the reference splits the whole text with
``str.splitlines`` and reads every record through ``io._parse_lines``. Both
must give the same CSR and semiring, or the same GraphParseError message
and line number, whatever the line breaks, layout and tokens.

The matrix itself is checked against an independent definition: a grid of
zero(s) into which each record folds with the scalar ``semiring.add``, a
Boolean weight read as ``w != 0``, equals ``to_dense`` of the parse, and the
parse equals ``from_triplets`` of the records.
"""

from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import tropical as tr
from tropical import GraphParseError
from tropical import io as tio, semiring as sr

# every line break of str.splitlines that the tests use, '\n' the most often
BREAKS = ["\n"] * 6 + ["\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028"]
# tokens outside the plain grammar, or too long for the byte-array check
ODD_TOKENS = [
    "+5", "1_000", "\u0663", "-", "--1", "1-2", "inf", "-inf", "-0",
    "000000000001", "100000000000", "0" * 24 + "1", "9" * 25,
    "2147483647", "-2147483648", "2147483648",
]
FILLERS = ["", " ", "\t", "  \t", "# comment", "#0 1 2", " # 1 2 3"]
SEMIRINGS = ["maxplus", "minplus", "maxmin", "minmax", "boolean"]


def outcome(text: str):
    try:
        return tr.parse_graph(text)
    except GraphParseError as exc:
        return "GraphParseError", str(exc), exc.line


def line_by_line(text: str):
    """The reference: the lines of ``str.splitlines``, re-joined on '\\n',
    with every record parsed by ``_parse_lines``."""
    with mock.patch.object(tio, "_plain_records", lambda body, rows, cols: None):
        return outcome("\n".join(text.splitlines()))


def assert_same_parse(text: str):
    assert outcome(text) == line_by_line(text), text


@st.composite
def graph_texts(draw):
    n = draw(st.integers(1, 5))
    plain = draw(st.booleans())  # only '\n', single spaces and valid tokens
    vertex = st.integers(0, n - 1).map(str)
    weight = st.integers(-20, 20).map(str)
    if not plain:
        vertex = st.one_of(vertex, vertex, st.sampled_from(ODD_TOKENS + [str(n)]))
        weight = st.one_of(weight, weight, st.sampled_from(ODD_TOKENS))
    record = st.lists(vertex, min_size=2, max_size=2).flatmap(
        lambda uv: weight.map(lambda w: uv + [w])
    )
    if not plain:
        # now and then a record of two or four fields
        record = st.one_of(record, record, record, st.lists(vertex, min_size=2, max_size=4))
    records = draw(st.lists(record, max_size=8))

    def line(fields):
        if plain:
            return " ".join(fields)
        sep = draw(st.sampled_from([" ", " ", "\t", "  ", " \t"]))
        lead, trail = draw(st.sampled_from(["", "", " ", "\t", "  "])), draw(
            st.sampled_from(["", "", " ", "\t"])
        )
        return lead + sep.join(fields) + trail

    lines = []
    if not plain:
        lines += draw(st.lists(st.sampled_from(FILLERS), max_size=2))
    m = len(records) + (0 if plain else draw(st.sampled_from([0, 0, 0, 1, -1])))
    token = draw(st.sampled_from(SEMIRINGS))
    if draw(st.booleans()):
        header = [str(n), str(m), token]
    else:
        header = [str(n), str(draw(st.integers(1, 5))), str(m), token]
    lines.append(line(header))
    for fields in records:
        if not plain and draw(st.integers(0, 3)) == 0:
            lines.append(draw(st.sampled_from(FILLERS)))
        lines.append(line(fields))
    if not plain:
        lines += draw(st.lists(st.sampled_from(FILLERS), max_size=2))
    breaks = st.just("\n") if plain else st.sampled_from(BREAKS)
    ends = [draw(breaks) for _ in lines]
    if draw(st.integers(0, 3)) == 0:
        ends[-1] = ""  # no final line break
    return "".join(ln + end for ln, end in zip(lines, ends))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(text=graph_texts())
def test_parse_graph_equals_the_line_by_line_parse(text):
    assert_same_parse(text)


CASES = [
    # line endings
    "3 2 minplus\r\n0 1 5\r\n1 2 -3\r\n",
    "3 2 minplus\r0 1 5\r1 2 -3\r",
    "3 2 minplus\r\n0 1 5\r1 2 -3\n",
    "3 2 minplus\n0 1 5\r\r\n1 2 -3",
    "3 2 minplus\x0b0 1 5\n1 2 -3\n",
    "3 2 minplus\n0 1 5\x0c1 2 -3\n",
    "3 2 minplus\n0 1 5\x1c1 2 -3\n",
    "3 2 minplus\n0 1 5\x851 2 -3\n",
    "3 2 minplus\u20280 1 5\u20281 2 -3\u2028",
    "3 2 minplus\n0 1 5\u20281 2 -3\n",
    "3 2 minplus\n0 1\r5\n",
    "3 1 minplus\n0 1\x0b5\n",
    "# c\r3 1 minplus\r\n\r\n0 1 5",
    # layout
    "3 2 maxplus\n\t0\t1\t5\n  1 2 -3\n",
    "3 2 maxplus\n0 1 5\n 1 2 -3\n",
    "3 2 maxplus\n0 1\n 5 1 2 -3\n",
    "3 2 maxplus\n0 1\n 5\n1 2 -3\n",
    "3 2 maxplus\n0 1 5   \n\n   \n1  2 -3\n",
    "\n# first\n  \n3 1 maxplus\n# between\n0 1 5\n# last\n\n",
    "  3 1 maxplus  \n0 1 5",
    "3 0 maxplus",
    "3 0 maxplus\n",
    "3 0 maxplus\n\n  \n",
    "2 3 2 boolean\n0 2 7\n1 0 0\n",
    "",
    "\n\n# only comments\n",
    # tokens
    "3 1 minplus\n0 1 +5\n",
    "3 1 minplus\n0 1 1_000\n",
    "3 1 minplus\n0 \u0661 5\n",
    "3 1 minplus\n0 1 000000000005\n",
    "3 1 minplus\n0 1 100000000000\n",
    "3 1 minplus\n0 1 " + "0" * 24 + "7\n",
    "3 1 minplus\n0 1 " + "9" * 25 + "\n",
    "3 1 minplus\n0 0000000000002 5\n",
    "3 1 minplus\n0 1 -\n",
    "3 1 minplus\n0 1 --1\n",
    "3 1 minplus\n0 1 1-2\n",
    "3 1 minplus\n-0 1 -0\n",
    "3 1 minplus\n0 1 -\n1 2 3\n",
    "3 2 maxmin\n0 1 inf\n1 2 -inf\n",
    "3 1 minplus\n0 1 2147483648\n",
    "3 1 minplus\n0 1 -2147483649\n",
    "3 2 minplus\n0 1 2147483647\n1 2 -2147483648\n",
    "3 1 minplus\n0 3 5\n",
    "3 2 minplus\n0 1 5\n",
    "3 1 minplus\n0 1 5\n1 2 3\n",
    "3 1 minplus\n0 1 5 6\n",
]


@pytest.mark.parametrize("text", CASES)
def test_fixed_cases_equal_the_line_by_line_parse(text):
    assert_same_parse(text)


def test_the_plain_path_takes_the_bodies_it_should():
    # the byte-array check accepts plain bodies whatever their line breaks,
    # and leaves everything else, blank-led lines and wide gaps included,
    # to the line parse
    plain = ["0 1 5\n1 2 -3\n", "0 1 5\r\n1 2 -3", "0 1 5\r1 2 -3\r", "0\t1 5 \n\n1 2 -3\t\n"]
    for body in plain:
        assert tio._plain_records("\n" + body, 3, 3).tolist() == [[0, 1, 5], [1, 2, -3]]
    for body in [
        "0 1 inf\n", "# c\n0 1 5\n", "0 1 5\x0c", "0 1 1_000\n", "0 1 000000000005\n",
        "  0 1 5\n", "0 1 5\n\t1 2 -3\n", "0  1 5\n", "0 1\n 5\n",
    ]:
        assert tio._plain_records("\n" + body, 3, 3) is None


def test_the_header_scan_stops_at_the_header():
    text = "# a\r\n\n\u2028 2 1 minplus \x0b0 1 5\n"
    lineno, fields, body = tio._header(text)
    assert (lineno, fields) == (4, ["2", "1", "minplus"])
    assert body == "\x0b0 1 5\n"
    assert body.splitlines()[1:] == text.splitlines()[lineno:]


# -- the matrix a parse builds, against a scalar fold of its records --------------

@st.composite
def record_files(draw):
    """(text, rows, cols, semiring, records) of a graph file with duplicate
    pairs, inf/-inf, weights equal to zero(s) and, under Boolean, weights
    outside {0, 1}."""
    s = tr.parse_semiring(draw(st.sampled_from(SEMIRINGS)))
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    if s is tr.SemiringId.BOOLEAN:
        weight = st.integers(-3, 3)
    else:
        weight = st.one_of(
            st.integers(-5, 5), st.sampled_from([sr.zero(s), sr.NEG_INF, sr.POS_INF])
        )
    pair = st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1))
    pairs = draw(st.lists(pair, max_size=6))
    # a pair drawn again folds with the first
    pairs += draw(st.lists(st.sampled_from(pairs), max_size=4)) if pairs else []
    records = [(u, v, draw(weight)) for u, v in pairs]
    square = rows == cols and draw(st.booleans())
    shape = f"{rows}" if square else f"{rows} {cols}"
    token = {sr.NEG_INF: "-inf", sr.POS_INF: "inf"}
    lines = [f"{shape} {len(records)} {sr.TOKEN_OF[s]}"]
    lines += [f"{u} {v} {token.get(w, w)}" for u, v, w in records]
    return "\n".join(lines) + "\n", rows, cols, s, records


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=record_files())
def test_parse_graph_equals_a_scalar_fold_of_the_records(case):
    text, rows, cols, s, records = case
    grid = [[sr.zero(s)] * cols for _ in range(rows)]
    for u, v, w in records:
        if s is tr.SemiringId.BOOLEAN:
            w = int(w != 0)
        grid[u][v] = sr.add(grid[u][v], w, s)
    m, got = tr.parse_graph(text)
    assert got is s
    assert tr.to_dense(m).to_rows() == grid
    assert m == tr.from_triplets(rows, cols, records, s)
