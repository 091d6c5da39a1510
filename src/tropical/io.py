"""Line-oriented graph and schedule file formats.

Graph files::

    # comment lines start with '#', blank lines are ignored
    <n> <m> <semiring>              square n x n matrix, m edge records
    <rows> <cols> <m> <semiring>    rectangular variant
    <u> <v> <w>                     m records; 0-based ids; w is a decimal
                                    integer or the token inf / -inf

Duplicate edges are combined with the semiring addition; absent entries hold
the semiring zero. Schedule files::

    task <id> <name> <duration> [ready]
    dep <from> <to> [lag]           lag defaults to duration(from)
    feedback <from> <to> <lag>      cyclic systems only
    cyclic                          marks the graph cyclic explicitly;
                                    takes no arguments

Task ids must be dense 0..n-1. Every integer field is ASCII ``-?[0-9]+``,
no longer than ``int()`` converts (4,300 digits by default).

Lines end where ``str.splitlines`` ends them. The header is the first line
that is neither blank nor a comment; only the lines up to it are split, and
the rest of the text, from the header's line break on, is the body. Edge
records are read into an (m, 3) int64 array, which ``from_triplets``, the
one COO assembly, turns into the CSR that ``parse_graph`` returns; a caller
that needs the grid lays it out with ``sparse.to_dense``. A plain
body (ASCII digits, '-', spaces, tabs and '\n', '\r\n' or '\r' line breaks,
each record starting its line and its fields one blank apart) is checked
and converted as byte arrays; any other body, and every error, goes through
a line-by-line parse that names the first bad line.

A schedule file is read in one pass into columns: each content line is
split once and its fields go to the columns of its record kind. Each
integer column is checked with one regex over its fields joined by blanks
and converted with one ``map(int, ...)``, the other checks run on whole
columns, and the TaskGraph's columns are built directly, deps in file order
and then feedback edges. A file that fails any check is parsed again line
by line, which raises at the first bad line.
"""

from __future__ import annotations

import re

import numpy as np

from . import semiring as sr
from .errors import GraphParseError
from .scheduler import TaskGraph
from .semiring import NEG_INF, POS_INF, SemiringId
from .sparse import edges, from_triplets

# the integer grammar of every numeric field: ASCII digits with an optional
# minus sign (int() alone also takes '+5', '1_000' and non-ASCII digits)
_INT = re.compile(r"-?[0-9]+")


def _tokens(lines: list[str], first: int = 1):
    """Yield (line_number, fields) for the content lines; lines[0] is line ``first``."""
    for lineno, raw in enumerate(lines, start=first):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield lineno, line.split()


def _parse_weight(tok: str, lineno: int) -> int:
    if tok == "inf":
        return POS_INF
    if tok == "-inf":
        return NEG_INF
    w = _parse_int(tok, "weight", lineno, "an integer or inf/-inf")
    if not NEG_INF <= w <= POS_INF:
        raise GraphParseError(f"weight {w} outside the 32-bit range", lineno)
    return w


def _parse_int(tok: str, what: str, lineno: int, grammar: str = "an integer") -> int:
    if not _INT.fullmatch(tok):
        raise GraphParseError(f"{what} {tok!r} is not {grammar}", lineno)
    try:
        return int(tok)
    except ValueError:  # past int()'s digit limit, 4,300 digits by default
        raise GraphParseError(
            f"{what} of {len(tok)} characters is past int()'s digit limit", lineno
        ) from None


def parse_graph(text: str, check_shape=None):
    """Parse a graph file into (CsrMatrix, SemiringId).

    The records assemble into CSR through ``from_triplets``, in O(n + m)
    memory; ``sparse.to_dense`` of the result is the grid.

    ``check_shape(rows, cols)``, when given, runs once the header is read and
    before any edge is parsed or any matrix storage is built; it refuses a
    shape by raising.
    """
    lineno, header, body = _header(text)
    if len(header) == 3:
        rows = cols = _parse_int(header[0], "vertex count", lineno)
        m = _parse_int(header[1], "edge count", lineno)
        token = header[2]
    elif len(header) == 4:
        rows = _parse_int(header[0], "row count", lineno)
        cols = _parse_int(header[1], "column count", lineno)
        m = _parse_int(header[2], "edge count", lineno)
        token = header[3]
    else:
        raise GraphParseError(
            "header must be '<n> <m> <semiring>' or '<rows> <cols> <m> <semiring>'",
            lineno,
        )
    if rows < 1 or cols < 1:
        raise GraphParseError("matrix dimensions must be >= 1", lineno)
    if m < 0:
        raise GraphParseError("edge count must be >= 0", lineno)
    try:
        s = sr.parse_semiring(token)
    except ValueError as exc:
        raise GraphParseError(str(exc), lineno) from None
    if check_shape is not None:
        check_shape(rows, cols)

    edges = _plain_records(body, rows, cols)
    if edges is None:
        # the body's first line is the empty rest of the header line
        edges = _parse_lines(body.splitlines(), lineno, rows, cols)
    if len(edges) != m:
        raise GraphParseError(f"header declares {m} edges but file has {len(edges)}")
    return from_triplets(rows, cols, edges, s), s


# the line breaks of str.splitlines
_BREAK = re.compile(r"\r\n|[\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]")


def _header(text: str) -> tuple[int, list[str], str]:
    """(line number, fields, body) of the first content line of a graph
    file; the body is the text from that line's break on. Only the lines up
    to the header are split."""
    pos = 0
    lineno = 0
    while pos < len(text):
        lineno += 1
        brk = _BREAK.search(text, pos)
        end = brk.start() if brk else len(text)
        line = text[pos:end].strip()
        if line and not line.startswith("#"):
            return lineno, line.split(), text[end:]
        pos = brk.end() if brk else end
    raise GraphParseError("empty graph file")


def _plain_records(body: str, rows: int, cols: int) -> np.ndarray | None:
    """The records of a plain body, checked and converted as byte arrays.

    ``body`` is the text from the header's line break on. It is plain when
    it holds only ASCII digits, '-', spaces, tabs and '\n' or '\r' breaks,
    each token is -?[0-9]+ of at most 11 characters, each line is blank or
    holds three tokens, the first at the line's start and the others one
    blank after the token before, and each value is in range. For any other
    body (comments, inf weights, other or wider whitespace, any error) this
    returns None, and _parse_lines parses the records line by line.
    """
    if not body.isascii():
        return None
    raw = body.encode("ascii")
    if b"\r" in raw:
        # '\r' breaks a line as '\n' does; '\r\n' becomes a break and a blank line
        raw = raw.replace(b"\r", b"\n")
    if raw.translate(None, b"0123456789- \t\n"):
        return None
    if raw and raw[-1] >= ord("-"):
        raw += b"\n"
    b = np.frombuffer(raw, dtype=np.uint8)
    # Tab, '\n' and space sort below '-' and the digits. The body starts
    # with the header's line break and ends in a gap, so a token starts just
    # after each t[0::2] and ends at each t[1::2].
    gap = b < ord("-")
    t = np.flatnonzero(gap[:-1] != gap[1:])
    if not t.size:
        return np.empty((0, 3), dtype=np.int64)
    if (t[1::2] - t[0::2]).max() > 11:
        return None
    if b"-" in raw:
        minus = np.flatnonzero(b == ord("-"))
        # a '-' opens its token and a digit follows it
        if (b[minus - 1] >= ord("-")).any() or (b[minus + 1] < ord("0")).any():
            return None
    # A token opens its line iff the byte before it is '\n', unless its line
    # starts with blanks. The gap before such a token ends in a blank and is
    # longer than one byte, so a body where the first token or a token after
    # a gap like that follows no '\n' goes to the line parse.
    opens = b[t[0::2]] == ord("\n")
    longer = t[2::2] - t[1:-1:2] > 1
    if not opens[0] or (longer & ~opens[1:]).any():
        return None
    if opens.size % 3 or not opens[0::3].all() or np.count_nonzero(opens) * 3 != opens.size:
        return None
    edges = np.fromstring(raw, dtype=np.int64, sep=" ").reshape(-1, 3)
    u, v, w = edges.T
    # unsigned views: a negative index wraps past every bound
    if (
        (u.view(np.uint64) >= rows).any()
        or (v.view(np.uint64) >= cols).any()
        or ((w - NEG_INF).view(np.uint64) > POS_INF - NEG_INF).any()
    ):
        return None
    return edges


def _parse_lines(lines: list[str], first: int, rows: int, cols: int) -> np.ndarray:
    """Parse the records one line at a time; raises at the first bad line."""
    edges = []
    for lineno, fields in _tokens(lines, first):
        if len(fields) != 3:
            raise GraphParseError("edge record must be '<u> <v> <w>'", lineno)
        u = _parse_int(fields[0], "vertex", lineno)
        v = _parse_int(fields[1], "vertex", lineno)
        if not (0 <= u < rows and 0 <= v < cols):
            raise GraphParseError(f"vertex pair ({u}, {v}) out of range", lineno)
        edges.append((u, v, _parse_weight(fields[2], lineno)))
    return np.array(edges, dtype=np.int64).reshape(-1, 3)


def format_graph(matrix, s: SemiringId) -> str:
    """Serialize a matrix back into the graph file format (round-trippable).
    A CSR matrix must be bound to s."""
    u, v, w = edges(matrix, s)
    rows, cols = matrix.rows, matrix.cols
    if rows == cols:
        header = f"{rows} {len(w)} {sr.TOKEN_OF[s]}"
    else:
        header = f"{rows} {cols} {len(w)} {sr.TOKEN_OF[s]}"
    codes, table, _ = _token_table(w, "inf", "-inf")
    weights = table[codes].tolist()
    lines = [header]
    lines += [f"{a} {b} {c}" for a, b, c in zip(u.tolist(), v.tolist(), weights)]
    return "\n".join(lines) + "\n"


def format_array(arr, as_json: bool = False) -> str:
    """Decimal text of a 1-D or 2-D integer array.

    Text form: one line per row, values separated by single spaces,
    sentinels as inf / -inf. JSON form: the text ``json.dumps`` gives for
    the nested lists, with sentinels as the strings "inf" / "-inf" (JSON has
    no infinities). Each distinct value is formatted once, in a token table.
    When every token that occurs has one width, as in a 0/1 result, the
    text is laid out in one uint8 buffer (``_fixed_width``); otherwise one
    object-array take gathers the tokens of every entry, and each row is
    one join.
    """
    arr = np.asarray(arr)
    if as_json:
        codes, table, used = _token_table(arr, '"inf"', '"-inf"')
    else:
        codes, table, used = _token_table(arr, "inf", "-inf")
    codes = codes.reshape(-1, arr.shape[-1])
    tokens = table[used].tolist()
    if len(set(map(len, tokens))) == 1:
        return _fixed_width(codes, used, tokens, as_json, arr.ndim == 2)
    sep = ", " if as_json else " "
    lines = [sep.join(row) for row in table[codes].tolist()]
    if not as_json:
        return "\n".join(lines)
    if arr.ndim == 1:
        return "[" + lines[0] + "]"
    return "[[" + "], [".join(lines) + "]]"


def _fixed_width(
    codes: np.ndarray, used: np.ndarray, tokens: list, as_json: bool, nested: bool
) -> str:
    """The text of format_array for a rows x cols array of token codes,
    where ``tokens``, those of the codes in ``used``, share one width.

    Every row then has one length, so the text is one uint8 buffer: each
    row is a copy of one template line, and the tokens are written into its
    cells through a strided view. A text line is the tokens, a blank
    between two, and '\n'; the final '\n' is cut. A JSON line is '[', the
    tokens, ', ' between two, and '], '; a nested array adds an outer '[',
    and its last line ends in ']]'. Each cell is a token and the separator
    after it, so the cells have one stride.
    """
    rows, cols = codes.shape
    width = len(tokens[0])
    glyphs = np.zeros((int(used[-1]) + 1, width), dtype=np.uint8)
    glyphs[used] = np.frombuffer("".join(tokens).encode(), np.uint8).reshape(-1, width)
    cell = b"0" * width + (b", " if as_json else b" ")
    if as_json:
        line = b"[" + (cell * cols)[:-2] + b"], "
    else:
        line = (cell * cols)[:-1] + b"\n"
    head = int(as_json)
    out = np.empty(head * nested + rows * len(line), dtype=np.uint8)
    body = out[head * nested :].reshape(rows, len(line))
    body[:] = np.frombuffer(line, np.uint8)
    cells = body[:, head : head + cols * len(cell)].reshape(rows, cols, len(cell))
    # each token as one width-byte item, so one take writes it
    item = np.dtype((np.void, width))
    cells[..., :width].view(item)[..., 0] = glyphs.view(item)[:, 0][codes]
    if not as_json:
        return str(out[:-1].data, "ascii")
    if not nested:
        return str(out[:-2].data, "ascii")
    out[0], out[-2] = ord("["), ord("]")
    return str(out[:-1].data, "ascii")


# Widest span of finite values that the value table covers even when the
# array has fewer entries: the table's object array takes 8 bytes a value.
_TABLE_SPAN = 1 << 16


def _token_table(
    arr: np.ndarray, inf: str, neg_inf: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(codes, table, used): table, an object array, holds at table[codes]
    the token of every entry, and used lists the codes that occur, sorted.

    When the finite values span fewer values than max(arr.size, _TABLE_SPAN),
    the table has a slot for every value from their min lo to their max hi,
    between the tokens of NEG_INF and POS_INF; a clip to [lo - 1, hi + 1]
    (neither of them a value of arr) yields the codes, and only the values
    that occur are formatted. Wider spans take the table of the distinct
    values from ``np.unique``, whose sort is the costlier path. The two
    sentinel slots hold their tokens whether or not they occur.
    """
    finite = (arr != NEG_INF) & (arr != POS_INF)
    lo = int(arr.min(where=finite, initial=sr.FINITE_MAX))
    hi = int(arr.max(where=finite, initial=sr.FINITE_MIN))
    if hi < lo:  # no finite value
        lo, hi = 0, -1
    if hi - lo < max(arr.size, _TABLE_SPAN):
        codes = np.subtract(np.clip(arr, lo - 1, hi + 1), lo - 1, dtype=np.intp)
        seen = np.zeros(hi - lo + 3, dtype=bool)
        seen[codes] = True
        used = np.flatnonzero(seen)
        table = np.empty(seen.size, dtype=object)
        table[used] = list(map(str, (used + (lo - 1)).tolist()))
        table[0], table[-1] = neg_inf, inf
        return codes, table, used
    values, codes = np.unique(arr, return_inverse=True)
    table = np.array(list(map(str, values.tolist())), dtype=object)
    if values[0] == NEG_INF:
        table[0] = neg_inf
    if values[-1] == POS_INF:
        table[-1] = inf
    return codes, table, np.arange(table.size)


def parse_schedule(text: str) -> TaskGraph:
    """Parse a schedule file into a TaskGraph.

    The records are read in one pass into columns and checked column by
    column (``_schedule_columns``); a file that fails any check is parsed
    again line by line (``_schedule_lines``), which names the first bad
    line.
    """
    g = _schedule_columns(text)
    return _schedule_lines(text) if g is None else g


# one or more -?[0-9]+ fields, one blank apart: a column joined by blanks
_INT_COLUMN = re.compile(r"-?[0-9]+(?: -?[0-9]+)*")


def _int_column(fields: list[str]) -> list[int] | None:
    """The integers of a column of fields, or None unless each is -?[0-9]+
    (and within int()'s digit limit)."""
    if fields and not _INT_COLUMN.fullmatch(" ".join(fields)):
        return None
    try:
        return list(map(int, fields))
    except ValueError:
        return None


def _schedule_columns(text: str) -> TaskGraph | None:
    """The TaskGraph of a schedule file, read as columns: each content line
    is split once and its fields go to the columns of its record kind, and
    every check runs on a whole column. None when any check fails, so that
    _schedule_lines names the first bad line; the graph is otherwise the one
    it builds."""
    tasks, deps, feedbacks = [], [], []
    by_kind = {"task": tasks.append, "dep": deps.append, "feedback": feedbacks.append}
    cyclic = False
    for fields in map(str.split, text.splitlines()):
        if not fields:
            continue
        add = by_kind.get(fields[0])
        if add is not None:
            add(fields)
        elif fields == ["cyclic"]:
            cyclic = True
        elif fields[0][0] != "#":
            return None
    n = len(tasks)
    shapes = set(map(len, tasks))
    if not n or not shapes <= {4, 5}:
        return None
    ids = _int_column([f[1] for f in tasks])
    durations = _int_column([f[3] for f in tasks])
    if 5 in shapes:
        ready = _int_column([f[4] if len(f) == 5 else "0" for f in tasks])
    else:
        ready = [0] * n
    if ids is None or durations is None or ready is None:
        return None
    if min(durations) < 0 or min(ready) < 0 or sorted(ids) != list(range(n)):
        return None
    names = [f[2] for f in tasks]
    if ids != list(range(n)):
        at = sorted(range(n), key=ids.__getitem__)  # the file index of each id
        names, durations, ready = ([col[i] for i in at] for col in (names, durations, ready))
    edges = _edge_columns(deps, {3, 4}, durations), _edge_columns(feedbacks, {4}, durations)
    if None in edges:
        return None
    (src, dst, lag), (fb_src, fb_dst, fb_lag) = edges
    g = TaskGraph(cyclic=cyclic or bool(feedbacks))
    g.names, g.durations, g.ready = names, durations, ready
    g.src, g.dst, g.lag = src + fb_src, dst + fb_dst, lag + fb_lag
    g.feedback = [False] * len(deps) + [True] * len(feedbacks)
    return g


def _edge_columns(records: list[list[str]], shapes: set[int], durations: list[int]):
    """(src, dst, lag) columns of the dep or feedback records, each of one of
    the field counts in ``shapes``, or None when a check fails. An id must
    name a task and a lag be non-negative; a record of 3 fields takes its
    source's duration as lag."""
    seen = set(map(len, records))
    if not seen <= shapes:
        return None
    src = _int_column([f[1] for f in records])
    dst = _int_column([f[2] for f in records])
    if src is None or dst is None:
        return None
    n = len(durations)
    if records and not (min(src) >= 0 and min(dst) >= 0 and max(src) < n and max(dst) < n):
        return None
    lag = [durations[u] for u in src]
    if 4 in seen:
        given = _int_column([f[3] for f in records if len(f) == 4])
        if given is None or min(given) < 0:
            return None
        given = iter(given)
        lag = [next(given) if len(f) == 4 else t for f, t in zip(records, lag)]
    return src, dst, lag


def _schedule_lines(text: str) -> TaskGraph:
    """Parse a schedule file one line at a time; raises at the first bad line."""
    tasks: dict[int, tuple[str, int, int]] = {}
    deps: list[tuple[int, int, int | None, int]] = []
    feedbacks: list[tuple[int, int, int, int]] = []
    cyclic = False
    for lineno, fields in _tokens(text.splitlines()):
        kind = fields[0]
        if kind == "task":
            if len(fields) not in (4, 5):
                raise GraphParseError(
                    "task record must be 'task <id> <name> <duration> [ready]'", lineno
                )
            tid = _parse_int(fields[1], "task id", lineno)
            duration = _parse_int(fields[3], "duration", lineno)
            ready = _parse_int(fields[4], "ready time", lineno) if len(fields) == 5 else 0
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
            lag = _parse_int(fields[3], "lag", lineno) if len(fields) == 4 else None
            deps.append(
                (_parse_int(fields[1], "task id", lineno),
                 _parse_int(fields[2], "task id", lineno),
                 lag,
                 lineno)
            )
        elif kind == "feedback":
            if len(fields) != 4:
                raise GraphParseError(
                    "feedback record must be 'feedback <from> <to> <lag>'", lineno
                )
            feedbacks.append(
                (_parse_int(fields[1], "task id", lineno),
                 _parse_int(fields[2], "task id", lineno),
                 _parse_int(fields[3], "lag", lineno),
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

    g = TaskGraph(cyclic=cyclic)
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
