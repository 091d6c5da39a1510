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
    cyclic                          marks the graph cyclic explicitly

Task ids must be dense 0..n-1.
"""

from __future__ import annotations

from . import semiring as sr
from .dense import DenseMatrix
from .errors import GraphParseError
from .scheduler import TaskGraph
from .semiring import NEG_INF, POS_INF, SemiringId
from .sparse import CsrMatrix, from_triplets


def _tokens(text: str):
    """Yield (line_number, fields) for content lines."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield lineno, line.split()


def _parse_weight(tok: str, lineno: int) -> int:
    if tok == "inf":
        return POS_INF
    if tok == "-inf":
        return NEG_INF
    try:
        w = int(tok)
    except ValueError:
        raise GraphParseError(f"weight {tok!r} is not an integer or inf/-inf", lineno)
    if not NEG_INF <= w <= POS_INF:
        raise GraphParseError(f"weight {w} outside the 32-bit range", lineno)
    return w


def _parse_int(tok: str, what: str, lineno: int) -> int:
    try:
        return int(tok)
    except ValueError:
        raise GraphParseError(f"{what} {tok!r} is not an integer", lineno)


def parse_graph(text: str, sparse: bool = False, check_shape=None):
    """Parse a graph file into (DenseMatrix | CsrMatrix, SemiringId).

    ``check_shape(rows, cols)``, when given, runs once the header is read and
    before any edge is parsed or any matrix storage is built; it refuses a
    shape by raising.
    """
    lines = _tokens(text)
    try:
        lineno, header = next(lines)
    except StopIteration:
        raise GraphParseError("empty graph file") from None
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

    entries = []
    for lineno, fields in lines:
        if len(fields) != 3:
            raise GraphParseError("edge record must be '<u> <v> <w>'", lineno)
        u = _parse_int(fields[0], "vertex", lineno)
        v = _parse_int(fields[1], "vertex", lineno)
        if not (0 <= u < rows and 0 <= v < cols):
            raise GraphParseError(f"vertex pair ({u}, {v}) out of range", lineno)
        w = _parse_weight(fields[2], lineno)
        entries.append((u, v, w))
    if len(entries) != m:
        raise GraphParseError(f"header declares {m} edges but file has {len(entries)}")

    if sparse:
        return from_triplets(rows, cols, entries, s), s
    z = sr.zero(s)
    grid = [[z] * cols for _ in range(rows)]
    for u, v, w in entries:
        if s is SemiringId.BOOLEAN:
            w = 1 if w != 0 else 0
        grid[u][v] = sr.add(grid[u][v], w, s)
    return DenseMatrix(grid), s


def format_graph(matrix, s: SemiringId) -> str:
    """Serialize a matrix back into the graph file format (round-trippable)."""
    z = sr.zero(s)
    if isinstance(matrix, CsrMatrix):
        entries = []
        ptr = matrix.row_ptr.tolist()
        for i in range(matrix.rows):
            for p in range(ptr[i], ptr[i + 1]):
                entries.append((i, int(matrix.col_idx[p]), int(matrix.values[p])))
        rows, cols = matrix.rows, matrix.cols
    else:
        rows, cols = matrix.rows, matrix.cols
        entries = []
        for i, row in enumerate(matrix.to_rows()):
            for j, w in enumerate(row):
                if w != z:
                    entries.append((i, j, w))
    if rows == cols:
        header = f"{rows} {len(entries)} {sr.TOKEN_OF[s]}"
    else:
        header = f"{rows} {cols} {len(entries)} {sr.TOKEN_OF[s]}"
    lines = [header]
    for u, v, w in entries:
        lines.append(f"{u} {v} {_format_weight(w)}")
    return "\n".join(lines) + "\n"


def _format_weight(w: int) -> str:
    if w == POS_INF:
        return "inf"
    if w == NEG_INF:
        return "-inf"
    return str(w)


def parse_schedule(text: str) -> TaskGraph:
    """Parse a schedule file into a TaskGraph."""
    tasks: dict[int, tuple[str, int, int]] = {}
    deps: list[tuple[int, int, int | None, int]] = []
    feedbacks: list[tuple[int, int, int, int]] = []
    cyclic = False
    for lineno, fields in _tokens(text):
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
