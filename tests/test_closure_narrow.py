"""Property tests for the narrow-dtype closure sweeps.

Min-plus / max-plus with every entry that differs from zero(s) one-signed
(>= 0 under min-plus, <= 0 under max-plus) and inside C = 2^14 - 1 in
magnitude run on int16, capped at C; if a pair that has a path ends at the
cap, the int32 path below runs from the input. Otherwise min-plus / max-plus
run on int32 when (n - 1) * B <= 2^28, B the largest
|v| over the entries that differ from zero(s), and fall back to the wide
int64 sweep when that bound fails or a pass diverges. Max-min / min-max run
on int16 order codes when the finite values span at most 65,533. A 0/1
Boolean matrix runs no sweep (``structure.reach``). Each case
is checked against ``closure_reference`` bit for bit, at the default
constants, with 2-row chunks and in blocks on worker threads
(``sweep_runs``), and the tests also check which path ran, the same in every
run: a path that is taken too rarely is as much a defect here as a wrong
value.
"""

import pytest
from hypothesis import given, settings, strategies as st

import tropical as tr
from tropical import DenseMatrix, SemiringId, dense, semiring as sr, structure
from tropical.semiring import FINITE_MAX, FINITE_MIN, NEG_INF, POS_INF

from sweep_runs import RUNS, sweep_run

PLUS = (SemiringId.MINPLUS, SemiringId.MAXPLUS)
ORDER = (SemiringId.MAXMIN, SemiringId.MINMAX)
CUT = 2**28
CAP = 2**14 - 1
SPAN = 65533

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def closure_paths(rows, s):
    """Check the kernel against the reference under every setting of
    ``sweep_runs.RUNS`` (default, 2-row chunks, blocks on 2 and 3 worker
    threads), and that it leaves its operand unchanged. Returns the dtype
    and outcome of every narrow rank-1 sweep and the number of wide plus
    sweeps, which every run must share."""
    a = DenseMatrix(rows)
    want = tr.closure_reference(a, s).to_rows()
    runs = []
    for run in RUNS:
        sweeps, wide = [], []
        sweep, plus = dense._sweep, dense._wide_sweep

        def spy_sweep(d, *rest):
            dtype = d.dtype.name
            done = sweep(d, *rest)
            sweeps.append((dtype, done))
            return done

        def spy_plus(*args):
            wide.append(1)
            return plus(*args)

        with sweep_run(run, len(rows)) as mp:
            mp.setattr(dense, "_sweep", spy_sweep)
            mp.setattr(dense, "_wide_sweep", spy_plus)
            got = dense._closure_kernel(a, s)
        assert got.dtype.name == "int32"
        assert got.tolist() == want
        assert a == DenseMatrix(rows)
        runs.append((sweeps, len(wide)))
    assert all(r == runs[0] for r in runs)
    return runs[0]


def narrow(rows, s):
    assert closure_paths(rows, s) == ([("int32", True)], 0)


def wide_only(rows, s):
    assert closure_paths(rows, s) == ([], 1)


def capped(rows, s):
    assert closure_paths(rows, s) == ([("int16", True)], 0)


def one_signed(rows, s):
    """Every entry that differs from zero(s) is >= 0 (min-plus) or <= 0
    (max-plus)."""
    sign = 1 if s is SemiringId.MINPLUS else -1
    z = tr.zero(s)
    return all(sign * v >= 0 for row in rows for v in row if v != z)


def chain(n, w, s):
    z = tr.zero(s)
    return [[w if j == i + 1 else z for j in range(n)] for i in range(n)]


# -- the bound (n - 1) * B <= 2^28 ----------------------------------------------

@pytest.mark.parametrize("s", PLUS)
@pytest.mark.parametrize("sign", (1, -1))
def test_chain_at_the_bound_runs_narrow(s, sign):
    # 16 edges of 2^24: the end-to-end value is exactly the decode cut
    rows = chain(17, sign * 2**24, s)
    narrow(rows, s)
    assert tr.closure_reference(DenseMatrix(rows), s).get(0, 16) == sign * CUT


@pytest.mark.parametrize("s", PLUS)
@pytest.mark.parametrize("sign", (1, -1))
def test_chain_one_past_the_bound_runs_wide(s, sign):
    # 17 edges of 15,790,321 add up to 2^28 + 1, one past the cut
    rows = chain(18, sign * 15_790_321, s)
    wide_only(rows, s)
    assert tr.closure_reference(DenseMatrix(rows), s).get(0, 17) == sign * (CUT + 1)


def dag(draw, n, s, weight):
    """Entries above the diagonal of a random vertex order, zero(s)
    elsewhere: no cycles, so no pass diverges. Returns the rows and the
    first and last vertex of the order."""
    order = draw(st.permutations(range(n)))
    rank = {v: r for r, v in enumerate(order)}
    z = tr.zero(s)
    edge = st.one_of(st.just(z), weight)
    rows = [[draw(edge) if rank[i] < rank[j] else z for j in range(n)] for i in range(n)]
    return rows, order[0], order[-1]


@pytest.mark.parametrize("s", PLUS)
@pytest.mark.parametrize("past", (0, 1))
@PROPERTY
@given(data=st.data())
def test_bound_just_below_and_just_above(s, past, data):
    # weights within +-B for B = 2^28 // (n - 1), or one more when past;
    # the edge from the first to the last vertex of the order is +-B
    n = data.draw(st.integers(2, 9))
    b = CUT // (n - 1) + past
    rows, first, last = dag(data.draw, n, s, st.integers(-b, b))
    rows[first][last] = data.draw(st.sampled_from([b, -b]))
    if past:
        wide_only(rows, s)
    else:
        narrow(rows, s)


# -- plus semirings: negative weights, late divergence, sentinels ---------------

def potential_graph(draw, n, s):
    """w(u, v) = p(u) - p(v) + c with c >= 0 (c <= 0 under max-plus): every
    cycle sums to the c of its edges, so weights of both signs appear but
    no cycle diverges."""
    sign = 1 if s is SemiringId.MINPLUS else -1
    p = draw(st.lists(st.integers(-60, 60), min_size=n, max_size=n))
    z = tr.zero(s)
    slack = st.one_of(st.none(), st.integers(0, 30))
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            c = draw(slack)
            row.append(z if c is None else p[i] - p[j] + sign * c)
        rows.append(row)
    return rows


@pytest.mark.parametrize("s", PLUS)
@PROPERTY
@given(data=st.data())
def test_negative_weights_without_divergent_cycles(s, data):
    n = data.draw(st.integers(1, 10))
    rows = potential_graph(data.draw, n, s)
    # one-signed draws (n = 1, or every potential equal) take the capped
    # int16 sweep: their paths are far below the cap
    if one_signed(rows, s):
        capped(rows, s)
    else:
        narrow(rows, s)


@pytest.mark.parametrize("s", PLUS)
@PROPERTY
@given(data=st.data())
def test_divergent_cycle_through_the_last_vertex(s, data):
    # a non-divergent graph plus a 2-cycle j -> n-1 -> j of weight -+1: no
    # pass before n - 1 diverges, so the narrow sweep runs n - 1 passes,
    # stops, and the wide sweep finishes the closure from pass n - 1
    n = data.draw(st.integers(2, 10))
    rows = potential_graph(data.draw, n, s)
    sign = 1 if s is SemiringId.MINPLUS else -1
    j = data.draw(st.integers(0, n - 2))
    w = data.draw(st.integers(-40, 40))
    rows[j][n - 1] = w
    rows[n - 1][j] = -w - sign
    assert closure_paths(rows, s) == ([("int32", False)], 1)
    # at the default chunk size every int32 pass is one (x) call: count
    # those made before the wide sweep starts
    passes, starts = [], []
    mul, add = dense._SWEEP_OPS[s]
    wide = dense._wide_sweep

    def counting_mul(*args, **kw):
        passes.append(1)
        return mul(*args, **kw)

    def spy(w, s, start):
        starts.append((len(passes), start))
        return wide(w, s, start)

    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(dense._SWEEP_OPS, s, (counting_mul, add))
        mp.setattr(dense, "_wide_sweep", spy)
        dense._closure_kernel(DenseMatrix(rows), s)
    assert starts == [(n - 1, n - 1)]


def first_divergent_pass(rows, s):
    """The first pass k of the scalar loop that starts with D_kk != one(s),
    or None."""
    add, mul = sr.add_fn(s), sr.mul_fn(s)
    d = [row[:] for row in rows]
    n = len(d)
    for i in range(n):
        d[i][i] = add(d[i][i], 0)
    for k in range(n):
        if d[k][k] != 0:
            return k
        for i in range(n):
            for j in range(n):
                d[i][j] = add(d[i][j], mul(d[i][k], d[k][j]))
    return None


def resumed_at(rows, s):
    """Check the kernel against the reference (closure_paths) and return
    the pass at which each wide sweep started."""
    starts = []
    wide = dense._wide_sweep

    def spy(w, s, start):
        starts.append(start)
        return wide(w, s, start)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dense, "_wide_sweep", spy)
        assert closure_paths(rows, s) == ([("int32", False)], 1)
    return starts


@pytest.mark.parametrize("s", PLUS)
@PROPERTY
@given(data=st.data())
def test_the_wide_sweep_resumes_at_the_divergent_pass(s, data):
    # one to three divergent 2-cycles i -> j -> i anywhere in a graph with
    # no other divergent cycle: the narrow sweep stops at the first pass
    # that diverges, and the wide sweep takes over from its state there
    n = data.draw(st.integers(2, 10))
    rows = potential_graph(data.draw, n, s)
    sign = 1 if s is SemiringId.MINPLUS else -1
    pair = st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)
    for i, j in data.draw(st.lists(pair, min_size=1, max_size=3)):
        w = data.draw(st.integers(-40, 40))
        rows[i][j] = w
        rows[j][i] = -w - sign * data.draw(st.integers(1, 5))
    k = first_divergent_pass(rows, s)
    assert k is not None
    # one start per run
    assert resumed_at(rows, s) == [k] * len(RUNS)


@pytest.mark.parametrize("s", PLUS)
@pytest.mark.parametrize("n", (2, 3, 9))
def test_a_divergent_2_cycle_through_the_last_vertex_resumes_at_n_minus_1(s, n):
    # every cycle runs through 0 and n - 1, so none diverges before pass n - 1
    rows = chain(n, 5, s)
    sign = 1 if s is SemiringId.MINPLUS else -1
    rows[0][n - 1] = 7
    rows[n - 1][0] = -7 - sign
    assert first_divergent_pass(rows, s) == n - 1
    assert resumed_at(rows, s) == [n - 1] * len(RUNS)


def test_inputs_past_the_bound_sweep_wide_from_pass_0():
    rows = chain(18, 15_790_321, SemiringId.MINPLUS)
    rows[17][0] = -(17 * 15_790_321) - 1
    starts = []
    wide = dense._wide_sweep

    def spy(w, s, start):
        starts.append(start)
        return wide(w, s, start)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dense, "_wide_sweep", spy)
        assert closure_paths(rows, SemiringId.MINPLUS) == ([], 1)
    assert starts == [0] * len(RUNS)


@pytest.mark.parametrize("s", PLUS)
@PROPERTY
@given(data=st.data())
def test_sentinel_heavy_plus(s, data):
    # mostly zero(s) and one(s); the other sentinel (POS_INF under max-plus,
    # NEG_INF under min-plus) is an ordinary value there and fails the bound
    n = data.draw(st.integers(1, 10))
    other = NEG_INF if s is SemiringId.MINPLUS else POS_INF
    special = st.sampled_from([tr.zero(s), tr.zero(s), tr.one(s)])
    entries = st.one_of(special, special, st.integers(-20, 20), st.just(other))
    rows = data.draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))
    sweeps, wide = closure_paths(rows, s)
    if n > 1 and any(other in row for row in rows):
        assert (sweeps, wide) == ([], 1)
    elif one_signed(rows, s):
        assert (sweeps, wide) == ([("int16", True)], 0)
    else:
        assert sweeps == [("int32", wide == 0)]


# -- one-signed plus input: int16 capped at C = 2^14 - 1 ------------------------

def capped_paths(rows, s):
    """The paths of one-signed rows: int32 when an entry reaches the cap;
    else the int16 sweep, then the int32 one from the input when a pair
    with a path has a distance at or past the cap."""
    z = tr.zero(s)
    if any(abs(v) >= CAP for row in rows for v in row if v != z):
        return [("int32", True)], 0
    want = tr.closure_reference(DenseMatrix(rows), s).to_rows()
    if any(abs(v) >= CAP for row in want for v in row if v != z):
        return [("int16", True), ("int32", True)], 0
    return [("int16", True)], 0


@pytest.mark.parametrize("s", PLUS)
@PROPERTY
@given(data=st.data())
def test_one_signed_weights_at_the_cap(s, data):
    # weights of one sign up to a top of C - 2, C - 1 or C, often the top
    # itself, on a sparse random graph or a DAG, whose pairs against its
    # order have no path
    sign = 1 if s is SemiringId.MINPLUS else -1
    n = data.draw(st.integers(1, 10))
    top = data.draw(st.sampled_from([CAP - 2, CAP - 1, CAP]))
    weight = st.one_of(st.just(top), st.integers(0, top)).map(lambda w: sign * w)
    z = tr.zero(s)
    if data.draw(st.booleans()):
        rows, _, _ = dag(data.draw, n, s, weight)
    else:
        entry = st.one_of(st.just(z), st.just(z), weight)
        rows = data.draw(st.lists(
            st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n
        ))
    assert closure_paths(rows, s) == capped_paths(rows, s)
    # Warshall's reachability: exactly the pairs without a path are zero(s)
    reach = [[i == j or v != z for j, v in enumerate(row)] for i, row in enumerate(rows)]
    for k in range(n):
        for i in range(n):
            if reach[i][k]:
                reach[i] = [a or b for a, b in zip(reach[i], reach[k])]
    got = dense._closure_kernel(DenseMatrix(rows), s).tolist()
    assert [[v != z for v in row] for row in got] == reach


@pytest.mark.parametrize("s", PLUS)
@pytest.mark.parametrize("past", (0, 1))
def test_a_chain_totalling_the_cap(s, past):
    # three edges of 5,461 total C; one of 5,460 makes C - 1, the one
    # distance in the chain that the int16 codes still hold. At C the int16
    # sweep ends with a reachable pair at the cap and int32 runs from the
    # input
    sign = 1 if s is SemiringId.MINPLUS else -1
    rows = chain(4, sign * 5461, s)
    rows[0][1] -= sign * (1 - past)
    if past:
        assert closure_paths(rows, s) == ([("int16", True), ("int32", True)], 0)
    else:
        capped(rows, s)
    assert tr.closure_reference(DenseMatrix(rows), s).get(0, 3) == sign * (CAP - 1 + past)


@pytest.mark.parametrize("s", PLUS)
@pytest.mark.parametrize("w", (0, 1, CAP - 1, CAP, None))
def test_one_vertex_near_the_cap(s, w):
    # a loop of weight w (None: no loop), one-signed for s; weight C
    # leaves the capped path
    sign = 1 if s is SemiringId.MINPLUS else -1
    rows = [[tr.zero(s) if w is None else sign * w]]
    if w == CAP:
        narrow(rows, s)
    else:
        capped(rows, s)


@pytest.mark.parametrize("s", PLUS)
def test_zero_weight_cycles_run_capped(s):
    # a ring 0 -> 1 -> 2 -> 3 -> 0 of weight-0 edges, an edge of +-(C - 1)
    # from it to a 2-cycle 4 <-> 5 of 0, and an isolated vertex 6: every
    # D_kk stays 0, and the pairs without a path come back as zero(s)
    sign = 1 if s is SemiringId.MINPLUS else -1
    z = tr.zero(s)
    rows = [[z] * 7 for _ in range(7)]
    rows[0][1] = rows[1][2] = rows[2][3] = rows[3][0] = rows[4][5] = rows[5][4] = 0
    rows[3][4] = sign * (CAP - 1)
    capped(rows, s)
    got = tr.closure_reference(DenseMatrix(rows), s)
    assert got.get(0, 5) == sign * (CAP - 1) and got.get(5, 0) == z and got.get(0, 6) == z
    capped([[0] * 7 for _ in range(7)], s)


# -- max-min / min-max order codes, Boolean --------------------------------------

@pytest.mark.parametrize("s", ORDER)
@pytest.mark.parametrize("past", (0, 1))
@pytest.mark.parametrize("lo", (FINITE_MIN, -1000, FINITE_MAX - SPAN - 1))
def test_span_at_the_int16_limit_and_one_past(s, past, lo):
    hi = lo + SPAN + past
    rows = [[NEG_INF, hi, POS_INF], [lo, POS_INF, NEG_INF], [hi, lo, NEG_INF]]
    assert closure_paths(rows, s) == ([("int32" if past else "int16", True)], 0)


@pytest.mark.parametrize("s", ORDER)
@pytest.mark.parametrize("past", (0, 1))
@PROPERTY
@given(data=st.data())
def test_spans_near_the_int16_limit(s, past, data):
    # finite values span exactly 65,533 (+1 when past), anywhere in the
    # finite range, among both sentinels
    span = SPAN + past
    lo = data.draw(st.one_of(
        st.sampled_from([FINITE_MIN, FINITE_MAX - span]),
        st.integers(FINITE_MIN, FINITE_MAX - span),
    ))
    n = data.draw(st.integers(3, 9))
    entries = st.one_of(
        st.sampled_from([lo, lo + span, NEG_INF, POS_INF]), st.integers(lo, lo + span)
    )
    rows = data.draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))
    rows[0][1], rows[1][0], rows[0][2], rows[2][0] = lo, lo + span, NEG_INF, POS_INF
    assert closure_paths(rows, s) == ([("int32" if past else "int16", True)], 0)


@pytest.mark.parametrize("s", ORDER)
@PROPERTY
@given(data=st.data())
def test_sentinel_heavy_order(s, data):
    n = data.draw(st.integers(1, 10))
    special = st.sampled_from([NEG_INF, POS_INF])
    entries = st.one_of(special, special, st.integers(-20, 20))
    rows = data.draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))
    assert closure_paths(rows, s) == ([("int16", True)], 0)


def test_boolean_takes_reach_for_zero_one_and_int32_otherwise(monkeypatch):
    # a 0/1 matrix runs no sweep: its closure is structure.reach of its
    # edges; any other entry sends the whole matrix to the int32 sweep
    calls = []
    reach = structure.reach

    def spy(n, src, dst):
        calls.append(n)
        return reach(n, src, dst)

    monkeypatch.setattr(structure, "reach", spy)
    rows = [[0, 1, 0], [0, 0, 1], [1, 0, 0]]
    assert closure_paths(rows, SemiringId.BOOLEAN) == ([], 0)
    assert calls == [3] * len(RUNS)
    rows[2][2] = 6
    assert closure_paths(rows, SemiringId.BOOLEAN) == ([("int32", True)], 0)
    assert calls == [3] * len(RUNS)
