"""Property tests: the vectorized closure sweep against the scalar reference.

The sweep takes a rank-1 update for every pass whose diagonal entry is one(s)
and replays the scalar order only for divergent plus-semiring passes, clips
only when a finite sum can leave the finite range, holds the plus-semiring
zero in a wide int64 encoding, and updates rows in chunks. Each
generator below aims at one of those branches; every case must match
``closure_reference`` bit for bit.
"""

import pytest
from hypothesis import given, settings, strategies as st

import tropical as tr
from tropical import DenseMatrix, SemiringId
from tropical.semiring import FINITE_MAX, FINITE_MIN, NEG_INF, POS_INF

from sweep_runs import RUNS, sweep_run

ALL = list(SemiringId)
PLUS = (SemiringId.MINPLUS, SemiringId.MAXPLUS)
P, N = POS_INF, NEG_INF

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def square(draw, entries):
    n = draw(st.integers(1, 10))
    return draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))


def assert_matches_reference(rows, s):
    """Check the kernel under every setting of ``sweep_runs.RUNS``: its
    default constants; 2-row chunks, so that the chunked rank-1 update of
    every sweep (int32, int16 and int64) also runs with a ragged last chunk;
    and the blocked sweep on 2 and 3 worker threads. Check too that it leaves
    its operand unchanged."""
    a = DenseMatrix(rows)
    want = tr.closure_reference(a, s).to_rows()
    for run in RUNS:
        with sweep_run(run, len(rows)):
            got = tr.dense._closure_kernel(a, s)
        assert got.dtype.name == "int32"
        assert got.tolist() == want
        assert a == DenseMatrix(rows)


@pytest.mark.parametrize("s", ALL)
@PROPERTY
@given(data=st.data())
def test_sentinel_heavy(s, data):
    # mostly the two sentinels, zero(s) and one(s), with a few small values
    special = st.sampled_from([N, P, tr.zero(s), tr.one(s)])
    rows = square(data.draw, st.one_of(special, special, special, st.integers(-50, 50)))
    assert_matches_reference(rows, s)


@pytest.mark.parametrize("s", ALL)
@PROPERTY
@given(data=st.data())
def test_values_near_the_finite_limits(s, data):
    # sums of these leave [FINITE_MIN, FINITE_MAX], forcing the saturating passes
    entries = st.one_of(
        st.integers(FINITE_MAX - 3000, POS_INF),
        st.integers(NEG_INF, FINITE_MIN + 3000),
        st.integers(-100, 100),
        st.just(tr.zero(s)),
        st.just(tr.one(s)),
    )
    assert_matches_reference(square(data.draw, entries), s)


@pytest.mark.parametrize("s", PLUS)
def test_divergent_and_rank1_passes_alternate_fixed(s, monkeypatch):
    # divergent self-loops on 0 and 2 only: passes 0 and 2 replay the scalar
    # order, passes 1 and 3 are rank-1 updates
    sign = -1 if s is SemiringId.MINPLUS else 1
    z = tr.zero(s)
    rows = [[sign, 5, z, z], [z, z, 7, z], [z, z, 2 * sign, 3], [z, z, z, z]]
    staged = []
    replay = tr.dense._staged_pass

    def spy(d, k, *rest):
        staged.append(k)
        return replay(d, k, *rest)

    monkeypatch.setattr(tr.dense, "_staged_pass", spy)
    assert_matches_reference(rows, s)
    assert staged == [0, 2] * len(RUNS)  # once per run


@pytest.mark.parametrize("s", PLUS)
@PROPERTY
@given(data=st.data())
def test_divergent_and_rank1_passes_alternate(s, data):
    # sparse non-divergent weights plus a few divergent ones: a negative
    # min-plus (positive max-plus) cycle runs through some vertices only
    sign = -1 if s is SemiringId.MINPLUS else 1
    z = tr.zero(s)
    tame = st.one_of(st.just(z), st.just(z), st.integers(0, 40).map(lambda w: -sign * w))
    wild = st.integers(1, 40).map(lambda w: sign * w)
    assert_matches_reference(square(data.draw, st.one_of(tame, tame, tame, wild)), s)


@PROPERTY
@given(data=st.data())
def test_boolean_entries_beyond_zero_and_one(data):
    # any int32 is a legal boolean entry; the sweep then runs bitwise on int32
    entries = st.one_of(
        st.integers(0, 1), st.integers(-8, 8), st.sampled_from([N, P, 2**20 + 3])
    )
    rows = square(data.draw, entries)
    assert_matches_reference(rows, SemiringId.BOOLEAN)
