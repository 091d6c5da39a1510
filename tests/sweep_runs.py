"""The settings under which the closure tests run every kernel call.

Each case runs at the default constants; with 2-row chunks, so that the
chunked update of every sweep also runs with a ragged last chunk; and on the
blocked sweep of ``dense._sweep`` forced onto small matrices: the size floor
at 1, with 2 workers and blocks of 3 pivots, and with 3 workers and blocks
of 2. On matrices of up to 10 rows that gives ragged last blocks, divergent
passes inside a block, and, below 3 rows, more workers than rows.
"""

from contextlib import contextmanager

import pytest

from tropical import dense

# "chunked", or (workers, pivots per block) of a threaded run
RUNS = ("default", "chunked", (2, 3), (3, 2))


@contextmanager
def sweep_run(run, n):
    """A MonkeyPatch context with the constants of ``run`` set for an
    n x n closure."""
    with pytest.MonkeyPatch.context() as mp:
        if run == "chunked":
            mp.setattr(dense, "_SWEEP_CHUNK", 2 * n + 1)
            mp.setattr(dense, "_WIDE_CHUNK", 2 * n + 1)
        elif run != "default":
            threaded(mp, *run)
        yield mp


def threaded(mp, workers, block):
    """Make every int32 and int16 sweep run in blocks on ``workers`` threads."""
    mp.setattr(dense, "_WORKERS", workers)
    mp.setattr(dense, "_BLOCK", block)
    mp.setattr(dense, "_THREAD_FLOOR", {"int32": 1, "int16": 1})
