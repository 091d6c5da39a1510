"""Exact-arithmetic path oracles, kept as test oracles.

Under min-plus and max-plus the library's (x) saturates: a finite sum is
clipped to [FINITE_MIN, FINITE_MAX]. The oracles here run the same
relaxations on Python ints with no clip. The zero(s) of a plus semiring is
None, "no path", and every other weight, the other sentinel (POS_INF under
max-plus, NEG_INF under min-plus) included, counts as the number it is.
The outcome of a query is then decided once, at the end, by one rule
(``decide``): a change in round n, or a closed walk that improves on 0, is
the cycle error; otherwise a value outside [FINITE_MIN, FINITE_MAX] is
SaturationError; otherwise the values.

The classes of ROADMAP's "sssp on exact int64 rounds" item name where the
saturating commands may differ from these outcomes today. Each class is a
predicate of the input below.
"""

from __future__ import annotations

from tropical import semiring as sr
from tropical.dense import DIVERGENCE
from tropical.errors import SaturationError
from tropical.semiring import FINITE_MAX, FINITE_MIN, NEG_INF, POS_INF, SemiringId

Grid = list[list[int]]


def _exact(s: SemiringId):
    """(+), (x) and the zero of s on Python ints. Lattice semirings use their
    own operators, which never clip; plus semirings hold the zero as None
    and add with no clip."""
    if s not in DIVERGENCE:
        return sr.add_fn(s), sr.mul_fn(s), sr.zero(s)
    better = min if s is SemiringId.MINPLUS else max

    def add(a, b):
        return b if a is None else a if b is None else better(a, b)

    def mul(a, b):
        return None if a is None or b is None else a + b

    return add, mul, None


def bellman_ford(grid: Grid, source: int, s: SemiringId) -> list[list[int | None]]:
    """The vectors of the exact rounds of min-plus or max-plus single-source
    paths: d_0, one(s) at the source and None elsewhere, then
    d_k = d_{k-1} (+) (d_{k-1} (x) A) for k = 1..n, stopping before the
    first round that changes nothing. n + 1 vectors mean that round n
    changed d."""
    add, mul, _ = _exact(s)
    z, n = sr.zero(s), len(grid)
    edges = [(u, v, w) for u, row in enumerate(grid) for v, w in enumerate(row) if w != z]
    d = [None] * n
    d[source] = sr.one(s)
    rounds = [d]
    for _ in range(n):
        nxt = list(d)
        for u, v, w in edges:
            nxt[v] = add(nxt[v], mul(d[u], w))
        if nxt == d:
            break
        rounds.append(nxt)
        d = nxt
    return rounds


def floyd(grid: Grid, s: SemiringId) -> list[Grid]:
    """The states of the exact in-place sweep of ``closure_reference``: the
    grid after the diagonal step, then after each pass k of
    D_ij <- D_ij (+) D_ik (x) D_kj. Each entry is written once a pass, so
    these states hold every value the sweep holds. The last state is the
    closure; for a max-min, min-max or Boolean grid, the library's."""
    add, mul, zero = _exact(s)
    z, one, n = sr.zero(s), sr.one(s), len(grid)
    d = [[zero if w == z else w for w in row] for row in grid]
    for i in range(n):
        d[i][i] = add(d[i][i], one)
    passes = [[row[:] for row in d]]
    for k in range(n):
        dk = d[k]
        for di in d:
            dik = di[k]
            for j in range(n):
                di[j] = add(di[j], mul(dik, dk[j]))
        passes.append([row[:] for row in d])
    return passes


def decide(values: list[int | None], cycle: bool, s: SemiringId) -> tuple:
    """The outcome of exact values: (cycle error type,) when ``cycle``;
    otherwise (SaturationError,) when a value lies outside [FINITE_MIN,
    FINITE_MAX]; otherwise ("values", the values with None as zero(s))."""
    if cycle:
        return (DIVERGENCE[s][0],)
    if _outside(values):
        return (SaturationError,)
    z = sr.zero(s)
    return ("values", [z if x is None else x for x in values])


def _outside(values) -> bool:
    return any(x is not None and not FINITE_MIN <= x <= FINITE_MAX for x in values)


def sssp_outcome(grid: Grid, source: int, s: SemiringId) -> tuple:
    """The exact outcome of min-plus or max-plus ``sssp`` from ``source``."""
    rounds = bellman_ford(grid, source, s)
    return decide(rounds[-1], len(rounds) > len(grid), s)


def closure_outcome(grid: Grid, s: SemiringId) -> tuple:
    """The exact outcome of min-plus or max-plus ``closure``, its values row
    by row: a diagonal entry other than 0 after the sweep is the cycle
    error."""
    d = floyd(grid, s)[-1]
    return decide(sum(d, []), any(d[i][i] != 0 for i in range(len(d))), s)


def sentinel_cycle(grid: Grid, s: SemiringId, source: int) -> bool:
    """Class A ("a printed number where closure refuses a reachable
    cycle"): a cycle through an edge whose weight is the other sentinel,
    reachable from ``source``. The saturating (x) clips the sums around it,
    so ``sssp`` can settle on a clipped distance."""
    z = sr.zero(s)
    other = POS_INF if s is SemiringId.MAXPLUS else NEG_INF
    reach = floyd([[int(w != z) for w in row] for row in grid], SemiringId.BOOLEAN)[-1]
    return any(
        w == other and reach[source][u] and reach[v][u]
        for u, row in enumerate(grid)
        for v, w in enumerate(row)
    )


def clipped_rounds(grid: Grid, source: int, s: SemiringId) -> bool:
    """Classes B ("cycle errors that clipping invents") and C ("saturation
    named on one side only") for ``sssp``: an exact value of the rounds it
    runs from ``source`` lies outside [FINITE_MIN, FINITE_MAX], where the
    saturating rounds hold a clipped one."""
    return any(map(_outside, bellman_ford(grid, source, s)))


def clipped_passes(grid: Grid, s: SemiringId) -> bool:
    """Classes B and C for ``closure``: an exact value of its sweep, an edge
    weight equal to the other sentinel included, lies outside [FINITE_MIN,
    FINITE_MAX], where the saturating sweep holds a clipped one."""
    return any(_outside(sum(d, [])) for d in floyd(grid, s))
