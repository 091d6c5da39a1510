"""The path commands against the exact-arithmetic oracles of exact_oracle.

On small graphs whose weights sit at and near the sentinels, min-plus and
max-plus ``sssp`` from every source, and ``closure``, must give the exact
outcome (values, the cycle error or SaturationError) except on inputs in a
named class of exact_oracle; the lattice closures and ``reach`` must give
the oracle's sweep on every draw.
"""

import random
from collections import Counter

import tropical as tr
from tropical import FINITE_MAX, FINITE_MIN, NEG_INF, POS_INF, SemiringId
from tropical.semiring import TOKEN_OF

from exact_oracle import (
    clipped_passes,
    clipped_rounds,
    closure_outcome,
    floyd,
    sentinel_cycle,
    sssp_outcome,
)

WEIGHTS = [0, 1, -1, 2, 5, -7, 1000, -1000, 2**30, -(2**30), FINITE_MAX, FINITE_MIN,
           POS_INF, NEG_INF]
PLUS = (SemiringId.MINPLUS, SemiringId.MAXPLUS)


def graph_text(rng, s):
    """A graph file of 1-6 vertices and at most 2n edge records, loops and
    duplicate pairs included, with weights from WEIGHTS."""
    n = rng.randint(1, 6)
    m = rng.randint(0, 2 * n)
    token = {POS_INF: "inf", NEG_INF: "-inf"}
    lines = [f"{n} {m} {TOKEN_OF[s]}"]
    for _ in range(m):
        w = rng.choice(WEIGHTS)
        lines.append(f"{rng.randrange(n)} {rng.randrange(n)} {token.get(w, w)}")
    return "\n".join(lines) + "\n"


def library_outcome(call):
    try:
        values = call()
    except (tr.NegativeCycleError, tr.PositiveCycleError, tr.SaturationError) as exc:
        return (type(exc),)
    return ("values", values)


def test_path_commands_match_the_exact_oracle():
    rng = random.Random(15)
    matched = Counter()  # draws each class predicate matches
    differ = Counter()  # outcomes that differ from the oracle's, by command
    compared = Counter()  # outcomes compared outside every class, by command
    for _ in range(2500):
        s = rng.choice(list(SemiringId))
        text = graph_text(rng, s)
        csr, _ = tr.parse_graph(text)
        dense = tr.to_dense(csr)
        grid = dense.to_rows()
        n = len(grid)
        pattern = [[int(w != tr.zero(s)) for w in row] for row in grid]
        reach = floyd(pattern, SemiringId.BOOLEAN)[-1]
        forms = (dense, csr)
        for a in forms:
            assert tr.reachability(a, s).to_rows() == reach, text
        if s not in PLUS:
            closure = tr.bottleneck_paths if s is SemiringId.MAXMIN else (
                lambda a: tr.all_pairs_paths(a, s)
            )
            for a in forms:
                assert closure(a).to_rows() == floyd(grid, s)[-1], text
            continue

        clipped = clipped_passes(grid, s)
        matched["clipped passes"] += clipped
        want = closure_outcome(grid, s)
        for a in forms:
            got = library_outcome(lambda: sum(tr.all_pairs_paths(a, s).to_rows(), []))
            differ["closure"] += got != want
            if not clipped:
                compared["closure"] += 1
                assert got == want, text

        classes = [
            (sentinel_cycle(grid, s, source), clipped_rounds(grid, source, s))
            for source in range(n)
        ]
        matched["sentinel cycle"] += any(a for a, _ in classes)
        matched["clipped rounds"] += any(b for _, b in classes)
        for source, excused in enumerate(map(any, classes)):
            want = sssp_outcome(grid, source, s)
            for a in forms:
                got = library_outcome(lambda: tr.sssp(a, source, s))
                differ["sssp"] += got != want
                if not excused:
                    compared["sssp"] += 1
                    assert got == want, (text, source)

    # no predicate is vacuous, the saturating commands do differ inside the
    # classes, and most outcomes are compared outright
    assert min(matched[k] for k in ("clipped passes", "sentinel cycle", "clipped rounds")) > 0
    assert differ["closure"] > 0 and differ["sssp"] > 0
    assert compared["closure"] > 1000 and compared["sssp"] > 5000, compared
