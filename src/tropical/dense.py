"""Dense row-major matrices over a tropical semiring.

Every operation takes the semiring explicitly; matrices carry no semiring of
their own. Two implementations exist for the heavy kernels:

* the default vectorized kernels (numpy). Products and the int64 closure
  sweep share one wide encoding of min-plus and max-plus: int64, with the
  zero held as +-2^61 and decoded (entries beyond +-2^60 to the zero, the
  rest clipped to the finite range) once per result. The closure first tries
  narrower encodings (int16 capped at 2^14 - 1 for one-signed min-plus /
  max-plus, int32, int16 order codes) where they are exact, and runs a
  narrow sweep of a few hundred rows or more on every CPU the process may
  use, bit-identical to one thread. The 0/1 Boolean closure runs no sweep:
  it is ``structure.reach`` on the edge list, by condensation of the
  strongly connected components into packed bit rows; and
* ``*_reference`` scalar kernels (plain Python triple loops over the scalar
  semiring operations).

The vectorized kernels are required to be bit-identical to the references on
every input, including sentinel-laden and divergent (positive/negative cycle)
matrices; the test suite enforces this.
"""

from __future__ import annotations

import os
import threading
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from . import semiring as sr, structure
from .errors import NegativeCycleError, PositiveCycleError
from .semiring import SemiringId

_I32 = np.int32
_I64 = np.int64
_LO = _I64(sr.FINITE_MIN)
_HI = _I64(sr.FINITE_MAX)

class DenseMatrix:
    """Rectangular row-major matrix of 32-bit tropical values."""

    __slots__ = ("_arr",)

    def __init__(self, rows: Iterable[Sequence[int]] | np.ndarray):
        # a 2-D array is checked as a whole, without a list per row
        if isinstance(rows, np.ndarray) and rows.ndim == 2:
            data = rows
        else:
            data = [list(r) for r in rows]
        if not len(data) or not len(data[0]):
            raise ValueError("matrix must have at least one row and one column")
        ncols = len(data[0])
        if data is not rows and any(len(r) != ncols for r in data):
            raise ValueError("rows have inconsistent lengths")
        self._arr = _checked_array(data, 2)

    @classmethod
    def filled(cls, rows: int, cols: int, value: int) -> "DenseMatrix":
        if rows < 1 or cols < 1:
            raise ValueError("matrix must have at least one row and one column")
        _check_value(value)
        return cls._wrap(np.full((rows, cols), value, dtype=_I32))

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "DenseMatrix":
        m = object.__new__(cls)
        m._arr = arr
        return m

    @property
    def rows(self) -> int:
        return self._arr.shape[0]

    @property
    def cols(self) -> int:
        return self._arr.shape[1]

    def get(self, i: int, j: int) -> int:
        return int(self._arr[i, j])

    def row(self, i: int) -> list[int]:
        return self._arr[i].tolist()

    def to_rows(self) -> list[list[int]]:
        return self._arr.tolist()

    def __eq__(self, other) -> bool:
        if not isinstance(other, DenseMatrix):
            return NotImplemented
        return self._arr.shape == other._arr.shape and bool(
            np.array_equal(self._arr, other._arr)
        )

    def __hash__(self):
        return hash((self._arr.shape, self._arr.tobytes()))

    def __repr__(self) -> str:
        return f"DenseMatrix({self.rows}x{self.cols})"


def _check_value(v) -> None:
    if not isinstance(v, (int, np.integer)):
        raise TypeError(f"tropical values must be integers, got {type(v).__name__}")
    if not sr.NEG_INF <= v <= sr.POS_INF:
        raise ValueError(f"value {v} outside the 32-bit tropical range")


def _checked_array(data, ndim: int) -> np.ndarray:
    """int32 array of a vector (ndim 1) or a rectangular matrix (ndim 2) of
    tropical values, checked as a whole; a bad value raises the error of the
    first one in row-major order."""
    try:
        arr = np.asarray(data)
    except (ValueError, TypeError, OverflowError):
        arr = None
    if (
        arr is not None
        and arr.ndim == ndim
        and arr.dtype.kind in "biu"
        and sr.NEG_INF <= arr.min()
        and arr.max() <= sr.POS_INF
    ):
        return arr.astype(_I32)
    for v in data if ndim == 1 else chain.from_iterable(data):
        _check_value(v)
    return np.array(data, dtype=_I32)


def _check_vector(x: Sequence[int]) -> np.ndarray:
    if len(x) < 1:
        raise ValueError("vector must have at least one element")
    return _checked_array(x, 1)


def identity(n: int, s: SemiringId) -> DenseMatrix:
    """n x n matrix with one(s) on the diagonal and zero(s) elsewhere."""
    if n < 1:
        raise ValueError("identity size must be >= 1")
    arr = np.full((n, n), sr.zero(s), dtype=_I32)
    np.fill_diagonal(arr, sr.one(s))
    return DenseMatrix._wrap(arr)


def transpose(a: DenseMatrix) -> DenseMatrix:
    return DenseMatrix._wrap(np.ascontiguousarray(a._arr.T))


def elementwise_add(a: DenseMatrix, b: DenseMatrix, s: SemiringId) -> DenseMatrix:
    """Entry-wise (+) of two equal-shape matrices."""
    if a._arr.shape != b._arr.shape:
        raise ValueError(
            f"shape mismatch for elementwise add: {a._arr.shape} vs {b._arr.shape}"
        )
    return DenseMatrix._wrap(ADD_UFUNC[s](a._arr, b._arr))


# (x) and (+) of each semiring on an encoded array, for the products
# and the rank-1 closure sweep
_SWEEP_OPS = {
    SemiringId.MAXPLUS: (np.add, np.maximum),
    SemiringId.MINPLUS: (np.add, np.minimum),
    SemiringId.MAXMIN: (np.minimum, np.maximum),
    SemiringId.MINMAX: (np.maximum, np.minimum),
    SemiringId.BOOLEAN: (np.bitwise_and, np.bitwise_or),
}

# (+) of each semiring as a numpy ufunc: elementwise, reduce, reduceat and at
ADD_UFUNC = {s: add for s, (_, add) in _SWEEP_OPS.items()}


# Wide int64 stand-in for the zero of a plus semiring, in the products and
# the closure sweep: the min-plus zero is +_WIDE, the max-plus zero -_WIDE.
# x (x) zero needs no mask, since zero + x stays beyond _WIDE_CUT for every
# finite x, and _WIDE + _WIDE fits in int64. A product's sums lie within
# 2^32 of 0 (finite) or of +-_WIDE, +-2 * _WIDE (zero). In the closure, a
# zero-derived entry drifts by at most 2^31 per pass, so it stays beyond the
# cut for any n < 2^29, far more than an n x n array holds.
_WIDE = _I64(2**61)
_WIDE_CUT = _I64(2**60)
_WIDE_ZERO = {SemiringId.MINPLUS: _WIDE, SemiringId.MAXPLUS: -_WIDE}


# -- products ----------------------------------------------------------------
# Every product runs on the semiring's (x) and (+) from _SWEEP_OPS. Min-plus
# and max-plus run on the wide encoding: x (x) y is a plain int64 sum with no
# clip, the (+) fold runs on the sums, and _decode clips the result once.
# That is exact because the clip is monotone: the max (or min) of clipped
# values is the clip of the max (or min).


def _encode(arr: np.ndarray, s: SemiringId) -> np.ndarray:
    """int64 copy of a plus-semiring array with zero(s) held as +-_WIDE."""
    return np.where(arr == sr.zero(s), _WIDE_ZERO[s], arr)


def _wide_zero(w: np.ndarray, s: SemiringId) -> np.ndarray:
    """Mask of the entries of a wide-encoded array that hold zero(s): those
    beyond the cut."""
    return w > _WIDE_CUT if s is SemiringId.MINPLUS else w < -_WIDE_CUT


def _decode(w: np.ndarray, s: SemiringId) -> np.ndarray:
    """Decode a wide-encoded plus-semiring array in place and return it:
    entries beyond the cut become zero(s), the rest clip to
    [FINITE_MIN, FINITE_MAX]."""
    zero = _wide_zero(w, s)
    np.clip(w, _LO, _HI, out=w)
    w[zero] = sr.zero(s)
    return w


def _check_out(out: np.ndarray, n: int) -> None:
    """Refuse a product's out buffer unless it is a 1-D int64 array of n
    entries; nothing is written before this check."""
    if not isinstance(out, np.ndarray) or out.dtype != _I64 or out.shape != (n,):
        raise ValueError(f"out must be a 1-D int64 array of {n} entries")


def _vector_product(
    x: np.ndarray, arr: np.ndarray, s: SemiringId, out: np.ndarray | None = None
):
    """y_j = (+)_i x_i (x) arr[i, j]: every y_j written into out when it is
    given, which is returned; else a list.

    A row whose x_i is zero(s) contributes zero(s), the identity of (+), so
    only the live rows are gathered. Under min-plus and max-plus the live
    x_i are finite, and instead of encoding arr, its zero(s) entries are
    masked out of the fold, which starts from the wide zero.
    """
    mul, add = _SWEEP_OPS[s]
    zero = sr.zero(s)
    live = np.flatnonzero(x != zero)
    if live.size < x.size:
        x, arr = x[live], arr[live]
    if s in _WIDE_ZERO:
        prod = arr + x[:, None].astype(_I64)
        y = add.reduce(prod, axis=0, where=arr != zero, initial=_WIDE_ZERO[s], out=out)
        _decode(y, s)
    else:
        y = add.reduce(mul(arr, x[:, None]), axis=0, initial=zero, out=out)
    return y.tolist() if out is None else y


# Elements of one row chunk of the matmul accumulator, and of its product
# buffer: a chunk takes all its rank-1 updates while both stay in cache.
# At n = 512, 2^16 beat 2^13-2^15 and 2^17-2^18 by 5-40 %.
_PRODUCT_CHUNK = 1 << 16


def matmul(a: DenseMatrix, b: DenseMatrix, s: SemiringId) -> DenseMatrix:
    """Tropical matrix product C_ij = (+)_k A_ik (x) B_kj.

    The rows of C are accumulated a chunk at a time, one rank-1 update
    C <- C (+) A[:, k] (x) B[k, :] per k.
    """
    if a.cols != b.rows:
        raise ValueError(f"inner dimensions differ: {a.cols} vs {b.rows}")
    mul, add = _SWEEP_OPS[s]
    wide = s in _WIDE_ZERO
    lhs, rhs = (_encode(a._arr, s), _encode(b._arr, s)) if wide else (a._arr, b._arr)
    m, n = a.rows, b.cols
    out = np.empty((m, n), dtype=lhs.dtype)
    step = max(1, _PRODUCT_CHUNK // n)
    buf = np.empty(min(m, step) * n, dtype=lhs.dtype)
    for i0 in range(0, m, step):
        part = out[i0 : i0 + step]
        tmp = buf[: part.size].reshape(part.shape)
        cols = np.ascontiguousarray(lhs[i0 : i0 + step].T)
        mul(cols[0][:, None], rhs[0], out=part)
        for k in range(1, a.cols):
            mul(cols[k][:, None], rhs[k], out=tmp)
            add(part, tmp, out=part)
    return DenseMatrix._wrap(_decode(out, s).astype(_I32) if wide else out)


def matvec(a: DenseMatrix, x: Sequence[int], s: SemiringId) -> list[int]:
    """y_i = (+)_j A_ij (x) x_j."""
    xv = _check_vector(x)
    if a.cols != xv.shape[0]:
        raise ValueError(f"matrix has {a.cols} columns but vector has {xv.shape[0]}")
    return _vector_product(xv, a._arr.T, s)


def vecmat(
    x: Sequence[int], a: DenseMatrix, s: SemiringId, out: np.ndarray | None = None
) -> list[int] | np.ndarray:
    """y_j = (+)_i x_i (x) A_ij (the transpose-orientation product).

    With ``out``, a 1-D int64 array of A's column count, every y_j is
    written into it and out is returned; else y is a new list. A wrong
    ``out`` raises ValueError before anything is written.
    """
    if out is not None:
        _check_out(out, a.cols)
    xv = _check_vector(x)
    if a.rows != xv.shape[0]:
        raise ValueError(f"matrix has {a.rows} rows but vector has {xv.shape[0]}")
    return _vector_product(xv, a._arr, s, out)


def matpow(a: DenseMatrix, k: int, s: SemiringId) -> DenseMatrix:
    """A^k by repeated squaring; A^0 is the identity."""
    if a.rows != a.cols:
        raise ValueError("matrix power requires a square matrix")
    if k < 0:
        raise ValueError("power must be >= 0")
    result = identity(a.rows, s)
    base = a
    while k:
        if k & 1:
            result = matmul(result, base, s)
        k >>= 1
        if k:
            base = matmul(base, base, s)
    return result


# -- closure ------------------------------------------------------------------

# The error of a min-plus / max-plus closure or single-source solve that
# does not converge, and the sign of the cycle that improves every path
# through it.
DIVERGENCE = {
    SemiringId.MINPLUS: (NegativeCycleError, "negative"),
    SemiringId.MAXPLUS: (PositiveCycleError, "positive"),
}


def closure(a: DenseMatrix, s: SemiringId) -> DenseMatrix:
    """Kleene star A* = (+)_{k>=0} A^k via the in-place triple loop.

    Under min-plus and max-plus, a diagonal entry that (+)-improves on the
    multiplicative identity after the sweep (below 0 under min-plus, above 0
    under max-plus) means a cycle that improves every path through it:
    Kleene convergence does not hold, and a NegativeCycleError (min-plus) or
    PositiveCycleError (max-plus) carrying the computed matrix and the
    offending vertices is raised.
    """
    d = _closure_kernel(a, s)
    out = DenseMatrix._wrap(d)
    if s in DIVERGENCE:
        # the sweep starts each D_ii at D_ii (+) 0 and only (+)-improves it,
        # so an entry other than 0 is one that improved on 0
        bad = np.flatnonzero(np.diagonal(d) != 0)
        if bad.size:
            error, sign = DIVERGENCE[s]
            raise error(
                f"{sign} cycle through vertices {bad.tolist()}",
                vertices=tuple(bad.tolist()),
                matrix=out,
            )
    return out


def _closure_kernel(a: DenseMatrix, s: SemiringId) -> np.ndarray:
    """Vectorized closure, bit-identical to the scalar i-then-j loop.

    After the diagonal step, pass k of the scalar loop mutates row k and
    column k while still reading them. When D_kk == one(s) the rewrites are
    no-ops (x (+) x (x) one == x by idempotence), so the whole pass is one
    rank-1 update D <- D (+) D[:, k] (x) D[k, :] read from the pass-start
    values. The lattice semirings (maxmin, minmax, boolean) always satisfy
    this: absorption, x (+) (x (x) y) == x, keeps row and column k fixed
    whatever D_kk is. Each sweep runs on the narrowest dtype that is exact
    for its input, and every chunked update of every sweep goes through one
    helper, ``_rank1``:

    * Min-plus / max-plus (``_closure_plus``) with every entry that differs
      from zero(s) one-signed and inside the cap C = 2^14 - 1 (min-plus
      0 <= v < C, max-plus -C < v <= 0) run on int16 (``_closure_capped``),
      zero(s) held as C (-C). On one-signed values x -> min(x, C) (max-plus
      max(x, -C)) is a semiring homomorphism that also absorbs the scalar
      loop's clip and sentinel, and D_kk stays 0, so no pass diverges and
      the in-place sweep is the algebraic one: the sweep returns min(d, C)
      for every pair, with every sum within +-2C = +-32766 and no clip. An
      entry inside the cap is exact. Where entries sit at the cap,
      ``structure.reach`` on the edges tells the pairs without a path,
      which become zero(s); a pair with a path at the cap sends the input
      to the int32 path below.
    * Min-plus / max-plus that the capped path does not take, or gives
      back, run on int32 when (n - 1) * B <= 2^28, where B is the largest
      |v| over the entries that differ from zero(s). The zero is held as
      +Z (min-plus) or -Z (max-plus), Z = 3 * 2^28, and an entry beyond the
      cut 2^28 decodes to zero(s). Before the first divergent pass every
      stored value is an optimal path over intermediates < k, so a path of
      real edges lies within +-(n - 1) * B (inside the cut), and a path
      through a Z edge has |value| >= Z - (n - 2) * B (beyond the cut); the
      real one always wins, every sum stays within 2Z < 2^31, and no sum
      reaches the saturation range of the scalar loop. So the sweep needs
      neither a clip nor a saturation check. At the first divergent pass k
      (min-plus D_kk < 0, max-plus D_kk > 0) it stops, and ``_wide_sweep``
      resumes at pass k from that state, decoded and re-encoded by
      ``_encode``: int64 with the zero held as -/+_WIDE, a saturation check
      per pass, and the scalar order replayed in stages for each divergent
      pass. Up to pass k the wide sweep would have held the same finite
      values, since none of its sums saturates either. Inputs the bound
      rejects are swept wide from pass 0.
    * Max-min / min-max only compare values, so any strictly increasing
      recoding commutes with the sweep. When the finite values span at most
      _CODE_SPAN, they are shifted around their midpoint into int16 codes
      [-32767, 32766], NEG_INF / POS_INF are clipped to -32768 / 32767, and
      the codes are decoded after the sweep. Wider spans sweep on int32.
    * Boolean with every entry 0 or 1 is reachability, the reflexive-
      transitive closure of the edges (i, j) with A_ij == 1, which the
      scalar loop computes: no sweep runs, and ``structure.reach`` takes
      the edges from the nonzero entries. Other Boolean input sweeps
      bitwise on int32 (& and | do not commute with a recoding).

    The int32 sweep of at least 288 rows and the int16 ones (order codes or
    capped) of at least 576 run on every CPU the process may use
    (``_sweep``): each block of pivots first on its own rows, then on the
    other rows in worker threads. Every row still takes its passes in
    order, each from itself and the pivot row as that pass found it, so the
    result, and the state handed to ``_wide_sweep``, are those of one thread
    bit for bit. The wide sweep and ``matmul`` stay on one thread.
    """
    if a.rows != a.cols:
        raise ValueError("closure requires a square matrix")
    arr = a._arr
    if s in _WIDE_ZERO:
        return _closure_plus(arr, s)
    if s is SemiringId.BOOLEAN and arr.min() >= 0 and arr.max() <= 1:
        # the edges (i, j) with A_ij == 1; a 1-D nonzero is the fast one
        return structure.reach(a.rows, *np.divmod(np.flatnonzero(arr), a.rows))
    d = None if s is SemiringId.BOOLEAN else _closure_order(arr, s)
    if d is None:
        d = arr.copy()
        _sweep(d, s, sr.one(s))
    return d


# Elements of the product buffer of a closure pass: each rank-1 update runs
# in row chunks of this size. The int32 and int16 sweeps take _SWEEP_CHUNK:
# up to n = 512 that is one chunk, and at n = 1024 it was 20-30 % faster
# than one n x n buffer. The int64 sweep takes _WIDE_CHUNK, which stays in
# cache; at _SWEEP_CHUNK a min-plus sweep from pass 0 at n = 768 ran 15-25 %
# slower.
_SWEEP_CHUNK = 1 << 18
_WIDE_CHUNK = 1 << 15


def _rank1(block, col, row, s: SemiringId, step: int, buf, clip=False) -> None:
    """block (+)= col (x) row, ``step`` rows at a time through buf. ``clip``
    (wide encoding only) clips each finite sum to [FINITE_MIN, FINITE_MAX]
    and keeps each sum with zero(s) at the wide zero, as the saturating (x)
    of the scalar loop does."""
    mul, add = _SWEEP_OPS[s]
    for i0 in range(0, block.shape[0], step):
        part = block[i0 : i0 + step]
        out = buf[: part.size].reshape(part.shape)
        mul(col[i0 : i0 + step, None], row, out=out)
        if clip:
            zero = _wide_zero(out, s)
            np.clip(out, _LO, _HI, out=out)
            np.copyto(out, _WIDE_ZERO[s], where=zero)
        add(part, out, out=part)


# Threaded sweeps (see _sweep): an int32 sweep of at least 288 rows, or an
# int16 one of at least 576, runs on _WORKERS threads, the CPUs this process
# may run on, in blocks of _BLOCK pivots. The floors are where two workers
# on a 2-vCPU host started to win inside a CLI request (median of `apsp`,
# int32, or `bottleneck`, int16, on a graph of 16n edges, each request after
# a `reach`): int32 n = 256 9.6 -> 10.3 ms, n = 288 13.1 -> 12.6, n = 320
# 17.5 -> 15.7; int16 n = 448 19.4 -> 20.4, n = 512 27.5 -> 27.9, n = 576
# 41.5 -> 34.8. Shorter passes lose more to GIL hand-offs than they gain.
# Back to back, n = 1024 took 528 -> 265 ms (int32) and 188 -> 97 ms
# (int16). Blocks of 8, 32 and 64 pivots were no faster than 16. The capped
# min-plus int16 sweep, timed in process with the floor lifted (median of
# 15-21 sweeps alternating one and two workers, graphs of 16n edges): n =
# 448 19.6 -> 24.0 ms, 512 28.0 -> 33.6, 576 40.7 -> 43.9; max-min in the
# same runs 24.4 -> 31.2, 29.7 -> 36.1, 58.0 -> 63.7. On that host the two
# threads often ran on one vCPU (min-plus n = 1024 read 245 -> 135 ms in one
# run, 237 -> 215 in a later one), so those figures move no floor. The pool
# is made at the first threaded sweep, so an import starts no thread.
_WORKERS = (
    len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
)
_THREAD_FLOOR = {"int32": 288, "int16": 576}
_BLOCK = 16
_POOL = None
_POOL_LOCK = threading.Lock()


def _pool():
    """The sweep's worker threads, made at the first call."""
    global _POOL
    with _POOL_LOCK:
        if _POOL is None:
            from concurrent.futures import ThreadPoolExecutor

            _POOL = ThreadPoolExecutor(max(1, _WORKERS - 1), "tropical-sweep")
    return _POOL


def _forget_pool() -> None:
    """A forked child has none of its parent's threads: it makes its own pool."""
    global _POOL, _POOL_LOCK
    _POOL, _POOL_LOCK = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _sweep(d: np.ndarray, s: SemiringId, one: int) -> bool:
    """The narrow closure loop, in place on an encoded array whose one(s) is
    ``one``: the diagonal step, then D <- D (+) D[:, k] (x) D[k, :] for
    every k. Returns False, leaving d partly swept, at the first plus-
    semiring pass whose D_kk is not ``one`` (a divergent pass).

    A sweep of at least _THREAD_FLOOR[dtype] rows on more than one worker
    runs the passes in blocks of _BLOCK pivots k0..k1-1: first the block's
    passes on its pivot rows alone, keeping a copy of row k as pass k left
    it, then passes k0..stop-1 on every other row, one fixed contiguous
    range of rows per worker (``_passes``). Pass k updates row i from row i
    itself and row k as it stood at pass k, so every row takes the serial
    loop's updates in the serial order with the same operands, and a
    divergent pass leaves the serial loop's state. Otherwise the block is
    all n rows: the serial loop.
    """
    plus = s in _WIDE_ZERO
    n = d.shape[0]
    d[np.diag_indices(n)] = ADD_UFUNC[s](np.diagonal(d), one)
    step = max(1, _SWEEP_CHUNK // n)
    buf = np.empty(min(n, step) * n, dtype=d.dtype)
    floor = _THREAD_FLOOR.get(d.dtype.name)
    threaded = _WORKERS > 1 and floor is not None and n >= floor
    size = _BLOCK if threaded else n
    if threaded:
        piv = np.empty((size, n), dtype=d.dtype)
        bounds = [n * w // _WORKERS for w in range(_WORKERS + 1)]
        ranges = list(zip(bounds, bounds[1:]))
        bufs = [buf] + [np.empty(min(hi - lo, step) * n, dtype=d.dtype) for lo, hi in ranges[1:]]
    for k0 in range(0, n, size):
        k1 = stop = min(k0 + size, n)
        block = d[k0:k1]
        for k in range(k0, k1):
            if plus and d[k, k] != one:
                stop = k
                break
            _rank1(block, block[:, k], d[k], s, step, buf)
            if threaded:
                piv[k - k0] = d[k]
        if threaded and stop > k0:
            # each worker's rows outside the block
            parts = [
                [d[a:b] for a, b in ((lo, min(hi, k0)), (max(lo, k1), hi)) if a < b]
                for lo, hi in ranges
            ]
            pool = _pool()
            futures = [
                pool.submit(_passes, rows, k0, stop, piv, s, step, b)
                for rows, b in zip(parts[1:], bufs[1:])
                if rows
            ]
            try:
                _passes(parts[0], k0, stop, piv, s, step, buf)
            finally:
                for f in futures:
                    f.result()
        if stop < k1:
            return False
    return True


def _passes(parts, k0: int, k1: int, piv, s: SemiringId, step: int, buf) -> None:
    """Passes k0..k1-1 on each row block in parts, from row k as pass k
    found it, held in piv[k - k0]: ``step`` rows at a time through buf, each
    chunk taking all the passes while it stays in cache."""
    mul, add = _SWEEP_OPS[s]
    for rows in parts:
        for i0 in range(0, rows.shape[0], step):
            part = rows[i0 : i0 + step]
            out = buf[: part.size].reshape(part.shape)
            for k in range(k0, k1):
                mul(part[:, k, None], piv[k - k0], out=out)
                add(part, out, out=part)


# Narrow int32 plus-semiring sweep: the zero is held as +-_NARROW_ZERO, and
# entries beyond +-_NARROW_CUT decode to it; exact when (n - 1) * B <= the
# cut (see _closure_kernel).
_NARROW_ZERO = 3 * 2**28
_NARROW_CUT = 2**28


def _closure_plus(arr: np.ndarray, s: SemiringId) -> np.ndarray:
    """Min-plus / max-plus closure: the capped int16 sweep on one-signed input
    whose entries lie inside the cap, unless a reachable pair sits at the
    cap; else the int32 sweep while the bound holds and no pass diverges,
    the wide sweep from the first pass where either fails."""
    n = arr.shape[0]
    minplus = s is SemiringId.MINPLUS
    live = arr != sr.zero(s)
    lo, hi = int(arr.min(where=live, initial=0)), int(arr.max(where=live, initial=0))
    if (0 <= lo and hi < _CAP) if minplus else (-_CAP < lo and hi <= 0):
        d = _closure_capped(arr, live, s)
        if d is not None:
            return d
    if (n - 1) * max(-lo, hi) > _NARROW_CUT:
        return _wide_sweep(_encode(arr, s), s, 0)
    d = np.where(live, arr, _NARROW_ZERO if minplus else -_NARROW_ZERO)
    done = _sweep(d, s, 0)
    d[d > _NARROW_CUT if minplus else d < -_NARROW_CUT] = sr.zero(s)
    if done:
        return d
    # every pass before the divergent one left its own D_jj at 0
    return _wide_sweep(_encode(d, s), s, int(np.flatnonzero(np.diagonal(d))[0]))


# Cap of the int16 plus-semiring sweep: one-signed entries strictly inside
# +-_CAP, and zero(s) held at it, sum to at most 2 * _CAP = 32766 in
# magnitude (see _closure_kernel).
_CAP = 2**14 - 1


def _closure_capped(arr: np.ndarray, live: np.ndarray, s: SemiringId) -> np.ndarray | None:
    """Min-plus closure of entries in [0, _CAP) (max-plus: (-_CAP, 0]) with
    zero(s) held as _CAP (-_CAP), on int16; None when a reachable pair
    ends at the cap, whose value the codes do not hold."""
    n = arr.shape[0]
    cap = _CAP if s is SemiringId.MINPLUS else -_CAP
    codes = np.where(live, arr, cap).astype(np.int16)
    _sweep(codes, s, 0)
    d = codes.astype(_I32)
    at_cap = codes == cap
    if at_cap.any():
        # an entry at the cap is a path of weight +-_CAP or beyond, or none
        if structure.reach(n, *np.divmod(np.flatnonzero(live), n))[at_cap].any():
            return None
        d[at_cap] = sr.zero(s)
    return d


def _wide_sweep(w: np.ndarray, s: SemiringId, start: int) -> np.ndarray:
    """Passes start..n-1 of the min-plus / max-plus sweep, in place on the
    wide encoding of the input (start 0) or of its state after passes
    0..start-1; returns the int32 result.

    A rank-1 pass saturates only when a finite sum can leave
    [FINITE_MIN, FINITE_MAX]; the O(n) bound check on row and column k
    decides whether the n^2 clip runs. The result is decoded without a clip:
    each sum was clipped where it had to be, and the other sentinel (POS_INF
    under max-plus, NEG_INF under min-plus) is a value that must stay.
    """
    n = w.shape[0]
    # the diagonal step, a no-op on a resumed state
    w[np.diag_indices(n)] = ADD_UFUNC[s](np.diagonal(w), 0)
    step = max(1, _WIDE_CHUNK // n)
    buf = np.empty(min(n, step) * n, dtype=_I64)
    for k in range(start, n):
        if w[k, k] != 0:
            _staged_pass(w, k, s, step, buf)
            continue
        col, row = w[:, k], w[k]
        col_fin, row_fin = ~_wide_zero(col, s), ~_wide_zero(row, s)
        # D_kk == 0 is finite, so both masks select at least one entry
        clip = (
            col.min(where=col_fin, initial=_HI) + row.min(where=row_fin, initial=_HI) < _LO
            or col.max(where=col_fin, initial=_LO) + row.max(where=row_fin, initial=_LO) > _HI
        )
        _rank1(w, col, row, s, step, buf, clip)
    w[_wide_zero(w, s)] = sr.zero(s)
    return w.astype(_I32)


def _staged_pass(w: np.ndarray, k: int, s: SemiringId, step: int, buf: np.ndarray) -> None:
    """Pass k of the scalar i-then-j loop on the wide encoding, replayed
    exactly.

    The scalar loop rewrites column k (at j == k) and row k (at i == k) while
    still reading them, so the update runs in three stages: rows above k
    (row k still pre-update), row k itself (D_kk read by every j and
    rewritten at j == k), and rows below k (row k fully updated). In each,
    the columns up to k read column k as the stage found it (a chunk forms
    all its sums before it folds them in), and the columns after k read it
    rewritten.
    """
    rowk = w[k]
    for rows in (w[:k], rowk[None], w[k + 1 :]):
        _rank1(rows[:, : k + 1], rows[:, k], rowk[: k + 1], s, step, buf, clip=True)
        _rank1(rows[:, k + 1 :], rows[:, k], rowk[k + 1 :], s, step, buf, clip=True)


# Widest span hi - lo of finite values that int16 order codes hold: the
# finite values take the codes -32767..32766, the sentinels -32768 / 32767.
_CODE_SPAN = 65533


def _closure_order(arr: np.ndarray, s: SemiringId) -> np.ndarray | None:
    """Max-min / min-max sweep on int16 order codes; None when the finite
    values span more than _CODE_SPAN."""
    lo = int(arr.min(where=arr != sr.NEG_INF, initial=sr.POS_INF))
    hi = int(arr.max(where=arr != sr.POS_INF, initial=sr.NEG_INF))
    if hi - lo > _CODE_SPAN:
        return None
    # the ceiling of the midpoint, kept far enough from the sentinels that
    # both clip to the extreme codes
    off = min(max((lo + hi + 1) >> 1, sr.NEG_INF + 32768), sr.POS_INF - 32767)
    codes = (np.clip(arr, off - 32768, off + 32767) - off).astype(np.int16)
    _sweep(codes, s, 32767 if s is SemiringId.MAXMIN else -32768)
    d = codes.astype(_I32) + off
    d[codes == -32768] = sr.NEG_INF
    d[codes == 32767] = sr.POS_INF
    return d


# -- scalar reference kernels --------------------------------------------------

def matmul_reference(a: DenseMatrix, b: DenseMatrix, s: SemiringId) -> DenseMatrix:
    """Three-loop scalar product in i-k-j order; the correctness reference."""
    if a.cols != b.rows:
        raise ValueError(f"inner dimensions differ: {a.cols} vs {b.rows}")
    arows = a.to_rows()
    brows = b.to_rows()
    m, kk, n = a.rows, a.cols, b.cols
    add_ = sr.add_fn(s)
    mul_ = sr.mul_fn(s)
    z = sr.zero(s)
    out = [[z] * n for _ in range(m)]
    for i in range(m):
        arow = arows[i]
        crow = out[i]
        for k in range(kk):
            aik = arow[k]
            brow = brows[k]
            for j in range(n):
                crow[j] = add_(crow[j], mul_(aik, brow[j]))
    return DenseMatrix(out)


def matvec_reference(a: DenseMatrix, x: Sequence[int], s: SemiringId) -> list[int]:
    xs = list(x)
    if a.cols != len(xs):
        raise ValueError(f"matrix has {a.cols} columns but vector has {len(xs)}")
    add_ = sr.add_fn(s)
    mul_ = sr.mul_fn(s)
    z = sr.zero(s)
    out = []
    for row in a.to_rows():
        acc = z
        for aj, xj in zip(row, xs):
            acc = add_(acc, mul_(aj, xj))
        out.append(acc)
    return out


def vecmat_reference(x: Sequence[int], a: DenseMatrix, s: SemiringId) -> list[int]:
    xs = list(x)
    if a.rows != len(xs):
        raise ValueError(f"matrix has {a.rows} rows but vector has {len(xs)}")
    add_ = sr.add_fn(s)
    mul_ = sr.mul_fn(s)
    out = [sr.zero(s)] * a.cols
    for xi, row in zip(xs, a.to_rows()):
        for j, aij in enumerate(row):
            out[j] = add_(out[j], mul_(xi, aij))
    return out


def closure_reference(a: DenseMatrix, s: SemiringId) -> DenseMatrix:
    """Literal in-place scalar sweep (diagonal (+) one, then the k-i-j loop).

    No negative-cycle check; this is the raw kernel the vectorized closure
    must reproduce bit-for-bit.
    """
    if a.rows != a.cols:
        raise ValueError("closure requires a square matrix")
    n = a.rows
    add_ = sr.add_fn(s)
    mul_ = sr.mul_fn(s)
    d = a.to_rows()
    e = sr.one(s)
    for i in range(n):
        d[i][i] = add_(d[i][i], e)
    for k in range(n):
        dk = d[k]
        for i in range(n):
            di = d[i]
            for j in range(n):
                di[j] = add_(di[j], mul_(di[k], dk[j]))
    return DenseMatrix(d)
