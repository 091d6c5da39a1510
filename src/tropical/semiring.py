"""The five tropical semirings and their scalar kernels.

Values are 32-bit signed integers. The two extreme representable values are
reserved sentinels for -infinity and +infinity; finite values live in the
closed range [NEG_INF + 1, POS_INF - 1]. Plus-style multiplication saturates
into that finite range (computed in a wider intermediate), so no sequence of
operations on finite operands can ever produce a sentinel by accident.
"""

from __future__ import annotations

import enum
import operator
from typing import Callable

NEG_INF = -(2**31)
POS_INF = 2**31 - 1
FINITE_MIN = NEG_INF + 1
FINITE_MAX = POS_INF - 1


class SemiringId(enum.Enum):
    MAXPLUS = 0   # (max, +)   scheduling, longest paths
    MINPLUS = 1   # (min, +)   shortest paths
    MAXMIN = 2    # (max, min) bottleneck / bandwidth paths
    MINMAX = 3    # (min, max) reliability paths
    BOOLEAN = 4   # (or, and)  reachability


SEMIRING_TOKENS = {
    "maxplus": SemiringId.MAXPLUS,
    "minplus": SemiringId.MINPLUS,
    "maxmin": SemiringId.MAXMIN,
    "minmax": SemiringId.MINMAX,
    "boolean": SemiringId.BOOLEAN,
}

TOKEN_OF = {s: t for t, s in SEMIRING_TOKENS.items()}

_ZERO = {
    SemiringId.MAXPLUS: NEG_INF,
    SemiringId.MINPLUS: POS_INF,
    SemiringId.MAXMIN: NEG_INF,
    SemiringId.MINMAX: POS_INF,
    SemiringId.BOOLEAN: 0,
}

_ONE = {
    SemiringId.MAXPLUS: 0,
    SemiringId.MINPLUS: 0,
    SemiringId.MAXMIN: POS_INF,
    SemiringId.MINMAX: NEG_INF,
    SemiringId.BOOLEAN: 1,
}


def parse_semiring(token: str) -> SemiringId:
    """Map a lowercase file/CLI token to a SemiringId."""
    try:
        return SEMIRING_TOKENS[token]
    except KeyError:
        raise ValueError(f"unknown semiring token {token!r}") from None


def zero(s: SemiringId) -> int:
    """Additive identity (and multiplicative annihilator) of semiring s."""
    return _ZERO[s]


def one(s: SemiringId) -> int:
    """Multiplicative identity of semiring s."""
    return _ONE[s]


def _max(a, b):
    return a if a > b else b


def _min(a, b):
    return a if a < b else b


def _saturating_plus(zero: int):
    """Plus-semiring (x) with annihilator ``zero``, clipped to the finite range."""
    def mul(a, b, _zero=zero, _lo=FINITE_MIN, _hi=FINITE_MAX):
        if a == _zero or b == _zero:
            return _zero
        v = a + b
        return _hi if v > _hi else (_lo if v < _lo else v)
    return mul


# scalar (+) and (x) of each semiring
_ADD = {
    SemiringId.MAXPLUS: _max,
    SemiringId.MINPLUS: _min,
    SemiringId.MAXMIN: _max,
    SemiringId.MINMAX: _min,
    SemiringId.BOOLEAN: operator.or_,
}

_MUL = {
    SemiringId.MAXPLUS: _saturating_plus(NEG_INF),
    SemiringId.MINPLUS: _saturating_plus(POS_INF),
    SemiringId.MAXMIN: _min,
    SemiringId.MINMAX: _max,
    SemiringId.BOOLEAN: operator.and_,
}


def add(a: int, b: int, s: SemiringId) -> int:
    """Semiring addition a (+) b."""
    return _ADD[s](a, b)


def mul(a: int, b: int, s: SemiringId) -> int:
    """Semiring multiplication a (x) b with sentinel-safe saturation."""
    return _MUL[s](a, b)


def natural_leq(a: int, b: int, s: SemiringId) -> bool:
    """Natural partial order of an idempotent semiring: a <= b iff a (+) b == b."""
    return add(a, b, s) == b


def add_fn(s: SemiringId) -> Callable[[int, int], int]:
    """Scalar (+) of s as a function of two values, for tight loops."""
    return _ADD[s]


def mul_fn(s: SemiringId) -> Callable[[int, int], int]:
    """Scalar (x) of s as a function of two values, for tight loops."""
    return _MUL[s]
