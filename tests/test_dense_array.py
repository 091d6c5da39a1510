"""DenseMatrix built from a 2-D array: checked as a whole, with the result,
errors and messages of the row-by-row path (the one every other input, and
an array of any other dimension, still takes)."""

import numpy as np
import pytest

from tropical import NEG_INF, POS_INF, DenseMatrix


def outcome(rows):
    try:
        m = DenseMatrix(rows)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)
    return m._arr.dtype.name, m._arr.tolist()


CASES = [
    np.array([[1, 2], [3, 4]], dtype=np.int8),
    np.array([[NEG_INF, POS_INF], [0, -5]], dtype=np.int64),
    np.array([[7, 0, 65535]], dtype=np.uint16),
    np.array([[True, False]]),
    np.array([[1, 2**40]], dtype=object),
    np.array([[1.0, 2.0]]),  # float dtype
    np.array([[2**31, NEG_INF - 1]], dtype=np.int64),  # the first value is out of range
    np.array([[5, NEG_INF - 1], [2**31, 0]], dtype=np.int64),
    np.array([[1, 2**64 - 1]], dtype=np.uint64),
    np.zeros((0, 0), dtype=np.int32),
    np.zeros((0, 3), dtype=np.int32),
    np.zeros((3, 0), dtype=np.int32),
    np.array([1, 2, 3]),  # 1-D
    np.zeros((2, 2, 2), dtype=np.int32),
]


@pytest.mark.parametrize("arr", CASES, ids=lambda a: f"{a.dtype}{a.shape}")
def test_array_path_matches_the_row_path(arr):
    # list(arr) is a list of row arrays: the row-by-row path
    assert outcome(arr) == outcome(list(arr))


def test_array_path_errors():
    assert outcome(np.array([[1.0]])) == (TypeError, "tropical values must be integers, got float64")
    assert outcome(np.array([[0, 2**31]])) == (
        ValueError, "value 2147483648 outside the 32-bit tropical range"
    )
    assert outcome(np.zeros((0, 2), dtype=int)) == (
        ValueError, "matrix must have at least one row and one column"
    )


def test_array_path_copies_to_int32():
    arr = np.array([[1, 2], [3, 4]], dtype=np.int64)
    m = DenseMatrix(arr)
    arr[0, 0] = 9
    assert m._arr.dtype.name == "int32" and m.to_rows() == [[1, 2], [3, 4]]
