"""The refusals of the public constructors and products: each bad argument
raises its own error type and message before any work is done."""

import pytest

import tropical as tr
from tropical import DenseMatrix, SemiringId

S = SemiringId.MINPLUS
A = DenseMatrix([[1, 2], [3, 4]])

CASES = {
    "filled-empty": (
        lambda: DenseMatrix.filled(0, 2, 0),
        ValueError, "matrix must have at least one row and one column",
    ),
    "identity-empty": (lambda: tr.identity(0, S), ValueError, "identity size must be >= 1"),
    "matpow-negative": (lambda: tr.matpow(A, -1, S), ValueError, "power must be >= 0"),
    "closure-not-square": (
        lambda: tr.closure(DenseMatrix([[1, 2, 3]]), S),
        ValueError, "closure requires a square matrix",
    ),
    "vecmat-empty": (
        lambda: tr.vecmat([], A, S), ValueError, "vector must have at least one element"
    ),
    "matvec-length": (
        lambda: tr.matvec(A, [1, 2, 3], S), ValueError, "matrix has 2 columns but vector has 3"
    ),
    "vecmat-length": (
        lambda: tr.vecmat([1, 2, 3], A, S), ValueError, "matrix has 2 rows but vector has 3"
    ),
    "ragged-vector": (
        lambda: tr.matvec(A, [[1, 2], [3]], S),
        TypeError, "tropical values must be integers, got list",
    ),
    "negative-ready": (
        lambda: tr.TaskGraph().add_task("a", 1, ready=-1),
        ValueError, "task 'a': ready time must be non-negative",
    ),
    "csr-empty": (
        lambda: tr.CsrMatrix(0, 1, [], [], [0], S),
        ValueError, "matrix must have at least one row and one column",
    ),
}


@pytest.mark.parametrize("call, error, message", CASES.values(), ids=CASES.keys())
def test_a_bad_argument_raises_its_error(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert type(exc.value) is error
    assert str(exc.value) == message
