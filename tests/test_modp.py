import numpy as np
import pytest

from multireg import modp

from .conftest import reduced_form


def _rref(A, p):
    """``modp.rref`` with its echelon basis read as the reduced form."""
    echelon, piv = modp.rref(A, p)
    return reduced_form(echelon, np.shape(A)[1], p), piv


def test_rref_identity():
    A = np.eye(3, dtype=np.int64)
    R, piv = _rref(A, 7)
    assert piv == [0, 1, 2]
    assert (R == A).all()


def _check_rref(A, p, rank):
    """R is reduced echelon with the expected rank, and every row of A
    is the combination of R's rows read off A's pivot columns."""
    R, piv = _rref(A, p)
    m, n = A.shape
    assert len(piv) == rank == modp.rank(A, p)
    assert R.shape == (rank, n) and R.dtype == np.int64
    assert piv == sorted(piv)
    Ro = R.astype(object)
    assert ((Ro >= 0) & (Ro < p)).all()
    for i, c in enumerate(piv):
        assert not Ro[i, :c].any()
        assert (Ro[:, c] == [int(i == k) for k in range(rank)]).all()
    assert (np.mod(A - A[:, piv] @ Ro, p) == 0).all()


@pytest.mark.parametrize("p", [11, 32003, 2 ** 61 - 1])
def test_rref_random_products(p):
    rng = np.random.default_rng(p % 1000)
    for _ in range(25):
        m, n = (int(x) for x in rng.integers(1, 25, 2))
        r = int(rng.integers(0, min(m, n) + 1))
        B = rng.integers(0, 2 ** 62, (m, r)).astype(object) % p
        C = rng.integers(0, 2 ** 62, (r, n)).astype(object) % p
        # exactly rank r: C carries an r x r identity in random columns
        cols = rng.choice(n, r, replace=False)
        C[:, cols] = np.eye(r, dtype=np.int64).astype(object)
        # and B full column rank: an identity in random rows
        B[rng.choice(m, r, replace=False)] = \
            np.eye(r, dtype=np.int64).astype(object)
        _check_rref(B.dot(C) % p, p, r)


def test_rref_degenerate_shapes():
    for shape in [(0, 4), (3, 0), (0, 0)]:
        R, piv = _rref(np.zeros(shape, dtype=np.int64), 5)
        assert piv == [] and R.shape == (0, shape[1])
        assert modp.rank(np.zeros(shape, dtype=np.int64), 5) == 0
    _check_rref(np.zeros((3, 4), dtype=np.int64), 5, 0)
    # entries divisible by p are zero
    _check_rref(np.array([[5, 10], [-15, 0]], dtype=np.int64), 5, 0)


def test_rref_zero_column_gaps():
    p = 11
    A = np.array([[0, 1, 0, 0, 2],
                  [0, 2, 0, 0, 4],
                  [0, 0, 0, 0, 1]], dtype=np.int64)
    R, piv = _rref(A, p)
    assert piv == [1, 4]
    assert R.tolist() == [[0, 1, 0, 0, 0], [0, 0, 0, 0, 1]]
    _check_rref(A, p, 2)


def _sparse_rows(A, p):
    return [{j: int(v) % p for j, v in enumerate(row) if int(v) % p}
            for row in A.tolist()]


@pytest.mark.parametrize("p", [32003, 2 ** 61 - 1])
def test_rank_rows_agrees_with_rank(p):
    """The sparse-row entry and the dense one share the echelon core:
    equal ranks on random sparse matrices of every rank, with zero rows
    mixed in, and on inputs with no rows or no columns."""
    rng = np.random.default_rng(p % 997)
    for _ in range(40):
        m, n = (int(x) for x in rng.integers(1, 30, 2))
        r = int(rng.integers(0, min(m, n) + 1))
        # sparse factors: about one entry in four is nonzero
        B = rng.integers(0, 2 ** 62, (m, r)).astype(object) % p
        B[rng.random((m, r)) < 0.75] = 0
        C = rng.integers(0, 2 ** 62, (r, n)).astype(object) % p
        C[rng.random((r, n)) < 0.75] = 0
        A = B.dot(C) % p
        A[rng.random(m) < 0.2] = 0
        A[int(rng.integers(m))] = 0
        assert modp.rank_rows(_sparse_rows(A, p), p) == modp.rank(A, p)
    assert modp.rank_rows([], p) == 0
    assert modp.rank_rows([{}, {}], p) == 0
    for shape in [(0, 5), (4, 0)]:
        A = np.zeros(shape, dtype=np.int64)
        assert modp.rank_rows(_sparse_rows(A, p), p) == modp.rank(A, p) == 0
