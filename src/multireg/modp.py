"""Exact sparse linear algebra over a prime field.

One kernel: ``_echelon`` eliminates sparse rows of Python ints, so the
arithmetic is exact for every prime, into an echelon basis keyed by
leading column, sparsest rows first.  ``rref`` and ``rank`` read a
dense matrix once into such rows (``_sparse_rows``); ``rref`` returns
the basis and its pivots, and ``rank`` counts it.  ``rank_rows`` takes
the sparse rows themselves and counts the basis.

Three callers remain, and none needs a reduced form.  The cohomology
oracle ranks the differentials of each Ext complex from the top down:
it reads the ``rref`` pivots of every differential above the bottom
one, which fix the rows the next one down keeps, and takes the
``rank`` of the bottom one.  The graded pieces' minimal generators of a
truncation are the basis elements at the ``rref`` pivots of an identity
block placed after the one-variable shifts.  Both hand over dense int64
arrays of graded pieces, which are typically a few percent dense.  The
graded pieces' Koszul homology assembles its differentials as sparse
rows and takes their ``rank_rows``.
"""

import numpy as np


def _axpy(row, f, other, p):
    """row += f * other over F_p, for sparse rows {column: residue}."""
    for j, v in other.items():
        x = (row.get(j, 0) + f * v) % p
        if x:
            row[j] = x
        else:
            del row[j]


def _echelon(rows, p):
    """Echelon basis {leading column: row with leading entry 1} of the
    span of the sparse rows {column: residue in [1, p)}, reducing each
    row in place, sparsest first."""
    echelon = {}
    for row in sorted(rows, key=len):
        while row:
            c = min(row)
            lead = echelon.get(c)
            if lead is None:
                inv = pow(row[c], -1, p)
                echelon[c] = {j: v * inv % p for j, v in row.items()}
                break
            _axpy(row, -row[c], lead, p)
    return echelon


def _sparse_rows(A, p):
    """The rows of the dense 2-d matrix A as sparse dicts {column:
    residue in [1, p)}."""
    A = np.asarray(A)
    if A.ndim != 2:
        raise ValueError("expected a 2-d array")
    rows = [{} for _ in range(A.shape[0])]
    ii, jj = np.nonzero(A)
    for i, j, v in zip(ii.tolist(), jj.tolist(), A[ii, jj].tolist()):
        v = int(v) % p
        if v:
            rows[i][j] = v
    return rows


def rref(A, p):
    """Echelon basis of the rows of A over F_p, and its pivots.

    Returns (echelon, pivots): {leading column: sparse row with leading
    entry 1}, and those columns ascending, which are the pivots of the
    reduced row echelon form; len(pivots) is the rank.  The name, (A, p)
    and pivots at [1] are read by ``bench/layers.py`` and pinned by
    ``tests/test_bench_wiring.py``.
    """
    echelon = _echelon(_sparse_rows(A, p), p)
    return echelon, sorted(echelon)


def rank(A, p):
    """Rank of the dense matrix A over F_p: the size of an echelon
    basis of its rows, with no back-substitution."""
    return len(_echelon(_sparse_rows(A, p), p))


def rank_rows(rows, p):
    """Rank over F_p of the matrix whose rows are the sparse dicts
    {column: residue in [1, p)} of ``rows`` (an empty dict is a zero
    row; no row means rank 0).

    The rows are consumed: elimination reduces them in place, so a
    caller that needs them afterwards passes copies.
    """
    return len(_echelon(rows, p))
