"""Shared rings, example modules, corpus helpers, and the dense
references for graded pieces, for the reduced row echelon form and for
the oracle's Ext ranks."""

import random
from itertools import accumulate

import numpy as np
import pytest

from multireg import (
    FreeModuleSpec,
    MatrixOverS,
    Poly,
    Presentation,
    RingSpec,
    ideal_matrix,
    irrelevant_ideal,
    modp,
    monomials_of_degree,
    poly_from_string,
    saturate,
)
from multireg.ringcore import checked_degree, deg_add, deg_sub, mono_mul


@pytest.fixture(scope="session")
def P11():
    return RingSpec((1, 1))


@pytest.fixture(scope="session")
def P12():
    return RingSpec((1, 2))


@pytest.fixture(scope="session")
def P22():
    return RingSpec((2, 2))


@pytest.fixture(scope="session")
def P111():
    return RingSpec((1, 1, 1))


def pp(ring, text):
    return poly_from_string(ring, text)


@pytest.fixture(scope="session")
def not_linear_module(P11):
    """The rank-4 module whose truncation at (1,0) is quasilinear but
    not linear; its Betti numbers are symmetric in the two factors."""
    return _not_linear(P11, mirror=False)


@pytest.fixture(scope="session")
def not_linear_mirror(P11):
    return _not_linear(P11, mirror=True)


def _not_linear(ring, mirror):
    a, b = ("y", "x") if mirror else ("x", "y")
    rows = [(0, 1), (0, 1), (1, 0), (1, 0)] if mirror else \
        [(1, 0), (1, 0), (0, 1), (0, 1)]
    Z = Poly.zero(ring)
    e = lambda s: pp(ring, s)
    entries = [
        [-e(f"{b}0"), Z, -e(f"{b}0"), Z],
        [Z, -e(f"{b}1"), Z, -e(f"{b}1")],
        [e(f"{a}0"), e(f"{a}1"), Z, Z],
        [Z, Z, e(f"{a}1"), e(f"{a}0")],
    ]
    F0 = FreeModuleSpec(ring, rows)
    rel = MatrixOverS.from_entries(FreeModuleSpec(ring, [(1, 1)] * 4),
                                   F0, entries)
    return Presentation(F0, rel)


@pytest.fixture(scope="session")
def hyperelliptic(P12):
    """Saturated ideal of the genus-4 hyperelliptic curve of bidegree
    (2,8), as a matrix into S; computed once per session."""
    f1 = pp(P12, "x0^2*y0^2 + x1^2*y1^2 + x0*x1*y2^2")
    f2 = pp(P12, "x0^3*y2 + x1^3*(y0 + y1)")
    return saturate(ideal_matrix(P12, [f1, f2]), irrelevant_ideal(P12))


@pytest.fixture(scope="session")
def hyperelliptic_module(hyperelliptic):
    return Presentation(hyperelliptic.target, hyperelliptic)


@pytest.fixture(scope="session")
def overlong_frame_module(P11):
    """A saturated quotient of S on P1 x P1 whose truncation at (3,3)
    has a Schreyer frame of five differentials on four variables
    (ranks 6, 22, 30, 20, 7, 1)."""
    gens = [pp(P11, "x1*y1^2"), pp(P11, "x0*x1^2"), pp(P11, "y1^4"),
            pp(P11, "x0^2*y1^2 - 7309*x0*x1*y0^2")]
    return Presentation.quotient_by_ideal(P11, gens)


HYPERELLIPTIC_BETTI = {
    (0, (0, 0)): 1,
    (1, (3, 1)): 1, (1, (2, 2)): 1, (1, (2, 3)): 2, (1, (1, 5)): 3,
    (1, (0, 8)): 1,
    (2, (3, 3)): 3, (2, (2, 5)): 6, (2, (1, 7)): 1, (2, (1, 8)): 2,
    (3, (3, 5)): 3, (3, (2, 7)): 2, (3, (2, 8)): 1,
    (4, (3, 7)): 1,
}

HYPERELLIPTIC_TRUNC_21_BETTI = {
    (0, (2, 1)): 9,
    (1, (3, 1)): 7, (1, (2, 2)): 10, (1, (2, 3)): 2,
    (2, (3, 2)): 6, (2, (2, 3)): 3, (2, (3, 3)): 3,
    (3, (3, 3)): 2,
}

SB_P12_BETTI = {
    (0, (0, 0)): 1,
    (1, (1, 1)): 6,
    (2, (1, 2)): 6, (2, (2, 1)): 3,
    (3, (1, 3)): 2, (3, (2, 2)): 3,
    (4, (2, 3)): 1,
}


def random_homogeneous_gen(ring, rng, maxdeg=2, binomial_rate=0.5):
    """One random monomial or binomial, homogeneous, nonzero degree."""
    while True:
        d = tuple(rng.randint(0, maxdeg) for _ in range(ring.r))
        if any(d):
            break
    monos = monomials_of_degree(ring, d)
    m1 = rng.choice(monos)
    if rng.random() >= binomial_rate or len(monos) == 1:
        return Poly.monomial(ring, m1)
    m2 = rng.choice(monos)
    if m2 == m1:
        return Poly.monomial(ring, m1)
    return Poly.monomial(ring, m1) + Poly.monomial(
        ring, m2, rng.randint(1, ring.p - 1))


def random_saturated_quotient(ring, rng, ngens=None, maxdeg=2,
                              max_hilbert=None, probe=None):
    """A random saturated monomial/binomial quotient of the ring, or
    None when the draw degenerates (unit or zero ideal, or a quotient
    too big for the requested budget)."""
    from multireg import hilbert_function
    if ngens is None:
        ngens = rng.randint(2, 3)
    gens = [random_homogeneous_gen(ring, rng, maxdeg) for _ in range(ngens)]
    I = saturate(ideal_matrix(ring, gens), irrelevant_ideal(ring))
    if I.source.rank == 0:
        return None
    if any(not c.terms[0][0][0] for c in I.columns):
        return None  # unit ideal
    M = Presentation(I.target, I)
    if max_hilbert is not None:
        if probe is None:
            probe = tuple(6 for _ in range(ring.r))
        if hilbert_function(M, probe) > max_hilbert:
            return None
    return M


def saturated_corpus(ring, count, seed, **kw):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        M = random_saturated_quotient(ring, rng, **kw)
        if M is not None:
            out.append(M)
    return out


# ---------------------------------------------------------------------------
# dense reference: free pieces, graded blocks of matrices and their
# ranks, computed without a Groebner basis, so tests of the basis, the
# syzygies and the resolutions do not check the library against itself

def free_basis_of_degree(spec, d):
    """Basis of the degree-d piece of a free module: pairs (component,
    monomial), component-major, monomials in descending term order."""
    d = checked_degree(d, spec.ring.r)
    return [(k, m) for k, tw in enumerate(spec.twists)
            for m in monomials_of_degree(spec.ring, deg_sub(d, tw))]


def graded_block(A, d):
    """The degree-d piece of a MatrixOverS as a dense F_p matrix.

    Rows index free_basis_of_degree(target, d); columns index pairs
    (source column l, monomial of degree d - source.twists[l]).
    Returns (matrix, row_basis).
    """
    ring = A.ring
    rows = free_basis_of_degree(A.target, d)
    index = {cm: i for i, cm in enumerate(rows)}
    cols = []
    for l, col in enumerate(A.columns):
        for m in monomials_of_degree(ring, deg_sub(d, A.source.twists[l])):
            vec = np.zeros(len(rows), dtype=np.int64)
            for (_, mm, negc), c in col.terms:
                vec[index[(-negc, mono_mul(mm, m))]] = c
            cols.append(vec)
    if not cols:
        return np.zeros((len(rows), 0), dtype=np.int64), rows
    return np.stack(cols, axis=1), rows


def dense_hilbert_function(M, d):
    """dim_k M_d as the rank deficiency of the degree-d block of the
    relation matrix."""
    block, rows = graded_block(M.relations, d)
    return len(rows) - modp.rank(block, M.ring.p)


def check_exactness(C, M, box):
    """Degreewise, on the dense blocks: rank d_i + rank d_{i+1} spans
    each middle term, and the Euler characteristic of C equals the
    Hilbert function of M."""
    p = C.ring.p
    for d in box:
        dims = [len(free_basis_of_degree(t, d)) for t in C.terms]
        ranks = [modp.rank(graded_block(diff, d)[0], p)
                 for diff in C.differentials]
        for i in range(1, len(C.terms) - 1):
            assert ranks[i - 1] + ranks[i] == dims[i], (d, i)
        chi = sum((-1) ** i * dim for i, dim in enumerate(dims))
        assert chi == dense_hilbert_function(M, d), d


# ---------------------------------------------------------------------------
# reference for the oracle: the Ext dimensions of Hom(complex, M) in one
# degree from the rank of every differential on all of its rows, as the
# oracle computed them before it ranked each one only on the free
# coordinates of the one above

def full_rank_ext_dims(pieces, twists, entries, pdeg, max_index):
    """``cohomology._ext_dims_at`` with every differential assembled
    whole and ranked on its own."""
    p = pieces.ring.p
    degrees = [[deg_add(pdeg, tw) for tw in tws] for tws in twists]
    offsets = [list(accumulate((pieces.dim(e) for e in degs), initial=0))
               for degs in degrees]
    ranks = []
    for j, diff in enumerate(entries):
        rows, cols = offsets[j + 1], offsets[j]
        A = np.zeros((rows[-1], cols[-1]), dtype=np.int64)
        for l, k, f in diff:
            A[rows[l]:rows[l + 1], cols[k]:cols[k + 1]] = \
                pieces.mult_matrix(f, degrees[j][k])
        ranks.append(modp.rank(A, p))
    out = {}
    for i in range(max_index + 1):
        d = offsets[i][-1] if i < len(offsets) else 0
        r_i = ranks[i] if i < len(ranks) else 0
        r_prev = ranks[i - 1] if 0 < i <= len(ranks) else 0
        out[i] = d - r_i - r_prev
    return out


# ---------------------------------------------------------------------------
# reference for elimination: the reduced row echelon form, built from the
# echelon basis ``modp.rref`` returns by the back-substitution it once ran

def reduced_form(echelon, ncols, p):
    """The reduced row echelon form of the span of an echelon basis
    {leading column: sparse row with leading entry 1}, without zero
    rows, as an int64 array of residues in [0, p) with one row per
    pivot in ascending order.  The basis is left as it was."""
    rows = {c: dict(row) for c, row in echelon.items()}
    pivots = sorted(rows)
    # back-substitute from the last pivot up: every row used is reduced
    for c in reversed(pivots):
        row = rows[c]
        for k in [k for k in row if k != c and k in rows]:
            modp._axpy(row, -row[k], rows[k], p)
    R = np.zeros((len(pivots), ncols), dtype=np.int64)
    for i, c in enumerate(pivots):
        R[i, list(rows[c])] = list(rows[c].values())
    return R
