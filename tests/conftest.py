"""Shared rings, example modules, corpus helpers, the dense references
for graded pieces, for the reduced row echelon form and for the
oracle's Ext ranks, the by-B references for saturation and torsion, and
the virtual-resolution check of a region's degrees."""

import random
from functools import reduce
from itertools import accumulate, product
from operator import mul

import numpy as np
import pytest

from multireg import (
    FreeModuleSpec,
    InhomogeneousError,
    MatrixOverS,
    Poly,
    Presentation,
    RingSpec,
    Vector,
    betti,
    buchberger,
    colon_by_ideal,
    factor_ideals,
    free_resolution,
    ideal_matrix,
    modp,
    monomials_of_degree,
    normal_form,
    poly_from_string,
    saturate,
    structure_sheaf_local_cohomology,
    submodules_equal,
    syzygies,
)
from multireg.groebner import preimage
from multireg.ringcore import (box_points, checked_degree, deg_add, deg_leq,
                               deg_sub, mono_mul, vec_entries, vec_renumber)


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


# ---------------------------------------------------------------------------
# the irrelevant ideal B = m_1 ... m_r: the library works with the factors
# m_i alone, and these references list B's products to check it

def irrelevant_ideal(ring):
    """The Pi(n_i + 1) generators of B: every product of one variable
    from each factor, in the order of ``itertools.product``."""
    return [reduce(mul, gens) for gens in product(*factor_ideals(ring))]


def saturate_by_factors(N):
    """(N : B^infinity) as ``multireg saturate`` takes it: by each
    factor's maximal ideal in turn."""
    for m in factor_ideals(N.ring):
        N = saturate(N, m)
    return N


def torsion_free_by_B(M):
    """``module_is_saturated_at_zero`` by one colon by B's products."""
    rel = buchberger(M.relations).as_matrix()
    return colon_by_ideal(rel, irrelevant_ideal(M.ring)).columns == rel.columns


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
    return saturate_by_factors(ideal_matrix(P12, [f1, f2]))


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
    I = saturate_by_factors(ideal_matrix(ring, gens))
    if I.source.rank == 0:
        return None
    if any(not any(mono) for (_, mono), _ in
           (c.lead(ring) for c in I.columns)):
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
            for k, mm, c in vec_entries(col.terms, ring):
                vec[index[(k, mono_mul(mm, m))]] = c
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


def euler_violations(M, box, dims_at):
    """The points a of the box where the local cohomology dimensions
    dims_at(a) = [dim H^0_B(M)_a, dim H^1_B(M)_a, ...] break

        sum_i (-1)^i dim H^i_B(M)_a
            = sum over (j, b) of (-1)^j beta_{j,b}(M) chi_S(a - b),

    with chi_S(e) = sum_i (-1)^i dim H^i_B(S)_e from the Kunneth closed
    form.  Local cohomology turns a short exact sequence of graded
    modules into a long exact one of finite-dimensional pieces, so the
    alternating sum is additive along M's free resolution, and
    H^i_B(S(-b))_a = H^i_B(S)_{a-b}.  A table that breaks the identity
    is wrong; one that keeps it may still be wrong, so it never makes a
    table certified."""
    ring = M.ring
    top = sum(ring.n) + 1

    def chi(e):
        return sum((-1) ** i * structure_sheaf_local_cohomology(ring, i, e)
                   for i in range(top + 1))

    table = betti(free_resolution(M)).data
    bad = []
    for a in box_points(box):
        lhs = sum((-1) ** i * v for i, v in enumerate(dims_at(a)))
        rhs = sum((-1) ** j * n * chi(deg_sub(a, b))
                  for (j, b), n in table.items())
        if lhs != rhs:
            bad.append(a)
    return bad


def homogeneity_violations(matrices):
    """The messages with which the checked MatrixOverS constructor
    refuses to rebuild any of ``matrices``: the invariant that the
    Groebner engine relies on without reading its input again."""
    bad = []
    for m in matrices:
        try:
            MatrixOverS(m.source, m.target, m.columns)
        except InhomogeneousError as exc:
            bad.append(f"{m!r}: {exc}")
    return bad


def table_euler_violations(M, table):
    """``euler_violations`` of an oracle table of M over its box."""
    return euler_violations(
        M, table.box,
        lambda a: [table.dim(i, a) for i in range(table.max_index + 1)])


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


# ---------------------------------------------------------------------------
# virtual resolutions: a third check of a region, independent of the
# truncations and of the oracle

def virtual_resolution_violations(M, d):
    """Where the summands S(-a) of M's minimal free resolution with
    a <= d + n fail to form a virtual resolution of M, as one message
    per failure.  Berkesch, Erman and Smith ("Virtual resolutions for a
    product of projective spaces", Algebraic Geometry 7, 2020, Theorem
    1.3) prove that they form one for every d in reg(M).

    The summands form a subcomplex G, since every nonzero entry of a
    minimal resolution has a degree >= 0; a column that leaves them is
    reported.  G is a virtual resolution when its homology is B-torsion
    in every index i >= 1, which is ker d_i lying in the saturation of
    im d_{i+1} by B, and when H_0(G) -> M, induced by G_0 inside F_0,
    has B-torsion kernel and cokernel.  Saturations are by the factors
    in turn.  M's presentation must be minimal, so that F_0 is M.F0."""
    ring = M.ring
    top = deg_add(checked_degree(d, ring.r), ring.n)
    res = free_resolution(M)
    assert res.terms[0] == M.F0
    assert submodules_equal(res.differentials[0], M.relations)
    keep = [[k for k, tw in enumerate(F.twists) if deg_leq(tw, top)]
            for F in res.terms]
    G = [FreeModuleSpec(ring, [F.twists[k] for k in ks])
         for F, ks in zip(res.terms, keep)]
    bad, diffs = [], []
    for i, D in enumerate(res.differentials, start=1):
        rows = {k: j for j, k in enumerate(keep[i - 1])}
        cols = []
        for k in keep[i]:
            col = vec_renumber(D.columns[k].terms, rows)
            if len(col) < len(D.columns[k].terms):
                bad.append(f"d_{i} column {k} leaves the summands")
            cols.append(Vector(col))
        diffs.append(MatrixOverS(G[i], G[i - 1], cols))
    if bad:
        return bad

    def outside_saturation(vectors, N):
        gb = buchberger(saturate_by_factors(N))
        return sum(1 for v in vectors if normal_form(v, gb))

    for i in range(1, len(G)):
        if not G[i].rank:
            continue
        above = diffs[i] if i < len(diffs) else MatrixOverS(
            FreeModuleSpec(ring, ()), G[i], ())
        if n := outside_saturation(syzygies(diffs[i - 1]).columns, above):
            bad.append(f"H_{i}: {n} kernel generators not B-torsion")
    F0 = M.F0
    inc = MatrixOverS(G[0], F0, [Vector.unit(ring, k) for k in keep[0]])
    if G[0].rank:
        ker = preimage(inc, M.relations).columns
        if n := outside_saturation(ker, diffs[0]):
            bad.append(f"ker H_0: {n} generators not B-torsion")
    image = MatrixOverS.from_columns(F0, inc.columns + M.relations.columns)
    units = [Vector.unit(ring, k) for k in range(F0.rank)]
    if n := outside_saturation(units, image):
        bad.append(f"coker H_0: {n} generators of M not B-torsion")
    return bad
