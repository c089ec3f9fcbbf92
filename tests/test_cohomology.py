import itertools
import re
from pathlib import Path

import numpy as np
import pytest

from multireg import (
    BoxTooSmall,
    Presentation,
    RingSpec,
    check_regularity_by_definition,
    free_resolution,
    hilbert_function,
    irrelevant_ideal,
    is_d_regular,
    line_bundle_cohomology,
    local_cohomology_box,
    parse_input,
    region_Q,
    structure_sheaf_local_cohomology,
    truncate_free,
    truncate_module,
)
from multireg.cohomology import (
    _ext_dims_at,
    _ext_entries,
    bracket_power_complex,
    default_t_start,
    required_corners,
)
from multireg.pieces import GradedPieces
from multireg.regularity import classify_resolution
from multireg.resolution import betti
from multireg.ringcore import (FreeModuleSpec, box_points, count_monomials,
                               deg_add, deg_sub)

from .conftest import (free_basis_of_degree, full_rank_ext_dims,
                       reduced_form, saturated_corpus)

DATA = Path(__file__).resolve().parent.parent / "data"


def test_line_bundle_sections():
    assert line_bundle_cohomology(2, 2) == [6, 0, 0]


def test_line_bundle_top():
    assert line_bundle_cohomology(2, -3) == [0, 0, 1]


def test_line_bundle_gap():
    assert line_bundle_cohomology(1, -1) == [0, 0]
    assert line_bundle_cohomology(3, -2) == [0, 0, 0, 0]


def test_structure_sheaf_bottom_vanishing(P12):
    for pdeg in [(0, 0), (-4, 3), (2, -5)]:
        assert structure_sheaf_local_cohomology(P12, 0, pdeg) == 0
        assert structure_sheaf_local_cohomology(P12, 1, pdeg) == 0


def test_structure_sheaf_kunneth_values(P12):
    assert structure_sheaf_local_cohomology(P12, 4, (-2, -3)) == 1
    assert structure_sheaf_local_cohomology(P12, 3, (-2, -3)) == 0
    # h^1(P1,O(-3)) * h^0(P2,O(1)) at i = 2
    assert structure_sheaf_local_cohomology(P12, 2, (-3, 1)) == 2 * 3


def test_structure_sheaf_vanishing_on_region_sums(P12, P111):
    """Sum of a level-i linear generator and a level-j quasilinear
    generator kills cohomology in index i + j + 1."""
    from multireg import region_L
    for ring in (P12, P111):
        zero = (0,) * ring.r
        for i in range(4):
            for j in range(4):
                gens_L = region_L(i, zero).minimal_generators
                gens_Q = region_Q(j, zero).minimal_generators
                for a in gens_L:
                    for b in gens_Q:
                        s = tuple(x + y for x, y in zip(a, b))
                        assert structure_sheaf_local_cohomology(
                            ring, i + j + 1, s) == 0, (ring.n, i, j, s)


def _bracket_quotient_dim(ring, t, d):
    """Monomials of degree d outside the bracket ideal: those where
    some block has every exponent below t."""
    from multireg import monomials_of_degree
    count = 0
    for m in monomials_of_degree(ring, d):
        inside = all(
            any(m[v] >= t for v in ring.block(i)) for i in range(ring.r))
        if not inside:
            count += 1
    return count


def test_bracket_complex_is_resolution(P11, P12, P22, P111):
    for ring, t in [(P11, 1), (P11, 3), (P12, 2), (P22, 2), (P111, 1),
                    (P111, 2)]:
        C = bracket_power_complex(ring, t)
        for i in range(len(C.differentials) - 1):
            assert C.differentials[i].compose(
                C.differentials[i + 1]).is_zero()
        # Euler characteristic = Hilbert function of the quotient by
        # the bracket ideal, computable by counting monomials
        for d in itertools.product(range(2 * t + 1), repeat=ring.r):
            chi = 0
            sign = 1
            for term in C.terms:
                chi += sign * len(free_basis_of_degree(term, d))
                sign = -sign
            assert chi == _bracket_quotient_dim(ring, t, d), (ring.n, t, d)


def test_bracket_t1_matches_engine_resolution(P11):
    """At t = 1 the bracket ideal is the irrelevant ideal itself, and
    the tensor resolution has its minimal Betti numbers."""
    C = bracket_power_complex(P11, 1)
    SB = Presentation.quotient_by_ideal(P11, irrelevant_ideal(P11))
    assert betti(C).data == betti(free_resolution(SB)).data


def test_local_cohomology_of_ring_cross_agreement(P11):
    S = Presentation.free(P11)
    tab = local_cohomology_box(S, ((-4, -4), (2, 2)))
    for i in range(4):
        for pdeg in itertools.product(range(-4, 3), repeat=2):
            assert tab.dim(i, pdeg) == structure_sheaf_local_cohomology(
                P11, i, pdeg), (i, pdeg)


def test_local_cohomology_of_ring_spot_p12(P12):
    S = Presentation.free(P12)
    tab = local_cohomology_box(S, ((-3, -4), (-1, -2)))
    for i in (3, 4):
        for pdeg in [(-2, -3), (-1, -3), (-2, -4), (-1, -2)]:
            assert tab.dim(i, pdeg) == structure_sheaf_local_cohomology(
                P12, i, pdeg), (i, pdeg)


def test_sb_torsion_class(P11):
    SB = Presentation.quotient_by_ideal(P11, irrelevant_ideal(P11))
    tab = local_cohomology_box(SB, ((0, 0), (1, 1)))
    assert tab.dim(0, (0, 0)) == 1


def test_truncation_cohomology_identity(not_linear_module):
    """Truncation changes local cohomology only in the bottom two
    indices below the truncation degree."""
    M = not_linear_module
    d = (1, 1)
    T = truncate_module(M, d)
    box = ((0, 0), (3, 3))
    tm = local_cohomology_box(M, box)
    tt = local_cohomology_box(T, box)
    for i in range(2, tm.max_index + 1):
        for pdeg in itertools.product(range(0, 4), repeat=2):
            assert tm.dim(i, pdeg) == tt.dim(i, pdeg), (i, pdeg)
    # and the degree-1 groups agree at degrees >= d
    for pdeg in itertools.product(range(1, 4), repeat=2):
        assert tm.dim(1, pdeg) == tt.dim(1, pdeg), pdeg


# local_cohomology_box over [-1,1]^r: t_used and the nonzero entries
# {(i, degree): dim}
EXT_TABLES = {
    "not_linear": (2, {
        (1, (-1, 1)): 2, (2, (-1, -1)): 4, (2, (-1, 0)): 2,
        (2, (-1, 1)): 2, (2, (0, -1)): 2}),
    "two_points": (3, {
        (1, (-1, -1, -1)): 2, (1, (-1, -1, 0)): 2, (1, (-1, -1, 1)): 2,
        (1, (-1, 0, -1)): 2, (1, (-1, 0, 0)): 2, (1, (-1, 0, 1)): 2,
        (1, (-1, 1, -1)): 2, (1, (-1, 1, 0)): 2, (1, (-1, 1, 1)): 2,
        (1, (0, -1, -1)): 2, (1, (0, -1, 0)): 2, (1, (0, -1, 1)): 2,
        (1, (0, 0, -1)): 2, (1, (0, 0, 0)): 1, (1, (0, 1, -1)): 2,
        (1, (1, -1, -1)): 2, (1, (1, -1, 0)): 2, (1, (1, -1, 1)): 2,
        (1, (1, 0, -1)): 2, (1, (1, 1, -1)): 2}),
    "hyperelliptic": (3, {
        (1, (-1, 1)): 3, (1, (0, 1)): 2, (1, (1, 1)): 1,
        (2, (-1, -1)): 13, (2, (-1, 0)): 5, (2, (0, -1)): 11,
        (2, (0, 0)): 4, (2, (1, -1)): 9, (2, (1, 0)): 3}),
}


@pytest.mark.parametrize("name", sorted(EXT_TABLES))
def test_ext_tables_are_pinned(name):
    """The oracle's tables on three data files, as computed when the
    graded pieces were still filtered from the free pieces and every
    block was read per degree.  not_linear's table is certified at
    t = 2, one power below the first one the heuristic tried."""
    M = parse_input((DATA / f"{name}.mr").read_text()).module()
    r = M.ring.r
    table = local_cohomology_box(M, ((-1,) * r, (1,) * r))
    assert (table.t_used, table.data) == EXT_TABLES[name]


def _ext_modules(P11, P12):
    """The data files, seeded corpora on P1xP1 and P1xP2, and one
    module over p = 2^61 - 1."""
    modules = [parse_input(path.read_text()).module()
               for path in sorted(DATA.glob("*.mr"))]
    modules += saturated_corpus(P11, 38, 7, maxdeg=2)
    modules += saturated_corpus(P12, 12, 5, maxdeg=2)
    modules += saturated_corpus(RingSpec((1, 1), 2 ** 61 - 1), 1, 7,
                                maxdeg=2)
    return modules


def test_ext_dims_match_full_ranks(P11, P12):
    """Ranking each differential only on the free coordinates of the
    one above gives the Ext dimensions of ranking every differential
    whole, at every degree of [-1,0]^r and at ``default_t_start`` and
    the power after it."""
    for M in _ext_modules(P11, P12):
        ring = M.ring
        box = ((-1,) * ring.r, (0,) * ring.r)
        pieces = GradedPieces.of(M)
        t_start = default_t_start(box)
        for t in (t_start, t_start + 1):
            twists, entries = _ext_entries(bracket_power_complex(ring, t))
            for pdeg in box_points(box):
                args = (pieces, twists, entries, pdeg, sum(ring.n) + 1)
                assert _ext_dims_at(*args) == full_rank_ext_dims(*args), \
                    (ring.n, ring.p, t, pdeg)


def test_ext_ranks_on_free_rows_only(monkeypatch):
    """The shapes the oracle hands to ``modp`` on hyperelliptic over
    [-1,1]^2: below the top, each differential has one row per free
    coordinate of the one above, dim Hom_{j+1} - rank d_{j+1}, and none
    is assembled when that is zero.  The ranks sum to what ranking
    every differential whole gives, and the entries whose target rows
    are all pivots take no multiplication matrix."""
    import types

    import multireg.cohomology as coh
    from multireg import modp

    # per degree: dim Hom_j for each j, and the (function, shape, rank)
    # of each matrix handed to modp
    per_degree, products = [], []
    ext_dims_at, mult_matrix = coh._ext_dims_at, GradedPieces.mult_matrix

    def recorded(name):
        def fn(A, p):
            out = getattr(modp, name)(A, p)
            rank = out if name == "rank" else len(out[1])
            per_degree[-1][1].append((name, A.shape, rank))
            return out
        return fn

    def recording_ext_dims_at(pieces, twists, entries, pdeg, max_index):
        dims = [sum(pieces.dim(deg_add(pdeg, tw)) for tw in tws)
                for tws in twists]
        per_degree.append((dims, []))
        return ext_dims_at(pieces, twists, entries, pdeg, max_index)

    def recording_mult_matrix(self, f, d):
        products.append(f)
        return mult_matrix(self, f, d)

    monkeypatch.setattr(coh, "_ext_dims_at", recording_ext_dims_at)
    monkeypatch.setattr(GradedPieces, "mult_matrix", recording_mult_matrix)
    monkeypatch.setattr(coh, "modp", types.SimpleNamespace(
        rank=recorded("rank"), rref=recorded("rref")))
    M = parse_input((DATA / "hyperelliptic.mr").read_text()).module()
    table = local_cohomology_box(M, ((-1, -1), (1, 1)))
    assert (table.t_used, table.data) == EXT_TABLES["hyperelliptic"]

    rank_sum = 0
    for dims, calls in per_degree:
        calls = iter(calls)
        kept = dims[-1]  # the top differential keeps every row
        for j in reversed(range(len(dims) - 1)):
            rank = 0
            if kept:
                name, shape, rank = next(calls)
                assert (name, shape) == ("rref" if j else "rank",
                                         (kept, dims[j]))
            rank_sum += rank
            kept = dims[j] - rank
        assert next(calls, None) is None
    # 2 tables (t = 3, 4) of 9 degrees; every differential ranked
    # whole gave the same rank sum from 846 multiplication matrices
    assert len(per_degree) == 18
    assert rank_sum == 10230
    assert len(products) == 550


def test_rref_pivots_are_those_of_the_reduced_form(monkeypatch):
    """Every matrix handed to ``modp.rref`` by the oracle on
    hyperelliptic over [-1,1]^2 and by one truncation of not_linear at
    (1,0): the pivots it returns, the leading columns of its echelon
    basis, are the leading columns of the reduced row echelon form
    that back-substituting the basis gives, and that form spans A's
    rows from A's pivot columns."""
    from multireg import modp

    rref, seen = modp.rref, []

    def recording_rref(A, p):
        out = rref(A, p)
        seen.append((np.array(A), p, out))
        return out

    monkeypatch.setattr(modp, "rref", recording_rref)
    M = parse_input((DATA / "hyperelliptic.mr").read_text()).module()
    local_cohomology_box(M, ((-1, -1), (1, 1)))
    n_oracle = len(seen)
    N = parse_input((DATA / "not_linear.mr").read_text()).module()
    truncate_module(N, (1, 0))
    assert n_oracle > 0 and len(seen) > n_oracle
    for A, p, (echelon, pivots) in seen:
        R = reduced_form(echelon, A.shape[1], p)
        leads = [int(np.flatnonzero(row)[0]) for row in R]
        assert pivots == leads == sorted(echelon)
        assert (R[:, pivots] == np.eye(len(pivots), dtype=np.int64)).all()
        # residues below 2^15 and a few thousand rows: sums fit int64
        assert p < 2 ** 15
        assert (np.mod(A - (A[:, pivots] % p) @ R, p) == 0).all()


def _ext_table_at(M, box, t):
    """The Ext table against the bracket power at t alone."""
    ring = M.ring
    pieces = GradedPieces.of(M)
    twists, entries = _ext_entries(bracket_power_complex(ring, t))
    out = {}
    for pdeg in box_points(box):
        for i, v in _ext_dims_at(pieces, twists, entries, pdeg,
                                 sum(ring.n) + 1).items():
            if v:
                out[(i, pdeg)] = v
    return out


FREE_MODULES = [
    ((1, 1), (0, 0), -6, 5), ((1, 1), (1, -2), -6, 6),
    ((1, 2), (0, 0), -6, 5), ((1, 2), (2, 1), -6, 7),
    ((1, 1, 1), (0, 0, 0), -4, 3), ((1, 1, 1), (0, 1, -1), -4, 4),
]


@pytest.mark.parametrize("n, twist, depth, t_used", FREE_MODULES, ids=[
    "x".join(f"P{k}" for k in n) + "-" + ",".join(map(str, b))
    for n, b, _, _ in FREE_MODULES])
def test_free_modules_certified_closed_form(n, twist, depth, t_used):
    """Deep in the negative orthant the Ext table of S(-twist) needs a
    large power, and the certified one gives the Kunneth closed form
    shifted by the twist.  The power starts there, below the first
    heuristic one, so no agreement of two tables is involved."""
    ring = RingSpec(n)
    M = Presentation(FreeModuleSpec(ring, (twist,)))
    box = ((depth,) * ring.r, (depth + 1,) * ring.r)
    table = local_cohomology_box(M, box)
    assert (table.certified, table.t_used) == (True, t_used)
    assert t_used < default_t_start(box)
    for i in range(table.max_index + 1):
        for pdeg in box_points(box):
            assert table.dim(i, pdeg) == structure_sheaf_local_cohomology(
                ring, i, deg_sub(pdeg, twist)), (i, pdeg)


def _first_agreeing_table(M, box):
    """The oracle's answer before it had a certified power: the first
    table from ``default_t_start(box)`` on that equals the next one,
    within six steps."""
    t = default_t_start(box)
    prev = _ext_table_at(M, box, t)
    for t in range(t + 1, t + 7):
        nxt = _ext_table_at(M, box, t)
        if nxt == prev:
            return prev
        prev = nxt
    raise AssertionError("no two consecutive powers agreed")


def test_oracle_matches_the_first_agreeing_tables(P11, P12):
    """On the modules of ``test_ext_dims_match_full_ranks``, the
    oracle's table over [-1,0]^r, certified or not, is the first of two
    agreeing tables from ``default_t_start`` on, as it was before
    certification."""
    for M in _ext_modules(P11, P12):
        box = ((-1,) * M.ring.r, (0,) * M.ring.r)
        table = local_cohomology_box(M, box)
        assert table.data == _first_agreeing_table(M, box), \
            (M.ring.n, table.t_used)


def test_required_corners_and_box_too_small(P11):
    S = Presentation.free(P11)
    corners = required_corners(P11, (0, 0))
    assert (1, 0) in corners and (0, 1) in corners
    assert min(c[0] for c in corners) == -2
    table = local_cohomology_box(S, ((0, 0), (2, 2)))
    with pytest.raises(BoxTooSmall):
        check_regularity_by_definition(S, (0, 0), table=table)


@pytest.mark.parametrize("degree", [(1,), (1, 0, 0)], ids=["short", "long"])
@pytest.mark.parametrize("call", [
    lambda M, d: hilbert_function(M, d),
    lambda M, d: GradedPieces.of(M).dim(d),
    lambda M, d: local_cohomology_box(M, (d, d)),
    lambda M, d: check_regularity_by_definition(M, d),
    lambda M, d: truncate_free(M.F0, d),
    lambda M, d: count_monomials(M.ring, d),
    # i <= 1 answers 0 without reading the degree
    lambda M, d: structure_sheaf_local_cohomology(M.ring, 1, d),
    lambda M, d: local_cohomology_box(M, ((0, 0), (0, 0))).dim(1, d),
    # the index-1 Koszul test runs before any truncation checks d
    lambda M, d: is_d_regular(M, d),
], ids=["hilbert_function", "graded_pieces", "local_cohomology_box",
        "definition_check", "truncate_free", "count_monomials",
        "structure_sheaf", "table_dim", "is_d_regular"])
def test_wrong_rank_degree_rejected(not_linear_module, call, degree):
    # zip in the degree arithmetic would drop or miss a coordinate
    with pytest.raises(ValueError, match=re.escape(str(degree))):
        call(not_linear_module, degree)


def test_definition_check_ring(P11):
    S = Presentation.free(P11)
    assert check_regularity_by_definition(S, (0, 0))
    assert not check_regularity_by_definition(S, (-1, 0))
    assert check_regularity_by_definition(S, (2, 1))


def test_definition_check_not_linear(not_linear_module):
    assert check_regularity_by_definition(not_linear_module, (1, 0))
    assert not check_regularity_by_definition(not_linear_module, (0, 1))


def test_definition_check_hyperelliptic(hyperelliptic_module):
    assert not check_regularity_by_definition(hyperelliptic_module, (2, 1))


def test_linear_truncation_iff_cohomology_on_q_regions(not_linear_module):
    """A truncation is linear exactly when the higher groups vanish on
    the quasilinear regions one level down."""
    M = not_linear_module
    box = ((-2, -2), (4, 4))
    tab = local_cohomology_box(M, box)
    for d in itertools.product(range(0, 3), repeat=2):
        T = truncate_module(M, d)
        v = classify_resolution(betti(free_resolution(T)))
        is_lin = v.kind == "linear" and v.gen_degree == d
        coh_ok = True
        for i in range(1, tab.max_index + 1):
            Rq = region_Q(i - 1, d)
            for pdeg in itertools.product(range(-2, 5), repeat=2):
                if Rq.contains(pdeg) and tab.dim(i, pdeg):
                    coh_ok = False
        assert is_lin == coh_ok, d


def test_cohomology_table_render(P11):
    S = Presentation.free(P11)
    tab = local_cohomology_box(S, ((-3, -3), (0, 0)))
    text = tab.pretty()
    assert "H^2" in text or "H^3" in text
    assert "certified at t=2" in text
    js = tab.to_json()
    assert js["schema"] == "multireg/cohomology/v1"
    assert js["heuristic"] is False
