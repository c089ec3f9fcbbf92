import itertools
import re

import pytest

from multireg import (
    BoxTooSmall,
    Presentation,
    RingSpec,
    StabilizationNotReached,
    check_regularity_by_definition,
    free_resolution,
    hilbert_function,
    irrelevant_ideal,
    line_bundle_cohomology,
    local_cohomology_box,
    region_Q,
    structure_sheaf_local_cohomology,
    truncate_module,
)
from multireg.cohomology import bracket_power_complex, required_corners
from multireg.pieces import GradedPieces
from multireg.regularity import classify_resolution
from multireg.resolution import betti



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


def test_bracket_complex_is_resolution(P11, P12):
    for ring, t in [(P11, 1), (P11, 3), (P12, 2)]:
        C = bracket_power_complex(ring, t)
        for i in range(len(C.differentials) - 1):
            assert C.differentials[i].compose(
                C.differentials[i + 1]).is_zero()
        # Euler characteristic = Hilbert function of the quotient by
        # the bracket ideal, computable by counting monomials
        from multireg.ringcore import free_basis_of_degree
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
    tab = local_cohomology_box(S, ((-3, -4), (-1, -2)), t_start=3)
    for i in (3, 4):
        for pdeg in [(-2, -3), (-1, -3), (-2, -4), (-1, -2)]:
            assert tab.dim(i, pdeg) == structure_sheaf_local_cohomology(
                P12, i, pdeg), (i, pdeg)


def test_sb_torsion_class(P11):
    SB = Presentation.quotient_by_ideal(P11, irrelevant_ideal(P11))
    tab = local_cohomology_box(SB, ((0, 0), (1, 1)), t_start=2)
    assert tab.dim(0, (0, 0)) == 1


def test_truncation_cohomology_identity(not_linear_module):
    """Truncation changes local cohomology only in the bottom two
    indices below the truncation degree."""
    M = not_linear_module
    d = (1, 1)
    T = truncate_module(M, d, minimalize_presentation=True)
    box = ((0, 0), (3, 3))
    tm = local_cohomology_box(M, box, t_start=4)
    tt = local_cohomology_box(T, box, t_start=4)
    for i in range(2, tm.max_index + 1):
        for pdeg in itertools.product(range(0, 4), repeat=2):
            assert tm.dim(i, pdeg) == tt.dim(i, pdeg), (i, pdeg)
    # and the degree-1 groups agree at degrees >= d
    for pdeg in itertools.product(range(1, 4), repeat=2):
        assert tm.dim(1, pdeg) == tt.dim(1, pdeg), pdeg


def test_stabilization_not_reached():
    R = RingSpec((1, 1))
    S = Presentation.free(R)
    with pytest.raises(StabilizationNotReached):
        # top cohomology this deep needs t around 5; consecutive small
        # t values disagree, so the capped run must report failure
        local_cohomology_box(S, ((-6, -6), (-6, -6)), t_start=2, t_cap=3)


def test_required_corners_and_box_too_small(P11):
    S = Presentation.free(P11)
    corners = required_corners(P11, (0, 0))
    assert (1, 0) in corners and (0, 1) in corners
    assert min(c[0] for c in corners) == -2
    with pytest.raises(BoxTooSmall):
        check_regularity_by_definition(S, (0, 0), box=((0, 0), (2, 2)))


@pytest.mark.parametrize("degree", [(1,), (1, 0, 0)], ids=["short", "long"])
@pytest.mark.parametrize("call", [
    lambda M, d: hilbert_function(M, d),
    lambda M, d: GradedPieces.of(M).dim(d),
    lambda M, d: local_cohomology_box(M, (d, d)),
    lambda M, d: check_regularity_by_definition(M, d),
], ids=["hilbert_function", "graded_pieces", "local_cohomology_box",
        "definition_check"])
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
        T = truncate_module(M, d, minimalize_presentation=True)
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
    tab = local_cohomology_box(S, ((-3, -3), (0, 0)), t_start=3)
    text = tab.pretty()
    assert "H^2" in text or "H^3" in text
    js = tab.to_json()
    assert js["schema"] == "multireg/cohomology/v1"
    assert js["heuristic"] is True
