import itertools
import random
import warnings
from pathlib import Path

import pytest

from multireg import (
    NotSaturatedError,
    Poly,
    Presentation,
    RingSpec,
    betti,
    betti_bound_L,
    betti_bound_Q,
    check_regularity_by_definition,
    ci_regularity,
    classify_resolution,
    free_resolution,
    ideal_matrix,
    intersect_submodules,
    irrelevant_ideal,
    is_d_regular,
    local_cohomology_box,
    module_is_saturated_at_zero,
    monomials_of_degree,
    multigraded_regularity,
    parse_input,
    region_subset,
    truncate_module,
    truncation_region,
    verify_ci_hypotheses,
)
from multireg.cohomology import required_corners
from multireg import regularity
from multireg.groebner import colon_by_ideal
from multireg.pieces import GradedPieces
from multireg.regularity import BoxBoundaryWarning, _truncation_verdict
from multireg.ringcore import deg_leq

from .conftest import pp, saturated_corpus

DATA = Path(__file__).resolve().parent.parent / "data"


def test_classify_sb_quasilinear(P12):
    SB = Presentation.quotient_by_ideal(P12, irrelevant_ideal(P12))
    v = classify_resolution(betti(free_resolution(SB)))
    assert v.kind == "quasilinear"
    assert v.is_quasilinear and not v.is_linear
    assert (1, (1, 1), "L") in v.witnesses


def test_classify_not_linear_truncation(not_linear_module):
    T = truncate_module(not_linear_module, (1, 0))
    v = classify_resolution(betti(free_resolution(T)))
    assert v.kind == "quasilinear"
    assert (1, (2, 1), "L") in v.witnesses


def test_classify_hyperelliptic_neither(hyperelliptic_module):
    T = truncate_module(hyperelliptic_module, (2, 1))
    v = classify_resolution(betti(free_resolution(T)))
    assert v.kind == "neither"
    assert (1, (2, 3), "Q") in v.witnesses


def test_classify_multiple_generator_degrees(not_linear_module):
    v = classify_resolution(betti(free_resolution(not_linear_module)))
    assert v.kind == "neither"
    assert v.witnesses == ((0, None, "generators"),)


def test_classify_koszul_linear(P11):
    M = Presentation.quotient_by_ideal(P11, [pp(P11, "x0"), pp(P11, "x1")])
    v = classify_resolution(betti(free_resolution(M)))
    assert v.kind == "linear"
    assert v.gen_degree == (0, 0)
    assert v.witnesses == ()


def test_saturated_at_zero(P11, P12, hyperelliptic_module):
    assert module_is_saturated_at_zero(Presentation.free(P11))
    SB = Presentation.quotient_by_ideal(P12, irrelevant_ideal(P12))
    assert not module_is_saturated_at_zero(SB)
    assert module_is_saturated_at_zero(hyperelliptic_module)


def test_is_d_regular_golden(not_linear_module, not_linear_mirror):
    M, N = not_linear_module, not_linear_mirror
    assert is_d_regular(M, (1, 0))
    assert not is_d_regular(M, (0, 1))
    assert is_d_regular(N, (0, 1))
    assert not is_d_regular(N, (1, 0))


def test_is_d_regular_hyperelliptic(hyperelliptic_module):
    assert not is_d_regular(hyperelliptic_module, (2, 1))
    assert is_d_regular(hyperelliptic_module, (2, 2))


def test_saturation_checked_once_per_presentation(not_linear_module,
                                                  monkeypatch):
    """The torsion verdict is kept with the presentation's graded
    pieces: four point checks and one region search run one colon."""
    calls = []

    def counting_colon(N, gens):
        calls.append(N)
        return colon_by_ideal(N, gens)

    monkeypatch.setattr(regularity, "colon_by_ideal", counting_colon)
    # a fresh presentation, so no earlier test has left a verdict
    M = Presentation(not_linear_module.F0, not_linear_module.relations)
    verdicts = [is_d_regular(M, d) for d in ((1, 0), (0, 1), (1, 1), (2, 2))]
    assert verdicts == [True, False, True, True]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BoxBoundaryWarning)
        R = multigraded_regularity(M, ((0, 0), (3, 3)))
    assert R.minimal_generators == ((1, 0),)
    assert len(calls) == 1


def test_is_d_regular_requires_saturation(P12):
    SB = Presentation.quotient_by_ideal(P12, irrelevant_ideal(P12))
    with pytest.raises(NotSaturatedError):
        is_d_regular(SB, (0, 0))


def test_truncation_region_of_ring(P11):
    S = Presentation.free(P11)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BoxBoundaryWarning)
        R = truncation_region(S, "Q", ((0, 0), (3, 3)))
    assert R.minimal_generators == ((0, 0),)


def test_truncation_region_golden(hyperelliptic_module):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BoxBoundaryWarning)
        L = truncation_region(hyperelliptic_module, "L", ((0, 0), (9, 9)))
        Q = truncation_region(hyperelliptic_module, "Q", ((0, 0), (9, 9)))
    assert L.minimal_generators == ((1, 5), (2, 2), (5, 1))
    assert Q.minimal_generators == ((1, 5), (2, 2), (4, 1))
    assert region_subset(L, Q)


@pytest.mark.parametrize("name, mode, box, golden, truncations", [
    ("hyperelliptic.mr", "Q", ((0, 0), (9, 9)),
     ((1, 5), (2, 2), (4, 1)), 3),
    ("hyperelliptic.mr", "L", ((0, 0), (9, 9)),
     ((1, 5), (2, 2), (5, 1)), 4),
    ("not_linear.mr", "Q", ((0, 0), (3, 3)), ((1, 0),), 5),
    ("two_points.mr", "Q", ((0, 0, 0), (3, 3, 3)),
     ((0, 0, 1), (0, 1, 0), (1, 0, 0)), 3),
    ("ci_surface.mr", "Q", ((0, 0), (4, 4)), ((0, 2), (1, 1)), 3),
], ids=["hyperelliptic_Q", "hyperelliptic_L", "not_linear", "two_points",
        "ci_surface"])
def test_sweep_truncations_after_index_one_reject(
        monkeypatch, name, mode, box, golden, truncations):
    """The Koszul test at index 1 rejects most points of a sweep, so
    only the rest build a truncation; the region is the golden one."""
    built = []

    def counting_truncate(M, d):
        built.append(d)
        return truncate_module(M, d)

    monkeypatch.setattr(regularity, "truncate_module", counting_truncate)
    M = parse_input((DATA / name).read_text()).module()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BoxBoundaryWarning)
        R = truncation_region(M, mode, box)
    assert (R.minimal_generators, len(built)) == (golden, truncations)


def test_koszul_h1_is_the_truncations_index_one_betti(P11, P12):
    """At every b of [d, d+2]^r, d in [0,3]^r, the Koszul count equals
    the index-1 Betti number of the truncation's minimal resolution, on
    every data file and two seeded corpora; and no point the truncation
    route accepts has a nonzero count outside [d, d+1]^r, so the reject
    never removes a regular point."""
    modules = [parse_input(path.read_text()).module()
               for path in sorted(DATA.glob("*.mr"))]
    modules += saturated_corpus(P11, 38, 20240601)
    modules += saturated_corpus(P12, 12, 5)
    rejected = 0
    for M in modules:
        pieces = GradedPieces.of(M)
        for d in itertools.product(range(4), repeat=M.ring.r):
            table = betti(free_resolution(truncate_module(M, d)))
            v = classify_resolution(table)
            regular = not table or (v.is_quasilinear and v.gen_degree == d)
            top = tuple(x + 1 for x in d)
            for b in itertools.product(*[range(x, x + 3) for x in d]):
                h1 = pieces.koszul_h1_dim(b, d)
                assert h1 == table.multiplicity(1, b), (M.ring.n, d, b)
                if h1 and not deg_leq(b, top):
                    assert not regular, (M.ring.n, d, b)
                    rejected += 1
    assert rejected


def test_overlong_frame_region_agrees_with_definition(
        overlong_frame_module):
    """This module's truncations have Schreyer frames longer than the
    number of variables; the Q-region still matches the
    local-cohomology definition at every degree of the box, checked on
    criterion 7's cohomology box."""
    M = overlong_frame_module
    dbox = list(itertools.product(range(4), repeat=2))
    R = truncation_region(M, "Q", (dbox[0], dbox[-1]))
    assert R.minimal_generators == ((1, 3), (2, 1))
    corners = {c for d in dbox for c in required_corners(M.ring, d)}
    lo = tuple(min(c[j] for c in corners) for j in range(2))
    hi = tuple(max(max(c[j] for c in corners), 5) for j in range(2))
    table = local_cohomology_box(M, (lo, hi))
    for d in dbox:
        assert R.contains(d) == check_regularity_by_definition(
            M, d, table=table), d


def test_boundary_warning(P11):
    S = Presentation.free(P11)
    with pytest.warns(BoxBoundaryWarning):
        truncation_region(S, "Q", ((0, 0), (2, 2)))


def _assert_sweep_unpruned(M, mode):
    """The pruned sweep over [0,3]^2 contains exactly the points whose
    own truncation passes in ``mode``, each recomputed apart from the
    sweep."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BoxBoundaryWarning)
        R = truncation_region(M, mode, ((0, 0), (3, 3)))
    for d in itertools.product(range(4), repeat=2):
        assert R.contains(d) == _truncation_verdict(M, d, mode), (mode, d)


def test_upward_closure_spot_check(P11, not_linear_module, not_linear_mirror):
    """The sweep skips points above a found minimal element, assuming
    upward closure; recomputing every point checks that assumption for
    both the linear and the quasilinear region."""
    modules = [not_linear_module, not_linear_mirror]
    modules += saturated_corpus(P11, 3, seed=11)
    for M in modules:
        for mode in ("L", "Q"):
            _assert_sweep_unpruned(M, mode)


def test_multigraded_regularity_requires_saturation(P12):
    SB = Presentation.quotient_by_ideal(P12, irrelevant_ideal(P12))
    with pytest.raises(NotSaturatedError):
        multigraded_regularity(SB, ((0, 0), (2, 2)))


def test_ci_regularity_hypersurface():
    assert ci_regularity([(1, 1)]).minimal_generators == ((0, 0),)


def test_ci_regularity_golden_pair():
    assert ci_regularity([(1, 1), (1, 2)]).minimal_generators == \
        ((0, 2), (1, 1))


def test_ci_regularity_triple():
    got = ci_regularity([(1, 1), (1, 1), (1, 1)])
    assert got.minimal_generators == ((0, 2), (1, 1), (2, 0))


def test_ci_regularity_rejects_nonpositive():
    with pytest.raises(ValueError):
        ci_regularity([(1, 0)])


def test_verify_ci_hypotheses_golden(P22):
    g1 = pp(P22, "x0*y0")
    g2 = pp(P22, "x1*y1^2")
    assert verify_ci_hypotheses([g1, g2])


def test_verify_ci_hypotheses_common_factor(P11):
    g1 = pp(P11, "x0*y0")
    g2 = pp(P11, "x0*y1")
    assert not verify_ci_hypotheses([g1, g2])


def test_verify_ci_hypotheses_degree_precondition(P11):
    with pytest.raises(ValueError):
        verify_ci_hypotheses([pp(P11, "x0")])


def test_theorem_b_containments(not_linear_module, hyperelliptic_module):
    """The Betti bounds land inside the corresponding truncation
    regions (within the search box)."""
    cases = [(not_linear_module, ((0, 0), (3, 3))),
             (hyperelliptic_module, ((0, 0), (9, 9)))]
    for M, box in cases:
        t = betti(free_resolution(M))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", BoxBoundaryWarning)
            TL = truncation_region(M, "L", box)
            TQ = truncation_region(M, "Q", box)
        for g in betti_bound_L(t).minimal_generators:
            if all(l <= x <= h for l, x, h in zip(box[0], g, box[1])):
                assert TL.contains(g)
        for g in betti_bound_Q(t).minimal_generators:
            if all(l <= x <= h for l, x, h in zip(box[0], g, box[1])):
                assert TQ.contains(g)
        assert region_subset(TL, TQ)


def test_twisted_free_truncations_are_linear(P11, P12):
    """Truncations of twisted free modules resolve linearly."""
    rng = random.Random(17)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BoxBoundaryWarning)
        for ring in (P11, P12):
            for _ in range(6):
                b = tuple(rng.randint(-2, 2) for _ in range(ring.r))
                d = tuple(rng.randint(-2, 2) for _ in range(ring.r))
                M = Presentation(
                    __import__("multireg").FreeModuleSpec(ring, (b,)))
                T = truncate_module(M, d)
                v = classify_resolution(betti(free_resolution(T)))
                assert v.kind == "linear", (ring.n, b, d)


def test_theorem_c_consistency(P22):
    """For a verified complete intersection the closed form agrees
    with the truncation search."""
    g1 = pp(P22, "x0*y0")
    g2 = pp(P22, "x1*y1^2")
    assert verify_ci_hypotheses([g1, g2])
    M = Presentation.quotient_by_ideal(P22, [g1, g2])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BoxBoundaryWarning)
        R = truncation_region(M, "Q", ((0, 0), (4, 4)))
    assert R.minimal_generators == \
        ci_regularity([(1, 1), (1, 2)]).minimal_generators


def _dense_form(ring, d, rng):
    """A form of degree d with every monomial's coefficient drawn from
    [1, p)."""
    f = Poly.zero(ring)
    for m in monomials_of_degree(ring, d):
        f = f + Poly.monomial(ring, m, rng.randint(1, ring.p - 1))
    return f


def test_ci_corpus_agrees_with_the_truncation_search():
    """The complete-intersection theorem on dense random forms: one form
    of each degree in {1,2}^2 on P1xP1, P1xP2 and P2xP2, every pair of
    those degrees on P1xP1, and the pairs on P2xP2 of degree sum at
    most 5.  Where ``verify_ci_hypotheses`` holds, ``ci_regularity`` is
    the region the truncation search finds over [0,5]^2, and the
    Betti-number bound lies inside it.  Every P1xP1 pair fails the
    hypotheses: it cuts out points, whose ideal is not B-saturated."""
    degrees = list(itertools.product((1, 2), repeat=2))
    pairs = list(itertools.combinations_with_replacement(degrees, 2))
    draws = [(RingSpec(n), [d]) for n in ((1, 1), (1, 2), (2, 2))
             for d in degrees]
    draws += [(RingSpec((1, 1)), list(pair)) for pair in pairs]
    draws += [(RingSpec((2, 2)), list(pair)) for pair in pairs
              if sum(map(sum, pair)) <= 5]
    rng = random.Random(1)
    failed = []
    for ring, degs in draws:
        gens = [_dense_form(ring, d, rng) for d in degs]
        if not verify_ci_hypotheses(gens):
            failed.append((ring.n, degs))
            continue
        M = Presentation.quotient_by_ideal(ring, gens)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", BoxBoundaryWarning)
            R = multigraded_regularity(M, ((0, 0), (5, 5)))
        assert R == ci_regularity(degs), (ring.n, degs)
        assert region_subset(betti_bound_Q(betti(free_resolution(M))), R), \
            (ring.n, degs)
    assert (len(draws), len(failed)) == (25, 10)
    assert all(n == (1, 1) and len(degs) == 2 for n, degs in failed)


def test_ms_two_point_example(P111):
    a0, a1, b0, b1, c0, c1 = (Poly.variable(P111, i) for i in range(6))
    I1 = ideal_matrix(P111, [a0 - a1, b0 - b1, c0 - c1])
    I2 = ideal_matrix(P111, [a0 - a1.scale(2), b0 - b1.scale(2),
                             c0 - c1.scale(2)])
    J = intersect_submodules(I1, I2)
    M = Presentation(J.target, J)
    t = betti(free_resolution(M))
    assert betti_bound_Q(t).minimal_generators == ((1, 1, 1),)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BoxBoundaryWarning)
        R = truncation_region(M, "Q", ((0, 0, 0), (3, 3, 3)))
    assert R.minimal_generators == ((0, 0, 1), (0, 1, 0), (1, 0, 0))
    assert region_subset(betti_bound_Q(t), R)
