"""Acceptance suite: golden values and property suites, one printed
pass/fail line per criterion (run with -s to see them).

All golden comparisons are exact; the property suites demand zero
violations over their stated sample sizes.
"""

import contextlib
import itertools
import random
import warnings

import pytest

from multireg import (
    FreeModuleSpec,
    Poly,
    Presentation,
    RingSpec,
    StabilizationNotReached,
    betti,
    betti_bound_L,
    betti_bound_Q,
    check_regularity_by_definition,
    ci_regularity,
    classify_resolution,
    free_resolution,
    hilbert_function,
    ideal_matrix,
    intersect_submodules,
    irrelevant_ideal,
    is_d_regular,
    local_cohomology_box,
    monomials_of_degree,
    normal_form,
    buchberger,
    region_L,
    region_Q,
    region_subset,
    structure_sheaf_local_cohomology,
    truncate_module,
    truncation_region,
    verify_ci_hypotheses,
)
from multireg import modp
from multireg.cohomology import required_corners
from multireg.regularity import BoxBoundaryWarning
from multireg.ringcore import free_basis_of_degree

from .conftest import (
    HYPERELLIPTIC_BETTI,
    HYPERELLIPTIC_TRUNC_21_BETTI,
    SB_P12_BETTI,
    pp,
    random_saturated_quotient,
)


def _report(number, description):
    def deco(fn):
        import functools

        @functools.wraps(fn)
        def wrapped(*args, **kw):
            try:
                fn(*args, **kw)
            except BaseException:
                print(f"criterion {number:2d}: FAIL  {description}")
                raise
            print(f"criterion {number:2d}: PASS  {description}")
        return wrapped
    return deco


# -------------------------------------------------------------------------
# 1. the module whose truncation is quasilinear but not linear

@_report(1, "two-factor module: truncation Betti, verdicts, regularity, "
            "mirror")
def test_criterion_1(not_linear_module, not_linear_mirror):
    M, N = not_linear_module, not_linear_mirror
    T = truncate_module(M, (1, 0), minimalize_presentation=True)
    table = betti(free_resolution(T))
    assert table.data == {(0, (1, 0)): 2, (1, (2, 1)): 2}
    v = classify_resolution(table)
    assert v.kind == "quasilinear" and not v.is_linear
    assert is_d_regular(M, (1, 0)) is True
    assert is_d_regular(M, (0, 1)) is False
    assert betti(free_resolution(N)).data == {
        (0, (0, 1)): 2, (0, (1, 0)): 2, (1, (1, 1)): 4}
    assert betti(free_resolution(M)).data == betti(free_resolution(N)).data
    assert is_d_regular(N, (0, 1)) is True
    assert is_d_regular(N, (1, 0)) is False


# -------------------------------------------------------------------------
# 2. the irrelevant quotient on P1 x P2

@_report(2, "P1xP2 irrelevant quotient: five-term Betti table, "
            "quasilinear not linear")
def test_criterion_2(P12):
    SB = Presentation.quotient_by_ideal(P12, irrelevant_ideal(P12))
    table = betti(free_resolution(SB))
    assert table.data == SB_P12_BETTI
    v = classify_resolution(table)
    assert v.kind == "quasilinear" and not v.is_linear


# -------------------------------------------------------------------------
# 3. the hyperelliptic curve

@_report(3, "hyperelliptic curve: saturation, Betti tables, bounds, "
            "both region searches")
def test_criterion_3(hyperelliptic_module):
    M = hyperelliptic_module
    table = betti(free_resolution(M))
    assert table.data == HYPERELLIPTIC_BETTI               # (a)
    T = truncate_module(M, (2, 1), minimalize_presentation=True)
    assert betti(free_resolution(T)).data == HYPERELLIPTIC_TRUNC_21_BETTI
    assert betti_bound_L(table).minimal_generators == ((2, 7),)   # (c)
    assert betti_bound_Q(table).minimal_generators == ((2, 7),)
    cache = {}
    L = truncation_region(M, "L", ((0, 0), (9, 9)), cache=cache)   # (d)
    assert L.minimal_generators == ((1, 5), (2, 2), (5, 1))
    Q = truncation_region(M, "Q", ((0, 0), (9, 9)), cache=cache)   # (e)
    assert Q.minimal_generators == ((1, 5), (2, 2), (4, 1))


# -------------------------------------------------------------------------
# 4. the complete intersection surface on P2 x P2

@_report(4, "complete intersection (1,1),(1,2) on P2xP2: closed form, "
            "hypotheses, region search")
def test_criterion_4(P22):
    assert ci_regularity([(1, 1), (1, 2)]).minimal_generators == \
        ((0, 2), (1, 1))
    g1 = pp(P22, "x0*y0")
    g2 = pp(P22, "x1*y1^2")
    assert verify_ci_hypotheses([g1, g2]) is True
    M = Presentation.quotient_by_ideal(P22, [g1, g2])
    with pytest.warns(BoxBoundaryWarning, match=r"\(0, 2\)"):
        R = truncation_region(M, "Q", ((0, 0), (4, 4)))
    assert R.minimal_generators == ((0, 2), (1, 1))


# -------------------------------------------------------------------------
# 5. the two-point example on P1 x P1 x P1

@_report(5, "two points on P1xP1xP1: Betti bound, region search, "
            "containment")
def test_criterion_5(P111):
    a0, a1, b0, b1, c0, c1 = (Poly.variable(P111, i) for i in range(6))
    I1 = ideal_matrix(P111, [a0 - a1, b0 - b1, c0 - c1])
    I2 = ideal_matrix(P111, [a0 - a1.scale(2), b0 - b1.scale(2),
                             c0 - c1.scale(2)])
    J = intersect_submodules(I1, I2)
    M = Presentation(J.target, J)
    bound = betti_bound_Q(betti(free_resolution(M)))
    assert bound.minimal_generators == ((1, 1, 1),)
    with pytest.warns(BoxBoundaryWarning):
        R = truncation_region(M, "Q", ((0, 0, 0), (3, 3, 3)))
    assert R.minimal_generators == ((0, 0, 1), (0, 1, 0), (1, 0, 0))
    assert region_subset(bound, R)


# -------------------------------------------------------------------------
# 6. the staircase regions at (1,2)

@_report(6, "corner sets of the staircase regions at (1,2), levels 0..3")
def test_criterion_6():
    L_expect = {0: ((1, 2),), 1: ((0, 2), (1, 1)),
                2: ((-1, 2), (0, 1), (1, 0)),
                3: ((-2, 2), (-1, 1), (0, 0), (1, -1))}
    Q_expect = {0: ((1, 2),), 1: ((0, 1),), 2: ((-1, 1), (0, 0)),
                3: ((-2, 1), (-1, 0), (0, -1))}
    for i in range(4):
        assert region_L(i, (1, 2)).minimal_generators == L_expect[i]
        assert region_Q(i, (1, 2)).minimal_generators == Q_expect[i]


# -------------------------------------------------------------------------
# 7. equivalence of the truncation criterion and the definition check

def _equivalence_for_ring(ring, count, seed, max_hilbert):
    rng = random.Random(seed)
    r = ring.r
    dbox = list(itertools.product(range(4), repeat=r))
    corners = set()
    for d in dbox:
        corners.update(required_corners(ring, d))
    lo = tuple(min(c[j] for c in corners) for j in range(r))
    hi = tuple(max(max(c[j] for c in corners), 3 + ring.n[j] + 1)
               for j in range(r))
    checked = skipped = 0
    spot_checks = 0
    while checked + skipped < count:
        M = random_saturated_quotient(ring, rng, maxdeg=2,
                                      max_hilbert=max_hilbert)
        if M is None:
            continue
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", BoxBoundaryWarning)
            trunc_side = truncation_region(M, "Q", (dbox[0], dbox[-1]))
        try:
            table = local_cohomology_box(M, (lo, hi))
        except StabilizationNotReached:
            skipped += 1
            continue
        for d in dbox:
            assert trunc_side.contains(d) == check_regularity_by_definition(
                M, d, table=table), (ring.n, d)
        # a couple of direct point evaluations, bypassing the sweep's
        # upward-closure pruning
        for d in rng.sample(dbox, 2):
            assert is_d_regular(M, d) == check_regularity_by_definition(
                M, d, table=table), (ring.n, d)
            spot_checks += 1
        checked += 1
    return checked, skipped


@_report(7, "truncation criterion == definition check on 50 random "
            "saturated modules (skip rate < 20%)")
def test_criterion_7():
    c1, s1 = _equivalence_for_ring(RingSpec((1, 1)), 38, seed=20240601,
                                   max_hilbert=None)
    c2, s2 = _equivalence_for_ring(RingSpec((1, 2)), 12, seed=20240602,
                                   max_hilbert=45)
    total, skipped = c1 + c2 + s1 + s2, s1 + s2
    assert c1 + c2 >= 50 - skipped and total >= 50
    assert skipped / total < 0.20, f"skip rate {skipped}/{total}"


# -------------------------------------------------------------------------
# 8. containments, region facts, upward closure, linear truncations of
#    twisted free modules

@_report(8, "Betti-bound containments, region lattice facts, upward "
            "closure, twisted free truncations: zero violations")
def test_criterion_8(P11, P12, hyperelliptic_module, not_linear_module):
    rng = random.Random(77)
    # region facts
    for _ in range(60):
        rr = rng.choice((2, 3))
        d = tuple(rng.randint(-3, 3) for _ in range(rr))
        for i in range(0, 5):
            assert region_subset(region_L(i, d), region_Q(i, d))
            assert region_subset(region_L(i, d), region_L(i + 1, d))
            if i >= 1:
                assert region_subset(region_Q(i, d), region_Q(i + 1, d))
    for _ in range(60):
        rr = rng.choice((2, 3))
        b = tuple(rng.randint(1, 3) for _ in range(rr))
        c = tuple(rng.randint(1, 3) for _ in range(rr))
        i = rng.randint(1, 4)
        assert region_subset(
            region_Q(i + 1, tuple(x + y for x, y in zip(b, c))),
            region_Q(i, b))
    # Betti-bound containments on sample modules; the not_linear
    # regions reach the lower edge of their box
    for M, box, edge in [(not_linear_module, ((0, 0), (3, 3)), True),
                         (hyperelliptic_module, ((0, 0), (9, 9)), False)]:
        t = betti(free_resolution(M))
        cache = {}
        with (pytest.warns(BoxBoundaryWarning) if edge
              else contextlib.nullcontext()):
            TL = truncation_region(M, "L", box, cache=cache)
            TQ = truncation_region(M, "Q", box, cache=cache)
        assert region_subset(TL, TQ)
        for g in betti_bound_L(t).minimal_generators:
            if all(l <= x <= h for l, x, h in zip(box[0], g, box[1])):
                assert TL.contains(g)
        for g in betti_bound_Q(t).minimal_generators:
            if all(l <= x <= h for l, x, h in zip(box[0], g, box[1])):
                assert TQ.contains(g)
    # upward closure by recomputation
    with pytest.warns(BoxBoundaryWarning, match=r"\(1, 0\)"):
        R = truncation_region(not_linear_module, "Q", ((0, 0), (3, 3)))
    above = [d for d in itertools.product(range(4), repeat=2)
             if R.contains(d)]
    for d in rng.sample(above, 5):
        assert is_d_regular(not_linear_module, d)
    # truncations of twisted free modules are linear
    for ring in (P11, P12):
        for _ in range(8):
            b = tuple(rng.randint(-2, 2) for _ in range(ring.r))
            d = tuple(rng.randint(-2, 2) for _ in range(ring.r))
            M = Presentation(FreeModuleSpec(ring, (b,)))
            T = truncate_module(M, d, minimalize_presentation=True)
            v = classify_resolution(betti(free_resolution(T)))
            assert v.kind == "linear", (ring.n, b, d)


# -------------------------------------------------------------------------
# 9. closed-form vanishing over sums of region generators

@_report(9, "structure-sheaf cohomology vanishes on sums of region "
            "generators (exhaustive, two rings)")
def test_criterion_9(P12, P111):
    for ring in (P12, P111):
        zero = (0,) * ring.r
        for i in range(4):
            for j in range(4):
                for a in region_L(i, zero).minimal_generators:
                    for b in region_Q(j, zero).minimal_generators:
                        s = tuple(x + y for x, y in zip(a, b))
                        assert structure_sheaf_local_cohomology(
                            ring, i + j + 1, s) == 0, (ring.n, i, j, s)


# -------------------------------------------------------------------------
# 10. infrastructure invariants over a random corpus

@_report(10, "exactness, Euler characteristic, truncation Hilbert "
             "identity, normal-form idempotence: zero violations")
def test_criterion_10(P11, P12):
    rng = random.Random(4242)
    for ring in (P11, P12):
        count = 6 if ring.r == 2 and ring.nvars == 4 else 4
        made = 0
        while made < count:
            M = random_saturated_quotient(ring, rng, maxdeg=2,
                                          max_hilbert=60)
            if M is None:
                continue
            made += 1
            res = free_resolution(M)
            assert len(res.terms) - 1 <= ring.nvars
            box = list(itertools.product(range(3), repeat=ring.r))
            p = ring.p
            for d in box:
                dims = [len(free_basis_of_degree(t, d)) for t in res.terms]
                ranks = [modp.rank(diff.graded_block(d)[0], p)
                         for diff in res.differentials]
                for i in range(1, len(res.terms) - 1):
                    assert ranks[i - 1] + ranks[i] == dims[i], (ring.n, d, i)
                chi = 0
                sign = 1
                for dim in dims:
                    chi += sign * dim
                    sign = -sign
                assert chi == hilbert_function(M, d), (ring.n, d)
            # truncation Hilbert identity
            td = tuple(rng.randint(0, 2) for _ in range(ring.r))
            T = truncate_module(M, td)
            for e in box:
                want = hilbert_function(M, e) if all(
                    x >= y for x, y in zip(e, td)) else 0
                assert hilbert_function(T, e) == want, (ring.n, td, e)
            # normal-form idempotence against the relation basis
            G = buchberger(M.relations.columns, M.F0)
            for d in box[:4]:
                for m in monomials_of_degree(ring, d)[:5]:
                    f = Poly.monomial(ring, m, rng.randint(1, p - 1))
                    r1 = normal_form(f, G)
                    assert normal_form(r1, G) == r1
