import gc
import itertools
from collections import Counter
from pathlib import Path

import pytest

from multireg import (
    FreeModuleSpec,
    MatrixOverS,
    Poly,
    Presentation,
    RingSpec,
    Vector,
    betti,
    free_resolution,
    hilbert_function,
    ideal_matrix,
    parse_input,
    truncate_free,
    truncate_module,
    truncation_region,
)

from multireg import modp
from multireg.pieces import _SHARED, GradedPieces
from multireg.groebner import preimage
from multireg.ringcore import deg_max, mono_divides, vec_entries

from .conftest import (HYPERELLIPTIC_TRUNC_21_BETTI, graded_block, pp,
                       saturated_corpus)

DATA = Path(__file__).resolve().parent.parent / "data"


def _inclusion(M, d):
    """``truncate_module``'s inclusion of M_{>=d} into M, rebuilt from
    ``GradedPieces.minimal_generators``: one generator of degree e per
    basis element picked in e, for e in the sorted set {max(tw_k, d)}."""
    pieces = GradedPieces.of(M)
    cols = [Vector.monomial(k, m)
            for e in sorted({deg_max(tw, d) for tw in M.F0.twists})
            for k, m in pieces.minimal_generators(e, d)]
    return MatrixOverS.from_columns(M.F0, cols)


def test_truncate_free_at_zero(P11):
    S = FreeModuleSpec(P11, ((0, 0),))
    G, inc = truncate_free(S, (0, 0))
    assert G.twists == ((0, 0),)
    assert inc.entry(0, 0) == Poly.one(P11)


def test_truncate_free_s_at_10(P11):
    S = FreeModuleSpec(P11, ((0, 0),))
    G, inc = truncate_free(S, (1, 0))
    assert G.twists == ((1, 0), (1, 0))
    polys = sorted(str(inc.entry(0, l)) for l in range(2))
    assert polys == ["x0", "x1"]


def test_truncate_free_negative_twist(P11):
    F = FreeModuleSpec(P11, ((0, -1),))
    G, inc = truncate_free(F, (1, 0))
    assert len(G.twists) == 4
    assert set(G.twists) == {(1, 0)}


def test_truncate_free_image_is_truncation(P11):
    """The inclusion image spans exactly the degrees >= d part."""
    F = FreeModuleSpec(P11, ((0, 0), (1, -1)))
    d = (1, 1)
    G, inc = truncate_free(F, d)
    for e in itertools.product(range(3), repeat=2):
        blk, rows = graded_block(inc, e)
        want = len(rows) if all(a >= b for a, b in zip(e, d)) else 0
        assert modp.rank(blk, P11.p) == want


def test_truncate_module_identity(P11):
    S = Presentation.free(P11)
    T = truncate_module(S, (0, 0))
    assert T.F0.twists == ((0, 0),)
    assert T.relations.source.rank == 0


def test_truncate_module_golden_not_linear(not_linear_module):
    T = truncate_module(not_linear_module, (1, 0))
    assert betti(free_resolution(T)).data == {
        (0, (1, 0)): 2, (1, (2, 1)): 2}


def test_wrong_rank_degrees_rejected(not_linear_module):
    # zip would silently drop or miss coordinates
    for d in ((1,), (1, 0, 0)):
        with pytest.raises(ValueError):
            truncate_module(not_linear_module, d)
    with pytest.raises(ValueError):
        truncation_region(not_linear_module, "Q", ((0, 0, 0), (3, 3, 3)))


def test_truncation_trim_agrees_with_untrimmed():
    """On every data file and criterion 7's P1xP1 corpus, truncated at
    each d in [0,2]^r: the truncation has the Betti table of the
    presentation on the full monomial cover; its generators are
    standard monomials of M, each of degree max(tw_k, d) in its
    component k, and those of degree e number beta_{0,e}."""
    modules = [parse_input(path.read_text()).module()
               for path in sorted(DATA.glob("*.mr"))]
    modules += saturated_corpus(RingSpec((1, 1)), 38, 20240601, maxdeg=2)
    count = 0
    for M in modules:
        gb = GradedPieces.of(M).gb
        for d in itertools.product(range(3), repeat=M.ring.r):
            T = truncate_module(M, d)
            G, inc = truncate_free(M.F0, d)
            full = Presentation(G, preimage(inc, M.relations))
            table = betti(free_resolution(T)).data
            assert table == betti(free_resolution(full)).data, d
            mine = _inclusion(M, d)
            assert mine.source == T.F0, d
            assert preimage(mine, M.relations).columns == \
                T.relations.columns, d
            for col, e in zip(mine.columns, T.F0.twists):
                (k, m, c), = vec_entries(col.terms, M.ring)
                assert (c, e) == (1, deg_max(M.F0.twists[k], d)), d
                assert not any(mono_divides(lm, m)
                               for lm in gb.lead_monomials(k)), d
            assert Counter(T.F0.twists) == \
                {b: n for (j, b), n in table.items() if j == 0}, d
            count += 1
    assert count == 405


def test_trimming_ignores_the_sign_of_a_degree(P11):
    """Trimming at a negative d drops what trimming drops once the
    module is twisted up to nonnegative degrees: M = coker(e_1 - x0 e_0)
    with generators in degrees (-2,0) and (-1,0) is generated by e_0,
    and e_1 = x0 e_0 is reached from the piece of degree (-2,0)."""
    x0 = Poly.variable(P11, 0)

    def shifted(a):
        F = FreeModuleSpec(P11, ((a - 2, 0), (a - 1, 0)))
        rel = Vector.from_components([-x0, Poly.one(P11)])
        return Presentation(F, MatrixOverS(
            FreeModuleSpec(P11, ((a - 1, 0),)), F, [rel]))

    M, N = shifted(0), shifted(3)
    T, U = truncate_module(M, (-2, 0)), truncate_module(N, (1, 0))
    assert T.F0.twists == ((-2, 0),)
    assert U.F0.twists == ((1, 0),)
    assert betti(free_resolution(T)).data == \
        betti(free_resolution(M)).data == {(0, (-2, 0)): 1}
    assert betti(free_resolution(U)).data == \
        betti(free_resolution(N)).data == {(0, (1, 0)): 1}


def test_trimming_shares_graded_pieces(P11):
    """Trimming at several degrees reuses one GradedPieces of M (one
    Groebner basis per sweep), and the cache lets go of it with M."""
    gc.collect()
    before = len(_SHARED)
    M = Presentation.quotient_by_ideal(P11, [pp(P11, "x0*y1 - x1*y0")])
    for d in [(1, 1), (2, 1), (1, 2)]:
        truncate_module(M, d)
    assert len(_SHARED) == before + 1
    del M
    gc.collect()
    assert len(_SHARED) == before


def test_graded_pieces_cache_frees_entries(P11):
    gc.collect()
    before = len(_SHARED)
    M = Presentation.quotient_by_ideal(P11, [pp(P11, "x0^2*y0")])
    assert GradedPieces.of(M) is GradedPieces.of(M)
    assert len(_SHARED) == before + 1
    del M
    gc.collect()
    assert len(_SHARED) == before


def test_truncate_hyperelliptic_golden(hyperelliptic_module):
    T = truncate_module(hyperelliptic_module, (2, 1))
    assert betti(free_resolution(T)).data == HYPERELLIPTIC_TRUNC_21_BETTI


def test_truncation_hilbert_identity(P11, not_linear_module):
    for M, d in [(Presentation.free(P11), (1, 1)),
                 (not_linear_module, (1, 0)),
                 (not_linear_module, (2, 2))]:
        T = truncate_module(M, d)
        for e in itertools.product(range(-1, 4), repeat=2):
            want = hilbert_function(M, e) if all(
                a >= b for a, b in zip(e, d)) else 0
            assert hilbert_function(T, e) == want, (d, e)


def test_truncation_composition(P11, not_linear_module):
    """Truncating twice equals truncating at the componentwise max."""
    M = not_linear_module
    d1, d2 = (1, 0), (0, 2)
    T12 = truncate_module(truncate_module(M, d1), d2)
    Tmax = truncate_module(M, (1, 2))
    for e in itertools.product(range(4), repeat=2):
        assert hilbert_function(T12, e) == hilbert_function(Tmax, e)
    assert betti(free_resolution(T12)).data == \
        betti(free_resolution(Tmax)).data


def test_truncation_exactness_additivity(P11):
    """Hilbert functions of truncations are additive along the exact
    sequence submodule -> module -> quotient."""
    x0, y0 = pp(P11, "x0"), pp(P11, "y0")
    I = ideal_matrix(P11, [x0 * y0])
    S = Presentation.free(P11)
    Q = Presentation(I.target, I)  # S/(x0 y0)
    # the submodule (x0 y0) is free on one generator of degree (1,1)
    Sub = Presentation(FreeModuleSpec(P11, ((1, 1),)))
    d = (1, 1)
    TS = truncate_module(S, d)
    TQ = truncate_module(Q, d)
    TSub = truncate_module(Sub, d)
    for e in itertools.product(range(4), repeat=2):
        assert hilbert_function(TS, e) == (hilbert_function(TSub, e)
                                           + hilbert_function(TQ, e))


def test_truncation_relations_are_preimage(not_linear_module):
    """inc maps every relation into the old relation image."""
    from multireg import buchberger, normal_form
    M = not_linear_module
    T = truncate_module(M, (1, 1))
    inc = _inclusion(M, (1, 1))
    assert inc.source == T.F0
    gb = buchberger(M.relations)
    for col in T.relations.columns:
        image = inc.apply(col)
        assert not normal_form(image, gb)
