import gc
import itertools

import pytest

from multireg import (
    FreeModuleSpec,
    Poly,
    Presentation,
    betti,
    free_resolution,
    hilbert_function,
    ideal_matrix,
    truncate_free,
    truncate_module,
    truncation_region,
)

from multireg import modp
from multireg.pieces import _SHARED, GradedPieces
from multireg.truncation import _preimage_relations, _trim_generators

from .conftest import HYPERELLIPTIC_TRUNC_21_BETTI, graded_block, pp


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


def test_truncation_trim_agrees_with_untrimmed(not_linear_module):
    """The trimmed truncation has the Betti table of the presentation
    on the full monomial cover."""
    M = not_linear_module
    G, inc = truncate_free(M.F0, (1, 0))
    a = Presentation(G, _preimage_relations(inc, M.relations))
    b = truncate_module(M, (1, 0))
    assert b.F0.rank < G.rank
    assert betti(free_resolution(a)).data == betti(free_resolution(b)).data


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
    G, inc = _trim_generators(M, (1, 1), *truncate_free(M.F0, (1, 1)))
    assert G == T.F0
    gb = buchberger(M.relations.columns, M.F0)
    for col in T.relations.columns:
        image = inc.apply(col)
        assert not normal_form(image, gb)
