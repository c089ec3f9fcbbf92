"""Graded pieces: bases against the free pieces filtered by the leads,
dimensions against the dense reference, and multiplication matrices
(their scaling, their agreement with full reduction, and their
per-monomial cache)."""

import itertools
import random
from pathlib import Path

import numpy as np
import pytest

from multireg import (FreeModuleSpec, MatrixOverS, Poly, Presentation,
                      RingSpec, Vector, hilbert_function, monomials_of_degree,
                      parse_input, pieces, truncate_module)
from multireg.groebner import _reduce_full
from multireg.pieces import GradedPieces
from multireg.ringcore import mono_divides, mono_mul, vec_entries

from .conftest import (dense_hilbert_function, free_basis_of_degree, pp,
                       saturated_corpus)

DATA = Path(__file__).resolve().parent.parent / "data"


def _hyperelliptic(p=None):
    text = (DATA / "hyperelliptic.mr").read_text()
    if p is not None:
        text = text.replace("p=32003", f"p={p}")
    return parse_input(text).module()


def _random_form(ring, rng, d, nterms=3):
    f = Poly.zero(ring)
    for m in rng.sample(monomials_of_degree(ring, d), nterms):
        f = f + Poly.monomial(ring, m, rng.randint(1, ring.p - 1))
    return f


def _data_modules():
    """Every data file, and its truncation at (1,...,1)."""
    modules = [parse_input(path.read_text()).module()
               for path in sorted(DATA.glob("*.mr"))]
    return modules + [truncate_module(M, (1,) * M.ring.r) for M in modules]


def _filtered_free_piece(gp, d):
    """The degree-d basis by its definition: the free piece, less the
    monomials that a lead of their component divides."""
    return [(k, m) for k, m in free_basis_of_degree(gp.F0, d)
            if not any(mono_divides(lm, m)
                       for lm in gp.gb.lead_monomials(k))]


def test_basis_is_the_free_piece_less_the_lead_multiples():
    """Growing each piece from the one below lists the same pairs, in
    the same order, as filtering the whole free piece by the leads: on
    every data file and its truncation at (1,...,1), two seeded
    corpora, a presentation with mixed twists, and one in which a unit
    lead kills a component, at every degree of [-2,5]^r."""
    P11, P12 = RingSpec((1, 1)), RingSpec((1, 2))
    mixed = FreeModuleSpec(P12, [(0, 0), (1, -1), (-1, 2)])
    mixed = Presentation(mixed, MatrixOverS.from_entries(
        FreeModuleSpec(P12, [(1, 1), (0, 2), (2, 0)]), mixed, [
            [pp(P12, "x0*y1"), pp(P12, "y2^2"), pp(P12, "x0^2 - x1^2")],
            [pp(P12, "y0^2"), Poly.zero(P12), pp(P12, "x1*y0")],
            [Poly.zero(P12), pp(P12, "x1"), Poly.zero(P12)]]))
    # e_0 = 3 e_1 has the unit lead e_0
    units = FreeModuleSpec(P11, [(1, 0), (1, 0), (0, 0)])
    units = Presentation(units, MatrixOverS.from_entries(
        FreeModuleSpec(P11, [(1, 0), (1, 0)]), units, [
            [pp(P11, "1"), Poly.zero(P11)],
            [pp(P11, "-3"), pp(P11, "5")],
            [Poly.zero(P11), pp(P11, "x0")]]))
    assert GradedPieces(units).gb.lead_monomials(0)[0] == (0, 0, 0, 0)
    modules = _data_modules() + [mixed, units]
    modules += saturated_corpus(P11, 20, 7)
    modules += saturated_corpus(P12, 8, 5)
    mismatches = []
    for M in modules:
        gp = GradedPieces(M)
        for d in itertools.product(range(-2, 6), repeat=M.ring.r):
            if gp.basis(d) != _filtered_free_piece(gp, d):
                mismatches.append((M, d))
    assert mismatches == []


def test_basis_of_a_deep_piece():
    """The pieces below (1500, 0) form a chain 1500 long, deeper than
    Python's default recursion limit; only the two components twisted
    by (1,0) reach that degree, and only their requested pieces are
    kept, not the about 2.25M monomials below them."""
    M = parse_input((DATA / "not_linear.mr").read_text()).module()
    assert hilbert_function(M, (1500, 0)) == 3000
    assert sorted(GradedPieces.of(M)._standard) == [(0, (1499, 0)),
                                                    (1, (1499, 0))]


def test_hilbert_function_matches_dense_reference():
    """Standard monomials of the Groebner basis count dim M_d as the
    dense rank of the relations' degree-d block does: on every data
    file, its truncation at (1,...,1) and a seeded corpus, at every
    degree of [-1,3]^r."""
    modules = _data_modules()
    modules += saturated_corpus(RingSpec((1, 1)), 20, 7)
    modules += saturated_corpus(RingSpec((1, 2)), 8, 5)
    mismatches = [
        (M, d) for M in modules
        for d in itertools.product(range(-1, 4), repeat=M.ring.r)
        if hilbert_function(M, d) != dense_hilbert_function(M, d)]
    assert mismatches == []


@pytest.mark.parametrize("p", [32003, 2**61 - 1])
def test_mult_matrix_is_linear_in_f(p):
    """Scaling a term scales its matrix mod p, and every column is the
    full reduction of the product; a multi-term f, which has no single
    block, is rejected."""
    M = _hyperelliptic(p)
    ring = M.ring
    gp = GradedPieces(M)
    elements = [g.terms for g in gp.gb.elements]
    rng = random.Random(5)
    for d, e in [((0, 3), (1, 1)), ((2, 2), (1, 2)), ((1, 5), (2, 0))]:
        tgt = gp.basis(tuple(a + b for a, b in zip(d, e)))
        for m in rng.sample(monomials_of_degree(ring, e), 2):
            c = rng.randint(2, p - 1)
            A = gp.mult_matrix(Poly.monomial(ring, m), d)
            assert np.array_equal(gp.mult_matrix(Poly.monomial(ring, m, c),
                                                 d),
                                  np.array([int(a) * c % p for a in A.flat],
                                           dtype=np.int64).reshape(A.shape))
            for j, (comp, mono) in enumerate(gp.basis(d)):
                want = np.zeros(len(tgt), dtype=np.int64)
                rem, _ = _reduce_full(
                    Vector.monomial(comp, mono_mul(mono, m)).terms, elements,
                    gp.gb._leads, ring)
                for k, mm, cc in vec_entries(rem, ring):
                    want[tgt.index((k, mm))] = cc
                assert np.array_equal(A[:, j], want), (d, m, j)
        with pytest.raises(ValueError):
            gp.mult_matrix(_random_form(ring, rng, e), d)


def test_mult_matrix_rejects_zero():
    M = _hyperelliptic()
    with pytest.raises(ValueError):
        GradedPieces(M).mult_matrix(Poly.zero(M.ring), (0, 0))


def test_mult_matrix_blocks_are_cached_per_monomial(monkeypatch):
    """Multiplying by -x^t after x^t reuses x^t's block: no normal
    form at all.  The first call takes one normal form per source
    monomial whose product is not itself a standard monomial."""
    M = _hyperelliptic()
    ring = M.ring
    gp = GradedPieces(M)
    calls = []
    nf = pieces.normal_form

    def counting(v, G):
        calls.append(v)
        return nf(v, G)

    monkeypatch.setattr(pieces, "normal_form", counting)
    d, t = (0, 2), 3
    x = Poly.variable(ring, 0) ** t
    A = gp.mult_matrix(x, d)
    tgt = gp.basis((t, 2))
    (_, xm, _), = vec_entries(x.terms, ring)
    reducible = [(c, m) for c, m in gp.basis(d)
                 if (c, mono_mul(m, xm)) not in tgt]
    assert 0 < len(reducible) < len(gp.basis(d))
    assert len(calls) == len(reducible)
    calls.clear()
    B = gp.mult_matrix(-x, d)
    assert calls == []
    assert np.array_equal(B, (ring.p - A) % ring.p)
    assert np.array_equal(gp.mult_matrix(x, d), A)
    assert calls == []

