import itertools
import random
from pathlib import Path

import pytest

from multireg import (
    FreeModuleSpec,
    MatrixOverS,
    Poly,
    Presentation,
    betti,
    free_resolution,
    irrelevant_ideal,
    is_minimal_complex,
    koszul_complex,
    minimalize,
    parse_input,
    truncate_module,
)
from multireg.resolution import FreeComplex
from multireg.ringcore import vec_constants

from .conftest import (SB_P12_BETTI, HYPERELLIPTIC_BETTI, check_exactness,
                       pp, random_saturated_quotient)

DATA = Path(__file__).resolve().parent.parent / "data"


def test_free_module_resolution(P12):
    S = Presentation.free(P12)
    res = free_resolution(S)
    assert len(res.terms) == 1
    assert res.terms[0].twists == ((0, 0),)


def test_koszul_betti(P11):
    K = koszul_complex(P11, [pp(P11, "x0"), pp(P11, "x1")])
    assert is_minimal_complex(K)
    assert betti(K).data == {(0, (0, 0)): 1, (1, (1, 0)): 2, (2, (2, 0)): 1}


@pytest.mark.parametrize("at", [0, 1])
def test_koszul_complex_rejects_a_zero_element(P11, at):
    # a zero element has no degree to twist by: name its position
    elements = [pp(P11, "x0")]
    elements.insert(at, Poly.zero(P11))
    with pytest.raises(ValueError, match=rf"elements\[{at}\] is zero"):
        koszul_complex(P11, elements)


def test_resolution_matches_koszul(P11):
    M = Presentation.quotient_by_ideal(P11, [pp(P11, "x0"), pp(P11, "x1")])
    res = free_resolution(M)
    assert betti(res).data == {(0, (0, 0)): 1, (1, (1, 0)): 2,
                               (2, (2, 0)): 1}


def test_sb_betti_golden(P12):
    SB = Presentation.quotient_by_ideal(P12, irrelevant_ideal(P12))
    res = free_resolution(SB)
    assert is_minimal_complex(res)
    assert betti(res).data == SB_P12_BETTI


def test_hyperelliptic_betti_golden(hyperelliptic_module):
    res = free_resolution(hyperelliptic_module)
    assert betti(res).data == HYPERELLIPTIC_BETTI


def test_minimalize_trivial_complex(P11):
    F = FreeModuleSpec(P11, ((0, 0),))
    C = FreeComplex([F, F], [MatrixOverS.identity(F)], check=False)
    assert not is_minimal_complex(C)
    mc = minimalize(C)
    assert all(t.rank == 0 for t in mc.terms)


def test_minimalize_idempotent(P11):
    K = koszul_complex(P11, [pp(P11, "x0"), pp(P11, "x1")])
    mc = minimalize(K)
    assert betti(mc).data == betti(K).data
    assert is_minimal_complex(mc)


def test_minimalize_padded_complex(P11):
    """A resolution padded with a trivial summand minimalizes back."""
    x0, x1 = pp(P11, "x0"), pp(P11, "x1")
    Z = Poly.zero(P11)
    one = Poly.one(P11)
    # Koszul complex of (x0, x1) with a trivial S(-1,0) <-1- S(-1,0)
    # summand spliced across homological degrees 0 and 1
    F0 = FreeModuleSpec(P11, [(0, 0), (1, 0)])
    F1 = FreeModuleSpec(P11, [(1, 0), (1, 0), (1, 0)])
    F2 = FreeModuleSpec(P11, [(2, 0)])
    d1 = MatrixOverS.from_entries(F1, F0, [
        [x0, x1, Z],
        [Z, Z, one],
    ])
    d2 = MatrixOverS.from_entries(F2, F1, [
        [-x1], [x0], [Z]])
    C = FreeComplex([F0, F1, F2], [d1, d2])
    mc = minimalize(C)
    assert is_minimal_complex(mc)
    assert betti(mc).data == {(0, (0, 0)): 1, (1, (1, 0)): 2,
                              (2, (2, 0)): 1}


def _elementary_change(F, d, level, r, s, f):
    """Conjugate the complex by the basis change e_s -> e_s + f e_r at
    ``level``: d_{level-1} becomes d_{level-1} E^-1, d_level E d_level."""
    spec = F[level]

    def elementary(g):
        rows = [[Poly.one(spec.ring) if a == b else Poly.zero(spec.ring)
                 for b in range(spec.rank)] for a in range(spec.rank)]
        rows[r][s] = g
        return MatrixOverS.from_entries(spec, spec, rows)

    if level:
        d[level - 1] = d[level - 1].compose(elementary(-f))
    if level < len(d):
        d[level] = elementary(f).compose(d[level])


def test_minimalize_across_adjacent_differentials(P11):
    """The Koszul complex of (x0, x1) padded with a trivial summand
    across each pair of levels, conjugated by unitriangular basis
    changes: every unit's row and column carry other entries, row 0
    of d_0 holds two units, and cancelling in one differential deletes
    a row of the next and a column of the previous."""
    x0, x1, y0, y1 = (pp(P11, v) for v in ("x0", "x1", "y0", "y1"))
    Z, one = Poly.zero(P11), Poly.one(P11)
    F = [FreeModuleSpec(P11, tw) for tw in (
        [(1, 0), (0, 0)],
        [(1, 1), (1, 0), (1, 0), (1, 0)],
        [(2, 1), (1, 1), (2, 0)],
        [(2, 1)])]
    d = [MatrixOverS.from_entries(F[1], F[0], [
            [Z, one, Z, Z],
            [Z, Z, x0, x1]]),
         MatrixOverS.from_entries(F[2], F[1], [
            [Z, one, Z],
            [Z, Z, Z],
            [Z, Z, -x1],
            [Z, Z, x0]]),
         MatrixOverS.from_entries(F[3], F[2], [[one], [Z], [Z]])]
    for level, r, s, f in [(0, 1, 0, x1), (1, 2, 1, one),
                           (1, 1, 3, one.scale(2)), (1, 1, 0, y0),
                           (1, 3, 0, y1), (2, 2, 0, y1), (2, 1, 0, x0)]:
        _elementary_change(F, d, level, r, s, f)
    C = FreeComplex(F, d)
    for diff in C.differentials:
        # a unit (a constant term sorts last) sharing its column
        assert any(len(col.terms) > 1 and vec_constants(col.terms)
                   for col in diff.columns)
    mc = minimalize(C)
    assert is_minimal_complex(mc)
    # rebuilt with the checks on: homogeneous columns, d o d = 0
    FreeComplex(mc.terms, [MatrixOverS(a.source, a.target, a.columns)
                           for a in mc.differentials])
    assert betti(mc).data == {(0, (0, 0)): 1, (1, (1, 0)): 2,
                              (2, (2, 0)): 1}
    M = Presentation.quotient_by_ideal(P11, [x0, x1])
    check_exactness(mc, M, list(itertools.product(range(4), repeat=2)))


def test_is_minimal_detects_units(P11):
    F = FreeModuleSpec(P11, ((0, 0),))
    C = FreeComplex([F, F], [MatrixOverS.identity(F)], check=False)
    assert not is_minimal_complex(C)
    K = koszul_complex(P11, [pp(P11, "x0"), pp(P11, "x1")])
    assert is_minimal_complex(K)


def test_betti_flags_nonminimal(P11):
    F = FreeModuleSpec(P11, ((0, 0),))
    C = FreeComplex([F, F], [MatrixOverS.identity(F)], check=False)
    t = betti(C)
    assert not t.from_minimal
    assert t.multiplicity(1, (0, 0)) == 1


def test_resolution_exactness_small(P11):
    gens = [pp(P11, "x0*y0"), pp(P11, "x1*y1"), pp(P11, "x0*y1")]
    M = Presentation.quotient_by_ideal(P11, gens)
    res = free_resolution(M)
    box = list(itertools.product(range(4), repeat=2))
    check_exactness(res, M, box)


def test_resolution_exactness_module(not_linear_module):
    res = free_resolution(not_linear_module)
    box = list(itertools.product(range(4), repeat=2))
    check_exactness(res, not_linear_module, box)


def test_resolution_length_bound(P11, P12):
    rng = random.Random(9)
    for ring in (P11, P12):
        for _ in range(3):
            M = random_saturated_quotient(ring, rng)
            if M is None:
                continue
            res = free_resolution(M)
            assert len(res.terms) - 1 <= ring.nvars


def test_betti_input_order_invariance(P11):
    gens = [pp(P11, "x0*y0"), pp(P11, "x1*y1"), pp(P11, "x0*y1 - x1*y0")]
    tables = set()
    for perm in itertools.permutations(gens):
        M = Presentation.quotient_by_ideal(P11, list(perm))
        tables.add(tuple(sorted(betti(free_resolution(M)).data.items())))
    assert len(tables) == 1


def test_betti_pretty_and_json(P12):
    SB = Presentation.quotient_by_ideal(P12, irrelevant_ideal(P12))
    t = betti(free_resolution(SB))
    text = t.pretty()
    assert "[1, 1]" in text and "6" in text
    js = t.to_json()
    assert js["schema"] == "multireg/betti/v1"
    assert {"index": 4, "degree": [2, 3], "multiplicity": 1} in js["entries"]


def test_overlong_frame_truncation(overlong_frame_module):
    """The frame of this truncation is one level longer than the number
    of variables; the minimal resolution has length 2, with no leftover
    homology at the frame's last levels."""
    T = truncate_module(overlong_frame_module, (3, 3))
    res = free_resolution(T)
    assert max(i for i, _ in betti(res).data) == 2
    check_exactness(res, T, list(itertools.product(range(3, 8), repeat=2)))


def _assert_no_gap(table, what):
    indices = {i for (i, _), m in table.data.items() if m}
    assert indices == set(range(max(indices) + 1)), (what, sorted(indices))


def test_betti_tables_have_no_gaps(P11, P12):
    """A minimal resolution has a nonzero term at every index up to its
    length.  Checked on the truncations of the data files in small
    boxes, and on a seeded corpus of saturated quotients."""
    for path in sorted(DATA.glob("*.mr")):
        M = parse_input(path.read_text()).module()
        for d in itertools.product(range(2), repeat=M.ring.r):
            T = truncate_module(M, d)
            _assert_no_gap(betti(free_resolution(T)), (path.name, d))
    rng = random.Random(31)
    for ring in (P11, P12):
        for _ in range(6):
            M = random_saturated_quotient(ring, rng)
            if M is None:
                continue
            for d in ((0, 0), (1, 1), (2, 1)):
                _assert_no_gap(betti(free_resolution(truncate_module(M, d))),
                               (ring.n, d))
