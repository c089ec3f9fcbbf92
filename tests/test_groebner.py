import hashlib
import itertools
import random
from pathlib import Path

import pytest

from multireg import (
    FreeModuleSpec,
    InhomogeneousError,
    RingMismatchError,
    MatrixOverS,
    Poly,
    Presentation,
    RingSpec,
    Vector,
    betti,
    buchberger,
    colon,
    colon_by_ideal,
    free_resolution,
    ideal_matrix,
    intersect_submodules,
    koszul_complex,
    monomials_of_degree,
    normal_form,
    parse_input,
    saturate,
    submodules_equal,
    syzygies,
    truncate_free,
    truncate_module,
)
from multireg import groebner, modp, pieces
from multireg.cohomology import bracket_power_complex
from multireg.groebner import schreyer_frame
from multireg.ringcore import term_key, vec_add, vec_entries, vec_scale

from .conftest import (dense_hilbert_function, free_basis_of_degree,
                       graded_block, homogeneity_violations,
                       irrelevant_ideal, pp,
                       random_homogeneous_gen, saturated_corpus)

DATA = Path(__file__).resolve().parent.parent / "data"


def _ideal_polys(G):
    ring = G.ambient.ring
    return [g.component_poly(ring, 0) for g in G.elements]


def test_single_generator_is_gb(P11):
    f = pp(P11, "x0*y1 - x1*y0")
    G = buchberger(ideal_matrix(P11, [f]))
    assert _ideal_polys(G) == [f]


def test_monomial_generators_are_gb(P11):
    G = buchberger(ideal_matrix(P11, [pp(P11, "x0"), pp(P11, "x1")]))
    assert sorted(map(str, _ideal_polys(G))) == ["x0", "x1"]


def test_spair_produces_cube(P11):
    G = buchberger(ideal_matrix(P11, [pp(P11, "x0^2 + x1^2"),
                                      pp(P11, "x0*x1")]))
    assert pp(P11, "x1^3") in _ideal_polys(G)


def test_buchberger_rejects_inhomogeneous(P11):
    with pytest.raises(InhomogeneousError):
        buchberger(ideal_matrix(P11, [pp(P11, "x0 + x0*x1")]))


def test_library_matrices_are_homogeneous(monkeypatch):
    """Homogeneity is checked once, where a matrix is built; the
    Groebner engine reads no input column's degree.  So every matrix
    the library builds, through the checked constructor or by a
    builder that passes check=False, and every matrix it hands to
    ``buchberger`` or ``kernel_projection`` must pass the checked
    constructor when rebuilt.  Covered: the parser and the frames,
    minimal resolutions, truncations and free truncations of each data
    file, colon, saturation, intersection, syzygies, Koszul and
    bracket-power complexes, composition and the identity."""
    given = []

    def recording(fn):
        def wrapped(M, *rest):
            given.append(M)
            return fn(M, *rest)
        return wrapped

    monkeypatch.setattr(groebner, "buchberger",
                        recording(groebner.buchberger))
    monkeypatch.setattr(pieces, "buchberger", recording(pieces.buchberger))
    monkeypatch.setattr(groebner, "kernel_projection",
                        recording(groebner.kernel_projection))
    made = []
    for path in sorted(DATA.glob("*.mr")):
        job = parse_input(path.read_text())
        M = job.module()
        ring, rel, F0 = M.ring, M.relations, M.F0
        syz, one = syzygies(rel), MatrixOverS.identity(F0)
        made += [rel, syz, rel.compose(syz), one, one.compose(rel)]
        made += schreyer_frame(rel)
        res = free_resolution(M)
        made += res.differentials
        made += [a.compose(b) for a, b in zip(res.differentials,
                                              res.differentials[1:])]
        for d in [(0,) * ring.r, (1,) + (0,) * (ring.r - 1), (1,) * ring.r]:
            made.append(truncate_module(M, d).relations)
            _, inc = truncate_free(F0, d)
            made += [inc, inc.compose(MatrixOverS.identity(inc.source)),
                     intersect_submodules(rel, inc)]
        J = irrelevant_ideal(ring)
        made += [colon_by_ideal(rel, J), saturate(rel, J)]
        for t in (1, 2, 3):
            made += bracket_power_complex(ring, t).differentials
        if job.kind == "ideal":
            made += koszul_complex(ring, job.ideal_gens).differentials
    assert len(made) >= 200 and len(given) >= 90
    assert homogeneity_violations(made + given) == []


def test_buchberger_deterministic(P11):
    gens = [pp(P11, "x0*y0 + x1*y1"), pp(P11, "x0*y1"), pp(P11, "x1^2*y0^2")]
    a = buchberger(ideal_matrix(P11, gens))
    b = buchberger(ideal_matrix(P11, gens))
    assert a == b


def test_buchberger_postcondition_spairs_reduce(P11):
    """Every S-pair of the output reduces to zero."""
    gens = [pp(P11, "x0^2*y0 - x1^2*y1"), pp(P11, "x0*x1*(y0+y1)")]
    G = buchberger(ideal_matrix(P11, gens))
    from multireg.ringcore import (mono_div, mono_lcm, vec_add, vec_mono_mul)
    els = list(G.elements)
    for a in range(len(els)):
        for b in range(a + 1, len(els)):
            (ca, ma), _ = els[a].lead(P11)
            (cb, mb), _ = els[b].lead(P11)
            if ca != cb:
                continue
            lcm = mono_lcm(ma, mb)
            p = P11.p
            s = vec_add(
                vec_mono_mul(els[a].terms, mono_div(lcm, ma), 1, p),
                vec_mono_mul(els[b].terms, mono_div(lcm, mb), p - 1, p), p)
            assert not normal_form(Vector(s, _canonical=True), G)


def test_normal_form_members(P11):
    f = pp(P11, "x0*y1 - x1*y0")
    G = buchberger(ideal_matrix(P11, [f]))
    assert not normal_form(f, G)
    for g in G.elements:
        assert not normal_form(g, G)


def test_normal_form_divisibility(P11):
    G = buchberger(ideal_matrix(P11, [pp(P11, "x0*y0")]))
    assert not normal_form(pp(P11, "x0^2*y0"), G)


def test_normal_form_single_step(P11):
    G = buchberger(ideal_matrix(P11, [pp(P11, "x0*y1 - x1*y0")]))
    assert normal_form(pp(P11, "x0*y1"), G) == pp(P11, "x1*y0")


def test_normal_form_of_a_poly_needs_a_rank_one_basis(P11):
    """x0*e0 is not in the span of x0*e0 + y0*e1, yet reducing the
    polynomial x0 by that basis used to give 0, with the component-1
    remainder dropped."""
    x0, y0 = Poly.variable(P11, 0), Poly.variable(P11, 2)
    F = FreeModuleSpec(P11, [(0, 0), (1, -1)])
    G = buchberger(MatrixOverS.from_columns(
        F, [Vector.from_components([x0, y0])]))
    with pytest.raises(ValueError, match="rank one, not 2"):
        normal_form(x0, G)
    assert normal_form(Vector.from_components([x0]), G) == \
        Vector.from_components([None, -y0])


def test_normal_form_idempotent(P11):
    rng = random.Random(1)
    gens = [pp(P11, "x0*y0 - x1*y1"), pp(P11, "x0^2*y1")]
    G = buchberger(ideal_matrix(P11, gens))
    from multireg import monomials_of_degree
    for d in [(2, 1), (3, 2)]:
        for m in monomials_of_degree(P11, d):
            f = Poly.monomial(P11, m, rng.randint(1, P11.p - 1))
            r1 = normal_form(f, G)
            assert normal_form(r1, G) == r1


def test_koszul_syzygy(P11):
    M = ideal_matrix(P11, [pp(P11, "x0"), pp(P11, "x1")])
    S = syzygies(M)
    assert S.source.rank == 1
    assert S.source.twists == ((2, 0),)
    expected = MatrixOverS.from_entries(
        FreeModuleSpec(P11, [(2, 0)]), M.source,
        [[-pp(P11, "x1")], [pp(P11, "x0")]])
    assert submodules_equal(S, expected)


def test_syzygies_of_injective_map_empty(P11):
    I2 = MatrixOverS.identity(FreeModuleSpec(P11, ((0, 0), (1, 0))))
    assert syzygies(I2).source.rank == 0


def _random_form(ring, rng, d):
    """Zero, a monomial or a binomial of degree d, at random."""
    if min(d) < 0 or rng.random() < 0.25:
        return Poly.zero(ring)
    monos = monomials_of_degree(ring, d)
    f = Poly.zero(ring)
    for m in rng.sample(monos, min(len(monos), rng.randint(1, 2))):
        f = f + Poly.monomial(ring, m, rng.randint(1, ring.p - 1))
    return f


def _random_module_matrix(ring, rng, rank):
    """A map into a free module of the given rank with twists in
    {0, 1}^r, from 3-5 homogeneous columns of degrees in {1, 2}^r of
    total degree at most 3."""
    twists = [tuple(rng.randint(0, 1) for _ in range(ring.r))
              for _ in range(rank)]
    target = FreeModuleSpec(ring, twists)
    cols, degs = [], []
    ncols = rng.randint(3, 5)
    while len(cols) < ncols:
        e = tuple(rng.randint(1, 2) for _ in range(ring.r))
        if sum(e) > 3:
            continue
        v = Vector.from_components(
            [_random_form(ring, rng, tuple(a - b for a, b in zip(e, tw)))
             for tw in twists])
        if v:
            cols.append(v)
            degs.append(e)
    return MatrixOverS(FreeModuleSpec(ring, degs), target, cols)


def test_syzygies_sound_and_complete(P11, P12):
    """M * syz(M) = 0, and the syzygies span the kernel degreewise, on
    a seeded corpus of ideals and of rank-2/3 modules with mixed
    twists."""
    rng = random.Random(2024)
    corpus = [ideal_matrix(P11, [pp(P11, "x0*y0"), pp(P11, "x1*y0"),
                                 pp(P11, "x0*y1 - x1*y0")])]
    for ring in (P11, P12):
        for _ in range(4):
            corpus.append(ideal_matrix(ring, [
                random_homogeneous_gen(ring, rng) for _ in range(4)]))
        for rank in (2, 3, 2, 3, 2, 3):
            corpus.append(_random_module_matrix(ring, rng, rank))
    for M in corpus:
        ring = M.ring
        S = syzygies(M)
        for col in S.columns:
            assert not M.apply(col)
        # degreewise: rank of syzygy block = dim kernel of M's block
        for d in itertools.product(range(4), repeat=ring.r):
            mb, _ = graded_block(M, d)
            sb, _ = graded_block(S, d)
            dim_ker = mb.shape[1] - modp.rank(mb, ring.p)
            assert modp.rank(sb, ring.p) == dim_ker, (ring.n, d)


def test_colon_basic(P11):
    N = ideal_matrix(P11, [pp(P11, "x0*y0")])
    C = colon(N, pp(P11, "y0"))
    assert submodules_equal(C, ideal_matrix(P11, [pp(P11, "x0")]))


def test_colon_by_one(P11):
    N = ideal_matrix(P11, [pp(P11, "x0*y1 - x1*y0")])
    assert submodules_equal(colon(N, Poly.one(P11)), N)


def test_colon_membership(P11):
    N = ideal_matrix(P11, [pp(P11, "x0^2"), pp(P11, "x0*x1")])
    C = colon(N, pp(P11, "x1"))
    assert submodules_equal(C, ideal_matrix(P11, [pp(P11, "x0")]))


def test_colon_zero_rejected(P11):
    N = ideal_matrix(P11, [pp(P11, "x0")])
    with pytest.raises(ValueError):
        colon(N, Poly.zero(P11))


def test_colon_by_ideal_matches_intersection(P11):
    N = ideal_matrix(P11, [pp(P11, "x0^2*y0"), pp(P11, "x1*y1^2")])
    B = irrelevant_ideal(P11)
    one_shot = colon_by_ideal(N, B)
    folded = colon(N, B[0])
    for g in B[1:]:
        folded = intersect_submodules(folded, colon(N, g))
    assert submodules_equal(one_shot, folded)


def test_colon_by_mixed_degree_ideal_is_one_kernel(P11, monkeypatch):
    """Generators of different degrees still give one stacked kernel,
    and it equals the fold of one-generator colons."""
    N = ideal_matrix(P11, [pp(P11, "x0^2*y0"), pp(P11, "x1*y1^2"),
                           pp(P11, "x0*x1*y0*y1")])
    B = irrelevant_ideal(P11)
    J = [B[0], B[1] ** 2, pp(P11, "x0") * B[-1] ** 2]
    assert len({g.degree() for g in J}) == 3
    folded = colon(N, J[0])
    for g in J[1:]:
        folded = intersect_submodules(folded, colon(N, g))
    calls = []
    kernel = groebner.kernel_projection

    def counted(M, rank):
        calls.append(rank)
        return kernel(M, rank)

    monkeypatch.setattr(groebner, "kernel_projection", counted)
    one_shot = colon_by_ideal(N, J)
    assert calls == [1]
    assert submodules_equal(one_shot, folded)
    assert not submodules_equal(one_shot, N)


def test_intersect_coprime_monomials(P11):
    A = intersect_submodules(ideal_matrix(P11, [pp(P11, "x0")]),
                             ideal_matrix(P11, [pp(P11, "x1")]))
    assert submodules_equal(A, ideal_matrix(P11, [pp(P11, "x0*x1")]))


def test_intersect_self(P11):
    N = ideal_matrix(P11, [pp(P11, "x0*y0"), pp(P11, "x1*y1")])
    assert submodules_equal(intersect_submodules(N, N), N)


def test_intersect_rank_mismatch(P11):
    N = ideal_matrix(P11, [pp(P11, "x0")])
    other = MatrixOverS.identity(FreeModuleSpec(P11, ((0, 0), (0, 0))))
    with pytest.raises(RingMismatchError):
        intersect_submodules(N, other)


def test_saturate_b_by_b_is_unit(P11):
    B = irrelevant_ideal(P11)
    S = saturate(ideal_matrix(P11, B), B)
    assert submodules_equal(S, ideal_matrix(P11, [Poly.one(P11)]))


def test_saturate_x0_times_b(P11):
    B = irrelevant_ideal(P11)
    N = ideal_matrix(P11, [pp(P11, "x0") * g for g in B])
    S = saturate(N, B)
    assert submodules_equal(S, ideal_matrix(P11, [pp(P11, "x0")]))


def test_saturate_fixpoint(P12, hyperelliptic):
    """colon(saturation, g) = saturation for every generator of B."""
    for g in irrelevant_ideal(P12):
        assert submodules_equal(colon(hyperelliptic, g), hyperelliptic)


def test_saturation_kernels_skip_chain_pairs(hyperelliptic, monkeypatch):
    """Tracked runs skip S-pairs by the chain criterion as well: the
    colon kernels of this saturation return 346 syzygies in all, a
    count that depends on which pairs are treated."""
    job = parse_input((DATA / "hyperelliptic_raw.mr").read_text())
    N = ideal_matrix(job.ring, job.ideal_gens)
    returned = []
    kernel = groebner.kernel_projection

    def counted(M, rank):
        out = kernel(M, rank)
        returned.append(len(out))
        return out

    monkeypatch.setattr(groebner, "kernel_projection", counted)
    S = saturate(N, irrelevant_ideal(job.ring))
    assert len(returned) == 5
    assert sum(returned) == 346
    assert S.columns == hyperelliptic.columns


def test_hyperelliptic_saturation_generators(hyperelliptic):
    # minimal generators of the ideal are the index-1 Betti degrees of S/I
    B = betti(free_resolution(Presentation(hyperelliptic.target,
                                           hyperelliptic)))
    gens = sorted(b for (i, b), m in B.data.items() if i == 1
                  for _ in range(m))
    assert gens == sorted(
        [(3, 1), (2, 2), (2, 3), (2, 3), (1, 5), (1, 5), (1, 5), (0, 8)])


def test_schreyer_frame_is_resolution(P11):
    """Frame differentials compose to zero and are exact degreewise."""
    gens = [pp(P11, "x0*y0"), pp(P11, "x1*y1"), pp(P11, "x0*y1")]
    rel = ideal_matrix(P11, gens)
    mats = schreyer_frame(rel)
    for a, b in zip(mats, mats[1:]):
        assert a.compose(b).is_zero()
    M = Presentation(rel.target, rel)
    # Euler characteristic check against the dense Hilbert function
    for d in itertools.product(range(3), repeat=2):
        chi = len(free_basis_of_degree(rel.target, d))
        sign = -1
        for m in mats:
            chi += sign * len(free_basis_of_degree(m.source, d))
            sign = -sign
        assert chi == dense_hilbert_function(M, d)


def test_schreyer_frame_level_ranks(hyperelliptic_module,
                                    overlong_frame_module):
    """Which pairs a level keeps depends on the induced orders, so the
    per-level ranks pin them, the rank of each generator within its
    level included."""
    for M, d, ranks in [(hyperelliptic_module, (2, 1), [21, 15, 3]),
                        (overlong_frame_module, (3, 3), [22, 30, 20, 7, 1])]:
        frame = schreyer_frame(truncate_module(M, d).relations)
        assert [m.source.rank for m in frame] == ranks, d



def test_schreyer_frames_are_pinned():
    """Every frame of the data files, of criterion 7's P1xP1 corpus and
    of their truncations over [0,2]^r, hashed entry for entry: a change
    to the induced orders, the pair selection or the division loop
    that alters any column shows here, and a change to the term key's
    layout alone does not."""
    modules = [parse_input(path.read_text()).module()
               for path in sorted(DATA.glob("*.mr"))]
    modules += saturated_corpus(RingSpec((1, 1)), 38, 20240601, maxdeg=2)
    digest = hashlib.sha256()
    count = 0
    for M in modules:
        for P in [M] + [truncate_module(M, d) for d in
                        itertools.product(range(3), repeat=M.ring.r)]:
            for m in schreyer_frame(P.relations):
                digest.update(repr((m.source.twists,
                                    [vec_entries(c.terms, m.ring)
                                     for c in m.columns])).encode())
                count += 1
    assert (count, digest.hexdigest()) == (
        1080,
        "296ecdca77afc9a2d141fa3ae989b8960d827c43f449543d4c2a731a05625dd2")

def _memo_bases():
    """(label, reduced Groebner basis) for the relations of every data
    file, a seeded corpus of ideals, and ideals over p = 2^61 - 1."""
    out = []
    for path in sorted(DATA.glob("*.mr")):
        M = parse_input(path.read_text()).module()
        out.append((path.name, buchberger(M.relations)))
    rng = random.Random(20261018)
    for ring in (RingSpec((1, 2)), RingSpec((1, 1), p=2**61 - 1)):
        for k in range(3):
            gens = [random_homogeneous_gen(ring, rng) for _ in range(3)]
            out.append((f"{ring.n} p={ring.p} #{k}",
                        buchberger(ideal_matrix(ring, gens))))
    return out


def _memo_degrees(G):
    """A few degrees where G has reducible terms: its three highest
    element degrees and one step above the highest."""
    degs = sorted({g.degree(G.ambient) for g in G.elements},
                  key=lambda d: (sum(d), d))[-3:]
    return degs + [tuple(a + 1 for a in degs[-1])]


def test_memoized_normal_form_matches_full_reduction():
    """Normal forms read from the per-term memo are the tuples full
    reduction gives: for every term of a few degrees, and for seeded
    vectors, members (whose terms' normal forms cancel) included."""
    rng = random.Random(7)
    for label, G in _memo_bases():
        ring = G.ambient.ring
        p = ring.p
        elements = [g.terms for g in G.elements]

        def full(terms):
            return groebner._reduce_full(terms, elements, G._leads, ring)[0]

        for d in _memo_degrees(G):
            keys = [term_key(c, m)
                    for c, m in free_basis_of_degree(G.ambient, d)]
            for k in keys:
                got = normal_form(Vector(((k, 1),), _canonical=True), G)
                assert got.terms == full(((k, 1),)), (label, d, k)
            for _ in range(6):
                picked = rng.sample(keys, min(3, len(keys)))
                v = Vector([(k, rng.randint(1, p - 1)) for k in picked])
                member = vec_add(v.terms, vec_scale(full(v.terms), p - 1, p),
                                 p)
                for terms in (v.terms, member,
                              vec_add(member, ((picked[0], 1),), p)):
                    got = normal_form(Vector(terms, _canonical=True), G)
                    assert got.terms == full(terms), (label, d, terms)


def test_normal_form_memo_walks_each_term_once(P12, monkeypatch):
    """A term costs one divisor search the first time any normal form
    meets it (a division step when it is reducible), and a repeated
    call costs none."""
    G = buchberger(ideal_matrix(P12, [
        pp(P12, "x0^2*y0^2 + x1^2*y1^2 + x0*x1*y2^2"),
        pp(P12, "x0^3*y2 + x1^3*(y0 + y1)")]))
    searches = []
    find = groebner._find_divisor

    def counting(leads, key, guards):
        searches.append(key)
        return find(leads, key, guards)

    monkeypatch.setattr(groebner, "_find_divisor", counting)
    f = pp(P12, "x0^5*y2^6 + 3*x0^4*x1*y1^6 - x1^5*y0^3*y2^3")
    first = normal_form(f, G)
    n = len(searches)
    assert n == len(set(searches)) == len(G._nf) >= 10
    assert normal_form(f, G) == first
    assert len(searches) == n
