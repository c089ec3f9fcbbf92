import random

import pytest

from multireg import (
    FreeModuleSpec,
    InhomogeneousError,
    MatrixOverS,
    Poly,
    Presentation,
    RingMismatchError,
    RingSpec,
    Vector,
    buchberger,
    hilbert_function,
    ideal_matrix,
    monomials_of_degree,
    normal_form,
)
from multireg.groebner import _find_divisor
from multireg.ringcore import (
    _COMPONENT,
    _pack,
    count_monomials,
    deg_add,
    deg_leq,
    deg_max,
    deg_sub,
    term_key,
    vec_constants,
    vec_entries,
    vec_mono_mul,
    vec_renumber,
)

from .conftest import free_basis_of_degree, irrelevant_ideal, pp


def test_ring_validation():
    with pytest.raises(ValueError):
        RingSpec(())
    with pytest.raises(ValueError):
        RingSpec((0, 1))
    # the irrelevant ideal's exponent tuples must fit in memory
    with pytest.raises(ValueError, match="too large"):
        RingSpec((20000,))
    assert RingSpec((3000,)).nvars == 3001
    with pytest.raises(ValueError):
        RingSpec((1, 1), p=32004)
    RingSpec((1, 1), p=2 ** 62 - 57)
    with pytest.raises(ValueError):
        RingSpec((1, 1), p=2 ** 62 + 135)
    R = RingSpec((1, 2))
    assert R.nvars == 5
    assert R.var_factor == (0, 0, 1, 1, 1)


def test_variable_names():
    R = RingSpec((1, 2))
    aliases = ["x0", "x1", "y0", "y1", "y2"]
    canonical = ["v1_0", "v1_1", "v2_0", "v2_1", "v2_2"]
    assert [R.var_by_name(v) for v in aliases] == list(range(5))
    assert [R.var_by_name(v) for v in canonical] == list(range(5))
    assert [R.var_name(i) for i in range(5)] == aliases
    assert R.var_by_name("q7") is None
    # past four factors the canonical names print, and x, y, z, w
    # still name the first four factors
    R5 = RingSpec((1, 1, 1, 1, 1))
    canonical = [f"v{i}_{j}" for i in range(1, 6) for j in range(2)]
    assert [R5.var_by_name(v) for v in canonical] == list(range(10))
    assert [R5.var_by_name(f"{a}{j}") for a in "xyzw"
            for j in range(2)] == list(range(8))
    assert [R5.var_name(i) for i in range(10)] == canonical


@pytest.mark.parametrize("n, name", [
    ((1, 2), "x01"),
    ((1, 2), "v01_0"),
    # int() reads "1_0" as 10
    ((10, 1), "x1_0"),
])
def test_numeric_spellings_are_unknown(n, name):
    assert RingSpec(n).var_by_name(name) is None


def test_monomials_of_degree_unit(P12):
    ms = monomials_of_degree(P12, (0, 0))
    assert ms == [(0, 0, 0, 0, 0)]


def test_monomials_of_degree_count(P12):
    ms = monomials_of_degree(P12, (1, 1))
    assert len(ms) == 6
    assert len(set(ms)) == 6
    for m in ms:
        assert P12.monomial_degree(m) == (1, 1)


def test_monomials_of_degree_negative(P12):
    assert monomials_of_degree(P12, (-1, 2)) == []


def test_monomial_count_formula(P12, P111):
    for ring, d in [(P12, (2, 3)), (P12, (0, 4)), (P111, (1, 2, 1))]:
        assert len(monomials_of_degree(ring, d)) == count_monomials(ring, d)


def test_poly_annihilator(P11):
    x0 = Poly.variable(P11, 0)
    assert not (x0 * Poly.zero(P11))


def test_poly_difference_of_squares(P11):
    x0, x1 = Poly.variable(P11, 0), Poly.variable(P11, 1)
    f = (x0 + x1) * (x0 - x1)
    assert f == pp(P11, "x0^2 - x1^2")


def test_degree_additivity(P12):
    f = pp(P12, "x0^2*y0")
    g = pp(P12, "x1*y2^2")
    assert (f * g).degree() == (3, 3)


def test_degree_additivity_random(P12):
    import random
    rng = random.Random(5)
    for _ in range(25):
        d1 = (rng.randint(0, 2), rng.randint(0, 2))
        d2 = (rng.randint(0, 2), rng.randint(0, 2))
        ms1 = monomials_of_degree(P12, d1)
        ms2 = monomials_of_degree(P12, d2)
        f = Poly.monomial(P12, rng.choice(ms1)) + Poly.monomial(
            P12, rng.choice(ms1), rng.randint(1, 11))
        g = Poly.monomial(P12, rng.choice(ms2), rng.randint(1, 11))
        if f and g:
            assert (f * g).degree() == tuple(
                a + b for a, b in zip(d1, d2))


def test_mixed_ring_rejected(P11, P12):
    with pytest.raises(RingMismatchError):
        Poly.variable(P11, 0) + Poly.variable(P12, 0)


def test_inhomogeneous_degree_raises(P11):
    f = pp(P11, "x0 + x0*x1")
    with pytest.raises(InhomogeneousError):
        f.degree()


def test_power_by_squaring(P11, monkeypatch):
    """A job file's x0^100000000 parses in about 2 log2(k) products,
    not k of them."""
    k = 100_000_000
    calls = []
    mul = Poly.__mul__

    def counted(a, b):
        calls.append(1)
        # fail at once rather than run k products
        assert len(calls) <= 2 * k.bit_length()
        return mul(a, b)

    monkeypatch.setattr(Poly, "__mul__", counted)
    assert pp(P11, f"x0^{k}") == Poly.monomial(P11, (k, 0, 0, 0))


def test_power_matches_repeated_products(P11):
    f = pp(P11, "x0 + 2*x1 - y0")
    g = Poly.one(P11)
    for k in range(7):
        assert f ** k == g, k
        g = g * f
    with pytest.raises(ValueError):
        f ** -1


def test_coefficient_field_arithmetic(P11):
    p = P11.p
    x0 = Poly.variable(P11, 0)
    assert x0.scale(p) == Poly.zero(P11)
    assert x0.scale(p - 1) == -x0
    assert (x0.scale(2) - x0 - x0) == Poly.zero(P11)


def test_matrix_homogeneity_enforced(P11):
    x0 = Poly.variable(P11, 0)
    y0 = Poly.variable(P11, 2)
    F = FreeModuleSpec(P11, [(0, 0), (1, 0)])
    src = FreeModuleSpec(P11, [(1, 0)])
    with pytest.raises(InhomogeneousError):
        # y0 in row 0 has degree (0,1) != (1,0)
        MatrixOverS.from_entries(src, F, [[y0], [Poly.one(P11)]])
    ok = MatrixOverS.from_entries(src, F, [[x0], [Poly.one(P11)]])
    assert ok.entry(0, 0) == x0


@pytest.mark.parametrize("rows, shape", [
    (lambda x0: [[x0]], r"2 rows of 1 columns, got 1 rows of \[1\]"),
    (lambda x0: [[x0], [x0, x0]],
     r"2 rows of 1 columns, got 2 rows of \[1, 2\]"),
    (lambda x0: [[x0], [x0], [x0]],
     r"2 rows of 1 columns, got 3 rows of \[1, 1, 1\]"),
], ids=["missing-row", "extra-column", "extra-row"])
def test_matrix_from_entries_checks_the_shape(P11, rows, shape):
    """A missing row is not read as zero, and an extra row or column
    is neither dropped nor left to a bare IndexError."""
    x0 = Poly.variable(P11, 0)
    F = FreeModuleSpec(P11, [(0, 0), (0, 0)])
    src = FreeModuleSpec(P11, [(1, 0)])
    with pytest.raises(ValueError, match=shape):
        MatrixOverS.from_entries(src, F, rows(x0))


def test_matrix_from_columns_twists_by_column_degrees(P11):
    x0 = Poly.variable(P11, 0)
    y0 = Poly.variable(P11, 2)
    F = FreeModuleSpec(P11, [(0, 0), (1, 0)])
    cols = [Vector.from_components([x0, Poly.one(P11)]),
            Vector.from_components([None, y0])]
    M = MatrixOverS.from_columns(F, cols)
    assert M.source.twists == ((1, 0), (1, 1))
    assert M.target == F and M.columns == tuple(cols)
    with pytest.raises(InhomogeneousError, match=r"column 1: .*degrees"):
        MatrixOverS.from_columns(F, [cols[0], Vector.from_components(
            [y0, Poly.one(P11)])])
    # a zero column has no degree to twist by
    with pytest.raises(ValueError, match="column 0 is zero"):
        MatrixOverS.from_columns(F, [Vector(())])


def test_hilbert_function_free(P12):
    S = Presentation.free(P12)
    assert hilbert_function(S, (1, 1)) == 6
    assert hilbert_function(S, (0, 0)) == 1
    assert hilbert_function(S, (-1, 0)) == 0


def test_hilbert_function_formula(P12, P111):
    for ring in (P12, P111):
        S = Presentation.free(ring)
        for d in [(0,) * ring.r, (1,) * ring.r, (2,) * ring.r]:
            assert hilbert_function(S, d) == count_monomials(ring, d)


def test_hilbert_function_sb(P12):
    SB = Presentation.quotient_by_ideal(P12, irrelevant_ideal(P12))
    assert hilbert_function(SB, (1, 1)) == 0
    assert hilbert_function(SB, (3, 0)) == 4
    assert hilbert_function(SB, (0, 2)) == 6


def test_hilbert_function_not_linear(not_linear_module):
    assert hilbert_function(not_linear_module, (1, 0)) == 2


@pytest.mark.parametrize("p", [2 ** 31 - 1, 2 ** 61 - 1])
def test_hilbert_function_large_prime(p):
    # complete intersection of bidegrees (1,1), (1,2) on P1 x P2: a
    # curve with Hilbert function 2a + 3b in these degrees, so 5a at (a, a)
    R = RingSpec((1, 2), p=p)
    M = Presentation.quotient_by_ideal(R, [
        pp(R, "3*x0*y0 + 5*x1*y1 + 7*x0*y2"),
        pp(R, "11*x0*y0^2 + 13*x1*y1*y2 + 17*x1*y2^2 + 19*x0*y1^2")])
    assert [hilbert_function(M, (a, a)) for a in (4, 6, 8)] == [20, 30, 40]


def test_free_basis_order_deterministic(P12):
    F = FreeModuleSpec(P12, [(0, 0), (1, 0)])
    b1 = free_basis_of_degree(F, (1, 1))
    b2 = free_basis_of_degree(F, (1, 1))
    assert b1 == b2
    assert len(b1) == 6 + 3


@pytest.mark.parametrize("coeffs", [(1, 6), (0,)], ids=["repeated", "zero"])
def test_vector_rejects_a_non_canonical_term_list(coeffs):
    """A Vector has no ring to reduce its terms by: a repeated key or a
    zero coefficient is refused where the vector is built, not left to
    the arithmetic that assumes one nonzero term per key."""
    key = term_key(0, (1, 0, 0, 0))
    with pytest.raises(ValueError):
        Vector([(key, c) for c in coeffs])


@pytest.mark.parametrize("build, error", [
    (lambda R: Poly.variable(R, 7), ValueError),
    (lambda R: Poly.variable(R, -1), ValueError),
    (lambda R: Poly.monomial(R, (1, 0)), ValueError),
    (lambda R: Poly.monomial(R, (-1, 0, 0, 0)), ValueError),
    (lambda R: Poly.monomial(R, (1.5, 0, 0, 0)), TypeError),
    (lambda R: Poly.constant(R, 1.5), TypeError),
    (lambda R: Poly.variable(R, 0).scale(1.5), TypeError),
    (lambda R: Poly.variable(R, 0) + 1, TypeError),
    (lambda R: Poly.variable(R, 0) - 1, TypeError),
], ids=["index-past-end", "index-negative", "exponents-too-few",
        "exponent-negative", "exponent-float", "coefficient-float",
        "scale-float", "add-int", "sub-int"])
def test_poly_constructors_check_their_input(P11, build, error):
    """Each of these used to give a wrong polynomial (the constant 1, a
    tuple cut short by zip, a float exponent or coefficient) or an
    AttributeError."""
    with pytest.raises(error):
        build(P11)


def _random_homogeneous(ring, rng, d):
    """A sum of up to four terms of multidegree d, coefficients drawn
    from beyond [0, p) so that the constructors must reduce them."""
    ms = monomials_of_degree(ring, d)
    f = Poly.zero(ring)
    for _ in range(rng.randint(1, 4)):
        f = f + Poly.monomial(ring, rng.choice(ms),
                              rng.randint(-ring.p, 2 * ring.p))
    return f


def _assert_canonical(f):
    keys = [k for k, _ in f.terms]
    assert all(a > b for a, b in zip(keys, keys[1:])), f
    assert all(1 <= c < f.ring.p for _, c in f.terms), f
    assert keys == [term_key(0, m) for _, m, _ in vec_entries(f.terms,
                                                              f.ring)], f


def test_a_poly_is_the_component_zero_vector(P12):
    """A Poly's terms are the terms of the one-component Vector it
    spans, so crossing between the two is no conversion at all, and
    ring arithmetic keeps the terms in that one canonical form."""
    import random
    rng = random.Random(26)
    G = buchberger(ideal_matrix(P12, [
        pp(P12, "x0*y0 + 3*x1*y1 - x0*y2"), pp(P12, "x1^2*y2 - 5*x0^2*y0")]))
    for _ in range(40):
        d = (rng.randint(0, 2), rng.randint(0, 2))
        f = _random_homogeneous(P12, rng, d)
        g = _random_homogeneous(P12, rng, d)
        v = Vector.from_components([f])
        assert v.terms == f.terms
        assert v.component_poly(P12, 0) == f
        assert normal_form(f, G).terms == normal_form(
            Vector(f.terms, _canonical=True), G).terms
        for h in (f + g, f - g, f - f, -f, f * g, f ** 3, f.scale(7)):
            _assert_canonical(h)
        assert not (f - f).terms
    # the (component, monomial, coefficient) view of vectors in four
    # components, with constant entries among them
    for _ in range(60):
        picked = {}
        for _ in range(rng.randint(0, 8)):
            m = rng.choice(monomials_of_degree(
                P12, (rng.randint(0, 1), rng.randint(0, 1))))
            picked[(rng.randrange(4), m)] = rng.randrange(1, P12.p)
        want = sorted((k, m, c) for (k, m), c in picked.items())
        v = Vector.from_entries(rng.sample(want, len(want)))
        assert sorted(vec_entries(v.terms, P12)) == want
        assert Vector.from_entries(vec_entries(v.terms, P12)) == v
        kept = sorted(rng.sample(range(4), rng.randint(0, 4)))
        moved = dict(zip(kept, sorted(rng.sample(range(6), len(kept)))))
        for new_id in (moved, {k: k for k in kept}):
            terms = vec_renumber(v.terms, new_id)
            keys = [key for key, _ in terms]
            assert all(a > b for a, b in zip(keys, keys[1:])), new_id
            assert sorted(vec_entries(terms, P12)) == sorted(
                (new_id[k], m, c) for k, m, c in want if k in new_id)
        assert sorted(vec_constants(v.terms)) == [
            (k, c) for k, m, c in want if not any(m)]


TOP = 2 ** 31 - 1


def _draw_terms(ring, rng, count):
    """Distinct (component, monomial) pairs: components 0-40, exponents
    0-40, and now and then a monomial at an extreme, 1 or a power
    x_v^(2^31 - 1), the largest a term can hold."""
    out = set()
    while len(out) < count:
        roll = rng.random()
        if roll < 0.1:
            m = (0,) * ring.nvars
        elif roll < 0.2:
            top = rng.randrange(ring.nvars)
            m = tuple(TOP if v == top else 0 for v in range(ring.nvars))
        else:
            m = tuple(rng.randint(0, 40) for _ in range(ring.nvars))
        out.add((rng.randint(0, 40), m))
    return sorted(out)


@pytest.mark.parametrize("n", [(1, 1), (1, 2), (2, 2), (1, 1, 1)],
                         ids=["P1xP1", "P1xP2", "P2xP2", "P1xP1xP1"])
def test_packed_keys_match_the_tuple_operations(n):
    """The packed term key orders terms as (total degree, monomial,
    -component) does, and its divisibility test, quotient, lcm and
    product agree with deg_leq, deg_sub, deg_max and deg_add on the
    exponent tuples; an lcm or product of total degree 2^31 or more is
    refused.  Encoding then decoding is the identity."""
    ring = RingSpec(n)
    packing = ring._packing
    rng = random.Random(29)
    terms = _draw_terms(ring, rng, 300)
    keys = {t: term_key(*t) for t in terms}
    assert sorted(terms, key=keys.get) == sorted(
        terms, key=lambda t: (sum(t[1]), t[1], -t[0]))
    for (ca, ma), (cb, mb) in (rng.sample(terms, 2) for _ in range(3000)):
        a, b = keys[(ca, ma)], term_key(ca, mb)
        assert packing.divides(a, b) == deg_leq(ma, mb), (ma, mb)
        assert (_find_divisor({a & _COMPONENT: [(a, 7)]}, b, packing.guards)
                == ((7, a) if deg_leq(ma, mb) else (None, None)))
        if deg_leq(ma, mb):
            assert b - a == _pack(deg_sub(mb, ma))
            assert packing.monomial(b - a) == deg_sub(mb, ma)
        for want, got in [(deg_max(ma, mb), lambda: packing.lcm(a, b)),
                          (deg_add(ma, mb), lambda: vec_mono_mul(
                              ((a, 1),), mb, 1, ring.p)[0][0])]:
            if sum(want) > TOP:
                with pytest.raises(ValueError, match="2\\^31 or more"):
                    got()
            else:
                assert got() == term_key(ca, want), (ma, mb)
    entries = [(c, m, rng.randint(1, ring.p - 1)) for c, m in terms]
    v = Vector.from_entries(rng.sample(entries, len(entries)))
    assert [k for k, _ in v.terms] == sorted(keys.values(), reverse=True)
    assert sorted(vec_entries(v.terms, ring)) == entries
    assert Vector.from_entries(vec_entries(v.terms, ring)) == v


@pytest.mark.parametrize("m", [(2 ** 31, 0, 0, 0), (TOP, 1, 0, 0),
                               (0, 0, 2 ** 40, 0)],
                         ids=["exponent", "total", "wide-exponent"])
def test_exponents_a_term_cannot_hold_are_refused(P11, m):
    """An exponent or total degree of 2^31 or more is refused where it
    is encoded, never wrapped into the next field, and so is a product
    whose lead would reach it."""
    with pytest.raises(ValueError, match="2\\^31 or more"):
        Poly.monomial(P11, m)
    with pytest.raises(ValueError, match="2\\^31 or more"):
        Vector.monomial(1, m)
    top = Poly.monomial(P11, (TOP, 0, 0, 0))
    assert vec_entries(top.terms, P11) == [(0, (TOP, 0, 0, 0), 1)]
    with pytest.raises(ValueError, match="2\\^31 or more"):
        top * Poly.variable(P11, 2)
    with pytest.raises(ValueError, match="2\\^31 or more"):
        Poly.variable(P11, 0) ** (2 ** 31)
