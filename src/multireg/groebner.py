"""Groebner bases for submodules of graded free modules, with the
derived operations the rest of the library is built on: normal forms,
syzygies, colon, saturation and intersection.

The engine is Buchberger's algorithm with the normal selection
strategy (pairs of lowest total degree first).  All inputs are
homogeneous, an invariant MatrixOverS checks where a matrix is built,
so processing pairs by degree keeps intermediate elements small and
makes runs reproducible.  When syzygies are requested, every
working element carries its representation in terms of the original
generators; each reduction to zero then hands us one homogeneous
syzygy, and together these generate the full syzygy module.

One criterion skips S-pairs, in every run, tracked or not:
Buchberger's chain criterion, in the strict form of Gebauer and Moeller
("On an installation of Buchberger's algorithm", JSC 6, 1988).  It
skips a pair whose lead syzygy is a combination of the lead syzygies of
two pairs with strictly smaller lcm.  The lifts of any generating set
of lead syzygies generate all syzygies (Schreyer; see Moeller, Mora and
Traverso, "Groebner bases computation using syzygies", ISSAC 1992), so
the syzygies of the treated pairs still generate the module.

S-pairs only exist between elements whose lead terms share a free
module component, which keeps pair counts low for high-rank modules.

The division loops work on ringcore's packed term keys, one int per
term (its module docstring has the layout): a term times a monomial
is an add, a divisibility test a subtract and a mask, a quotient a
subtract.  Leads, lcms and quotients stay packed inside this module;
exponent tuples leave it only through ``lead_monomials`` and
ringcore's entry view.
"""

import heapq
from itertools import combinations

from .errors import RingMismatchError
from .ringcore import (
    _COMPONENT,
    _MONOMIAL,
    _mul_terms,
    FreeModuleSpec,
    MatrixOverS,
    Poly,
    Presentation,
    Vector,
    deg_add,
    deg_sub,
    deg_total,
    vec_add,
    vec_renumber,
    vec_scale,
)


class GroebnerBasis:
    """A reduced Groebner basis of a submodule of a free module.

    Elements are monic homogeneous vectors, sorted by increasing lead
    term, with no lead dividing another and fully reduced tails, so
    equality of bases is equality of submodules.  ``_nf`` memoizes the
    normal forms of single terms (see normal_form); it is a cache, not
    part of the basis, and equality and hashing ignore it.
    """

    __slots__ = ("ambient", "elements", "_leads", "_nf")

    def __init__(self, ambient, elements):
        self.ambient = ambient
        self.elements = tuple(elements)
        self._leads = _lead_index([g.terms for g in self.elements])
        self._nf = {}

    def __eq__(self, other):
        return (isinstance(other, GroebnerBasis)
                and self.ambient == other.ambient
                and self.elements == other.elements)

    def __hash__(self):
        return hash((self.ambient, self.elements))

    def __len__(self):
        return len(self.elements)

    def lead_monomials(self, comp):
        """The lead monomials of the elements whose lead lies in
        component comp, as exponent tuples, in element order."""
        mono = self.ambient.ring._packing.monomial
        return [mono(lk) for lk, _ in self._leads.get(_COMPONENT - comp, ())]

    def as_matrix(self):
        return MatrixOverS.from_columns(self.ambient, self.elements)

    def __repr__(self):
        return f"GroebnerBasis({len(self.elements)} elements)"


def _lead_index(level):
    """{component field: [(lead key, index)]} of a list of term tuples,
    each list in index order: the ``leads`` of _reduce_full."""
    leads = {}
    for i, terms in enumerate(level):
        key = terms[0][0]
        leads.setdefault(key & _COMPONENT, []).append((key, i))
    return leads


def _find_divisor(leads, key, guards):
    """(index, lead key) of the first lead that divides the term key,
    or (None, None).  The test is _Packing.divides, inlined: this is
    the innermost loop of every division."""
    for lk, idx in leads.get(key & _COMPONENT, ()):
        if ((key | guards) - lk) & guards == guards:
            return idx, lk
    return None, None


def _reduce_full(terms, basis_terms, leads, ring):
    """Full reduction of a term tuple against monic basis elements:
    the one division loop of the module.

    Returns (remainder, quotients).  No term of the remainder is
    divisible by a lead, and ``terms`` is the remainder plus the sum
    of c * m * basis_terms[idx] over the (idx, m, c) in ``quotients``,
    one triple per division step, largest term first, with m a packed
    monomial.  ``leads`` maps a component field to the (lead key,
    index) pairs of the basis elements whose lead lies in it.  The
    term order is whatever the keys encode: the standard one for
    Buchberger, the induced order of a syzygy level in the lifted
    coordinates of schreyer_frame.
    """
    p = ring.p
    guards, limit = ring._packing.guards, ring._packing.limit
    rem = []
    quotients = []
    work = terms
    while work:
        key0, c0 = work[0]
        idx, lk = _find_divisor(leads, key0, guards)
        if idx is None:
            rem.append(work[0])
            work = work[1:]
            continue
        m = key0 - lk
        work = vec_add(work, _mul_terms(basis_terms[idx], m, p - c0, p,
                                        limit), p)
        quotients.append((idx, m, c0))
    return tuple(rem), quotients


class _Engine:
    """One Buchberger run over a fixed ambient free module.

    A run given the generators' expressions is tracked: every working
    element carries its expression in the original generators, and
    reductions to zero are recorded as syzygies.  Every run skips the
    pairs of the chain criterion, whose syzygies follow from those of
    smaller pairs.
    """

    def __init__(self, target):
        self.target = target
        self.ring = target.ring
        self.p = target.ring.p
        self.vecs = []
        self.reps = None
        self.leads = {}
        self.pairs = []
        self.syzygies = []

    def _install(self, terms, rep):
        """Reduce ``terms`` and install the remainder as a new monic
        element, pushing its pairs with every earlier element of the
        same lead component.  In a tracked run ``rep`` is the element's
        expression in the generators, and a reduction to zero records
        that expression as a syzygy."""
        p = self.p
        packing = self.ring._packing
        terms, quotients = _reduce_full(terms, self.vecs, self.leads,
                                        self.ring)
        if self.reps is not None:
            for idx, m, c in quotients:
                rep = vec_add(rep, _mul_terms(self.reps[idx], m, p - c, p,
                                              packing.limit), p)
        if not terms:
            if rep:
                self.syzygies.append(Vector(rep, _canonical=True))
            return
        inv = pow(terms[0][1], -1, p)
        terms = vec_scale(terms, inv, p)
        idx = len(self.vecs)
        self.vecs.append(terms)
        if self.reps is not None:
            self.reps.append(vec_scale(rep, inv, p))
        key = terms[0][0]
        twist = self.target.twists[_COMPONENT - (key & _COMPONENT)]
        # each pair is pushed once, when its later element is installed
        for lk, i in self.leads.get(key & _COMPONENT, ()):
            lcm = packing.lcm(lk, key)
            d = deg_add(self.ring.monomial_degree(packing.monomial(lcm)),
                        twist)
            heapq.heappush(self.pairs, (deg_total(d), d, i, idx, lcm))
        self.leads.setdefault(key & _COMPONENT, []).append((key, idx))

    def run(self, columns, reps=None):
        """Install the generators, then treat S-pairs by increasing
        degree until none is left.  The run is tracked exactly when
        ``reps``, the generators' expressions, is given."""
        if reps is not None:
            self.reps = []
        for k, v in enumerate(columns):
            self._install(v.terms, None if reps is None else reps[k])
        p = self.p
        packing = self.ring._packing
        limit, divides, lcm_of = packing.limit, packing.divides, packing.lcm
        while self.pairs:
            _, _, i, j, lcm = heapq.heappop(self.pairs)
            ti, tj = self.vecs[i], self.vecs[j]
            ki, kj = ti[0][0], tj[0][0]
            # chain criterion: the lcms of (i, k) and (k, j) properly
            # divide this one, so neither skip can depend on this pair
            if any(k != i and k != j and divides(kk, lcm)
                   and lcm_of(kk, ki) != lcm and lcm_of(kk, kj) != lcm
                   for kk, k in self.leads[lcm & _COMPONENT]):
                continue
            qi, qj = lcm - ki, lcm - kj
            s = vec_add(_mul_terms(ti, qi, 1, p, limit),
                        _mul_terms(tj, qj, p - 1, p, limit), p)
            rep = None
            if self.reps is not None:
                rep = vec_add(_mul_terms(self.reps[i], qi, 1, p, limit),
                              _mul_terms(self.reps[j], qj, p - 1, p, limit),
                              p)
            self._install(s, rep)


def _interreduce(vecs, ring):
    """Turn a Groebner basis into the reduced one: minimal lead set,
    fully reduced tails, monic, sorted by increasing lead.  Tails are
    reduced against the whole kept set: an element's own lead never
    divides a term of its tail, which has the same degree and is
    smaller."""
    kept = []
    leads = {}
    guards = ring._packing.guards
    for terms in sorted(vecs, key=lambda t: t[0][0]):
        key = terms[0][0]
        if _find_divisor(leads, key, guards)[0] is not None:
            continue
        leads.setdefault(key & _COMPONENT, []).append((key, len(kept)))
        kept.append(terms)
    return [Vector(t[:1] + _reduce_full(t[1:], kept, leads, ring)[0],
                   _canonical=True) for t in kept]


def buchberger(gens):
    """Reduced Groebner basis of the submodule of ``gens.target``
    generated by the columns of the MatrixOverS ``gens``.  Output is
    deterministic for a fixed column order.  The columns are
    homogeneous because ``gens`` is a MatrixOverS, which checks them
    where it is built; they are not read again here.
    """
    ambient = gens.target
    eng = _Engine(ambient)
    eng.run(gens.columns)
    return GroebnerBasis(ambient, _interreduce(eng.vecs, ambient.ring))


def _combine(pairs, memo, p):
    """The term tuple of sum(c * memo[key]) over the (key, c) in
    ``pairs``."""
    if len(pairs) == 1:
        key, c = pairs[0]
        return memo[key] if c == 1 else vec_scale(memo[key], c, p)
    acc = {}
    for key, c in pairs:
        for k, v in memo[key]:
            acc[k] = acc.get(k, 0) + c * v
    out = []
    for k in sorted(acc, reverse=True):
        v = acc[k] % p
        if v:
            out.append((k, v))
    return tuple(out)


def _term_normal_form(G, key):
    """Normal form of the single term ``key`` (coefficient 1), through
    the memo G._nf.

    A term no lead divides is its own normal form.  A term q*lead(g),
    with g the element _find_divisor picks, is congruent to -q*tail(g),
    so its normal form is the combination of the memoized normal forms
    of the terms of q*tail(g).  Those are strictly smaller, so the walk
    ends; it runs on an explicit stack, in post-order, because a chain
    can be as long as a graded piece is wide.
    """
    memo = G._nf
    got = memo.get(key)
    if got is not None:
        return got
    ring = G.ambient.ring
    p, guards, limit = ring.p, ring._packing.guards, ring._packing.limit
    tails = {}
    stack = [key]
    while stack:
        k = stack[-1]
        if k in memo:
            stack.pop()
            continue
        tail = tails.pop(k, None)
        if tail is not None:
            # every term of the tail was memoized above k on the stack
            memo[k] = _combine(tail, memo, p)
            stack.pop()
            continue
        idx, lk = _find_divisor(G._leads, k, guards)
        if idx is None:
            memo[k] = ((k, 1),)
            stack.pop()
            continue
        tail = _mul_terms(G.elements[idx].terms[1:], k - lk, p - 1, p, limit)
        tails[k] = tail
        stack.extend(t for t, _ in tail if t not in memo)
    return memo[key]


def normal_form(f, G):
    """Remainder of f on division by the basis: no remaining term is
    divisible by a lead of G, and f - result lies in the submodule.
    The result is zero exactly when f is a member.

    The remainder is linear in f, so it is the combination of the
    normal forms of f's terms, which G memoizes one term at a time
    (_term_normal_form): a term costs one division step the first
    time any call meets it and none after.  The remainder on division
    by a Groebner basis is unique, so this is the same tuple as full
    reduction of f (_reduce_full) returns.  A Poly f is reduced by a
    basis of an ideal: in a free module of rank one.
    """
    poly = isinstance(f, Poly)
    if poly and G.ambient.rank != 1:
        raise ValueError("a polynomial's normal form needs a basis in a "
                         f"free module of rank one, not {G.ambient.rank}")
    for key, _ in f.terms:
        _term_normal_form(G, key)
    terms = _combine(f.terms, G._nf, G.ambient.ring.p)
    return Poly(f.ring, terms) if poly else Vector(terms, _canonical=True)


def kernel_projection(M, rank):
    """Generators of the image of ker(M) under projection to the first
    ``rank`` source components (empty projections dropped).

    Only those generators are tracked: representation arithmetic is
    linear, so the tracked expressions are exactly the projections of
    the full ones.  M's columns are homogeneous by the MatrixOverS
    invariant, so each syzygy is homogeneous too.
    """
    eng = _Engine(M.target)
    eng.run(M.columns, [(Vector.unit(M.ring, j).terms if j < rank else ())
                        for j in range(len(M.columns))])
    return [s for s in eng.syzygies if s]


def preimage(phi, N):
    """Generators of {v in phi.source : phi(v) is in the span of the
    columns of N}, as a matrix into phi.source twisted by their degrees:
    the kernel of [phi | N] projected to phi.source."""
    src = phi.source
    big = MatrixOverS(FreeModuleSpec(phi.ring, src.twists + N.source.twists),
                      phi.target, phi.columns + N.columns, check=False)
    return MatrixOverS.from_columns(src, kernel_projection(big, src.rank))


def syzygies(M):
    """Generators of the kernel of M: source -> target.

    Columns of the output are homogeneous elements of the source whose
    images under M vanish, and they generate all such elements.  The
    new free module records one twist per syzygy (its degree).
    """
    src = M.source
    syz = kernel_projection(M, src.rank)
    syz.sort(key=lambda s: (deg_total(s.degree(src)), s.degree(src),
                            s.terms[0][0]))
    return MatrixOverS.from_columns(src, syz)


def schreyer_frame(relations):
    """Iterated syzygies of a presentation, reducing in Schreyer
    orders all the way up.

    Level one is the reduced standard-order Groebner basis of the
    relation columns.  At each later level the S-pair syzygies of the
    previous level form a Groebner basis in the order induced by the
    previous leads; their induced leads are known in advance, pairs
    with a dominated lead are dropped, and reductions run in the
    induced order.  Returns the list of differentials (each mapping
    the free module on one level's elements onto the kernel of the
    previous one), up to the first level with no pair left.

    Reductions run through _reduce_full, the loop Buchberger uses, in
    lifted coordinates where the induced order is the standard one.
    Following leads down from a level-k generator e_i reaches a bottom
    component b of the target with a lifted lead monomial L_i, through
    the generator ids i_1, ..., i_k = i, one per level; the induced
    order ranks m*e_i by (total degree of L_i*m, L_i*m, -b, -i_1, ...,
    -i_k).  Let rank(i) be i's position when its level is sorted by
    (rank of i's lead component, i), the target's components ranking
    as themselves; by induction this sorts by (b, i_1, ..., i_k).  So
    the induced order on the terms m*e_i is the order of the keys of
    L_i*m in component rank(i), and m*e_i divides m'*e_j exactly when
    the lifted terms do.  Level one lives in the target, whose lifts
    are trivial, so the Groebner basis is used as it is; each later
    level is lifted once, when it is built.

    The frame is not minimal, so Hilbert's bound on the length of a
    minimal resolution does not cap it (it can be one level longer
    than the number of variables); the loop ends for another reason.
    Call an element's lead component its parent.  By induction, each
    level-k element stands for a set of k level-one elements of one
    target component, its parent's set plus one: two elements over a
    common parent stand for P + {a} and P + {b}, and their pair gives
    an element standing for P + {a, b}.  Here a != b: distinct
    elements over one parent come from pairs with distinct partners,
    which by induction added distinct level-one elements.  So there
    are at most as many levels as level-one leads in one target
    component.
    """
    ring = relations.ring
    p = ring.p
    packing = ring._packing
    limit = packing.limit
    gb = buchberger(relations)
    if not gb.elements:
        return []
    mats = [gb.as_matrix()]
    # the elements of the current level, in lifted coordinates
    level = [g.terms for g in gb.elements]
    while True:
        src = mats[-1].source
        leads = _lead_index(level)
        pairs = []
        # the quotients lcm/lead are packed monomials, whose ints sort
        # by total degree and then by exponent tuple
        for lst in leads.values():
            for a, (lu, u) in enumerate(lst):
                for lv, v in lst[a + 1:]:
                    lcm = packing.lcm(lu, lv)
                    pairs.append((u, v, lcm - lu, lcm - lv))
        pairs.sort(key=lambda t: (t[2], t[0], t[1]))
        kept = []
        for u, v, mu, mv in pairs:
            if not any(w == u and packing.divides(m, mu)
                       for w, _, m, _ in kept):
                kept.append((u, v, mu, mv))
        if not kept:
            break
        lifts = [terms[0][0] & _MONOMIAL for terms in level]
        rank = {i: r for r, i in enumerate(sorted(
            range(len(level)),
            key=lambda i: (_COMPONENT - (level[i][0][0] & _COMPONENT), i)))}
        degs = []
        cols = []
        new_level = []
        for u, v, mu, mv in kept:
            # the two monic leads cancel
            s = vec_add(_mul_terms(level[u][1:], mu, 1, p, limit),
                        _mul_terms(level[v][1:], mv, p - 1, p, limit), p)
            rem, quotients = _reduce_full(s, level, leads, ring)
            if rem:
                raise ValueError("element does not reduce to zero")
            syz = [(u, mu, 1), (v, mv, p - 1)]
            syz += [(idx, m, p - c) for idx, m, c in quotients]
            degs.append(deg_add(ring.monomial_degree(packing.monomial(mu)),
                                src.twists[u]))
            cols.append(Vector([(m + _COMPONENT - i, c) for i, m, c in syz]))
            # already in decreasing lifted order: the lead, the other
            # lcm term (same lifted monomial, larger rank), then the
            # quotients, whose lifted leads decrease in the level below
            new_level.append(tuple(
                (lifts[i] + m + _COMPONENT - rank[i], c) for i, m, c in syz))
        mats.append(MatrixOverS(FreeModuleSpec(ring, degs), src, cols,
                                check=False))
        level = new_level
    return mats


def _common_colon(pairs):
    """Generators of {v in F : g_j*v in N_j for every pair (N_j, g_j)},
    for submodules N_j of one free module F (given as matrices into F)
    and nonzero homogeneous g_j.

    This is the kernel of F -> (+)_j F/N_j, v -> (g_j*v)_j, projected
    to F.  Block j of the stacked target is F twisted down by deg(g_j),
    so the column of each generator of F keeps that generator's degree
    whatever the degrees of the g_j.  The generators returned are the
    reduced Groebner basis, so equal colons give equal matrices.
    """
    F = pairs[0][0].target
    if any(N.target != F for N, _ in pairs):
        raise RingMismatchError("ambient free modules differ")
    ring = F.ring
    rank = F.rank
    shifts = [g.degree() for _, g in pairs]
    stacked = FreeModuleSpec(ring, [deg_sub(tw, s) for s in shifts
                                    for tw in F.twists])
    phi = MatrixOverS(F, stacked, [
        Vector.from_components([g if i == k else None
                                for _, g in pairs for i in range(rank)])
        for k in range(rank)], check=False)
    cols, twists = [], []
    for j, (N, _) in enumerate(pairs):
        block = {k: k + j * rank for k in range(rank)}
        for w, tw in zip(N.columns, N.source.twists):
            cols.append(Vector(vec_renumber(w.terms, block), _canonical=True))
            twists.append(deg_sub(tw, shifts[j]))
    Ns = MatrixOverS(FreeModuleSpec(ring, twists), stacked, cols, check=False)
    return buchberger(preimage(phi, Ns)).as_matrix()


def colon(N, f):
    """Generators of (N : f) = {v in F : f*v in N} for a submodule N
    of the free module F (given as a matrix into F) and homogeneous f."""
    if not f:
        raise ValueError("colon by zero")
    return _common_colon([(N, f)])


def colon_by_ideal(N, gens):
    """Generators of (N : J) = {v in F : g*v in N for all g in J}, as
    one kernel of F -> (F/N)^|gens| whatever the generator degrees."""
    gens = [g for g in gens if g]
    if not gens:
        raise ValueError("colon by the zero ideal")
    return _common_colon([(N, g) for g in gens])


def submodules_equal(A, B):
    """Equality of the submodules generated by two matrices into the
    same free module, by reduced Groebner basis comparison."""
    if A.target != B.target:
        raise RingMismatchError("submodules of different free modules")
    return buchberger(A).elements == buchberger(B).elements


def intersect_submodules(N1, N2):
    """Generators of N1 ∩ N2 via the kernel of F -> F/N1 ⊕ F/N2."""
    one = Poly.one(N1.ring)
    return _common_colon([(N1, one), (N2, one)])


def ideal_matrix(ring, gens):
    """Package homogeneous polynomials as a submodule of S: the
    relations of S/I."""
    return Presentation.quotient_by_ideal(ring, gens).relations


def factor_ideals(ring):
    """The maximal ideals m_1, ..., m_r of the factors, each as the
    variables of its block.  Their product is the irrelevant ideal B,
    which is handled through them and never listed: it has
    Pi(n_i + 1) generators where they have Sigma(n_i + 1).

    Both uses are exact.  An associated prime of a module contains
    B = m_1 ... m_r exactly when it contains some m_i, so M has no
    B-torsion exactly when it has no m_i-torsion for any i.  And v lies
    in (...((N : m_1^infinity) : m_2^infinity) ... : m_r^infinity)
    exactly when m_r^k ... m_1^k v lies in N for some k, which is
    B^k v, so that iterated saturation is (N : B^infinity).
    """
    return [[Poly.variable(ring, v) for v in ring.block(i)]
            for i in range(ring.r)]


def saturate(N, J):
    """(N : J^infinity): repeatedly colon by the generators of J until
    the submodule stabilizes (reduced Groebner basis equality).  The
    saturation by B is by each of ``factor_ideals`` in turn.

    Each round computes the simultaneous colon (N : J), which equals
    the intersection of the one-generator colons.
    """
    cur = buchberger(N).as_matrix()
    while True:
        nxt = colon_by_ideal(cur, J)
        if cur.columns == nxt.columns:
            return cur
        cur = nxt


def quotient_ring_dimension(ring, gens):
    """Krull dimension of S/I from the initial ideal: the largest
    number of variables avoiding the support of every lead monomial."""
    gb = buchberger(ideal_matrix(ring, gens))
    supports = []
    for g in gb.elements:
        (_, mono), _ = g.lead(ring)
        supports.append(frozenset(i for i, e in enumerate(mono) if e))
    if not supports:
        return ring.nvars
    if frozenset() in supports:
        return -1
    nv = ring.nvars
    for size in range(nv, -1, -1):
        for T in combinations(range(nv), size):
            Tset = set(T)
            if all(not s <= Tset for s in supports):
                return size
    return 0
