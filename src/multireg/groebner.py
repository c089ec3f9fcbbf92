"""Groebner bases for submodules of graded free modules, with the
derived operations the rest of the library is built on: normal forms,
syzygies, colon, saturation and intersection.

The engine is Buchberger's algorithm with the normal selection
strategy (pairs of lowest total degree first).  All inputs are
homogeneous, so processing pairs by degree keeps intermediate elements
small and makes runs reproducible.  When syzygies are requested, every
working element carries its representation in terms of the original
generators; each reduction to zero then hands us one homogeneous
syzygy, and together these generate the full syzygy module.

S-pairs only exist between elements whose lead terms share a free
module component, which keeps pair counts low for high-rank modules.
"""

import heapq

from .errors import InhomogeneousError, RingMismatchError
from .ringcore import (
    FreeModuleSpec,
    MatrixOverS,
    Poly,
    Vector,
    deg_add,
    deg_total,
    mono_div,
    mono_mul,
    mono_divides,
    mono_coprime,
    mono_lcm,
    term_key,
    vec_add,
    vec_mono_mul,
    vec_scale,
)


class ModuleOrder:
    """Term order on a free module.

    The base order on ring monomials compares total degree first, then
    exponents lexicographically; between components the term wins
    first (term-over-position) and the lower component index breaks
    exact ties.  Optionally the order can be induced Schreyer-style
    from the lead terms of a parent basis: a term m*e_k is then ranked
    by the parent position of m * lead(g_k).
    """

    __slots__ = ("schreyer_leads", "parent")

    def __init__(self, schreyer_leads=None, parent=None):
        self.schreyer_leads = schreyer_leads
        self.parent = parent

    def key(self, comp, mono):
        if self.schreyer_leads is None:
            return term_key(comp, mono)
        pc, pm = self.schreyer_leads[comp]
        lifted = tuple(a + b for a, b in zip(pm, mono))
        parent = self.parent if self.parent is not None else ModuleOrder()
        return (parent.key(pc, lifted), -comp)

    def __repr__(self):
        kind = "schreyer" if self.schreyer_leads is not None else "glex-top"
        return f"ModuleOrder({kind})"


STANDARD_ORDER = ModuleOrder()


class GroebnerBasis:
    """A reduced Groebner basis of a submodule of a free module.

    Elements are monic homogeneous vectors, sorted by increasing lead
    term, with no lead dividing another and fully reduced tails, so
    equality of bases is equality of submodules.
    """

    __slots__ = ("ambient", "elements", "_leads")

    def __init__(self, ambient, elements):
        self.ambient = ambient
        self.elements = tuple(elements)
        leads = {}
        for i, g in enumerate(self.elements):
            (comp, mono), _ = g.lead()
            leads.setdefault(comp, []).append((mono, i))
        self._leads = leads

    def __eq__(self, other):
        return (isinstance(other, GroebnerBasis)
                and self.ambient == other.ambient
                and self.elements == other.elements)

    def __hash__(self):
        return hash((self.ambient, self.elements))

    def __len__(self):
        return len(self.elements)

    def contains(self, v):
        return not normal_form(v, self)

    def as_matrix(self):
        ring = self.ambient.ring
        twists = [g.degree(self.ambient) for g in self.elements]
        src = FreeModuleSpec(ring, twists)
        return MatrixOverS(src, self.ambient, self.elements, check=False)

    def __repr__(self):
        return f"GroebnerBasis({len(self.elements)} elements)"


def _check_homogeneous_columns(columns, spec):
    for v in columns:
        v.degree(spec)


def _find_divisor(leads, comp, mono):
    for lm, idx in leads.get(comp, ()):
        if mono_divides(lm, mono):
            return idx, lm
    return None, None


def _reduce_full(terms, basis_terms, leads, p, reps=None):
    """Normal form of a term tuple against monic basis elements.

    Returns (remainder_terms, rep_delta) where rep_delta accumulates
    the used quotients against ``reps`` (term tuples over the tracking
    module) when tracking is on.  Quotients are gathered first and
    merged once at the end.
    """
    rem = []
    quotients = [] if reps is not None else None
    work = terms
    while work:
        key0, c0 = work[0]
        comp, mono = -key0[2], key0[1]
        idx, lm = _find_divisor(leads, comp, mono)
        if idx is None:
            rem.append(work[0])
            work = work[1:]
            continue
        m = mono_div(mono, lm)
        work = vec_add(work, vec_mono_mul(basis_terms[idx], m, p - c0, p), p)
        if quotients is not None:
            quotients.append((idx, m, c0))
    delta = None
    if quotients is not None:
        delta = ()
        for idx, m, c0 in quotients:
            if reps[idx]:
                delta = vec_add(delta, vec_mono_mul(reps[idx], m, c0, p), p)
    return tuple(rem), delta


class _Engine:
    """One Buchberger run over a fixed ambient free module.

    With ``tracked`` every working element carries its expression in
    the original generators, and reductions to zero are recorded as
    syzygies.  Untracked runs skip pairs by the product criterion,
    whose skipped syzygies nobody asks for.
    """

    def __init__(self, target, tracked=False):
        self.target = target
        self.ring = target.ring
        self.p = target.ring.p
        self.tracked = tracked
        self.vecs = []
        self.reps = [] if tracked else None
        self.solo = []
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
        terms, delta = _reduce_full(terms, self.vecs, self.leads, p,
                                    self.reps)
        if self.tracked:
            rep = vec_add(rep, vec_scale(delta, p - 1, p), p)
        if not terms:
            if self.tracked and rep:
                self.syzygies.append(Vector(rep, _canonical=True))
            return
        inv = pow(terms[0][1], -1, p)
        terms = vec_scale(terms, inv, p)
        idx = len(self.vecs)
        self.vecs.append(terms)
        if self.tracked:
            self.reps.append(vec_scale(rep, inv, p))
        key0 = terms[0][0]
        comp, mono = -key0[2], key0[1]
        self.solo.append(comp if all(-k[2] == comp for k, _ in terms)
                         else None)
        # each pair is pushed once, when its later element is installed
        for lm, i in self.leads.get(comp, ()):
            lcm = mono_lcm(lm, mono)
            d = deg_add(self.ring.monomial_degree(lcm),
                        self.target.twists[comp])
            heapq.heappush(self.pairs, (deg_total(d), d, i, idx, lcm))
        self.leads.setdefault(comp, []).append((mono, idx))

    def run(self, columns, reps=None):
        """Install the generators (with their expressions ``reps`` when
        tracked), then treat S-pairs by increasing degree until none
        is left."""
        for k, v in enumerate(columns):
            self._install(v.terms, reps[k] if self.tracked else None)
        p = self.p
        while self.pairs:
            _, _, i, j, lcm = heapq.heappop(self.pairs)
            ti, tj = self.vecs[i], self.vecs[j]
            mi, mj = ti[0][0][1], tj[0][0][1]
            # the product criterion only holds for elements that act
            # like ring elements: both supported in one shared component
            if (not self.tracked and mono_coprime(mi, mj)
                    and self.solo[i] is not None
                    and self.solo[i] == self.solo[j]):
                continue
            qi, qj = mono_div(lcm, mi), mono_div(lcm, mj)
            s = vec_add(vec_mono_mul(ti, qi, 1, p),
                        vec_mono_mul(tj, qj, p - 1, p), p)
            rep = None
            if self.tracked:
                rep = vec_add(vec_mono_mul(self.reps[i], qi, 1, p),
                              vec_mono_mul(self.reps[j], qj, p - 1, p), p)
            self._install(s, rep)


def _interreduce(vecs, p):
    """Turn a Groebner basis into the reduced one: minimal lead set,
    fully reduced tails, monic, sorted by increasing lead.  Tails are
    reduced against the whole kept set: an element's own lead never
    divides a term of its tail, which has the same degree and is
    smaller."""
    kept = []
    leads = {}
    for terms in sorted(vecs, key=lambda t: t[0][0]):
        key0 = terms[0][0]
        comp, mono = -key0[2], key0[1]
        if _find_divisor(leads, comp, mono)[0] is not None:
            continue
        leads.setdefault(comp, []).append((mono, len(kept)))
        kept.append(terms)
    return [Vector(t[:1] + _reduce_full(t[1:], kept, leads, p)[0],
                   _canonical=True) for t in kept]


def buchberger(gens, ambient=None):
    """Reduced Groebner basis of the submodule generated by ``gens``.

    ``gens`` may be a MatrixOverS (columns generate) or a list of
    homogeneous Vectors with ``ambient`` their free module.  Output is
    deterministic for a fixed input order.
    """
    if isinstance(gens, MatrixOverS):
        ambient = gens.target
        columns = gens.columns
    else:
        columns = tuple(gens)
        if ambient is None:
            raise ValueError("ambient free module required")
    try:
        _check_homogeneous_columns(columns, ambient)
    except InhomogeneousError as exc:
        raise InhomogeneousError(f"buchberger: {exc}") from exc
    eng = _Engine(ambient)
    eng.run(columns)
    return GroebnerBasis(ambient, _interreduce(eng.vecs, ambient.ring.p))


def normal_form(f, G):
    """Remainder of f on division by the basis: no remaining term is
    divisible by a lead of G, and f - result lies in the submodule.
    The result is zero exactly when f is a member.
    """
    if isinstance(f, Poly):
        v = Vector.from_components([f])
        out = normal_form(v, G)
        return out.component_poly(f.ring, 0)
    basis_terms = [g.terms for g in G.elements]
    rem, _ = _reduce_full(f.terms, basis_terms, G._leads, G.ambient.ring.p)
    return Vector(rem, _canonical=True)


def kernel_projection(M, rank):
    """Generators of the image of ker(M) under projection to the first
    ``rank`` source components (empty projections dropped).

    Only those generators are tracked: representation arithmetic is
    linear, so the tracked expressions are exactly the projections of
    the full ones.
    """
    _check_homogeneous_columns(M.columns, M.target)
    eng = _Engine(M.target, tracked=True)
    eng.run(M.columns, [(Vector.unit(M.ring, j).terms if j < rank else ())
                        for j in range(len(M.columns))])
    return [s for s in eng.syzygies if s]


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
    twists = [s.degree(src) for s in syz]
    out_src = FreeModuleSpec(M.ring, twists)
    return MatrixOverS(out_src, src, syz, check=False)


class _Rev:
    """Max-heap adapter: reverses the comparison of a key."""

    __slots__ = ("key",)

    def __init__(self, key):
        self.key = key

    def __lt__(self, other):
        return self.key > other.key


def _reduce_to_zero_in_order(start, tails, lead_lookup, order, p):
    """Reduce an element to zero against monic basis elements in an
    arbitrary module order, returning the quotients used.

    ``start`` is a list of (comp, mono, coeff); basis element i has a
    unit lead recorded in ``lead_lookup`` and remaining terms
    ``tails[i]``.  Raises if the element does not reduce to zero.
    """
    work = {}
    heap = []

    def push(comp, mono, coeff):
        cm = (comp, mono)
        cur = work.get(cm)
        if cur is None:
            work[cm] = coeff % p
            heapq.heappush(heap, (_Rev(order.key(comp, mono)), comp, mono))
        else:
            work[cm] = (cur + coeff) % p

    for comp, mono, coeff in start:
        push(comp, mono, coeff)
    quotients = []
    while heap:
        _, comp, mono = heapq.heappop(heap)
        c = work.pop((comp, mono), 0)
        if not c:
            continue
        idx = None
        for lm, i in lead_lookup.get(comp, ()):
            if mono_divides(lm, mono):
                idx = i
                lmono = lm
                break
        if idx is None:
            raise ValueError("element does not reduce to zero")
        m = mono_div(mono, lmono)
        quotients.append((idx, m, c))
        for c2, m2, coeff2 in tails[idx]:
            push(c2, mono_mul(m2, m), (p - c) * coeff2)
    return quotients


def schreyer_frame(relations, cap):
    """Iterated syzygies of a presentation, reducing in Schreyer
    orders all the way up.

    Level one is the reduced standard-order Groebner basis of the
    relation columns.  At each later level the S-pair syzygies of the
    previous level form a Groebner basis in the order induced by the
    previous leads; their induced leads are known in advance, pairs
    with a dominated lead are dropped, and reductions run in the
    induced order.  Returns the list of differentials (each mapping
    the free module on one level's elements onto the kernel of the
    previous one).
    """
    ring = relations.ring
    p = ring.p
    gb = buchberger(relations.columns, relations.target)
    if not gb.elements:
        return []
    order = STANDARD_ORDER
    target = relations.target
    leads = []
    tails = []
    degrees = []
    for g in gb.elements:
        (comp, mono), _ = g.lead()
        leads.append((comp, mono))
        tails.append([(-negc, m, c) for (tot, m, negc), c in g.terms[1:]])
        degrees.append(g.degree(target))
    mats = [MatrixOverS(FreeModuleSpec(ring, degrees), target, gb.elements,
                        check=False)]
    while len(mats) < cap:
        src = mats[-1].source
        lead_lookup = {}
        for i, (comp, mono) in enumerate(leads):
            lead_lookup.setdefault(comp, []).append((mono, i))
        pairs = []
        for comp, lst in lead_lookup.items():
            for a in range(len(lst)):
                for b in range(a + 1, len(lst)):
                    i, j = lst[a][1], lst[b][1]
                    u, v = min(i, j), max(i, j)
                    lcm = mono_lcm(leads[u][1], leads[v][1])
                    pairs.append((u, v, mono_div(lcm, leads[u][1]), lcm))
        pairs.sort(key=lambda t: (sum(t[2]), t[2], t[0], t[1]))
        kept = []
        kept_leads = []
        for u, v, m, lcm in pairs:
            if any(w == u and mono_divides(m2, m) for w, m2 in kept_leads):
                continue
            kept.append((u, v, m, lcm))
            kept_leads.append((u, m))
        if not kept:
            break
        new_leads = []
        new_tails = []
        new_degs = []
        new_cols = []
        for u, v, mu_quot, lcm in kept:
            mv_quot = mono_div(lcm, leads[v][1])
            start = [(c2, mono_mul(m2, mu_quot), coeff2)
                     for c2, m2, coeff2 in tails[u]]
            start += [(c2, mono_mul(m2, mv_quot), (p - 1) * coeff2 % p)
                      for c2, m2, coeff2 in tails[v]]
            quotients = _reduce_to_zero_in_order(start, tails, lead_lookup,
                                                 order, p)
            tail = [(v, mv_quot, p - 1)]
            for idx, m, c in quotients:
                tail.append((idx, m, (p - c) % p))
            new_leads.append((u, mu_quot))
            new_tails.append(tail)
            new_degs.append(deg_add(ring.monomial_degree(mu_quot),
                                    src.twists[u]))
            terms = [(term_key(u, mu_quot), 1)]
            terms += [(term_key(c2, m2), coeff2) for c2, m2, coeff2 in tail]
            new_cols.append(Vector(terms))
        mats.append(MatrixOverS(FreeModuleSpec(ring, new_degs), src,
                                new_cols, check=False))
        order = ModuleOrder(schreyer_leads=leads, parent=order)
        leads, tails = new_leads, new_tails
    return mats


def colon(N, f):
    """Generators of (N : f) = {v in F : f*v in N} for a submodule N
    of the free module F (given as a matrix into F) and homogeneous f."""
    if not f:
        raise ValueError("colon by zero")
    fd = f.degree()
    F = N.target
    ring = F.ring
    cols = []
    twists = []
    for k in range(F.rank):
        cols.append(Vector.from_components(
            [f if i == k else None for i in range(F.rank)]))
        twists.append(deg_add(F.twists[k], fd))
    cols.extend(N.columns)
    twists.extend(N.source.twists)
    big = MatrixOverS(FreeModuleSpec(ring, twists), F, cols, check=False)
    projected = kernel_projection(big, F.rank)
    return _span_matrix(projected, F)


def colon_by_ideal(N, gens):
    """Generators of (N : J) = {v in F : g*v in N for all g in J}.

    When all generators of J share one degree this is a single kernel
    of F -> (F/N)^|gens|; otherwise it falls back to intersecting the
    one-element colons.
    """
    gens = [g for g in gens if g]
    if not gens:
        raise ValueError("colon by the zero ideal")
    degs = {g.degree() for g in gens}
    if len(degs) > 1:
        out = colon(N, gens[0])
        for g in gens[1:]:
            out = intersect_submodules(out, colon(N, g))
        return out
    gdeg = degs.pop()
    F = N.target
    ring = F.ring
    t = len(gens)
    stacked = FreeModuleSpec(ring, F.twists * t)
    rank = F.rank
    cols = []
    twists = []
    for k in range(rank):
        terms = []
        for j, g in enumerate(gens):
            for m, c in g.terms:
                terms.append((term_key(k + j * rank, m), c))
        cols.append(Vector(terms))
        twists.append(deg_add(F.twists[k], gdeg))
    for j in range(t):
        for w in N.columns:
            shifted = tuple(((tot, m, negc - j * rank), c)
                            for (tot, m, negc), c in w.terms)
            cols.append(Vector(shifted))
            twists.append(w.degree(F))
    big = MatrixOverS(FreeModuleSpec(ring, twists), stacked, cols, check=False)
    projected = kernel_projection(big, rank)
    return _span_matrix(projected, F)


def _span_matrix(vectors, ambient):
    """Package vectors as a matrix into ambient, with canonical
    (reduced Groebner) generators for stable comparisons."""
    gb = buchberger(vectors, ambient) if vectors else None
    if gb is None or not gb.elements:
        return MatrixOverS(FreeModuleSpec(ambient.ring, ()), ambient, (),
                           check=False)
    return gb.as_matrix()


def submodules_equal(A, B):
    """Equality of the submodules generated by two matrices into the
    same free module, by reduced Groebner basis comparison."""
    if A.target != B.target:
        raise RingMismatchError("submodules of different free modules")
    return (buchberger(A.columns, A.target).elements
            == buchberger(B.columns, B.target).elements)


def intersect_submodules(N1, N2):
    """Generators of N1 ∩ N2 via the kernel of F -> F/N1 ⊕ F/N2."""
    if N1.target != N2.target:
        raise RingMismatchError("ambient free modules differ")
    F = N1.target
    ring = F.ring
    double = FreeModuleSpec(ring, F.twists + F.twists)
    rank = F.rank
    from .ringcore import mono_one
    one = mono_one(ring)
    cols = []
    twists = []
    for k in range(rank):
        cols.append(Vector(((term_key(k, one), 1),
                            (term_key(k + rank, one), 1))))
        twists.append(F.twists[k])
    for v in N1.columns:
        cols.append(v)
        twists.append(v.degree(F))
    for v in N2.columns:
        shifted = tuple((((tot, m, negc - rank), c))
                        for (tot, m, negc), c in v.terms)
        cols.append(Vector(shifted))
        twists.append(v.degree(F))
    big = MatrixOverS(FreeModuleSpec(ring, twists), double, cols, check=False)
    projected = kernel_projection(big, rank)
    return _span_matrix(projected, F)


def ideal_matrix(ring, gens):
    """Package homogeneous polynomials as a submodule of S."""
    from .ringcore import zero_degree
    F = FreeModuleSpec(ring, (zero_degree(ring.r),))
    cols = []
    twists = []
    for g in gens:
        if not g:
            continue
        cols.append(Vector.from_components([g]))
        twists.append(g.degree())
    return MatrixOverS(FreeModuleSpec(ring, twists), F, cols)


def irrelevant_ideal(ring):
    """Generators of the irrelevant ideal: all products of one
    variable from each factor."""
    return [Poly.monomial(ring, m) for m in ring.irrelevant_generators()]


def saturate(N, J):
    """(N : J^infinity): repeatedly colon by the generators of J until
    the submodule stabilizes (reduced Groebner basis equality).

    Each round computes the simultaneous colon (N : J), which equals
    the intersection of the one-generator colons; both routes are
    exposed and agree, the simultaneous kernel is just cheaper.
    """
    if isinstance(J, MatrixOverS):
        J = [J.entry(0, l) for l in range(J.source.rank)]
    cur = _span_matrix(list(N.columns), N.target)
    while True:
        nxt = colon_by_ideal(cur, J)
        if cur.columns == nxt.columns:
            return cur
        cur = nxt


def quotient_ring_dimension(ring, gens):
    """Krull dimension of S/I from the initial ideal: the largest
    number of variables avoiding the support of every lead monomial."""
    from itertools import combinations
    gb = buchberger(ideal_matrix(ring, gens))
    supports = []
    for g in gb.elements:
        (_, mono), _ = g.lead()
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
