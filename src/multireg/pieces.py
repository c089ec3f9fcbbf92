"""Finite-dimensional graded pieces of presented modules.

For M = coker(relations) the standard monomials of a Groebner basis of
the relation submodule form a basis of each graded piece, so once the
basis is computed every piece and every multiplication map between
pieces is plain linear algebra over F_p.  This is the workhorse behind
Hilbert-function queries, the Koszul homology of truncations, and the
Ext complexes of the cohomology oracle.

The standard monomials of one component form an order ideal: every
divisor of a standard monomial is standard.  So a piece is grown from
a piece one step below it, as the products of its monomials with the
variables of one block that no lead divides, and the free piece around
it is never listed.

The Koszul complex K(x) (x) M_{>=d} in degree b has one summand
M_{b - deg x_S} per subset S of the variables whose source degree is
>= d; ``GradedPieces._koszul_terms`` alone lists them.  A truncation's
minimal generators are H_0: the standard-basis elements of a piece
outside the image of the dense d_1 (``minimal_generators``).  The
region sweep reads H_1 from sparse rows of d_1 and d_2
(``koszul_h1_dim``).

Multiplication matrices are assembled from sparse blocks, one per
(monomial, source degree).  A product of a basis monomial that is
itself a basis monomial is a unit entry; only the other products take
a normal form, and the Groebner basis memoizes those per term, so the
long reduction chains of high powers are walked once per module, not
once per degree and power that meets them.
"""

import itertools
import weakref

import numpy as np

from . import modp
from .groebner import buchberger, normal_form
from .ringcore import (
    Poly,
    Vector,
    checked_degree,
    deg_add,
    deg_leq,
    deg_sub,
    mono_divides,
    mono_mul,
    mono_one,
    vec_entries,
)


_SHARED = weakref.WeakKeyDictionary()


def _scaled(vals, c, p):
    """c * vals mod p for residues vals in [1, p), exact for every p
    below 2^62."""
    if c == 1:
        return vals
    if c == p - 1:
        return p - vals
    return np.array([v * c % p for v in vals.tolist()], dtype=np.int64)


class GradedPieces:
    """Graded-piece calculator for one presentation, with caching."""

    @classmethod
    def of(cls, M):
        """Shared calculator for a presentation (bases and
        multiplication matrices are expensive enough to reuse)."""
        got = _SHARED.get(M)
        if got is None:
            got = cls(M)
            _SHARED[M] = got
        return got

    def __init__(self, M):
        self.F0 = M.F0  # not M: the cache entry must not keep its key alive
        self.ring = M.ring
        self.gb = buchberger(M.relations)
        self._basis = {}
        self._index = {}
        # (component, requested degree relative to its twist) ->
        # standard monomials
        self._standard = {}
        self._blocks = {}
        # regularity.module_is_saturated_at_zero's verdict, once known
        self.saturated_at_zero = None

    def basis(self, d):
        """Standard-monomial basis of the degree-d piece: pairs
        (component, monomial) not divisible by any relation lead,
        component-major, monomials in descending term order.  Standard
        monomials form an order ideal, so each component's part is
        grown from a piece one step below it
        (``_standard_monomials``), not filtered from the free piece."""
        d = tuple(d)
        got = self._basis.get(d)
        if got is not None:
            return got
        d = checked_degree(d, self.ring.r)
        out = [(k, m) for k, tw in enumerate(self.F0.twists)
               for m in self._standard_monomials(k, deg_sub(d, tw))]
        self._basis[d] = out
        self._index[d] = {cm: i for i, cm in enumerate(out)}
        return out

    def _standard_monomials(self, k, rel):
        """The monomials of degree rel that no lead of component k
        divides, in descending term order (one degree, so lex order).

        They form an order ideal: every divisor of a standard monomial
        is standard.  So for any block i with rel_i > 0, each of them
        is x_v m for a variable x_v of block i and a standard m of
        degree rel - e_i, and the piece is the distinct such products
        that no lead divides.  The pieces below are built on the way
        up from the nearest known one (or from degree 0), by a loop,
        not recursion: the chain is as long as the total degree.  A
        step goes through a block whose piece below is known, when one
        is, and otherwise through the first positive block; only the
        requested pieces are kept, so a deep query leaves one piece
        behind, not the whole order ideal below it."""
        if min(rel) < 0:
            return ()
        memo = self._standard
        got = memo.get((k, rel))
        if got is not None:
            return got
        chain, low = [], rel
        while (k, low) not in memo and any(low):
            steps = [(i, low[:i] + (a - 1,) + low[i + 1:])
                     for i, a in enumerate(low) if a]
            i, low = next((st for st in steps if (k, st[1]) in memo),
                          steps[0])
            chain.append(i)
        leads = self.gb.lead_monomials(k)
        got = memo.get((k, low))
        if got is None:
            # degree 0: the unit monomial, unless a lead is the unit
            got = (() if any(not any(lm) for lm in leads)
                   else (mono_one(self.ring),))
        for i in reversed(chain):
            block = self.ring.block(i)
            # m is standard, so a lead that divides x_v m has x_v m's
            # exponent at v
            prods = {m[:v] + (m[v] + 1,) + m[v + 1:]: v
                     for m in got for v in block}
            got = tuple(sorted(
                (q for q, v in prods.items()
                 if not any(lm[v] == q[v] and mono_divides(lm, q)
                            for lm in leads)),
                reverse=True))
        memo[(k, rel)] = got
        return got

    def dim(self, d):
        return len(self.basis(d))

    def _block(self, m, d):
        """Multiplication by the monomial m from the degree-d piece, as
        (rows, cols, residues, shape) of its nonzero entries."""
        key = (m, d)
        got = self._blocks.get(key)
        if got is not None:
            return got
        src = self.basis(d)
        e = deg_add(d, self.ring.monomial_degree(m))
        tgt = self.basis(e)
        idx = self._index[e]
        rows, cols, vals = [], [], []
        for j, (comp, mono) in enumerate(src):
            prod = mono_mul(mono, m)
            i = idx.get((comp, prod))
            if i is not None:
                rows.append(i)
                cols.append(j)
                vals.append(1)
                continue
            nf = normal_form(Vector.monomial(comp, prod), self.gb)
            for k, mm, c in vec_entries(nf.terms, self.ring):
                rows.append(idx[(k, mm)])
                cols.append(j)
                vals.append(c)
        got = (np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp),
               np.array(vals, dtype=np.int64), (len(tgt), len(src)))
        self._blocks[key] = got
        return got

    def _image_rows(self, m, d, offset=0, negate=False):
        """Multiplication by the monomial m (negated when asked) from
        the degree-d piece, as one sparse row {offset + target index:
        residue} per source basis element."""
        rows, cols, vals, (_, n) = self._block(m, d)
        p = self.ring.p
        out = [{} for _ in range(n)]
        for i, j, v in zip(rows.tolist(), cols.tolist(), vals.tolist()):
            out[j][offset + i] = p - v if negate else v
        return out

    def _koszul_terms(self, k, b, lower_bound):
        """The summands of K_k (x) M_{>=d} in degree b, for d =
        lower_bound: (S, x_S, b - deg x_S) for each k-subset S of the
        variables, in lexicographic order, whose source degree
        b - deg x_S is >= d.  Truncation at d keeps exactly these
        pieces M_{b - deg x_S}, whatever the signs of their
        coordinates."""
        ring = self.ring
        for S in itertools.combinations(range(ring.nvars), k):
            x = tuple(int(v in S) for v in range(ring.nvars))
            c = deg_sub(b, ring.monomial_degree(x))
            if deg_leq(lower_bound, c):
                yield S, x, c

    def minimal_generators(self, e, lower_bound):
        """H_0 of K(x) (x) M_{>=d} in degree e, for d = lower_bound, as
        elements of ``basis(e)``: the (component, monomial) pairs
        outside the span of d_1 and of the pairs picked before them.
        They are the ``rref`` pivots of an identity block on basis(e),
        placed after one ``mult_matrix`` block per ``_koszul_terms``
        summand, so they are a basis of a complement of
        sum_v x_v M_{e-e_v} (over e - e_v >= d) in M_e."""
        basis = self.basis(e)
        span = [self.mult_matrix(Poly.monomial(self.ring, x), c)
                for _, x, c in self._koszul_terms(1, e, lower_bound)]
        ncols = sum(A.shape[1] for A in span)
        ident = np.eye(len(basis), dtype=np.int64)
        _, pivots = modp.rref(np.hstack(span + [ident]), self.ring.p)
        return [basis[c - ncols] for c in pivots if c >= ncols]

    def koszul_h1_dim(self, b, lower_bound):
        """dim_k Tor_1(M_{>=d}, k)_b for d = lower_bound: the number of
        minimal relations of degree b of the truncation of M at d.

        Tor_1(N, k) is the first homology of the Koszul complex
        K(x) (x) N, and for N = M_{>=d} its degree-b part reads only the
        pieces M_c with d <= c <= b.  So the count is
        dim K_1 - rank d_1 - rank d_2 over the summands of
        ``_koszul_terms``, with d_1(e_v m) = x_v m and
        d_2(e_v ^ e_w m) = x_w m e_v - x_v m e_w.  Both differentials
        are sparse rows from the cached multiplication blocks (a rank
        is a rank of the transpose), and d_2 is skipped when d_1 is
        injective.

        Why a nonzero count in a degree b not <= d + (1,...,1) rules d
        out: it is the Betti number beta_{1,b} of M_{>=d}, so -b is a
        twist at index 1 of the minimal resolution.  region_Q(1, -d) =
        region_L(0, -d - (1,...,1)) is the orthant of the c with
        c >= -d - (1,...,1), which does not hold -b, and region_L(1, -d)
        lies inside region_Q(1, -d).  The resolution is then neither
        quasilinear nor linear, and d is not in either truncation
        region.
        """
        ring = self.ring
        d = checked_degree(lower_bound, ring.r)
        b = checked_degree(b, ring.r)
        p = ring.p
        # both faces of a K_2 summand are K_1 summands: c >= d gives
        # c + deg x_w >= d
        at, d1 = {}, []
        for (v,), x, c in self._koszul_terms(1, b, d):
            at[v] = (len(d1), x)
            d1 += self._image_rows(x, c)
        kernel = len(d1) - modp.rank_rows(d1, p)
        if not kernel:
            return 0
        d2 = []
        for (v, w), _, c in self._koszul_terms(2, b, d):
            (ov, xv), (ow, xw) = at[v], at[w]
            rows = self._image_rows(xw, c, ov)
            for row, other in zip(rows, self._image_rows(xv, c, ow,
                                                         negate=True)):
                row.update(other)
            d2 += rows
        return kernel - modp.rank_rows(d2, p)

    def mult_matrix(self, f, d):
        """Matrix of multiplication by the term f = c*m from the
        degree-d piece to the degree d + deg(m) piece, in standard
        bases: m's cached block, scaled by c."""
        if len(f.terms) != 1:
            raise ValueError("mult_matrix multiplies by one nonzero term")
        (_, m, c), = vec_entries(f.terms, f.ring)
        rows, cols, vals, shape = self._block(m, tuple(d))
        A = np.zeros(shape, dtype=np.int64)
        A[rows, cols] = _scaled(vals, c, self.ring.p)
        return A


def hilbert_function(M, d):
    """dim_k of the degree-d piece of M = coker(relations): the number
    of degree-d standard monomials of the relations' Groebner basis
    (Macaulay's theorem), read from the presentation's shared pieces."""
    return GradedPieces.of(M).dim(d)
