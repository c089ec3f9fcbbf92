"""Finite-dimensional graded pieces of presented modules.

For M = coker(relations) the standard monomials of a Groebner basis of
the relation submodule form a basis of each graded piece, so once the
basis is computed every piece and every multiplication map between
pieces is plain linear algebra over F_p.  This is the workhorse behind
Hilbert-function queries, generator trimming, and the Ext complexes of
the cohomology oracle.

Multiplication matrices are assembled from sparse blocks, one per
(monomial, source degree).  A product of a basis monomial that is
itself a basis monomial is a unit entry; only the other products take
a normal form, and the Groebner basis memoizes those per term, so the
long reduction chains of high powers are walked once per module, not
once per degree and power that meets them.
"""

import weakref

import numpy as np

from .groebner import buchberger, normal_form
from .ringcore import (
    Poly,
    Vector,
    deg_add,
    deg_leq,
    deg_sub,
    free_basis_of_degree,
    mono_divides,
    mono_mul,
    term_key,
)


_SHARED = weakref.WeakKeyDictionary()


def _scaled(vals, c, p):
    """c * vals mod p for residues vals in [1, p), exact for every p
    below 2^62."""
    if c == 1:
        return vals
    if c == p - 1:
        return p - vals
    if p < 1 << 31:
        return vals * c % p
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
        self._blocks = {}
        # regularity.module_is_saturated_at_zero's verdict, once known
        self.saturated_at_zero = None

    def basis(self, d):
        """Standard-monomial basis of the degree-d piece: pairs
        (component, monomial) not divisible by any relation lead."""
        d = tuple(d)
        got = self._basis.get(d)
        if got is not None:
            return got
        leads = self.gb._leads
        out = []
        for comp, mono in free_basis_of_degree(self.F0, d):
            if any(mono_divides(lm, mono) for lm, _ in leads.get(comp, ())):
                continue
            out.append((comp, mono))
        self._basis[d] = out
        self._index[d] = {cm: i for i, cm in enumerate(out)}
        return out

    def dim(self, d):
        return len(self.basis(d))

    def coords(self, v, d):
        """Coordinates of a vector of F0 in the degree-d basis of M."""
        d = tuple(d)
        self.basis(d)
        idx = self._index[d]
        nf = normal_form(v, self.gb)
        out = np.zeros(len(idx), dtype=np.int64)
        for (tot, m, negc), c in nf.terms:
            out[idx[(-negc, m)]] = c
        return out

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
            nf = normal_form(Vector(((term_key(comp, prod), 1),),
                                    _canonical=True), self.gb)
            for (_, mm, negc), c in nf.terms:
                rows.append(idx[(-negc, mm)])
                cols.append(j)
                vals.append(c)
        got = (np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp),
               np.array(vals, dtype=np.int64), (len(tgt), len(src)))
        self._blocks[key] = got
        return got

    def mult_matrix(self, f, d):
        """Matrix of multiplication by homogeneous nonzero f from the
        degree-d piece to the degree d + deg(f) piece, in standard
        bases: the sum of its terms' monomial blocks, scaled."""
        # one term is homogeneous; degree() rejects zero and mixed forms
        if len(f.terms) != 1 and f.degree() is None:
            raise ValueError("multiplication by zero has no degree")
        d = tuple(d)
        p = self.ring.p
        A = None
        for m, c in f.terms:
            rows, cols, vals, shape = self._block(m, d)
            vals = _scaled(vals, c, p)
            if A is None:
                A = np.zeros(shape, dtype=np.int64)
                A[rows, cols] = vals
            else:
                A[rows, cols] = (A[rows, cols] + vals) % p
        return A

    def variable_step_span(self, e, lower_bound):
        """Columns spanning the images of all one-variable
        multiplications M_{e - e_i} -> M_e from pieces whose degree
        stays componentwise >= lower_bound."""
        ring = self.ring
        blocks = []
        for v in range(ring.nvars):
            dv = tuple(1 if ring.var_factor[v] == i else 0
                       for i in range(ring.r))
            src_deg = deg_sub(e, dv)
            if any(x < 0 for x in src_deg):
                continue
            if not deg_leq(lower_bound, src_deg):
                continue
            f = Poly.variable(ring, v)
            blocks.append(self.mult_matrix(f, src_deg))
        n = self.dim(e)
        if not blocks:
            return np.zeros((n, 0), dtype=np.int64)
        return np.hstack(blocks)


def hilbert_function(M, d):
    """dim_k of the degree-d piece of M = coker(relations): the number
    of degree-d standard monomials of the relations' Groebner basis
    (Macaulay's theorem), read from the presentation's shared pieces."""
    return GradedPieces.of(M).dim(d)
