"""Finite-dimensional graded pieces of presented modules.

For M = coker(relations) the standard monomials of a Groebner basis of
the relation submodule form a basis of each graded piece, so once the
basis is computed every piece and every multiplication map between
pieces is plain linear algebra over F_p.  This is the workhorse behind
Hilbert-function queries in bulk, generator trimming, and the Ext
complexes of the cohomology oracle.
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
        self._mult = {}
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

    def mult_matrix(self, f, d):
        """Matrix of multiplication by homogeneous f from the degree-d
        piece to the degree d + deg(f) piece, in standard bases."""
        d = tuple(d)
        key = (f.terms, d)
        got = self._mult.get(key)
        if got is not None:
            return got
        e = deg_add(d, f.degree())
        src = self.basis(d)
        tgt = self.basis(e)
        idx = self._index[e]
        A = np.zeros((len(tgt), len(src)), dtype=np.int64)
        p = self.ring.p
        for j, (comp, mono) in enumerate(src):
            terms = tuple((term_key(comp, mono_mul(mono, mf)), cf)
                          for mf, cf in f.terms)
            nf = normal_form(Vector(terms), self.gb)
            for (tot, m, negc), c in nf.terms:
                A[idx[(-negc, m)], j] = c
        self._mult[key] = A
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
