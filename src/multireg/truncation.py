"""The truncation functor: the submodule of all elements whose degree
is componentwise at least a given multidegree.

For a free module the truncation is generated by the monomials of the
single degree max(twist, d) in each component (any monomial of larger
degree is divisible by one of that exact degree when every block of
variables is nonempty, which is the case here); ``truncate_free``
lists them.  A presented module's truncation takes its generators from
the standard basis of M's graded pieces in those degrees, the basis
elements outside the image of the lower pieces
(``GradedPieces.minimal_generators``), and its relations are the
preimage (groebner) of the old ones under inclusion.
"""

from .groebner import preimage
from .pieces import GradedPieces
from .ringcore import (
    FreeModuleSpec,
    MatrixOverS,
    Presentation,
    Vector,
    checked_degree,
    deg_max,
    deg_sub,
    monomials_of_degree,
)


def truncate_free(F, d):
    """Free cover of the truncation of a free module.

    Returns (G, inclusion) where G has one generator of degree
    max(twist_k, d) per monomial of degree max(twist_k, d) - twist_k in
    component k, and the inclusion maps it onto the truncation of F.
    """
    ring = F.ring
    d = checked_degree(d, ring.r)
    twists = []
    cols = []
    for k, tw in enumerate(F.twists):
        target_deg = deg_max(tw, d)
        for m in monomials_of_degree(ring, deg_sub(target_deg, tw)):
            twists.append(target_deg)
            cols.append(Vector.monomial(k, m))
    G = FreeModuleSpec(ring, twists)
    return G, MatrixOverS(G, F, cols, check=False)


def truncate_module(M, d):
    """Presentation of the truncation N = M_{>=d} of M at d: minimal
    generators, and the preimage of M's relations as relations.  The
    result has the same Hilbert function as M in degrees >= d and
    vanishes elsewhere.

    Why the generators are minimal.  N is the image of (F0)_{>=d}, so
    it is generated in the degrees e = max(tw_k, d) of F0's twists tw_k
    (``truncate_free``), and since e >= d its piece there is all of
    M_e.  By graded Nakayama a homogeneous set generates N minimally
    exactly when, in each degree e, it is a basis of N_e modulo the
    part generated in lower degrees, which is the sum of x_v M_{e-e_v}
    over the variables x_v of degree e_v with e - e_v >= d (an element
    of N of degree c < e times a monomial of degree e - c passes
    through such a piece).  The elements of ``GradedPieces.basis(e)``
    that ``minimal_generators`` picks are a basis of a complement of
    that sum in M_e, so they are such a set.  Each is the class of a
    monomial m e_k of F0, and the inclusion sends its generator, of
    degree e, to m e_k.
    """
    d = checked_degree(d, M.ring.r)
    cols = [Vector.monomial(k, m)
            for e in sorted({deg_max(tw, d) for tw in M.F0.twists})
            for k, m in GradedPieces.of(M).minimal_generators(e, d)]
    inc = MatrixOverS.from_columns(M.F0, cols)
    return Presentation(inc.source, preimage(inc, M.relations))
