"""The truncation functor: the submodule of all elements whose degree
is componentwise at least a given multidegree.

For a free module the truncation is generated by the monomials of the
single degree max(twist, d) in each component (any monomial of larger
degree is divisible by one of that exact degree when every block of
variables is nonempty, which is the case here).  For a presented
module the graded pieces pick minimal generators among those, and the
relations are the preimage (groebner) of the old ones under inclusion.
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


def _trim_generators(M, d, G, inc):
    """Select a minimal generating subset of the truncation's monomial
    generators, degree by degree: a candidate is kept exactly when it
    adds rank over the one-variable shifts of already-available pieces.
    """
    pieces = GradedPieces.of(M)
    by_degree = {}
    for j, tw in enumerate(G.twists):
        by_degree.setdefault(tw, []).append(j)
    keep = []
    for e, js in by_degree.items():
        kept = pieces.minimal_generators(e, d, [inc.columns[j] for j in js])
        keep.extend(js[i] for i in kept)
    keep.sort()
    twists = [G.twists[j] for j in keep]
    cols = [inc.columns[j] for j in keep]
    G2 = FreeModuleSpec(M.ring, twists)
    return G2, MatrixOverS(G2, inc.target, cols, check=False)


def truncate_module(M, d):
    """Presentation of the truncation of M at d.

    Generators are a minimal generating subset of the free-cover
    generators of the truncation of F0 composed into M, which keeps
    later resolutions small; relations are the preimage of M's
    relations.  The result has the same Hilbert function as M in
    degrees >= d and vanishes elsewhere.
    """
    d = checked_degree(d, M.ring.r)
    G, inc = truncate_free(M.F0, d)
    if G.rank:
        G, inc = _trim_generators(M, d, G, inc)
    return Presentation(G, preimage(inc, M.relations))
