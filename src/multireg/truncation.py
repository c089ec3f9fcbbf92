"""The truncation functor: the submodule of all elements whose degree
is componentwise at least a given multidegree.

For a free module the truncation is generated by the monomials of the
single degree max(twist, d) in each component (any monomial of larger
degree is divisible by one of that exact degree when every block of
variables is nonempty, which is the case here).  For a presented
module the relations of the truncation are the preimage of the old
relation submodule under the inclusion of the new generators.
"""

import numpy as np

from . import modp
from .groebner import kernel_projection
from .pieces import GradedPieces
from .ringcore import (
    FreeModuleSpec,
    MatrixOverS,
    Presentation,
    Vector,
    checked_degree,
    deg_max,
    deg_sub,
    deg_total,
    monomials_of_degree,
    term_key,
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
            cols.append(Vector(((term_key(k, m), 1),), _canonical=True))
    G = FreeModuleSpec(ring, twists)
    return G, MatrixOverS(G, F, cols, check=False)


def _preimage_relations(inc, relations):
    """Generators of {v : inc(v) lies in the image of relations}."""
    F = inc.target
    ring = F.ring
    cols = list(inc.columns) + list(relations.columns)
    twists = list(inc.source.twists) + list(relations.source.twists)
    big = MatrixOverS(FreeModuleSpec(ring, twists), F, cols, check=False)
    kept = kernel_projection(big, inc.source.rank)
    kept_twists = [v.degree(inc.source) for v in kept]
    src = FreeModuleSpec(ring, kept_twists)
    return MatrixOverS(src, inc.source, kept, check=False)


def _trim_generators(M, d, G, inc):
    """Select a minimal generating subset of the truncation's monomial
    generators, degree by degree: a candidate is kept exactly when it
    adds rank over the one-variable shifts of already-available pieces.
    """
    pieces = GradedPieces.of(M)
    p = M.ring.p
    by_degree = {}
    for j, tw in enumerate(G.twists):
        by_degree.setdefault(tw, []).append(j)
    keep = []
    for e in sorted(by_degree, key=lambda t: (deg_total(t), t)):
        js = by_degree[e]
        span = pieces.variable_step_span(e, lower_bound=d)
        cand = np.stack([pieces.coords(inc.columns[j], e) for j in js], axis=1)
        ncols = span.shape[1]
        _, pivots = modp.rref(np.hstack([span, cand]), p)
        keep.extend(js[c - ncols] for c in pivots if c >= ncols)
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
    rels = _preimage_relations(inc, M.relations)
    return Presentation(G, rels)
