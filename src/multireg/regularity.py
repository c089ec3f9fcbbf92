"""Linearity classification of resolutions, the truncation criterion
for multigraded regularity, staircase region searches, and the closed
form for complete intersections.

A minimal resolution generated in a single degree d is *linear* when
every twist -b at homological step j satisfies -b in region_L(j, -d),
and *quasilinear* with region_Q in place of region_L.  For a module
with no irrelevant-ideal torsion, d-regularity (the local cohomology
vanishing of the Maclagan--Smith region) holds exactly when the
truncation at d has a quasilinear resolution generated in degree d;
that equivalence is what ``is_d_regular`` implements, and what the
cohomology oracle cross-checks from the other side.

Most degrees fail already at homological index 1, and that can be seen
without building the truncation.  A minimal relation of M_{>=d} in a
degree b not <= d + (1,...,1) is a twist -b outside region_Q(1, -d),
and region_L(1, -d) lies inside that orthant, so it breaks both
conditions.  The minimal relations of degree b are Tor_1(M_{>=d}, k)_b,
the Koszul homology that ``GradedPieces.koszul_h1_dim`` reads from the
pieces M_c with d <= c <= b.  So a verdict first tests every b in
[d, d+2]^r outside [d, d+1]^r, lowest total degree first, and rejects
d at the first nonzero count; only a degree that passes is truncated
and resolved.
"""

import warnings

from .errors import NotSaturatedError
from .groebner import colon_by_ideal, irrelevant_ideal, quotient_ring_dimension
from .pieces import GradedPieces
from .regions import Region, region_L, region_Q
from .resolution import betti, free_resolution
from .ringcore import (Presentation, box_points, checked_box,
                       checked_degree, deg_add, deg_leq, deg_neg, deg_total)
from .truncation import truncate_module


class BoxBoundaryWarning(UserWarning):
    """A region search returned a minimal element on the lower box
    boundary; the true region may extend below the box."""


class LinearityVerdict:
    """Outcome of classifying a Betti table: linear, quasilinear or
    neither, with one witness (index, twist, region) per violation.

    Linear implies quasilinear; a table whose generators sit in more
    than one degree is 'neither' with a generator witness.
    """

    __slots__ = ("kind", "witnesses", "gen_degree")

    def __init__(self, kind, witnesses, gen_degree):
        self.kind = kind
        self.witnesses = tuple(witnesses)
        self.gen_degree = gen_degree

    @property
    def is_linear(self):
        return self.kind == "linear"

    @property
    def is_quasilinear(self):
        return self.kind in ("linear", "quasilinear")

    def __repr__(self):
        return f"LinearityVerdict({self.kind}, witnesses={self.witnesses})"

    def to_json(self):
        return {
            "schema": "multireg/verdict/v1",
            "kind": self.kind,
            "generator_degree": (list(self.gen_degree)
                                 if self.gen_degree else None),
            "witnesses": [
                {"index": i, "degree": (list(b) if b is not None else None),
                 "region": kind}
                for i, b, kind in self.witnesses],
        }


def classify_resolution(B):
    """Classify a minimal Betti table as linear / quasilinear /
    neither relative to its generator degree."""
    gen_degrees = B.support(0)
    if not gen_degrees:
        return LinearityVerdict("linear", (), None)
    if len(gen_degrees) > 1:
        return LinearityVerdict(
            "neither", ((0, None, "generators"),), None)
    d = next(iter(gen_degrees))
    md = deg_neg(d)
    l_viols = []
    q_viols = []
    for (j, b) in sorted(B.data):
        nb = deg_neg(b)
        if not region_L(j, md).contains(nb):
            l_viols.append((j, b, "L"))
        if not region_Q(j, md).contains(nb):
            q_viols.append((j, b, "Q"))
    if not l_viols:
        return LinearityVerdict("linear", (), d)
    if not q_viols:
        return LinearityVerdict("quasilinear", tuple(l_viols), d)
    return LinearityVerdict("neither", tuple(l_viols + q_viols), d)


def module_is_saturated_at_zero(M):
    """True when the relation submodule is its own colon by the
    irrelevant ideal, i.e. M has no irrelevant torsion at all.

    The colon is taken of the reduced Groebner basis that
    ``GradedPieces.of(M)`` shares, and the verdict is kept with it, so
    one presentation runs one colon however often it is asked."""
    pieces = GradedPieces.of(M)
    if pieces.saturated_at_zero is None:
        rel = pieces.gb.as_matrix()
        cln = colon_by_ideal(rel, irrelevant_ideal(M.ring))
        pieces.saturated_at_zero = cln.columns == rel.columns
    return pieces.saturated_at_zero


def _require_saturated(M):
    """Raise NotSaturatedError unless M has no irrelevant torsion."""
    if not module_is_saturated_at_zero(M):
        raise NotSaturatedError(
            "module has irrelevant torsion; the truncation criterion "
            "does not apply (check_regularity_by_definition still does)")


def is_d_regular(M, d):
    """The truncation criterion for d-regularity.

    Requires a module with no irrelevant torsion (raises
    NotSaturatedError otherwise; the cohomology oracle's definition
    check still applies there).  Returns True exactly when the minimal
    resolution of the truncation at d is quasilinear and generated in
    the single degree d.
    """
    _require_saturated(M)
    return _truncation_verdict(M, d, "Q")


def _truncation_verdict(M, d, mode):
    d = checked_degree(d, M.ring.r)
    pieces = GradedPieces.of(M)
    one = (1,) * len(d)
    top = deg_add(d, one)
    outside = [b for b in box_points((d, deg_add(top, one)))
               if not deg_leq(b, top)]
    for b in sorted(outside, key=lambda b: (deg_total(b), b)):
        if pieces.koszul_h1_dim(b, d):
            return False
    table = betti(free_resolution(truncate_module(M, d)))
    if not table.data:
        return True
    v = classify_resolution(table)
    ok = v.is_linear if mode == "L" else v.is_quasilinear
    return ok and v.gen_degree == tuple(d)


def truncation_region(M, mode, box):
    """Minimal elements, within a box, of the set of degrees whose
    truncation has a linear (mode 'L') or quasilinear (mode 'Q')
    resolution generated in that degree.

    The set is upward closed, so a lexicographic sweep from the lower
    corner can skip every point above an already-found element.  Emits
    BoxBoundaryWarning when a minimal element touches the lower
    boundary, since the region may continue outside the box.
    """
    if mode not in ("L", "Q"):
        raise ValueError("mode must be 'L' or 'Q'")
    r = M.ring.r
    lo, hi = checked_box(box, r)
    found = []
    for d in box_points((lo, hi)):
        if any(deg_leq(g, d) for g in found):
            continue
        if _truncation_verdict(M, d, mode):
            found.append(d)
    for g in found:
        if any(a == b for a, b in zip(g, lo)):
            warnings.warn(
                f"minimal element {g} touches the lower box boundary; "
                "the region may extend beyond the box",
                BoxBoundaryWarning)
            break
    return Region(r, found)


def multigraded_regularity(M, box):
    """Minimal elements of the regularity region inside a box, via the
    quasilinear truncation search; requires no irrelevant torsion."""
    _require_saturated(M)
    return truncation_region(M, "Q", box)


def ci_regularity(degrees):
    """Closed-form regularity region of a quotient by a regular
    sequence of c forms with everywhere-positive degrees: the
    quasilinear region at level c of the degree sum."""
    degrees = [tuple(d) for d in degrees]
    if not degrees:
        raise ValueError("need at least one degree")
    r = len(degrees[0])
    for d in degrees:
        if len(d) != r:
            raise ValueError(f"degree {d} has rank {len(d)}; the first "
                             f"has rank {r}")
        if any(x <= 0 for x in d):
            raise ValueError(
                f"degree {d} is not strictly positive; the closed form "
                "needs forms from the irrelevant ideal")
    total = tuple(sum(d[i] for d in degrees) for i in range(r))
    return region_Q(len(degrees), total)


def verify_ci_hypotheses(gens):
    """Check the hypotheses behind the closed form: the forms have
    strictly positive degrees (precondition), cut down the dimension
    by their number (regular sequence), and leave a quotient without
    irrelevant torsion."""
    if not gens:
        raise ValueError("need at least one form")
    ring = gens[0].ring
    for g in gens:
        d = g.degree()
        if d is None or any(x <= 0 for x in d):
            raise ValueError(
                f"form {g} of degree {d} rejected: degrees must be "
                "strictly positive in every coordinate")
    c = len(gens)
    if quotient_ring_dimension(ring, gens) != ring.nvars - c:
        return False
    return module_is_saturated_at_zero(
        Presentation.quotient_by_ideal(ring, gens))
