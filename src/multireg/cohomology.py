"""Local cohomology supported at the irrelevant ideal, by two routes.

For twists of the ring itself everything is closed-form: cohomology of
a line bundle on one projective-space factor lives only in degrees 0
and n with binomial dimensions, and the product assembles by the
Kunneth formula, shifted one step up (the two bottom local cohomology
groups of S vanish).

For arbitrary presented modules the groups are computed as a direct
limit of Ext against quotients by powers of the irrelevant ideal.  The
powers used are the per-factor Frobenius-style powers generated by
t-th powers of the variable products: they are cofinal with the
ordinary powers, so the limit is the same, and their quotients have a
tensor-of-Koszul resolution whose size does not grow with t.  The
limit is detected empirically: the table is accepted once two
consecutive values of t agree across the whole degree box, and the
result carries the t used and a heuristic flag.
"""

from itertools import product as _iterproduct
from math import comb

import numpy as np

from . import modp
from .errors import BoxTooSmall, StabilizationNotReached
from .pieces import GradedPieces
from .resolution import FreeComplex, koszul_complex, tensor_complexes
from .ringcore import (
    FreeModuleSpec,
    MatrixOverS,
    Poly,
    deg_add,
    deg_leq,
    deg_max,
    deg_sub,
    unit_degree,
    zero_degree,
)


def line_bundle_cohomology(n, c):
    """Dimensions (h^0, ..., h^n) of the twist-c line bundle on
    projective n-space: sections for c >= 0, top cohomology for
    c <= -n-1, nothing in between."""
    if n < 1:
        raise ValueError("factor dimension must be >= 1")
    out = [0] * (n + 1)
    if c >= 0:
        out[0] = comb(n + c, n)
    if c <= -n - 1:
        out[n] = comb(-c - 1, n)
    return out


def structure_sheaf_local_cohomology(ring, i, pdeg):
    """Dimension of the i-th local cohomology of the ring at degree
    pdeg: zero for i <= 1, and for larger i the Kunneth sum over
    splittings of i - 1 into per-factor cohomological degrees."""
    if i < 0:
        raise ValueError("cohomological index must be >= 0")
    pdeg = tuple(pdeg)
    if i <= 1:
        return 0
    k = i - 1
    total = 0
    ranges = [range(0, n + 1) for n in ring.n]
    for qs in _iterproduct(*ranges):
        if sum(qs) != k:
            continue
        prod = 1
        for nj, qj, cj in zip(ring.n, qs, pdeg):
            prod *= line_bundle_cohomology(nj, cj)[qj]
            if not prod:
                break
        total += prod
    return total


def bracket_power_complex(ring, t):
    """Free resolution of S modulo the ideal generated by the t-th
    powers of the irrelevant generators: the tensor over factors of the
    Koszul complexes on each block's t-th variable powers, with the
    ring in homological degree zero."""
    if t < 1:
        raise ValueError("power must be >= 1")
    factor_parts = []
    for i in range(ring.r):
        powers = [Poly.monomial(
            ring, tuple(t if v == w else 0 for v in range(ring.nvars)))
            for w in ring.block(i)]
        K = koszul_complex(ring, powers)
        factor_parts.append(FreeComplex(K.terms[1:], K.differentials[1:],
                                        check=False))
    tensor = factor_parts[0]
    for part in factor_parts[1:]:
        tensor = tensor_complexes(tensor, part)
    S0 = FreeModuleSpec(ring, (zero_degree(ring.r),))
    first = MatrixOverS(tensor.terms[0], S0,
                        _augmentation_columns(ring, t), check=False)
    return FreeComplex([S0] + tensor.terms, [first] + tensor.differentials,
                       check=False)


def _augmentation_columns(ring, t):
    """Columns sending each tensor-level-zero generator (one choice of
    variable per block) to its product of t-th powers in the ring.
    The tensor construction enumerates generators in the same
    block-major order as this product."""
    from .ringcore import Vector, term_key
    index_lists = [list(ring.block(i)) for i in range(ring.r)]
    cols = []
    for combo in _iterproduct(*index_lists):
        m = [0] * ring.nvars
        for v in combo:
            m[v] += t
        cols.append(Vector(((term_key(0, tuple(m)), 1),), _canonical=True))
    return cols


class CohomologyTable:
    """Local cohomology dimensions over a finite degree box, indexed
    (cohomological degree, multidegree), with the stabilization
    parameter recorded; entries are Ext approximations accepted after
    two consecutive steps agreed, hence 'heuristically stabilized'."""

    __slots__ = ("box", "data", "t_used", "max_index")

    def __init__(self, box, data, t_used, max_index):
        self.box = (tuple(box[0]), tuple(box[1]))
        self.data = dict(data)
        self.t_used = t_used
        self.max_index = max_index

    def dim(self, i, pdeg):
        pdeg = tuple(pdeg)
        if i > self.max_index:
            return 0
        if not (deg_leq(self.box[0], pdeg) and deg_leq(pdeg, self.box[1])):
            raise KeyError(f"degree {pdeg} outside the table box")
        return self.data.get((i, pdeg), 0)

    def nonzero(self):
        return sorted((i, p) for (i, p), v in self.data.items() if v)

    def pretty(self):
        lines = [f"local cohomology over box {self.box[0]}..{self.box[1]}"
                 f" (heuristically stabilized at t={self.t_used})"]
        if len(self.box[0]) == 2:
            for i in range(self.max_index + 1):
                if not any(v for (j, _), v in self.data.items() if j == i):
                    continue
                lines.append(f"H^{i}:")
                lo, hi = self.box
                for y in range(hi[1], lo[1] - 1, -1):
                    row = [str(self.data.get((i, (x, y)), 0))
                           for x in range(lo[0], hi[0] + 1)]
                    lines.append("   " + " ".join(f"{v:>3}" for v in row))
        else:
            for (i, p) in self.nonzero():
                lines.append(f"  H^{i}_{list(p)} = {self.data[(i, p)]}")
        return "\n".join(lines)

    def to_json(self):
        return {
            "schema": "multireg/cohomology/v1",
            "box": [list(self.box[0]), list(self.box[1])],
            "t_used": self.t_used,
            "heuristic": True,
            "entries": [{"i": i, "degree": list(p), "dim": v}
                        for (i, p), v in sorted(self.data.items()) if v],
        }


def _box_points(box):
    lo, hi = box
    return [tuple(p) for p in _iterproduct(
        *[range(a, b + 1) for a, b in zip(lo, hi)])]


def _ext_dims_at(pieces, complex_, pdeg, max_index):
    """Dimensions of the cohomology of Hom(complex, M) in one degree:
    ranks of the induced blocks between direct sums of module pieces."""
    ring = pieces.ring
    p = ring.p
    dims = []
    bases = []
    for spec in complex_.terms:
        sizes = [pieces.dim(deg_add(pdeg, tw)) for tw in spec.twists]
        bases.append(sizes)
        dims.append(sum(sizes))
    ranks = []
    for j, diff in enumerate(complex_.differentials):
        rows_sizes = bases[j + 1]
        cols_sizes = bases[j]
        A = np.zeros((sum(rows_sizes), sum(cols_sizes)), dtype=np.int64)
        row_off = np.concatenate([[0], np.cumsum(rows_sizes)]).astype(int)
        col_off = np.concatenate([[0], np.cumsum(cols_sizes)]).astype(int)
        for l, col in enumerate(diff.columns):
            # entry (k, l) of the differential multiplies piece at
            # F_j twist k into piece at F_{j+1} twist l
            for k in col.components():
                f = col.component_poly(ring, k)
                if not f:
                    continue
                blk = pieces.mult_matrix(f, deg_add(pdeg,
                                                    diff.target.twists[k]))
                A[row_off[l]:row_off[l + 1], col_off[k]:col_off[k + 1]] = \
                    (A[row_off[l]:row_off[l + 1],
                       col_off[k]:col_off[k + 1]] + blk) % p
        ranks.append(modp.rank(A, p))
    out = {}
    for i in range(max_index + 1):
        d = dims[i] if i < len(dims) else 0
        r_i = ranks[i] if i < len(ranks) else 0
        r_prev = ranks[i - 1] if 0 < i <= len(ranks) else 0
        out[i] = d - r_i - r_prev
    return out


def local_cohomology_box(M, box, t_start=None, t_cap=None):
    """Local cohomology dimensions of a presented module over a finite
    degree box, via the Ext direct limit.

    Starting from ``t_start`` (default driven by the box: 2 plus the
    depth of its most negative coordinate, which is what the direct
    limit is sensitive to), the Ext dimensions against the
    bracket power at t are computed for each degree in the box and
    each index up to dim X + 1; the first t whose table equals the
    table at t + 1 is accepted.  Raises StabilizationNotReached past
    the cap (default t_start + 6).
    """
    ring = M.ring
    lo, hi = tuple(box[0]), tuple(box[1])
    if len(lo) != ring.r or len(hi) != ring.r:
        raise ValueError(f"box {lo}..{hi} does not have rank {ring.r}")
    if not deg_leq(lo, hi):
        raise ValueError("box lower corner must be <= upper corner")
    if t_start is None:
        t_start = 2 + max(0, -min(lo))
    if t_cap is None:
        t_cap = t_start + 6
    max_index = sum(ring.n) + 1
    pieces = GradedPieces.of(M)
    points = _box_points((lo, hi))

    def table_at(t):
        cx = bracket_power_complex(ring, t)
        out = {}
        for pdeg in points:
            dims = _ext_dims_at(pieces, cx, pdeg, max_index)
            for i, v in dims.items():
                if v:
                    out[(i, pdeg)] = v
        return out

    prev = table_at(t_start)
    t = t_start
    while t < t_cap:
        nxt = table_at(t + 1)
        if nxt == prev:
            return CohomologyTable((lo, hi), prev, t, max_index)
        prev = nxt
        t += 1
    raise StabilizationNotReached(
        f"Ext dimensions did not stabilize by t={t_cap}; grow the cap "
        "or shrink the box", t_last=t_cap)


def _capped_level_corners(d, n, level):
    """Corners d - lam over lam with |lam| = level and each lam_j at
    most n_j + 1 (larger shifts never matter on a product of
    projective spaces)."""
    r = len(d)
    corners = []
    for lam in _iterproduct(*[range(0, nj + 2) for nj in n]):
        if sum(lam) == level:
            corners.append(deg_sub(d, lam))
    return corners


def required_corners(ring, d):
    """All degree-box corners that the definition check reads: the
    shifted orthant corners for the bottom group plus the capped
    region corners for each positive index."""
    d = tuple(d)
    corners = [deg_add(d, unit_degree(ring.r, j)) for j in range(ring.r)]
    for i in range(1, sum(ring.n) + 2):
        corners.extend(_capped_level_corners(d, ring.n, i - 1))
    return sorted(set(corners))


def check_regularity_by_definition(M, d, box=None, table=None,
                                   t_start=None, t_cap=None):
    """The definition-side regularity test: vanishing of the bottom
    local cohomology on the shifted orthants and of each higher group
    on its staircase region, checked over a finite box.

    The box must contain every required corner (BoxTooSmall
    otherwise); by default it spans the corners and extends one step
    past d + n above, where the remaining vanishing is Serre-style in
    all the examples this library targets.  A precomputed table for
    the same box may be passed to amortize sweeps over many d.
    """
    ring = M.ring
    d = tuple(d)
    if len(d) != ring.r:
        raise ValueError(f"degree {d} has rank {len(d)}; the ring has "
                         f"rank {ring.r}")
    corners = required_corners(ring, d)
    if box is None and table is not None:
        box = table.box
    if box is None:
        lo = tuple(min(c[j] for c in corners) for j in range(ring.r))
        hi_corner = tuple(max(c[j] for c in corners) for j in range(ring.r))
        hi = deg_max(hi_corner,
                     deg_add(deg_add(d, tuple(ring.n)), (1,) * ring.r))
        box = (lo, hi)
    lo, hi = tuple(box[0]), tuple(box[1])
    missing = [c for c in corners if not (deg_leq(lo, c) and deg_leq(c, hi))]
    if missing:
        raise BoxTooSmall(
            f"box {lo}..{hi} misses required corners {missing[:4]}",
            missing=missing)
    if table is None:
        table = local_cohomology_box(M, (lo, hi), t_start=t_start,
                                     t_cap=t_cap)
    points = _box_points((lo, hi))
    # bottom group: vanishing on the unit-shifted orthants
    for j in range(ring.r):
        base = deg_add(d, unit_degree(ring.r, j))
        for pdeg in points:
            if deg_leq(base, pdeg) and table.dim(0, pdeg):
                return False
    # higher groups: vanishing on the capped staircase regions
    for i in range(1, table.max_index + 1):
        corners_i = _capped_level_corners(d, ring.n, i - 1)
        for pdeg in points:
            if any(deg_leq(c, pdeg) for c in corners_i) and table.dim(i, pdeg):
                return False
    return True
