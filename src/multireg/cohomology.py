"""Local cohomology supported at the irrelevant ideal, by two routes.

For twists of the ring itself everything is closed-form: cohomology of
a line bundle on one projective-space factor lives only in degrees 0
and n with binomial dimensions, and the product assembles by the
Kunneth formula, shifted one step up (the two bottom local cohomology
groups of S vanish).

For arbitrary presented modules the groups are computed as a direct
limit of Ext against quotients by powers of the irrelevant ideal B.
The powers used are the bracket powers B^[t], generated by the t-th
powers of the variable products (Eisenbud, Mustata and Stillman,
"Cohomology on toric varieties and local cohomology with monomial
supports", JSC 29, 2000): they are cofinal with the ordinary powers,
so the limit is the same, and S/B^[t] has a closed-form resolution
(`bracket_power_complex`, one generator per set of variables meeting
every block) whose ranks do not grow with t.  Each differential entry
is a signed pure power x_w^t, so Hom into the module is assembled
from one multiplication matrix per entry.  The differentials of
Hom(complex, M) in one degree are ranked from the top down, each on
the rows at the non-pivot columns of the one above: the image of a
differential lies in the kernel of the next, and projecting onto the
non-pivot columns is injective on that kernel, so the rank is
unchanged and about half the rows are never eliminated
(``_ext_dims_at`` gives the proof).  The table is exact from a
power that the leads of the module's Groebner basis bound
(``_certified_power``); below it, two consecutive powers that agree
across the whole degree box are accepted as a heuristic answer, and the
result carries the power used and whether it is certified.
"""

from bisect import bisect_left
from functools import reduce
from itertools import accumulate, combinations, product as _iterproduct
from math import comb

import numpy as np

from . import modp
from .errors import BoxTooSmall
from .pieces import GradedPieces
from .regions import Region
from .resolution import FreeComplex
from .ringcore import (
    FreeModuleSpec,
    MatrixOverS,
    Poly,
    Vector,
    box_points,
    checked_box,
    checked_degree,
    deg_add,
    deg_leq,
    deg_max,
    deg_sub,
    mono_lcm,
    unit_degree,
    vec_entries,
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
    pdeg = checked_degree(pdeg, ring.r)
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
    """Free resolution of S modulo the bracket power B^[t], the ideal
    generated by the t-th powers of the irrelevant generators, with
    the ring in homological degree zero.

    Level j >= 1 has one generator e_s for each set s of r + j - 1
    variables meeting every block B_i, in degree t*(|s & B_1|, ...,
    |s & B_r|).  At level 1 (one variable per block) e_s maps to the
    product of the x_w^t over w in s.  Above it

        d(e_s) = sum of (-1)^(pos(w) - block(w)) * x_w^t * e_(s - w)

    over the w in s whose block keeps another variable of s, with
    pos(w) the position of w in sorted s and block(w) its 0-based
    factor.  Generators of a level are ordered by (-|s & B_r|, ...,
    -|s & B_2|) and then by s.

    This is a resolution: the Koszul complex on (x_w^t : w in B_i), a
    regular sequence, with its level zero dropped resolves the ideal
    I_i they generate.  The blocks share no variables, so the tensor
    product of these resolves I_1 (x) ... (x) I_r = I_1 ... I_r = B^[t],
    and level 1 maps it onto B^[t] inside S.  A term of the tensor
    product is one nonempty subset of each block, which is s; the
    sign is the Koszul sign (-1)^(position of w in s & B_i) times
    (-1)^(|s & B_l| - 1) for each earlier block l.
    """
    if t < 1:
        raise ValueError("power must be >= 1")
    p = ring.p
    power = [tuple(t if v == w else 0 for v in range(ring.nvars))
             for w in range(ring.nvars)]
    choices = [[T for k in range(1, len(ring.block(i)) + 1)
                for T in combinations(ring.block(i), k)]
               for i in range(ring.r)]
    levels = [[] for _ in range(ring.nvars - ring.r + 1)]
    for parts in _iterproduct(*choices):
        sizes = tuple(len(T) for T in parts)
        levels[sum(sizes) - ring.r].append(
            (tuple(-k for k in reversed(sizes)), sum(parts, ()), sizes))
    terms = [FreeModuleSpec(ring, (zero_degree(ring.r),))]
    diffs = []
    for level in levels:
        level.sort()
        cols = []
        for _, s, sizes in level:
            if len(s) == ring.r:
                col = [(0, tuple(t if v in s else 0
                                 for v in range(ring.nvars)), 1)]
            else:
                col = [(index[s[:pos] + s[pos + 1:]], power[w],
                        1 if (pos - ring.var_factor[w]) % 2 == 0 else p - 1)
                       for pos, w in enumerate(s)
                       if sizes[ring.var_factor[w]] > 1]
            cols.append(Vector.from_entries(col))
        terms.append(FreeModuleSpec(ring, [tuple(t * k for k in sizes)
                                           for _, _, sizes in level]))
        diffs.append(MatrixOverS(terms[-1], terms[-2], cols, check=False))
        index = {s: i for i, (_, s, _) in enumerate(level)}
    return FreeComplex(terms, diffs, check=False)


class CohomologyTable:
    """Local cohomology dimensions over a finite degree box, indexed
    (cohomological degree, multidegree), with the power of the Ext
    table recorded and whether that power is certified
    (``_certified_power``) or only agreed with the next one."""

    __slots__ = ("box", "data", "t_used", "max_index", "certified")

    def __init__(self, box, data, t_used, max_index, certified):
        self.box = (tuple(box[0]), tuple(box[1]))
        self.data = dict(data)
        self.t_used = t_used
        self.max_index = max_index
        self.certified = certified

    def dim(self, i, pdeg):
        pdeg = checked_degree(pdeg, len(self.box[0]))
        if i > self.max_index:
            return 0
        if not (deg_leq(self.box[0], pdeg) and deg_leq(pdeg, self.box[1])):
            raise KeyError(f"degree {pdeg} outside the table box")
        return self.data.get((i, pdeg), 0)

    def nonzero(self):
        return sorted((i, p) for (i, p), v in self.data.items() if v)

    def pretty(self):
        how = "certified" if self.certified else "heuristically stabilized"
        lines = [f"local cohomology over box {self.box[0]}..{self.box[1]}"
                 f" ({how} at t={self.t_used})"]
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
            "heuristic": not self.certified,
            "entries": [{"i": i, "degree": list(p), "dim": v}
                        for (i, p), v in sorted(self.data.items()) if v],
        }


def _ext_entries(complex_):
    """What ``_ext_dims_at`` reads of a complex, read once: the twists
    of each term, and each differential's entries as (row block,
    column block, term) of the induced map on Hom(-, M).  Entry (k, l)
    of a bracket-power differential is one term c*m, which multiplies
    the piece at F_j twist k into the piece at F_{j+1} twist l."""
    ring = complex_.terms[0].ring
    twists = [spec.twists for spec in complex_.terms]
    entries = [[(l, k, Poly.monomial(ring, m, c))
                for l, col in enumerate(diff.columns)
                for k, m, c in vec_entries(col.terms, ring)]
               for diff in complex_.differentials]
    return twists, entries


def _ext_dims_at(pieces, twists, entries, pdeg, max_index):
    """Dimensions of the cohomology of Hom(complex, M) in one degree:
    ranks of the induced blocks between direct sums of module pieces.
    The complex comes as ``_ext_entries`` reads it, once per complex,
    so a degree costs one shift per twist and at most one
    ``mult_matrix`` per entry.

    The differentials A_j: Hom_j -> Hom_{j+1} are ranked from the top
    down, each on the rows at the free (non-pivot) columns F of the
    reduced row echelon form R of the one above, which is never built:
    its pivots P are the leading columns of ``modp.rref``'s echelon
    basis.  This is exact.  Every v in ker A_j has R v = 0, so
    v_P = -R_F v_F on the pivot columns P, and projecting onto F is
    injective on ker A_j, which contains im A_{j-1}.  Hence
    rank A_{j-1} = rank A_{j-1}[F, :].  The restricted matrix then has
    the kernel of A_{j-1}, so its row space and pivots are those of
    A_{j-1}, and the step repeats one level down.  The top differential
    and every one above the bottom go to ``modp.rref`` for their
    pivots, and the bottom one to ``modp.rank``.  Only the kept rows
    are assembled: an entry whose target rows are all pivots takes no
    ``mult_matrix``, a block with no pivot rows is copied whole, and a
    matrix with no kept rows has rank 0.

    A bracket-power complex has nvars - r + 2 = max_index + 1 terms,
    so ``ranks`` ends in a 0 for the map out of the top term, which
    ``ranks[-1]`` also reads as the map into term 0.
    """
    p = pieces.ring.p
    degrees = [[deg_add(pdeg, tw) for tw in tws] for tws in twists]
    offsets = [list(accumulate((pieces.dim(e) for e in degs), initial=0))
               for degs in degrees]
    ranks = [0] * (max_index + 1)
    pivots = []  # ascending pivot columns of the differential above
    for j in reversed(range(len(entries))):
        rows, cols = offsets[j + 1], offsets[j]
        # per row block, its place among the kept rows and the local
        # indices of its kept rows (all of them when none is a pivot)
        blocks, kept = [], 0
        for a, b in zip(rows, rows[1:]):
            lo, hi = bisect_left(pivots, a), bisect_left(pivots, b)
            idx = slice(None)
            if lo < hi < lo + b - a:
                idx = np.delete(np.arange(b - a), np.array(pivots[lo:hi]) - a)
            blocks.append((kept, kept + b - a - (hi - lo), idx))
            kept = blocks[-1][1]
        if not kept:
            pivots = []
            continue
        A = np.zeros((kept, cols[-1]), dtype=np.int64)
        for l, k, f in entries[j]:
            start, stop, idx = blocks[l]
            if start < stop:
                A[start:stop, cols[k]:cols[k + 1]] = \
                    pieces.mult_matrix(f, degrees[j][k])[idx]
        if j:
            pivots = modp.rref(A, p)[1]
            ranks[j] = len(pivots)
        else:
            ranks[j] = modp.rank(A, p)
    return {i: offsets[i][-1] - ranks[i] - ranks[i - 1]
            for i in range(max_index + 1)}


def default_t_start(box):
    """First power the oracle tries over a box when its certified
    power is larger: 2 plus the depth of its most negative coordinate,
    which is what the direct limit is sensitive to."""
    return 2 + max(0, -min(box[0]))


def _certified_power(pieces, lo):
    """A power t_cert from which the Ext table over a box with lower
    corner lo is the local cohomology itself:

        t_cert = max(1, max over k, i of (tw_k + deg lcm_k)_i - lo_i - n_i)

    where tw_k is the twist of component k of F_0 and lcm_k the lcm of
    the leads of the Groebner basis in component k (tw_k alone when k
    has no leads).  The proof has three steps.

    1. The ring.  B is squarefree and B^[t] is its bracket power, so
    the natural map Ext^q(S/B^[t], S) -> H^q_B(S) is injective, and
    its image is the sum of the fine (Z^nvars) degrees beta with every
    coordinate >= -t (Mustata, "Local cohomology at monomial ideals",
    JSC 29, 2000).  A fine piece of H^q_B(S) of coarse degree e is, by
    the Kunneth formula, a tensor product of one piece per factor:
    monomials on block i, with every exponent >= 0, or the top local
    cohomology of block i, spanned by inverse monomials whose n_i + 1
    exponents are all <= -1 and sum to e_i, so that each of them is
    >= e_i + n_i.  So every coordinate of a nonzero fine degree is
    >= min(0, e_i + n_i) on block i, and the map is an isomorphism in
    degree e once t >= 1 and t >= -e_i - n_i for every i.  For a twist
    S(-b) read e = a - b: it is exact in degree a once t >= 1 and
    t >= b_i - a_i - n_i for every i.

    2. Modules.  Take any finite free resolution F of M, and let G^[t]
    be ``bracket_power_complex(ring, t)``.  Hom(G^[t], -) is exact, so
    the double complex Hom(G^[t], F) computes Ext(S/B^[t], M); direct
    limits are exact, so its limit over t computes H_B(M).  The maps
    into the limit are a morphism between the two bounded spectral
    sequences, with E_1 terms Ext^q(S/B^[t], F_p)_a and H^q_B(F_p)_a.
    If every E_1 map is an isomorphism in degree a, so is every
    E_infinity map and so is Ext^q(S/B^[t], M)_a -> H^q_B(M)_a.

    3. Twists.  Take for F the Schreyer resolution built from the
    Groebner basis (``schreyer_frame``).  F_0 has the twists tw_k.  By
    the induction in that docstring, each element of a level >= 1
    stands for a set of level-one elements of one component k; the
    lifted lead of the syzygy of two elements over a common parent is
    the lcm of theirs, so by the same induction its lifted lead is the
    lcm of its set's leads, and its twist is at most tw_k + deg lcm_k.
    Every degree a of the box has a >= lo, so t_cert meets step 1 for
    every twist of F at every a, and step 2 makes the table exact.
    """
    ring = pieces.ring
    t = 1
    for k, tw in enumerate(pieces.F0.twists):
        leads = pieces.gb.lead_monomials(k)
        if leads:
            tw = deg_add(tw, ring.monomial_degree(reduce(mono_lcm, leads)))
        t = max(t, *(b - a - n for b, a, n in zip(tw, lo, ring.n)))
    return t


def local_cohomology_box(M, box):
    """Local cohomology dimensions of a presented module over a finite
    degree box, via the Ext direct limit.

    The Ext dimensions against the bracket power at t are computed
    for each degree in the box and each index up to dim X + 1, from
    t = min(``default_t_start(box)``, t_cert) upwards, where t_cert is
    ``_certified_power``.  The first table that equals the next one
    is returned as a heuristic answer, unless the next one is the
    table at t_cert, which is returned as certified; so at most
    t_cert - t + 1 tables are built.
    """
    ring = M.ring
    lo, hi = checked_box(box, ring.r)
    max_index = sum(ring.n) + 1
    pieces = GradedPieces.of(M)
    points = box_points((lo, hi))

    def table_at(t):
        twists, entries = _ext_entries(bracket_power_complex(ring, t))
        out = {}
        for pdeg in points:
            dims = _ext_dims_at(pieces, twists, entries, pdeg, max_index)
            for i, v in dims.items():
                if v:
                    out[(i, pdeg)] = v
        return out

    t_cert = _certified_power(pieces, lo)
    t = min(default_t_start((lo, hi)), t_cert)
    data = table_at(t)
    while t < t_cert:
        nxt = table_at(t + 1)
        if nxt == data and t + 1 < t_cert:
            return CohomologyTable((lo, hi), data, t, max_index, False)
        t, data = t + 1, nxt
    return CohomologyTable((lo, hi), data, t, max_index, True)


def _vanishing_regions(ring, d):
    """The regions where the definition of regularity at d asks local
    cohomology to vanish, listed by index: the bottom group on the
    orthants above the unit shifts d + e_j, and group i >= 1 on the
    staircase with corners d - lam, |lam| = i - 1, each lam_j at most
    n_j + 1 (larger shifts never matter on a product of projective
    spaces)."""
    d = tuple(d)
    lams = list(_iterproduct(*[range(nj + 2) for nj in ring.n]))
    regions = [Region(ring.r, [deg_add(d, unit_degree(ring.r, j))
                               for j in range(ring.r)])]
    regions += [Region(ring.r, [deg_sub(d, lam) for lam in lams
                                if sum(lam) == i - 1])
                for i in range(1, sum(ring.n) + 2)]
    return regions


def required_corners(ring, d):
    """All degree-box corners that the definition check reads: the
    minimal generators of its vanishing regions."""
    return _corners(_vanishing_regions(ring, d))


def _corners(regions):
    return sorted({c for region in regions for c in region.minimal_generators})


def check_regularity_by_definition(M, d, table=None):
    """The definition-side regularity test: vanishing of the bottom
    local cohomology on the shifted orthants and of each higher group
    on its staircase region, checked over a finite box.

    The box is that of ``table``, a ``local_cohomology_box`` of M,
    which may be passed to amortize sweeps over many d or to choose
    another box.  Without one, a table is built over the default box:
    it spans the required corners and extends one step past d + n
    above, where the remaining vanishing is Serre-style in all the
    examples this library targets.  The box must contain every required
    corner (BoxTooSmall otherwise).
    """
    ring = M.ring
    d = checked_degree(d, ring.r)
    vanishing = _vanishing_regions(ring, d)
    corners = _corners(vanishing)
    if table is None:
        lo = tuple(min(c[j] for c in corners) for j in range(ring.r))
        hi_corner = tuple(max(c[j] for c in corners) for j in range(ring.r))
        hi = deg_max(hi_corner,
                     deg_add(deg_add(d, tuple(ring.n)), (1,) * ring.r))
        table = local_cohomology_box(M, (lo, hi))
    lo, hi = table.box
    missing = [c for c in corners if not (deg_leq(lo, c) and deg_leq(c, hi))]
    if missing:
        raise BoxTooSmall(
            f"box {lo}..{hi} misses required corners {missing[:4]}",
            missing=missing)
    return not any(vanishing[i].contains(pdeg) for i, pdeg in table.nonzero())
