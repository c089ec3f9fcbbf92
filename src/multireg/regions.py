"""Upward-closed regions in Z^r and the staircase calculus on them.

A region is a finite union of translated positive orthants, stored as
the antichain of its minimal elements.  Two families matter here: for
a degree d and level i,

* ``region_L(i, d)`` has minimal elements d - lam over all lam in N^r
  with |lam| = i; membership of b amounts to the positive parts of
  d - b summing to at most i.  These are the twist constraints that a
  resolution must satisfy at homological step i to count as linear.
* ``region_Q(i, d)`` equals region_L(i-1, d - 1) for i > 0 (and the
  plain orthant at d for i = 0), the relaxed constraint defining
  quasilinear resolutions.

Intersections of unions of orthants are again unions of orthants
(componentwise maxima of generators), so the whole calculus is exact.
"""

from itertools import accumulate
from math import inf

from .ringcore import _compositions, deg_leq, deg_max, deg_total


def _minimalize(points):
    """Antichain of minimal elements of a finite point set.

    A point is compared only with kept points of smaller total: g <= q
    with equal totals forces g = q, and the points are distinct.  So
    an antichain of one total, such as region_L's generators, costs
    no comparison at all."""
    pts = sorted(set(points), key=lambda t: (deg_total(t), t))
    below, level, total = [], [], None
    for q in pts:
        if deg_total(q) != total:
            below += level
            level, total = [], deg_total(q)
        if not any(deg_leq(g, q) for g in below):
            level.append(q)
    return tuple(sorted(below + level))


class Region:
    """Upward-closed subset of Z^r as the antichain of its minimal
    elements; the empty generator list is the empty region."""

    __slots__ = ("rank", "minimal_generators")

    def __init__(self, rank, generators=()):
        self.rank = rank
        gens = [tuple(g) for g in generators]
        for g in gens:
            if len(g) != rank:
                raise ValueError("generator of wrong rank")
        self.minimal_generators = _minimalize(gens)

    @classmethod
    def empty(cls, rank):
        return cls(rank, ())

    def is_empty(self):
        return not self.minimal_generators

    def contains(self, p):
        p = tuple(p)
        if len(p) != self.rank:
            raise ValueError("point of wrong rank")
        return any(deg_leq(g, p) for g in self.minimal_generators)

    def __eq__(self, other):
        return (isinstance(other, Region) and self.rank == other.rank
                and self.minimal_generators == other.minimal_generators)

    def __hash__(self):
        return hash((self.rank, self.minimal_generators))

    def __le__(self, other):
        """Containment of regions."""
        return region_subset(self, other)

    def __repr__(self):
        return f"Region{list(map(list, self.minimal_generators))}"

    def to_json(self):
        return {
            "schema": "multireg/region/v1",
            "rank": self.rank,
            "minimal_generators": [list(g) for g in self.minimal_generators],
        }


def region_L(i, d):
    """Twists allowed at homological step i of a linear resolution
    with socle degree d: minimal elements are d - lam for |lam| = i.

    Membership of b is equivalent to sum_j max(d_j - b_j, 0) <= i.
    """
    if i < 0:
        raise ValueError("level must be nonnegative")
    d = tuple(d)
    if not d:
        raise ValueError("degree has no coordinates")
    gens = []
    for lam in _compositions(i, len(d)):
        gens.append(tuple(dj - lj for dj, lj in zip(d, lam)))
    return Region(len(d), gens)


def region_Q(i, d):
    """The quasilinear counterpart: the orthant at d for i = 0, which is
    region_L(0, d), and region_L(i - 1, d - 1) above."""
    if i == 0:
        return region_L(0, d)
    return region_L(i - 1, tuple(x - 1 for x in d))


def region_intersect(A, B):
    if A.rank != B.rank:
        raise ValueError("regions of different ranks")
    gens = [deg_max(a, b) for a in A.minimal_generators
            for b in B.minimal_generators]
    return Region(A.rank, gens)


def region_union(A, B):
    if A.rank != B.rank:
        raise ValueError("regions of different ranks")
    return Region(A.rank, A.minimal_generators + B.minimal_generators)


def region_subset(A, B):
    """A is a subset of B: every minimal generator of A lies in B."""
    if A.rank != B.rank:
        raise ValueError("regions of different ranks")
    return all(B.contains(g) for g in A.minimal_generators)


def _betti_bound(B, region_of_level):
    if not B.data:
        raise ValueError("empty Betti table")
    out = None
    for (i, b) in B.data:
        reg = region_of_level(i, b)
        out = reg if out is None else region_intersect(out, reg)
    return out


def betti_bound_L(B):
    """Intersection of region_L(i, b) over all Betti degrees b at each
    index i: degrees whose truncation is guaranteed linear by the
    Betti data alone."""
    return _betti_bound(B, region_L)


def betti_bound_Q(B):
    """Intersection of region_Q(i, b) over the Betti support: an inner
    bound for the regularity region of a torsion-free-at-zero module."""
    return _betti_bound(B, region_Q)


def _plot_cells(region):
    """What a staircase plot of a rank-2 region reads: the corners
    (lo, hi) of its box, one step below the minimal generators and
    three above them, the generator set, and the lowest member row of
    each column.  (x, y) lies in the region exactly when
    y >= min{g_1 : g_0 <= x}, so one running minimum over the columns
    answers every cell in constant time."""
    if region.rank != 2:
        raise ValueError("staircase plots need a rank-2 region; this one "
                         f"has rank {region.rank}")
    gens = region.minimal_generators
    lo = tuple(min((g[j] for g in gens), default=0) - 1 for j in range(2))
    hi = tuple(max((g[j] for g in gens), default=0) + 3 for j in range(2))
    # an antichain has at most one generator per first coordinate
    first = dict(gens)
    xs = range(lo[0], hi[0] + 1)
    floor = dict(zip(xs, accumulate((first.get(x, inf) for x in xs), min)))
    return lo, hi, set(gens), floor


def staircase_text(region):
    """ASCII staircase of a rank-2 region over its plot box: rows are
    the second coordinate (descending), '#' marks membership, 'o' the
    minimal generators.  The footer gives each column's first
    coordinate, and every cell is as wide as the widest of them."""
    lo, hi, gens, floor = _plot_cells(region)
    if not gens:
        return "(empty region)"
    xs = range(lo[0], hi[0] + 1)
    ys = range(hi[1], lo[1] - 1, -1)
    w = max(len(str(x)) for x in xs)
    yw = max(4, *(len(str(y)) for y in ys))
    lines = []
    for y in ys:
        row = ["o" if (x, y) in gens else "#" if y >= floor[x] else "."
               for x in xs]
        lines.append(f"{y:>{yw}} " + " ".join(c.rjust(w) for c in row))
    lines.append(" " * (yw + 1) + " ".join(str(x).rjust(w) for x in xs))
    return "\n".join(lines)


def staircase_svg(region):
    """Minimal SVG rendering of a rank-2 staircase region over its plot
    box, 24 pixels per degree."""
    lo, hi, gens, floor = _plot_cells(region)
    cell = 24
    w = (hi[0] - lo[0] + 1) * cell
    h = (hi[1] - lo[1] + 1) * cell

    def pix(x, y):
        return ((x - lo[0]) * cell + cell // 2,
                h - (y - lo[1]) * cell - cell // 2)

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" '
             f'height="{h}" viewBox="0 0 {w} {h}">']
    for x in range(lo[0], hi[0] + 1):
        for y in range(lo[1], hi[1] + 1):
            cx, cy = pix(x, y)
            if y >= floor[x]:
                parts.append(f'<rect x="{cx - cell // 2}" y="{cy - cell // 2}"'
                             f' width="{cell}" height="{cell}"'
                             ' fill="#cde7d8"/>')
    for x in range(lo[0], hi[0] + 1):
        for y in range(lo[1], hi[1] + 1):
            cx, cy = pix(x, y)
            r = 4 if (x, y) in gens else 2
            fill = "#1b7a46" if (x, y) in gens else "#888888"
            parts.append(f'<circle cx="{cx}" cy="{cy}" r="{r}" '
                         f'fill="{fill}"/>')
    cx0, cy0 = pix(0, lo[1])
    cx1, cy1 = pix(0, hi[1])
    parts.append(f'<line x1="{cx0}" y1="{cy0}" x2="{cx1}" y2="{cy1}" '
                 'stroke="#444" stroke-width="1"/>')
    cx0, cy0 = pix(lo[0], 0)
    cx1, cy1 = pix(hi[0], 0)
    parts.append(f'<line x1="{cx0}" y1="{cy0}" x2="{cx1}" y2="{cy1}" '
                 'stroke="#444" stroke-width="1"/>')
    parts.append("</svg>")
    return "\n".join(parts)
