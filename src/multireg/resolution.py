"""Free complexes, minimal free resolutions and Betti tables.

A resolution is built as a Schreyer-style tower of iterated syzygy
computations and then minimalized: every invertible (degree-zero)
entry of a differential is used to cancel one generator from each of
the two neighboring terms, a homotopy equivalence that preserves
homology.  A complex with no such entries is minimal, and its twist
multiplicities are the Betti numbers of the module it resolves.
"""

import itertools
from collections import Counter

from .groebner import schreyer_frame
from .ringcore import (
    FreeModuleSpec,
    MatrixOverS,
    Vector,
    deg_total,
    term_key,
    vec_add,
    vec_mono_mul,
)


class FreeComplex:
    """A chain of free modules terms[0..L] with homogeneous
    differentials d[i]: terms[i] <- terms[i+1] composing to zero."""

    __slots__ = ("terms", "differentials")

    def __init__(self, terms, differentials, check=True):
        self.terms = list(terms)
        self.differentials = list(differentials)
        if len(self.differentials) != max(len(self.terms) - 1, 0):
            raise ValueError("need one differential per adjacent pair")
        for i, d in enumerate(self.differentials):
            if d.target != self.terms[i] or d.source != self.terms[i + 1]:
                raise ValueError(f"differential {i} has wrong shape")
        if check:
            for i in range(len(self.differentials) - 1):
                comp = self.differentials[i].compose(self.differentials[i + 1])
                if not comp.is_zero():
                    raise ValueError(f"d_{i} o d_{i + 1} != 0")

    @property
    def ring(self):
        return self.terms[0].ring

    def __repr__(self):
        ranks = " <- ".join(str(t.rank) for t in self.terms)
        return f"FreeComplex({ranks})"


class BettiTable:
    """Multiplicity of each twist at each homological index of a
    complex; for a minimal resolution these are the Betti numbers."""

    __slots__ = ("rank", "data", "from_minimal")

    def __init__(self, rank, data, from_minimal=True):
        self.rank = rank
        self.data = {(i, tuple(b)): int(m) for (i, b), m in data.items() if m}
        self.from_minimal = from_minimal

    @classmethod
    def from_complex(cls, C, from_minimal=True):
        counts = Counter()
        for i, spec in enumerate(C.terms):
            for tw in spec.twists:
                counts[(i, tw)] += 1
        rank = C.ring.r
        return cls(rank, counts, from_minimal=from_minimal)

    def __eq__(self, other):
        return isinstance(other, BettiTable) and self.data == other.data

    def __bool__(self):
        return bool(self.data)

    def items(self):
        return sorted(self.data.items())

    def multiplicity(self, i, b):
        return self.data.get((i, tuple(b)), 0)

    def support(self, i):
        """The set of twists with nonzero multiplicity at index i."""
        return {b for (j, b) in self.data if j == i}

    def max_index(self):
        return max((i for i, _ in self.data), default=-1)

    def pretty(self):
        """Text grid: one row per twist, one column per index."""
        if not self.data:
            return "(zero module)"
        imax = self.max_index()
        degs = sorted({b for (_, b) in self.data},
                      key=lambda b: (deg_total(b), b))
        width = max(6, max(len(str(list(b))) for b in degs) + 1)
        head = " " * width + "".join(f"{i:>6}" for i in range(imax + 1))
        lines = [head]
        for b in degs:
            row = f"{str(list(b)):<{width}}"
            for i in range(imax + 1):
                m = self.data.get((i, b), 0)
                row += f"{m if m else '.':>6}"
            lines.append(row)
        return "\n".join(lines)

    def to_json(self):
        return {
            "schema": "multireg/betti/v1",
            "minimal": self.from_minimal,
            "entries": [{"index": i, "degree": list(b), "multiplicity": m}
                        for (i, b), m in self.items()],
        }

    def __repr__(self):
        return f"BettiTable({dict(self.items())})"


def is_minimal_complex(C):
    """True when no differential entry is a nonzero constant."""
    return all(_lowest_unit([col.terms for col in d.columns]) is None
               for d in C.differentials)


# ---------------------------------------------------------------------------
# minimalization

def _lowest_unit(cols):
    """(row, column, coefficient) of the unit entry with the smallest
    row, then the smallest column, or None.  Constant terms sort last
    in a column."""
    return min(((-key[2], l, c) for l, col in enumerate(cols) if col
                for key, c in itertools.takewhile(lambda t: not t[0][0],
                                                  reversed(col))),
               default=None)


def minimalize(C):
    """Homotopy-equivalent complex with no constant entries left in
    any differential; homology is unchanged.

    Each step is the Gaussian-elimination lemma for free complexes: a
    unit u at (k, l) of d_i splits off S e_l -> S e_k.  What is left
    has col_c -= (d_i[k, c] / u) col_l for each other column c of d_i,
    then column l and row k of d_i, row l of d_{i+1} and column k of
    d_{i-1} dropped; nothing else changes.  So cancelling in d_i only
    drops a column of the d_{i-1} already cleared, which creates no
    unit there, and one pass over the differentials in order leaves
    none.  Dropping keeps the order of the generator ids, so units are
    taken smallest row, then smallest column, by the original ids.
    """
    if not C.differentials:
        return C
    p = C.ring.p
    live = [[True] * t.rank for t in C.terms]
    diffs = []
    for i, d in enumerate(C.differentials):
        rows = live[i]
        # rows cancelled as columns of d_{i-1} go now; the columns of
        # d_{i-1} cancelled as rows here go at the rebuild
        A = [tuple(t for t in col.terms if rows[-t[0][2]])
             for col in d.columns]
        while (hit := _lowest_unit(A)) is not None:
            k, l, u = hit
            pivot, A[l] = A[l], None
            minus_uinv = p - pow(u, -1, p)
            for c, col in enumerate(A):
                for (tot, m, negc), f in [t for t in col or ()
                                          if t[0][2] == -k]:
                    A[c] = vec_add(A[c], vec_mono_mul(pivot, m,
                                                      f * minus_uinv, p), p)
            rows[k] = live[i + 1][l] = False
        diffs.append(A)
    # rebuild: renumber the surviving generators, drop trailing zeros
    specs = [FreeModuleSpec(C.ring, [tw for tw, ok in zip(t.twists, alive)
                                     if ok])
             for t, alive in zip(C.terms, live)]
    mats = []
    for i, A in enumerate(diffs):
        new_id = list(itertools.accumulate(live[i], initial=0))
        cols = [Vector(tuple(((tot, m, -new_id[-negc]), c)
                             for (tot, m, negc), c in col), _canonical=True)
                for col, ok in zip(A, live[i + 1]) if ok]
        mats.append(MatrixOverS(specs[i + 1], specs[i], cols, check=False))
    while len(specs) > 1 and specs[-1].rank == 0:
        specs.pop()
        mats.pop()
    return FreeComplex(specs, mats, check=False)


def free_resolution(M):
    """Minimal free resolution of coker(M.relations).

    The tower of iterated syzygies (schreyer_frame) is computed first
    and minimalized second.  Level one replaces the relation columns
    by their reduced Groebner basis; each later level is the S-pair
    syzygies of the level below, a Groebner basis in the order its
    leads induce, with known induced leads, so pairs with a dominated
    lead are pruned before the next level.  The minimalization at the
    end removes the non-minimal generators this introduces along with
    everything else.
    """
    diffs = schreyer_frame(M.relations)
    terms = [M.F0] + [d.source for d in diffs]
    raw = FreeComplex(terms, diffs, check=False)
    return minimalize(raw)


def betti(C):
    """Twist multiplicities of a complex; flagged as honest Betti
    numbers only when the complex is minimal."""
    return BettiTable.from_complex(C, from_minimal=is_minimal_complex(C))


# ---------------------------------------------------------------------------
# Koszul complexes

def koszul_complex(ring, elements):
    """Koszul complex on homogeneous ring elements: terms are exterior
    powers, the differential contracts with the element list."""
    degs = [f.degree() for f in elements]
    if None in degs:
        raise ValueError(f"elements[{degs.index(None)}] is zero; a Koszul "
                         "complex needs nonzero forms")
    c = len(elements)
    levels = []
    for k in range(c + 1):
        subsets = list(itertools.combinations(range(c), k))
        twists = [tuple(sum(degs[j][t] for j in T) for t in range(ring.r))
                  for T in subsets]
        levels.append((subsets, FreeModuleSpec(ring, twists)))
    terms = [spec for _, spec in levels]
    diffs = []
    p = ring.p
    for k in range(1, c + 1):
        subsets, spec = levels[k]
        prev_index = {T: i for i, T in enumerate(levels[k - 1][0])}
        cols = []
        for T in subsets:
            entries = []
            for pos, j in enumerate(T):
                rest = tuple(t for t in T if t != j)
                sign = 1 if pos % 2 == 0 else p - 1
                f = elements[j].scale(sign)
                row = prev_index[rest]
                for m, cc in f.terms:
                    entries.append((term_key(row, m), cc))
            cols.append(Vector(entries))
        diffs.append(MatrixOverS(spec, levels[k - 1][1], cols, check=False))
    return FreeComplex(terms, diffs, check=False)
