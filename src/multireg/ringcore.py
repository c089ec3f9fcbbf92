"""Exact arithmetic over the multigraded coordinate ring of a product
of projective spaces.

The ring S for dimension vector n = (n_1, ..., n_r) is the polynomial
ring over F_p with one block of n_i + 1 variables for each factor; a
variable in block i has degree e_i, so S is graded by Z^r.  Degrees,
twists and region points are all plain integer tuples of length r
("multidegrees").  Monomials are exponent tuples over all variables.

Free modules are direct sums of twisted copies of S, recorded by their
twist list: component k of ``FreeModuleSpec(ring, twists)`` is a copy
of S whose generator sits in degree twists[k].  Elements of free
modules (`Vector`) and matrices between them (`MatrixOverS`) keep their
terms sorted by the global term order used throughout, with leading
term first.

The term order compares exponent tuples by total degree and then
lexicographically (block 1 variables dominate); ties between free
module components go to the lower component index.
"""

from itertools import product as _iterproduct

import numpy as np

from .errors import InhomogeneousError, RingMismatchError
from . import modp

DEFAULT_PRIME = 32003

_ALIAS_LETTERS = "xyzw"

# multidegrees and monomials are plain integer tuples (length r and
# number-of-variables respectively); the aliases are for signatures
MultiDegree = tuple
Monomial = tuple


def is_prime(m):
    """Deterministic Miller-Rabin, adequate for word-sized moduli."""
    if m < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17):
        if m % q == 0:
            return m == q
    d, s = m - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# multidegrees: plain tuples of length r

def deg_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def deg_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def deg_neg(a):
    return tuple(-x for x in a)


def deg_max(a, b):
    return tuple(x if x >= y else y for x, y in zip(a, b))


def deg_leq(a, b):
    """Componentwise partial order a <= b."""
    return all(x <= y for x, y in zip(a, b))


def deg_total(a):
    return sum(a)


def zero_degree(r):
    return (0,) * r


def unit_degree(r, i):
    return tuple(1 if j == i else 0 for j in range(r))


class RingSpec:
    """The coordinate ring of a product of r projective spaces over F_p.

    Variables are indexed 0..nvars-1, grouped into blocks of n_i + 1
    per factor.  Canonical names are ``v{i}_{j}`` (factor i is
    1-based); for up to four factors the aliases x, y, z, w are used
    for printing and accepted in input.
    """

    __slots__ = ("r", "n", "p", "nvars", "var_factor", "_block_start", "_names")

    def __init__(self, n, p=DEFAULT_PRIME):
        n = tuple(int(x) for x in n)
        if len(n) < 1:
            raise ValueError("need at least one factor")
        if any(ni < 1 for ni in n):
            raise ValueError("every factor dimension must be >= 1")
        if not is_prime(p):
            raise ValueError(f"characteristic {p} is not prime")
        if p >= 2 ** 62:
            # matrices hold residues as int64 and sum two of them
            raise ValueError(f"characteristic {p} is too large: "
                             "need p < 2^62")
        self.r = len(n)
        self.n = n
        self.p = p
        starts = []
        var_factor = []
        pos = 0
        for i, ni in enumerate(n):
            starts.append(pos)
            var_factor.extend([i] * (ni + 1))
            pos += ni + 1
        self.nvars = pos
        self.var_factor = tuple(var_factor)
        self._block_start = tuple(starts) + (pos,)
        names = []
        for i, ni in enumerate(n):
            for j in range(ni + 1):
                if self.r <= len(_ALIAS_LETTERS):
                    names.append(f"{_ALIAS_LETTERS[i]}{j}")
                else:
                    names.append(f"v{i + 1}_{j}")
        self._names = tuple(names)

    def __eq__(self, other):
        return (isinstance(other, RingSpec)
                and self.n == other.n and self.p == other.p)

    def __hash__(self):
        return hash((self.n, self.p))

    def __repr__(self):
        return f"RingSpec(n={list(self.n)}, p={self.p})"

    def variable_index(self, factor, j):
        """Index of the j-th variable of the given 0-based factor."""
        if not (0 <= factor < self.r and 0 <= j <= self.n[factor]):
            raise ValueError(f"no variable ({factor}, {j})")
        return self._block_start[factor] + j

    def block(self, factor):
        """range of variable indices belonging to one factor."""
        return range(self._block_start[factor], self._block_start[factor + 1])

    def var_name(self, idx):
        return self._names[idx]

    def var_by_name(self, name):
        """Resolve a variable name, canonical or alias; None if unknown."""
        if name in self._names:
            return self._names.index(name)
        if name.startswith("v") and "_" in name:
            try:
                i, j = name[1:].split("_", 1)
                return self.variable_index(int(i) - 1, int(j))
            except (ValueError, IndexError):
                return None
        if len(name) >= 2 and name[0] in _ALIAS_LETTERS:
            i = _ALIAS_LETTERS.index(name[0])
            try:
                return self.variable_index(i, int(name[1:]))
            except (ValueError, IndexError):
                return None
        return None

    def monomial_degree(self, m):
        """Multidegree of an exponent tuple: per-block exponent sums."""
        bs = self._block_start
        return tuple(sum(m[bs[i]:bs[i + 1]]) for i in range(self.r))

    def irrelevant_generators(self):
        """The products (one variable per block) generating the
        irrelevant ideal, in deterministic order."""
        blocks = [list(self.block(i)) for i in range(self.r)]
        gens = []
        for combo in _iterproduct(*blocks):
            m = [0] * self.nvars
            for v in combo:
                m[v] += 1
            gens.append(tuple(m))
        return gens


# ---------------------------------------------------------------------------
# monomials: exponent tuples

def mono_one(ring):
    return (0,) * ring.nvars


def mono_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def mono_divides(a, b):
    """True if a | b, i.e. all exponents of a are <= those of b."""
    for x, y in zip(a, b):
        if x > y:
            return False
    return True


def mono_div(a, b):
    """a / b; caller must guarantee divisibility."""
    return tuple(x - y for x, y in zip(a, b))


def mono_lcm(a, b):
    return tuple(x if x >= y else y for x, y in zip(a, b))


def mono_coprime(a, b):
    return all(x == 0 or y == 0 for x, y in zip(a, b))


def mono_key(m):
    """Sort key of the global term order (total degree, then lex)."""
    return (sum(m), m)


def _compositions(total, parts):
    """All exponent tuples of a given length summing to total, in
    descending lex order."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def monomials_of_degree(ring, d):
    """All monomials of multidegree exactly d, in descending term
    order; empty when any coordinate of d is negative.

    The count is the product over factors of C(n_i + d_i, n_i).
    """
    if len(d) != ring.r:
        raise ValueError("degree has wrong rank")
    if any(x < 0 for x in d):
        return []
    per_block = [list(_compositions(d[i], ring.n[i] + 1)) for i in range(ring.r)]
    return [sum(combo, ()) for combo in _iterproduct(*per_block)]


def count_monomials(ring, d):
    """Closed-form count of monomials_of_degree."""
    from math import comb
    if any(x < 0 for x in d):
        return 0
    out = 1
    for ni, di in zip(ring.n, d):
        out *= comb(ni + di, ni)
    return out


# ---------------------------------------------------------------------------
# polynomials

class Poly:
    """Element of S: terms kept sorted with leading term first, no zero
    coefficients, coefficients in [1, p)."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms, _canonical=False):
        self.ring = ring
        if _canonical:
            self.terms = terms
        else:
            acc = {}
            p = ring.p
            for m, c in terms:
                c = (acc.get(m, 0) + c) % p
                if c:
                    acc[m] = c
                else:
                    acc.pop(m, None)
            self.terms = tuple(sorted(acc.items(), key=lambda t: mono_key(t[0]),
                                      reverse=True))

    @classmethod
    def zero(cls, ring):
        return cls(ring, (), _canonical=True)

    @classmethod
    def one(cls, ring):
        return cls(ring, ((mono_one(ring), 1),), _canonical=True)

    @classmethod
    def constant(cls, ring, c):
        c %= ring.p
        if not c:
            return cls.zero(ring)
        return cls(ring, ((mono_one(ring), c),), _canonical=True)

    @classmethod
    def variable(cls, ring, idx):
        m = tuple(1 if k == idx else 0 for k in range(ring.nvars))
        return cls(ring, ((m, 1),), _canonical=True)

    @classmethod
    def monomial(cls, ring, m, c=1):
        c %= ring.p
        if not c:
            return cls.zero(ring)
        return cls(ring, ((tuple(m), c),), _canonical=True)

    def _check_ring(self, other):
        if self.ring != other.ring:
            raise RingMismatchError("operands over different rings")

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (isinstance(other, Poly) and self.ring == other.ring
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.ring, self.terms))

    def __add__(self, other):
        self._check_ring(other)
        return Poly(self.ring, self.terms + other.terms)

    def __neg__(self):
        p = self.ring.p
        return Poly(self.ring, tuple((m, p - c) for m, c in self.terms),
                    _canonical=True)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        c %= self.ring.p
        if not c:
            return Poly.zero(self.ring)
        p = self.ring.p
        return Poly(self.ring, tuple((m, (k * c) % p) for m, k in self.terms),
                    _canonical=True)

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        self._check_ring(other)
        acc = {}
        p = self.ring.p
        for m1, c1 in self.terms:
            for m2, c2 in other.terms:
                m = mono_mul(m1, m2)
                c = (acc.get(m, 0) + c1 * c2) % p
                if c:
                    acc[m] = c
                else:
                    acc.pop(m, None)
        return Poly(self.ring,
                    tuple(sorted(acc.items(), key=lambda t: mono_key(t[0]),
                                 reverse=True)), _canonical=True)

    __rmul__ = __mul__

    def __pow__(self, k):
        out = Poly.one(self.ring)
        for _ in range(k):
            out = out * self
        return out

    def lead(self):
        """(monomial, coefficient) of the leading term; None when zero."""
        return self.terms[0] if self.terms else None

    def is_homogeneous(self):
        if not self.terms:
            return True
        d = self.ring.monomial_degree(self.terms[0][0])
        return all(self.ring.monomial_degree(m) == d for m, _ in self.terms[1:])

    def degree(self):
        """Common multidegree of all terms; None for the zero
        polynomial; raises when inhomogeneous."""
        if not self.terms:
            return None
        d = self.ring.monomial_degree(self.terms[0][0])
        for m, _ in self.terms[1:]:
            if self.ring.monomial_degree(m) != d:
                raise InhomogeneousError(f"{self} is not homogeneous")
        return d

    def is_unit_constant(self):
        return (len(self.terms) == 1 and not any(self.terms[0][0]))

    def __repr__(self):
        return poly_to_string(self)


def poly_to_string(f):
    """Canonical rendering with balanced coefficients (so p - 1 prints
    as -1), descending term order."""
    if not f.terms:
        return "0"
    ring = f.ring
    half = ring.p // 2
    parts = []
    for m, c in f.terms:
        if c > half:
            sign, mag = "-", ring.p - c
        else:
            sign, mag = "+", c
        factors = [f"{ring.var_name(i)}^{e}" if e > 1 else ring.var_name(i)
                   for i, e in enumerate(m) if e]
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(mag)] + factors)
        parts.append((sign, body))
    first_sign, first_body = parts[0]
    out = ("-" if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        out += f" {sign} {body}"
    return out


# ---------------------------------------------------------------------------
# free modules and their elements

class FreeModuleSpec:
    """A free module given by its generator degrees: component k is a
    copy of S twisted so its generator has degree twists[k]."""

    __slots__ = ("ring", "twists")

    def __init__(self, ring, twists):
        self.ring = ring
        self.twists = tuple(tuple(t) for t in twists)
        for t in self.twists:
            if len(t) != ring.r:
                raise ValueError("twist of wrong rank")

    @property
    def rank(self):
        return len(self.twists)

    def __eq__(self, other):
        return (isinstance(other, FreeModuleSpec)
                and self.ring == other.ring and self.twists == other.twists)

    def __hash__(self):
        return hash((self.ring, self.twists))

    def __repr__(self):
        return f"FreeModuleSpec({list(self.twists)})"


def free_basis_of_degree(spec, d):
    """Basis of the degree-d piece of a free module: pairs (component,
    monomial), component-major, monomials in descending term order."""
    if len(d) != spec.ring.r:
        raise ValueError(f"degree {tuple(d)} has rank {len(d)}; the ring "
                         f"has rank {spec.ring.r}")
    out = []
    for k, tw in enumerate(spec.twists):
        rel = deg_sub(d, tw)
        for m in monomials_of_degree(spec.ring, rel):
            out.append((k, m))
    return out


# Vector terms are ((total_exponent, monomial, -component), coeff),
# kept sorted descending, so terms[0] is the leading term and merging
# two vectors is a linear-time walk.

def term_key(comp, mono):
    return (sum(mono), mono, -comp)


class Vector:
    """Element of a free module, as an ordered term list."""

    __slots__ = ("terms",)

    def __init__(self, terms, _canonical=False):
        if _canonical:
            self.terms = terms
        else:
            self.terms = tuple(sorted(terms, key=lambda t: t[0], reverse=True))

    @classmethod
    def zero(cls):
        return cls ((), _canonical=True)

    @classmethod
    def unit(cls, ring, comp):
        m = mono_one(ring)
        return cls(((term_key(comp, m), 1),), _canonical=True)

    @classmethod
    def from_components(cls, polys):
        """Build from a list of Poly entries, one per component."""
        terms = []
        for k, f in enumerate(polys):
            if f is None or not f:
                continue
            for m, c in f.terms:
                terms.append((term_key(k, m), c))
        return cls(terms)

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, Vector) and self.terms == other.terms

    def __hash__(self):
        return hash(self.terms)

    def lead(self):
        """((component, monomial), coefficient) of the leading term."""
        (tot, m, negc), c = self.terms[0]
        return (-negc, m), c

    def components(self):
        """Set of component indices with a nonzero entry."""
        return {-k[2] for k, _ in self.terms}

    def component_poly(self, ring, comp):
        return Poly(ring, tuple((k[1], c) for k, c in self.terms
                                if -k[2] == comp))

    def degree(self, spec):
        """Common multidegree when homogeneous in the given free
        module; None for zero; raises otherwise."""
        if not self.terms:
            return None
        ring = spec.ring
        d = None
        for (tot, m, negc), _ in self.terms:
            dd = deg_add(ring.monomial_degree(m), spec.twists[-negc])
            if d is None:
                d = dd
            elif dd != d:
                raise InhomogeneousError("vector is not homogeneous")
        return d

    def __repr__(self):
        items = [f"e{-negc}*({m},{c})" for (tot, m, negc), c in self.terms]
        return "Vector[" + ", ".join(items) + "]"


def vec_add(a, b, p):
    """Merge-sum of two canonical term tuples."""
    if not a:
        return b
    if not b:
        return a
    out = []
    i = j = 0
    la, lb = len(a), len(b)
    while i < la and j < lb:
        ka, ca = a[i]
        kb, cb = b[j]
        if ka == kb:
            c = (ca + cb) % p
            if c:
                out.append((ka, c))
            i += 1
            j += 1
        elif ka > kb:
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out)


def vec_scale(a, c, p):
    c %= p
    if not c:
        return ()
    return tuple((k, (cc * c) % p) for k, cc in a)


def vec_mono_mul(a, mono, c, p):
    """c * mono * a; multiplying every term by one monomial preserves
    the term order."""
    c %= p
    if not c:
        return ()
    mt = sum(mono)
    out = []
    for (tot, m, negc), cc in a:
        out.append(((tot + mt, mono_mul(m, mono), negc), (cc * c) % p))
    return tuple(out)


class MatrixOverS:
    """Homogeneous matrix between free modules, stored column-major.

    Column l is an element of the target of degree source.twists[l],
    equivalently entry (k, l) is homogeneous of degree
    source.twists[l] - target.twists[k] (or zero).
    """

    __slots__ = ("source", "target", "columns")

    def __init__(self, source, target, columns, check=True):
        if source.ring != target.ring:
            raise RingMismatchError("source and target over different rings")
        self.source = source
        self.target = target
        self.columns = tuple(columns)
        if len(self.columns) != source.rank:
            raise ValueError("column count does not match source rank")
        if check:
            ring = target.ring
            for l, col in enumerate(self.columns):
                want = source.twists[l]
                for (tot, m, negc), _ in col.terms:
                    got = deg_add(ring.monomial_degree(m), target.twists[-negc])
                    if got != want:
                        raise InhomogeneousError(
                            f"column {l}: term of degree {got}, expected {want}")

    @property
    def ring(self):
        return self.target.ring

    @classmethod
    def from_entries(cls, source, target, entries, check=True):
        """entries[k][l] is the Poly in row k, column l (None for 0)."""
        cols = []
        for l in range(source.rank):
            col = [row[l] if row[l] is not None else None for row in entries]
            cols.append(Vector.from_components(col))
        return cls(source, target, cols, check=check)

    @classmethod
    def identity(cls, spec):
        cols = [Vector.unit(spec.ring, k) for k in range(spec.rank)]
        return cls(spec, spec, cols, check=False)

    def entry(self, k, l):
        return self.columns[l].component_poly(self.ring, k)

    def is_zero(self):
        return all(not c for c in self.columns)

    def apply(self, v):
        """Image of a source vector: substitute columns for the source
        basis elements."""
        p = self.ring.p
        acc = ()
        for (tot, m, negc), c in v.terms:
            col = self.columns[-negc]
            if col:
                acc = vec_add(acc, vec_mono_mul(col.terms, m, c, p), p)
        return Vector(acc, _canonical=True)

    def compose(self, other):
        """self o other, where other maps into self.source."""
        if other.target != self.source:
            raise ValueError("composition shape mismatch")
        cols = [self.apply(c) for c in other.columns]
        return MatrixOverS(other.source, self.target, cols, check=False)

    def graded_block(self, d):
        """The degree-d piece as a dense F_p matrix.

        Rows index free_basis_of_degree(target, d); columns index pairs
        (source column l, monomial of degree d - source.twists[l]).
        Returns (matrix, row_basis, col_labels).
        """
        ring = self.ring
        rows = free_basis_of_degree(self.target, d)
        index = {cm: i for i, cm in enumerate(rows)}
        cols = []
        labels = []
        p = ring.p
        for l, col in enumerate(self.columns):
            rel = deg_sub(d, self.source.twists[l])
            for m in monomials_of_degree(ring, rel):
                vec = np.zeros(len(rows), dtype=np.int64)
                for (tot, mm, negc), c in col.terms:
                    vec[index[(-negc, mono_mul(mm, m))]] = c % p
                cols.append(vec)
                labels.append((l, m))
        if cols:
            mat = np.stack(cols, axis=1)
        else:
            mat = np.zeros((len(rows), 0), dtype=np.int64)
        return mat, rows, labels

    def __repr__(self):
        return (f"MatrixOverS({self.target.rank}x{self.source.rank} "
                f"over {self.ring!r})")


# ---------------------------------------------------------------------------
# presentations

class Presentation:
    """A finitely generated graded module, as cokernel of a homogeneous
    matrix: generators F0, relations mapping into F0."""

    __slots__ = ("ring", "F0", "relations", "__weakref__")

    def __init__(self, F0, relations=None):
        self.ring = F0.ring
        self.F0 = F0
        if relations is None:
            src = FreeModuleSpec(F0.ring, ())
            relations = MatrixOverS(src, F0, (), check=False)
        if relations.target != F0:
            raise ValueError("relations must map into F0")
        self.relations = relations

    @classmethod
    def free(cls, ring, twists=((),)):
        if twists == ((),):
            twists = (zero_degree(ring.r),)
        return cls(FreeModuleSpec(ring, twists))

    @classmethod
    def quotient_by_ideal(cls, ring, gens):
        """S/I for an ideal given by homogeneous polynomials."""
        F0 = FreeModuleSpec(ring, (zero_degree(ring.r),))
        twists = []
        cols = []
        for g in gens:
            d = g.degree()
            if d is None:
                continue
            twists.append(d)
            cols.append(Vector.from_components([g]))
        src = FreeModuleSpec(ring, twists)
        return cls(F0, MatrixOverS(src, F0, cols))

    def __repr__(self):
        return (f"Presentation(gens={list(self.F0.twists)}, "
                f"rels={self.relations.source.rank})")


def hilbert_function(M, d):
    """dim_k of the degree-d piece of coker(relations), computed as the
    rank deficiency of the degree-d block of the relation matrix."""
    rows = free_basis_of_degree(M.F0, d)
    if not rows:
        return 0
    block, _, _ = M.relations.graded_block(d)
    return len(rows) - modp.rank(block, M.ring.p)
