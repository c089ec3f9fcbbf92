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
from math import prod

from .errors import InhomogeneousError, RingMismatchError

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


# RingSpec.irrelevant_generators lists Pi(n_i + 1) exponent tuples of
# nvars entries each; n = [20000] would need 4 * 10^8 entries, gigabytes
# of tuples, before any answer.  n = [3000] (9 * 10^6) stays accepted.
_MAX_IRRELEVANT_ENTRIES = 10 ** 7


def checked_dims(n):
    """``n`` as a tuple, after checking that it gives a product of
    projective spaces small enough to list its irrelevant ideal."""
    n = tuple(int(x) for x in n)
    if not n or min(n) < 1:
        raise ValueError("factor dimensions must be one or more numbers "
                         f">= 1, got {list(n)}")
    entries = prod(ni + 1 for ni in n) * (len(n) + sum(n))
    if entries > _MAX_IRRELEVANT_ENTRIES:
        raise ValueError(f"factor dimensions {list(n)} are too large: the "
                         f"irrelevant ideal would need {entries} exponent "
                         f"entries, more than {_MAX_IRRELEVANT_ENTRIES}")
    return n


def checked_prime(p):
    """``p``, after checking that it is a prime the field arithmetic
    supports."""
    if not is_prime(p):
        raise ValueError(f"characteristic {p} is not prime")
    if p >= 2 ** 62:
        # matrices store residues as int64; 2^62 keeps a bit to spare
        raise ValueError(f"characteristic {p} is too large: "
                         "need p < 2^62")
    return p


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
    """Componentwise partial order a <= b; on exponent tuples, a
    divides b."""
    for x, y in zip(a, b):
        if x > y:
            return False
    return True


def checked_degree(d, r):
    """``d`` as a tuple, after checking that it has ``r`` entries: zip
    would silently cut a degree of the wrong rank to fit."""
    d = tuple(d)
    if len(d) != r:
        raise ValueError(f"degree {d} has rank {len(d)}; the ring has "
                         f"rank {r}")
    return d


def checked_box(box, r):
    """The corners (lo, hi) of a degree box, after checking that both
    have rank ``r`` and that lo <= hi."""
    lo, hi = tuple(box[0]), tuple(box[1])
    if len(lo) != r or len(hi) != r:
        raise ValueError(f"box {lo}..{hi} does not have rank {r}")
    if not deg_leq(lo, hi):
        raise ValueError("box lower corner must be <= upper corner")
    return lo, hi


def box_points(box):
    """Every degree of the box (lo, hi), in lexicographic order."""
    lo, hi = box
    return list(_iterproduct(*[range(a, b + 1) for a, b in zip(lo, hi)]))


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
    for printing and accepted in input, and on a ring of more factors
    they still name the first four.
    """

    __slots__ = ("r", "n", "p", "nvars", "var_factor", "_block_start",
                 "_names", "_index")

    def __init__(self, n, p=DEFAULT_PRIME):
        n = checked_dims(n)
        self.r = len(n)
        self.n = n
        self.p = checked_prime(p)
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
        canonical = [f"v{i + 1}_{v - starts[i]}"
                     for v, i in enumerate(var_factor)]
        # the aliases name a prefix of the variables: the first four blocks
        alias = [f"{_ALIAS_LETTERS[i]}{v - starts[i]}"
                 for v, i in enumerate(var_factor) if i < len(_ALIAS_LETTERS)]
        self._names = tuple(alias if self.r <= len(_ALIAS_LETTERS)
                            else canonical)
        self._index = {name: v for names in (canonical, alias)
                       for v, name in enumerate(names)}

    def __eq__(self, other):
        return (isinstance(other, RingSpec)
                and self.n == other.n and self.p == other.p)

    def __hash__(self):
        return hash((self.n, self.p))

    def __repr__(self):
        return f"RingSpec(n={list(self.n)}, p={self.p})"

    def block(self, factor):
        """range of variable indices belonging to one factor."""
        return range(self._block_start[factor], self._block_start[factor + 1])

    def var_name(self, idx):
        return self._names[idx]

    def var_by_name(self, name):
        """Resolve a variable name, canonical or alias; None if unknown."""
        return self._index.get(name)

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


# product, divisibility, quotient (the caller guarantees divisibility)
# and lcm of monomials are the componentwise operations on multidegrees
mono_mul = deg_add
mono_divides = deg_leq
mono_div = deg_sub
mono_lcm = deg_max


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
    d = checked_degree(d, ring.r)
    if any(x < 0 for x in d):
        return []
    per_block = [list(_compositions(d[i], ring.n[i] + 1)) for i in range(ring.r)]
    return [sum(combo, ()) for combo in _iterproduct(*per_block)]


def count_monomials(ring, d):
    """Closed-form count of monomials_of_degree."""
    from math import comb
    d = checked_degree(d, ring.r)
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
        """self^k by repeated squaring: about 2 log2(k) products."""
        if k < 0:
            raise ValueError(f"negative exponent {k}")
        out = Poly.one(self.ring)
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

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
                raise ValueError(f"twist {t} has rank {len(t)}; the ring "
                                 f"has rank {ring.r}")

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


# Vector terms are ((total_exponent, monomial, -component), coeff),
# kept sorted descending, so terms[0] is the leading term and merging
# two vectors is a linear-time walk.

def term_key(comp, mono):
    return (sum(mono), mono, -comp)


class Vector:
    """Element of a free module, as an ordered term list.  Terms not
    marked canonical are sorted here and need distinct keys and nonzero
    coefficients: a Vector has no ring to reduce them by."""

    __slots__ = ("terms",)

    def __init__(self, terms, _canonical=False):
        if not _canonical:
            terms = tuple(sorted(terms, key=lambda t: t[0], reverse=True))
            if len({k for k, c in terms if c}) < len(terms):
                raise ValueError("vector terms need distinct keys and "
                                 "nonzero coefficients")
        self.terms = terms

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
                raise InhomogeneousError(
                    f"vector is not homogeneous: degrees {d} and {dd}")
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


def _column_degree(col, target, l):
    """col.degree(target), with column l named when it is
    inhomogeneous."""
    try:
        return col.degree(target)
    except InhomogeneousError as exc:
        raise InhomogeneousError(f"column {l}: {exc}") from None


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
            for l, col in enumerate(self.columns):
                got = _column_degree(col, target, l)
                if got is not None and got != source.twists[l]:
                    raise InhomogeneousError(
                        f"column {l}: degree {got}, expected "
                        f"{source.twists[l]}")

    @property
    def ring(self):
        return self.target.ring

    @classmethod
    def from_columns(cls, target, columns):
        """The matrix into target whose source generator l sits in the
        degree of columns[l].  Raises InhomogeneousError naming an
        inhomogeneous column, and ValueError on a zero column, which
        has no degree."""
        columns = tuple(columns)
        twists = [_column_degree(col, target, l)
                  for l, col in enumerate(columns)]
        if None in twists:
            raise ValueError(f"column {twists.index(None)} is zero and "
                             "has no degree")
        return cls(FreeModuleSpec(target.ring, twists), target, columns,
                   check=False)

    @classmethod
    def from_entries(cls, source, target, entries):
        """entries[k][l] is the Poly in row k, column l (None for 0)."""
        cols = [Vector.from_components([row[l] for row in entries])
                for l in range(source.rank)]
        return cls(source, target, cols)

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
    def free(cls, ring):
        """S itself: one generator in degree 0, no relations."""
        return cls(FreeModuleSpec(ring, (zero_degree(ring.r),)))

    @classmethod
    def quotient_by_ideal(cls, ring, gens):
        """S/I for an ideal given by homogeneous polynomials."""
        F0 = FreeModuleSpec(ring, (zero_degree(ring.r),))
        return cls(F0, MatrixOverS.from_columns(
            F0, [Vector.from_components([g]) for g in gens if g]))

    def __repr__(self):
        return (f"Presentation(gens={list(self.F0.twists)}, "
                f"rels={self.relations.source.rank})")
