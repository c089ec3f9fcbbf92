"""Parsing for the line-oriented job format and for polynomials.

A job file fixes the ring on its first directive line and then gives
the input object:

    ring p=32003 n=[1,2]
    ideal x0^2*y0^2 + x1^2*y1^2 + x0*x1*y2^2; x0^3*y2 + x1^3*y0 + x1^3*y1

or a presented module by generator rows and a relation matrix:

    ring p=32003 n=[1,1]
    module rows=[(1,0),(1,0),(0,1),(0,1)] matrix [[-y0,0,-y0,0],
      [0,-y1,0,-y1],[x0,x1,0,0],[0,0,x1,x0]]

Variables are x0.., y0.., z0.., w0.. for up to four factors, or
v{i}_{j} in general.  Polynomials use +, -, *, ^ and integer
coefficients; '#' starts a comment.  Errors carry line and column.
A power of a polynomial with two or more terms is expanded only when
it takes at most MAX_POWER_PRODUCTS coefficient products.  A term holds
exponents and total degrees below 2^31, so a power or product that
reaches 2^31 is an error at its exponent or its '*'.
"""

import re
from math import comb

from .errors import InhomogeneousError, ParseError
from .ringcore import (
    DEFAULT_PRIME,
    FreeModuleSpec,
    MatrixOverS,
    Poly,
    Presentation,
    RingSpec,
    Vector,
    checked_dims,
    zero_degree,
)

_TOKEN = re.compile(r"""
    (?P<num>\d+)
  | (?P<name>[A-Za-z][A-Za-z0-9_]*)
  | (?P<op>[-+*^();,\[\]=])
""", re.VERBOSE)


class _Tokens:
    def __init__(self, text):
        self.items = []
        for lineno, line in enumerate(text.splitlines(), start=1):
            body = line.split("#", 1)[0]
            pos = 0
            while pos < len(body):
                ch = body[pos]
                if ch.isspace():
                    pos += 1
                    continue
                m = _TOKEN.match(body, pos)
                if not m:
                    raise ParseError(f"unexpected character {ch!r}",
                                     lineno, pos + 1)
                self.items.append((m.group(0), lineno, pos + 1))
                pos = m.end()
        self.k = 0

    def peek(self):
        return self.items[self.k][0] if self.k < len(self.items) else None

    def next(self):
        if self.k >= len(self.items):
            self.error("unexpected end of input")
        tok = self.items[self.k]
        self.k += 1
        return tok

    def expect(self, text):
        tok, line, col = self.next()
        if tok != text:
            raise ParseError(f"expected {text!r}, found {tok!r}", line, col)
        return tok

    def error(self, message):
        # at the next token, else the last one, else 1, 1 of no input
        _, line, col = (self.items[min(self.k, len(self.items) - 1)]
                        if self.items else (None, 1, 1))
        raise ParseError(message, line, col)


def _int(tok, line, col):
    """A digit token's value; Python refuses over 4,300 digits by default."""
    try:
        return int(tok)
    except ValueError:
        raise ParseError(f"integer of {len(tok)} digits is too long",
                         line, col) from None


def _parse_int(tokens):
    tok, line, col = tokens.next()
    sign = 1
    if tok == "-":
        sign = -1
        tok, line, col = tokens.next()
    if not tok.isdigit():
        raise ParseError(f"expected an integer, found {tok!r}", line, col)
    return sign * _int(tok, line, col)


def _parse_list(tokens, item, brackets=None, sep=","):
    """One or more items separated by ``sep``, optionally enclosed in
    a pair of bracket tokens such as "[]"."""
    if brackets:
        tokens.expect(brackets[0])
    out = [item(tokens)]
    while tokens.peek() == sep:
        tokens.next()
        out.append(item(tokens))
    if brackets:
        tokens.expect(brackets[1])
    return out


# polynomial grammar: expr := term (('+'|'-') term)*;
# term := factor ('*' factor)*; factor := atom ('^' num)?;
# atom := num | var | '(' expr ')' | '-' factor

def _parse_nested_poly(tokens, ring):
    """One polynomial; nesting too deep for the recursion below is a
    ParseError at the token where it stopped."""
    try:
        return _parse_poly(tokens, ring)
    except RecursionError:
        tokens.error("polynomial nested too deeply")


def _parse_poly(tokens, ring):
    f = _parse_term(tokens, ring)
    while tokens.peek() in ("+", "-"):
        op, _, _ = tokens.next()
        g = _parse_term(tokens, ring)
        f = f + g if op == "+" else f - g
    return f


def _parse_term(tokens, ring):
    f = _parse_factor(tokens, ring)
    while tokens.peek() == "*":
        _, line, col = tokens.next()
        g = _parse_factor(tokens, ring)
        try:
            f = f * g
        except ValueError as exc:
            # a product of total degree 2^31 or more, which no term holds
            raise ParseError(str(exc), line, col) from None
    return f


# Coefficient products one power may take at parse time: about 1 s on
# a 2-core Xeon VM, where (x0+x1)^1000 takes 0.42M of them in 0.34 s
# and (x0+x1)^1500 takes 0.91M in 0.8 s.
MAX_POWER_PRODUCTS = 10 ** 6


def _power_products(nterms, e):
    """Coefficient products ``Poly.__pow__`` takes for the e-th power
    of an nterms-term polynomial, each factor at its bound of
    comb(nterms + k - 1, k) terms for its exponent k; the count stops
    once it is past MAX_POWER_PRODUCTS."""
    def size(k):
        return comb(nterms + k - 1, k)
    cost, out, base = 0, 0, 1
    while e and cost <= MAX_POWER_PRODUCTS:
        if e & 1:
            cost += size(out) * size(base)
            out += base
        e >>= 1
        if e:
            cost += size(base) ** 2
            base *= 2
    return cost


def _parse_factor(tokens, ring):
    f = _parse_atom(tokens, ring)
    if tokens.peek() == "^":
        tokens.next()
        e = _parse_int(tokens)
        if e < 0:
            tokens.error("negative exponent")
        _, line, col = tokens.items[tokens.k - 1]
        if len(f.terms) > 1 and \
                _power_products(len(f.terms), e) > MAX_POWER_PRODUCTS:
            raise ParseError(
                f"this power of a {len(f.terms)}-term polynomial takes over "
                f"{MAX_POWER_PRODUCTS:,} coefficient products", line, col)
        try:
            f = f ** e
        except ValueError as exc:
            # a power of total degree 2^31 or more, which no term holds
            raise ParseError(str(exc), line, col) from None
    return f


def _parse_atom(tokens, ring):
    tok, line, col = tokens.next()
    if tok == "-":
        return -_parse_factor(tokens, ring)
    if tok == "(":
        f = _parse_poly(tokens, ring)
        tokens.expect(")")
        return f
    if tok.isdigit():
        return Poly.constant(ring, _int(tok, line, col))
    idx = ring.var_by_name(tok)
    if idx is None:
        raise ParseError(f"unknown variable {tok!r}", line, col)
    return Poly.variable(ring, idx)


def poly_from_string(ring, text):
    """Parse one polynomial over the ring."""
    tokens = _Tokens(text)
    f = _parse_nested_poly(tokens, ring)
    if tokens.peek() is not None:
        tokens.error("trailing input after polynomial")
    return f


class JobSpec:
    """Parsed input: the ring, and either an ideal (list of
    polynomials) or a presented module."""

    __slots__ = ("ring", "kind", "ideal_gens", "presentation")

    def __init__(self, ring, kind, ideal_gens=None, presentation=None):
        self.ring = ring
        self.kind = kind
        self.ideal_gens = ideal_gens
        self.presentation = presentation

    def module(self):
        """The presentation this job denotes (S/I for ideals)."""
        if self.kind == "ideal":
            return Presentation.quotient_by_ideal(self.ring, self.ideal_gens)
        return self.presentation


def parse_input(text, prime_override=None):
    """Parse a full job description; homogeneity of every entry is
    checked, and all errors carry positions."""
    tokens = _Tokens(text)
    tok, line, col = tokens.next()
    if tok != "ring":
        raise ParseError("input must start with a 'ring' line", line, col)
    # each key's value and the (line, col) of the key, for its errors
    keys = {}
    while tokens.peek() in ("p", "n"):
        what, line, col = tokens.next()
        if what in keys:
            raise ParseError(f"ring key {what}= given twice", line, col)
        tokens.expect("=")
        value = _parse_int(tokens) if what == "p" else \
            _parse_list(tokens, _parse_int, "[]")
        keys[what] = (value, (line, col))
    if "n" not in keys:
        tokens.error("ring line needs n=[...]")
    n, n_at = keys["n"]
    # an overriding prime is not in the text, so its errors have no
    # position
    p, p_at = (keys.get("p", (DEFAULT_PRIME, ())) if prime_override is None
               else (prime_override, ()))
    try:
        n = checked_dims(n)
    except ValueError as exc:
        raise ParseError(str(exc), *n_at) from exc
    try:
        ring = RingSpec(n, p)
    except ValueError as exc:
        # n is checked above, so the ring rejects the characteristic
        raise ParseError(str(exc), *p_at) from exc
    tok, line, col = tokens.next()

    def poly(tk):
        return _parse_nested_poly(tk, ring)

    if tok == "ideal":
        gens = _parse_list(tokens, poly, sep=";")
        if tokens.peek() is not None:
            tokens.error("trailing input after ideal")
        for g in gens:
            try:
                g.degree()
            except InhomogeneousError:
                raise ParseError("inhomogeneous ideal generator "
                                 f"{g}", line, col) from None
        return JobSpec(ring, "ideal", ideal_gens=gens)
    if tok == "module":
        tok2, line2, col2 = tokens.next()
        if tok2 != "rows":
            raise ParseError("module needs rows=[(..),..]", line2, col2)
        tokens.expect("=")
        rows = _parse_list(
            tokens, lambda tk: tuple(_parse_list(tk, _parse_int, "()")),
            "[]")
        try:
            F0 = FreeModuleSpec(ring, rows)
        except ValueError as exc:
            tokens.error(f"row degrees: {exc}")
        tok3, line3, col3 = tokens.next()
        if tok3 != "matrix":
            raise ParseError("module needs matrix [[..],..]", line3, col3)
        entries = _parse_list(tokens, lambda tk: _parse_list(tk, poly, "[]"),
                              "[]")
        if tokens.peek() is not None:
            tokens.error("trailing input after matrix")
        if len(entries) != len(rows):
            tokens.error(f"matrix has {len(entries)} rows, expected "
                         f"{len(rows)}")
        ncols = len(entries[0])
        for row in entries:
            if len(row) != ncols:
                tokens.error("ragged matrix")
        cols = [Vector.from_components([row[l] for row in entries])
                for l in range(ncols)]
        col_degs = []
        for l, v in enumerate(cols):
            try:
                deg = v.degree(F0)
            except InhomogeneousError as exc:
                raise ParseError(f"matrix column {l + 1}: {exc}",
                                 line3, col3) from None
            # a zero column has no degree; any twist presents the module
            col_degs.append(zero_degree(ring.r) if deg is None else deg)
        rel = MatrixOverS(FreeModuleSpec(ring, col_degs), F0, cols,
                          check=False)
        return JobSpec(ring, "module",
                       presentation=Presentation(F0, rel))
    raise ParseError(f"expected 'ideal' or 'module', found {tok!r}",
                     line, col)
