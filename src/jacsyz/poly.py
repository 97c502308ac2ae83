"""Homogeneous ternary forms with exact coefficients.

The term order is graded lexicographic with x > y > z, fixed globally, so
printed certificates are byte-stable.

Every product, and every sum of products u_1*v_1 + ... + u_n*v_n, is one
``dot``.  A sparse product, whose grid (below) would hold more than
``_SPARSE_RATIO`` cells per term pair, such as x^2000 * y, is formed pair
by pair (``_dot_terms``): its cost follows its terms, not the degree.  For
the others the field picks the arithmetic.  Over GF(p), p < 2^31, it is
one int64 numpy pass (``_dot_int64``) on the (j, k) grid of exponents of y
and z: all term pairs at once, each product of two residues (below 2^62)
reduced below p, one scatter-add into the grid, one final ``% p``.  A grid
cell receives fewer than 2^31 reduced terms, so every sum stays below 2^62
and the pass is exact.  Over Q each product clears denominators and
multiplies Python ints (``_mul_rational``).  A polynomial computes its
gradient once and keeps it; nothing changes ``coeffs`` after construction.
The one product outside ``dot`` is ``restrict_binary`` (for ``is_reduced``),
which multiplies binary forms term by term: over GF(1000003) at degree 12,
``substitute`` took 1.04 against 0.18 ms on a sparse form and ``UniPoly``
2.70 against 1.63 ms on a dense one.

The product that ``LineArrangement.f`` returns also records its arrangement
(``_arrangement``), so that ``classify`` can take the paper's route for it.
Every other polynomial, including one derived from that product by
arithmetic, ``map_field``, ``scale`` or parsing, has ``_arrangement`` None;
equality and hashing ignore it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm

import numpy as np

from .fields import Field, QQ
from .uni import UniPoly

__all__ = [
    "HomogPoly",
    "HomogeneityError",
    "ParseError",
    "poly_parse",
    "homog_gcd",
    "monomials",
    "monomial_count",
    "dot",
]

VARS = ("x", "y", "z")

# Term pairs ``_dot_int64`` holds at a time; bounds its temporaries.
_PAIR_CHUNK = 1 << 14
_SPARSE_RATIO = 8  # grid cells per term pair above which ``dot`` is sparse


class HomogeneityError(ValueError):
    """Input mixes two total degrees."""

    def __init__(self, deg_a: int, deg_b: int):
        self.degrees = (deg_a, deg_b)
        super().__init__(f"non-homogeneous input: degrees {deg_a} and {deg_b}")


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"{message} (at position {position})")


def monomial_count(degree: int) -> int:
    """dim of the degree-r piece of k[x,y,z]: (r+1)(r+2)/2."""
    if degree < 0:
        return 0
    return (degree + 1) * (degree + 2) // 2


@lru_cache(maxsize=None)
def monomials(degree: int) -> tuple[tuple[int, int, int], ...]:
    """Exponent triples of total degree ``degree`` in graded-lex order (x>y>z)."""
    out = []
    for i in range(degree, -1, -1):
        for j in range(degree - i, -1, -1):
            out.append((i, j, degree - i - j))
    return tuple(out)


@lru_cache(maxsize=None)
def monomial_index(degree: int) -> dict:
    return {m: i for i, m in enumerate(monomials(degree))}


class HomogPoly:
    """Homogeneous polynomial in x, y, z: table from exponent triples to
    nonzero scalars.  The zero polynomial has empty table and degree -1."""

    __slots__ = ("field", "degree", "coeffs", "_gradient", "_arrangement")

    def __init__(self, field: Field, degree: int, coeffs: dict):
        clean = {}
        for exp, c in coeffs.items():
            c = field.coerce(c)
            if field.is_zero(c):
                continue
            if sum(exp) != degree:
                raise HomogeneityError(degree, sum(exp))
            clean[tuple(exp)] = c
        if not clean:
            degree = -1
        self.field = field
        self.degree = degree
        self.coeffs = clean
        self._gradient = None
        self._arrangement = None

    @classmethod
    def _trusted(cls, field: Field, degree: int, coeffs: dict):
        """A polynomial from a table that is already clean: nonzero scalars
        of ``field`` at exponent tuples of total degree ``degree``."""
        self = object.__new__(cls)
        self.field = field
        self.degree = degree if coeffs else -1
        self.coeffs = coeffs
        self._gradient = None
        self._arrangement = None
        return self

    # -- constructors -------------------------------------------------
    @classmethod
    def zero(cls, field):
        return cls(field, -1, {})

    @classmethod
    def constant(cls, field, c):
        return cls(field, 0, {(0, 0, 0): c})

    @classmethod
    def variable(cls, field, var):
        i = VARS.index(var) if isinstance(var, str) else var
        exp = [0, 0, 0]
        exp[i] = 1
        return cls(field, 1, {tuple(exp): field.one()})

    @classmethod
    def linear(cls, field, covector):
        """a*x + b*y + c*z from a length-3 covector."""
        a, b, c = covector
        return cls(field, 1, {(1, 0, 0): a, (0, 1, 0): b, (0, 0, 1): c})

    # -- queries ------------------------------------------------------
    def is_zero(self):
        return not self.coeffs

    def __eq__(self, other):
        return (isinstance(other, HomogPoly) and self.field == other.field
                and self.degree == other.degree and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.field, self.degree, frozenset(self.coeffs.items())))

    def leading_term(self):
        """(exponent, coefficient) maximal in graded-lex order."""
        if self.is_zero():
            raise ValueError("zero polynomial has no leading term")
        exp = max(self.coeffs)
        return exp, self.coeffs[exp]

    # -- arithmetic ---------------------------------------------------
    def _check_field(self, other):
        if self.field != other.field:
            raise ValueError(
                f"field backend mismatch: {self.field} vs {other.field}")

    def __add__(self, other):
        self._check_field(other)
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.degree != other.degree:
            raise HomogeneityError(self.degree, other.degree)
        F = self.field
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            s = F.add(out.get(e, F.zero()), c)
            if F.is_zero(s):
                out.pop(e, None)
            else:
                out[e] = s
        return HomogPoly._trusted(F, self.degree, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        F = self.field
        return HomogPoly(F, self.degree, {e: F.neg(c) for e, c in self.coeffs.items()})

    def __mul__(self, other):
        return dot((self,), (other,))

    def scale(self, c):
        F = self.field
        c = F.coerce(c)
        if F.is_zero(c) or self.is_zero():
            return HomogPoly.zero(F)
        return HomogPoly(F, self.degree, {e: F.mul(c, v) for e, v in self.coeffs.items()})

    def __pow__(self, n: int):
        out = HomogPoly.constant(self.field, 1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def diff(self, var):
        """Partial derivative with respect to x, y or z."""
        i = VARS.index(var) if isinstance(var, str) else var
        p = self.field.char
        out: dict = {}
        for e, c in self.coeffs.items():
            k = e[i]
            if k == 0:
                continue
            v = k * c % p if p else k * c
            if v:
                ne = list(e)
                ne[i] = k - 1
                out[tuple(ne)] = v
        return HomogPoly._trusted(self.field, self.degree - 1, out)

    def gradient(self):
        """(p_x, p_y, p_z), computed on the first call and kept."""
        if self._gradient is None:
            self._gradient = (self.diff(0), self.diff(1), self.diff(2))
        return self._gradient

    def evaluate(self, point):
        F = self.field
        pt = [F.coerce(v) for v in point]
        acc = F.zero()
        for exp, c in self.coeffs.items():
            t = c
            for v, n in zip(pt, exp):
                for _ in range(n):
                    t = F.mul(t, v)
            acc = F.add(acc, t)
        return acc

    def substitute(self, matrix):
        """p(M x) for a 3x3 matrix M: each variable is replaced by the
        corresponding row's linear form."""
        F = self.field
        if self.is_zero():
            return self
        rows = [HomogPoly.linear(F, [F.coerce(v) for v in row]) for row in matrix]
        # cache powers of the three linear forms
        max_e = [max(e[i] for e in self.coeffs) for i in range(3)]
        powers = [[HomogPoly.constant(F, 1)] for _ in range(3)]
        for i in range(3):
            for _ in range(max_e[i]):
                powers[i].append(powers[i][-1] * rows[i])
        # the sum over the terms c x^i y^j z^k of (L_0^i L_1^j) * (c L_2^k)
        terms = self.coeffs.items()
        return dot([powers[0][i] * powers[1][j] for (i, j, _), _ in terms],
                   [powers[2][k].scale(c) for (_, _, k), c in terms])

    def restrict_binary(self, pa, pb):
        """Coefficients [c_0..c_d] of p(s*A + r*B) with c_m the coefficient
        of s^m r^(d-m); the restriction of the form to the line through A, B.
        Its binary product is the one product outside ``dot``."""
        F = self.field
        d = self.degree
        if d < 0:
            return []
        pa = [F.coerce(v) for v in pa]
        pb = [F.coerce(v) for v in pb]

        def bin_mul(u, v):
            out = [F.zero()] * (len(u) + len(v) - 1)
            for i, a in enumerate(u):
                for j, b in enumerate(v):
                    out[i + j] = F.add(out[i + j], F.mul(a, b))
            return out

        lin = [[pb[i], pa[i]] for i in range(3)]  # r*B_i + s*A_i, index = s-degree
        # powers cache
        max_e = [max(e[i] for e in self.coeffs) for i in range(3)]
        pows = [[[F.one()]] for _ in range(3)]
        for i in range(3):
            for _ in range(max_e[i]):
                pows[i].append(bin_mul(pows[i][-1], lin[i]))
        total = [F.zero()] * (d + 1)
        for (i, j, k), c in self.coeffs.items():
            term = bin_mul(bin_mul(pows[0][i], pows[1][j]), pows[2][k])
            for m, v in enumerate(term):
                total[m] = F.add(total[m], F.mul(c, v))
        return total

    def restrict_to_line(self, pa, pb) -> UniPoly:
        """Dehomogenized restriction: p(A + t*B) as a univariate polynomial."""
        cs = self.restrict_binary(pb, pa)  # s-degree = multiplicity of B
        return UniPoly(self.field, cs)

    def euler_combination(self):
        """x*p_x + y*p_y + z*p_z (equals deg * p in good characteristic)."""
        return dot([HomogPoly.variable(self.field, i) for i in range(3)],
                   self.gradient())

    def map_field(self, new_field: Field):
        """Reinterpret the coefficients in another exact backend.  From Q to
        GF(p) one inverse serves every coefficient: c = n / q maps to
        n * ((L / q) / L mod p), one residue per distinct denominator q,
        with L the lcm of the denominators; unless p | L, which the
        coefficient-wise coercion refuses with FieldError."""
        p = new_field.char
        if self.field == QQ and p:
            dens = {c.denominator for c in self.coeffs.values()}
            L = lcm(*dens)
            if L % p:
                inv = pow(L, -1, p)
                scale = {q: L // q * inv % p for q in dens}
                out = {}
                for e, c in self.coeffs.items():
                    v = c.numerator * scale[c.denominator] % p
                    if v:
                        out[e] = v
                return HomogPoly._trusted(new_field, self.degree, out)
        return HomogPoly(new_field, self.degree, self.coeffs)

    def normalized(self):
        """Scale so the graded-lex leading coefficient is 1."""
        if self.is_zero():
            return self
        _, lc = self.leading_term()
        return self.scale(self.field.inv(lc))

    def exact_div(self, g: "HomogPoly"):
        """Exact quotient self / g, or None if g does not divide self."""
        F = self.field
        if g.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return HomogPoly.zero(F)
        if g.degree > self.degree:
            return None
        rem = dict(self.coeffs)
        gle, glc = g.leading_term()
        glc_inv = F.inv(glc)
        quot: dict = {}
        while rem:
            e = max(rem)
            c = rem[e]
            qe = (e[0] - gle[0], e[1] - gle[1], e[2] - gle[2])
            if min(qe) < 0:
                return None
            qc = F.mul(c, glc_inv)
            quot[qe] = qc
            for ge, gc in g.coeffs.items():
                te = (qe[0] + ge[0], qe[1] + ge[1], qe[2] + ge[2])
                v = F.sub(rem.get(te, F.zero()), F.mul(qc, gc))
                if F.is_zero(v):
                    rem.pop(te, None)
                else:
                    rem[te] = v
        return HomogPoly(F, self.degree - g.degree, quot)

    def divides(self, other: "HomogPoly") -> bool:
        if self.is_zero():
            return other.is_zero()
        if other.is_zero():
            return True
        return other.exact_div(self) is not None

    # -- text ---------------------------------------------------------
    def to_str(self) -> str:
        if self.is_zero():
            return "0"
        F = self.field
        parts = []
        for exp in sorted(self.coeffs, reverse=True):
            c = self.coeffs[exp]
            factors = []
            for v, e in zip(VARS, exp):
                if e == 1:
                    factors.append(v)
                elif e > 1:
                    factors.append(f"{v}^{e}")
            cs = F.scalar_str(c)
            neg = cs.startswith("-")
            if neg:
                cs = cs[1:]
            if not factors:
                body = cs
            elif cs == "1":
                body = "*".join(factors)
            else:
                body = cs + "*" + "*".join(factors)
            if not parts:
                parts.append(("-" if neg else "") + body)
            else:
                parts.append(("- " if neg else "+ ") + body)
        return " ".join(parts)

    def __repr__(self):
        return f"HomogPoly({self.field}, {self.to_str()})"


def _mul_rational(a: HomogPoly, b: HomogPoly) -> HomogPoly:
    """Product of two nonzero forms over Q in Python ints: each factor
    times the lcm of its denominators, every pair of terms, then one
    Fraction per output term.  The keys are the cached ``monomials``
    tuples, shared by every product of that degree rather than one new
    tuple per term of each kept product (such as ``LineArrangement.f``)."""
    da = lcm(*(c.denominator for c in a.coeffs.values()))
    db = lcm(*(c.denominator for c in b.coeffs.values()))
    nb = [(e, c.numerator * (db // c.denominator))
          for e, c in b.coeffs.items()]
    out: dict = {}
    for (x1, y1, z1), c1 in a.coeffs.items():
        c1 = c1.numerator * (da // c1.denominator)
        for (x2, y2, z2), c2 in nb:
            e = (x1 + x2, y1 + y2, z1 + z2)
            out[e] = out.get(e, 0) + c1 * c2
    den = da * db
    degree = a.degree + b.degree
    mons, index = monomials(degree), monomial_index(degree)
    return HomogPoly._trusted(a.field, degree, {
        mons[index[e]]: Fraction(v, den) for e, v in out.items() if v})


def dot(us, vs) -> HomogPoly:
    """u_1*v_1 + ... + u_n*v_n for forms over one field, whose nonzero
    products all have one degree (HomogeneityError otherwise): the int64
    grid over GF(p), ``_mul_rational`` per pair and their sum over Q, or
    ``_dot_terms`` for a sparse product."""
    F = us[0].field
    pairs = []
    for u, v in zip(us, vs, strict=True):
        us[0]._check_field(u)
        u._check_field(v)
        if not (u.is_zero() or v.is_zero()):
            pairs.append((u, v))
    if not pairs:
        return HomogPoly.zero(F)
    D, *other = {u.degree + v.degree for u, v in pairs}
    if other:
        raise HomogeneityError(D, other[0])
    if (sum(len(u.coeffs) * len(v.coeffs) for u, v in pairs)
            * _SPARSE_RATIO < (D + 1) ** 2):
        return _dot_terms(F, D, pairs)
    if F.char:
        return _dot_int64(F, D, pairs)
    return sum((_mul_rational(u, v) for u, v in pairs), HomogPoly.zero(F))


def _dot_int64(F: Field, D: int, pairs) -> HomogPoly:
    """``dot`` over GF(p) on the (j, k) exponent grid of degree D: y^j z^k
    sits in cell j(D+1) + k, so the cell of a product of terms is the sum
    of their cells.  The term pairs of all factor pairs are formed at once
    as outer products, each product reduced below p, and added into their
    cells by one ``np.add.at``, in blocks of at most ``_PAIR_CHUNK`` pairs
    (or one row of a factor pair, if that is more); one ``% p`` at the
    end."""
    p, n = F.p, D + 1
    grid = np.zeros(n * n, dtype=np.int64)
    cells, values, held = [], [], 0
    for u, v in pairs:
        (ui, uc), (vi, vc) = _cells(u, n), _cells(v, n)
        step = max(1, _PAIR_CHUNK // vc.size)
        for lo in range(0, uc.size, step):
            rows = slice(lo, lo + step)
            size = min(step, uc.size - lo) * vc.size
            if cells and held + size > _PAIR_CHUNK:
                np.add.at(grid, np.concatenate(cells), np.concatenate(values))
                cells, values, held = [], [], 0
            cells.append((ui[rows, None] + vi).ravel())
            values.append((uc[rows, None] * vc % p).ravel())
            held += size
    np.add.at(grid, np.concatenate(cells), np.concatenate(values))
    grid %= p
    nonzero = np.flatnonzero(grid)
    j, k = np.divmod(nonzero, n)
    s = j + k
    mons = monomials(D)
    return HomogPoly._trusted(F, D, {
        mons[i]: c for i, c in zip((s * (s + 1) // 2 + k).tolist(),
                                   grid[nonzero].tolist())})


def _dot_terms(F: Field, D: int, pairs) -> HomogPoly:
    """``dot`` term pair by term pair, keyed by new exponent tuples rather
    than grid cells or ``monomials(D)``: for a sparse product."""
    out = {}
    for u, v in pairs:
        for (x1, y1, z1), c1 in u.coeffs.items():
            for (x2, y2, z2), c2 in v.coeffs.items():
                e = (x1 + x2, y1 + y2, z1 + z2)
                out[e] = out.get(e, 0) + c1 * c2
    if F.char:
        out = {e: c % F.char for e, c in out.items()}
    return HomogPoly._trusted(F, D, {e: c for e, c in out.items() if c})


def _cells(u: HomogPoly, n: int):
    """Grid cells j*n + k and coefficients of u's terms, as int64 arrays."""
    return (np.array([j * n + k for _, j, k in u.coeffs], dtype=np.int64),
            np.array(list(u.coeffs.values()), dtype=np.int64))


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

class _Parser:
    """Recursive-descent parser for the polynomial text grammar: terms joined
    by +/-, factors var^exp joined by '*', rational literals, parentheses.

    Each production returns a table degree -> nonzero ``HomogPoly`` (an
    intermediate may mix degrees; homogeneity is checked at the top), so
    that a product is one ``dot`` per output degree."""

    def __init__(self, text: str, field: Field):
        self.text = text
        self.field = field
        self.pos = 0

    def error(self, msg):
        raise ParseError(msg, self.pos)

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def parse(self):
        terms = self.expression()
        self.skip_ws()
        if self.pos != len(self.text):
            self.error(f"unexpected character {self.text[self.pos]!r}")
        return terms

    def expression(self):
        ch = self.peek()
        if ch in ("+", "-", "−"):
            self.pos += 1
        acc = self.term()
        if ch in ("-", "−"):
            acc = _negated(acc)
        while True:
            ch = self.peek()
            if ch in ("+", "-", "−"):
                self.pos += 1
                t = self.term()
                acc = _sum(acc, t if ch == "+" else _negated(t))
            else:
                return acc

    def term(self):
        acc = self.factor()
        while True:
            ch = self.peek()
            if ch == "*":
                self.pos += 1
                acc = _product(acc, self.factor())
            elif ch == "(" or ch.isalpha():
                # implicit multiplication: "3x", ")(", "x y"
                acc = _product(acc, self.factor())
            else:
                return acc

    def factor(self):
        base = self.primary()
        while self.peek() == "^":
            self.pos += 1
            e = self.integer()
            out = None if e else _table(HomogPoly.constant(self.field, 1))
            while e:
                if e & 1:
                    out = base if out is None else _product(out, base)
                e >>= 1
                if e:
                    base = _product(base, base)
            base = out
        return base

    def primary(self):
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            inner = self.expression()
            if self.peek() != ")":
                self.error("expected ')'")
            self.pos += 1
            return inner
        if ch in VARS:
            self.pos += 1
            return _table(HomogPoly.variable(self.field, ch))
        if ch.isdecimal():
            num = self.integer()
            if self.peek() == "/":
                self.pos += 1
                den = self.integer()
                if den == 0:
                    self.error("zero denominator")
                c = self.field.coerce(Fraction(num, den))
            else:
                c = self.field.coerce(num)
            return _table(HomogPoly.constant(self.field, c))
        if ch == "":
            self.error("unexpected end of input")
        self.error(f"unexpected character {ch!r}")

    def integer(self):
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdecimal():
            self.pos += 1
        if start == self.pos:
            self.error("expected an integer")
        return int(self.text[start:self.pos])


def _table(q: HomogPoly) -> dict:
    """q as a parser table: {degree: q}, or {} when q is zero."""
    return {} if q.is_zero() else {q.degree: q}


def _sum(a: dict, b: dict) -> dict:
    out = dict(a)
    for degree, q in b.items():
        s = out.pop(degree, None)
        out.update(_table(q if s is None else s + q))
    return out


def _negated(a: dict) -> dict:
    return {degree: -q for degree, q in a.items()}


def _product(a: dict, b: dict) -> dict:
    """a * b: one ``dot`` per output degree."""
    out = {}
    for D in {i + j for i in a for j in b}:
        us, vs = zip(*[(u, b[D - i]) for i, u in a.items() if D - i in b])
        out.update(_table(dot(us, vs)))
    return out


def poly_parse(text: str, field: Field = QQ) -> HomogPoly:
    """Parse a polynomial expression in x, y, z; must expand homogeneous."""
    table = _Parser(text, field).parse()
    degrees = sorted(table)
    if len(degrees) > 1:
        raise HomogeneityError(degrees[-1], degrees[-2])
    return table[degrees[0]] if degrees else HomogPoly.zero(field)


# ---------------------------------------------------------------------------
# gcd of homogeneous forms
# ---------------------------------------------------------------------------

def _ord_var(p: HomogPoly, i: int) -> int:
    return min(e[i] for e in p.coeffs)


def _bi_from(p: HomogPoly):
    """Dehomogenize at z=1 and view as a polynomial in x with UniPoly(y)
    coefficients."""
    F = p.field
    dx = max(e[0] for e in p.coeffs)
    cols: list[dict] = [dict() for _ in range(dx + 1)]
    for (i, j, _k), c in p.coeffs.items():
        cols[i][j] = F.add(cols[i].get(j, F.zero()), c)
    out = []
    for tab in cols:
        dy = max(tab) if tab else -1
        out.append(UniPoly(F, [tab.get(j, F.zero()) for j in range(dy + 1)]))
    while out and out[-1].is_zero():
        out.pop()
    return out


def _bi_degree(a):
    return len(a) - 1


def _bi_is_zero(a):
    return not a


def _bi_trim(a):
    while a and a[-1].is_zero():
        a.pop()
    return a


def _bi_content(a, F):
    g = UniPoly.zero(F)
    for c in a:
        g = g.gcd(c) if not g.is_zero() else c
        if g.degree == 0:
            break
    return g.monic() if not g.is_zero() else g


def _bi_prim(a, F):
    cont = _bi_content(a, F)
    if cont.is_zero() or cont.degree == 0:
        return list(a)
    return [c.exact_div(cont) for c in a]


def _bi_scale(a, u: UniPoly):
    return _bi_trim([c * u for c in a])


def _bi_sub(a, b, F):
    n = max(len(a), len(b))
    za = a + [UniPoly.zero(F)] * (n - len(a))
    zb = b + [UniPoly.zero(F)] * (n - len(b))
    return _bi_trim([za[i] - zb[i] for i in range(n)])


def _bi_prem(a, b, F):
    """Pseudo-remainder of a by b (both poly-in-x over F[y])."""
    r = list(a)
    db = _bi_degree(b)
    lb = b[-1]
    e = _bi_degree(a) - db + 1
    while not _bi_is_zero(r) and _bi_degree(r) >= db:
        lr = r[-1]
        dr = _bi_degree(r)
        shifted = [UniPoly.zero(F)] * (dr - db) + [c * lr for c in b]
        r = _bi_sub(_bi_scale(r, lb), shifted, F)
        e -= 1
    for _ in range(max(e, 0)):
        r = _bi_scale(r, lb)
    return r


def _bi_gcd(a, b, F):
    if _bi_is_zero(a):
        return list(b)
    if _bi_is_zero(b):
        return list(a)
    ca, cb = _bi_content(a, F), _bi_content(b, F)
    cont = ca.gcd(cb)
    A, B = _bi_prim(a, F), _bi_prim(b, F)
    if _bi_degree(A) < _bi_degree(B):
        A, B = B, A
    while not _bi_is_zero(B):
        R = _bi_prem(A, B, F)
        A, B = B, _bi_prim(R, F)
    if cont.is_zero() or cont.degree == 0:
        return A
    return [c * cont for c in A]


def _bi_to_homog(a, F) -> HomogPoly:
    """Homogenize a bivariate poly-in-x-over-F[y] with z to its total degree."""
    terms = {}
    total = -1
    for i, c in enumerate(a):
        for j in range(c.degree + 1):
            if not F.is_zero(c[j]):
                total = max(total, i + j)
    for i, c in enumerate(a):
        for j in range(c.degree + 1):
            v = c[j]
            if not F.is_zero(v):
                terms[(i, j, total - i - j)] = v
    return HomogPoly(F, total, terms) if terms else HomogPoly.zero(F)


def homog_gcd(p: HomogPoly, q: HomogPoly) -> HomogPoly:
    """Homogeneous gcd, monic under graded-lex; divides both inputs exactly."""
    F = p.field
    if p.is_zero() and q.is_zero():
        raise ValueError("gcd of two zero polynomials")
    if p.is_zero():
        return q.normalized()
    if q.is_zero():
        return p.normalized()
    # strip the common z-power, detected by divisibility
    cz = min(_ord_var(p, 2), _ord_var(q, 2))
    zc = HomogPoly(F, 1, {(0, 0, 1): F.one()}) ** cz if cz else None
    ps = _strip_z(p, _ord_var(p, 2))
    qs = _strip_z(q, _ord_var(q, 2))
    g = _bi_to_homog(_bi_gcd(_bi_from(ps), _bi_from(qs), F), F)
    if zc is not None:
        g = g * zc
    g = g.normalized()
    assert g.divides(p) and g.divides(q)
    return g


def _strip_z(p: HomogPoly, c: int) -> HomogPoly:
    if c == 0:
        return p
    F = p.field
    return HomogPoly(F, p.degree - c,
                     {(i, j, k - c): v for (i, j, k), v in p.coeffs.items()})


# Lines (two points each) tried as reducedness witnesses; coordinates away
# from the small integers that arrangements and apexes usually have.
_WITNESS_LINES = (((2, 19, 37), (23, 5, 41)),
                  ((29, 13, 3), (11, 31, 17)),
                  ((43, 7, 19), (3, 47, 29)))


def is_reduced(f: HomogPoly) -> bool:
    """Squarefree test.  A witness line on which f restricts to a squarefree
    binary form of full degree proves f reduced (a square factor g^2 would
    restrict to a square factor of positive degree); only when none of the
    witness lines does, the gcds with the partial derivatives decide."""
    if f.is_zero() or f.degree <= 0:
        return False
    for pa, pb in _WITNESS_LINES:
        u = f.restrict_to_line(pa, pb)
        if u.degree == f.degree and u.gcd(u.derivative()).degree == 0:
            return True
    g = None
    for fi in f.gradient():
        if fi.is_zero():
            continue
        gi = homog_gcd(f, fi)
        g = gi if g is None else homog_gcd(g, gi)
        if g.degree == 0:
            return True
    if g is None:
        # all partials vanish: only possible in bad characteristic
        return False
    return g.degree == 0
