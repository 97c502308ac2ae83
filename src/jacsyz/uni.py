"""Dense univariate polynomials over an exact field.

Used for restrictions of ternary forms to lines, dehomogenized discriminants,
interpolation, squarefree decomposition and resultants.
"""

from __future__ import annotations

from .fields import Field, PrimeField

__all__ = ["UniPoly", "uni_interpolate", "uni_squarefree"]


class UniPoly:
    """Coefficient list ``c[0] + c[1] t + ...``; leading coefficient nonzero."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs):
        self.field = field
        cs = [field.coerce(c) for c in coeffs]
        while cs and field.is_zero(cs[-1]):
            cs.pop()
        self.coeffs = cs

    # -- constructors -------------------------------------------------
    @classmethod
    def zero(cls, field):
        return cls(field, [])

    @classmethod
    def one(cls, field):
        return cls(field, [field.one()])

    @classmethod
    def x(cls, field):
        return cls(field, [field.zero(), field.one()])

    @classmethod
    def constant(cls, field, c):
        return cls(field, [field.coerce(c)])

    # -- basic queries ------------------------------------------------
    @property
    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def lc(self):
        if self.is_zero():
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __getitem__(self, i):
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return self.field.zero()

    def __eq__(self, other):
        return (isinstance(other, UniPoly) and self.field == other.field
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.field, tuple(self.coeffs)))

    # -- arithmetic ---------------------------------------------------
    def __add__(self, other):
        F = self.field
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly(F, [F.add(self[i], other[i]) for i in range(n)])

    def __sub__(self, other):
        F = self.field
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly(F, [F.sub(self[i], other[i]) for i in range(n)])

    def __neg__(self):
        F = self.field
        return UniPoly(F, [F.neg(c) for c in self.coeffs])

    def __mul__(self, other):
        F = self.field
        if self.is_zero() or other.is_zero():
            return UniPoly.zero(F)
        out = [F.zero()] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if F.is_zero(a):
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = F.add(out[i + j], F.mul(a, b))
        return UniPoly(F, out)

    def scale(self, c):
        F = self.field
        c = F.coerce(c)
        return UniPoly(F, [F.mul(c, a) for a in self.coeffs])

    def divmod(self, other):
        F = self.field
        if other.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        r = list(self.coeffs)
        d = other.degree
        inv_lc = F.inv(other.lc())
        q = [F.zero()] * max(0, len(r) - d)
        for i in range(len(r) - 1 - d, -1, -1):
            c = F.mul(r[i + d], inv_lc)
            if F.is_zero(c):
                continue
            q[i] = c
            for j, b in enumerate(other.coeffs):
                r[i + j] = F.sub(r[i + j], F.mul(c, b))
        return UniPoly(F, q), UniPoly(F, r)

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def __mod__(self, other):
        return self.divmod(other)[1]

    def exact_div(self, other):
        q, r = self.divmod(other)
        if not r.is_zero():
            raise ValueError("inexact univariate division")
        return q

    def monic(self):
        if self.is_zero():
            return self
        return self.scale(self.field.inv(self.lc()))

    def derivative(self):
        F = self.field
        return UniPoly(F, [F.mul(F.coerce(i), c)
                           for i, c in enumerate(self.coeffs)][1:])

    def __call__(self, x):
        F = self.field
        x = F.coerce(x)
        acc = F.zero()
        for c in reversed(self.coeffs):
            acc = F.add(F.mul(acc, x), c)
        return acc

    def pow_mod(self, e: int, mod: "UniPoly") -> "UniPoly":
        result = UniPoly.one(self.field)
        base = self % mod
        while e:
            if e & 1:
                result = (result * base) % mod
            base = (base * base) % mod
            e >>= 1
        return result

    def gcd(self, other):
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        if a.is_zero():
            return a
        return a.monic()

    def resultant(self, other):
        """Resultant of self and other, exact over the field."""
        F = self.field
        f, g = self, other
        if f.is_zero() or g.is_zero():
            return F.zero()
        sign = F.one()
        res = F.one()
        while True:
            if g.degree == 0:
                return F.mul(sign, F.mul(res, _pow_scalar(F, g.lc(), f.degree)))
            if f.degree < g.degree:
                if (f.degree * g.degree) % 2 == 1:
                    sign = F.neg(sign)
                f, g = g, f
                continue
            r = f % g
            if r.is_zero():
                return F.zero()
            res = F.mul(res, _pow_scalar(F, g.lc(), f.degree - r.degree))
            if (f.degree * g.degree) % 2 == 1:
                sign = F.neg(sign)
            f, g = g, r

    def __repr__(self):
        if self.is_zero():
            return "UniPoly(0)"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self[i]
            if self.field.is_zero(c):
                continue
            cs = self.field.scalar_str(c)
            if i == 0:
                parts.append(cs)
            elif i == 1:
                parts.append(f"{cs}*t" if cs != "1" else "t")
            else:
                parts.append(f"{cs}*t^{i}" if cs != "1" else f"t^{i}")
        return "UniPoly(" + " + ".join(parts) + ")"

    # -- root finding over GF(p) --------------------------------------
    def roots_gfp(self, rng=None):
        """Roots in GF(p) of a squarefree polynomial, via equal-degree splitting."""
        F = self.field
        if not isinstance(F, PrimeField):
            raise ValueError("roots_gfp requires a prime field")
        if self.is_zero():
            raise ValueError("zero polynomial")
        import random
        rng = rng or random.Random(0)
        p = F.p
        f = self.monic()
        # restrict to the product of linear factors: gcd(t^p - t, f)
        tp = UniPoly.x(F).pow_mod(p, f)
        lin = (tp - UniPoly.x(F)).gcd(f)
        roots = []

        def split(g):
            if g.degree == 0:
                return
            if g.degree == 1:
                roots.append(F.neg(g[0]))
                return
            while True:
                c = rng.randrange(p)
                probe = UniPoly(F, [c, F.one()]).pow_mod((p - 1) // 2, g)
                h = (probe - UniPoly.one(F)).gcd(g)
                if 0 < h.degree < g.degree:
                    split(h)
                    split(g.exact_div(h))
                    return

        split(lin)
        roots.sort()
        return roots


def _pow_scalar(F, a, e):
    out = F.one()
    for _ in range(e):
        out = F.mul(out, a)
    return out


def uni_interpolate(field: Field, points) -> UniPoly:
    """Exact interpolation through ``points`` [(x, y), ...] (Newton form)."""
    pts = [(field.coerce(x), field.coerce(y)) for x, y in points]
    xs = [x for x, _ in pts]
    if len(set(xs)) != len(xs):
        raise ValueError("repeated abscissa in interpolation data")
    # Newton divided differences
    coef = [y for _, y in pts]
    n = len(pts)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            num = field.sub(coef[i], coef[i - 1])
            den = field.sub(xs[i], xs[i - j])
            coef[i] = field.div(num, den)
    poly = UniPoly.zero(field)
    base = UniPoly.one(field)
    for i in range(n):
        poly = poly + base.scale(coef[i])
        base = base * UniPoly(field, [field.neg(xs[i]), field.one()])
    return poly


def uni_squarefree(u: UniPoly):
    """Yun's squarefree decomposition: list of (factor, multiplicity).

    The product of factor^multiplicity equals u up to a scalar; factors are
    monic, squarefree and pairwise coprime.  Requires characteristic 0 or a
    prime exceeding deg(u).
    """
    if u.is_zero():
        raise ValueError("squarefree decomposition of the zero polynomial")
    F = u.field
    if 0 < F.char <= u.degree:
        raise ValueError("field characteristic must exceed the degree")
    f = u.monic()
    if f.degree == 0:
        return []
    fp = f.derivative()
    a = f.gcd(fp)
    b = f.exact_div(a)
    c = fp.exact_div(a)
    d = c - b.derivative()
    out = []
    mult = 1
    while True:
        if b.degree == 0:
            break
        g = b.gcd(d)
        if g.degree > 0:
            out.append((g.monic(), mult))
        b2 = b.exact_div(g)
        c2 = d.exact_div(g)
        d = c2 - b2.derivative()
        b = b2
        mult += 1
    return out
