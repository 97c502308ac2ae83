"""Graded syzygy spaces of the partial derivatives, and the minimal syzygy
degree.

A syzygy of degree r is a triple (a, b, c) of degree-r forms with
a*f_x + b*f_y + c*f_z = 0; the degree-r slice is the kernel of the linear map
S_r^3 -> S_{r+d-1} realized as an exact matrix.

``graded_multiplication_matrix`` fills that matrix with one numpy scatter
per polynomial: the graded-lex index of (i, j, k) in ``poly.monomials``
order is s(s+1)/2 + k with s = j + k, in every degree.  Over GF(p) the
matrix is int64, for ``rank_mod_np`` and ``nullspace_mod_np``; over Q the
same scatter fills an object array of Fractions, which ``ExactMatrix``
eliminates with the same kernel.

``_mdr_scan`` is the one mdr search: given an explicit syzygy of degree u
(the Koszul syzygy for ``mdr``, a top point's syzygy on the arrangement
route, a paper's syzygy for the pencil theorems) it ranks AR_r only for
r < u, since AR_r != 0 implies AR_{r+1} != 0.  It tests one predicted mdr
first, when the caller has one (``tjurina._seeded_mdr``), and scans upward
only where the test leaves the answer open.  Every voting field runs that
one search: the first from the prediction (tested by the certificate's
nullspace when the caller wants a certificate), every other field from the
first field's answer, which it proves with at most two ranks if it agrees.

``ar_slice`` converts and re-verifies every basis triple of AR_r;
``classify`` reports only basis vector 0, and ``_first_syzygy`` and
``_mdr_scan`` convert and re-verify only that one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

import numpy as np

from .backend import Backend, compute, fields_for
from .fields import Field, QQ
from .linalg import ExactMatrix, nullspace_mod_np, rank_mod_np
from .poly import HomogPoly, dot, homog_gcd, monomial_count, monomials

__all__ = [
    "SyzygyTriple",
    "ARSlice",
    "ar_slice",
    "mdr",
    "verify_syzygy",
    "is_primitive",
    "graded_multiplication_matrix",
]


@dataclass(frozen=True, slots=True)
class SyzygyTriple:
    """(a, b, c) with a*f_x + b*f_y + c*f_z = 0; the certificate currency."""

    a: HomogPoly
    b: HomogPoly
    c: HomogPoly
    f_degree: int

    @property
    def degree(self) -> int:
        return max(self.a.degree, self.b.degree, self.c.degree)

    @property
    def field(self) -> Field:
        return self.a.field if not self.a.is_zero() else (
            self.b.field if not self.b.is_zero() else self.c.field)

    def components(self):
        return (self.a, self.b, self.c)

    def is_zero(self) -> bool:
        return self.a.is_zero() and self.b.is_zero() and self.c.is_zero()

    def to_json(self) -> dict:
        return {
            "degree": self.degree,
            "a": self.a.to_str(),
            "b": self.b.to_str(),
            "c": self.c.to_str(),
        }


@dataclass(frozen=True)
class ARSlice:
    degree: int
    basis: tuple
    dimension: int


class DegreeMismatchError(ValueError):
    pass


def verify_syzygy(f: HomogPoly, s: SyzygyTriple) -> bool:
    """Pure recomputation of a*f_x + b*f_y + c*f_z from the exponents, in
    one ``dot``; no trust in the input, and independent of
    ``graded_multiplication_matrix``, which built the nullspaces whose
    vectors this re-verifies."""
    degs = {p.degree for p in s.components() if not p.is_zero()}
    if len(degs) > 1:
        raise DegreeMismatchError(f"mixed component degrees {sorted(degs)}")
    return dot(s.components(), f.gradient()).is_zero()


def is_primitive(s: SyzygyTriple) -> bool:
    """True iff the components have no common divisor of positive degree."""
    if s.is_zero():
        return False
    nonzero = [p for p in s.components() if not p.is_zero()]
    g = nonzero[0]
    for p in nonzero[1:]:
        g = homog_gcd(g, p)
        if g.degree == 0:
            return True
    return g.degree == 0


@lru_cache(maxsize=None)
def _monomial_jk(r: int):
    """Exponents of y and of z of the degree-r monomials, graded-lex."""
    mons = np.array(monomials(r), dtype=np.int64).reshape(-1, 3)
    mons.setflags(write=False)  # cached: every caller gets the same array
    return mons[:, 1], mons[:, 2]


def graded_multiplication_matrix(polys, r: int, target: int):
    """Matrix of (u_1, ..., u_s) -> sum u_i * p_i from S_r^s to S_target.

    Columns are grouped by polynomial, graded-lex within each group; rows are
    the graded-lex monomials of S_target.  Every nonzero p_i has degree
    target - r.  Returns a numpy array: int64 residues over GF(p), and
    Fractions in an object array over Q.
    """
    field = polys[0].field
    m = monomial_count(r)
    A = np.full((monomial_count(target), len(polys) * m), field.zero(),
                dtype=np.int64 if field.char else object)
    mj, mk = _monomial_jk(r)
    for b, p in enumerate(polys):
        if p.is_zero():
            continue
        if p.degree != target - r:
            raise ValueError(
                f"degree {p.degree} polynomial in a map S_{r} -> S_{target}")
        exps = np.array(list(p.coeffs), dtype=np.int64)
        k = exps[:, 2:] + mk
        s = exps[:, 1:2] + mj + k
        values = np.array(list(p.coeffs.values()), dtype=A.dtype)
        A[s * (s + 1) // 2 + k, b * m + np.arange(m)] = values[:, None]
    return A


def _slice_nullspace(f: HomogPoly, r: int):
    field = f.field
    A = graded_multiplication_matrix(list(f.gradient()), r, r + f.degree - 1)
    if field.char:
        return [v.tolist() for v in nullspace_mod_np(A, field.p)]
    return ExactMatrix(field, A).nullspace()


def _vector_to_triple(field, vec, r: int, d: int) -> SyzygyTriple:
    mc = monomial_count(r)
    mons = monomials(r)
    comps = []
    for b in range(3):
        coeffs = {}
        for i, m in enumerate(mons):
            v = field.coerce(vec[b * mc + i])
            if not field.is_zero(v):
                coeffs[m] = v
        comps.append(HomogPoly._trusted(field, r, coeffs))
    return SyzygyTriple(comps[0], comps[1], comps[2], d)


def _reverified(f: HomogPoly, t: SyzygyTriple) -> SyzygyTriple:
    if not verify_syzygy(f, t):
        raise ArithmeticError("nullspace triple failed re-verification")
    return t


def ar_slice(f: HomogPoly, r: int) -> ARSlice:
    """Basis of the degree-r syzygies of f; every triple re-verified."""
    if r < 0:
        raise ValueError("negative degree")
    if f.degree < 1:
        raise ValueError("f must have positive degree")
    basis = tuple(_reverified(f, _vector_to_triple(f.field, v, r, f.degree))
                  for v in _slice_nullspace(f, r))
    return ARSlice(r, basis, len(basis))


def _first_syzygy(f: HomogPoly, r: int) -> SyzygyTriple | None:
    """``ar_slice(f, r).basis[0]``, or None when AR(f)_r = 0, converting
    and re-verifying only that one vector of the nullspace."""
    vecs = _slice_nullspace(f, r)
    if not vecs:
        return None
    return _reverified(f, _vector_to_triple(f.field, vecs[0], r, f.degree))


def ar_dimension(f: HomogPoly, r: int) -> int:
    """dim AR(f)_r without materializing the basis (rank only)."""
    field = f.field
    A = graded_multiplication_matrix(list(f.gradient()), r, r + f.degree - 1)
    ncols = 3 * monomial_count(r)
    if field.char:
        return ncols - rank_mod_np(A, field.p)
    return ncols - ExactMatrix(field, A).rank()


def _koszul(f: HomogPoly) -> SyzygyTriple:
    """The Koszul syzygy (f_y, -f_x, 0) of degree d-1, or (0, f_z, 0) when
    that one is zero."""
    fx, fy, fz = f.gradient()
    zero = HomogPoly.zero(f.field)
    if fx.is_zero() and fy.is_zero():
        return SyzygyTriple(zero, fz, zero, f.degree)
    return SyzygyTriple(fy, -fx, zero, f.degree)


def _primitive(s: SyzygyTriple) -> SyzygyTriple:
    """A triple over Q scaled to integer coefficients with gcd 1 (the zero
    triple as it is): the image of a nonzero one mod every prime is nonzero
    and exists, whereas s itself may have that prime in a denominator."""
    coeffs = [c for q in s.components() for c in q.coeffs.values()]
    if not coeffs:
        return s
    den = lcm(*(c.denominator for c in coeffs))
    num = gcd(*(c.numerator * (den // c.denominator) for c in coeffs))
    return SyzygyTriple(*(q.scale(Fraction(den, num)) for q in s.components()),
                        s.f_degree)


def _mdr_scan(f: HomogPoly, u: int, build, backend: Backend | None = None,
              guess: int | None = None, image: HomogPoly | None = None):
    """(mdr(f), basis vector 0 of AR(image)_mdr or None), given a seed: a
    syzygy of degree u that ``build()`` returns over f's field, built at
    most once and made primitive over Q.  No rank at u or above is taken:
    mdr = u once the seed is mapped into the computing field and verified
    there (ArithmeticError if it is zero, of another degree or no syzygy).

    Since x * (a, b, c) is a nonzero syzygy of degree s + 1 whenever
    (a, b, c) is one of degree s, AR_{r-1} = 0 gives AR_s = 0 for every
    s < r.  ``search(g, hint)`` tests ``hint`` first and scans upward only
    where the test leaves the answer open, ranking no degree twice:
    AR_{hint-1} != 0 leaves 0 .. hint-2 (else the answer is hint-1);
    AR_{hint-1} = 0 and AR_hint != 0 (the seed, at hint = u) prove hint;
    AR_hint = 0 leaves hint+1 .. u-1.  Without a hint it scans 0 .. u-1.
    The first field searches from ``guess``, every other voting field from
    the first field's answer (``Backend.vote`` with ``first``).

    In the first field (``image``, when given, is f there) the guess is
    tested by the certificate's nullspace of AR(image)_guess.  A nonzero
    one proves mdr = guess when guess = 0, or dim AR_guess <= 2, or one
    rank shows AR_{guess-1} = 0, and at guess = u the seed is verified
    too; it is then the certificate.  dim AR_guess <= 2 gives
    AR_{guess-1} = 0: a nonzero rho' there puts x*rho', y*rho', z*rho' in
    AR_guess, and they are independent, since (a*x + b*y + c*z) * rho' = 0
    forces a = b = c = 0."""
    seed = lru_cache(maxsize=None)(
        lambda: _primitive(build()) if f.field == QQ else build())

    def seeded(g: HomogPoly) -> bool:
        s = SyzygyTriple(*(p.map_field(g.field) for p in seed().components()),
                         g.degree)
        return not s.is_zero() and s.degree == u and verify_syzygy(g, s)

    def scan(g: HomogPoly, lo: int = 0, hi: int = u) -> int:
        # AR_r = 0 for r < lo, and AR_hi != 0 when hi < u
        r = next((r for r in range(lo, hi) if ar_dimension(g, r) > 0), hi)
        if r == u and not seeded(g):
            raise ArithmeticError(
                f"the degree-{u} seed syzygy fails in {g.field.tag}")
        return r

    def search(g: HomogPoly, hint: int | None) -> int:
        if hint is None:
            return scan(g)
        if hint > 0 and ar_dimension(g, hint - 1) > 0:
            return scan(g, 0, hint - 1)
        if hint < u and ar_dimension(g, hint) == 0:
            return scan(g, hint + 1)
        return scan(g, hint, hint)

    certificate = None
    if image is None or guess is None:
        F = fields_for(f, backend)[0]
        first = search(image if image is not None
                       else f if F == f.field else f.map_field(F), guess)
    else:
        vecs = _slice_nullspace(image, guess)
        if not vecs:
            first = scan(image, guess + 1)
        elif (guess == 0 or len(vecs) <= 2
              or ar_dimension(image, guess - 1) == 0):
            first = scan(image, guess, guess)
            certificate = _reverified(image, _vector_to_triple(
                image.field, vecs[0], guess, image.degree))
        else:
            first = scan(image, 0, guess - 1)
    return (compute(lambda g: search(g, first), f, backend, what="mdr",
                    first=first), certificate)


def mdr(f: HomogPoly, backend: Backend | None = None) -> int:
    """Minimal degree of a nontrivial Jacobian syzygy: ascending scan with
    early exit below d-1, where the Koszul syzygy certifies the answer."""
    if f.degree < 1:
        raise ValueError("f must have positive degree")
    return _mdr_scan(f, f.degree - 1, lambda: _koszul(f), backend)[0]


def is_cone(f: HomogPoly, backend: Backend | None = None) -> bool:
    """A constant-coefficient syzygy exists iff f depends on only two
    coordinates after a linear change, i.e. f is a cone."""
    return compute(lambda g: ar_dimension(g, 0) > 0, f, backend,
                   what="cone flag")
