"""Global Tjurina numbers, the du Plessis-Wall bounds, and the free /
nearly free classification.

``classify`` computes r = mdr(f) and tau, and reads the class and exponents
from them by the du Plessis-Wall equalities (du Plessis-Wall 1999): a cone
iff r = 0; free with exponents (r, d-1-r) iff 2r <= d-1 and
tau = (d-1)^2 - r(d-1-r); nearly free with exponents (r, d-r) iff 2r <= d
and tau = (d-1)^2 - r(d-r-1) - 1; neither otherwise.  It gets (r, tau) by
one of three routes:

- Arrangement.  The polynomial that ``LineArrangement.f`` returns records
  its arrangement.  tau = sum (m_p - 1)^2 over the intersection points,
  exact in the arrangement's field.  Each point is an ordinary m-fold
  point: locally m concurrent lines, a homogeneous singularity, whose
  Tjurina number equals its Milnor number (m - 1)^2 (Euler's relation puts
  the local equation in its Jacobian ideal, since the characteristic is 0
  or p > d >= m).  No Milnor-algebra rank is taken.  The point syzygy of a
  point of highest multiplicity m, of degree u = d - m, seeds the mdr
  (voted like every mdr), which the paper's trichotomy confines: mdr = u,
  or mdr = m-1 and f free, or m <= mdr <= u-1.  With the du Plessis-Wall
  bounds, tau predicts one mdr for any m: r0 = min(m-1, u) if
  tau = phi1(d, r0) (the du Plessis-Wall bound is strictly decreasing in
  r, so no mdr above r0 allows that tau, and the trichotomy allows none
  below); else u, unless tau exceeds the bound at u, which excludes
  mdr = u and leaves no prediction (the middle range).
  ``syzygy._mdr_scan`` tests the prediction first, in the first voting
  field of ``classify`` by the certificate's nullspace there
  (dim AR_r <= 2, or one rank at r-1), and scans upward only if the test
  fails.
- Rank.  Every other curve gets mdr from the scan seeded by the Koszul
  syzygy at d-1 (``mdr``; every other voting prime searches from the
  first prime's answer), and its verdict at that mdr is voted in every
  field.  For
  r >= 1 and 2r <= d-1 one rank decides freeness (``_free_by_rank``):
  f is free with exponents (r, d-1-r) iff dim AR_{d-1-r} > dim S_{d-1-2r},
  and then tau = (d-1)^2 - r(d-1-r).  Proof, for f reduced (which
  ``_admit`` proves in the first field; the other voting fields are
  cross-checks) and r = mdr(f):

  (<=) A nonzero rho1 in AR_r is primitive: a common factor g of its
  components would leave rho1/g in AR_{r - deg g}, below the mdr.  So its
  multiples in degree d-1-r form a space of dimension dim S_{d-1-2r}, and a
  rho2 in AR_{d-1-r} outside them is no rational multiple of rho1 either
  (b*rho2 = a*rho1 with coprime a, b makes b divide the primitive rho1).
  Hence rho1 x rho2 != 0.  Both are orthogonal to grad f, so
  rho1 x rho2 = h * grad f, and h is a polynomial because the partials of a
  reduced curve share no factor (characteristic 0 or p > d).  Its degree is
  r + (d-1-r) - (d-1) = 0, so h is a nonzero constant, and Saito's
  criterion (Saito 1980, in the plane-curve form of Dimca-Sticlaru) makes f
  free with exponents (r, d-1-r).
  (=>) A free curve has AR = S rho1 (+) S rho2 with degrees r and d-1-r, so
  dim AR_{d-1-r} = dim S_{d-1-2r} + 1.

  No syzygy of degree d-1-r is built.  Every other curve of this route
  takes the Hilbert tau below.
- Hilbert.  The remaining curves (cones, nearly free and neither curves)
  get tau from the Hilbert function of the Milnor algebra
  M(f) = S / (f_x, f_y, f_z): for a reduced curve dim M(f)_k = tau for every
  k > 3(d-2) (Dimca, "Syzygies of Jacobian ideals and defects of linear
  systems", 2013), so tau is the one rank at k = 3d-5.  At k = 3d-6 a smooth
  curve still has its socle.  ``global_tjurina`` always takes this route.

The certificate is the first basis vector of AR(f)_r in the first computing
field on every route, computed once outside the vote (or by the nullspace
that tested the predicted mdr), so a curve gets the same report whichever
route decides it.  It is the one verified vector of a classification: of that
nullspace only basis vector 0 is converted to a triple and re-verified
(``ar_slice`` still returns the whole verified basis).

``_seeded_mdr`` is the one place that picks a curve's seed and predicts its
mdr by the rule above, for ``classify``, ``multiplicity_bound_check`` and
``trichotomy`` at every lattice point (the last two need no certificate, so
they test the prediction by ranks); ``_report`` reports at a given,
already voted mdr.  ``_trichotomy`` splits the paper's cases at that mdr (a
pencil theorem scans below its own seed instead) and reports the free case
at it without a second scan.

``classify`` and ``global_tjurina`` share one input gate, run before any
linear algebra.  It takes the fields from ``backend.fields_for``, which
refuses (ValueError, CLI exit 1) GF(p) with p <= d, where a partial
derivative can vanish identically; and it refuses f unless its image in the
first of those fields is reduced (f itself, or its image mod the first
voting prime: a square factor g^2 of a rational curve stays a square factor
of the same degree mod p, so a reduced image proves the rational curve
reduced).  ``is_reduced`` decides that, except for the product of an
arrangement's lines, whose image is reduced iff its lines stay distinct.  A
non-reduced image is refused even when f over Q is reduced and the prime is
bad for it: the vote would compute in that image.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .backend import Backend, compute, describe, fields_for
from .linalg import rank_mod_np
from .poly import HomogPoly, is_reduced, monomial_count
from .syzygy import (SyzygyTriple, _first_syzygy, _mdr_scan, ar_dimension,
                     ar_slice, graded_multiplication_matrix, mdr)

__all__ = [
    "MilnorProfile",
    "FreenessReport",
    "InconsistencyError",
    "NotReducedError",
    "milnor_hilbert",
    "global_tjurina",
    "dpw_bounds",
    "thmF_gate",
    "classify",
]


class InconsistencyError(ArithmeticError):
    """A mathematically impossible configuration: wrong inputs or a genuine
    theorem violation.  CLI exit code 2."""


class NotReducedError(ValueError):
    """The input gate could not prove f reduced.  CLI exit code 1."""


@dataclass(frozen=True)
class MilnorProfile:
    degree: int
    tau: int


@dataclass
class FreenessReport:
    d: int
    mdr: int
    tau: int
    classification: str  # free | nearly-free | neither | cone
    exponents: tuple | None
    certificate: SyzygyTriple | None
    bounds: dict
    backend: str
    primes: list

    def to_json(self) -> dict:
        return {
            "d": self.d,
            "mdr": self.mdr,
            "tau": self.tau,
            "class": self.classification,
            "exponents": list(self.exponents) if self.exponents else None,
            "certificate": (self.certificate.to_json()
                            if self.certificate else None),
            "certificate_field": (self.certificate.field.tag
                                  if self.certificate else None),
            "bounds": self.bounds,
            "backend": self.backend,
            "primes": self.primes,
        }


def milnor_hilbert(f: HomogPoly, k: int) -> int:
    """Exact dimension of the degree-k piece of S/(f_x, f_y, f_z).  With
    r = k-d+1, the Jacobian map S_r^3 -> S_k has kernel AR(f)_r, so its
    image has dimension 3*dim S_r - dim AR(f)_r."""
    if k < 0:
        raise ValueError("negative degree")
    r = k - f.degree + 1
    if r < 0:
        return monomial_count(k)
    return monomial_count(k) - 3 * monomial_count(r) + ar_dimension(f, r)


def _profile(f: HomogPoly) -> MilnorProfile:
    """tau of a reduced curve: its Milnor algebra has dimension tau in every
    degree k > 3(d-2)."""
    d = f.degree
    return MilnorProfile(d, milnor_hilbert(f, max(3 * d - 5, 0)))


def _admit(f: HomogPoly, backend: Backend | None) -> HomogPoly:
    """The input gate of ``classify`` and ``global_tjurina``: raise
    ValueError unless f has positive degree and every field ``fields_for``
    picks has p > d, and NotReducedError unless f's image in the first of
    those fields is reduced.  Returns that image."""
    if f.degree < 1:
        raise ValueError("f must have positive degree")
    F = fields_for(f, backend)[0]
    image = f if F == f.field else f.map_field(F)
    # a square factor g^2 of a rational f stays a square factor of the same
    # degree mod p, so a reduced image proves f reduced
    A = f._arrangement
    if not (A._reduced_in(F) if A is not None else is_reduced(image)):
        if image is not f:
            raise NotReducedError(
                f"f is not reduced mod {F.p}: it has a repeated factor, "
                f"or {F.p} is a bad prime for it")
        raise NotReducedError("f is not reduced: it has a repeated factor")
    return image


def global_tjurina(f: HomogPoly, backend: Backend | None = None) -> MilnorProfile:
    """Global Tjurina number of a reduced curve, read from the Hilbert
    function of its Milnor algebra."""
    _admit(f, backend)
    return compute(_profile, f, backend, what="Tjurina profile")


def _phi1(d: int, r: int) -> int:
    """(d-1)^2 - r(d-1-r): the du Plessis-Wall bound for 2r <= d-1, and the
    tau of a free curve with exponents (r, d-1-r)."""
    return (d - 1) ** 2 - r * (d - 1 - r)


def _phi2(d: int, r: int) -> int:
    """phi1 - C(2r+2-d, 2): the du Plessis-Wall bound for 2r >= d."""
    return _phi1(d, r) - comb(2 * r + 2 - d, 2)


def dpw_bounds(d: int, r: int):
    """du Plessis-Wall upper bound for tau given r <= mdr: (value, branch)."""
    if not 0 <= r <= d - 1:
        raise ValueError(f"need 0 <= r <= d-1, got r={r}, d={d}")
    if 2 * r <= d - 1:
        return _phi1(d, r), "phi1"
    return _phi2(d, r), "phi2"


def thmF_gate(d: int, r0: int, tau: int) -> str:
    """Whether tau attains the bound (d-1)^2 - r0(d-r0-1): "attained" means
    free with exponents (r0, d-r0-1); above the bound is inconsistent."""
    if r0 < 1:
        raise ValueError("r0 must be >= 1")
    bound = _phi1(d, r0)
    if tau > bound:
        raise InconsistencyError(
            f"tau={tau} exceeds the bound {bound} for d={d}, r0={r0}: "
            "wrong tau or wrong mdr lower bound")
    return "attained" if tau == bound else "undershoot"


@dataclass(frozen=True)
class _Verdict:
    """What every backend field must agree on."""

    mdr: int
    tau: int
    classification: str
    exponents: tuple | None


def _dpw_verdict(d: int, r: int, tau: int) -> _Verdict:
    """Class and exponents from (mdr, tau) by the du Plessis-Wall
    equalities."""
    if r == 0:
        return _Verdict(r, tau, "cone", None)
    if 2 * r <= d - 1 and tau == _phi1(d, r):
        return _Verdict(r, tau, "free", (r, d - 1 - r))
    if 2 * r <= d and tau == _phi1(d, r) - 1:
        return _Verdict(r, tau, "nearly-free", (r, d - r))
    return _Verdict(r, tau, "neither", None)


def _free_by_rank(f: HomogPoly, r: int) -> bool:
    """For reduced f with r = mdr(f): free with exponents (r, d-1-r) iff
    1 <= r, 2r <= d-1 and dim AR_{d-1-r} > dim S_{d-1-2r}, one rank (see
    the module docstring).  ``_admit`` has proved f reduced."""
    d = f.degree
    return (r >= 1 and 2 * r <= d - 1
            and ar_dimension(f, d - 1 - r) > monomial_count(d - 1 - 2 * r))


def _bare_verdict(f: HomogPoly, r: int) -> _Verdict:
    """The verdict of a curve off the arrangement route at its mdr r: free
    by one rank, else from the Hilbert-function tau."""
    d = f.degree
    return _dpw_verdict(
        d, r, _phi1(d, r) if _free_by_rank(f, r) else _profile(f).tau)


def _route(f: HomogPoly):
    """``LineArrangement._route`` of the arrangement f records, or None."""
    return f._arrangement._route() if f._arrangement is not None else None


def _seeded_mdr(f: HomogPoly, backend: Backend | None,
                image: HomogPoly | None = None):
    """(mdr(f), basis vector 0 of AR(image)_mdr or None): a curve's seed
    and predicted mdr.  Off the arrangement route the Koszul syzygy seeds
    ``mdr``, with no prediction.  On it, a point of highest multiplicity m
    seeds the search at u = d - m, and the prediction is
    r0 = min(m-1, u) if tau = phi1(d, r0), else u unless tau exceeds the du
    Plessis-Wall bound at u (see the module docstring).  Given ``image`` (f
    in the first field, from ``_admit``) the certificate's nullspace tests
    the prediction, and comes back when it proves it."""
    route = _route(f)
    if route is None:
        return mdr(f, backend), None
    u, build, tau = route
    d = f.degree
    r0 = min(d - u - 1, u)
    guess = (r0 if tau == _phi1(d, r0)
             else u if tau <= dpw_bounds(d, u)[0] else None)
    return _mdr_scan(f, u, build, backend, guess, image)


def _report(f: HomogPoly, image: HomogPoly, r: int,
            backend: Backend | None,
            certificate: SyzygyTriple | None = None) -> FreenessReport:
    """``classify``'s report of f at its voted mdr r (``image`` from
    ``_admit``).  Off the arrangement route only the rank / Hilbert verdict
    is voted here; the certificate is basis vector 0 of AR(image)_r, taken
    from ``certificate`` when the mdr proof already built it."""
    d = f.degree
    route = _route(f)
    verdict = _dpw_verdict(d, r, route[2]) if route is not None else compute(
        lambda g: _bare_verdict(g, r), f, backend, what="classification")
    tau = verdict.tau

    bound, branch = dpw_bounds(d, r)
    if tau > bound:
        raise InconsistencyError(
            f"tau={tau} violates the du Plessis-Wall bound {bound} "
            f"({branch}) at d={d}, r={r}")
    bounds = {
        "phi1": _phi1(d, r),
        "phi2": _phi2(d, r) if 2 * r + 2 - d >= 0 else None,
        "active": branch,
        "value": bound,
    }
    return FreenessReport(
        d=d,
        mdr=r,
        tau=tau,
        classification=verdict.classification,
        exponents=verdict.exponents,
        certificate=(_first_syzygy(image, r) if certificate is None
                     else certificate),
        bounds=bounds,
        **describe(f, backend),
    )


def classify(f: HomogPoly, backend: Backend | None = None) -> FreenessReport:
    """Compute r = mdr(f) and tau, then decide free / nearly free / neither /
    cone with exponents and a syzygy certificate.

    mdr is found once (``_seeded_mdr``) and the rest reported at it.  The
    product of a ``LineArrangement``'s lines takes the arrangement route:
    the combinatorial tau = sum (m_p - 1)^2, with no Milnor-algebra rank,
    and the mdr that tau predicts tested first by the certificate's
    nullspace, below the degree d - m_max of a point syzygy.  Any other
    polynomial, including the same coefficients given as text, is decided
    free by one rank at d-1-mdr, and otherwise by the Hilbert tau.  All
    routes give the same report; see the module docstring."""
    image = _admit(f, backend)
    r, certificate = _seeded_mdr(f, backend, image)
    return _report(f, image, r, backend, certificate)


def _trichotomy(f: HomogPoly, u: int, backend: Backend | None = None,
                build=None):
    """The paper's case split for f with a syzygy of degree u: mdr = u
    ("generic"), or mdr = d-1-u and f free with exponents (d-1-u, u)
    ("free"), or d-u <= mdr <= u-1 ("middle").  Without ``build`` the mdr
    is f's own (``_seeded_mdr``, the one ``classify`` finds: for a point of
    an arrangement, u = d - m >= d - m_max); a pencil theorem passes its
    seed, ``build()`` returning that syzygy over f's field, and the mdr is
    scanned below u (``_mdr_scan``).  Returns (case, mdr, the range the case
    allows for mdr, the ``classify`` report of the free case, made at this
    r without a second scan, or None); any other outcome raises
    InconsistencyError."""
    d = f.degree
    r = (_seeded_mdr(f, backend) if build is None
         else _mdr_scan(f, u, build, backend))[0]
    if r == u:
        return "generic", r, (u, u), None
    if r >= d - u:
        return "middle", r, (d - u, u - 1), None
    if r != d - 1 - u:
        raise InconsistencyError(
            f"mdr={r} < d-1-u={d - 1 - u} with a degree-{u} syzygy")
    report = _report(f, _admit(f, backend), r, backend)
    if not (report.classification == "free" and report.exponents == (r, u)):
        raise InconsistencyError(
            f"mdr=d-1-u={r} promises free ({r}, {u}), got "
            f"{report.classification} {report.exponents}")
    return "free", r, (r, r), report
