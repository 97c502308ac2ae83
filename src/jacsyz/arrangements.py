"""Line arrangements: intersection-lattice combinatorics, the multiple-point
syzygy, trichotomy and bound checks, the cone construction, and exact
lattice-isomorphism testing.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from fractions import Fraction
from math import comb, gcd, lcm

from .backend import Backend
from .fields import Field, QQ
from .poly import HomogPoly, dot
from .syzygy import SyzygyTriple, mdr, verify_syzygy
from .tjurina import (FreenessReport, InconsistencyError, _seeded_mdr,
                      _trichotomy, classify)

__all__ = [
    "ProjLine",
    "LineArrangement",
    "LatticePoint",
    "IntersectionLattice",
    "lattice",
    "tau_combinatorial",
    "point_syzygy",
    "trichotomy",
    "multiplicity_bound_check",
    "exponent_gap_check",
    "faenzi_valles_check",
    "cone_construction",
    "lattice_isomorphic",
    "parse_arrangement_file",
    "arrangement_to_file",
]


def _normalize(field: Field, vec):
    """vec scaled so that its first nonzero entry is 1; the leading 0s and
    that 1 are the field's shared constants, since every lattice point and
    line keeps its normalized tuple."""
    vec = tuple(field.coerce(v) for v in vec)
    for i, v in enumerate(vec):
        if not field.is_zero(v):
            inv = field.inv(v)
            return ((field.zero(),) * i + (field.one(),)
                    + tuple(field.mul(inv, w) for w in vec[i + 1:]))
    raise ValueError("zero vector cannot be normalized")


def _cross(a, b):
    """a x b in plain arithmetic: over GF(p) the entries are not reduced, so
    callers pass it through ``_normalize`` (which coerces) or
    ``field.is_zero``."""
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


@dataclass(frozen=True, slots=True)
class ProjLine:
    """Projective line as a normalized covector (first nonzero entry = 1)."""

    field: Field
    covector: tuple

    @classmethod
    def make(cls, field: Field, covector) -> "ProjLine":
        return cls(field, _normalize(field, covector))

    def form(self) -> HomogPoly:
        return HomogPoly.linear(self.field, self.covector)

    def contains(self, point) -> bool:
        F = self.field
        return F.is_zero(_dot(F, self.covector, [F.coerce(p) for p in point]))


class LineArrangement:
    """d pairwise-distinct projective lines with their product polynomial."""

    def __init__(self, field: Field, covectors):
        self.field = field
        self.lines = [ProjLine.make(field, c) for c in covectors]
        if len({l.covector for l in self.lines}) != len(self.lines):
            raise ValueError("duplicate lines in arrangement")
        self._f = None
        self._lattice = None

    @property
    def d(self) -> int:
        return len(self.lines)

    @property
    def f(self) -> HomogPoly:
        """The product of the lines; it records this arrangement, so that
        ``classify`` decides it by ``_route``."""
        if self._f is None:
            acc = HomogPoly.constant(self.field, 1)
            for line in self.lines:
                acc = acc * line.form()
            acc._arrangement = self
            self._f = acc
        return self._f

    def _reduced_in(self, F: Field) -> bool:
        """Whether the image of f in F is reduced.  f is the product of the
        normalized line forms, so its image is the product of their images,
        which stay normalized: it is reduced iff no two of them coincide."""
        return len({tuple(F.coerce(v) for v in line.covector)
                    for line in self.lines}) == self.d

    def _route(self):
        """The paper's route for ``classify``: (u, seed, tau), where the
        point syzygy of a point of highest multiplicity m, built by
        ``seed()``, has degree u = d - m, and tau = sum (m_p - 1)^2.  None
        when there is no intersection point (one line)."""
        points = self.lattice().points
        if not points:
            return None
        top = points[0]
        return (self.d - top.multiplicity, lambda: _point_triple(self, top),
                tau_combinatorial(self))

    def lattice(self) -> "IntersectionLattice":
        if self._lattice is None:
            self._lattice = lattice(self)
        return self._lattice

    def __repr__(self):
        return f"LineArrangement({self.field}, {self.d} lines)"


@dataclass(frozen=True, slots=True)
class LatticePoint:
    point: tuple
    multiplicity: int
    lines: tuple  # incident line indices


@dataclass(frozen=True)
class IntersectionLattice:
    points: tuple
    m_max: int

    def point_at(self, coords):
        for p in self.points:
            if p.point == coords:
                return p
        return None

    def top(self) -> LatticePoint:
        """A point of highest multiplicity; ValueError when there is none."""
        if not self.points:
            raise ValueError("the arrangement has no intersection point: "
                             "it is a single line")
        return self.points[0]


@lru_cache(maxsize=4096)
def _incidence(*lines):
    """The tuple of line indices through a point, shared: every lattice
    draws them from the same few (mostly pairs i < j < d), and an
    arrangement keeps its lattice.  Bounded, so that many different
    arrangements cannot grow it without limit."""
    return lines


def _int_key(c):
    """The integer vector c divided by the gcd of its entries and signed so
    that its first nonzero entry is positive: one key per point over Q."""
    g = gcd(*c)
    if c[0] < 0 or c[0] == 0 and (c[1] < 0 or c[1] == 0 and c[2] < 0):
        g = -g
    return (c[0] // g, c[1] // g, c[2] // g)


def _rational_point(c):
    """``_normalize(QQ, c)`` of an integer key c, by one Fraction an entry."""
    i = 0 if c[0] else 1 if c[1] else 2
    return ((QQ.zero(),) * i + (QQ.one(),)
            + tuple(Fraction(v, c[i]) for v in c[i + 1:]))


def lattice(A: LineArrangement) -> IntersectionLattice:
    """All pairwise intersection points with multiplicities and incidences;
    ordering is deterministic (multiplicity desc, then coordinates).

    The points are integer cross products of the lines' covectors: over Q
    of their integer multiples, grouped by ``_int_key`` and normalized once
    per distinct point; over GF(p) of the residues, normalized mod p."""
    F = A.field
    if F == QQ:
        covs = []
        for line in A.lines:
            den = lcm(*(v.denominator for v in line.covector))
            covs.append(tuple(v.numerator * (den // v.denominator)
                              for v in line.covector))
        key = _int_key
    else:
        covs = [line.covector for line in A.lines]
        key = partial(_normalize, F)
    table: dict = {}
    for i in range(A.d):
        for j in range(i + 1, A.d):
            table.setdefault(key(_cross(covs[i], covs[j])),
                             set()).update((i, j))
    points = [LatticePoint(_rational_point(pt) if F == QQ else pt, len(idx),
                           _incidence(*sorted(idx)))
              for pt, idx in table.items()]
    total = sum(comb(p.multiplicity, 2) for p in points)
    if total != comb(A.d, 2):
        raise ArithmeticError(
            "lattice bookkeeping failed: sum C(m_p,2) != C(d,2)")
    points.sort(key=lambda p: (-p.multiplicity, _sort_key(F, p.point)))
    # one line has no intersection point; it is its own highest multiplicity
    return IntersectionLattice(
        tuple(points), max((p.multiplicity for p in points), default=1))


def _sort_key(field, vec):
    return tuple(str(field.scalar_str(v)) for v in vec)


def tau_combinatorial(A: LineArrangement) -> int:
    """Sum over lattice points of (m_p - 1)^2: the global Tjurina number of a
    line arrangement is determined by its intersection lattice."""
    return sum((p.multiplicity - 1) ** 2 for p in A.lattice().points)


def _point_triple(A: LineArrangement, p: LatticePoint) -> SyzygyTriple:
    """The degree d-m syzygy attached to a point P of multiplicity m,
    unverified.  With h the product of the lines that miss P and
    D_P = sum_i P_i d/dx_i, it is rho = D_P(h)*(x, y, z) - d*h*P: by Euler,
    rho . grad f = d*(D_P(h)*f - h*D_P(f)), and D_P(f) = g*D_P(h) because
    D_P kills every line through P in f = g*h.  When m = d, h = 1 and
    rho = -d*P."""
    F = A.field
    if p.multiplicity < 2:
        raise ValueError("lattice points have multiplicity >= 2")
    d = A.d
    h = HomogPoly.constant(F, 1)
    for i, line in enumerate(A.lines):
        if i not in p.lines:
            h = h * line.form()
    Dh = dot([HomogPoly.constant(F, c) for c in p.point], h.gradient())
    comps = [dot((HomogPoly.variable(F, i), h),
                 (Dh, HomogPoly.constant(F, F.mul(F.coerce(-d), c))))
             for i, c in enumerate(p.point)]
    return SyzygyTriple(comps[0], comps[1], comps[2], d)


def _require_lattice_point(A: LineArrangement, p: LatticePoint):
    if p not in A.lattice().points:
        raise ValueError(f"({':'.join(map(str, p.point))}) on lines {p.lines}"
                         " is not a lattice point of the arrangement")


def point_syzygy(A: LineArrangement, p: LatticePoint) -> SyzygyTriple:
    """``_point_triple``, verified against the arrangement's polynomial."""
    _require_lattice_point(A, p)
    triple = _point_triple(A, p)
    if not verify_syzygy(A.f, triple):
        raise ArithmeticError("multiple-point syzygy failed verification")
    if triple.degree != A.d - p.multiplicity:
        raise ArithmeticError("multiple-point syzygy has wrong degree")
    return triple


def _dot(field, u, v):
    acc = field.zero()
    for a, b in zip(u, v):
        acc = field.add(acc, field.mul(a, b))
    return acc


@dataclass
class TrichotomyResult:
    case: int  # 0: r = d-m; 1: r = m-1, free; 2: m <= r <= d-m-1
    r: int
    m: int
    d: int
    report: FreenessReport | None = None


def trichotomy(A: LineArrangement, p: LatticePoint,
               backend: Backend | None = None) -> TrichotomyResult:
    """Exhaustive case split for a multiple point of multiplicity m at the
    arrangement's mdr r, the one ``classify`` and
    ``multiplicity_bound_check`` find: either r = d-m (case 0), or r = m-1
    with freeness certified (case 1), or m <= r <= d-m-1 (case 2).  Raising
    here would falsify the trichotomy theorem; a point that is not a lattice
    point of A is a ValueError."""
    _require_lattice_point(A, p)
    case, r, _, report = _trichotomy(A.f, A.d - p.multiplicity, backend)
    return TrichotomyResult(("generic", "free", "middle").index(case), r,
                            p.multiplicity, A.d, report)


def multiplicity_bound_check(A: LineArrangement,
                             backend: Backend | None = None):
    """m(A) >= 2d/(mdr+2), compared exactly over the rationals; mdr is
    scanned below the syzygy of a point of highest multiplicity."""
    m = A.lattice().top().multiplicity
    rhs = Fraction(2 * A.d, _seeded_mdr(A.f, backend)[0] + 2)
    return m, rhs, Fraction(m) >= rhs


def exponent_gap_check(report: FreenessReport, m: int) -> bool:
    """Dichotomy for the maximal multiplicity of a free (resp. nearly free)
    line arrangement: m = d2+1 or m <= d1+1 (resp. m = d2 or m <= d1)."""
    if report.classification not in ("free", "nearly-free"):
        raise ValueError("check applies to free or nearly free reports only")
    d1, d2 = report.exponents
    if report.classification == "free":
        return m == d2 + 1 or m <= d1 + 1
    return m == d2 or m <= d1


@dataclass
class FVVerdict:
    free: bool
    exponents: tuple
    tau: int
    target_tau: int
    report: FreenessReport


def faenzi_valles_check(A: LineArrangement, k: int, ell: int,
                        backend: Backend | None = None) -> FVVerdict:
    """Freeness with exponents (k, k+ell) decided by the Tjurina count alone,
    for d = 2k+ell+1 with a point of multiplicity in [k, k+ell+1]; the verdict
    is cross-checked against the full classification."""
    d = A.d
    if d != 2 * k + ell + 1:
        raise ValueError(f"need d = 2k+ell+1, got d={d}, k={k}, ell={ell}")
    lat = A.lattice()
    if not any(k <= p.multiplicity <= k + ell + 1 for p in lat.points):
        raise ValueError(
            f"no intersection point of multiplicity in [{k}, {k + ell + 1}]")
    tau = tau_combinatorial(A)
    target = (d - 1) ** 2 - k * (k + ell)
    free = tau == target
    report = classify(A.f, backend)
    if free != (report.classification == "free"
                and report.exponents == (k, k + ell)):
        raise InconsistencyError(
            "Tjurina criterion and classification disagree: "
            f"tau={tau}, target={target}, report={report.classification} "
            f"{report.exponents}")
    return FVVerdict(free, (k, k + ell), tau, target, report)


@dataclass
class ConeSkeleton:
    e: int  # lines in the input arrangement
    m: int  # added lines (deduplicated)
    d: int
    expected_tau: int
    expected_exponents: tuple


def cone_construction(A: LineArrangement, apex):
    """Add the lines joining an external point to every lattice point of A;
    the result is free with exponent set {e, m-1} and
    tau = (d-1)^2 - e(m-1)."""
    F = A.field
    apex = _normalize(F, apex)
    for line in A.lines:
        if line.contains(apex):
            raise ValueError("apex lies on the arrangement")
    A.lattice().top()  # ValueError for a single line: nothing to join
    added = []
    for p in A.lattice().points:
        cov = _normalize(F, _cross(apex, p.point))
        if cov not in added:
            added.append(cov)
    e = A.d
    m = len(added)
    B = LineArrangement(F, [l.covector for l in A.lines] + added)
    d = e + m
    skeleton = ConeSkeleton(
        e=e, m=m, d=d,
        expected_tau=(d - 1) ** 2 - e * (m - 1),
        expected_exponents=tuple(sorted((e, m - 1))),
    )
    return B, skeleton


LATTICE_ISOMORPHISM_MAX_LINES = 20


def lattice_isomorphic(A: LineArrangement, B: LineArrangement) -> bool:
    """Exact backtracking test for an incidence-preserving bijection of lines;
    refuses (rather than approximates) beyond
    ``LATTICE_ISOMORPHISM_MAX_LINES`` lines."""
    if A.d != B.d:
        return False
    limit = LATTICE_ISOMORPHISM_MAX_LINES
    if A.d > limit or B.d > limit:
        raise ValueError(f"lattice isomorphism limited to {limit} lines")
    latA, latB = A.lattice(), B.lattice()
    profA = sorted(p.multiplicity for p in latA.points)
    profB = sorted(p.multiplicity for p in latB.points)
    if profA != profB:
        return False

    # per-line signature: multiset of multiplicities of its points
    def signatures(lat, d):
        sig = [[] for _ in range(d)]
        for p in lat.points:
            for i in p.lines:
                sig[i].append(p.multiplicity)
        return [tuple(sorted(s)) for s in sig]

    sigA = signatures(latA, A.d)
    sigB = signatures(latB, B.d)
    if sorted(sigA) != sorted(sigB):
        return False

    # point lookup by line pair
    def pairs(lat):
        return {(i, j): p.point for p in lat.points
                for i in p.lines for j in p.lines if i < j}

    pairA, pairB = pairs(latA), pairs(latB)
    multA = {p.point: p.multiplicity for p in latA.points}
    multB = {p.point: p.multiplicity for p in latB.points}

    d = A.d
    mapping = [None] * d
    used = [False] * d

    def consistent():
        # check all pairs with already-assigned lines
        pt_map = {}
        for a in range(d):
            if mapping[a] is None:
                continue
            for b in range(a + 1, d):
                if mapping[b] is None:
                    continue
                key = (a, b)
                pa = pairA[key]
                ii, jj = sorted((mapping[a], mapping[b]))
                pb = pairB[(ii, jj)]
                if multA[pa] != multB[pb]:
                    return False
                if pa in pt_map:
                    if pt_map[pa] != pb:
                        return False
                else:
                    if pb in pt_map.values():
                        return False
                    pt_map[pa] = pb
        return True

    def backtrack(i):
        if i == d:
            return True
        for j in range(d):
            if used[j] or sigA[i] != sigB[j]:
                continue
            mapping[i] = j
            used[j] = True
            if consistent() and backtrack(i + 1):
                return True
            mapping[i] = None
            used[j] = False
        return False

    return backtrack(0)


def parse_arrangement_file(text: str, field: Field = QQ) -> LineArrangement:
    """One line per covector: three rationals whitespace-separated; '#'
    starts a comment."""
    covectors = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if not body:
            continue
        parts = body.split()
        if len(parts) != 3:
            raise ValueError(
                f"line {lineno}: expected three rationals, got {body!r}")
        covectors.append(tuple(field.scalar_from_str(p) for p in parts))
    if not covectors:
        raise ValueError("empty arrangement file")
    return LineArrangement(field, covectors)


def arrangement_to_file(A: LineArrangement) -> str:
    out = ["# one projective line per row: three coordinates"]
    for line in A.lines:
        out.append(" ".join(A.field.scalar_str(v) for v in line.covector))
    return "\n".join(out) + "\n"
