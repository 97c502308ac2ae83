"""Pencils of plane curves: product builders, the explicit wedge and
three-term syzygies, Macaulay-resultant discriminants, singular-member
bookkeeping, genericity checks, and the pencil classification theorems.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

from .backend import Backend, agree, make_backend
from .fields import Field, PrimeField, QQ, parse_field_tag, random_primes
from .linalg import ExactMatrix
from .poly import (HomogPoly, homog_gcd, is_reduced, monomial_index,
                   monomials, poly_parse)
from .syzygy import SyzygyTriple, is_cone, verify_syzygy
from .tjurina import (InconsistencyError, NotReducedError, _trichotomy,
                      classify, global_tjurina)
from .uni import UniPoly, uni_interpolate, uni_squarefree

__all__ = [
    "PencilSpec",
    "PencilProductSpec",
    "DiscriminantForm",
    "build_member",
    "build_product",
    "wedge_syzygy",
    "lemma2_syzygy",
    "macaulay_resultant",
    "discriminant",
    "genericity_check",
    "total_mu_check",
    "thmPEN_classify",
    "thm11_trichotomy",
    "thm13_trichotomy",
]

INF = "inf"


@dataclass(frozen=True)
class PencilSpec:
    """A pencil spanned by two degree-k forms that are not proportional."""

    q1: HomogPoly
    q2: HomogPoly

    def __post_init__(self):
        if self.q1.field != self.q2.field:
            raise ValueError("pencil members over different fields")
        if self.q1.degree != self.q2.degree or self.q1.degree < 1:
            raise ValueError("pencil needs two forms of equal degree >= 1")
        if self._proportional():
            raise ValueError("pencil members are proportional")

    def _proportional(self) -> bool:
        e1, c1 = self.q1.leading_term()
        e2, c2 = self.q2.leading_term()
        if e1 != e2:
            return False
        return self.q1.scale(c2) == self.q2.scale(c1)

    @property
    def k(self) -> int:
        return self.q1.degree

    @property
    def field(self) -> Field:
        return self.q1.field


@dataclass
class PencilProductSpec:
    """Members of a pencil (q1, q2, the curves q1 + t_i q2, and optional
    conjugate groups given by monic parameter polynomials) times an optional
    residual factor h."""

    pencil: PencilSpec
    ts: tuple = ()
    groups: tuple = ()  # monic UniPoly's over the base field, degree >= 2
    h: HomogPoly | None = None
    include_q1: bool = True
    include_q2: bool = True

    def __post_init__(self):
        F = self.pencil.field
        self.ts = tuple(F.coerce(t) for t in self.ts)
        if len(set(self.ts)) != len(self.ts):
            raise ValueError("repeated pencil parameters")
        for t in self.ts:
            if F.is_zero(t):
                raise ValueError("t=0 duplicates q1; use include_q1")
        for g in self.groups:
            if g.degree < 2 or not g.field == F:
                raise ValueError("groups must be monic of degree >= 2 over "
                                 "the pencil field")
        if self.h is not None and self.h.degree < 1:
            self.h = None

    @property
    def m(self) -> int:
        return (int(self.include_q1) + int(self.include_q2) + len(self.ts)
                + sum(g.degree for g in self.groups))

    def members(self):
        """Rational members only (the groups contribute their products)."""
        P = self.pencil
        out = []
        if self.include_q1:
            out.append(P.q1)
        if self.include_q2:
            out.append(P.q2)
        for t in self.ts:
            out.append(build_member(P, t))
        return out

    def chosen_parameter_poly(self) -> UniPoly:
        """Monic polynomial in t whose roots are the chosen finite member
        parameters (q2 = infinity is tracked separately)."""
        F = self.pencil.field
        acc = UniPoly.one(F)
        if self.include_q1:
            acc = acc * UniPoly.x(F)
        for t in self.ts:
            acc = acc * UniPoly(F, [F.neg(t), F.one()])
        for g in self.groups:
            acc = acc * g.monic()
        return acc

    def to_json(self) -> dict:
        out = {
            "q1": self.pencil.q1.to_str(),
            "q2": self.pencil.q2.to_str(),
            "t": [self.pencil.field.scalar_str(t) for t in self.ts],
            "field": self.pencil.field.tag,
        }
        if self.h is not None:
            out["h"] = self.h.to_str()
        if self.groups:
            out["groups"] = [[self.pencil.field.scalar_str(c)
                              for c in g.coeffs] for g in self.groups]
        if not self.include_q1:
            out["include_q1"] = False
        if not self.include_q2:
            out["include_q2"] = False
        return out

    @classmethod
    def from_json(cls, data: dict) -> "PencilProductSpec":
        F = parse_field_tag(data.get("field", "Q"))
        pencil = PencilSpec(poly_parse(data["q1"], F),
                            poly_parse(data["q2"], F))
        groups = tuple(
            UniPoly(F, [F.scalar_from_str(c) for c in g])
            for g in data.get("groups", []))
        h = poly_parse(data["h"], F) if data.get("h") else None
        return cls(
            pencil,
            ts=tuple(F.scalar_from_str(t) for t in data.get("t", [])),
            groups=groups,
            h=h,
            include_q1=data.get("include_q1", True),
            include_q2=data.get("include_q2", True),
        )

    @classmethod
    def from_json_str(cls, text: str) -> "PencilProductSpec":
        return cls.from_json(json.loads(text))


def build_member(P: PencilSpec, t) -> HomogPoly:
    """q1 + t*q2; t = "inf" (or None) selects q2."""
    if t is None or t == INF:
        return P.q2
    F = P.field
    t = F.coerce(t)
    if F.is_zero(t):
        return P.q1
    return P.q1 + P.q2.scale(t)


def group_product(P: PencilSpec, g: UniPoly) -> HomogPoly:
    """Product of q1 + t_j q2 over the roots t_j of a monic polynomial g,
    computed without leaving the base field."""
    F = P.field
    g = g.monic()
    s = g.degree
    acc = HomogPoly.zero(F)
    for i in range(s + 1):
        c = g[i]
        if (s - i) % 2:
            c = F.neg(c)
        # coefficient of q1^i q2^(s-i) in prod (q1 + t_j q2)
        if F.is_zero(c):
            continue
        acc = acc + ((P.q1 ** i) * (P.q2 ** (s - i))).scale(c)
    return acc


def build_product(spec: PencilProductSpec) -> HomogPoly:
    """Product of all chosen members times h; every member must be reduced."""
    P = spec.pencil
    if spec.m < 2:
        raise ValueError("need at least two pencil members")
    factors = spec.members()
    for g in spec.groups:
        factors.append(group_product(P, g))
    for q in factors:
        if not is_reduced(q):
            raise ValueError(f"non-reduced pencil member: {q.to_str()}")
    f = HomogPoly.constant(P.field, 1)
    for q in factors:
        f = f * q
    if spec.h is not None:
        if macaulay_resultant(P.q1, P.q2, spec.h) == P.field.zero():
            raise ValueError(
                "h meets the base locus: (q1, q2, h) share a projective zero")
        f = f * spec.h
    expected = spec.m * P.k + (spec.h.degree if spec.h is not None else 0)
    if f.degree != expected:
        raise ArithmeticError("product degree bookkeeping failed")
    return f


def _wedge(u: HomogPoly, v: HomogPoly):
    """Cofactors of du ^ dv in the basis (dy^dz, dz^dx, dx^dy)."""
    ux, uy, uz = u.gradient()
    vx, vy, vz = v.gradient()
    return (uy * vz - uz * vy, uz * vx - ux * vz, ux * vy - uy * vx)


def wedge_syzygy(P: PencilSpec, f: HomogPoly) -> SyzygyTriple:
    """The syzygy with components the cofactors of dq1 ^ dq2; degree 2k-2,
    verified against f."""
    a, b, c = _wedge(P.q1, P.q2)
    triple = SyzygyTriple(a, b, c, f.degree)
    if triple.is_zero():
        raise ValueError("dq1 ^ dq2 vanishes: degenerate pencil")
    if not verify_syzygy(f, triple):
        raise ArithmeticError(
            "wedge triple is not a syzygy of f: f is not a product of "
            "members of this pencil")
    if triple.degree != 2 * P.k - 2:
        raise ArithmeticError("wedge syzygy has wrong degree")
    return triple


def lemma2_syzygy(P: PencilSpec, h: HomogPoly, m: int,
                  f: HomogPoly) -> SyzygyTriple:
    """The three-term syzygy -m*h*(dq1^dq2) - q2*(dq1^dh) + q1*(dq2^dh) for
    f = (product of m members) * h; degree 2k-2+deg h, verified."""
    F = P.field
    if macaulay_resultant(P.q1, P.q2, h) == F.zero():
        raise ValueError("(q1, q2, h) share a projective zero")
    w12 = _wedge(P.q1, P.q2)
    w1h = _wedge(P.q1, h)
    w2h = _wedge(P.q2, h)
    comps = []
    for i in range(3):
        t1 = (h * w12[i]).scale(F.coerce(-m))
        t2 = (P.q2 * w1h[i]).scale(F.coerce(-1))
        t3 = P.q1 * w2h[i]
        comps.append(t1 + t2 + t3)
    triple = SyzygyTriple(comps[0], comps[1], comps[2], f.degree)
    if triple.is_zero():
        raise ArithmeticError("three-term syzygy vanished")
    if not verify_syzygy(f, triple):
        raise ArithmeticError("three-term triple is not a syzygy of f")
    if triple.degree != 2 * P.k - 2 + h.degree:
        raise ArithmeticError("three-term syzygy has wrong degree")
    return triple


# ----------------------------------------------------------------- Macaulay

def _unimodular(rng: random.Random):
    """Random integer matrix of determinant 1 (product of shears)."""
    U = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    for _ in range(4):
        i, j = rng.sample(range(3), 2)
        c = rng.randint(1, 5)
        for col in range(3):
            U[i][col] += c * U[j][col]
    return U


MACAULAY_RETRIES = 8  # coordinate changes after a vanishing minor
GENERICITY_RETRIES = 6  # coordinate changes tried by genericity_check


def macaulay_resultant(p1: HomogPoly, p2: HomogPoly, p3: HomogPoly):
    """Classical Macaulay resultant of three ternary forms: zero iff they
    share a projective zero over the algebraic closure.

    Computed as det(M)/det(M') in critical degree e1+e2+e3-2; a vanishing
    denominator minor triggers a random determinant-1 coordinate change
    (the resultant is invariant under those).
    """
    polys = (p1, p2, p3)
    F = p1.field
    if any(p.is_zero() for p in polys):
        # the remaining two ternary forms always meet in P^2
        return F.zero()
    if any(p.degree == 0 for p in polys):
        # a nonzero constant never vanishes
        return F.one()
    rng = random.Random(0)  # the resultant is the same after any change
    for attempt in range(MACAULAY_RETRIES + 1):
        if attempt == 0:
            cur = polys
        else:
            U = _unimodular(rng)
            cur = tuple(p.substitute(U) for p in polys)
        val = _macaulay_once(cur)
        if val is not None:
            return val
    raise ArithmeticError(
        "Macaulay denominator minor vanished for every coordinate change")


def _macaulay_once(polys):
    F = polys[0].field
    degs = [p.degree for p in polys]
    nu = sum(degs) - 2
    mons = monomials(nu)
    ridx = monomial_index(nu)
    n = len(mons)
    rows = [[F.zero()] * n for _ in range(n)]
    reduced_flags = []
    for col, (a, b, c) in enumerate(mons):
        flags = (a >= degs[0], b >= degs[1], c >= degs[2])
        reduced_flags.append(sum(flags) >= 2)
        if flags[0]:
            poly, shift = polys[0], (a - degs[0], b, c)
        elif flags[1]:
            poly, shift = polys[1], (a, b - degs[1], c)
        else:
            poly, shift = polys[2], (a, b, c - degs[2])
        for (i, j, k), v in poly.coeffs.items():
            rows[ridx[(i + shift[0], j + shift[1], k + shift[2])]][col] = v
    det_M = ExactMatrix(F, rows).det()
    sub = [i for i in range(n) if reduced_flags[i]]
    if not sub:
        det_m = F.one()
    else:
        minor = [[rows[i][j] for j in sub] for i in sub]
        det_m = ExactMatrix(F, minor).det()
    if F.is_zero(det_m):
        return None
    return F.div(det_M, det_m)


# ------------------------------------------------------------- discriminant

@dataclass(frozen=True)
class DiscriminantForm:
    """Binary discriminant D(u, v) of a degree-k pencil, held as the
    dehomogenization D(1, t) plus the multiplicity of the root at (0:1)."""

    field: Field
    k: int
    dhat: UniPoly
    inf_mult: int
    factors: tuple  # ((UniPoly squarefree factor, multiplicity), ...)

    @property
    def degree(self) -> int:
        return 3 * (self.k - 1) ** 2

    @property
    def sum_mu(self) -> int:
        return (sum(g.degree * mu for g, mu in self.factors) + self.inf_mult)

    @property
    def distinct_roots(self) -> int:
        return (sum(g.degree for g, _ in self.factors)
                + (1 if self.inf_mult else 0))

    def to_json(self) -> dict:
        factors = [{"poly": _binary_str(self.field, g),
                    "multiplicity": mu} for g, mu in self.factors]
        if self.inf_mult:
            factors.append({"poly": "u", "multiplicity": self.inf_mult})
        return {
            "degree": self.degree,
            "factors": factors,
            "sum_mu": self.sum_mu,
            "distinct_roots": self.distinct_roots,
        }


def _binary_str(field: Field, g: UniPoly) -> str:
    """Homogenize a monic parameter polynomial g(t) to a binary form in
    (u, v) with t = v/u."""
    s = g.degree
    parts = []
    for i in range(s, -1, -1):
        c = g[i]
        if field.is_zero(c):
            continue
        cs = field.scalar_str(c)
        mon = []
        if s - i:
            mon.append("u" + (f"^{s - i}" if s - i > 1 else ""))
        if i:
            mon.append("v" + (f"^{i}" if i > 1 else ""))
        body = "*".join(mon) if mon else "1"
        if cs == "1" and mon:
            parts.append(body)
        elif cs.startswith("-") and cs[1:] == "1" and mon:
            parts.append("-" + body)
        else:
            parts.append(f"{cs}*{body}" if mon else cs)
    out = parts[0]
    for p in parts[1:]:
        out += p if p.startswith("-") else "+" + p
    return out


def discriminant(P: PencilSpec) -> DiscriminantForm:
    """D(u, v) = Macaulay resultant of the partials of u*q1 + v*q2,
    reconstructed by interpolation at 3(k-1)^2 + 1 parameter samples."""
    F = P.field
    k = P.k
    if k < 2:
        raise ValueError("discriminant needs k >= 2")
    N = 3 * (k - 1) ** 2
    samples = []
    t = 0
    while len(samples) < N + 1:
        tv = F.coerce(t)
        member = build_member(P, tv)
        val = macaulay_resultant(*member.gradient())
        samples.append((tv, val))
        t += 1
    dhat = uni_interpolate(F, samples)
    if dhat.is_zero():
        raise ArithmeticError(
            "discriminant vanishes identically: every member is singular "
            "(the pencil has no 0-dimensional base locus)")
    if dhat.degree > N:
        raise ArithmeticError("discriminant degree exceeds 3(k-1)^2")
    inf_mult = N - dhat.degree
    if inf_mult:
        # the (0:1) member must really be singular
        if macaulay_resultant(*P.q2.gradient()) != F.zero():
            raise ArithmeticError(
                "degree drop without a singular member at (0:1)")
    factors = tuple(uni_squarefree(dhat))
    form = DiscriminantForm(F, k, dhat.monic(), inf_mult, factors)
    if form.sum_mu != N:
        raise ArithmeticError("discriminant multiplicities do not sum to "
                              "3(k-1)^2")
    return form


def base_locus_zero_dimensional(P: PencilSpec) -> bool:
    return homog_gcd(P.q1, P.q2).degree == 0


def genericity_check(P: PencilSpec, seed: int = 0) -> bool:
    """True iff the two generators meet transversely in exactly k^2 points:
    constant gcd, and (after one of ``GENERICITY_RETRIES`` random
    determinant-1 changes) a squarefree degree-k^2 resultant in one
    variable."""
    if not base_locus_zero_dimensional(P):
        return False
    F = P.field
    k = P.k
    rng = random.Random(seed)
    for attempt in range(GENERICITY_RETRIES):
        U = _unimodular(rng) if attempt else [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        u1 = P.q1.substitute(U)
        u2 = P.q2.substitute(U)
        pts = []
        ok = True
        for t in range(k * k + 1):
            # u(t, 1, z) as a univariate polynomial in z
            s1 = u1.restrict_to_line((t, 1, 0), (0, 0, 1))
            s2 = u2.restrict_to_line((t, 1, 0), (0, 0, 1))
            if s1.degree != k or s2.degree != k:
                ok = False
                break
            pts.append((F.coerce(t), s1.resultant(s2)))
        if not ok:
            continue
        r = uni_interpolate(F, pts)
        # a repeated root may be two base points sharing a projection, so
        # only a squarefree resultant decides; a tangency repeats under all
        if r.degree == k * k and r.gcd(r.derivative()).degree == 0:
            return True
    return False


# --------------------------------------------- splitting-field member scans

# Seed offsets of the splitting-prime streams: the first two give the voting
# primes, the third replaces the second when it draws the first's prime.
SPLIT_SEED_OFFSETS = (0, 104729, 1299709)
SPLIT_ATTEMPTS = 60  # primes drawn per stream


def _singular_members(P: PencilSpec, disc: DiscriminantForm,
                      Fp: PrimeField, rng):
    """The (multiplicity, member) pairs of the singular members of P over
    GF(p), or None if a discriminant root is not in GF(p)."""
    q1p, q2p = P.q1.map_field(Fp), P.q2.map_field(Fp)
    members = []
    for g, mu in disc.factors:
        gp = UniPoly(Fp, [Fp.coerce(c) for c in g.coeffs])
        if gp.degree != g.degree:
            return None
        roots = gp.roots_gfp(rng)
        if len(roots) != gp.degree:
            return None
        members += [(mu, q1p + q2p.scale(t0)) for t0 in roots]
    if disc.inf_mult:
        members.append((disc.inf_mult, q2p))
    return members


def _split_members(P: PencilSpec, disc: DiscriminantForm, seed: int = 0):
    """The sorted (multiplicity, tau, is_cone) list of the singular members
    of a rational pencil, voted by ``backend.agree`` over two primes where
    the discriminant roots all become rational, and those two primes.

    Each prime is the first of ``SPLIT_ATTEMPTS`` drawn from the seed plus
    one of ``SPLIT_SEED_OFFSETS`` that splits the roots into reduced
    members; a prime where a member is not reduced is skipped."""
    if P.field != QQ:
        raise ValueError("splitting scan starts from a rational pencil")
    votes = []  # (splitting field, member invariants), one per stream
    for offset in SPLIT_SEED_OFFSETS:
        if len(votes) == 2:
            if votes[0][0] != votes[1][0]:
                break
            votes.pop()  # the second stream drew the first prime again
        stream = seed + offset
        split = 0
        for p in random_primes(SPLIT_ATTEMPTS, seed=stream):
            Fp = PrimeField(p)
            try:
                members = _singular_members(P, disc, Fp,
                                            random.Random(stream ^ p))
            except (ZeroDivisionError, ValueError):
                continue
            if members is None:
                continue
            split += 1
            try:
                votes.append((Fp, sorted(
                    (mu, global_tjurina(m).tau, is_cone(m))
                    for mu, m in members)))
                break
            except NotReducedError:
                continue
        else:
            if split:
                raise NotReducedError(
                    "a singular member of the pencil is not reduced in each "
                    f"of the {split} splitting fields tried")
            raise ArithmeticError(
                f"none of the {SPLIT_ATTEMPTS} primes drawn from seed "
                f"{stream} splits the discriminant roots")
    return (agree("member invariants", [(F.tag, d) for F, d in votes]),
            tuple(F.p for F, _ in votes))


def total_mu_check(P: PencilSpec, seed: int = 0):
    """Sum of discriminant root multiplicities = 3(k-1)^2, with the
    distinct-root count (always >= 3); in the equality case every singular
    member is verified to be a cone (k concurrent lines)."""
    disc = discriminant(P)
    sum_mu = disc.sum_mu
    distinct = disc.distinct_roots
    ok = sum_mu == 3 * (P.k - 1) ** 2
    if distinct < 3:
        raise InconsistencyError(
            f"only {distinct} singular members in a generic pencil")
    if distinct == 3:
        data, _ = _split_members(P, disc, seed=seed)
        for mu, tau, cone in data:
            if not cone:
                raise InconsistencyError(
                    "three singular members but one is not a union of "
                    "concurrent lines")
    return sum_mu, distinct, ok


# ------------------------------------------------------------- classifiers

@dataclass
class PencilVerdict:
    condition1: bool
    members_cover_roots: bool
    tau_members: int
    tau_members_target: int
    free: bool
    exponents: tuple
    tau: int
    tau_target: int
    report: object
    splitting_primes: tuple

    def to_json(self):
        return {
            "condition1": self.condition1,
            "members_cover_roots": self.members_cover_roots,
            "tau_members": self.tau_members,
            "tau_members_target": self.tau_members_target,
            "free": self.free,
            "exponents": list(self.exponents),
            "tau": self.tau,
            "tau_target": self.tau_target,
            "report": self.report.to_json(),
            "splitting_primes": list(self.splitting_primes),
        }


def thmPEN_classify(spec: PencilProductSpec, backend: Backend | None = None,
                    seed: int = 0) -> PencilVerdict:
    """Equivalence for a generic pencil product: all singular members chosen
    and weighted homogeneous (certified by the tau/mu sum) if and only if the
    product is free with exponents (2k-2, mk-2k+1)."""
    P = spec.pencil
    k, m = P.k, spec.m
    if spec.h is not None:
        raise ValueError("the equivalence applies to pure pencil products")
    if m < 3 or k < 2:
        raise ValueError("need m >= 3 members of degree k >= 2")
    if not genericity_check(P, seed=seed):
        raise ValueError("pencil is not generic (transversality failed)")
    backend = backend or make_backend(seed=seed)
    disc = discriminant(P)
    # (a) every discriminant root is a chosen member
    chosen = spec.chosen_parameter_poly()
    rad = UniPoly.one(P.field)
    for g, _ in disc.factors:
        rad = rad * g
    covers = (chosen % rad).is_zero() if rad.degree else True
    if disc.inf_mult and not spec.include_q2:
        covers = False
    # (b) weighted homogeneity: total tau of singular members = total mu
    data, primes = _split_members(P, disc, seed=seed)
    tau_members = sum(tau for _, tau, _ in data)
    for mu, tau, _ in data:
        if tau > mu:
            raise InconsistencyError(
                f"member tau {tau} exceeds its discriminant multiplicity {mu}")
    target = 3 * (k - 1) ** 2
    condition1 = covers and tau_members == target
    f = build_product(spec)
    report = classify(f, backend)
    exps = tuple(sorted((2 * k - 2, m * k - 2 * k + 1)))
    free_match = (report.classification == "free"
                  and report.exponents == exps)
    if condition1 != free_match:
        raise InconsistencyError(
            f"pencil equivalence failed: condition (1)={condition1} but "
            f"classification is {report.classification} {report.exponents}")
    tau_target = target + k * k * (m - 1) ** 2
    if condition1 and report.tau != tau_target:
        raise InconsistencyError(
            f"free pencil product has tau={report.tau}, expected {tau_target}")
    return PencilVerdict(
        condition1=condition1,
        members_cover_roots=covers,
        tau_members=tau_members,
        tau_members_target=target,
        free=free_match,
        exponents=exps,
        tau=report.tau,
        tau_target=tau_target,
        report=report,
        splitting_primes=primes,
    )


@dataclass
class PencilCase:
    theorem: str
    case: str  # "generic" | "free" | "middle"
    r: int
    bounds: tuple
    report: object | None = None


def thm11_trichotomy(spec: PencilProductSpec,
                     backend: Backend | None = None) -> PencilCase:
    """Pure pencil products (m >= 3, k >= 2), seeded by the wedge syzygy:
    mdr = 2k-2, or m=3 and either mdr = k+1 with certified freeness
    (k >= 4), or k+2 <= mdr <= 2k-3."""
    P = spec.pencil
    k, m = P.k, spec.m
    if spec.h is not None:
        raise ValueError("thm11 applies to products without residual factor")
    if m < 3 or k < 2:
        raise ValueError("need m >= 3 members of degree k >= 2")
    if not base_locus_zero_dimensional(P):
        raise ValueError("pencil base locus is not 0-dimensional")
    backend = backend or make_backend(seed=0)
    f = build_product(spec)
    return PencilCase("thm11", *_trichotomy(
        f, 2 * k - 2, lambda: wedge_syzygy(P, f), backend))


def thm13_trichotomy(spec: PencilProductSpec,
                     backend: Backend | None = None) -> PencilCase:
    """Products with a residual factor h, seeded by the three-term syzygy:
    mdr = 2k-2+deg h = d-(m-2)k-2, or mdr = (m-2)k+1 with certified
    freeness, or strictly in between."""
    P = spec.pencil
    k, m = P.k, spec.m
    if spec.h is None:
        raise ValueError("thm13 needs a residual factor h")
    if m < 2:
        raise ValueError("need m >= 2 pencil members")
    backend = backend or make_backend(seed=0)
    f = build_product(spec)  # checks (q1, q2, h) share no zero
    return PencilCase("thm13", *_trichotomy(
        f, 2 * k - 2 + spec.h.degree, lambda: lemma2_syzygy(P, spec.h, m, f),
        backend))
