"""Tangent-line arrangements over a nodal or cuspidal curve: build the union
of an irreducible curve with all simple tangents and node/cusp secants from an
external apex, validate the tangency data line by line, and certify freeness
with the predicted exponents and Tjurina ledger.

Generic tangency data is usually irrational, so instances are found by
searching primes until the tangent parameters split over GF(p); exact
rational data is accepted as-is.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .arrangements import _cross, _dot, _normalize
from .fields import Field, PrimeField, random_primes
from .poly import HomogPoly
from .tjurina import InconsistencyError, classify
from .uni import UniPoly, uni_interpolate, uni_squarefree

__all__ = [
    "TangentConeSpec",
    "TangentValidationError",
    "tangent_arrangement",
    "find_tangent_instance",
    "nodal_cubic",
    "cuspidal_cubic",
]


class TangentValidationError(ValueError):
    """A tangency hypothesis failed; the message names the violated one."""


@dataclass
class TangentConeSpec:
    """An irreducible curve h of degree e with delta nodes and kappa cusps,
    an apex off the curve, and the lines through the apex: simple tangents,
    node secants, and cusp secants (as covectors)."""

    h: HomogPoly
    apex: tuple
    nodes: tuple  # projective points
    cusps: tuple
    tangents: tuple  # covectors
    node_secants: tuple
    cusp_secants: tuple

    def __post_init__(self):
        F = self.h.field
        self.apex = _normalize(F, self.apex)
        self.nodes = tuple(_normalize(F, q) for q in self.nodes)
        self.cusps = tuple(_normalize(F, q) for q in self.cusps)
        self.tangents = tuple(_normalize(F, c) for c in self.tangents)
        self.node_secants = tuple(_normalize(F, c) for c in self.node_secants)
        self.cusp_secants = tuple(_normalize(F, c) for c in self.cusp_secants)

    @property
    def e(self) -> int:
        return self.h.degree

    @property
    def delta(self) -> int:
        return len(self.nodes)

    @property
    def kappa(self) -> int:
        return len(self.cusps)

    @property
    def m0(self) -> int:
        return self.e * (self.e - 1) - 2 * self.delta - 3 * self.kappa

    def all_lines(self):
        return self.tangents + self.node_secants + self.cusp_secants

    @property
    def m(self) -> int:
        return len(self.all_lines())

    @property
    def d(self) -> int:
        return self.e + self.m

    @property
    def expected_exponents(self) -> tuple:
        e = self.e
        return (e, e * e - e - 1 - self.delta - 2 * self.kappa)


def _line_points(field, cov, apex):
    """The apex and a second point on a line through it."""
    # second point: cross of the covector with any covector not proportional
    for probe in ((field.one(), field.zero(), field.zero()),
                  (field.zero(), field.one(), field.zero()),
                  (field.zero(), field.zero(), field.one())):
        q = _cross(cov, probe)
        if any(not field.is_zero(v) for v in q):
            q = _normalize(field, q)
            if q != apex:
                return q
    raise ArithmeticError("degenerate line covector")


def _restriction_profile(h: HomogPoly, cov, apex):
    """Squarefree profile of h restricted to the line: list of
    (root multiplicity, point on the line) plus a flag for a root at the
    second chart point."""
    F = h.field
    q = _line_points(F, cov, apex)
    # parameterize as q + s * apex; s = inf is the apex itself, not on H
    r = h.restrict_to_line(q, apex)
    if r.degree != h.degree:
        raise TangentValidationError(
            "restriction drops degree: the apex lies on the curve")
    out = []
    for g, mult in uni_squarefree(r):
        if not isinstance(F, PrimeField):
            roots = _rational_roots(g)
        else:
            roots = g.roots_gfp()
        if len(roots) != g.degree:
            raise TangentValidationError(
                "restriction roots do not split over the base field")
        for s0 in roots:
            pt = _normalize(F, tuple(
                F.add(a, F.mul(s0, b)) for a, b in zip(q, apex)))
            out.append((mult, pt))
    return out


def _rational_roots(g: UniPoly):
    """The root of a squarefree factor g over Q, which must be linear:
    rational tangency data is accepted only when every squarefree factor of
    a restriction is linear, and TangentValidationError is raised
    otherwise."""
    F = g.field
    if g.degree != 1:
        raise TangentValidationError(
            "irrational tangency data over Q; use a prime-field instance")
    return [F.div(F.neg(g[0]), g[1])]


def tangent_arrangement(spec: TangentConeSpec, backend=None):
    """Validate every tangency hypothesis, build f = h * product of lines,
    and certify freeness with exponents (e, e^2-e-1-delta-2kappa) and the
    per-line Tjurina ledger."""
    F = spec.h.field
    e = spec.e
    if e < 3:
        raise TangentValidationError("the construction requires degree e >= 3")
    if F.is_zero(spec.h.evaluate(spec.apex)):
        raise TangentValidationError("apex lies on the curve")
    lines = spec.all_lines()
    if len(set(lines)) != len(lines):
        raise TangentValidationError("repeated lines")
    if len(spec.tangents) != spec.m0:
        raise TangentValidationError(
            f"expected m0 = e(e-1)-2delta-3kappa = {spec.m0} simple "
            f"tangents, got {len(spec.tangents)}")
    for cov in lines:
        if not F.is_zero(_dot(F, cov, spec.apex)):
            raise TangentValidationError("a line misses the apex")
    singular = set(spec.nodes) | set(spec.cusps)
    grad = spec.h.gradient()
    for q in singular:
        if not F.is_zero(spec.h.evaluate(q)) or any(
                not F.is_zero(g.evaluate(q)) for g in grad):
            raise TangentValidationError(
                "a declared node/cusp is not a singular point of the curve")
    # per-line restriction profiles
    for cov in spec.tangents:
        prof = _restriction_profile(spec.h, cov, spec.apex)
        doubles = [pt for mult, pt in prof if mult == 2]
        if (len(doubles) != 1 or any(m > 2 for m, _ in prof)
                or sum(m for m, _ in prof) != e):
            raise TangentValidationError(
                "tangent line does not meet the curve with a single "
                "contact of order two")
        if doubles[0] in singular:
            raise TangentValidationError(
                "tangent contact point is a singular point")
    for cov in spec.node_secants:
        _check_secant(spec, cov, set(spec.nodes), "node")
    for cov in spec.cusp_secants:
        _check_secant(spec, cov, set(spec.cusps), "cusp")
    for q in singular:
        if not any(F.is_zero(_dot(F, cov, q))
                   for cov in spec.node_secants + spec.cusp_secants):
            raise TangentValidationError(
                "a singular point has no secant line through it")
    f = spec.h
    for cov in lines:
        f = f * HomogPoly.linear(F, cov)
    report = classify(f, backend)
    exps = spec.expected_exponents
    if report.classification != "free" or report.exponents != exps:
        raise InconsistencyError(
            f"tangent arrangement not free with exponents {exps}: got "
            f"{report.classification} {report.exponents}")
    ledger = ((spec.m - 1) ** 2 + spec.m0 * (e + 1)
              + spec.delta * (e + 2) + spec.kappa * (e + 3))
    if ledger != report.tau:
        raise InconsistencyError(
            f"Tjurina ledger {ledger} != global value {report.tau}")
    return f, exps, {
        "e": e, "delta": spec.delta, "kappa": spec.kappa,
        "m0": spec.m0, "m": spec.m, "d": spec.d,
        "tau": report.tau, "ledger": ledger, "report": report,
    }


def _check_secant(spec, cov, points, kind):
    F = spec.h.field
    through = [q for q in points if F.is_zero(_dot(F, cov, q))]
    if len(through) != 1:
        raise TangentValidationError(
            f"{kind} secant must pass through exactly one {kind}")
    prof = _restriction_profile(spec.h, cov, spec.apex)
    target = through[0]
    for mult, pt in prof:
        if pt == target:
            if mult != 2:
                raise TangentValidationError(
                    f"{kind} secant is not transversal at the {kind}: "
                    f"intersection multiplicity {mult}")
        elif mult != 1:
            raise TangentValidationError(
                f"{kind} secant has an extra tangency away from the {kind}")


# ------------------------------------------------------- instance search

def nodal_cubic(F: Field) -> tuple:
    """z*y^2 - x^2*(x+z): one node at (0:0:1)."""
    h = (HomogPoly.variable(F, 2) * HomogPoly.variable(F, 1) ** 2
         - HomogPoly.variable(F, 0) ** 2
         * (HomogPoly.variable(F, 0) + HomogPoly.variable(F, 2)))
    return h, ((0, 0, 1),), ()


def cuspidal_cubic(F: Field) -> tuple:
    """y^2*z - x^3: one cusp at (0:0:1)."""
    h = (HomogPoly.variable(F, 1) ** 2 * HomogPoly.variable(F, 2)
         - HomogPoly.variable(F, 0) ** 3)
    return h, (), ((0, 0, 1),)


def _tangent_parameters(h: HomogPoly, apex, A, B):
    """Discriminant of the family of restrictions to the lines through the
    apex, as a polynomial in the pencil parameter t (line through A + t*B),
    reconstructed by interpolation."""
    F = h.field
    e = h.degree
    bound = 2 * e * (e - 1)
    samples = []
    t = 0
    while len(samples) < bound + 1:
        tv = F.coerce(t)
        q = tuple(F.add(a, F.mul(tv, b)) for a, b in zip(A, B))
        r = h.restrict_to_line(q, apex)
        if r.degree == e:
            samples.append((tv, r.resultant(r.derivative())))
        t += 1
        if t > bound + 20:
            raise ArithmeticError("could not collect discriminant samples")
    return uni_interpolate(F, samples)


PRIME_ATTEMPTS = 25  # primes tried by find_tangent_instance
APEX_ATTEMPTS = 40  # apexes tried per prime


def find_tangent_instance(kind: str = "nodal",
                          seed: int = 0) -> TangentConeSpec:
    """Search primes and apexes until every tangent line from the apex is
    rational over GF(p) and the multiplicity census matches
    e(e-1) = m0 + 2*delta + 3*kappa."""
    maker = {"nodal": nodal_cubic, "cuspidal": cuspidal_cubic}[kind]
    rng = random.Random(seed)
    for p in random_primes(PRIME_ATTEMPTS, seed=seed):
        F = PrimeField(p)
        h, nodes, cusps = maker(F)
        e = h.degree
        nodes = tuple(_normalize(F, q) for q in nodes)
        cusps = tuple(_normalize(F, q) for q in cusps)
        delta, kappa = len(nodes), len(cusps)
        m0 = e * (e - 1) - 2 * delta - 3 * kappa
        for _ in range(APEX_ATTEMPTS):
            apex = (F.coerce(rng.randrange(1, p)),
                    F.coerce(rng.randrange(p)), F.one())
            if F.is_zero(h.evaluate(apex)):
                continue
            spec = _instance_at(h, nodes, cusps, apex, m0, rng)
            if spec is not None:
                return spec
    raise ArithmeticError(f"no {kind} instance found; raise the budgets")


def _instance_at(h, nodes, cusps, apex, m0, rng):
    F = h.field
    e = h.degree
    apex = _normalize(F, apex)
    # chart: lines through the apex hit {x = 0} at A + t*B; pick random
    # chart points so the single missed line (apex to B) is not special
    if F.is_zero(apex[0]):
        return None
    p = F.p
    a, b = rng.randrange(p), rng.randrange(p)
    if a == b:
        return None
    A = (F.zero(), F.one(), F.coerce(a))
    B = (F.zero(), F.one(), F.coerce(b))
    try:
        disc = _tangent_parameters(h, apex, A, B)
    except ArithmeticError:
        return None
    if disc.is_zero() or disc.degree != e * (e - 1):
        return None
    by_mult = {1: [], 2: [], 3: []}
    total = 0
    for g, mult in uni_squarefree(disc):
        roots = g.roots_gfp(rng)
        if len(roots) != g.degree or mult > 3:
            return None
        total += mult * g.degree
        by_mult[mult].extend(roots)
    if total != disc.degree:
        return None
    if (len(by_mult[1]) != m0 or len(by_mult[2]) != len(nodes)
            or len(by_mult[3]) != len(cusps)):
        return None

    def line(t0):
        q = tuple(F.add(a, F.mul(t0, b)) for a, b in zip(A, B))
        return _normalize(F, _cross(apex, q))

    spec = TangentConeSpec(
        h=h, apex=apex, nodes=nodes, cusps=cusps,
        tangents=tuple(line(t) for t in by_mult[1]),
        node_secants=tuple(line(t) for t in by_mult[2]),
        cusp_secants=tuple(line(t) for t in by_mult[3]),
    )
    # double roots must be the node secants, triple roots the cusp secants
    for cov, pts in ((spec.node_secants, nodes), (spec.cusp_secants, cusps)):
        for c in cov:
            if not any(F.is_zero(_dot(F, c, q)) for q in pts):
                return None
    return spec
