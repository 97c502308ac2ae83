"""Workloads of the jacsyz benchmark.

A workload is a deck of rounds.  Every round holds the same stated mix of
input kinds ("strata"), drawn afresh from the seed; the timed loop runs
whole rounds, cycling through the deck, so every run measures the stated mix.
Each job is one user request against the public API, and every job output is
checked after the timed loop by an exact oracle that does not trust it.

Job functions look their API entry points up at call time (``jacsyz.x``,
``arrangements.x``), so the traced run's rebinding reaches them.
"""

from __future__ import annotations

import random
import time
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

import jacsyz
from jacsyz import arrangements, poly

ROUNDS_IN_DECK = 10  # distinct rounds drawn per seed; the loop cycles them


# ---------------------------------------------------------------------------
# exact projective helpers of the benchmark's own (independent of jacsyz)
# ---------------------------------------------------------------------------

def _normalize(v):
    """Projective normal form over Q: first nonzero entry scaled to 1."""
    v = tuple(Fraction(x) for x in v)
    lead = next(x for x in v if x)
    return tuple(x / lead for x in v)


def _cross(a, b):
    return (a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


DENSE = (-3, -2, -1, 1, 2, 3)


def _coefficient(rng, dense):
    """Integer in [-3, 3]; nonzero if ``dense``."""
    return rng.choice(DENSE) if dense else rng.randint(-3, 3)


def _covector(rng, dense):
    while True:
        c = tuple(_coefficient(rng, dense) for _ in range(3))
        if any(c):
            return c


def random_lines(rng, n, dense=False):
    """``n`` projectively distinct integer covectors in [-3, 3]^3."""
    lines = {}
    while len(lines) < n:
        c = _covector(rng, dense)
        lines.setdefault(_normalize(c), c)
    return tuple(lines.values())


def intersection_points(lines):
    """Normalized intersection point -> number of lines through it."""
    incid = {}
    for a, b in combinations(lines, 2):
        incid.setdefault(_normalize(_cross(a, b)), set()).update((a, b))
    return {p: len(s) for p, s in incid.items()}


def cone_lines_added(lines, apex):
    """Number of distinct lines joining ``apex`` to the intersection points."""
    points = intersection_points(lines)
    return len({_normalize(_cross(apex, p)) for p in points})


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

@dataclass
class Input:
    """One job's input: ``raw`` is plain data (what the seed determines),
    ``obj`` the program objects built from it during set-up."""

    kind: str        # cone | arrangement | pencil | rational
    label: str       # stratum, e.g. "d=15" or "pencil k=4"
    degree: int      # degree of the curve or pencil handed to the program
    raw: tuple
    expect: dict     # values the benchmark derived on its own
    obj: dict = field(default_factory=dict)


def _cone_input(rng, e, d):
    """Random arrangement of e lines plus an apex with entries in [1, 7] on
    none of them (as suite criterion 10-cones draws), whose cone has
    degree d."""
    while True:
        lines = random_lines(rng, e)
        if len(intersection_points(lines)) < 2:
            continue
        apex = tuple(rng.randint(1, 7) for _ in range(3))
        if any(sum(a * b for a, b in zip(l, apex)) == 0 for l in lines):
            continue
        m = cone_lines_added(lines, apex)
        if e + m != d:
            continue
        return Input("cone", f"d={d}", d, (lines, apex), {
            "d": d, "tau": (d - 1) ** 2 - e * (m - 1),
            "exponents": tuple(sorted((e, m - 1)))})


def _arrangement_input(rng, d, m_max, kind="arrangement"):
    """Random arrangement of d lines whose highest point multiplicity is
    m_max (which bounds mdr <= d - m_max, so it sets the job's cost).  Over Q
    the cost also grows with the number of nonzero coefficients, so rational
    jobs get covectors without zero entries."""
    while True:
        lines = random_lines(rng, d, dense=kind == "rational")
        mult = intersection_points(lines).values()
        if max(mult) == m_max:
            label = f"d={d} over Q" if kind == "rational" else f"d={d}"
            return Input(kind, label, d, (lines,),
                         {"tau": sum((m - 1) ** 2 for m in mult)})


def _form(rng, k):
    """Degree-k form with every coefficient in [-3, 3] nonzero: over Q the
    cost of a discriminant grows with the number of terms."""
    return {m: _coefficient(rng, True) for m in poly.monomials(k)}


def _pencil_input(rng, k):
    while True:
        q1, q2 = _form(rng, k), _form(rng, k)
        # proportional members do not span a pencil; redraw
        if len({Fraction(q2[m], q1[m]) for m in q1}) > 1:
            break
    raw = tuple(tuple(sorted(q.items())) for q in (q1, q2))
    return Input("pencil", f"pencil k={k}", k, raw,
                 {"degree": 3 * (k - 1) ** 2})


def draw(rng, stratum):
    """One input of ``stratum``: (kind, *parameters of its generator)."""
    kind, *params = stratum
    if kind == "cone":
        return _cone_input(rng, *params)
    if kind == "pencil":
        return _pencil_input(rng, *params)
    return _arrangement_input(rng, *params, kind)


def build_objects(inp):
    """Program objects of one input (part of set-up)."""
    QQ = jacsyz.QQ
    if inp.kind == "pencil":
        q1, q2 = (jacsyz.HomogPoly(QQ, inp.degree, dict(q)) for q in inp.raw)
        inp.obj["pencil"] = jacsyz.PencilSpec(q1, q2)
    else:
        inp.obj["arrangement"] = jacsyz.LineArrangement(
            QQ, [tuple(Fraction(c) for c in l) for l in inp.raw[0]])
        if inp.kind == "cone":
            inp.obj["apex"] = tuple(Fraction(c) for c in inp.raw[1])


# ---------------------------------------------------------------------------
# jobs: one user request each, returning a comparable output
# ---------------------------------------------------------------------------

@dataclass
class Context:
    """Backends built during set-up, and the oracles' cache."""

    modular: object
    rational: object
    reference: dict = field(default_factory=dict)


def _report_out(rep):
    """(class, exponents, tau, mdr, certificate field, certificate)"""
    cert = rep.certificate
    return (rep.classification, rep.exponents, rep.tau, rep.mdr,
            cert.field.tag if cert else None,
            tuple(sorted(cert.to_json().items())) if cert else None)


def _cone_job(inp, ctx):
    B, sk = jacsyz.cone_construction(inp.obj["arrangement"], inp.obj["apex"])
    rep = jacsyz.classify(B.f, ctx.modular)
    return {"out": _report_out(rep) + ((sk.d, sk.expected_tau,
                                        sk.expected_exponents),)}


def _arrangement_job(inp, ctx):
    A = inp.obj["arrangement"]
    lat = arrangements.lattice(A)
    tau_comb = jacsyz.tau_combinatorial(A)
    rep = jacsyz.classify(A.f, ctx.modular)
    tri = jacsyz.trichotomy(A, lat.points[0], ctx.modular)
    return {"out": _report_out(rep) + (tau_comb, tri.case, tri.r, tri.m),
            "cert": rep.certificate}


def _pencil_job(inp, ctx):
    D = jacsyz.discriminant(inp.obj["pencil"])
    return {"out": (D.degree, D.sum_mu, D.distinct_roots, D.inf_mult,
                    tuple(sorted((g.degree, mu) for g, mu in D.factors)))}


def _rational_job(inp, ctx):
    rep = jacsyz.classify(inp.obj["arrangement"].f, ctx.rational)
    return {"out": _report_out(rep)}


JOBS = {"cone": _cone_job, "arrangement": _arrangement_job,
        "pencil": _pencil_job, "rational": _rational_job}


def job_class(inp, result):
    """Class of the curve a job classified (free, nearly-free, neither, cone),
    or "pencil" for a discriminant job."""
    return "pencil" if inp.kind == "pencil" else result["out"][0]


# ---------------------------------------------------------------------------
# oracles: None if the job output is right, else the reason it is not
# ---------------------------------------------------------------------------

def oracle(inp, result, ctx):
    out = result["out"]
    e = inp.expect
    if inp.kind == "cone":
        cls, exps, tau = out[0], out[1], out[2]
        sk_d, sk_tau, sk_exps = out[-1]
        if (sk_d, sk_tau, sk_exps) != (e["d"], e["tau"], e["exponents"]):
            return f"cone skeleton {out[-1]} != {e}"
        if cls != "free" or exps != e["exponents"] or tau != e["tau"]:
            return f"cone classified {cls} {exps} tau={tau}, expected {e}"
        return None
    if inp.kind == "pencil":
        degree, sum_mu, distinct = out[0], out[1], out[2]
        if not degree == sum_mu == e["degree"] or distinct < 3:
            return (f"discriminant degree={degree} sum_mu={sum_mu} "
                    f"distinct={distinct}, expected {e['degree']}")
        return None
    if inp.kind == "arrangement":
        tau, mdr, tau_comb = out[2], out[3], out[6]
        if not tau == tau_comb == e["tau"]:
            return f"Hilbert tau {tau}, tau_combinatorial {tau_comb}, " \
                   f"expected {e['tau']}"
        cert = result["cert"]
        if cert is None or cert.degree != mdr:
            return f"no certificate of degree mdr={mdr}"
        f = inp.obj["arrangement"].f.map_field(cert.field)
        if not jacsyz.verify_syzygy(f, cert):
            return "certificate fails verify_syzygy"
        return None
    # rational classify: must agree with the modular backend and the lattice
    key = inp.raw
    if key not in ctx.reference:
        ref = jacsyz.classify(inp.obj["arrangement"].f, ctx.modular)
        ctx.reference[key] = (ref.mdr, ref.tau, ref.classification)
    got = (out[3], out[2], out[0])
    if got != ctx.reference[key] or out[2] != e["tau"]:
        return (f"rational (mdr, tau, class) {got}, modular "
                f"{ctx.reference[key]}, lattice tau {e['tau']}")
    return None


# ---------------------------------------------------------------------------
# workload definitions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    """A stated mix; BENCHMARK.json gives the reason for each workload."""

    name: str
    strata: tuple      # ((stratum, jobs per round), ...)
    tail_pct: int      # percentile of job_tail_s, fixed so runs compare
    trace_rounds: int  # rounds of a traced run, fixed so counts compare

    @property
    def round_size(self):
        return sum(n for _, n in self.strata)

    @property
    def min_jobs(self):
        """Fewest jobs that leave at least ten beyond ``tail_pct``."""
        n = 10
        while n - percentile_rank(self.tail_pct, n) < 10:
            n += 1
        return n


def percentile_rank(pct, n):
    """Nearest rank (1-based) of the ``pct``-th percentile of ``n`` values."""
    return max(1, -(-pct * n // 100))


# Each stratum's jobs per round are its share of the issue's random draw
# times the round size, rounded by largest remainder, so the rarest strata
# get no slot.  Shares measured from 20000 draws with these
# generators (tests/test_perfbench.py checks the counts against a sample).
WORKLOADS = {
    # e uniform in {3, 4, 5}: e=3 d=6 33.3%, e=4 d=8 4.6%, e=4 d=10 29.0%,
    # e=5 d=13 9.0%, e=5 d=15 19.5%; left out: e=4 d=9, e=5 d=10-12 and
    # d=14 (9.5% together), so e=5 has 3 of 12 jobs, not 4.  p79 is the
    # highest percentile with ten jobs beyond it in the shortest run (four
    # rounds, 48 jobs, 12 of them e=5), so job_tail_s is an e=5 job: the
    # 11th slowest, a d=13 cone (d=13 and d=15 jobs are slower than all
    # others).  The median falls inside the d=10 stratum.
    "free_curves": Workload("free_curves", (
        (("cone", 3, 6), 4), (("cone", 4, 8), 1), (("cone", 4, 10), 4),
        (("cone", 5, 13), 1), (("cone", 5, 15), 2)), 79, 3),
    # d uniform in 6..11, four jobs per degree, split by the highest point
    # multiplicity m (which bounds mdr <= d - m, so it moves the cost): m=2
    # 15.7%, m=3 62.7%, m=4 19.0% of all draws; m >= 5 (2.5%) gets no slot.
    # One Q-pencil discriminant and one rational-backend classify per round
    # keep the exact kernels measured.  The median falls among the d=8 jobs
    # and the tail percentile (p90, the highest with ten jobs beyond it in
    # the shortest run of four rounds) among the d=11 jobs.
    "generic_arrangements": Workload("generic_arrangements", (
        (("arrangement", 6, 2), 2), (("arrangement", 6, 3), 2),
        (("arrangement", 7, 2), 1), (("arrangement", 7, 3), 3),
        (("arrangement", 8, 3), 3), (("arrangement", 8, 4), 1),
        (("arrangement", 9, 3), 3), (("arrangement", 9, 4), 1),
        (("arrangement", 10, 3), 3), (("arrangement", 10, 4), 1),
        (("arrangement", 11, 3), 2), (("arrangement", 11, 4), 2),
        (("pencil", 3), 1), (("rational", 4, 3), 1)), 90, 4),
}


def generate(workload, seed):
    """The deck of raw inputs for ``seed``: ``ROUNDS_IN_DECK`` rounds, each
    with the workload's stated mix in a seeded order.  Plain data only."""
    rng = random.Random(f"{workload.name}:{seed}")
    deck = []
    for _ in range(ROUNDS_IN_DECK):
        rnd = [draw(rng, s) for s, n in workload.strata for _ in range(n)]
        rng.shuffle(rnd)
        deck.append(rnd)
    return deck


def setup(workload_name, seed):
    """Everything before the first job: backends with their primes, the
    inputs and their program objects.  Also returns the seconds spent
    drawing the inputs, which is the benchmark's work, not the program's."""
    workload = WORKLOADS[workload_name]
    ctx = Context(jacsyz.make_backend(seed=seed),
                  jacsyz.make_backend("rational"))
    t0 = time.perf_counter()
    deck = generate(workload, seed)
    generate_s = time.perf_counter() - t0
    for rnd in deck:
        for inp in rnd:
            build_objects(inp)
    return workload, deck, ctx, generate_s


def input_properties(inputs, results):
    """Degree histogram and class shares of the jobs that ran."""
    degrees = Counter(inp.label for inp in inputs)
    classes = Counter("error" if "error" in res else job_class(inp, res)
                      for inp, res in zip(inputs, results))
    n = len(inputs)
    return {"degree_histogram": dict(sorted(degrees.items())),
            "class_share": {c: k / n for c, k in sorted(classes.items())}}


# ---------------------------------------------------------------------------
# the timed loop
# ---------------------------------------------------------------------------

def run_loop(wl, deck, ctx, seconds=None, rounds=None, tracer=None):
    """Closed loop over whole rounds.  Without ``rounds``, stop after the
    first round that ends past ``seconds`` with at least ``wl.min_jobs``
    jobs done.  Returns (inputs, results, job seconds, rounds, loop wall)."""
    inputs, results, times = [], [], []
    start = time.perf_counter()
    r = 0

    def done():
        if rounds is not None:
            return r == rounds
        return (time.perf_counter() - start >= seconds
                and len(results) >= wl.min_jobs)

    while not done():
        for inp in deck[r % len(deck)]:
            job = JOBS[inp.kind]
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    res = job(inp, ctx)
                else:
                    with tracer.job_span(len(results)):
                        res = job(inp, ctx)
            except Exception as exc:  # a failed job; the run goes on
                res = {"error": f"{type(exc).__name__}: {exc}"}
            times.append(time.perf_counter() - t0)
            inputs.append(inp)
            results.append(res)
        r += 1
    return inputs, results, times, r, time.perf_counter() - start


def check(inputs, results, ctx):
    """Oracle verdict per job: None if right, else the reason."""
    verdicts = []
    for inp, res in zip(inputs, results):
        if "error" in res:
            verdicts.append(res["error"])
        else:
            verdicts.append(oracle(inp, res, ctx))
    return verdicts


def comparable(results):
    return [res.get("error") or res["out"] for res in results]


def percentile(values, pct):
    return sorted(values)[percentile_rank(pct, len(values)) - 1]
