"""The twelve-criterion verification suite: each criterion is a pure function
that raises AssertionError (or an engine error) on failure and returns a small
detail dict on success.  Shared by the CLI ``suite`` verb and the acceptance
tests.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction

from .arrangements import (LineArrangement, _dot, cone_construction,
                           lattice_isomorphic, multiplicity_bound_check,
                           point_syzygy, tau_combinatorial, trichotomy)
from .backend import compute, make_backend
from .fields import QQ
from .fixtures import get_fixture
from .pencils import (PencilProductSpec, discriminant, thm11_trichotomy,
                      thmPEN_classify, total_mu_check, wedge_syzygy)
from .syzygy import ar_dimension, is_primitive, mdr, verify_syzygy
from .tangent import find_tangent_instance, tangent_arrangement
from .tjurina import classify, dpw_bounds, global_tjurina


def _expect(cond, msg):
    if not cond:
        raise AssertionError(msg)


def _check_fixture(name, seed):
    fx = get_fixture(name, seed=seed)
    rep = classify(fx.f, make_backend(seed=seed))
    e = fx.expected
    _expect(rep.classification == e["class"]
            and rep.exponents == e.get("exponents")
            and rep.tau == e["tau"] and rep.mdr == e["mdr"],
            f"{name}: got {rep.classification} {rep.exponents} "
            f"tau={rep.tau} mdr={rep.mdr}, expected {e}")
    return fx, rep


def criterion_1_ex1(seed=0):
    """ex1: free (2,3), mdr 2, tau 19 by both computations"""
    fx, rep = _check_fixture("ex1", seed)
    _expect(tau_combinatorial(fx.arrangement) == 19, "lattice tau != 19")
    prof = global_tjurina(fx.f, make_backend(seed=seed))
    _expect(prof.tau == 19, "Hilbert tau != 19")
    return {"tau": rep.tau, "exponents": rep.exponents}


def criterion_2_ex2(seed=0):
    """ex2a/ex2b: free (3,4) tau 37 and (3,5) tau 49; trichotomy case (1)"""
    out = {}
    for name in ("ex2a", "ex2b"):
        fx, rep = _check_fixture(name, seed)
        lat = fx.arrangement.lattice()
        tr = trichotomy(fx.arrangement, lat.points[0], make_backend(seed=seed))
        _expect(tr.case == 1 and tr.r == 3,
                f"{name}: trichotomy case {tr.case}, r={tr.r}")
        out[name] = {"tau": rep.tau, "case": tr.case}
    return out


def criterion_3_ex3(seed=0):
    """ex3 (d=19): free (9,9), tau 243, trichotomy case (2)"""
    fx, rep = _check_fixture("ex3", seed)
    lat = fx.arrangement.lattice()
    p6 = lat.points[0]
    _expect(p6.multiplicity == 6, "top multiplicity != 6")
    tr = trichotomy(fx.arrangement, p6, make_backend(seed=seed))
    _expect(tr.case == 2 and tr.m <= tr.r <= tr.d - tr.m - 1,
            f"trichotomy case {tr.case}, r={tr.r}")
    return {"tau": rep.tau, "case": tr.case, "r": tr.r}


def criterion_4_ex5(seed=0):
    """ex5: free (4,4); multiplicity bound equality m = 2d/(d1+2)"""
    fx, rep = _check_fixture("ex5", seed)
    m, rhs, ok = multiplicity_bound_check(fx.arrangement)
    _expect(ok and Fraction(m) == rhs, f"bound not an equality: {m} vs {rhs}")
    return {"tau": rep.tau, "m": m, "bound": str(rhs)}


def criterion_5_ex12i(seed=0):
    """ex12(i) k=2..5 free (k+1, 2k-2); extended variant free (k+1, 2k+1)"""
    out = {}
    for k in (2, 3, 4, 5):
        _, rep = _check_fixture(f"ex12i:{k}", seed)
        out[f"k={k}"] = rep.exponents
    _, rep = _check_fixture("ex12ix:3", seed)
    out["extended"] = rep.exponents
    return out


def criterion_6_ex12ii(seed=0):
    """ex12(ii): mdr 4, tau 156, free (4,10); primitive wedge spans AR_4"""
    fx, rep = _check_fixture("ex12ii", seed)
    w = wedge_syzygy(fx.pencil, fx.f)
    _expect(w.degree == 4 and is_primitive(w), "wedge not primitive degree 4")
    backend = make_backend(seed=seed)
    dim = backend.vote(lambda g: ar_dimension(g, 4), fx.f, what="dim AR_4")
    _expect(dim == 1, f"dim AR_4 = {dim} != 1")
    return {"tau": rep.tau, "wedge_degree": w.degree, "dim_AR4": dim}


def criterion_7_ex14ii(seed=0):
    """ex14(ii) m=3..6 nearly free (2,m) tau m^2+2; primed variant free"""
    out = {}
    for m in (3, 4, 5, 6):
        _, rep = _check_fixture(f"ex14ii:{m}", seed)
        _expect(rep.tau == m * m + 2, f"tau != m^2+2 at m={m}")
        out[f"m={m}"] = rep.tau
    for m in (4, 5):
        _, rep = _check_fixture(f"ex14iip:{m}", seed)
        out[f"primed m={m}"] = rep.exponents
    return out


def criterion_8_discriminants(seed=0):
    """Hesse discriminant degree 12, multiplicities {3,3,3,3}; Fermat pencil
    equality case with concurrent-line members"""
    hesse = get_fixture("hesse").pencil
    disc = discriminant(hesse)
    per_root = sorted(sum(([m] * g.degree for g, m in disc.factors), [])
                      + ([disc.inf_mult] if disc.inf_mult else []))
    _expect(disc.degree == 12 and per_root == [3, 3, 3, 3]
            and disc.distinct_roots == 4,
            f"Hesse discriminant degree {disc.degree}, roots {per_root}")
    for k in (2, 3):
        P = get_fixture(f"fermat:{k}").pencil
        sum_mu, distinct, ok = total_mu_check(P, seed=seed)
        _expect(ok and distinct == 3,
                f"fermat:{k} total mu {sum_mu}, distinct {distinct}")
    return {"hesse_roots": per_root, "fermat": "equality case verified"}


def criterion_9_thmPEN(seed=0):
    """thmPEN both directions: Hesse m=5 free (4,10); m=4 not free"""
    fx5 = get_fixture("ex12ii")
    v5 = thmPEN_classify(fx5.spec, seed=seed)
    _expect(v5.condition1 and v5.free and v5.tau == 156,
            f"m=5 verdict {v5.condition1}, {v5.free}, tau={v5.tau}")
    spec4 = PencilProductSpec(fx5.spec.pencil, groups=fx5.spec.groups)
    v4 = thmPEN_classify(spec4, seed=seed)
    _expect(not v4.condition1 and not v4.free,
            f"m=4 verdict {v4.condition1}, {v4.free}")
    c4 = thm11_trichotomy(spec4)
    _expect(c4.case == "generic" and c4.r == 4,
            f"m=4 mdr={c4.r}, expected 2k-2=4")
    return {"m5": "free (4,10)", "m4": f"not free, mdr={c4.r}"}


def _random_arrangement(rng, d):
    covs = set()
    guard = 0
    while len(covs) < d:
        covs.add((Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3)),
                  Fraction(rng.randint(-3, 3))))
        covs = {c for c in covs if any(c)}
        guard += 1
        if guard > 200:
            raise ArithmeticError("random arrangement generation stalled")
    try:
        return LineArrangement(QQ, sorted(covs))
    except ValueError:
        return _random_arrangement(rng, d)


def criterion_10_cones(seed=0):
    """Cone construction free with exponents {e, m-1} on 5 random inputs"""
    rng = random.Random(seed + 10)
    done = 0
    results = []
    while done < 5:
        A = _random_arrangement(rng, rng.randint(3, 6))
        if len(A.lattice().points) < 2:
            continue
        apex = (Fraction(rng.randint(1, 7)), Fraction(rng.randint(1, 7)),
                Fraction(rng.randint(1, 7)))
        if any(l.contains(apex) for l in A.lines):
            continue
        B, sk = cone_construction(A, apex)
        rep = classify(B.f, make_backend(seed=seed))
        _expect(rep.classification == "free"
                and rep.exponents == sk.expected_exponents
                and rep.tau == sk.expected_tau,
                f"cone mismatch: {rep.classification} {rep.exponents} "
                f"tau={rep.tau}, expected {sk}")
        results.append((sk.e, sk.m, rep.tau))
        done += 1
    return {"cases": results}


def criterion_11_properties(seed=0):
    """Property family: lattice invariants, tau oracle, bounds, syzygies,
    trichotomy totality, backend agreement, Terao-invariance log"""
    backend = make_backend(seed=seed)
    arrangement_fixtures = ["triangle", "ex1", "ex2a", "ex2b", "ex5",
                            "ex12i:2", "ex12i:3", "ex12ix:3"]
    for name in arrangement_fixtures:
        fx = get_fixture(name, seed=seed)
        A = fx.arrangement
        d = A.d
        # Euler relation
        euler = fx.f.euler_combination()
        _expect(euler == fx.f.scale(fx.f.field.coerce(d)),
                f"{name}: Euler relation failed")
        # tau oracle vs Hilbert function
        prof = global_tjurina(fx.f, backend)
        _expect(prof.tau == tau_combinatorial(A), f"{name}: tau oracle")
        r = mdr(fx.f, backend)
        # du Plessis-Wall bound and the multiplicity lower bound for mdr
        _expect(prof.tau <= dpw_bounds(d, r)[0], f"{name}: dPW violated")
        m, rhs, ok = multiplicity_bound_check(A, backend)
        _expect(ok, f"{name}: multiplicity bound")
        _expect(r >= -((-2 * d) // m) - 2, f"{name}: mdr lower bound")
        # point syzygies
        for p in A.lattice().points:
            s = point_syzygy(A, p)
            _expect(s.degree == d - p.multiplicity and verify_syzygy(A.f, s),
                    f"{name}: point syzygy at {p.point}")
    # free fixtures: dim AR(f)_{d1} is 1 (d1 < d2) or 2 (d1 = d2)
    for name in ("ex1", "ex5", "ex3"):
        fx = get_fixture(name, seed=seed)
        d1, d2 = fx.expected["exponents"]
        dim = compute(lambda g: ar_dimension(g, d1), fx.f, backend,
                      what="dim")
        _expect(dim == (2 if d1 == d2 else 1), f"{name}: dim AR_d1 = {dim}")
    # trichotomy totality on random arrangements
    rng = random.Random(seed + 11)
    for _ in range(50):
        A = _random_arrangement(rng, rng.randint(3, 10))
        lat = A.lattice()
        trichotomy(A, lat.points[0], backend)
    # modular vs rational agreement on small fixtures
    for name in ("triangle", "ex1", "ex2a", "ex12i:2"):
        fx = get_fixture(name, seed=seed)
        rat = classify(fx.f, make_backend("rational"))
        mod = classify(fx.f, backend)
        _expect((rat.mdr, rat.tau, rat.classification)
                == (mod.mdr, mod.tau, mod.classification),
                f"{name}: backend disagreement")
    # Terao-invariance log: lattice-isomorphic realizations share tau and mdr
    fx = get_fixture("ex12i:2", seed=seed)
    A = fx.arrangement
    Fp = A.field
    rng2 = random.Random(seed + 12)
    M = [[Fp.coerce(rng2.randint(1, 50)) for _ in range(3)] for _ in range(3)]
    image = LineArrangement(Fp, [
        tuple(_dot(Fp, l.covector, [M[r][j] for r in range(3)])
              for j in range(3))
        for l in A.lines])
    _expect(lattice_isomorphic(A, image), "projective image not isomorphic")
    _expect(tau_combinatorial(A) == tau_combinatorial(image)
            and mdr(A.f) == mdr(image.f), "Terao invariance log mismatch")
    return {"fixtures": len(arrangement_fixtures), "random_trichotomy": 50}


def criterion_12_tangent(seed=0):
    """thmTAN finite-field instance: nodal cubic, free (3,4), tau ledger"""
    spec = find_tangent_instance("nodal", seed=seed + 1)
    f, exps, rep = tangent_arrangement(spec)
    _expect(exps == (3, 4) and rep["tau"] == rep["ledger"] == 37,
            f"nodal instance: {exps}, tau {rep['tau']}, ledger {rep['ledger']}")
    return {"p": spec.h.field.p, "exponents": exps, "tau": rep["tau"]}


CRITERIA = [
    ("1-ex1", criterion_1_ex1),
    ("2-ex2", criterion_2_ex2),
    ("3-ex3", criterion_3_ex3),
    ("4-ex5", criterion_4_ex5),
    ("5-ex12i", criterion_5_ex12i),
    ("6-ex12ii", criterion_6_ex12ii),
    ("7-ex14ii", criterion_7_ex14ii),
    ("8-discriminants", criterion_8_discriminants),
    ("9-thmPEN", criterion_9_thmPEN),
    ("10-cones", criterion_10_cones),
    ("11-properties", criterion_11_properties),
    ("12-tangent", criterion_12_tangent),
]


@dataclass
class CriterionResult:
    name: str
    doc: str
    passed: bool
    seconds: float
    detail: object


def run_suite(seed: int = 0, name_filter: str | None = None):
    results = []
    for name, fn in CRITERIA:
        if name_filter and name_filter not in name:
            continue
        t0 = time.time()
        try:
            detail = fn(seed)
            passed = True
        except Exception as exc:  # report, never crash the runner
            detail = f"{type(exc).__name__}: {exc}"
            passed = False
        results.append(CriterionResult(
            name, fn.__doc__.strip(), passed, time.time() - t0, detail))
    return results
