from math import comb

import pytest

from jacsyz.backend import make_backend
from jacsyz.fields import PrimeField, random_primes
from jacsyz.fixtures import get_fixture
from jacsyz.poly import poly_parse
from jacsyz.tjurina import (classify, dpw_bounds, global_tjurina, thmF_gate)


def test_smooth_curves_have_tau_zero():
    for text in ["x^3 + y^3 + z^3", "x^4 + y^4 + z^4"]:
        assert global_tjurina(poly_parse(text)).tau == 0


def test_tau_known_singular_curves():
    # three concurrent lines: one ordinary triple point, tau = (3-1)^2 = 4
    assert global_tjurina(poly_parse("x*y*(x+y)")).tau == 4
    # triangle: three nodes
    assert global_tjurina(poly_parse("x*y*z")).tau == 3
    # nodal cubic: one node
    assert global_tjurina(poly_parse("z*y^2 - x^2*(x+z)")).tau == 1
    # cuspidal cubic: one cusp, tau = 2
    assert global_tjurina(poly_parse("y^2*z - x^3")).tau == 2


def test_classify_free():
    rep = classify(poly_parse("x*y*z"))
    assert rep.classification == "free"
    assert rep.exponents == (1, 1)
    assert rep.tau == 3
    assert rep.certificate is not None


def test_classify_cone():
    rep = classify(poly_parse("x^3 - y^3"))
    assert rep.classification == "cone"
    assert rep.mdr == 0


def test_classify_neither_smooth():
    rep = classify(poly_parse("x^4 + y^4 + z^4"))
    assert rep.classification == "neither"
    assert rep.tau == 0


def test_classify_modular_matches_rational():
    f = poly_parse("(x^2-y^2)*(y^2-z^2)*(x^2-z^2)")
    a = classify(f)
    b = classify(f, make_backend(seed=2))
    assert (a.classification, a.exponents, a.tau, a.mdr) == \
           (b.classification, b.exponents, b.tau, b.mdr)


def test_classify_prime_field_direct():
    F = PrimeField(random_primes(1, seed=6)[0])
    rep = classify(poly_parse("x*y*z*(x+y+z)", F))
    assert rep.backend == "direct"
    # four lines in general position: six nodes, nearly free (2,2)
    assert rep.classification == "nearly-free"
    assert rep.exponents == (2, 2) and rep.tau == 6


def test_dpw_bounds():
    # free case attains phi1: tau = (d-1)^2 - r(d-1-r)
    for d, r in [(6, 2), (9, 4), (19, 9)]:
        bound, branch = dpw_bounds(d, r)
        assert bound == (d - 1) ** 2 - r * (d - 1 - r)
        assert branch == "phi1"
    # for r >= d/2 the phi2 branch is active and smaller
    bound_lo, _ = dpw_bounds(5, 2)
    assert dpw_bounds(5, 3)[0] <= bound_lo


def _literal_phi(d, r):
    """phi1 and phi2 written out, as du Plessis and Wall state them."""
    phi1 = (d - 1) ** 2 - r * (d - 1 - r)
    phi2 = (d - 1) ** 2 - r * (d - r - 1) - comb(2 * r + 2 - d, 2) \
        if 2 * r + 2 - d >= 0 else None
    return phi1, phi2


def test_dpw_bounds_match_the_written_out_formulas():
    for d in range(1, 14):
        for r in range(d):
            phi1, phi2 = _literal_phi(d, r)
            expected = (phi1, "phi1") if 2 * r <= d - 1 else (phi2, "phi2")
            assert dpw_bounds(d, r) == expected
            if r >= 1:
                assert thmF_gate(d, r, phi1) == "attained"


def test_report_bounds_match_the_written_out_formulas():
    backend = make_backend(seed=0)
    phi2_null = 0
    for name in ["ex1", "ex2b", "ex14ii:3", "ex14ii:5", "ex14iip:5"]:
        rep = classify(get_fixture(name).f, backend)
        phi1, phi2 = _literal_phi(rep.d, rep.mdr)
        value, branch = dpw_bounds(rep.d, rep.mdr)
        assert rep.to_json()["bounds"] == {
            "phi1": phi1, "phi2": phi2, "active": branch, "value": value}
        phi2_null += phi2 is None
    assert phi2_null == 3  # 2r + 2 - d < 0 reports "phi2": null


def test_dpw_is_respected_by_classify():
    for text in ["x*y*z", "x^3+y^3+z^3", "(x+y)*(x-y)*(y+z)*(x+z)*z"]:
        rep = classify(poly_parse(text))
        assert rep.tau <= rep.bounds["value"]


def test_thmF_gate():
    # d=6, r=2, tau=19 attains the bound -> free
    assert thmF_gate(6, 2, 19) == "attained"
    assert thmF_gate(6, 2, 18) != "attained"


def test_report_json_shape():
    rep = classify(poly_parse("x*y*z"), make_backend(seed=0))
    data = rep.to_json()
    assert data["class"] == "free"
    assert data["exponents"] == [1, 1]
    assert data["backend"] == "modular"
    assert len(data["primes"]) == 3
