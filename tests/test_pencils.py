import json
from fractions import Fraction
from types import SimpleNamespace

import pytest

from jacsyz import pencils
from jacsyz.backend import BackendDisagreement
from jacsyz.cli import main
from jacsyz.fields import QQ
from jacsyz.fixtures import fixture_names, get_fixture
from jacsyz.pencils import (PencilProductSpec, PencilSpec, _split_members,
                            build_member, build_product, discriminant,
                            genericity_check, lemma2_syzygy,
                            macaulay_resultant, thm11_trichotomy,
                            thm13_trichotomy, thmPEN_classify,
                            total_mu_check, wedge_syzygy)
from jacsyz.poly import poly_parse
from jacsyz.syzygy import is_primitive, mdr, verify_syzygy
from jacsyz.tjurina import InconsistencyError, NotReducedError


def _fermat(k):
    return PencilSpec(poly_parse(f"x^{k} - y^{k}"),
                      poly_parse(f"y^{k} - z^{k}"))


def _hesse():
    return PencilSpec(poly_parse("x^3 + y^3 + z^3"), poly_parse("x*y*z"))


def test_pencil_spec_validation():
    with pytest.raises(ValueError):
        PencilSpec(poly_parse("x^2"), poly_parse("y"))  # unequal degree
    with pytest.raises(ValueError):
        PencilSpec(poly_parse("x*y"), poly_parse("2*x*y"))  # proportional


def test_build_member_and_product():
    P = _fermat(2)
    assert build_member(P, None) == P.q2
    assert build_member(P, Fraction(0)) == P.q1
    f = build_product(PencilProductSpec(P, ts=(Fraction(1),)))
    assert f.degree == 6
    assert f == P.q1 * P.q2 * (P.q1 + P.q2)


def test_product_rejects_nonreduced():
    P = _fermat(2)
    # t = -1 gives q1 + (-1) q2 = x^2 + z^2 - 2 y^2 ... still reduced;
    # instead duplicate a member via a group with a repeated root
    with pytest.raises(ValueError):
        build_product(PencilProductSpec(P, ts=(Fraction(1), Fraction(1))))


def test_spec_json_round_trip():
    # every pencil-product fixture, with groups, h and include_q2=False
    specs = [get_fixture(n).spec for n in fixture_names()
             if get_fixture(n).spec is not None]
    assert len(specs) == 13
    assert any(s.groups for s in specs) and any(s.h for s in specs)
    assert any(not s.include_q2 for s in specs)
    for spec in specs:
        again = PencilProductSpec.from_json_str(
            json.dumps(spec.to_json(), sort_keys=True))
        assert again.to_json() == spec.to_json()
        assert build_product(again) == build_product(spec)


def test_zero_residual_factor_is_refused(tmp_path, capsys):
    data = get_fixture("ex12ii").spec.to_json()
    for h in ("0", "x - x"):
        with pytest.raises(ValueError, match="h is zero"):
            PencilProductSpec.from_json({**data, "h": h})
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({**data, "h": h}))
        for command in ("classify", "syzygy"):
            assert main(["pencil", command, str(path)]) == 1
            out, err = capsys.readouterr()
            assert out == "" and "h is zero" in err
    # a nonzero constant is still dropped: it changes no curve
    spec = PencilProductSpec.from_json({**data, "h": "3"})
    assert spec.h is None
    assert build_product(spec) == build_product(
        PencilProductSpec.from_json({k: v for k, v in data.items()
                                     if k != "h"}))


def test_wedge_syzygy_degree_and_verification():
    for k, m in [(2, 3), (3, 3), (3, 4)]:
        P = _fermat(k)
        ts = tuple(Fraction(i + 1) for i in range(m - 2))
        f = build_product(PencilProductSpec(P, ts=ts))
        s = wedge_syzygy(P, f)
        assert s.degree == 2 * k - 2
        assert verify_syzygy(f, s)


def test_lemma2_syzygy():
    spec = get_fixture("ex14i:3").spec
    f = build_product(spec)
    s = lemma2_syzygy(spec.pencil, spec.h, spec.m, f)
    assert s.degree == 2 * 3 - 2 + 1
    assert verify_syzygy(f, s)


def test_macaulay_resultant_linear_is_det():
    # for three linear forms the resultant is the coefficient determinant
    p1, p2, p3 = poly_parse("x + 2*y"), poly_parse("y - z"), \
        poly_parse("x + y + 2*z")
    # det [[1,2,0],[0,1,-1],[1,1,2]] = 1
    assert macaulay_resultant(p1, p2, p3) == Fraction(1)
    # concurrent lines: det = 0
    assert macaulay_resultant(p1, p2, poly_parse("x + y + z")) == 0


def test_macaulay_resultant_zero_iff_common_zero():
    assert macaulay_resultant(poly_parse("x"), poly_parse("y"),
                              poly_parse("x + y")) == 0
    assert macaulay_resultant(poly_parse("x*y - z^2"), poly_parse("y"),
                              poly_parse("z")) == 0
    assert macaulay_resultant(poly_parse("x^2 + y^2 + z^2"), poly_parse("x"),
                              poly_parse("y")) != 0


def test_macaulay_resultant_degenerate_inputs():
    zero = poly_parse("x") - poly_parse("x")
    assert macaulay_resultant(zero, poly_parse("y"), poly_parse("z")) == 0


def test_discriminant_fermat2():
    disc = discriminant(_fermat(2))
    assert disc.degree == 3
    assert disc.sum_mu == 3
    assert disc.distinct_roots == 3


def test_discriminant_hesse():
    disc = discriminant(_hesse())
    assert disc.degree == 12 and disc.sum_mu == 12
    assert disc.distinct_roots == 4
    assert disc.inf_mult == 3  # x*y*z itself is singular
    muls = sorted(m for _, m in disc.factors)
    assert muls == [3]  # one cubic factor of multiplicity 3, plus infinity


def test_genericity():
    assert genericity_check(_fermat(3))
    assert genericity_check(_hesse())
    degenerate = PencilSpec(poly_parse("x^2"), poly_parse("y^2"))
    assert not genericity_check(degenerate)
    # y = 0 is tangent to the conic at (0:0:1): four base points counted
    # with multiplicity, three distinct, so every resultant repeats a root
    tangent = PencilSpec(poly_parse("x^2 - y*z"), poly_parse("y*(x + y + z)"))
    assert not any(genericity_check(tangent, seed) for seed in range(4))


def test_split_members_refuses_a_non_reduced_member():
    # the member x^2 has a repeated factor in every splitting field: that is
    # reported as such, not as a too small attempt budget
    P = PencilSpec(poly_parse("x^2"), poly_parse("y^2 + z^2 + x*y"))
    with pytest.raises(NotReducedError, match="member of the pencil is not"):
        _split_members(P, discriminant(P))


def skew_member_tau(monkeypatch):
    """Make member tau one higher in the first splitting field seen than in
    any other, so the two splitting primes disagree."""
    real, first = pencils.global_tjurina, []

    def skewed(f, backend=None):
        first[:] = first or [f.field]
        skew = f.field == first[0]
        return SimpleNamespace(tau=real(f, backend).tau + skew)

    monkeypatch.setattr(pencils, "global_tjurina", skewed)


def test_member_invariants_vote_through_the_backend(monkeypatch):
    skew_member_tau(monkeypatch)
    P = _fermat(3)
    with pytest.raises(BackendDisagreement) as exc:
        _split_members(P, discriminant(P))
    assert exc.value.what == "member invariants"
    tags = [tag for tag, _ in exc.value.answers]
    assert len(tags) == 2 and all(tag.startswith("Fp:") for tag in tags)
    (_, first), (_, second) = exc.value.answers
    assert [tau for _, tau, _ in first] == [tau + 1 for _, tau, _ in second]


def test_member_invariant_disagreement_exits_2(capsys, monkeypatch):
    skew_member_tau(monkeypatch)
    assert main(["pencil", "classify", "fermat:3"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith(
        "inconsistency: backend disagreement on member invariants")


@pytest.mark.parametrize("name, seed, primes", [
    ("ex5", 0, (1980432887, 1305361411)),
    ("ex12ii", 0, (1487395831, 1305361411)),
    ("ex5", 3, (1329254401, 1151686093)),
])
def test_splitting_primes_are_seed_stable(name, seed, primes):
    P = get_fixture(name).pencil
    data, drawn = _split_members(P, discriminant(P), seed=seed)
    assert drawn == primes and data == sorted(data)


def test_total_mu_check():
    # three singular members (t = 0, 1, infinity), each a triangle of lines
    sum_mu, distinct, ok = total_mu_check(_fermat(3))
    assert ok and sum_mu == 12 and distinct == 3


def test_thmPEN_positive():
    spec = PencilProductSpec(_fermat(3), ts=(Fraction(1),))
    v = thmPEN_classify(spec)
    assert v.condition1 and v.free
    assert v.exponents == (4, 4)
    assert v.tau == v.tau_target == 48


def test_thmPEN_negative_incomplete_choice():
    # Hesse with m=4 members misses singular members: not free
    spec = PencilProductSpec(_hesse(), ts=(Fraction(1), Fraction(2)))
    v = thmPEN_classify(spec)
    assert not v.condition1 and not v.free


def test_thm11_cases():
    free_case = thm11_trichotomy(get_fixture("ex12i:4").spec)
    assert free_case.case == "free" and free_case.r == 5
    generic = thm11_trichotomy(
        PencilProductSpec(_hesse(), ts=(Fraction(1), Fraction(2))))
    assert generic.case == "generic" and generic.r == 4


def test_thm13_cases():
    free_case = thm13_trichotomy(get_fixture("ex14i:3").spec)
    assert free_case.case == "free" and free_case.r == 4
    generic = thm13_trichotomy(get_fixture("ex14ii:5").spec)
    assert generic.case == "generic" and generic.r == 2


def test_wedge_syzygy_primitive_on_generic_product():
    spec = get_fixture("ex12i:3").spec
    f = build_product(spec)
    s = wedge_syzygy(spec.pencil, f)
    assert is_primitive(s)
    assert s.degree == mdr(f)
