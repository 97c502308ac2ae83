"""The one field policy of ``backend``: every computation on f runs in the
voting primes (rational f under the modular backend) or in f's own field,
and never in GF(p) with p <= deg f."""

import json
from fractions import Fraction

import pytest

from jacsyz.arrangements import (LineArrangement, multiplicity_bound_check,
                                 trichotomy)
from jacsyz.backend import (BackendDisagreement, compute, describe, fields_for,
                            make_backend)
from jacsyz.cli import main
from jacsyz.fields import FieldError, PrimeField, QQ
from jacsyz.fixtures import get_fixture
from jacsyz.pencils import (PencilProductSpec, PencilSpec, thm11_trichotomy,
                            thm13_trichotomy)
from jacsyz.poly import poly_parse
from jacsyz.syzygy import is_cone, mdr
from jacsyz.tjurina import classify, global_tjurina

NEARLY_FREE = "y^6 + x^5*z"  # over Q: nearly free, mdr 1, not a cone
SIX_LINES = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1), (0, 1, 1)]


def _six_lines(field=QQ):
    return LineArrangement(field, [tuple(map(Fraction, c)) for c in SIX_LINES])


def _three_conics():
    P = PencilSpec(poly_parse("x^2 - y^2"), poly_parse("y^2 - z^2"))
    return PencilProductSpec(P, ts=(Fraction(1),))  # q1, q2, q1+q2: d = 6


CURVE = poly_parse(NEARLY_FREE)
ARRANGEMENT = _six_lines()
PATHS = {
    "mdr": lambda b: mdr(CURVE, b),
    "is_cone": lambda b: is_cone(CURVE, b),
    "classify": lambda b: classify(CURVE, b),
    "global_tjurina": lambda b: global_tjurina(CURVE, b),
    "trichotomy": lambda b: trichotomy(
        ARRANGEMENT, ARRANGEMENT.lattice().points[0], b),
    "multiplicity_bound_check": lambda b: multiplicity_bound_check(
        ARRANGEMENT, b),
    "thm11_trichotomy": lambda b: thm11_trichotomy(_three_conics(), b),
}


@pytest.mark.parametrize("path", sorted(PATHS))
@pytest.mark.parametrize("primes", [[5], [1000003, 5]])
def test_every_path_refuses_a_voting_prime_at_most_degree(path, primes):
    with pytest.raises(ValueError, match="p <= d = 6"):
        PATHS[path](make_backend(primes=primes))


@pytest.mark.parametrize("fn", [mdr, is_cone, classify, global_tjurina])
def test_curve_over_small_prime_field_is_refused(fn):
    f = poly_parse(NEARLY_FREE, PrimeField(5))
    for backend in (None, make_backend(seed=0), make_backend("rational")):
        with pytest.raises(ValueError, match="p <= d"):
            fn(f, backend)


def test_arrangement_over_small_prime_field_is_refused():
    A = _six_lines(PrimeField(5))
    with pytest.raises(ValueError, match="p <= d"):
        trichotomy(A, A.lattice().points[0], make_backend(seed=0))
    with pytest.raises(ValueError, match="p <= d"):
        multiplicity_bound_check(A)


@pytest.mark.parametrize("sub", ["trichotomy", "bound"])
def test_cli_arrangement_refuses_prime_at_most_degree(sub, capsys, tmp_path):
    path = tmp_path / "six.txt"
    path.write_text("\n".join(" ".join(map(str, c)) for c in SIX_LINES))
    assert main(["arrangement", sub, str(path), "--field", "Fp:5"]) == 1
    assert "p <= d = 6" in capsys.readouterr().err
    assert main(["arrangement", sub, str(path), "--field", "Fp:101"]) == 0


def test_vote_on_a_prime_field_curve_computes_in_that_field():
    F = PrimeField(101)
    f = poly_parse("x^3 + 100*y^3 + z^3 + 50*x*y*z", F)
    backend = make_backend(primes=[1000003, 1000033])
    assert backend.vote(lambda g: g, f) == f
    assert backend.vote(lambda g: g.field, f) == F
    assert backend.vote(mdr, f) == mdr(f)


def test_fields_for_picks_the_fields():
    f = poly_parse(NEARLY_FREE)
    modular = make_backend(primes=[1000003, 1000033])
    assert fields_for(f) == [QQ]
    assert fields_for(f, make_backend("rational")) == [QQ]
    assert fields_for(f, modular) == modular.fields
    g = f.map_field(PrimeField(101))
    assert fields_for(g, modular) == [PrimeField(101)]
    assert describe(f) == {"backend": "rational", "primes": []}
    assert describe(f, modular) == {"backend": "modular",
                                    "primes": [1000003, 1000033]}
    assert describe(g, modular) == {"backend": "direct", "primes": [101]}


def test_compute_runs_directly_without_a_vote():
    f = poly_parse(NEARLY_FREE)
    seen = []
    compute(lambda g: seen.append(g.field), f)
    compute(lambda g: seen.append(g.field), f, make_backend("rational"))
    compute(lambda g: seen.append(g.field), f,
            make_backend(primes=[1000003, 1000033]))
    assert seen == [QQ, QQ, PrimeField(1000003), PrimeField(1000033)]


def test_pencil_theorems_draw_seeded_default_primes():
    a = thm11_trichotomy(get_fixture("ex12i:4").spec)
    b = thm11_trichotomy(get_fixture("ex12i:4").spec)
    assert a.report.primes == b.report.primes == make_backend(seed=0).primes
    a = thm13_trichotomy(get_fixture("ex14i:3").spec)
    b = thm13_trichotomy(get_fixture("ex14i:3").spec)
    assert a.report.primes == b.report.primes == make_backend(seed=0).primes


def test_a_first_answer_is_voted_with_the_other_fields():
    f = poly_parse(NEARLY_FREE)
    backend = make_backend(primes=[1000003, 1000033, 1000037])
    computed = []

    def fn(g):
        computed.append(g.field)
        return g.degree
    # fn runs only in the fields after the first, whose answer is handed in
    assert compute(fn, f, backend, "degree", first=6) == 6
    assert computed == backend.fields[1:]
    computed.clear()
    with pytest.raises(BackendDisagreement) as exc:
        backend.vote(fn, f, "degree", first=5)
    assert exc.value.answers == [(F.tag, a) for F, a in
                                 zip(backend.fields, [5, 6, 6])]
    assert computed == backend.fields[1:]
    computed.clear()
    # f's own field: no vote, and the handed-in answer is the answer
    assert compute(fn, f, first=5) == 5
    assert computed == []


@pytest.mark.parametrize("primes", [0, -2, []])
def test_a_modular_backend_needs_a_prime(primes):
    with pytest.raises(ValueError, match="at least one voting prime"):
        make_backend(primes=primes)


# a prime of 2^31 or more, beyond the int64 arithmetic, is refused wherever a
# prime is named; the largest prime below 2^31 still classifies

TOO_BIG = 2**31 + 11
LARGEST = 2**31 - 1


def test_backend_refuses_a_prime_beyond_the_int64_range():
    with pytest.raises(FieldError, match=r"p < 2\^31"):
        make_backend(primes=[1000003, TOO_BIG])
    rep = classify(CURVE, make_backend(primes=[LARGEST]))
    assert rep.classification == classify(CURVE).classification


def test_cli_field_refuses_a_prime_beyond_the_int64_range(capsys):
    code = main(["analyze", "x*y*z", "--field", f"Fp:{TOO_BIG}"])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err.startswith("input error:") and "p < 2^31" in err
    assert main(["analyze", "x*y*z", "--field", f"Fp:{LARGEST}"]) == 0


def test_pencil_spec_refuses_a_prime_beyond_the_int64_range(capsys, tmp_path):
    spec = get_fixture("ex12ii").spec.to_json()
    for p, code in [(TOO_BIG, 1), (LARGEST, 0)]:
        path = tmp_path / f"{p}.json"
        path.write_text(json.dumps(dict(spec, field=f"Fp:{p}")))
        assert main(["pencil", "syzygy", str(path)]) == code
        out, err = capsys.readouterr()
        assert ("p < 2^31" in err) == (code == 1)
    with pytest.raises(FieldError, match=r"p < 2\^31"):
        PencilProductSpec.from_json(dict(spec, field=f"Fp:{TOO_BIG}"))
