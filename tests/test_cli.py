import io
from fractions import Fraction
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from jacsyz import cli
from jacsyz.backend import make_backend
from jacsyz.cli import main
from jacsyz.fields import QQ
from jacsyz.poly import HomogPoly


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_analyze_inline(capsys):
    code, out, _ = run(capsys, "analyze", "x*y*z")
    assert code == 0
    assert "free" in out and "tau        : 3" in out


def test_analyze_fixture_json(capsys):
    code, out, _ = run(capsys, "analyze", "ex1", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["class"] == "free"
    assert data["exponents"] == [2, 3]
    assert data["tau"] == 19


def test_analyze_parse_error_exit_1(capsys):
    code, _, err = run(capsys, "analyze", "x^2 +")
    assert code == 1 and "input error" in err


def test_an_input_too_large_for_memory_exits_1(capsys, monkeypatch):
    # numpy raises a subclass of MemoryError for a matrix it cannot allocate
    def too_large(f, backend=None):
        raise MemoryError("Unable to allocate 350. TiB")
    monkeypatch.setattr(cli, "classify", too_large)
    code, out, err = run(capsys, "analyze", "x^2000*y + z^2001")
    assert (code, out) == (1, "")
    assert err == "input error: Unable to allocate 350. TiB\n"


def test_json_byte_stability(capsys):
    _, a, _ = run(capsys, "analyze", "ex2a", "--json", "--seed", "9")
    _, b, _ = run(capsys, "analyze", "ex2a", "--json", "--seed", "9")
    assert a == b


def test_arrangement_lattice(capsys):
    code, out, _ = run(capsys, "arrangement", "lattice", "triangle")
    assert code == 0
    assert "m(A) = 2" in out and "tau = 3" in out


def test_arrangement_file_input(capsys, tmp_path):
    path = tmp_path / "arr.txt"
    path.write_text("# triangle\n1 0 0\n0 1 0\n0 0 1\n")
    code, out, _ = run(capsys, "analyze", str(path))
    assert code == 0 and "free" in out


def test_polynomial_file_input(capsys, tmp_path):
    # a file that is no arrangement is read as a polynomial
    path = tmp_path / "curve.txt"
    path.write_text("x*y*z\n")
    code, out, _ = run(capsys, "analyze", str(path), "--json")
    assert code == 0 and json.loads(out)["tau"] == 3


def test_unreadable_and_malformed_files_exit_1(capsys, tmp_path):
    for argv in (["analyze"], ["arrangement", "lattice"],
                 ["pencil", "syzygy"]):
        code, out, err = run(capsys, *argv, str(tmp_path))  # a directory
        assert code == 1 and out == "" and err.startswith("input error")
    path = tmp_path / "bad.txt"
    path.write_text("1 2\n")
    for argv, message in (
            (["analyze"], "cannot parse input"),
            (["arrangement", "lattice"], "line 1: expected three rationals"),
            (["pencil", "syzygy"], "cannot parse pencil spec")):
        code, out, err = run(capsys, *argv, str(path))
        assert code == 1 and out == "" and message in err


def test_one_line_arrangement(capsys, tmp_path):
    path = tmp_path / "line.txt"
    path.write_text("1 2 3\n")
    code, out, _ = run(capsys, "arrangement", "lattice", str(path), "--json")
    assert code == 0
    assert json.loads(out) == {"d": 1, "m": 1, "points": [],
                               "tau_combinatorial": 0}
    for verb in ("trichotomy", "bound"):
        code, out, err = run(capsys, "arrangement", verb, str(path))
        assert code == 1 and out == "" and "no intersection point" in err
    code, out, _ = run(capsys, "analyze", str(path), "--json")
    assert code == 0
    data = json.loads(out)
    assert (data["class"], data["mdr"], data["tau"]) == ("cone", 0, 0)


def test_arrangement_trichotomy_bad_point(capsys):
    code, _, err = run(capsys, "arrangement", "trichotomy", "ex1",
                       "--point", "1,2,5")
    assert code == 1 and "not a lattice point" in err


def test_arrangement_trichotomy_zero_point(capsys):
    code, out, err = run(capsys, "arrangement", "trichotomy", "ex1",
                         "--point", "0,0,0")
    assert code == 1 and out == "" and "zero vector" in err


def test_arrangement_cone(capsys):
    code, out, _ = run(capsys, "arrangement", "cone", "triangle",
                       "--apex", "1,1,1", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["tau"] == 19 and data["exponents"] == [2, 3]


def test_arrangement_cone_missing_apex(capsys):
    code, _, err = run(capsys, "arrangement", "cone", "triangle")
    assert code == 1


def test_pencil_discriminant(capsys):
    code, out, _ = run(capsys, "pencil", "discriminant", "hesse", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["degree"] == 12 and data["distinct_roots"] == 4


def test_pencil_classify(capsys):
    code, out, _ = run(capsys, "pencil", "classify", "fermat:3", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["free"] and data["tau"] == 48


def test_pencil_classify_generic_for_every_seed(capsys):
    # a repeated root under one coordinate change is not a tangency: the
    # genericity check goes on to the next change
    for seed in range(8):
        code, out, err = run(capsys, "pencil", "classify", "fermat:3",
                             "--seed", str(seed))
        assert code == 0, (seed, err)


@pytest.mark.parametrize("name", ["ex5", "ex12i:2", "ex12i:3", "ex12i:4",
                                  "ex12i:5", "ex12ii", "fermat:2",
                                  "fermat:3", "hesse"])
def test_pencil_classify_every_pure_pencil_fixture(capsys, name):
    # the theorem's exponents are compared sorted: for m = 3 and k >= 4 the
    # wedge degree 2k-2 is the larger one
    code, out, err = run(capsys, "pencil", "classify", name, "--json")
    assert code == 0, err
    data = json.loads(out)
    assert data["free"] == data["condition1"]
    assert data["exponents"] == sorted(data["exponents"])


def test_pencil_spec_json_input(capsys, tmp_path):
    from jacsyz.fixtures import get_fixture
    spec = get_fixture("ex12ii").spec
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec.to_json(), sort_keys=True))
    code, out, _ = run(capsys, "pencil", "syzygy", str(path))
    assert code == 0 and "primitive" in out


FERMAT_CUBICS = {"q1": "x^3 - y^3", "q2": "y^3 - z^3", "t": ["1"]}


@pytest.mark.parametrize("key, value, kind", [
    ("include_q1", 2, "be true or false"),  # counted as two members
    ("include_q2", "false", "be true or false"),
    ("t", "12", "be a list"),  # read as the members t = 1 and t = 2
    ("groups", ["1"], "hold lists"),
    ("q1", 5, "be a string"),
])
def test_a_pencil_spec_value_of_the_wrong_type_exits_1(
        capsys, tmp_path, key, value, kind):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({**FERMAT_CUBICS, key: value}))
    code, out, err = run(capsys, "pencil", "syzygy", str(path))
    assert (code, out) == (1, "")
    assert err == f"input error: pencil spec key {key!r} must {kind}\n"


def test_a_pencil_spec_that_is_no_object_exits_1(capsys, tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps([FERMAT_CUBICS]))
    code, out, err = run(capsys, "pencil", "syzygy", str(path))
    assert (code, out) == (1, "")
    assert err == "input error: a pencil spec must be a JSON object\n"


def test_pencil_unknown_input(capsys):
    code, _, err = run(capsys, "pencil", "classify", "no-such-thing")
    assert code == 1


def test_suite_filter(capsys):
    code, out, _ = run(capsys, "suite", "--filter", "1-ex1")
    assert code == 0
    assert out.count("PASS") == 1 and "1/1 criteria passed" in out


def test_suite_json_stdout_is_one_stable_document(capsys):
    # the PASS table and the count line go to stderr, and no wall time
    # reaches stdout
    code, out, err = run(capsys, "suite", "--filter", "1-ex1", "--json")
    assert code == 0
    assert err.count("PASS") == 1 and "1/1 criteria passed" in err
    data = json.loads(out)
    assert [(r["name"], r["passed"]) for r in data] == [("1-ex1", True)]
    assert "seconds" not in out
    _, again, _ = run(capsys, "suite", "--filter", "1-ex1", "--json")
    assert again == out


def test_suite_bad_filter(capsys):
    code, _, err = run(capsys, "suite", "--filter", "zzz")
    assert code == 1


def test_suite_refuses_field_and_primes(capsys):
    # the criteria fix their own fields and backends
    for flags in (["--field", "Fp:7"], ["--primes", "9"], ["--primes", "3"],
                  ["--field", "Q", "--primes", "9"]):
        code, out, err = run(capsys, "suite", "--filter", "1-ex1", *flags)
        assert code == 1 and out == ""
        assert "does not apply to suite" in err


def test_pencil_classify_reads_primes(capsys):
    code, out, _ = run(capsys, "pencil", "classify", "fermat:3", "--primes",
                       "2", "--json")
    assert code == 0
    assert json.loads(out)["report"]["primes"] == make_backend(
        primes=2, seed=0).primes
    code, out, _ = run(capsys, "pencil", "classify", "fermat:3", "--json",
                       "--seed", "5")
    assert json.loads(out)["report"]["primes"] == make_backend(seed=5).primes


def test_no_voting_primes_is_an_input_error(capsys):
    for count in ("0", "-1"):
        code, out, err = run(capsys, "analyze", "x*y*z+x^3+y^3",
                             "--primes", count)
        assert code == 1 and out == ""
        assert err == ("input error: the modular backend needs at least one "
                       "voting prime\n")


def test_entry_point_matches_pyproject():
    import jacsyz.cli
    assert callable(jacsyz.cli.main)


# --field is applied to inline input and refused with a fixture --------------

def test_field_with_fixture_name_is_refused(capsys):
    code, out, err = run(capsys, "analyze", "ex1", "--field", "Fp:101")
    assert code == 1 and out == "" and "--field" in err
    code, out, err = run(capsys, "arrangement", "lattice", "triangle",
                         "--field", "Q")
    assert code == 1 and out == "" and "--field" in err
    code, out, err = run(capsys, "pencil", "classify", "fermat:3",
                         "--field", "Q")
    assert code == 1 and out == "" and "--field" in err


def test_field_with_pencil_spec_is_refused(capsys, tmp_path):
    from jacsyz.fixtures import get_fixture
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(get_fixture("ex12ii").spec.to_json()))
    code, out, err = run(capsys, "pencil", "syzygy", str(path),
                         "--field", "Fp:101")
    assert code == 1 and out == "" and "--field" in err


def test_field_applies_to_inline_polynomial(capsys):
    code, out, _ = run(capsys, "analyze", "x*y*z", "--field", "Fp:101",
                       "--json")
    assert code == 0
    data = json.loads(out)
    assert data["backend"] == "direct" and data["primes"] == [101]
    code, out, _ = run(capsys, "analyze", "x*y*z", "--json")
    assert code == 0 and json.loads(out)["backend"] == "modular"


# exit codes over generated input -------------------------------------------

def run_quiet(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def analyze(text, *options):
    """``analyze`` on a polynomial text, which may begin with a minus sign."""
    return run_quiet("analyze", *options, "--", text)


covector = st.tuples(st.integers(-3, 3), st.integers(-3, 3),
                     st.integers(-3, 3)).filter(any)


def _projective(c):
    """A covector up to scaling: divided by its first nonzero entry."""
    lead = next(v for v in c if v)
    return tuple(Fraction(v, lead) for v in c)


def _product(covs, field=QQ):
    f = HomogPoly.constant(field, 1)
    for c in covs:
        f = f * HomogPoly.linear(field, c)
    return f


@settings(max_examples=12, deadline=None)
@given(st.lists(covector, min_size=2, max_size=4, unique_by=_projective),
       st.sampled_from([None, "Fp:1000003"]))
def test_exit_0_on_distinct_lines(covs, field):
    text = _product(covs).to_str()
    code, out, err = analyze(text, *(["--field", field] if field else []))
    assert code == 0 and err == "" and "class" in out


@settings(max_examples=12, deadline=None)
@given(covector, st.lists(covector, min_size=0, max_size=3),
       st.sampled_from([None, "Fp:1000003"]))
def test_exit_1_on_non_reduced_curve(square, rest, field):
    text = _product([square, square] + rest).to_str()
    code, out, err = analyze(text, *(["--field", field] if field else []))
    assert code == 1 and out == "" and "not reduced" in err


@settings(max_examples=12, deadline=None)
@given(st.integers(3, 9).flatmap(
    lambda d: st.tuples(st.just(d), st.sampled_from(
        [p for p in (3, 5, 7) if p <= d]))))
def test_exit_1_on_small_prime(case):
    d, p = case
    code, out, err = analyze(f"x^{d} + y^{d} + z^{d}", "--field", f"Fp:{p}")
    assert code == 1 and out == "" and f"p <= d = {d}" in err


@settings(max_examples=15, deadline=None)
@given(st.lists(covector, min_size=1, max_size=3),
       st.sampled_from("#$@!?&;[]{}~"), st.data())
def test_exit_1_on_unparsable_text(covs, junk, data):
    text = _product(covs).to_str()
    at = data.draw(st.integers(0, len(text)))
    code, out, err = analyze(text[:at] + junk + text[at:])
    assert code == 1 and out == "" and "cannot parse input" in err


@pytest.mark.parametrize("text", ["x^\u00b2*y", "\u00b2*x*y", "x*y^\u00b9"])
def test_exit_1_on_superscript_digit(text):
    code, out, err = analyze(text)
    assert code == 1 and out == "" and "cannot parse input" in err


zero_point = st.builds(
    lambda fmt, a, b, c: fmt.format(a, b, c),
    st.sampled_from(["{},{},{}", "({}:{}:{})", "{}, {}, {}"]),
    *[st.sampled_from(["0", "-0", "0/3", "00"])] * 3)


@settings(max_examples=12, deadline=None)
@given(zero_point, st.sampled_from(["triangle", "ex1"]))
def test_exit_1_on_zero_point(point, name):
    code, out, err = run_quiet("arrangement", "trichotomy", name,
                               f"--point={point}")
    assert code == 1 and out == "" and "zero vector" in err
    code, out, err = run_quiet("arrangement", "cone", name, f"--apex={point}")
    assert code == 1 and out == "" and "zero vector" in err


@settings(max_examples=6, deadline=None)
@given(st.integers(0, 50), st.integers(0, 2), st.integers(1, 5))
def test_exit_2_when_one_voting_prime_is_bad(seed, bad, c):
    # x*y*z + c*p*(x^3 + y^3 + z^3) is the triangle mod the voting prime p
    # and a smooth cubic mod the other two: the vote must refuse
    p = make_backend(seed=seed).primes[bad]
    code, out, err = analyze(f"x*y*z + {c * p}*(x^3+y^3+z^3)",
                             "--seed", str(seed))
    assert code == 2 and out == "" and "backend disagreement" in err
