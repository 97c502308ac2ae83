import json

import pytest

from jacsyz.cli import main


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


def test_pencil_spec_json_input(capsys, tmp_path):
    from jacsyz.fixtures import get_fixture
    spec = get_fixture("ex12ii").spec
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec.to_json(), sort_keys=True))
    code, out, _ = run(capsys, "pencil", "syzygy", str(path))
    assert code == 0 and "primitive" in out


def test_pencil_unknown_input(capsys):
    code, _, err = run(capsys, "pencil", "classify", "no-such-thing")
    assert code == 1


def test_suite_filter(capsys):
    code, out, _ = run(capsys, "suite", "--filter", "1-ex1")
    assert code == 0
    assert out.count("PASS") == 1 and "1/1 criteria passed" in out


def test_suite_bad_filter(capsys):
    code, _, err = run(capsys, "suite", "--filter", "zzz")
    assert code == 1


def test_entry_point_matches_pyproject():
    import jacsyz.cli
    assert callable(jacsyz.cli.main)
