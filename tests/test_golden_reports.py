"""Golden reports: what the public API answers on every fixture, byte for
byte, against JSON recorded before the mdr search was last restructured.

The data file holds, under ``make_backend(seed=0)``:

- ``classify(f).to_json()`` of every fixture with a curve, both as built
  (an arrangement's product takes the arrangement route) and bare, parsed
  back from its text;
- ``multiplicity_bound_check`` and the trichotomy of a point of highest
  multiplicity of every arrangement fixture;
- the voted ``mdr`` of every fixture with a curve, parsed back from its
  text;
- ``thm11_trichotomy`` and ``thmPEN_classify`` of every pure pencil
  product, and ``thm13_trichotomy`` of every product with a residual
  factor h.

Regenerate it only for an intended change of output:

    PYTHONPATH=src python tests/test_golden_reports.py
"""

import json
from pathlib import Path

import pytest

from jacsyz.arrangements import multiplicity_bound_check, trichotomy
from jacsyz.backend import make_backend
from jacsyz.fixtures import fixture_names, get_fixture
from jacsyz.pencils import thm11_trichotomy, thm13_trichotomy, thmPEN_classify
from jacsyz.poly import poly_parse
from jacsyz.syzygy import mdr
from jacsyz.tjurina import classify

DATA = Path(__file__).parent / "data" / "golden_reports.json"
CURVES = [n for n in fixture_names() if get_fixture(n).f is not None]
ARRANGEMENTS = [n for n in fixture_names()
                if get_fixture(n).arrangement is not None]
SPECS = [n for n in fixture_names() if get_fixture(n).spec is not None]
PURE = [n for n in SPECS if get_fixture(n).spec.h is None]
WITH_H = [n for n in SPECS if get_fixture(n).spec.h is not None]


def _classify(name):
    f = get_fixture(name).f
    backend = make_backend(seed=0)
    return {"built": classify(f, backend).to_json(),
            "bare": classify(poly_parse(f.to_str()), backend).to_json()}


def _arrangement(name):
    A = get_fixture(name).arrangement
    backend = make_backend(seed=0)
    m, rhs, holds = multiplicity_bound_check(A, backend)
    t = trichotomy(A, A.lattice().points[0], backend)
    return {"bound": [m, str(rhs), holds],
            "trichotomy": {"case": t.case, "r": t.r, "m": t.m, "d": t.d,
                           "report": t.report.to_json() if t.report
                           else None}}


def _mdr(name):
    return mdr(poly_parse(get_fixture(name).f.to_str()), make_backend(seed=0))


def _case(c):
    """A ``PencilCase`` as JSON; it has no ``to_json`` of its own."""
    return {"case": c.case, "r": c.r, "bounds": list(c.bounds),
            "report": c.report.to_json() if c.report else None}


def _pencil(name):
    spec = get_fixture(name).spec
    backend = make_backend(seed=0)
    if spec.h is not None:
        return {"thm13": _case(thm13_trichotomy(spec, backend))}
    return {"thm11": _case(thm11_trichotomy(spec, backend)),
            "thmPEN": thmPEN_classify(spec, backend).to_json()}


def _dumps(value) -> str:
    return json.dumps(value, sort_keys=True, indent=1)


@pytest.fixture(scope="module")
def golden():
    return json.loads(DATA.read_text())


@pytest.mark.parametrize("name", CURVES)
def test_classify_matches_the_golden_report(golden, name):
    assert _dumps(_classify(name)) == _dumps(golden["classify"][name])


@pytest.mark.parametrize("name", ARRANGEMENTS)
def test_arrangement_checks_match_the_golden_report(golden, name):
    assert _dumps(_arrangement(name)) == _dumps(golden["arrangement"][name])


@pytest.mark.parametrize("name", CURVES)
def test_mdr_matches_the_golden_value(golden, name):
    assert _mdr(name) == golden["mdr"][name]


@pytest.mark.parametrize("name", SPECS)
def test_pencil_theorems_match_the_golden_report(golden, name):
    assert _dumps(_pencil(name)) == _dumps(golden["pencil"][name])


def test_the_golden_file_covers_every_fixture(golden):
    assert sorted(golden["classify"]) == sorted(golden["mdr"]) == sorted(CURVES)
    assert sorted(golden["arrangement"]) == sorted(ARRANGEMENTS)
    assert sorted(golden["pencil"]) == sorted(SPECS)
    assert [n for n in SPECS if "thm11" in golden["pencil"][n]] == PURE
    assert [n for n in SPECS if "thm13" in golden["pencil"][n]] == WITH_H
    assert (len(PURE), len(WITH_H)) == (6, 7)


if __name__ == "__main__":
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(_dumps({
        "classify": {n: _classify(n) for n in CURVES},
        "arrangement": {n: _arrangement(n) for n in ARRANGEMENTS},
        "mdr": {n: _mdr(n) for n in CURVES},
        "pencil": {n: _pencil(n) for n in SPECS},
    }) + "\n")
