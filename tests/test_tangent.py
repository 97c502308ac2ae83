import hashlib

import pytest

from jacsyz.tangent import (TangentConeSpec, TangentValidationError,
                            cuspidal_cubic, find_tangent_instance,
                            nodal_cubic, tangent_arrangement)
from jacsyz.tjurina import classify


def test_nodal_instance():
    spec = find_tangent_instance("nodal", seed=1)
    assert spec.e == 3 and spec.delta == 1 and spec.kappa == 0
    assert spec.m0 == 3 * 2 - 2 * 1 == 4
    f, exps, detail = tangent_arrangement(spec)
    assert exps == (3, 4)
    assert detail["tau"] == 37
    assert detail["ledger"] == 37
    assert f.degree == spec.d == 3 + 4 + 1  # cubic + tangents + node secant


def test_cuspidal_instance():
    spec = find_tangent_instance("cuspidal", seed=1)
    assert spec.delta == 0 and spec.kappa == 1
    assert spec.m0 == 3 * 2 - 3 * 1 == 3
    f, exps, detail = tangent_arrangement(spec)
    assert exps == (3, 3)
    assert detail["tau"] == 27
    rep = classify(f)
    assert rep.classification == "free" and rep.exponents == (3, 3)


# sha256 of repr(find_tangent_instance(kind, seed)), seeds 0-4, as computed
# when the lines through the apex were crossed in field arithmetic
INSTANCE_DIGESTS = {
    "nodal": ["571bd83fb8634703", "2d8c81677164f474", "8a401a496b3cc42d",
              "7bf34c3bcf73b3fe", "b25bf6ca1870d9ce"],
    "cuspidal": ["eeaa5b57cbb1e15f", "a67733ae69a0f1f8", "f3a57fd78d3b2b0e",
                 "fca7c40c1638b115", "4db620314087c62d"],
}


@pytest.mark.parametrize("kind", sorted(INSTANCE_DIGESTS))
def test_instances_are_unchanged(kind):
    digests = [hashlib.sha256(repr(find_tangent_instance(kind, seed))
                              .encode()).hexdigest()[:16]
               for seed in range(5)]
    assert digests == INSTANCE_DIGESTS[kind]


def test_find_is_deterministic():
    a = find_tangent_instance("nodal", seed=2)
    b = find_tangent_instance("nodal", seed=2)
    assert a.h == b.h and a.apex == b.apex and a.tangents == b.tangents


def test_conic_rejected():
    spec = find_tangent_instance("nodal", seed=3)
    F = spec.h.field
    x, y, z = (spec.h.variable(F, i) for i in range(3))
    conic = x * y - z ** 2
    bad = TangentConeSpec(conic, spec.apex, (), (), spec.tangents[:2],
                          (), ())
    with pytest.raises(TangentValidationError):
        tangent_arrangement(bad)


def test_wrong_tangent_count_rejected():
    spec = find_tangent_instance("nodal", seed=4)
    bad = TangentConeSpec(spec.h, spec.apex, spec.nodes, spec.cusps,
                          spec.tangents[:-1], spec.node_secants,
                          spec.cusp_secants)
    with pytest.raises(TangentValidationError):
        tangent_arrangement(bad)
