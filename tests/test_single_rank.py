"""The Hilbert-function tau is one Milnor-algebra rank at k = 3d-5, tested
against the scan for an equal consecutive pair from k = 3d-6 that it
replaces, and against tau_combinatorial on line arrangements."""

import random
from fractions import Fraction

import pytest

from jacsyz import tjurina
from jacsyz.arrangements import LineArrangement, tau_combinatorial
from jacsyz.backend import make_backend
from jacsyz.fields import PrimeField, QQ
from jacsyz.fixtures import fixture_names, get_fixture
from jacsyz.linalg import ExactMatrix, rank_mod_np
from jacsyz.poly import monomial_count, poly_parse
from jacsyz.syzygy import graded_multiplication_matrix
from jacsyz.tangent import find_tangent_instance, tangent_arrangement
from jacsyz.tjurina import global_tjurina, milnor_hilbert

P = 1000003


def pair_scan_tau(f):
    """Reference: the first k >= 3d-6 with h(k) = h(k+1), up to 3d-3."""
    d = f.degree
    for k in range(max(3 * d - 6, 0), 3 * d - 2):
        if milnor_hilbert(f, k) == milnor_hilbert(f, k + 1):
            return milnor_hilbert(f, k)
    raise AssertionError(f"no equal pair up to k = {3 * d - 2}")


def assert_single_rank_tau(f, expected=None):
    """global_tjurina over one prime equals the pair scan there."""
    backend = make_backend(primes=1, seed=0) if f.field == QQ else None
    tau = global_tjurina(f, backend).tau
    image = f.map_field(backend.fields[0]) if backend else f
    assert tau == pair_scan_tau(image)
    if expected is not None:
        assert tau == expected
    return tau


CURVE_FIXTURES = [name for name in fixture_names()
                  if get_fixture(name).kind != "pencil"]


@pytest.mark.parametrize("name", CURVE_FIXTURES)
def test_fixtures_single_rank_matches_pair_scan(name):
    fx = get_fixture(name)
    assert_single_rank_tau(fx.f, fx.expected["tau"])


def _random_arrangements(seed, count):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        covs = {tuple(Fraction(rng.randint(-3, 3)) for _ in range(3))
                for _ in range(rng.randint(3, 8))}
        covs.discard((0, 0, 0))
        try:
            out.append(LineArrangement(QQ, sorted(covs)))
        except ValueError:
            continue
    return out


@pytest.mark.parametrize("index", range(8))
def test_random_arrangements_single_rank(index):
    A = _random_arrangements(seed=77, count=8)[index]
    assert_single_rank_tau(A.f, tau_combinatorial(A))


@pytest.mark.parametrize("d", range(1, 7))
def test_smooth_fermat_curves(d):
    f = poly_parse(f"x^{d} + y^{d} + z^{d}")
    assert_single_rank_tau(f, 0)
    assert_single_rank_tau(f.map_field(PrimeField(P)), 0)


@pytest.mark.parametrize("text, tau", [
    ("x*y", 1),                              # two lines: one node
    ("y^2*z - x^3", 2),                      # cusp
    ("z*y^2 - x^2*(x+z)", 1),                # node
    ("y^4 - x^3*z", 6),                      # E6 singularity
    ("x^5 + y^5 + z^5 + x^2*y^2*z", None),
    ("y^2*z^3 - x^5 + x^4*z", None),
])
def test_named_curves_over_two_fields(text, tau):
    f = poly_parse(text)
    assert_single_rank_tau(f, tau)
    assert_single_rank_tau(f.map_field(PrimeField(P)), tau)


def test_tangent_instance_over_gfp():
    spec = find_tangent_instance("nodal", seed=1)
    f, _, ledger = tangent_arrangement(spec)
    assert isinstance(f.field, PrimeField)
    assert_single_rank_tau(f, ledger["tau"])


def test_smooth_curve_socle_sits_at_3d_minus_6():
    # one rank at 3d-6 instead of 3d-5 would read tau = 1 for a smooth quartic
    f = poly_parse("x^4 + y^4 + z^4")
    assert milnor_hilbert(f, 6) == 1
    assert milnor_hilbert(f, 7) == milnor_hilbert(f, 8) == 0


def test_profile_takes_one_rank():
    calls = []

    def counting(f, k):
        calls.append(k)
        return milnor_hilbert(f, k)

    f = poly_parse("x*y*(x+y)*(x-y)*z", PrimeField(P))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tjurina, "milnor_hilbert", counting)
        prof = global_tjurina(f)
    assert calls == [10]
    assert prof.tau == milnor_hilbert(f, 10)


def _reference_milnor_hilbert(f, k):
    """dim S_k minus the rank of the Jacobian map S_{k-d+1}^3 -> S_k."""
    r = k - f.degree + 1
    if r < 0:
        return monomial_count(k)
    A = graded_multiplication_matrix(list(f.gradient()), r, k)
    if f.field.char:
        return monomial_count(k) - rank_mod_np(A, f.field.p)
    return monomial_count(k) - ExactMatrix(f.field, A).rank()


@pytest.mark.parametrize("text", ["x^4 + y^4 + z^4", "x*y*z*(x+y+z)",
                                  "y^2*z - x^3", "x^2 - y^2", "x"])
@pytest.mark.parametrize("field", [QQ, PrimeField(P)])
def test_milnor_hilbert_is_the_jacobian_rank(text, field):
    f = poly_parse(text, field)
    for k in range(3 * f.degree):
        assert milnor_hilbert(f, k) == _reference_milnor_hilbert(f, k)
