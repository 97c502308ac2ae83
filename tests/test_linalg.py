import itertools
import random
import sys
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jacsyz import linalg
from jacsyz.backend import make_backend
from jacsyz.fields import PrimeField, QQ, random_primes
from jacsyz.fixtures import get_fixture
from jacsyz.linalg import ExactMatrix, _echelon, nullspace_mod_np, rank_mod_np
from jacsyz.syzygy import graded_multiplication_matrix

P = random_primes(1, seed=11)[0]
BIG = PrimeField(2**31 - 1)  # the largest prime of the int64 kernel

matrices = st.integers(1, 5).flatmap(
    lambda n: st.integers(1, 5).flatmap(
        lambda m: st.lists(
            st.lists(st.integers(-9, 9), min_size=m, max_size=m),
            min_size=n, max_size=n)))


def _qmat(rows):
    return ExactMatrix(QQ, [[Fraction(v) for v in row] for row in rows])


def _rank_oracle(rows):
    """Fraction-free elimination with shuffled pivot choices."""
    rng = random.Random(12345)
    rows = [list(map(Fraction, r)) for r in rows]
    rank = 0
    cols = list(range(len(rows[0])))
    for col in cols:
        pivots = [i for i in range(rank, len(rows)) if rows[i][col] != 0]
        if not pivots:
            continue
        i = rng.choice(pivots)
        rows[rank], rows[i] = rows[i], rows[rank]
        for j in range(len(rows)):
            if j != rank and rows[j][col] != 0:
                c = rows[j][col] / rows[rank][col]
                rows[j] = [a - c * b for a, b in zip(rows[j], rows[rank])]
        rank += 1
    return rank


@settings(max_examples=60)
@given(matrices)
def test_rank_against_shuffled_pivot_oracle(rows):
    assert _qmat(rows).rank() == _rank_oracle(rows)


@settings(max_examples=60)
@given(matrices)
def test_rank_nullity(rows):
    M = _qmat(rows)
    ns = M.nullspace()
    assert M.rank() + len(ns) == len(rows[0])
    for v in ns:
        assert M.maps_to_zero(v)


@settings(max_examples=40)
@given(matrices)
def test_modular_rank_matches_rational_on_small_entries(rows):
    # entries in [-9, 9]: no accidental rank drop is possible at a 31-bit
    # prime unless a minor is divisible by P, which cannot happen here
    A = np.array(rows, dtype=np.int64) % P
    assert rank_mod_np(A, P) == _qmat(rows).rank()


@settings(max_examples=40)
@given(matrices)
def test_modular_nullspace(rows):
    A = np.array(rows, dtype=np.int64) % P
    basis = nullspace_mod_np(A, P)
    assert rank_mod_np(A, P) + len(basis) == A.shape[1]
    for v in basis:
        assert not ((A @ v) % P).any()


@settings(max_examples=30)
@given(matrices)
def test_rref_idempotent(rows):
    A = np.array(rows, dtype=np.int64) % P
    R, piv, _ = _echelon(A, P, reduced=True)
    R2, piv2, _ = _echelon(R, P, reduced=True)
    assert (R == R2).all() and piv == piv2
    assert (A == np.array(rows, dtype=np.int64) % P).all()  # input unchanged
    # the echelon form finds the same pivots; its rows span the same space
    E, piv3, _ = _echelon(A, P, reduced=False)
    assert piv3 == piv and rank_mod_np(R, P) == len(piv)
    assert (_echelon(E, P, reduced=True)[0] == R).all()


# the int64 kernel against the remainder-based kernel it replaced -----------

LIMIT = 2**31 - 1  # the largest prime of the int64 kernel


def _reference_echelon(A, p, reduced):
    """The elimination reducing by ``% p`` (a hardware division per entry),
    with the Fermat inverse and a boolean-mask gather of the rows to update.
    ``_echelon`` must return the same (R, pivots) bit for bit."""
    R = A.copy()
    rows, cols = R.shape
    pivots = []
    for c in range(cols):
        r = len(pivots)
        if r == rows:
            break
        nz = np.flatnonzero(R[r:, c])
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            R[[r, i]] = R[[i, r]]
        R[r, c:] = R[r, c:] * pow(int(R[r, c]), p - 2, p) % p
        top = 0 if reduced else r + 1
        block = R[top:, c:]
        mask = block[:, 0] != 0
        if reduced:
            mask[r] = False
        if mask.any():
            sub = block[mask]
            block[mask] = (sub - sub[:, :1] * R[r, c:]) % p
        pivots.append(c)
    return R, pivots


def _assert_kernel_matches_reference(A, p):
    for reduced in (False, True):
        R0, piv0 = _reference_echelon(A, p, reduced)
        # a block of 3 entries splits every row update into several blocks
        for block in (linalg._BLOCK, 3):
            with mock.patch.object(linalg, "_BLOCK", block):
                R, piv, _ = _echelon(A, p, reduced)
            assert R.dtype == R0.dtype == np.int64
            assert piv == piv0 and np.array_equal(R, R0)


def residue_matrices(p, size=8):
    entry = st.one_of(st.just(0), st.integers(0, p - 1),
                      st.sampled_from([1, p - 2, p - 1]))
    return st.integers(1, size).flatmap(
        lambda n: st.integers(1, size).flatmap(
            lambda m: st.lists(st.lists(entry, min_size=m, max_size=m),
                               min_size=n, max_size=n))).map(
        lambda rows: np.array(rows, dtype=np.int64))


@pytest.mark.parametrize("p", [5, P, LIMIT], ids=str)
@settings(max_examples=80, deadline=None)
@given(st.data())
def test_kernel_matches_remainder_reference(p, data):
    _assert_kernel_matches_reference(data.draw(residue_matrices(p)), p)


def test_kernel_matches_reference_on_the_largest_entries():
    # entries p-1 and p-2 give the largest products, (p-1)^2 < 2^62, and
    # negative differences before each reduction
    rng = np.random.default_rng(3)
    for n, m in [(12, 20), (20, 12), (16, 16), (1, 9), (9, 1)]:
        A = LIMIT - rng.integers(1, 3, size=(n, m))
        _assert_kernel_matches_reference(A, LIMIT)
        A[n // 2:] = A[:n - n // 2]  # repeated rows: rank at most ceil(n/2)
        _assert_kernel_matches_reference(A, LIMIT)


def test_kernel_matches_reference_with_row_swaps():
    # column c is zero on the pivot row, so a row below is swapped up
    rng = np.random.default_rng(4)
    for n in (2, 5, 9):
        anti = np.fliplr(np.diag(LIMIT - rng.integers(1, 3, size=n)))
        _assert_kernel_matches_reference(anti, LIMIT)
        sparse = rng.integers(0, LIMIT, size=(n, 2 * n))
        sparse[rng.random((n, 2 * n)) < 0.6] = 0
        _assert_kernel_matches_reference(sparse[rng.permutation(n)], LIMIT)
    pad = np.zeros((6, 8), dtype=np.int64)
    pad[5] = LIMIT - 1  # the only nonzero row is the last one
    pad[3, 4:] = LIMIT - 2
    _assert_kernel_matches_reference(pad, LIMIT)


def _low_rank_rows(rng, n, m, k, p):
    """An n x m matrix over GF(p) of rank at most k, with full-size entries."""
    B = [[rng.randrange(p) for _ in range(k)] for _ in range(n)]
    C = [[rng.randrange(p) for _ in range(m)] for _ in range(k)]
    return [[sum(B[i][t] * C[t][j] for t in range(k)) % p for j in range(m)]
            for i in range(n)]


def _assert_nullspaces_agree(rows, p):
    A = np.array(rows, dtype=np.int64).reshape(len(rows), -1)
    M = ExactMatrix(PrimeField(p), rows)
    assert [v.tolist() for v in nullspace_mod_np(A, p)] == M.nullspace()
    assert rank_mod_np(A, p) == M.rank()


@settings(max_examples=40)
@given(matrices)
def test_modular_nullspace_matches_generic(rows):
    _assert_nullspaces_agree([[v % P for v in row] for row in rows], P)


def test_modular_nullspace_matches_generic_low_rank():
    rng = random.Random(7)
    for _ in range(40):
        n, m = rng.randint(1, 9), rng.randint(1, 9)
        _assert_nullspaces_agree(
            _low_rank_rows(rng, n, m, rng.randint(0, min(n, m)), P), P)


def _det_oracle(F, rows):
    """Cofactor expansion along the first row."""
    if not rows:
        return F.one()
    acc = F.zero()
    for j, a in enumerate(rows[0]):
        minor = [row[:j] + row[j + 1:] for row in rows[1:]]
        term = F.mul(a, _det_oracle(F, minor))
        acc = F.sub(acc, term) if j % 2 else F.add(acc, term)
    return acc


@pytest.mark.parametrize("field", [QQ, PrimeField(P), BIG],
                         ids=["Q", "Fp", "Fp_big"])
def test_det_matches_cofactor_oracle(field):
    rng = random.Random(5)
    for _ in range(120):
        n = rng.randint(0, 5)
        # small entries make many matrices singular; a few rows repeat
        rows = [[field.coerce(Fraction(rng.randint(-2, 2), rng.randint(1, 3)))
                 for _ in range(n)] for _ in range(n)]
        if n > 1 and rng.random() < 0.2:
            rows[-1] = list(rows[0])
        assert ExactMatrix(field, rows).det() == _det_oracle(field, rows)


def test_integer_entries_over_q_stay_exact():
    # entries are taken as they are: ints over Q eliminate as Fractions
    rows = [[0, 2, 1], [1, 1, 1], [1, 3, 2], [2, 0, 1]]
    M, ref = ExactMatrix(QQ, rows), _qmat(rows)
    assert M.rank() == ref.rank() == 2
    assert M.nullspace() == ref.nullspace()
    assert all(type(v) is Fraction for v in M.nullspace()[0])
    square = [[1, 2], [3, 4]]
    assert repr(ExactMatrix(QQ, square).det()) == repr(_qmat(square).det())


def test_det():
    assert _qmat([[1, 0], [0, 1]]).det() == 1
    assert _qmat([[1, 2], [2, 4]]).det() == 0
    assert _qmat([[0, 1], [1, 0]]).det() == -1
    assert _qmat([[2, 1, 0], [1, 3, 1], [0, 1, 4]]).det() == Fraction(18)


def test_prime_field_matrix():
    F = PrimeField(P)
    M = ExactMatrix(F, [[F.coerce(1), F.coerce(2)],
                        [F.coerce(2), F.coerce(4)]])
    assert M.rank() == 1 and len(M.nullspace()) == 1


# the one elimination against the list-based row reduction it replaced ------

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
FIELDS = [QQ, PrimeField(P), BIG]
FIELD_IDS = ["Q", "Fp", "Fp_big"]


def _reference_rref(F, rows):
    """The generic Gauss-Jordan elimination over lists of field scalars that
    ``ExactMatrix._rref`` ran before it delegated to ``_echelon``: (reduced
    rows, pivot columns, det), det being zero unless every row has a pivot."""
    nrows, ncols = len(rows), len(rows[0]) if rows else 0
    R = [list(r) for r in rows]
    pivots = []
    det = F.one()
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if not F.is_zero(R[i][c])),
                   None)
        if piv is None:
            continue
        if piv != r:
            R[r], R[piv] = R[piv], R[r]
            det = F.neg(det)
        det = F.mul(det, R[r][c])
        inv = F.inv(R[r][c])
        row = R[r] = R[r][:c] + [F.mul(inv, v) for v in R[r][c:]]
        for i in range(nrows):
            f = R[i][c]
            if i != r and not F.is_zero(f):
                R[i] = R[i][:c] + [F.sub(a, F.mul(f, b))
                                   for a, b in zip(R[i][c:], row[c:])]
        pivots.append(c)
    if len(pivots) < nrows:
        det = F.zero()
    return R, pivots, det


def _assert_matches_reference_rref(F, rows):
    rows = [list(row) for row in rows]
    M = ExactMatrix(F, rows)
    R0, piv0, det0 = _reference_rref(F, rows)
    R, piv, det = M._rref()
    # repr tells Fraction(1, 1) from 1: the same scalars, not only equal ones
    assert repr(R.tolist()) == repr(R0)
    assert piv == piv0 and F.coerce(det) == det0
    E, piv_e, det_e = _echelon(M._array, M._p, reduced=False)
    assert piv_e == piv0 and F.coerce(det_e) == det0
    assert (_echelon(E, M._p, reduced=True)[0] == R).all()
    assert M.rank() == len(piv0)
    if M.nrows == M.ncols:
        assert repr(M.det()) == repr(det0)
    assert repr(M._array.tolist()) == repr(rows)  # input unchanged


entries = st.one_of(st.just(0), st.integers(-3, 3),
                    st.fractions(-3, 3, max_denominator=4))
exact_matrices = st.integers(0, 6).flatmap(
    lambda n: st.integers(1 if n else 0, 6).flatmap(
        lambda m: st.lists(
            st.lists(entries, min_size=m, max_size=m), min_size=n,
            max_size=n)))


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@settings(max_examples=60, deadline=None)
@given(rows=exact_matrices, repeat=st.booleans(), zero=st.booleans())
def test_one_elimination_matches_reference_rref(field, rows, repeat, zero):
    # a repeated row makes the matrix singular, a zero row leaves it without
    # a pivot, and a zero first row swaps rows
    if rows and repeat:
        rows = rows + [rows[0]]
    if rows and zero:
        rows = [[0] * len(rows[0])] + rows
    _assert_matches_reference_rref(
        field, [[field.coerce(v) for v in row] for row in rows])


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_det_sign_of_permutation_matrices(field):
    for n in range(6):
        for perm in itertools.permutations(range(n)):
            rows = [[field.coerce(int(perm[i] == j)) for j in range(n)]
                    for i in range(n)]
            inversions = sum(perm[i] > perm[j]
                             for i in range(n) for j in range(i + 1, n))
            assert ExactMatrix(field, rows).det() == field.coerce(
                (-1) ** inversions)
            if n <= 4:
                _assert_matches_reference_rref(field, rows)


@lru_cache(maxsize=None)
def _deck_matrices():
    """Every exact matrix that 4 rounds of the seed-1 generic_arrangements
    deck build: the Q-pencil discriminant's Macaulay matrices and the
    rational-backend classify's matrices (the arrangement jobs run in the
    int64 kernel only)."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    captured = []
    init = ExactMatrix.__init__

    def spy(self, field, rows):
        init(self, field, rows)
        captured.append((field, self._array.tolist()))

    ctx = workloads.Context(make_backend(seed=1), make_backend("rational"))
    deck = workloads.generate(workloads.WORKLOADS["generic_arrangements"], 1)
    with mock.patch.object(ExactMatrix, "__init__", spy):
        for rnd in deck[:4]:
            for inp in rnd:
                if inp.kind in ("pencil", "rational"):
                    workloads.build_objects(inp)
                    workloads.JOBS[inp.kind](inp, ctx)
    return captured


def test_one_elimination_matches_reference_on_deck_matrices():
    mats = _deck_matrices()
    shapes = Counter((len(rows), len(rows[0])) for _, rows in mats)
    # Macaulay matrices of the degree-2 partials of a k = 3 pencil and
    # their 3 x 3 minors, plus a certificate nullspace a round, which also
    # proves the mdr of that d = 4 arrangement (2m >= d)
    assert shapes[15, 15] == shapes[3, 3] > 0
    assert len(mats) == 2 * shapes[15, 15] + 4
    assert {F for F, _ in mats} == {QQ}
    for F, rows in mats:
        _assert_matches_reference_rref(F, rows)


def test_one_elimination_matches_reference_on_a_milnor_matrix():
    # tau's one rank at k = 3d-5 for d = 6, over Q: a 105 x 135 matrix
    f = get_fixture("ex14ii:4").f
    d = f.degree
    rows = graded_multiplication_matrix(list(f.gradient()), 2 * d - 4,
                                        3 * d - 5)
    assert (len(rows), len(rows[0])) == (105, 135)
    _assert_matches_reference_rref(QQ, rows)


def test_rank_and_det_take_the_echelon_form_and_nullspace_the_rref():
    rows = [[QQ.coerce(v) for v in row] for row in [[0, 2, 1], [1, 1, 1],
                                                    [1, 3, 2]]]
    M = ExactMatrix(QQ, rows)
    with mock.patch.object(linalg, "_echelon", wraps=linalg._echelon) as ech, \
            mock.patch.object(ExactMatrix, "_rref", autospec=True,
                              side_effect=ExactMatrix._rref) as rref:
        assert M.rank() == 2 and M.det() == 0
        assert [c.kwargs["reduced"] for c in ech.call_args_list] == [
            False, False]
        assert rref.call_count == 0
        assert len(M.nullspace()) == 1
        assert rref.call_count == 1
        assert ech.call_args_list[-1].kwargs["reduced"] is True
