"""Exact rank / nullspace / determinant computations.

One elimination, ``_echelon``, in two arithmetics picked from p alone:

* GF(p), p < 2^31: int64 residues.  A row update ``a - f*b`` on residues
  lies in (-(p-1)^2, p), inside (-2^62, 2^31), and is reduced by
  ``a - (a // p)*p``: numpy divides an int64 array by a scalar with a
  precomputed multiply-and-shift (libdivide), about twice as fast as ``%``,
  which divides each entry in hardware.  Floor division, unlike truncation,
  gives a result in [0, p) for a negative ``a`` too, and the quotient's
  product with p lies in (-2^62, 2^31), so nothing overflows.
* Q (p None): Fractions in an object array, with no reduction step.

The rows to update are gathered in blocks of at most ``_BLOCK`` entries,
which bounds the kernel's temporaries, and so peak memory, on large
matrices.  Pivots are scaled to 1.  ``rank_mod_np`` and ``ExactMatrix``'s
``rank`` and ``det`` read the row echelon form; ``nullspace_mod_np`` and
``ExactMatrix.nullspace`` read their basis from the reduced form through
``_nullspace_basis``, so a basis is canonical: one vector per free column,
with a 1 there.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .fields import Field

__all__ = ["ExactMatrix", "rank_mod_np", "nullspace_mod_np"]


# entries per row-update block: the update's two temporaries stay at 256 KB
# each (int64) however large the matrix, next to A and its copy R
_BLOCK = 1 << 15


def _echelon(A: np.ndarray, p: int | None, reduced: bool):
    """Row echelon form of A with pivots scaled to 1; the rows above each
    pivot are cleared too when ``reduced``.  Over GF(p) A holds int64
    residues in [0, p); over Q (p None) it holds Fractions in an object
    array.  A is left unchanged.  Returns (R, pivot columns, det), where
    det is the product of the pivots with the sign of the row swaps (mod p
    over GF(p)) when every row has a pivot, and 0 otherwise: for a square
    A, its determinant."""
    R = A.copy()
    rows, cols = R.shape
    pivots = []
    det = 1
    for c in range(cols):
        r = len(pivots)
        if r == rows:
            break
        nz = R[r:, c].nonzero()[0]
        if nz.size == 0:
            continue
        if nz[0]:
            i = r + int(nz[0])
            R[[r, i]] = R[[i, r]]
            det = -det
        prow = R[r, c:]
        if p:
            a = int(prow[0])
            det = det * a % p
            prow[:] = prow * pow(a, -1, p) % p
        else:
            det *= prow[0]
            # a Fraction even when the pivot is an int: 1 / 2 would be 0.5
            prow[:] = prow * (Fraction(1) / prow[0])
        # below the pivot, only the rows r + nz[1:] are nonzero in column c:
        # the row swapped down to r + nz[0] was zero there
        idx = nz[1:] + r
        if reduced:
            idx = np.concatenate((R[:r, c].nonzero()[0], idx))
        step = max(1, _BLOCK // prow.size)
        for k in range(0, idx.size, step):
            rk = idx[k:k + step]
            sub = R[rk, c:]
            t = sub[:, :1] * prow
            sub -= t  # in (-p^2, p) over GF(p)
            if p:
                np.floor_divide(sub, p, out=t)
                t *= p
                sub -= t  # in [0, p)
            R[rk, c:] = sub
        pivots.append(c)
    return R, pivots, det if len(pivots) == rows else 0


def _nullspace_basis(R: np.ndarray, pivots, p: int | None):
    """The canonical nullspace basis read from a reduced row echelon form R
    (p as for ``_echelon``): for each free column j, the vector of R's dtype
    with a 1 at j and -R[i, j] at the i-th pivot column."""
    cols = R.shape[1]
    pivset = set(pivots)
    basis = []
    for j in range(cols):
        if j in pivset:
            continue
        v = np.zeros(cols, dtype=R.dtype)
        v[j] = 1
        col = -R[:len(pivots), j]
        v[pivots] = col % p if p else col
        basis.append(v)
    return basis


def rank_mod_np(A: np.ndarray, p: int) -> int:
    """Rank over GF(p); A is int64 with entries in [0, p) and is left
    unchanged."""
    return len(_echelon(A, p, reduced=False)[1])


def nullspace_mod_np(A: np.ndarray, p: int):
    """Canonical nullspace basis over GF(p), read from the reduced row
    echelon form: one int64 vector per free column, with a 1 there."""
    R, pivots, _ = _echelon(A, p, reduced=True)
    return _nullspace_basis(R, pivots, p)


class ExactMatrix:
    """Dense matrix over an exact field, eliminated by ``_echelon`` in the
    field's arithmetic; nullspace vectors are re-checked by substitution.
    A is an array or a list of rows of the field's scalars, taken as they
    are: residues in [0, p), held as int64, over GF(p); Fractions, held in
    an object array, over Q."""

    def __init__(self, field: Field, A):
        self.field = field
        self._p = field.char or None  # None over Q
        A = np.asarray(A, dtype=np.int64 if self._p else object)
        if A.ndim == 1 and A.size == 0:  # no rows
            A = A.reshape(0, 0)
        if A.ndim != 2:
            raise ValueError("ragged matrix")
        self._array = A
        self.nrows, self.ncols = A.shape

    def rank(self) -> int:
        return len(_echelon(self._array, self._p, reduced=False)[1])

    def _rref(self):
        """Reduced row echelon form: (R, pivot columns, det) as
        ``_echelon`` returns them."""
        return _echelon(self._array, self._p, reduced=True)

    def nullspace(self):
        """Basis of the right kernel; canonical (RREF-derived), re-verified."""
        F = self.field
        R, pivots, _ = self._rref()
        basis = [[F.coerce(x) for x in v.tolist()]
                 for v in _nullspace_basis(R, pivots, self._p)]
        for v in basis:
            if not self.maps_to_zero(v):
                raise ArithmeticError("nullspace vector failed re-substitution")
        return basis

    def maps_to_zero(self, v) -> bool:
        """A v = 0, summed in Python scalars, over the nonzero entries."""
        F = self.field
        cols = [j for j, b in enumerate(v) if not F.is_zero(b)]
        w = [v[j] for j in cols]
        return all(F.is_zero(sum(a * b for a, b in zip(row, w) if a))
                   for row in self._array[:, cols].tolist())

    def det(self):
        if self.nrows != self.ncols:
            raise ValueError("determinant of a non-square matrix")
        return self.field.coerce(
            _echelon(self._array, self._p, reduced=False)[2])
