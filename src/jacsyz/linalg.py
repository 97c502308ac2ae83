"""Exact rank / nullspace / determinant computations.

Two eliminations, one per arithmetic:

* ``_echelon_mod_np``: a vectorized numpy int64 kernel over GF(p) for
  p < 2^31.  ``rank_mod_np`` counts its pivots; ``nullspace_mod_np`` reads
  the basis from its reduced form.  A row update ``a - f*b`` on residues
  lies in (-(p-1)^2, p), inside (-2^62, 2^31), and is reduced by
  ``a - (a // p)*p``: numpy divides an int64 array by a scalar with a
  precomputed multiply-and-shift (libdivide), about twice as fast as ``%``,
  which divides each entry in hardware.  Floor division, unlike truncation,
  gives a result in [0, p) for a negative ``a`` too, and the quotient's
  product with p lies in (-2^62, 2^31), so nothing overflows.  The rows to
  update are gathered in blocks of at most ``_BLOCK`` entries, which bounds
  the kernel's temporaries, and so peak memory, on large matrices.
* ``ExactMatrix._rref``: a generic row reduction over any exact field
  (Fractions over Q, Python ints mod p for p >= 2^31).  ``rank``,
  ``nullspace`` and ``det`` all read from it.

Both return the reduced row echelon form with pivots scaled to 1, so a
nullspace basis is canonical: one vector per free column, with a 1 there.
"""

from __future__ import annotations

import numpy as np

from .fields import Field

__all__ = ["ExactMatrix", "rank_mod_np", "nullspace_mod_np"]


# ---------------------------------------------------------------------------
# numpy kernel for GF(p)
# ---------------------------------------------------------------------------

# entries per row-update block: the update's two temporaries stay at 256 KB
# each however large the matrix, next to A and its copy R
_BLOCK = 1 << 15


def _echelon_mod_np(A: np.ndarray, p: int, reduced: bool):
    """Row echelon form of A over GF(p) with pivots scaled to 1; the rows
    above each pivot are cleared too when ``reduced``.  A is int64 with
    entries in [0, p) and is left unchanged.  Returns (R, pivot columns)."""
    R = A.copy()
    rows, cols = R.shape
    pivots = []
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
        prow = R[r, c:]
        prow[:] = prow * pow(int(prow[0]), -1, p) % p
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
            sub -= t  # in (-p^2, p)
            np.floor_divide(sub, p, out=t)
            t *= p
            sub -= t  # in [0, p)
            R[rk, c:] = sub
        pivots.append(c)
    return R, pivots


def rank_mod_np(A: np.ndarray, p: int) -> int:
    """Rank over GF(p); A is int64 with entries in [0, p) and is left
    unchanged."""
    return len(_echelon_mod_np(A, p, reduced=False)[1])


def nullspace_mod_np(A: np.ndarray, p: int):
    """Canonical nullspace basis over GF(p), read from the reduced row
    echelon form: one int64 vector per free column, with a 1 there."""
    R, pivots = _echelon_mod_np(A, p, reduced=True)
    cols = A.shape[1]
    pivset = set(pivots)
    basis = []
    for j in range(cols):
        if j in pivset:
            continue
        v = np.zeros(cols, dtype=np.int64)
        v[j] = 1
        v[pivots] = -R[:len(pivots), j] % p
        basis.append(v)
    return basis


# ---------------------------------------------------------------------------
# generic exact matrix
# ---------------------------------------------------------------------------

class ExactMatrix:
    """Dense matrix over an exact field; all results verified by construction
    (nullspace vectors re-checked by substitution)."""

    def __init__(self, field: Field, rows):
        self.field = field
        self.rows = [[field.coerce(v) for v in row] for row in rows]
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else 0
        for row in self.rows:
            if len(row) != self.ncols:
                raise ValueError("ragged matrix")

    def rank(self) -> int:
        return len(self._rref()[1])

    def _rref(self):
        """Reduced row echelon form by one elimination: (rows, pivot columns,
        det).  det is the product of the pivots, with the sign of the row
        swaps, when every row has a pivot, and zero otherwise; for a square
        matrix it is the determinant."""
        F = self.field
        R = [list(r) for r in self.rows]
        pivots = []
        det = F.one()
        for c in range(self.ncols):
            r = len(pivots)
            if r == self.nrows:
                break
            piv = next((i for i in range(r, self.nrows)
                        if not F.is_zero(R[i][c])), None)
            if piv is None:
                continue
            if piv != r:
                R[r], R[piv] = R[piv], R[r]
                det = F.neg(det)
            det = F.mul(det, R[r][c])
            inv = F.inv(R[r][c])
            # entries left of column c are zero in rows r and below
            row = R[r] = R[r][:c] + [F.mul(inv, v) for v in R[r][c:]]
            for i in range(self.nrows):
                f = R[i][c]
                if i != r and not F.is_zero(f):
                    R[i] = R[i][:c] + [F.sub(a, F.mul(f, b))
                                       for a, b in zip(R[i][c:], row[c:])]
            pivots.append(c)
        if len(pivots) < self.nrows:
            det = F.zero()
        return R, pivots, det

    def nullspace(self):
        """Basis of the right kernel; canonical (RREF-derived), re-verified."""
        F = self.field
        R, pivots, _ = self._rref()
        pivset = set(pivots)
        basis = []
        for j in range(self.ncols):
            if j in pivset:
                continue
            v = [F.zero()] * self.ncols
            v[j] = F.one()
            for i, pc in enumerate(pivots):
                v[pc] = F.neg(R[i][j])
            basis.append(v)
        for v in basis:
            if not self.maps_to_zero(v):
                raise ArithmeticError("nullspace vector failed re-substitution")
        return basis

    def maps_to_zero(self, v) -> bool:
        F = self.field
        for row in self.rows:
            acc = F.zero()
            for a, b in zip(row, v):
                if not F.is_zero(a) and not F.is_zero(b):
                    acc = F.add(acc, F.mul(a, b))
            if not F.is_zero(acc):
                return False
        return True

    def nullity(self) -> int:
        return self.ncols - self.rank()

    def det(self):
        if self.nrows != self.ncols:
            raise ValueError("determinant of a non-square matrix")
        return self._rref()[2]
