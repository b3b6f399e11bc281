"""Dense linear algebra over prime fields F_p.

All matrices are numpy int64 arrays with entries reduced mod p. The main
workhorse is :class:`SpanBuilder`, an incremental reduced-row-echelon
accumulator: inserting vectors keeps a canonical RREF basis (unit pivots,
zeros above and below each pivot, rows ordered by pivot column), so two
equal row spaces always produce byte-identical bases.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache

import numpy as np


@lru_cache(maxsize=None)
def inverse_table(p: int) -> np.ndarray:
    """Return an array ``inv`` with ``inv[i] * i == 1 (mod p)`` for 0 < i < p."""
    inv = np.zeros(p, dtype=np.int64)
    for i in range(1, p):
        inv[i] = pow(i, p - 2, p)
    inv.setflags(write=False)
    return inv


def _first_nonzero(v: np.ndarray) -> int:
    """Index of the first nonzero entry of 1-D ``v``, or -1 if ``v`` is zero."""
    nz = np.flatnonzero(v)
    return int(nz[0]) if nz.size else -1


class SpanBuilder:
    """Incremental RREF accumulator for row vectors over F_p.

    Args:
        p: Field characteristic (prime).
        ncols: Length of the row vectors.

    The accumulated basis is reachable through :attr:`basis` (a read-only
    (rank x ncols) array in canonical reduced echelon form) and
    :attr:`pivots` (sorted pivot column indices, one per basis row).
    """

    __slots__ = ("p", "ncols", "_rows", "_pivots", "_inv")

    def __init__(self, p: int, ncols: int):
        self.p = p
        self.ncols = ncols
        self._rows: list[np.ndarray] = []
        self._pivots: list[int] = []
        self._inv = inverse_table(p)

    @property
    def rank(self) -> int:
        return len(self._rows)

    @property
    def pivots(self) -> list[int]:
        return list(self._pivots)

    @property
    def basis(self) -> np.ndarray:
        if not self._rows:
            return np.zeros((0, self.ncols), dtype=np.int64)
        return np.array(self._rows, dtype=np.int64)

    def reduce(self, rows: np.ndarray) -> np.ndarray:
        """Reduce a batch of rows against the current basis.

        Args:
            rows: (m x ncols) array; not modified.

        Returns:
            (m x ncols) array of residuals. A residual is zero exactly when
            the corresponding row lies in the accumulated span.
        """
        rows = np.atleast_2d(rows) % self.p
        if not self._rows:
            return rows
        B = self.basis
        coeffs = rows[:, self._pivots]
        return (rows - coeffs @ B) % self.p

    def contains(self, rows: np.ndarray) -> bool:
        return not self.reduce(rows).any()

    def insert(self, v: np.ndarray) -> bool:
        """Insert one vector; returns True if the rank grew."""
        v = self.reduce(v)[0]
        j = _first_nonzero(v)
        if j < 0:
            return False
        self._insert_reduced(v, j)
        return True

    def _insert_reduced(self, v: np.ndarray, j: int) -> None:
        # v is already reduced against the basis and v[j] is its first nonzero.
        p = self.p
        v = (v * self._inv[v[j]]) % p
        for i, row in enumerate(self._rows):
            c = row[j]
            if c:
                self._rows[i] = (row - c * v) % p
        pos = bisect_left(self._pivots, j)
        self._rows.insert(pos, v)
        self._pivots.insert(pos, j)

    def insert_many(self, rows: np.ndarray) -> int:
        """Insert a batch of (m x ncols) rows; returns the number of rank increases.

        Reduction of the batch is done once against the existing basis and
        then maintained with rank-1 updates per insertion, so the cost is
        O(batch * ncols) per new pivot rather than per row.
        """
        R = self.reduce(rows)
        added = 0
        p = self.p
        live = R[R.any(axis=1)]
        while live.size:
            v = live[0]
            j = _first_nonzero(v)
            self._insert_reduced(v, j)
            added += 1
            # Eliminate the new pivot column from the remaining batch.
            pivot_row = self._rows[bisect_left(self._pivots, j)]
            rest = live[1:]
            col = rest[:, j]
            if col.any():
                rest = (rest - col[:, None] * pivot_row) % p
            live = rest[rest.any(axis=1)]
        return added


def rref(A: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form of ``A`` over F_p.

    Returns:
        (R, pivots): canonical RREF basis of the row space and its pivot
        column indices.
    """
    A = np.atleast_2d(A)
    sb = SpanBuilder(p, A.shape[1])
    sb.insert_many(A)
    return sb.basis, sb.pivots


def rank(A: np.ndarray, p: int) -> int:
    return len(rref(A, p)[1])


def right_nullspace(A: np.ndarray, p: int) -> np.ndarray:
    """Basis (as rows) of {x : A @ x == 0 (mod p)}.

    Returns:
        (nullity x ncols) array; rows are canonical (each has a 1 in "its"
        free column and zeros in the other free columns).
    """
    A = np.atleast_2d(A) % p
    m, n = A.shape
    R, pivots = rref(A, p)
    free = [j for j in range(n) if j not in set(pivots)]
    if not free:
        return np.zeros((0, n), dtype=np.int64)
    out = np.zeros((len(free), n), dtype=np.int64)
    for i, j in enumerate(free):
        out[i, j] = 1
        # pivot variable values: x_pivots = -R[:, j]
        for r, pc in enumerate(pivots):
            out[i, pc] = (-R[r, j]) % p
    return out


def left_nullspace(A: np.ndarray, p: int) -> np.ndarray:
    """Basis (as rows) of {z : z @ A == 0 (mod p)}."""
    return right_nullspace(np.atleast_2d(A).T, p)


def batch_rank(mats: np.ndarray, p: int) -> np.ndarray:
    """Ranks of a batch of matrices over F_p.

    Args:
        mats: (B x m x n) array. Consumed destructively on a copy.

    Returns:
        Length-B int64 array of ranks.
    """
    M = np.array(mats, dtype=np.int64) % p
    B, m, n = M.shape
    inv = inverse_table(p)
    r = np.zeros(B, dtype=np.int64)
    row_idx = np.arange(m)
    batch_idx = np.arange(B)
    for c in range(n):
        if (r >= m).all():
            break
        col = M[:, :, c]
        avail = (row_idx[None, :] >= r[:, None]) & (col != 0)
        has = avail.any(axis=1)
        if not has.any():
            continue
        piv = np.argmax(avail, axis=1)
        b = batch_idx[has]
        pv = piv[has]
        rr = r[has]
        prow = M[b, pv, :].copy()
        # swap pivot row into position rr
        M[b, pv, :] = M[b, rr, :]
        prow = (prow * inv[prow[np.arange(len(b)), c]][:, None]) % p
        M[b, rr, :] = prow
        # eliminate the pivot column from rows strictly below rr
        below = row_idx[None, :] > rr[:, None]
        factors = M[b, :, c] * below
        M[b] = (M[b] - factors[:, :, None] * prow[:, None, :]) % p
        r[has] += 1
    return r


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional F_q-subspaces of an n-dimensional space."""
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    assert num % den == 0
    return num // den
