"""Exact linear algebra over the integers and GF(2).

One Smith normal form that also returns the inverses of its transforms,
one exact integer matrix product, and one GF(2) row reduction.  The
homology presentations read their cycles, quotients and elementary
divisors off the Smith normal form.  The row reduction works on rows
packed into 64-bit words; only the Z2 Betti numbers of
`homology.homology` use it, as ranks of boundary matrices.

Integer matrices are numpy arrays.  They hold int64 while every entry
provably stays in machine range, and Python ints (dtype=object,
arbitrary precision) otherwise, so no result depends on overflow.
"""

from __future__ import annotations

import numpy as np


class _Overflow(Exception):
    pass


_GUARD = 1 << 31  # entries above this leave the certified int64 range
_LIMIT = 1 << 62  # bound on a sum of int64 products


def int_matmul(A, B):
    """Exact product A @ B of integer matrices (or a matrix and a vector)."""
    # a list goes through Python ints: numpy would round [2**63] to float
    A, B = (M if isinstance(M, np.ndarray) else np.array(M, dtype=object)
            for M in (A, B))
    if A.size and B.size and (int(np.abs(A).max()) * int(np.abs(B).max())
                              * A.shape[-1] >= _LIMIT):
        return A.astype(object) @ B.astype(object)
    return A.astype(np.int64) @ B.astype(np.int64)


def smith_normal_form(A):
    """Return (S, U, V, Ui, Vi) with S = U @ A @ V, Ui = U^-1 and Vi = V^-1.

    S is diagonal with S[i, i] dividing S[i+1, i+1]; diagonal entries are
    nonnegative.  U and V are unimodular.  Every elementary operation on
    U or V is undone on Ui or Vi, so no inverse is ever solved for.  A is
    a list of rows of ints (or an integer array) and is not modified.
    The vectorized pivot order runs on int64 while the entries stay
    certified; otherwise the same code runs on Python ints.
    """
    try:
        return _snf(A, exact=False)
    except _Overflow:
        return _snf(A, exact=True)


def _snf(A, exact):
    S = np.array(A, dtype=object)
    if S.ndim != 2:  # no rows
        S = S.reshape(len(A), 0)
    m, n = S.shape

    def fits(*parts):
        if not exact and any(np.abs(p).max(initial=0) > _GUARD for p in parts):
            raise _Overflow

    def fits_sum(W, q):
        if not exact and (int(np.abs(W).max(initial=0)) * int(np.abs(q).max())
                          * len(q) >= _LIMIT):
            raise _Overflow

    fits(S)
    dtype = object if exact else np.int64
    S = S.astype(dtype)
    U, Ui = np.eye(m, dtype=dtype), np.eye(m, dtype=dtype)
    V, Vi = np.eye(n, dtype=dtype), np.eye(n, dtype=dtype)

    def swap_rows(i, j):
        S[[i, j]] = S[[j, i]]
        U[[i, j]] = U[[j, i]]
        Ui[:, [i, j]] = Ui[:, [j, i]]

    def swap_cols(i, j):
        S[:, [i, j]] = S[:, [j, i]]
        V[:, [i, j]] = V[:, [j, i]]
        Vi[[i, j]] = Vi[[j, i]]

    t = 0
    while t < min(m, n):
        block = np.abs(S[t:, t:])
        nz = np.flatnonzero(block)
        if not nz.size:
            break
        bi, bj = divmod(int(nz[np.argmin(block.flat[nz])]), n - t)
        swap_rows(t, t + bi)
        swap_cols(t, t + bj)
        while True:
            dirty = False
            rows = t + 1 + np.flatnonzero(S[t + 1:, t])
            if rows.size:
                q = S[rows, t] // S[t, t]
                fits_sum(Ui[:, rows], q)
                S[rows] -= q[:, None] * S[t]
                U[rows] -= q[:, None] * U[t]
                Ui[:, t] += Ui[:, rows] @ q
                fits(S[rows], U[rows], Ui[:, t])
                rem = rows[S[rows, t] != 0]
                if rem.size:
                    swap_rows(t, rem[np.argmin(np.abs(S[rem, t]))])
                    dirty = True
            cols = t + 1 + np.flatnonzero(S[t, t + 1:])
            if cols.size:
                q = S[t, cols] // S[t, t]
                fits_sum(Vi[cols], q)
                S[:, cols] -= S[:, t][:, None] * q
                V[:, cols] -= V[:, t][:, None] * q
                Vi[t] += q @ Vi[cols]
                fits(S[:, cols], V[:, cols], Vi[t])
                rem = cols[S[t, cols] != 0]
                if rem.size:
                    swap_cols(t, rem[np.argmin(np.abs(S[t, rem]))])
                    dirty = True
            if not dirty:
                break
        if abs(S[t, t]) > 1:  # a unit pivot divides every entry
            off = np.flatnonzero((S[t + 1:, t + 1:] % S[t, t]).any(axis=1))
            if off.size:
                i = t + 1 + off[0]
                S[t] += S[i]
                U[t] += U[i]
                Ui[:, i] -= Ui[:, t]
                fits(S[t], U[t], Ui[:, i])
                continue
        if S[t, t] < 0:
            S[t] = -S[t]
            U[t] = -U[t]
            Ui[:, t] = -Ui[:, t]
        t += 1
    return S, U, V, Ui, Vi


# ---------------------------------------------------------------------------
# GF(2)


def gf2_echelon(M):
    """Reduced row echelon form of an integer matrix over GF(2).

    Returns (R, pivots): R is a uint8 array whose row i leads in column
    pivots[i], and whose rows past len(pivots) are zero.  The pivot
    columns are the first maximal independent set of columns of M, taken
    from left to right.  Rows are packed into 64-bit words (column c is
    bit c % 64 of word c // 64) while they are reduced.
    """
    A = (np.asarray(M) % 2).astype(np.uint8)
    m, n = A.shape
    P = np.zeros((m, 8 * max(1, -(-n // 64))), dtype=np.uint8)
    P[:, :-(-n // 8)] = np.packbits(A, axis=1, bitorder="little")
    P = P.view("<u8")
    pivots = []
    for c in range(n):
        r = len(pivots)
        if r == m:
            break
        w = c // 64
        col = (P[:, w] >> np.uint64(c % 64)) & np.uint64(1)
        nz = np.flatnonzero(col[r:])
        if not nz.size:
            continue
        p = r + int(nz[0])
        P[[r, p]] = P[[p, r]]
        col[[r, p]] = col[[p, r]]
        rows = np.flatnonzero(col)
        # the pivot row is zero left of column c, so words before w stay
        P[rows[rows != r], w:] ^= P[r, w:]
        pivots.append(c)
    R = np.unpackbits(P.view(np.uint8), axis=1, count=n, bitorder="little")
    return R, pivots

