"""Exact linear algebra over the integers.

A one-sided Smith normal form and an exact integer matrix product.
Every homology group of the package is read off the Smith normal form of
a small relation matrix (`homology._eliminate`) and its row transform U
alone, so the Smith form returns U and U^-1 and builds no column
transform.  A GF(2) rank is the number of odd divisors.

Integer matrices are numpy arrays.  The Smith form, whose inputs are a
few rows, runs on Python ints (dtype=object, arbitrary precision);
`int_matmul` runs in int64 while every sum of products provably stays in
machine range, and on Python ints otherwise.  No result depends on
overflow.
"""

from __future__ import annotations

import numpy as np


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
    """Return (S, U, Ui) with S = U @ A @ V for some unimodular V, Ui = U^-1.

    S is diagonal with S[i, i] dividing S[i+1, i+1]; diagonal entries are
    nonnegative.  U is unimodular, and every row operation on U is undone
    on Ui, so no inverse is ever solved for.  Column operations act on S
    only: V is never built.  A is a list of rows of ints (or an integer
    array) and is not modified.
    """
    S = np.array(A, dtype=object)
    if S.ndim != 2:  # no rows
        S = S.reshape(len(A), 0)
    m, n = S.shape
    U, Ui = np.eye(m, dtype=object), np.eye(m, dtype=object)

    def swap_rows(i, j):
        S[[i, j]] = S[[j, i]]
        U[[i, j]] = U[[j, i]]
        Ui[:, [i, j]] = Ui[:, [j, i]]

    def swap_cols(i, j):
        S[:, [i, j]] = S[:, [j, i]]

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
                S[rows] -= q[:, None] * S[t]
                U[rows] -= q[:, None] * U[t]
                Ui[:, t] += Ui[:, rows] @ q
                rem = rows[S[rows, t] != 0]
                if rem.size:
                    swap_rows(t, rem[np.argmin(np.abs(S[rem, t]))])
                    dirty = True
            cols = t + 1 + np.flatnonzero(S[t, t + 1:])
            if cols.size:
                S[:, cols] -= S[:, t][:, None] * (S[t, cols] // S[t, t])
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
                continue
        if S[t, t] < 0:
            S[t] = -S[t]
            U[t] = -U[t]
            Ui[:, t] = -Ui[:, t]
        t += 1
    return S, U, Ui
