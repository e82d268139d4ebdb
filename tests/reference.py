"""Test references: the dense and per-simplex forms of what the package
computes batched or one-sided.

- `boundary_matrix(X, k)`: the integer matrix of C_k -> C_(k-1), read off
  `face_table` (the package builds none; the tests compare chains with it).
- `smith_normal_form(A)`: the two-sided Smith form (S, U, V, Ui, Vi) with
  S = U @ A @ V.  Its row transforms are those of the package's one-sided
  `linalg_z.smith_normal_form`, which the tests check entry for entry.
- `simplex_gram`, `simplex_volume`, `simplex_is_nondegenerate`: one
  simplex at a time from a `PLMetric`, against the package's Gram stack.
- `harmonic_forms(X, g, omegas)`: harmonic representatives and their
  Gram by sparse normal equations, against the package's per-top
  assembly: an edge x edge energy form from COO triplets, the
  coboundary d0 as a sparse matrix, the Laplacian d0^T M d0 grounded at
  vertex 0 and factorised by `splu`.
- `_shortest_nontrivial_loop`, with `_adjacency` and `_z_labels`: a
  per-vertex `heapq` Dijkstra over (vertex, group element) states, the
  shortest closed walk whose accumulated label is not the identity,
  against the package's `csgraph.dijkstra` loop searches.
"""
import heapq
import math

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from sysgeo.homology import h1_dual_bases
from sysgeo.simplicial import (
    MetricError,
    PLMetric,
    SimplicialComplex,
    edge_table,
    face_table,
    top_geometry,
)

INF = math.inf


def boundary_matrix(X: SimplicialComplex, k: int) -> np.ndarray:
    """Integer matrix of the boundary C_k -> C_{k-1}."""
    if k <= 0:
        return np.zeros((1, X.n_simplices(max(k, 0))), dtype=np.int64)
    M = np.zeros((X.n_simplices(k - 1), X.n_simplices(k)), dtype=np.int64)
    if k <= X.dim:
        ft = face_table(X, k)
        np.add.at(M, (ft, np.arange(len(ft))[:, None]), (-1) ** (k - np.arange(k + 1)))
    return M


class _Overflow(Exception):
    pass


_GUARD = 1 << 31  # entries above this leave the certified int64 range
_LIMIT = 1 << 62  # bound on a sum of int64 products


def smith_normal_form(A):
    """Return (S, U, V, Ui, Vi) with S = U @ A @ V, Ui = U^-1 and Vi = V^-1.

    S is diagonal with S[i, i] dividing S[i+1, i+1]; diagonal entries are
    nonnegative.  U and V are unimodular.  Every elementary operation on
    U or V is undone on Ui or Vi.  The pivot order is the package's, on
    int64 while the entries stay certified and on Python ints otherwise.
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


def simplex_gram(simplex, metric: PLMetric) -> np.ndarray:
    """Gram matrix of edge vectors v_i - v_0 from the edge lengths."""
    s = tuple(simplex)
    k = len(s) - 1
    G = np.empty((k, k))
    for i in range(k):
        li = metric.length(s[0], s[i + 1])
        for j in range(i, k):
            lj = metric.length(s[0], s[j + 1])
            lij = metric.length(s[i + 1], s[j + 1])
            G[i, j] = G[j, i] = 0.5 * (li * li + lj * lj - lij * lij)
    return G


def simplex_volume(simplex, metric: PLMetric) -> float:
    """Euclidean k-volume of a flat simplex (Cayley-Menger determinant)."""
    k = len(simplex) - 1
    if k == 0:
        return 1.0
    G = simplex_gram(simplex, metric)
    det = np.linalg.det(G)
    if det <= 0:
        raise MetricError(f"simplex {tuple(simplex)} is degenerate (det {det:g})")
    return math.sqrt(det) / math.factorial(k)


def simplex_is_nondegenerate(simplex, metric: PLMetric, margin: float = 0.0) -> bool:
    """Positive-definite Gram matrix, and with a margin also
    det G > margin * (longest edge at vertex 0)^(2k)."""
    G = simplex_gram(simplex, metric)
    try:
        np.linalg.cholesky(G)
    except np.linalg.LinAlgError:
        return False
    if margin > 0:
        scale = max(l * l for l in (metric.length(simplex[0], v) for v in simplex[1:]))
        return np.linalg.det(G) > margin * scale ** (len(simplex) - 1)
    return True


def energy_form(X: SimplicialComplex, g: PLMetric) -> sparse.csr_matrix:
    """Sparse quadratic form of the L2 covector norm on closed 1-cochains:
    top s adds vol(s) G(s)^-1 on its edges (s0, si)."""
    gram, vol, _ = top_geometry(X, g, X.dim)
    W = vol[:, None, None] * np.linalg.inv(gram)
    idx = edge_table(X, X.dim)[:, :X.dim]
    n, ne = X.dim, X.n_simplices(1)
    rows = np.repeat(idx, n, axis=1).ravel()  # W[t, a, b] sits at (idx[t, a], idx[t, b])
    cols = np.tile(idx, (1, n)).ravel()
    return sparse.csr_matrix((W.ravel(), (rows, cols)), shape=(ne, ne))


def coboundary(X: SimplicialComplex) -> sparse.csr_matrix:
    """Sparse d0 (edges x vertices): (du)_(a,b) = u_b - u_a."""
    ends = face_table(X, 1)
    ne = len(ends)
    return sparse.csr_matrix(
        (np.tile([-1.0, 1.0], ne), ends.ravel(), np.arange(0, 2 * ne + 1, 2)),
        shape=(ne, X.n_vertices))


def harmonic_forms(X: SimplicialComplex, g: PLMetric, omegas):
    """(rows omega - d u minimizing the L2 norm in the classes of the rows
    of omegas, their Gram matrix), from the normal equations
    D^T M D u = D^T M omega grounded at u_0 = 0."""
    M, D = energy_form(X, g), coboundary(X)
    W = np.atleast_2d(np.asarray(omegas, dtype=float)).T  # E x k
    A = (D.T @ M @ D).tocsc()
    U = np.zeros((X.n_vertices, W.shape[1]))
    U[1:] = splu(A[1:, 1:]).solve((D.T @ (M @ W))[1:])
    E = (W - D @ U).T
    return E, E @ (M @ E.T)


def _adjacency(X: SimplicialComplex, g: PLMetric):
    adj = [[] for _ in range(X.n_vertices)]
    for idx, (u, v) in enumerate(X.edges):
        l = g.length(u, v)
        adj[u].append((v, idx, +1, l))
        adj[v].append((u, idx, -1, l))
    return adj


def _shortest_nontrivial_loop(X, g, label, combine, identity, upper=INF):
    """Shortest closed edge loop whose accumulated label is not the identity.

    label(edge_index, sign) -> group element; combine(h, l) -> h * l.
    Runs a pruned Dijkstra on the labeled cover from every base vertex.
    Returns (length, vertex loop) or (inf, None).
    """
    adj = _adjacency(X, g)
    best = upper
    best_loop = None
    for v0 in range(X.n_vertices):
        start = (v0, identity)
        dist = {start: 0.0}
        prev = {}
        pq = [(0.0, start)]
        while pq:
            d, state = heapq.heappop(pq)
            if d > dist.get(state, INF) or d >= best:
                continue
            v, h = state
            for (w, idx, sign, l) in adj[v]:
                nh = combine(h, label(idx, sign))
                nd = d + l
                if nd >= best:
                    continue
                if w == v0 and nh != identity:
                    best = nd
                    trail = []
                    s = state
                    while s in prev:
                        trail.append(s[0])
                        s = prev[s]
                    trail.append(s[0])
                    best_loop = trail[::-1] + [w]
                ns = (w, nh)
                if nd < dist.get(ns, INF):
                    dist[ns] = nd
                    prev[ns] = state
                    heapq.heappush(pq, (nd, ns))
    return best if best < upper else INF, best_loop


def _z_labels(X: SimplicialComplex):
    """Edge labels carrying (free H_1 coords, torsion coords) of loops.

    Column e of the edge-coordinate matrix of `h1_dual_bases` holds the
    quotient coordinates of edge e (0 on its spanning tree), so labels add
    up along a path and a closed loop accumulates its own class.
    """
    pres = h1_dual_bases(X)[2]
    moduli = tuple(pres.torsion)
    free = pres.M[pres.free_rows].T.tolist()
    tor = pres.M[pres.tor_rows].T.tolist()
    labels = {sign: [(tuple(sign * a for a in f),
                      tuple((sign * a) % m for a, m in zip(t, moduli)))
                     for f, t in zip(free, tor)]
              for sign in (1, -1)}

    def label(idx, sign):
        return labels[sign][idx]

    identity = ((0,) * pres.free_rank, (0,) * len(moduli))

    def combine(h, l):
        return (
            tuple(a + c for a, c in zip(h[0], l[0])),
            tuple((a + c) % m for a, c, m in zip(h[1], l[1], moduli)),
        )

    nontrivial = pres.free_rank > 0 or len(moduli) > 0
    return label, combine, identity, nontrivial
