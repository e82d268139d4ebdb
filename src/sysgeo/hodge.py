"""Discrete harmonic 1-forms, circle-valued maps, and coarea sweep-outs.

Closed real 1-cochains carry a constant covector on each flat simplex;
the L2 norm is the volume-weighted covector norm.  Every inequality of
the volume-bound proof chain (Cauchy-Schwarz, coarea, comass comparison)
is exact in this discrete model, so the chain is asserted, not
approximated.

All per-simplex work runs as array code over every top simplex at once,
on the Gram stack of `simplicial.top_geometry`.  A harmonic
representative is one sparse factorisation of the grounded Laplacian:
the Laplacian's pattern and where each top's stiffness block goes in it
depend only on the complex and are cached on it (`_stiffness_plan`), so
a metric only scatters its blocks, right-hand sides and period Gram from
per-top arrays by `np.bincount`, and the one sparse matrix it builds is
the one it factorises.  By the coarea formula a top's slice at level t
has volume |grad f| vol M(t), with M the normalised B-spline on its
vertex levels (Curry-Schoenberg), so one formula serves every dimension
and no slice is clipped.  The sweep profile is a piecewise polynomial
held in one form: each interval's polynomial, in its local variable
t - b_j, is the sum of every piece that covers the interval.  A circle
map integrates the harmonic form it is given, so the shortest class of
`period_gram` (`shortest_form`) needs no second solve.  The circle map's
search tree is cached on the complex too.  `period_gram` and `sweep` log
their sizes at INFO, and each harmonic solve its residual at DEBUG.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph
from scipy.sparse.linalg import splu

from .homology import h1_dual_bases
from .lattice import lambda1_gram_vector
from .simplicial import (
    ComplexError,
    PLMetric,
    SimplicialComplex,
    _memo,
    _subsimplex_table,
    edge_table,
    face_table,
    top_geometry,
    tree_sums,
)

__all__ = [
    "OneForm",
    "CircleMap",
    "SweepData",
    "harmonic_representative",
    "l2_norm",
    "comass",
    "period_gram",
    "shortest_form",
    "circle_map",
    "sweep",
]

log = logging.getLogger(__name__)


def _base_edges(X: SimplicialComplex) -> np.ndarray:
    """Edge index of (s0, si), i = 1..n, for every top simplex s."""
    return edge_table(X, X.dim)[:, :X.dim]


class OneForm:
    """Closed real 1-cochain with per-simplex constant covectors."""

    def __init__(self, X: SimplicialComplex, g: PLMetric, values):
        self.complex = X
        self.metric = g
        self.values = np.asarray(values, dtype=float)
        if self.values.shape != (X.n_simplices(1),):
            raise ComplexError("one value per edge required")
        self._tops = None
        resid = self.closedness_residual()
        scale = max(np.abs(self.values).max(), 1.0)
        if resid > 1e-8 * scale:
            raise ComplexError(f"cochain is not closed (residual {resid:g})")

    def edge_value(self, u, v) -> float:
        i = self.complex.index((u, v))
        return self.values[i] if u < v else -self.values[i]

    def closedness_residual(self) -> float:
        """max |w(ab) + w(bc) - w(ac)| over the triangles (a, b, c)."""
        tri = edge_table(self.complex, 2)  # columns: ab, ac, bc
        if not len(tri):
            return 0.0
        w = self.values
        return float(np.abs(w[tri[:, 0]] + w[tri[:, 2]] - w[tri[:, 1]]).max())

    def _covectors(self):
        """(volume, squared covector norm r.G^-1.r) of every top, computed once;
        r holds the values on the edges (s0, si)."""
        if self._tops is None:
            X = self.complex
            gram, vol, _ = top_geometry(X, self.metric, X.dim)
            r = self.values[_base_edges(X)]
            nsq = np.einsum("ti,ti->t", r, np.linalg.solve(gram, r[..., None])[..., 0])
            self._tops = vol, np.maximum(nsq, 0.0)
        return self._tops

    def l2_norm_sq(self) -> float:
        vol, nsq = self._covectors()
        return float(vol @ nsq)

    def comass(self) -> float:
        return math.sqrt(self._covectors()[1].max())


def l2_norm(theta: OneForm) -> float:
    return math.sqrt(max(theta.l2_norm_sq(), 0.0))


def comass(theta: OneForm) -> float:
    return theta.comass()


def _stiffness_plan(X: SimplicialComplex):
    """(slot, indices, indptr, nnz): the pattern of the Laplacian grounded
    at vertex 0, in CSC order, and where each top's stiffness block goes.

    Entry (a, b) of the (n+1) x (n+1) block of top t, at position
    (t * (n+1) + a) * (n+1) + b of the flat block stack, adds to the
    pattern's entry slot of (vertex a of t, vertex b of t), or to the
    dump slot len(indices) if either vertex is 0.  nnz counts the
    ungrounded Laplacian's pattern.  Depends only on X; cached on it.
    """
    V = X.n_vertices
    tops = _subsimplex_table(X, X.dim, 1)
    m = tops.shape[1]
    rows = np.repeat(tops, m, axis=1).ravel()
    cols = np.tile(tops, (1, m)).ravel()
    keys, inv = np.unique(cols * V + rows, return_inverse=True)  # column major
    kr, kc = keys % V, keys // V
    keep = (kr > 0) & (kc > 0)
    pos = np.where(keep, np.cumsum(keep) - 1, keep.sum())
    counts = np.bincount(kc[keep] - 1, minlength=V - 1)
    indptr = np.concatenate([[0], np.cumsum(counts)])
    return pos[inv.ravel()], kr[keep] - 1, indptr, len(keys)


def _harmonic(X: SimplicialComplex, g: PLMetric, omegas):
    """(L2-minimizing closed representatives omega - d u of the rows of
    omegas, their Gram matrix, nonzeros of the Laplacian).

    Top t carries W_t = vol_t G_t^-1 on its edges (s0, si), and B maps
    its vertex values to those edges' differences, so the Laplacian is
    the sum of the blocks B^T W_t B and the right-hand side the sum of
    B^T W_t r_t, with r_t the values of omega on t's edges.  Both are
    scattered by `np.bincount`, the blocks onto the pattern of
    `_stiffness_plan`.  On a connected complex the Laplacian's kernel is
    the constants, so grounding u_0 = 0 leaves a positive-definite
    system; it is factorised once and the factor serves every class.
    """
    if not X.is_connected():
        raise ComplexError("complex must be connected")
    slot, indices, indptr, nnz = _memo(X, "stiffness", _stiffness_plan)
    gram, vol, _ = top_geometry(X, g, X.dim)
    tops, base = _subsimplex_table(X, X.dim, 1), _base_edges(X)
    V, ne = X.n_vertices, X.n_simplices(1)
    W = vol[:, None, None] * np.linalg.inv(gram)
    n, T = X.dim, len(W)
    K = np.empty((T, n + 1, n + 1))
    K[:, 1:, 1:] = W
    K[:, 0, 1:] = -W.sum(axis=1)
    K[:, 1:, 0] = -W.sum(axis=2)
    K[:, 0, 0] = -K[:, 0, 1:].sum(axis=1)
    A = sparse.csc_matrix((np.bincount(slot, K.ravel(), len(indices) + 1)[:-1],
                           indices, indptr), shape=(V - 1, V - 1))
    Om = np.atleast_2d(np.asarray(omegas, dtype=float)).T  # E x k
    k = Om.shape[1]

    def scatter(index, rows, size):  # sum the rows (T, m, k) at index (T, m)
        at = (index[..., None] * k + np.arange(k)).ravel()
        return np.bincount(at, rows.ravel(), size * k).reshape(size, k)

    WR = W @ Om[base]
    rhs = scatter(tops, np.concatenate([-WR.sum(axis=1, keepdims=True), WR], axis=1), V)
    U = np.zeros((V, k))
    U[1:] = splu(A).solve(rhs[1:])
    a, b = face_table(X, 1).T
    eta = Om - (U[b] - U[a])
    R = eta[base]
    WR = W @ R
    resid = np.linalg.norm(A @ U[1:] - rhs[1:], axis=0)
    scale = np.maximum(np.maximum(np.linalg.norm(rhs, axis=0),
                                  np.linalg.norm(scatter(base, WR, ne), axis=0)), 1.0)
    log.debug("harmonic solve: %d classes, relative residual %.3g",
              k, (resid / scale).max())
    if (resid > 1e-8 * scale).any():
        raise ComplexError(f"normal equations did not converge (residual {resid.max():g})")
    G = np.einsum("tik,til->kl", R, WR)
    return eta.T, np.triu(G) + np.triu(G, 1).T, nnz


def harmonic_representative(X: SimplicialComplex, g: PLMetric, omega) -> OneForm:
    """L2-minimizing closed representative eta = omega - d u of the class.

    The minimizer is unique (the potential u is unique up to constants on
    a connected complex).
    """
    form = OneForm(X, g, omega)
    return OneForm(X, g, _harmonic(X, g, form.values)[0][0])


def period_gram(X: SimplicialComplex, g: PLMetric):
    """(H^1 Gram of harmonic representatives, inverse Gram on H_1, forms).

    The integral cocycle basis comes from h1_dual_bases; the H_1 lattice
    with the dual L2 norm is the dual lattice, so its Gram is the inverse.
    One Laplacian and one factorisation serve all b1 classes.
    """
    cycles, cocycles, _ = h1_dual_bases(X)
    b = len(cocycles)
    if b == 0:
        raise ComplexError("b_1 = 0: no period lattice")
    E, G, nnz = _harmonic(X, g, cocycles)
    log.info("period gram: b1 %d, %d edges, Laplacian nnz %d", b, X.n_simplices(1), nnz)
    etas = [OneForm(X, g, e) for e in E]
    return G, np.linalg.inv(G), etas


def shortest_form(G, etas) -> tuple[float, OneForm]:
    """(lambda1, harmonic representative) of a shortest nonzero class of
    H^1(X; Z).

    G and etas are the Gram and the forms of period_gram; the class has
    the least L2 norm of its harmonic representative, lambda1 of the
    period lattice, found by one search of G.  The harmonic map is
    linear, so the form is the same integer combination of etas and no
    new solve runs.
    """
    lam, coeffs = lambda1_gram_vector(G)
    E = np.array([eta.values for eta in etas])
    return lam, OneForm(etas[0].complex, etas[0].metric, coeffs.astype(float) @ E)


@dataclass
class CircleMap:
    """Piecewise-affine map to R/Z induced by a harmonic integral class."""

    complex: SimplicialComplex
    metric: PLMetric
    form: OneForm  # the harmonic representative eta = df
    values: np.ndarray  # vertex values in [0, 1)


def circle_map(X: SimplicialComplex, g: PLMetric, eta: OneForm) -> CircleMap:
    """Integrate a harmonic form along a spanning tree, mod Z.

    eta must be the harmonic representative of an integral class that is
    nonzero (`harmonic_representative` of an integral cocycle, or
    `shortest_form`), so its periods are integers and the map is well
    defined on the quotient R/Z.
    """
    cycles, _, _ = h1_dual_bases(X)
    pairings = np.asarray(cycles, dtype=float).reshape(-1, len(eta.values)) @ eta.values
    if not (np.abs(pairings) > 1e-9).any():
        raise ComplexError("class is zero; circle map would be null-homotopic")
    a, b = face_table(X, 1).T
    up = _memo(X, "search_tree", _search_tree)
    vals = np.mod(tree_sums(X, up[None], np.zeros(1, dtype=np.int64),
                            eta.values[:, None])[0, :, 0], 1.0)
    # consistency: every edge difference must match eta mod Z
    d = vals[b] - vals[a] - eta.values
    if (np.abs(d - np.round(d)) > 1e-7).any():
        raise ComplexError("periods are not integral; class was not integral")
    return CircleMap(X, g, eta, vals)


def _search_tree(X: SimplicialComplex) -> np.ndarray:
    """Predecessors of the breadth-first tree of the edge graph from vertex 0."""
    a, b = face_table(X, 1).T
    adj = sparse.csr_matrix((np.ones(len(a)), (a, b)), shape=(X.n_vertices,) * 2)
    return csgraph.breadth_first_order(adj, 0, directed=False)[1]


# ---------------------------------------------------------------------------
# Level-set slicing

# Levels closer than this are one level: a piece shorter than this is
# dropped, and copies of one level folded into [0, 1) are merged.
_LEVEL_RESOLUTION = 1e-13


def _shifted(c: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Coefficients of p(x + s) from those c of p(x), in place: row i of c
    holds coefficient i of every polynomial.  Repeated Horner steps (the
    Taylor shift) take n(n-1)/2 multiply-adds per polynomial."""
    n = len(c)
    for i in range(n - 1):
        for j in range(n - 2, i - 1, -1):
            c[j] += s * c[j + 1]
    return c


def _ranks(counts: np.ndarray) -> np.ndarray:
    """Position of each entry of np.repeat(x, counts) within its run."""
    return np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)


@dataclass
class SweepData:
    t_min: float  # a level in [0, 1) where the profile attains its infimum
    min_volume: float  # the infimum of the profile over [0, 1)
    coarea_integral: float  # exact: sum vol(simplex) * |grad|
    profile_integral: float  # exact integral of the stored polynomials over [0, 1)
    breaks: np.ndarray  # profile breakpoints 0 = b_0 < ... < b_m = 1
    coeffs: np.ndarray  # m x n: on [b_j, b_j+1), coefficients in t - b_j

    def _at(self, j, ts) -> np.ndarray:
        """The polynomial of interval j at ts, wherever ts lies."""
        x = ts - self.breaks[j]
        out = self.coeffs[j, -1]
        for m in range(self.coeffs.shape[1] - 2, -1, -1):
            out = out * x + self.coeffs[j, m]
        return out

    def volume_at(self, ts) -> np.ndarray:
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        j = np.clip(np.searchsorted(self.breaks, ts, side="right") - 1,
                    0, len(self.coeffs) - 1)
        out = self._at(j, ts)
        out[(ts < 0.0) | (ts >= 1.0)] = 0.0
        return out

    def critical_points(self):
        """(levels, volumes), ascending, of every point where the profile
        can reach its infimum over [0, 1).

        These are the breakpoints b_0..b_m-1, each at the lesser of its
        value and its left limit (b_0's is the limit at 1), and the vertex
        of every interval whose polynomial is a convex quadratic.
        """
        b = self.breaks
        j = np.arange(len(self.coeffs))
        ts = b[:-1]
        vols = np.minimum(self._at(j, ts), np.roll(self._at(j, b[1:]), 1))
        if self.coeffs.shape[1] == 3:
            c1, c2 = self.coeffs[:, 1], self.coeffs[:, 2]
            jv = np.flatnonzero(c2 > 0)
            tv = b[jv] - c1[jv] / (2.0 * c2[jv])
            inner = (tv > b[jv]) & (tv < b[jv + 1])
            jv, tv = jv[inner], tv[inner]
            ts, vols = np.concatenate([ts, tv]), np.concatenate([vols, self._at(jv, tv)])
            order = np.argsort(ts)
            ts, vols = ts[order], vols[order]
        return ts, vols


def _bspline_piece(p: np.ndarray, j: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Piece j of the normalised B-spline (integral 1) with knots p, at t.

    p holds the sorted knots p_0 <= .. <= p_n of each row, j the index of
    a knot interval with p_j < p_j+1, and t the levels, one row each.  The
    Cox-de Boor recurrence starts from M_j,1 = 1 / (p_j+1 - p_j) on
    interval j alone, so every t gets the polynomial of piece j, and it
    takes convex combinations only, so close knots cost no accuracy:
    M_i,r = r/(r-1) [(t - p_i) M_i,r-1 + (p_i+r - t) M_i+1,r-1] / (p_i+r - p_i).
    A span p_i+r - p_i of zero only multiplies terms that are zero.
    """
    n = p.shape[1] - 1
    rows = np.arange(len(p))
    M = np.zeros((len(p), 1, n))
    M[rows, 0, j] = 1.0 / (p[rows, j + 1] - p[rows, j])
    tt = t[..., None]
    for r in range(2, n + 1):
        lo, hi = p[:, None, :n - r + 1], p[:, None, r:]
        span = hi - lo
        M = ((tt - lo) * M[..., :-1] + (hi - tt) * M[..., 1:]) * (
            r / (r - 1.0) / np.where(span > 0, span, 1.0))
    return M[..., 0]


@functools.cache
def _rules(n: int):
    """Built once per n, read-only: the n fit levels i/(n+1) of
    `_profile_pieces` and the inverse of their Vandermonde matrix."""
    nodes = np.arange(1, n + 1) / (n + 1.0)
    rules = (nodes, np.linalg.inv(np.vander(nodes, increasing=True)))
    for a in rules:
        a.flags.writeable = False
    return rules


def _profile_pieces(X: SimplicialComplex, g: PLMetric, f: CircleMap):
    """Coarea integral and the slice-volume pieces of every top on the real line.

    Returns (coarea, a, b, coeffs): between the lifted levels a < b of two
    consecutive vertices of a top, its slice volume is the polynomial with
    coefficients coeffs (lowest order first) in c - a.  It is
    |grad f| vol M(c), with M the B-spline on the top's vertex levels
    (`_bspline_piece`), of degree n-1, so it is fitted exactly through n
    levels inside the interval.  Knots and fit levels are measured from a,
    so a narrow piece keeps its relative accuracy.
    """
    n = X.dim
    _, vol, pts = top_geometry(X, g, n)
    tops = _subsimplex_table(X, n, 1)
    phi = f.values[tops[:, :1]] + np.hstack([np.zeros((len(tops), 1)),
                                             f.form.values[_base_edges(X)]])
    grad = np.linalg.solve(pts[:, 1:], (phi[:, 1:] - phi[:, :1])[..., None])[..., 0]
    coarea = float(vol @ np.linalg.norm(grad, axis=1))
    p = np.sort(phi, axis=1)
    t, j = np.nonzero(p[:, 1:] - p[:, :-1] >= _LEVEL_RESOLUTION)
    a, b = p[t, j], p[t, j + 1]
    nodes, fit = _rules(n)
    w = (b - a)[:, None]
    y = (vol * np.sqrt(f.form._covectors()[1]))[t, None] * _bspline_piece(
        p[t] - a[:, None], j, w * nodes)
    coeffs = (y @ fit.T) / w ** np.arange(n)
    return coarea, a, b, coeffs


def sweep(X: SimplicialComplex, g: PLMetric, f: CircleMap) -> SweepData:
    """Level-set volume profile of the circle map over t in [0, 1).

    f is a circle map of (X, g).  A top's slice at level t has volume
    |grad f| vol M(t), with M the normalised B-spline on its vertex
    levels (`_profile_pieces`; |grad f| is the covector norm of f's
    form), so the profile between vertex levels is polynomial of degree
    <= n-1.  The ends of the pieces, folded into [0, 1), are the
    breakpoints; numbering the intervals of the real line u = k m + j
    (copy k of interval j), a piece covers a run u0 <= u < u1, and adds
    its polynomial, shifted to the local variable t - b_j, to interval j
    for each u of the run.  Every interval's polynomial is thus one sum in
    one variable, so evaluation is a search and a Horner step per level.
    The minimum is exact: each interval's polynomial is read at both ends
    and, when it is a convex quadratic, at its vertex
    (`SweepData.critical_points`).  The profile's integral is that of the
    stored polynomials; the exact coarea integral sum vol * |grad|, from
    the embedding's gradient, is returned for the identity check.
    """
    n = X.dim
    if n not in (2, 3):
        raise ComplexError(f"slicing supports dimensions 2 and 3, not {n}")
    coarea, a, b, coeffs = _profile_pieces(X, g, f)
    ka, kb = np.floor(a), np.floor(b)
    # ends of one level folded from different lifts can land an ulp apart:
    # merge every run of ends closer than the level resolution into its
    # first, so no interval is a sliver that only some pieces reach.  An
    # end that rounds to 1 is index m, the start of the next copy.
    ends, inv = np.unique(np.concatenate([[0.0, 1.0], a - ka, b - kb]),
                          return_inverse=True)
    first = np.concatenate([[True], np.diff(ends) >= _LEVEL_RESOLUTION])
    breaks = ends[first]
    breaks[-1] = 1.0
    m = len(breaks) - 1
    ja, jb = np.split((np.cumsum(first) - 1)[inv[2:]], 2)
    u0 = ka.astype(np.int64) * m + ja
    span = kb.astype(np.int64) * m + jb - u0
    q = np.repeat(np.arange(len(a)), span)  # one entry per (piece, interval) pair
    k, jj = np.divmod(np.repeat(u0, span) + _ranks(span), m)
    terms = _shifted(np.take(coeffs.T, q, axis=1), (k - a[q]) + breaks[jj])
    data = SweepData(0.0, 0.0, coarea, 0.0, breaks,
                     np.stack([np.bincount(jj, c, m) for c in terms], axis=1))
    ts, vols = data.critical_points()
    i_min = int(np.argmin(vols))
    data.t_min = float(ts[i_min])
    data.min_volume = float(vols[i_min])
    data.profile_integral = float(np.sum(
        data.coeffs * np.diff(breaks)[:, None] ** np.arange(1, n + 1) / np.arange(1, n + 1)))
    log.info("sweep: %d breakpoints, min volume %.9g at t_min %.9g",
             len(breaks), data.min_volume, data.t_min)
    return data
