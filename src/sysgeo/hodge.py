"""Discrete harmonic 1-forms, circle-valued maps, and coarea sweep-outs.

Closed real 1-cochains carry a constant covector on each flat simplex;
the L2 norm is the volume-weighted covector norm.  Every inequality of
the volume-bound proof chain (Cauchy-Schwarz, coarea, comass comparison)
is exact in this discrete model, so the chain is asserted, not
approximated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .homology import h1_dual_bases, z2_homology
from .lattice import lambda1_gram_vector
from .simplicial import (
    ComplexError,
    PLMetric,
    SimplicialComplex,
    embed_simplex,
    simplex_gram,
    simplex_volume,
    volume,
)

__all__ = [
    "OneForm",
    "CircleMap",
    "SweepData",
    "harmonic_representative",
    "l2_norm",
    "comass",
    "period_gram",
    "shortest_cocycle",
    "circle_map",
    "sweep",
    "lemma_chain",
    "LemmaChainReport",
]


def _edge_index(X: SimplicialComplex):
    return {e: i for i, e in enumerate(X.edges)}


class OneForm:
    """Closed real 1-cochain with per-simplex constant covectors."""

    def __init__(self, X: SimplicialComplex, g: PLMetric, values, require_closed=True):
        self.complex = X
        self.metric = g
        self.values = np.asarray(values, dtype=float)
        if self.values.shape != (X.n_simplices(1),):
            raise ComplexError("one value per edge required")
        self._eidx = _edge_index(X)
        if require_closed:
            resid = self.closedness_residual()
            scale = max(np.abs(self.values).max(), 1.0)
            if resid > 1e-8 * scale:
                raise ComplexError(f"cochain is not closed (residual {resid:g})")

    def edge_value(self, u, v) -> float:
        i = self._eidx[(u, v) if u < v else (v, u)]
        return self.values[i] if u < v else -self.values[i]

    def closedness_residual(self) -> float:
        worst = 0.0
        for (a, b, c) in self.complex.simplices(2):
            s = self.edge_value(a, b) + self.edge_value(b, c) - self.edge_value(a, c)
            worst = max(worst, abs(s))
        return worst

    def base_values(self, simplex) -> np.ndarray:
        """Values on the edges (s0, si) of a simplex."""
        s = tuple(simplex)
        return np.array([self.edge_value(s[0], v) for v in s[1:]])

    def covector_norm_sq(self, simplex) -> float:
        """Squared Euclidean norm of the constant covector on the simplex."""
        G = simplex_gram(simplex, self.metric)
        r = self.base_values(simplex)
        return float(r @ np.linalg.solve(G, r))

    def covector_coords(self, simplex) -> np.ndarray:
        """Covector in the embedding coordinates of embed_simplex."""
        pts = embed_simplex(simplex, self.metric)
        E = pts[1:] - pts[0]
        return np.linalg.solve(E, self.base_values(simplex))

    def l2_norm_sq(self) -> float:
        X = self.complex
        return sum(
            simplex_volume(s, self.metric) * self.covector_norm_sq(s)
            for s in X.simplices(X.dim)
        )

    def comass(self) -> float:
        X = self.complex
        return max(
            math.sqrt(max(self.covector_norm_sq(s), 0.0)) for s in X.simplices(X.dim)
        )

    def coarea_integral(self) -> float:
        """integral of |pointwise norm| over the complex: sum vol * |covector|."""
        X = self.complex
        return sum(
            simplex_volume(s, self.metric) * math.sqrt(max(self.covector_norm_sq(s), 0.0))
            for s in X.simplices(X.dim)
        )


def l2_norm(theta: OneForm) -> float:
    return math.sqrt(max(theta.l2_norm_sq(), 0.0))


def comass(theta: OneForm) -> float:
    return theta.comass()


def _energy_matrix(X: SimplicialComplex, g: PLMetric) -> np.ndarray:
    """Quadratic form of the L2 covector norm on closed 1-cochains.

    Assembled per top simplex on the edges (s0, si); on closed cochains
    the form is independent of the base-vertex choice.
    """
    ne = X.n_simplices(1)
    eidx = _edge_index(X)
    M = np.zeros((ne, ne))
    for s in X.simplices(X.dim):
        G = simplex_gram(s, g)
        W = simplex_volume(s, g) * np.linalg.inv(G)
        idx = [eidx[(s[0], v)] for v in s[1:]]
        for a, ia in enumerate(idx):
            for b, ib in enumerate(idx):
                M[ia, ib] += W[a, b]
    return M


def harmonic_representative(X: SimplicialComplex, g: PLMetric, omega) -> OneForm:
    """L2-minimizing closed representative eta = omega - d u of the class.

    Solves the assembled normal equations; the minimizer is unique (the
    potential u is unique up to constants on a connected complex).
    """
    if not X.is_connected():
        raise ComplexError("complex must be connected")
    form = omega if isinstance(omega, OneForm) else OneForm(X, g, np.asarray(omega, dtype=float))
    ne = X.n_simplices(1)
    D = np.array(X.boundary_matrix(1), dtype=float).T  # E x V, d0 = incidence^T
    M = _energy_matrix(X, g)
    A = D.T @ M @ D
    b = D.T @ (M @ form.values)
    u, *_ = np.linalg.lstsq(A, b, rcond=None)
    eta = form.values - D @ u
    resid = np.linalg.norm(A @ u - b)
    scale = max(np.linalg.norm(b), np.linalg.norm(M @ eta), 1.0)
    if resid > 1e-8 * scale:
        raise ComplexError(f"normal equations did not converge (residual {resid:g})")
    return OneForm(X, g, eta)


def period_gram(X: SimplicialComplex, g: PLMetric):
    """(H^1 Gram of harmonic representatives, inverse Gram on H_1, forms).

    The integral cocycle basis comes from h1_dual_bases; the H_1 lattice
    with the dual L2 norm is the dual lattice, so its Gram is the inverse.
    """
    cycles, cocycles, _ = h1_dual_bases(X)
    b = len(cocycles)
    if b == 0:
        raise ComplexError("b_1 = 0: no period lattice")
    M = _energy_matrix(X, g)
    etas = [harmonic_representative(X, g, np.asarray(w, dtype=float)) for w in cocycles]
    G = np.empty((b, b))
    for i in range(b):
        for j in range(i, b):
            G[i, j] = G[j, i] = float(etas[i].values @ (M @ etas[j].values))
    return G, np.linalg.inv(G), etas


def shortest_cocycle(X: SimplicialComplex, G) -> np.ndarray:
    """Integral cocycle of a shortest nonzero class of H^1(X; Z).

    G is the period Gram of the cocycle basis of h1_dual_bases (the first
    value of period_gram); the class has the least L2 norm of its
    harmonic representative, lambda1 of the period lattice.
    """
    _, cocycles, _ = h1_dual_bases(X)
    _, coeffs = lambda1_gram_vector(G)
    return coeffs.astype(float) @ np.asarray(cocycles, dtype=float)


@dataclass
class CircleMap:
    """Piecewise-affine map to R/Z induced by a harmonic integral class."""

    complex: SimplicialComplex
    metric: PLMetric
    form: OneForm  # the harmonic representative eta = df
    values: np.ndarray  # vertex values in [0, 1)

    def local_lift(self, simplex) -> np.ndarray:
        """Real-valued affine lift of f on one simplex (base vertex value in [0,1))."""
        s = tuple(simplex)
        out = np.empty(len(s))
        out[0] = self.values[s[0]]
        for i, v in enumerate(s[1:]):
            out[i + 1] = out[0] + self.form.edge_value(s[0], v)
        return out


def circle_map(X: SimplicialComplex, g: PLMetric, omega) -> CircleMap:
    """Integrate the harmonic representative along a spanning tree, mod Z.

    omega must be an integral cocycle with nonzero class, so the periods
    of its harmonic representative are integers and the map is well
    defined on the quotient R/Z.
    """
    w = np.asarray(omega, dtype=float)
    cycles, _, _ = h1_dual_bases(X)
    pairings = [sum(wi * hi for wi, hi in zip(w, h)) for h in cycles]
    if not any(abs(p) > 1e-9 for p in pairings):
        raise ComplexError("class is zero; circle map would be null-homotopic")
    eta = harmonic_representative(X, g, w)
    vals = np.full(X.n_vertices, np.nan)
    vals[0] = 0.0
    adj = [[] for _ in range(X.n_vertices)]
    for (u, v) in X.edges:
        adj[u].append(v)
        adj[v].append(u)
    stack = [0]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if math.isnan(vals[v]):
                vals[v] = vals[u] + eta.edge_value(u, v)
                stack.append(v)
    vals = np.mod(vals, 1.0)
    # consistency: every edge difference must match eta mod Z
    for (u, v) in X.edges:
        d = vals[v] - vals[u] - eta.edge_value(u, v)
        if abs(d - round(d)) > 1e-7:
            raise ComplexError("periods are not integral; class was not integral")
    return CircleMap(X, g, eta, vals)


# ---------------------------------------------------------------------------
# Level-set slicing


def _slice_measure(pts: np.ndarray, phi: np.ndarray, c: float) -> float:
    """(n-1)-volume of {phi = c} inside one embedded simplex (generic c)."""
    n = pts.shape[1]
    cross = []
    k = len(phi)
    for i in range(k):
        for j in range(i + 1, k):
            a, b = phi[i], phi[j]
            if (a - c) * (b - c) < 0:
                t = (c - a) / (b - a)
                cross.append(pts[i] + t * (pts[j] - pts[i]))
    if len(cross) < n:
        return 0.0
    P = np.array(cross)
    if n == 2:
        return float(np.linalg.norm(P[1] - P[0]))
    # n == 3: planar polygon with 3 or 4 vertices; order by angle
    E = pts[1:] - pts[0]
    grad = np.linalg.solve(E, phi[1:] - phi[0])
    gnorm = np.linalg.norm(grad)
    if gnorm == 0:
        return 0.0
    nrm = grad / gnorm
    # orthonormal basis of the plane
    a = np.array([1.0, 0.0, 0.0])
    if abs(nrm @ a) > 0.9:
        a = np.array([0.0, 1.0, 0.0])
    u = a - (a @ nrm) * nrm
    u /= np.linalg.norm(u)
    v = np.cross(nrm, u)
    ctr = P.mean(axis=0)
    ang = np.arctan2((P - ctr) @ v, (P - ctr) @ u)
    order = np.argsort(ang)
    Q = P[order]
    x, y = (Q - ctr) @ u, (Q - ctr) @ v
    return float(0.5 * abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))


def _simplex_profile_pieces(pts, phi, n):
    """Polynomial pieces (lo, hi, coeffs) of c -> slice volume, on the real line.

    The profile is polynomial of degree <= n-1 between consecutive vertex
    values; coefficients are fitted from exact geometric slices.
    """
    vals = np.sort(np.unique(np.round(phi, 14)))
    pieces = []
    deg = n - 1
    for a, b in zip(vals[:-1], vals[1:]):
        if b - a < 1e-13:
            continue
        # fit at deg+1 interior nodes (exact for a polynomial of this degree)
        xs = a + (b - a) * (np.arange(1, deg + 2) / (deg + 2.0))
        ys = np.array([_slice_measure(pts, phi, x) for x in xs])
        # coefficients in the shifted variable (c - a)
        V = np.vander(xs - a, deg + 1)
        coeffs = np.linalg.solve(V, ys)
        pieces.append((float(a), float(b), coeffs))
    return pieces


@dataclass
class SweepData:
    ts: np.ndarray  # sample grid in [0, 1)
    volumes: np.ndarray  # total slice volume per sample
    t_min: float
    min_volume: float
    mean_volume: float
    coarea_integral: float  # exact: sum vol(simplex) * |grad|
    profile_integral: float  # numeric integral of the sampled profile
    pieces: list  # folded polynomial pieces (lo, hi, shift, start, coeffs)

    def volume_at(self, ts) -> np.ndarray:
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        out = np.zeros_like(ts)
        for (lo, hi, k, a, coeffs) in self.pieces:
            m = (ts >= lo) & (ts < hi)
            if m.any():
                out[m] += np.polyval(coeffs, ts[m] + k - a)
        return out


def sweep(X: SimplicialComplex, g: PLMetric, f: CircleMap, samples: int = 10000,
          seed: int = 0) -> SweepData:
    """Level-set volume profile of the circle map over t in [0, 1).

    Slices are computed per flat simplex by exact clipping; the profile
    between vertex levels is polynomial of degree <= n-1, so a
    breakpoint-aware Gauss rule integrates the sampled profile to
    roundoff.  The exact coarea integral sum vol * |grad| is returned for
    the identity check.
    """
    n = X.dim
    if n not in (2, 3):
        raise ComplexError(f"slicing supports dimensions 2 and 3, not {n}")
    if samples < 2:
        raise ComplexError("need at least 2 samples")
    raw = []
    coarea = 0.0
    for s in X.simplices(n):
        pts = embed_simplex(s, g)
        phi = f.local_lift(s)
        E = pts[1:] - pts[0]
        grad = np.linalg.solve(E, phi[1:] - phi[0])
        coarea += simplex_volume(s, g) * float(np.linalg.norm(grad))
        if np.ptp(phi) < 1e-13:
            continue
        raw.extend(_simplex_profile_pieces(pts, phi, n))
    # fold pieces into [0, 1); entry (lo, hi, k, a, coeffs) means
    # profile(t) += polyval(coeffs, t + k - a) for t in [lo, hi)
    folded = []
    for (a, b, coeffs) in raw:
        cur, k = a, math.floor(a)
        while cur < b - 1e-15:
            hi_abs = min(b, k + 1.0)
            folded.append((cur - k, hi_abs - k, k, a, coeffs))
            cur = hi_abs
            k += 1
    rng = np.random.default_rng(seed)
    ts = (np.arange(samples) + 0.5 + 0.25 * (2 * rng.random(samples) - 1)) / samples
    # avoid landing on breakpoints (vertex levels)
    breaks = np.unique(np.concatenate([[0.0, 1.0]] + [[p[0], p[1]] for p in folded])) \
        if folded else np.array([0.0, 1.0])
    data = SweepData(ts, np.zeros_like(ts), 0.0, 0.0, 0.0, coarea, 0.0, folded)
    vols = data.volume_at(ts)
    # breakpoint-aware Gauss-Legendre on the sampled profile; exact for the
    # piecewise-polynomial profile, evaluated in one batched call
    nodes, weights = np.polynomial.legendre.leggauss(max(2, n))
    all_pts, all_w = [], []
    for lo, hi in zip(breaks[:-1], breaks[1:]):
        if hi - lo < 1e-15:
            continue
        nsub = max(1, int(round(samples * (hi - lo))))
        edges = np.linspace(lo, hi, nsub + 1)
        mid = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * (hi - lo) / nsub
        all_pts.append((mid[:, None] + half * nodes[None, :]).ravel())
        all_w.append(np.broadcast_to(half * weights, (nsub, nodes.size)).ravel())
    total = float(np.concatenate(all_w) @ data.volume_at(np.concatenate(all_pts)))
    i_min = int(np.argmin(vols))
    data.volumes = vols
    data.t_min = float(ts[i_min])
    data.min_volume = float(vols[i_min])
    data.mean_volume = float(vols.mean())
    data.profile_integral = float(total)
    return data


@dataclass
class LemmaChainReport:
    min_slice: float
    t_min: float
    coarea_integral: float
    l2_times_sqrt_vol: float
    l2_norm: float
    volume: float
    holds: bool
    slack: float


def lemma_chain(X: SimplicialComplex, g: PLMetric, omega, samples: int = 10000,
                seed: int = 0) -> LemmaChainReport:
    """Evaluate min-slice <= coarea integral <= |eta|_2 vol^(1/2) for omega.

    omega must be an integral cocycle whose mod-2 reduction is nonzero;
    the minimizing slice is then a certified codimension-1 upper-bound
    witness for the Z2 systole of the dual class.
    """
    w = np.asarray(omega)
    wi = np.round(w).astype(int)
    if np.abs(w - wi).max() > 1e-9:
        raise ComplexError("cocycle must be integral")
    z2 = z2_homology(X, 1)
    pair = (z2.cycle_reps @ (wi % 2)) % 2 if z2.dim else np.zeros(0, dtype=int)
    if not pair.any():
        raise ComplexError("mod-2 reduction of the class is zero")
    f = circle_map(X, g, w.astype(float))
    data = sweep(X, g, f, samples=samples, seed=seed)
    vol = volume(X, g)
    l2 = l2_norm(f.form)
    rhs = l2 * math.sqrt(vol)
    slack = 1e-9
    ok = (
        data.min_volume <= data.coarea_integral * (1 + slack) + slack
        and data.coarea_integral <= rhs * (1 + slack) + slack
    )
    return LemmaChainReport(
        min_slice=data.min_volume,
        t_min=data.t_min,
        coarea_integral=data.coarea_integral,
        l2_times_sqrt_vol=rhs,
        l2_norm=l2,
        volume=vol,
        holds=bool(ok),
        slack=slack,
    )
