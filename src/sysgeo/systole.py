"""One-dimensional systoles.

Homology 1-systoles are exact shortest-path searches on holonomy-labeled
covering graphs.  The stable norm is a mass-minimizing linear program
over real edge cycles with a prescribed class, returned together with an
LP-dual unit-comass cocycle certificate.  Every linear program of the
package is one `_HighsLP`: a HiGHS model built once and re-optimised from
its last basis after each change of bounds, coefficients or rows.  The
homotopy systole ships as a cover-based surrogate with explicit
exactness semantics (the word problem blocks a general algorithm).
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph
from scipy.optimize._highspy import _core as _highs

from .homology import h1_dual_bases, z2_homology
from .simplicial import (
    ComplexError,
    CoverSpec,
    PLMetric,
    SimplicialComplex,
    edge_lengths,
    edge_table,
)

__all__ = [
    "SystoleValue",
    "StableNormValue",
    "sysh1",
    "pisys1_upper",
    "stable_norm",
    "stsys1",
    "sys1_aggregate",
    "sysk_aggregate",
]

INF = math.inf


@dataclass
class SystoleValue:
    value: float
    witness: list | None = None  # vertex loop [v0, v1, ..., v0] or face list
    exactness: str = "exact"  # "exact" | "upper-bound" | "lower-bound"
    provenance: str = ""

    @property
    def finite(self) -> bool:
        return math.isfinite(self.value)


@dataclass
class StableNormValue:
    class_coords: tuple
    value: float
    cycle: np.ndarray  # real edge 1-cycle attaining the value
    cocycle: np.ndarray  # unit-comass dual certificate
    dual_value: float

    @property
    def duality_gap(self) -> float:
        scale = max(abs(self.value), abs(self.dual_value), 1.0)
        return abs(self.value - self.dual_value) / scale


# ---------------------------------------------------------------------------
# Labeled shortest loop search


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


def _z2_closed_walks(X: SimplicialComplex, lengths: np.ndarray):
    """Shortest closed edge walk in every class of H_1(X; Z2).

    Edge e carries the signature m_e, its column of the `z2_homology(X, 1)`
    cocycle basis read as a bitmask, and lifts to the edges
    (u, s) - (v, s ^ m_e) of the Z2 homology cover, node (v, s) being
    v + V*s (Erickson-Nayyeri 2011).  A walk from (v, 0) to (v, c) closes
    up in X with class c, so one Dijkstra run from every (v, 0) gives
    walk[c] = min_v dist[(v, 0), (v, c)], with walk[0] = inf.  Returns
    (walk, loops), loops[c] the vertex loop [v, ..., v] attaining walk[c]
    (None where no single closed walk has class c).  The sources run in
    chunks, so the distance rows held at once stay near 2^20 entries.
    """
    z2 = z2_homology(X, 1)
    V, K = X.n_vertices, 1 << z2.dim
    sig = (z2.cocycle_reps.astype(np.int64) << np.arange(z2.dim)[:, None]).sum(axis=0)
    ends = np.array(X.edges, dtype=np.int64).reshape(-1, 2)
    sheet = np.arange(K)
    src = (ends[:, :1] + V * sheet).ravel()
    dst = (ends[:, 1:] + V * (sheet ^ sig[:, None])).ravel()
    G = sparse.csr_matrix((np.repeat(lengths, K), (src, dst)), shape=(V * K, V * K))
    walk = np.full(K, INF)
    loops = [None] * K
    chunk = max(1, (1 << 20) // (V * K))
    for lo in range(0, V, chunk):
        sources = np.arange(lo, min(lo + chunk, V))
        dist, pred = csgraph.dijkstra(G, directed=False, indices=sources,
                                      return_predecessors=True)
        closes = dist[np.arange(len(sources))[:, None], sources[:, None] + V * sheet]
        for c in range(1, K):
            i = int(np.argmin(closes[:, c]))
            if closes[i, c] < walk[c]:
                walk[c] = closes[i, c]
                node, path = int(sources[i]) + V * c, []
                while node >= 0:
                    path.append(node % V)
                    node = pred[i, node]
                loops[c] = path[::-1]
    return walk, loops


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


def sysh1(X: SimplicialComplex, g: PLMetric, ring: str = "Z") -> SystoleValue:
    """Exact shortest edge loop with nonzero class in H_1(X; ring)."""
    if ring == "Z2":
        if z2_homology(X, 1).dim == 0:
            return SystoleValue(INF, None, "exact", "H_1(X;Z2) = 0; empty infimum")
        walk, loops = _z2_closed_walks(X, edge_lengths(X, g))
        c = int(np.argmin(walk))
        return SystoleValue(float(walk[c]), loops[c], "exact", "Z2 homology cover Dijkstra")
    if ring != "Z":
        raise ComplexError(f"unsupported ring {ring!r}")
    label, combine, identity, nontrivial = _z_labels(X)
    if not nontrivial:
        return SystoleValue(INF, None, "exact", "H_1(X;Z) = 0; empty infimum")
    val, loop = _shortest_nontrivial_loop(X, g, label, combine, identity)
    return SystoleValue(val, loop, "exact", "H_1(Z) holonomy cover search")


def pisys1_upper(
    X: SimplicialComplex,
    g: PLMetric,
    covers: list[CoverSpec] | None = None,
    complete: bool = False,
) -> SystoleValue:
    """Shortest loop with a non-closed lift to a listed cover or the H_1-cover.

    Always an upper bound for the homotopy 1-systole; exact only when the
    caller asserts the covers realize the full fundamental group.
    """
    candidates = []
    base = sysh1(X, g, "Z")
    if base.finite:
        candidates.append((base.value, base.witness, "H_1 cover"))
    for spec in covers or []:
        spec.check_flat(X)
        B = spec.group
        edges = X.edges
        colors = [spec.color[e] for e in edges]

        def label(idx, sign, colors=colors, B=B):
            c = colors[idx]
            return c if sign > 0 else B.inv[c]

        def combine(h, l, B=B):
            return B.mul(h, l)

        val, loop = _shortest_nontrivial_loop(X, g, label, combine, B.identity)
        if math.isfinite(val):
            candidates.append((val, loop, "cover coloring"))
    if not candidates:
        return SystoleValue(
            INF, None, "exact" if complete else "upper-bound",
            "no non-closed lift in any listed cover",
        )
    val, loop, src = min(candidates, key=lambda t: t[0])
    return SystoleValue(
        val, loop, "exact" if complete else "upper-bound",
        f"non-closed lift witness via {src}",
    )


# ---------------------------------------------------------------------------
# Linear programs


class _HighsLP:
    """min c.x over row_lo <= A x <= row_hi and col_lo <= x <= col_hi.

    One HiGHS model, built once.  After `set_row_bounds`, `set_coeff` or
    `add_rows`, `solve` re-optimises from the last basis instead of
    building the LP again.  `name` heads the error of a failed solve.
    """

    def __init__(self, c, A, row_lo, row_hi, col_lo, col_hi, name: str):
        A = sparse.csc_array(A)
        nr, nc = A.shape
        lp = _highs.HighsLp()
        lp.num_col_, lp.num_row_ = nc, nr
        lp.col_cost_ = np.asarray(c, dtype=float)
        lp.col_lower_ = np.broadcast_to(np.asarray(col_lo, dtype=float), nc)
        lp.col_upper_ = np.broadcast_to(np.asarray(col_hi, dtype=float), nc)
        lp.row_lower_ = np.broadcast_to(np.asarray(row_lo, dtype=float), nr)
        lp.row_upper_ = np.broadcast_to(np.asarray(row_hi, dtype=float), nr)
        lp.a_matrix_.format_ = _highs.MatrixFormat.kColwise
        lp.a_matrix_.num_col_, lp.a_matrix_.num_row_ = nc, nr
        lp.a_matrix_.start_ = A.indptr
        lp.a_matrix_.index_ = A.indices
        lp.a_matrix_.value_ = A.data
        self.name = name
        self._h = _highs._Highs()
        self._h.setOptionValue("output_flag", False)
        if self._h.passModel(lp) == _highs.HighsStatus.kError:
            raise ComplexError(f"{name} LP failed: model rejected")

    def set_row_bounds(self, row: int, lo: float, hi: float):
        self._h.changeRowBounds(row, lo, hi)

    def set_coeff(self, row: int, col: int, value: float):
        self._h.changeCoeff(row, col, value)

    def add_rows(self, A, lo: float, hi: float):
        """Append the rows of A, each with bounds [lo, hi]."""
        A = sparse.csr_array(A)
        nr = A.shape[0]
        self._h.addRows(nr, np.full(nr, lo, dtype=float), np.full(nr, hi, dtype=float),
                        A.nnz, A.indptr[:-1].astype(np.int32),
                        A.indices.astype(np.int32), A.data.astype(float))

    def solve(self, time_limit: float = math.inf):
        """(x, row duals, objective); raises ComplexError unless optimal.

        A row dual is the derivative of the optimum in the row's active
        bound: >= 0 on a binding lower bound, <= 0 on a binding upper one.
        """
        self._h.setOptionValue("time_limit", float(time_limit))
        self._h.run()
        status = self._h.getModelStatus()
        if status != _highs.HighsModelStatus.kOptimal:
            raise ComplexError(
                f"{self.name} LP failed: {self._h.modelStatusToString(status)}")
        sol = self._h.getSolution()
        return (np.array(sol.col_value), np.array(sol.row_dual),
                float(self._h.getInfo().objective_function_value))


# ---------------------------------------------------------------------------
# Stable norm


def _mass_lp(X: SimplicialComplex, g: PLMetric):
    """The stable norm of every class of (X, g) on one mass LP.

    Returns norm(alpha) -> StableNormValue.  The classes differ only in
    the right-hand side of the b period rows, so each call moves those
    bounds and re-optimises from the basis of the previous class.
    """
    ne = X.n_simplices(1)
    lengths = edge_lengths(X, g)
    cycles, cocycles, _ = h1_dual_bases(X)
    b = len(cycles)
    nv = X.n_vertices
    # A c = (boundary of c at each vertex, <w_i, c> for each cocycle)
    ends = np.array(X.edges, dtype=np.int64).reshape(-1, 2)
    omega = np.array(cocycles, dtype=float).reshape(b, ne)
    oi, oe = np.nonzero(omega)
    rows = np.concatenate([ends[:, 0], ends[:, 1], nv + oi])
    cols = np.concatenate([np.arange(ne), np.arange(ne), oe])
    vals = np.concatenate([-np.ones(ne), np.ones(ne), omega[oi, oe]])
    # variables: c = p - n with p, n >= 0, so A_eq = [A, -A]
    A_eq = sparse.csc_array((np.concatenate([vals, -vals]),
                             (np.tile(rows, 2), np.concatenate([cols, cols + ne]))),
                            shape=(nv + b, 2 * ne))
    lp = _HighsLP(np.concatenate([lengths, lengths]), A_eq, 0.0, 0.0,
                  0.0, math.inf, "stable norm")

    def norm(alpha) -> StableNormValue:
        alpha = tuple(int(a) for a in alpha)
        if len(alpha) != b:
            raise ComplexError(f"class has {len(alpha)} coords, expected {b}")
        for i, a in enumerate(alpha):
            lp.set_row_bounds(nv + i, a, a)
        x, lam, fun = lp.solve()
        cycle = x[:ne] - x[ne:]
        rhs = np.concatenate([np.zeros(nv), np.array(alpha, dtype=float)])
        # lam are the equality duals: value = rhs . lam
        w = lam[ends[:, 1]] - lam[ends[:, 0]] + omega.T @ lam[nv:]  # A^T lam
        return StableNormValue(alpha, fun, cycle, w, float(rhs @ lam))

    return norm


def stable_norm(X: SimplicialComplex, g: PLMetric, alpha) -> StableNormValue:
    """Minimum mass of a real edge 1-cycle with class alpha (free H_1 coords).

    Solved as a linear program; by homogeneity of mass the LP value equals
    the stable norm of the discrete metric.  Returns the primal minimizer
    and the LP-dual closed cocycle with unit edge-comass.  A one-shot of
    the mass LP that `stsys1` re-solves for each class of its box.
    """
    return _mass_lp(X, g)(alpha)


def _dual_separation_bounds(X: SimplicialComplex, g: PLMetric):
    """c_i > 0 with ||alpha|| >= |alpha_i| * c_i for every class alpha.

    For each basis direction, maximize <w, h_i> over closed cochains w
    with |w_e| <= l_e and <w, h_j> = 0 for j != i.  One LP serves every
    direction: only the -z entry moves, from the row of h_{i-1} to h_i.
    """
    ne = X.n_simplices(1)
    lengths = edge_lengths(X, g)
    cycles, _, _ = h1_dual_bases(X)
    b = len(cycles)
    # variables: w (ne), z (1); maximize z subject to dw = 0 on every
    # triangle (ab - ac + bc) and <w, h_j> = [j == i] z
    tri = edge_table(X, 2)
    nf = len(tri)
    H = np.array(cycles, dtype=float).reshape(b, ne)
    hj, he = np.nonzero(H)
    rows = np.concatenate([np.repeat(np.arange(nf), 3), nf + hj, [nf]])
    cols = np.concatenate([tri.ravel(), he, [ne]])
    vals = np.concatenate([np.tile([1.0, -1.0, 1.0], nf), H[hj, he], [-1.0]])
    c_obj = np.zeros(ne + 1)
    c_obj[-1] = -1.0
    A_eq = sparse.csc_array((vals, (rows, cols)), shape=(nf + b, ne + 1))
    lp = _HighsLP(c_obj, A_eq, 0.0, 0.0, np.append(-lengths, -math.inf),
                  np.append(lengths, math.inf), "separation")
    out = []
    for i in range(b):
        if i:  # the -z entry moves to the row of h_i
            lp.set_coeff(nf + i - 1, ne, 0.0)
            lp.set_coeff(nf + i, ne, -1.0)
        x, _, _ = lp.solve()
        out.append(float(x[-1]))
    return out


def stsys1(X: SimplicialComplex, g: PLMetric) -> SystoleValue:
    """Minimum stable norm over nonzero free integral H_1 classes.

    The enumeration radius is certified by dual separation bounds: a class
    with |alpha_i| > value / c_i has stable norm above the incumbent.
    Every class is one re-solve of the same mass LP (`_mass_lp`), and each
    class of the box, up to sign, is solved once.
    """
    cycles, _, _ = h1_dual_bases(X)
    b = len(cycles)
    if b == 0:
        return SystoleValue(INF, None, "exact", "b_1 = 0: no infinite-order classes")
    norm = _mass_lp(X, g)
    basis_vals = []
    for i in range(b):
        e = tuple(1 if j == i else 0 for j in range(b))
        basis_vals.append(norm(e))
    best = min(basis_vals, key=lambda s: s.value)
    bound = best.value
    cs = _dual_separation_bounds(X, g)
    if any(c <= 0 for c in cs):
        raise ComplexError("degenerate separation bound; cannot certify search")
    box = [int(math.floor(bound / c + 1e-9)) for c in cs]
    best_alpha = best.class_coords
    best_sn = best
    for alpha in itertools.product(*[range(-m, m + 1) for m in box]):
        if not any(alpha):
            continue
        # dedupe +/- and skip the unit vectors solved above
        first = next(a for a in alpha if a)
        if first < 0 or (first == 1 and sum(map(abs, alpha)) == 1):
            continue
        sn = norm(alpha)
        if sn.value < best_sn.value - 1e-12:
            best_sn = sn
            best_alpha = alpha
    return SystoleValue(
        best_sn.value,
        [("class", best_alpha), ("cycle", best_sn.cycle)],
        "exact",
        f"mass LP over certified box {box}",
    )


def sys1_aggregate(
    X: SimplicialComplex,
    g: PLMetric,
    covers: list[CoverSpec] | None = None,
    complete: bool = False,
) -> SystoleValue:
    """min(pisys1 surrogate, stsys1); exactness is the weaker of the two."""
    p = pisys1_upper(X, g, covers, complete=complete)
    s = stsys1(X, g)
    if p.value <= s.value:
        return SystoleValue(p.value, p.witness, p.exactness,
                            f"homotopy branch: {p.provenance}")
    return SystoleValue(s.value, s.witness, s.exactness,
                        f"stable branch: {s.provenance}")


def sysk_aggregate(
    X: SimplicialComplex,
    g: PLMetric,
    k: int,
    covers: list[CoverSpec] | None = None,
    timeout: float = 300.0,
) -> SystoleValue:
    """Aggregated k-systole over the listed covers (k = 1 or n-1).

    Any finite list of covers truncates the defining infimum, so for
    k = n-1 the result is flagged as an upper bound of that infimum.
    `timeout` is the per-class limit of each `sys_codim1_z2` call.
    """
    n = X.dim
    if k == 1:
        return sys1_aggregate(X, g, covers)
    if k != n - 1:
        raise ComplexError(f"unsupported degree k={k}; only 1 and n-1")
    from .hypersurface import sys_codim1_z2

    from .simplicial import build_cover

    results = [sys_codim1_z2(X, g, timeout=timeout)]
    for spec in covers or []:
        cov, gcov, _ = build_cover(X, g, spec)
        results.append(sys_codim1_z2(cov, gcov, timeout=timeout))
    best = min(results, key=lambda s: s.value)
    exact = "upper-bound" if (covers or best.exactness != "exact") else best.exactness
    return SystoleValue(best.value, best.witness, exact,
                        "min over trivial + listed covers (truncated infimum)")
