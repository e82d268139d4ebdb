"""One-dimensional systoles.

Every shortest-loop search runs on `csgraph.dijkstra`: the Z2 homology
1-systole and the listed covers of the homotopy surrogate on a cover
graph, the integral 1-systole on shortest-path trees of X, each closed
by one edge and labelled with H_1 coordinates.  Each search is rooted
only at the ends of the edges that change sheet (or carry a nonzero
label): every closed walk it looks for crosses such an edge.  The Z2
homology cover's graph pattern is built once per complex, and each
metric only fills in its edge lengths.  The stable norm of a class is
the optimum of one comass linear program: the largest pairing with the
class of a closed cochain of edge-comass at most 1 (Federer 1974),
returned with that cochain and the LP-dual mass-minimizing real cycle.
Its matrix depends only on the complex, so one HiGHS model per complex
serves every metric, which passes it to HiGHS once with its own row
bounds; a class moves only the costs, and the model is re-solved by the
primal simplex.  Every solve also certifies a lower bound on the norm
of every other class, which `stsys1` uses to bound its box, to prune
it and to pick the basis each box class starts from.  Every linear
program of the package is one `_HighsLP`: a HiGHS model built once and
re-optimised from its last basis, or a basis kept from an earlier
solve, after each change of costs, bounds or rows.  The homotopy
systole ships as a cover-based surrogate with explicit exactness
semantics (the word problem blocks a general algorithm).
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import logging
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy
from scipy import sparse
from scipy.sparse import csgraph

from .homology import h1_dual_bases, z2_homology
from .simplicial import (
    ComplexError,
    CoverSpec,
    PLMetric,
    SimplicialComplex,
    _memo,
    edge_lengths,
    face_table,
    lift,
    tree_sums,
)

__all__ = [
    "SystoleValue",
    "StableNormValue",
    "sysh1",
    "pisys1_upper",
    "stable_norm",
    "stsys1",
    "sys1_aggregate",
]

INF = math.inf
log = logging.getLogger(__name__)


def _load_highs():
    """scipy's HiGHS binding, loaded from its file without running
    `scipy/optimize/__init__.py`, which would import linprog's and shgo's
    dependencies (scipy.fft, scipy.special, scipy.spatial: about 0.15 s
    per process) that no LP here uses.  It is registered under its own
    name, so a later `import scipy.optimize` shares this module, and a
    module already loaded by scipy.optimize is reused."""
    name = "scipy.optimize._highspy._core"
    if name in sys.modules:
        return sys.modules[name]
    where = str(Path(scipy.__file__).parent / "optimize" / "_highspy")
    spec = importlib.machinery.PathFinder.find_spec("_core", [where])
    if spec is None:
        raise ImportError(f"scipy's HiGHS binding _core not found in {where}")
    spec = importlib.util.spec_from_file_location(name, spec.origin)
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_highs = _load_highs()


@dataclass
class SystoleValue:
    value: float
    witness: list | dict | None = None  # vertex loop [v0, ..., v0]; a dict for codim 1
    exactness: str = "exact"  # "exact" | "upper-bound" | "lower-bound"
    provenance: str | dict = ""  # a dict of the per-class records for codim 1

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
# Shortest closed walks


def _tree_path(pred, node: int, V: int) -> list:
    """Vertices from the root of a Dijkstra tree to node, every node n
    read as the vertex n % V."""
    path = []
    while node >= 0:
        path.append(int(node) % V)
        node = pred[node]
    return path[::-1]


# distance entries (sources x nodes) that one chunked Dijkstra holds at once
_DIST_ENTRIES = 1 << 20


def _root_chunks(roots: np.ndarray, width: int):
    """roots in consecutive slices of about `_DIST_ENTRIES` / width each,
    at least one root per slice; `width` is the entries one root takes in
    the caller's per-source arrays (the node count for `dist` and
    `pred`)."""
    step = max(1, _DIST_ENTRIES // width)
    return (roots[lo:lo + step] for lo in range(0, len(roots), step))


def _cover_pattern(X: SimplicialComplex, step: np.ndarray):
    """(graph, ids, roots) of a regular K-sheeted cover of the edge graph
    of X.

    step is an E x K array: edge e = (u, v) lifts to the edges
    (u, s) - (v, step[e, s]) of the cover graph (`simplicial.lift`).  The
    graph carries no lengths: ids[i] is the edge of X whose lift stored
    entry i of its CSR data is, so `_cover_walks` weighs the same pattern
    with the edge lengths of any metric.  roots are the ends, ascending,
    of every edge whose step moves some sheet.
    """
    E = X.n_simplices(1)
    ends = face_table(X, 1)
    G = lift(*ends.T, step, X.n_vertices, np.arange(1.0, E + 1))
    moves = (step != np.arange(step.shape[1])).any(axis=1)
    return G, G.data.astype(np.int64) - 1, np.unique(ends[moves])


def _cover_walks(X: SimplicialComplex, lengths: np.ndarray, pattern):
    """Shortest closed edge walk of X lifting to a path from sheet 0 to
    sheet c, in every sheet c of a regular K-sheeted cover.

    pattern is the cover's `_cover_pattern`, weighed here with lengths.
    The deck group moves sheet 0 to every sheet, so Dijkstra from the
    (r, 0) gives walk[c] = min_r dist[(r, 0), (r, c)], with walk[0] = inf
    (Erickson-Nayyeri 2011), r running over the pattern's roots only: a
    closed walk that leaves sheet 0 crosses an edge that moves a sheet,
    and rotating it to start at that edge's end keeps its length.  Under
    an abelian deck group the rotation keeps the sheet it ends on, so
    walk[c] is exact for every c; under a non-abelian one it conjugates
    the holonomy, which stays nontrivial, so only the minimum over c != 0
    is exact.  With no roots every walk is inf and nothing runs.  Returns
    (walk, loops), loops[c] the vertex loop [r, ..., r] attaining walk[c]
    (None where no closed walk ends on sheet c).  The roots run in
    chunks, so the distance rows held at once stay near 2^20 entries.
    """
    P, ids, roots = pattern
    V = X.n_vertices
    K = P.shape[0] // V
    log.debug("cover walks: %d of %d vertices as roots, %d sheets", len(roots), V, K)
    sheet = np.arange(K)
    G = sparse.csr_matrix((lengths[ids], P.indices, P.indptr), shape=P.shape)
    walk = np.full(K, INF)
    loops = [None] * K
    for sources in _root_chunks(roots, V * K):
        dist, pred = csgraph.dijkstra(G, directed=False, indices=sources,
                                      return_predecessors=True)
        closes = dist[np.arange(len(sources))[:, None], sources[:, None] + V * sheet]
        for c in range(1, K):
            i = int(np.argmin(closes[:, c]))
            if closes[i, c] < walk[c]:
                walk[c] = closes[i, c]
                loops[c] = _tree_path(pred[i], int(sources[i]) + V * c, V)
    return walk, loops


def _z2_closed_walks(X: SimplicialComplex, lengths: np.ndarray):
    """Shortest closed edge walk in every class of H_1(X; Z2).

    Edge e carries the signature m_e, its column of the `z2_homology(X, 1)`
    cocycle basis read as a bitmask, and lifts to (u, s) - (v, s ^ m_e) in
    the Z2 homology cover.  A walk from (v, 0) to (v, c) closes up in X
    with class c, so `_cover_walks` gives (walk, loops) with walk[c] the
    shortest closed walk of class c.  The cover's pattern is cached on X.
    """
    return _cover_walks(X, lengths, _memo(X, "z2_cover", _z2_cover))


def _z2_cover(X: SimplicialComplex):
    """`_cover_pattern` of the Z2 homology cover (see `_z2_closed_walks`)."""
    z2 = z2_homology(X, 1)
    sig = (z2.cocycle_reps.astype(np.int64) << np.arange(z2.dim)[:, None]).sum(axis=0)
    return _cover_pattern(X, np.arange(1 << z2.dim) ^ sig[:, None])


def _z_closed_walk(X: SimplicialComplex, lengths: np.ndarray):
    """(length, vertex loop) of a shortest closed edge walk with nonzero
    class in H_1(X; Z); H_1 must be nonzero.

    Edge e = (a, b) carries column e of the free and torsion rows of the
    edge-coordinate matrix `H1Presentation.M`, so the labels summed along
    a walk give its class.  The candidates are the walks T(r, a) + ab +
    T(b, r), T a shortest-path tree from root r, and this is exact
    (Thomassen 1990) once r lies on a shortest nonzero closed walk C:
    walking round C from r, the candidates of its edges sum to C, so one
    of them is nonzero, and none is longer than C.  C has nonzero class,
    so it crosses an edge with a nonzero label, and the roots are the
    ends of those edges only.  `simplicial.tree_sums` sums the labels
    along every tree; a vertex off the root's component reads 0.  The
    roots run in chunks of about 2^20 entries per array.
    """
    pres = h1_dual_bases(X)[2]
    labels = np.array(pres.M[pres.free_rows + pres.tor_rows], dtype=np.int64).T
    torsion = np.array(pres.torsion, dtype=np.int64)
    nf, V, (E, r) = pres.free_rank, X.n_vertices, labels.shape

    def nonzero(cls):
        return cls[..., :nf].any(axis=-1) | (cls[..., nf:] % torsion).any(axis=-1)

    ends = face_table(X, 1)
    a, b = ends.T
    roots = np.unique(ends[nonzero(labels)])
    log.debug("H_1 closed walks: %d of %d vertices as roots", len(roots), V)
    G = sparse.csr_matrix((lengths, (a, b)), shape=(V, V))
    best, loop = INF, None
    for sources in _root_chunks(roots, E * r):
        dist, pred = csgraph.dijkstra(G, directed=False, indices=sources,
                                      return_predecessors=True)
        acc = tree_sums(X, pred, sources, labels)  # class of each tree path
        cls = acc[:, a] + labels - acc[:, b]
        length = np.where(nonzero(cls), dist[:, a] + lengths + dist[:, b], INF)
        i, k = np.unravel_index(np.argmin(length), length.shape)
        if length[i, k] < best:
            best = float(length[i, k])
            loop = _tree_path(pred[i], a[k], V) + _tree_path(pred[i], b[k], V)[::-1]
    return best, loop


def sysh1(X: SimplicialComplex, g: PLMetric, ring: str = "Z") -> SystoleValue:
    """Exact shortest edge loop with nonzero class in H_1(X; ring).

    Over Z2 the shortest closed walk of every class on the Z2 homology
    cover (`_z2_closed_walks`), over Z the shortest nonzero walk closing
    a shortest-path tree with one edge (`_z_closed_walk`).
    """
    if ring == "Z2":
        if z2_homology(X, 1).dim == 0:
            return SystoleValue(INF, None, "exact", "H_1(X;Z2) = 0; empty infimum")
        walk, loops = _z2_closed_walks(X, edge_lengths(X, g))
        c = int(np.argmin(walk))
        return SystoleValue(float(walk[c]), loops[c], "exact", "Z2 homology cover Dijkstra")
    if ring != "Z":
        raise ComplexError(f"unsupported ring {ring!r}")
    pres = h1_dual_bases(X)[2]
    if not (pres.free_rows or pres.tor_rows):
        return SystoleValue(INF, None, "exact", "H_1(X;Z) = 0; empty infimum")
    val, loop = _z_closed_walk(X, edge_lengths(X, g))
    return SystoleValue(val, loop, "exact", "H_1(Z) shortest-path trees closed by one edge")


def pisys1_upper(
    X: SimplicialComplex,
    g: PLMetric,
    covers: list[CoverSpec] | None = None,
) -> SystoleValue:
    """Shortest loop with a non-closed lift to a listed cover or the H_1-cover.

    An upper bound for the homotopy 1-systole.  On a listed cover edge
    color c steps sheet h to h * c, so a walk from sheet s to sheet t
    has holonomy s^-1 t, nontrivial exactly when t != s: `_cover_walks`
    from sheet 0, whichever element that is, finds every such walk.  Its
    roots are the ends of the non-identity edges; rooting a walk there
    conjugates its holonomy, which keeps it nontrivial, so the minimum
    over the sheets t != 0 read here is exact for any group.
    """
    candidates = []
    base = sysh1(X, g, "Z")
    if base.finite:
        candidates.append((base.value, base.witness, "H_1 cover"))
    lengths = edge_lengths(X, g)
    for spec in covers or []:
        spec.check_flat(X)
        colors = [spec.color[e] for e in X.edges]
        pattern = _cover_pattern(X, np.array(spec.group.table)[:, colors].T)
        walk, loops = _cover_walks(X, lengths, pattern)
        c = int(np.argmin(walk))
        if math.isfinite(walk[c]):
            candidates.append((float(walk[c]), loops[c], "cover coloring"))
    if not candidates:
        return SystoleValue(
            INF, None, "upper-bound", "no non-closed lift in any listed cover",
        )
    val, loop, src = min(candidates, key=lambda t: t[0])
    return SystoleValue(val, loop, "upper-bound", f"non-closed lift witness via {src}")


# ---------------------------------------------------------------------------
# Linear programs


class _HighsLP:
    """min c.x over row_lo <= A x <= row_hi and col_lo <= x <= col_hi.

    One HiGHS model, built once.  After `set_cost`, `set_col_bounds` or
    `add_rows`, `solve` re-optimises from the last basis instead of
    building the LP again, or from a basis of this model that `set_basis`
    restores.  `pass_rows` passes the model as built once more, with new
    row bounds: the rows added since, the costs, the column bounds and
    the basis are dropped, so the next solve starts as on a new model.
    `name` heads the error of a failed solve.
    """

    def __init__(self, c, A, row_lo, row_hi, col_lo, col_hi, name: str):
        A = sparse.csc_array(A)
        nr, nc = A.shape
        lp = self._lp = _highs.HighsLp()
        lp.num_col_, lp.num_row_ = nc, nr
        lp.col_cost_ = np.asarray(c, dtype=float)
        lp.col_lower_ = np.broadcast_to(np.asarray(col_lo, dtype=float), nc)
        lp.col_upper_ = np.broadcast_to(np.asarray(col_hi, dtype=float), nc)
        lp.a_matrix_.format_ = _highs.MatrixFormat.kColwise
        lp.a_matrix_.num_col_, lp.a_matrix_.num_row_ = nc, nr
        lp.a_matrix_.start_ = A.indptr
        lp.a_matrix_.index_ = A.indices
        lp.a_matrix_.value_ = A.data
        self.name = name
        self._h = _highs._Highs()
        self._h.setOptionValue("output_flag", False)
        self.pass_rows(row_lo, row_hi)

    def set_options(self, **values):
        """Set HiGHS options, e.g. simplex_strategy=4 for the primal simplex."""
        for key, value in values.items():
            self._h.setOptionValue(key, value)

    def pass_rows(self, lo, hi):
        """Pass the model as built with row i bounded to [lo[i], hi[i]]."""
        nr = self._lp.num_row_
        self._lp.row_lower_ = np.broadcast_to(np.asarray(lo, dtype=float), nr)
        self._lp.row_upper_ = np.broadcast_to(np.asarray(hi, dtype=float), nr)
        if self._h.passModel(self._lp) == _highs.HighsStatus.kError:
            raise ComplexError(f"{self.name} LP failed: model rejected")

    def set_cost(self, cols, values):
        """Give column cols[k] the cost values[k]."""
        cols = np.asarray(cols, dtype=np.int32)
        self._h.changeColsCost(len(cols), cols, np.asarray(values, dtype=float))

    def set_col_bounds(self, cols, lo: float, hi: float):
        """Bound each column of cols to [lo, hi]."""
        n = len(cols)
        self._h.changeColsBounds(n, np.asarray(cols, dtype=np.int32),
                                 np.full(n, float(lo)), np.full(n, float(hi)))

    def add_rows(self, A, lo: float, hi: float):
        """Append the rows of A, each with bounds [lo, hi]."""
        A = sparse.csr_array(A)
        nr = A.shape[0]
        self._h.addRows(nr, np.full(nr, lo, dtype=float), np.full(nr, hi, dtype=float),
                        A.nnz, A.indptr[:-1].astype(np.int32),
                        A.indices.astype(np.int32), A.data.astype(float))

    def basis(self):
        """The basis of the last solve."""
        return self._h.getBasis()

    def set_basis(self, basis):
        """Start the next solve from basis, one of this model's `basis()`."""
        self._h.setBasis(basis)

    def solve(self, time_limit: float = math.inf):
        """(x, row duals, objective, simplex iterations); raises
        ComplexError unless optimal.

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
        info = self._h.getInfo()
        return (np.array(sol.col_value), np.array(sol.row_dual),
                float(info.objective_function_value), int(info.simplex_iteration_count))


# ---------------------------------------------------------------------------
# Stable norm


def _integral_class(alpha, b: int) -> tuple:
    """alpha as a tuple of b Python ints; ComplexError unless integral."""
    coords = tuple(int(a) for a in alpha)
    if coords != tuple(alpha):
        raise ComplexError(f"class {tuple(alpha)!r} is not integral")
    if len(coords) != b:
        raise ComplexError(f"class has {len(coords)} coords, expected {b}")
    return coords


class _ComassLP:
    """Every stable norm of (X, g) on one comass LP.

    By Federer's duality (1974), ||alpha|| = max <t, alpha> over closed
    cochains w = sum_j t_j omega_j + df with |w_e| <= l_e on every edge,
    t the periods of w on the cycles of `h1_dual_bases`.  Columns are the
    potentials f (f_0 = 0) and the periods t; row e = (u, v) is
    -l_e <= sum_j t_j omega_j(e) + f_v - f_u <= l_e.  The matrix depends
    only on X, so its HiGHS model (`_comass_model`) is built once per
    complex, and a metric sets only the row bounds.  A class moves only
    the costs of t, which keeps the last basis primal feasible, so the
    model is re-solved by the primal simplex, without presolve.  Its LP
    dual is the mass LP, and the edge-row duals are a mass-minimizing
    real cycle.

    Binding g to the model passes it to HiGHS once more with the rows at
    +-l_e, which also resets the costs, the column bounds and the basis,
    so a value does not depend on the metrics solved on X before.  Each
    solve binds g again if another `_ComassLP` has used the model since,
    and may start from a basis an earlier solve left (`_HighsLP.basis`).
    `iterations` counts the simplex iterations of the last
    solve.

    Every solve also yields a certificate t / r, r = max_e |w_e| / l_e:
    the periods of the feasible cochain w / r, so ||beta|| >= |<t / r, beta>|
    for every class beta.
    """

    def __init__(self, X: SimplicialComplex, g: PLMetric):
        self.model = _memo(X, "comass", _comass_model)
        self.A, self.t_cols, self.lp = self.model.A, self.model.t_cols, self.model.lp
        self.b = len(self.t_cols)
        self.lengths = edge_lengths(X, g)
        self.iterations = 0
        self._bind()

    def _bind(self):
        self.lp.pass_rows(-self.lengths, self.lengths)
        self.model.bound = self._token = object()

    def _rebind(self):
        """Bind g again if another `_ComassLP` has used the model since."""
        if self.model.bound is not self._token:
            self._bind()

    def _solve(self, t_cost, start):
        """(max of -t_cost . t, cochain w, edge-row duals, certificate),
        solved from the basis start if it is given."""
        self._rebind()
        self.lp.set_cost(self.t_cols, t_cost)
        if start is not None:
            self.lp.set_basis(start)
        x, y, fun, self.iterations = self.lp.solve()
        w = self.A @ x
        r = float(np.max(np.abs(w) / self.lengths, initial=0.0))
        t = x[self.t_cols]
        return -fun, w, y, (t / r if r > 0 else np.zeros_like(t))

    def norm(self, alpha, start=None) -> tuple[StableNormValue, np.ndarray]:
        """(stable norm of the integral class alpha, certificate), solved
        from the basis start if it is given."""
        alpha = _integral_class(alpha, self.b)
        value, w, y, cert = self._solve(-np.array(alpha, dtype=float), start)
        # A^T y = cost: the cycle -y has boundary 0 and class alpha
        cycle = -y
        return StableNormValue(alpha, value, cycle, w,
                               float(self.lengths @ np.abs(cycle))), cert

    def floor(self, i: int) -> tuple[float, np.ndarray]:
        """(c_i, certificate), c_i = min ||alpha|| over real alpha with
        alpha_i = 1: by LP duality, max t_i with every other period at 0.
        The other periods are freed again even if the solve fails."""
        others = np.delete(self.t_cols, i)
        self._rebind()  # before the bounds, which a binding would reset
        self.lp.set_col_bounds(others, 0.0, 0.0)
        try:
            value, _, _, cert = self._solve(-np.eye(self.b)[i], None)
        finally:
            self.lp.set_col_bounds(others, -math.inf, math.inf)
        return value, cert


@dataclass
class _ComassModel:
    """The metric-free part of `_ComassLP`, one per complex."""

    A: sparse.csr_array  # edge rows; columns f, then t
    t_cols: np.ndarray
    lp: _HighsLP  # rows at +-1 until a metric is bound
    bound: object = None  # token of the `_ComassLP` last bound


def _comass_model(X: SimplicialComplex) -> _ComassModel:
    """The comass LP's matrix and HiGHS model on X (see `_ComassLP`)."""
    ne, nv = X.n_simplices(1), X.n_vertices
    _, cocycles, _ = h1_dual_bases(X)
    b = len(cocycles)
    ends = face_table(X, 1)
    omega = np.array(cocycles, dtype=float).reshape(b, ne)
    oi, oe = np.nonzero(omega)
    A = sparse.csr_array(
        (np.concatenate([-np.ones(ne), np.ones(ne), omega[oi, oe]]),
         (np.concatenate([np.arange(ne), np.arange(ne), oe]),
          np.concatenate([ends[:, 0], ends[:, 1], nv + oi]))),
        shape=(ne, nv + b))
    col_lo, col_hi = np.full(nv + b, -math.inf), np.full(nv + b, math.inf)
    col_lo[0] = col_hi[0] = 0.0
    lp = _HighsLP(np.zeros(nv + b), A, -1.0, 1.0, col_lo, col_hi, "stable norm")
    lp.set_options(simplex_strategy=4, presolve="off")  # primal simplex
    return _ComassModel(A, nv + np.arange(b), lp)


def stable_norm(X: SimplicialComplex, g: PLMetric, alpha) -> StableNormValue:
    """Minimum mass of a real edge 1-cycle with class alpha (free H_1 coords).

    alpha must be integral (ComplexError otherwise).  The value is the
    optimum of the comass LP (`_ComassLP`), the maximum of <[w], alpha>
    over closed cochains w of edge-comass at most 1; by homogeneity of mass
    it equals the stable norm of the discrete metric.  Returns w as the
    certificate, and the edge-row duals as the mass-minimizing cycle,
    whose mass is `dual_value`.  A one-shot of the LP that `stsys1`
    re-solves for each class of its box.
    """
    return _ComassLP(X, g).norm(alpha)[0]


# the certificate matrix C counts as numerically singular when its
# condition number |C| |C^-1| (infinity norm) exceeds this; below it the
# computed inverse errs by less than about b * cond * eps * |C^-1| <=
# 1e-10 * |C^-1|, inside the box's margin
_COND_MAX = 1e5
# a box of more classes than this makes `stsys1` solve the floors too,
# which bound it from the ball's own extent
_BOX_CLASSES = 1 << 16


def _certified_box(C: np.ndarray, value: float) -> list | None:
    """Box m with |beta_j| <= m_j for every class beta with
    |C beta|_inf <= value, or None when the b x b matrix C is numerically
    singular (see `_COND_MAX`).

    beta = C^-1 y with |y|_inf <= value, so |beta_j| <= value *
    sum_k |C^-1_jk|: the bounding box of that set.  The margin is 1e-9
    of the largest row sum, for the error of the inverse, plus 1e-9.
    """
    try:
        rows = np.abs(np.linalg.inv(C)).sum(axis=1)
    except np.linalg.LinAlgError:
        return None
    if not np.abs(C).sum(axis=1).max() * rows.max() <= _COND_MAX:  # also catches nan
        return None
    slack = 1e-9 * rows.max()
    return [int(math.floor(value * (r + slack) + 1e-9)) for r in rows]


def stsys1(X: SimplicialComplex, g: PLMetric) -> SystoleValue:
    """Minimum stable norm over nonzero free integral H_1 classes.

    One comass LP (`_ComassLP`) serves every solve.  The unit classes give
    the incumbent, and their certificates C a lower bound on every norm:
    ||beta|| >= |C beta|_inf.  So every class below the incumbent lies in
    the bounding box of {|C beta|_inf <= value} (`_certified_box`).  Only
    if C is numerically singular, or its box holds more than
    `_BOX_CLASSES` classes, are the floors c_i solved too: their
    certificates are c_i times the axis vectors, so their box is
    |alpha_i| <= value / c_i, and the box is the smaller of the two.  If
    the floors are singular as well, no box is certified: ComplexError.
    Each box class, up to sign, is solved once, unless a certificate
    already in hand bounds its norm below by at least the incumbent: then
    it is pruned.  A box class beta is solved from the basis of the solve
    whose certificate c bounds it best, the largest |<c, beta>| (the
    first such solve on ties).  A class, unit or not, replaces the
    incumbent only if it is lower by more than 1e-12, so of classes whose
    norms differ by roundoff the first one solved stays.
    """
    b = len(h1_dual_bases(X)[0])
    if b == 0:
        return SystoleValue(INF, None, "exact", "b_1 = 0: no infinite-order classes")
    lp = _ComassLP(X, g)
    # each solve's certificate, the basis it ended at, the name it is
    # logged by and its simplex iterations; the unit classes and the
    # floors start where the last solve ended
    certs, bases, names, iterations = [], [], [], []
    best = None

    def keep(cert, name):
        certs.append(cert)
        bases.append(lp.lp.basis())
        names.append(name)
        iterations.append(lp.iterations)

    for alpha in map(tuple, np.eye(b, dtype=int).tolist()):
        sn, cert = lp.norm(alpha)
        log.debug("solved %s from %s in %d iterations: %.17g", alpha,
                  names[-1] if names else "slack basis", lp.iterations, sn.value)
        keep(cert, alpha)
        if best is None or sn.value < best.value - 1e-12:
            best = sn
    box = _certified_box(np.array(certs), best.value)
    floors = box is None or math.prod(2 * m + 1 for m in box) > _BOX_CLASSES
    if floors:
        for i in range(b):
            value, cert = lp.floor(i)
            log.debug("floor %d from %s in %d iterations: %.17g", i, names[-1],
                      lp.iterations, value)
            keep(cert, f"floor {i}")
        floor_box = _certified_box(np.array(certs[b:]), best.value)
        if floor_box is None and box is None:
            raise ComplexError("degenerate separation bound; cannot certify search")
        box = [min(m) for m in zip(*[x for x in (box, floor_box) if x is not None])]
    log.debug("box %s", box)
    # the box up to sign in lexicographic order, without 0 and the unit
    # classes solved above
    grid = np.indices([2 * m + 1 for m in box]).reshape(b, -1).T - box
    lead = grid[np.arange(len(grid)), (grid != 0).argmax(axis=1)]
    classes = grid[(np.abs(grid).sum(axis=1) > 1) & (lead > 0)]
    bounds = np.abs(classes @ np.array(certs).T)
    lower, source = bounds.max(axis=1, initial=0.0), bounds.argmax(axis=1)

    def pruned_by(bound):
        # the margin covers LP roundoff: a pruned class could never pass
        # the `best.value - 1e-12` test below
        return bound >= best.value + 1e-9 * max(1.0, best.value)

    # the incumbent only falls, so a class pruned now stays pruned
    out = pruned_by(lower)
    if log.isEnabledFor(logging.DEBUG):
        for alpha, bound in zip(classes[out].tolist(), lower[out]):
            log.debug("pruned %s: bound %.17g", tuple(alpha), bound)
    pruned = int(out.sum())
    classes, lower, source = classes[~out], lower[~out], source[~out]
    for k, alpha in enumerate(map(tuple, classes.tolist())):
        if pruned_by(lower[k]):
            pruned += 1
            log.debug("pruned %s: bound %.17g", alpha, lower[k])
            continue
        sn, cert = lp.norm(alpha, bases[source[k]])
        log.debug("solved %s from %s in %d iterations: %.17g", alpha,
                  names[source[k]], lp.iterations, sn.value)
        bound = np.abs(classes @ cert)
        source = np.where(bound > lower, len(certs), source)
        lower = np.maximum(lower, bound)
        keep(cert, alpha)
        if sn.value < best.value - 1e-12:
            best = sn
    log.info("stsys1 %.9g at class %s, box %s, %d solves, floors %s, "
             "%d simplex iterations, %d pruned", best.value, best.class_coords, box,
             len(certs), "solved" if floors else "not needed", sum(iterations), pruned)
    return SystoleValue(
        best.value,
        [("class", best.class_coords), ("cycle", best.cycle)],
        "exact",
        f"comass LP over certified box {box}",
    )


def sys1_aggregate(
    X: SimplicialComplex,
    g: PLMetric,
    covers: list[CoverSpec] | None = None,
) -> SystoleValue:
    """min(pisys1 surrogate, stsys1); exactness is the weaker of the two."""
    p = pisys1_upper(X, g, covers)
    s = stsys1(X, g)
    if p.value <= s.value:
        return SystoleValue(p.value, p.witness, p.exactness,
                            f"homotopy branch: {p.provenance}")
    return SystoleValue(s.value, s.witness, s.exactness,
                        f"stable branch: {s.provenance}")

