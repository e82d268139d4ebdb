"""Minimum-weight Z2 hypersurfaces in closed pseudomanifolds.

A codimension-1 Z2 cycle is determined, modulo the boundary of a set of
top simplices, by a reference cycle in its class: flipping tops toggles
their boundary faces.  Minimizing total (n-1)-volume over top-simplex
subsets is a minimum odd-cut problem on the dual graph, read off the
complex's cached `simplicial.cofacet_table`, with the face volumes of one
batched `simplicial.top_geometry` call in degree n-1.

The exact solver is a cutting-plane LP over the odd-loop (cycle)
inequalities of the cut polytope: every cycle in the class meets every
dual loop that crosses the reference cycle an odd number of times.  Its
lower bound is a fractional packing of odd loops read off the LP dual,
which is a certificate independent of the LP solver's tolerances.  An
integral LP solution is a minimum cycle once it lies in the class, which
a parity test on a spanning forest of the dual graph decides.  When the
relaxation stays fractional the branch-and-bound integer program runs
with the loop rows added, and its dual bound is kept.

The systole is the minimum over the nonzero classes, so a class only
needs a lower bound at or above the best value found so far (the
bounding step of branch and bound, Land-Doig 1960).  `sys_codim1_z2`
visits the classes in ascending weight of their reference cycles and
passes that incumbent to the solver as a cutoff: a class whose packing
bound reaches it is pruned, and keeps its reference cycle as an upper
bound.  An odd loop depends on the complex alone, so the rows found for
one class are valid for every class they cross an odd number of times:
the call pools them, with the LP-dual packing of each class that ran an
LP.  A class starts from the pooled rows odd on its reference cycle, and
the packings on them alone often prune a dominated class with no LP.

On a surface (n = 2) the exact minimum comes from shortest closed walks
instead.  A Z2 1-cycle has even degree at every vertex, so it splits
into closed trails whose classes sum to its own; conversely the edge set
mod 2 of a closed walk is a cycle in the walk's class that weighs no
more than the walk, as edge lengths are positive.  So the minimum over
class c is D(c), the min-plus closure over Z2^d of walk(c), the shortest
closed walk in class c, and the XOR of the walks attaining D(c) is a
witness.  One Dijkstra run per root on the Z2 homology cover
(`systole._z2_closed_walks`), the roots being the ends of the edges
that change sheet, gives every walk(c) at once.  The closure
is needed: on two disjoint copies of RP^2 the sum of their classes has
no single closed walk.
"""

from __future__ import annotations

import itertools
import logging
import math
import time
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

from .homology import z2_homology
from .simplicial import (
    ComplexError,
    PLMetric,
    SimplicialComplex,
    _memo,
    _metric_memo,
    cofacet_table,
    face_table,
    top_geometry,
)
from .systole import SystoleValue, _HighsLP, _root_chunks, _z2_closed_walks

# LP values this close to a row's bound or to an integer count as on it;
# the LP solver's own feasibility tolerance is 1e-7
_LP_TOL = 1e-6
# weight of the face areas in the separation lengths (see _separate)
_TILT = 0.1

log = logging.getLogger(__name__)

__all__ = [
    "DualGraph",
    "HypersurfaceResult",
    "dual_graph",
    "min_hypersurface",
    "sys_codim1_z2",
    "witness_verify",
]


@dataclass(frozen=True)
class DualGraph:
    """Adjacency of top simplices across their (n-1)-faces."""

    complex: SimplicialComplex
    faces: list  # (n-1)-simplices: the complex's own list, in its order
    cofacets: np.ndarray  # shape (F, 2): the two tops adjacent to each face
    weights: np.ndarray  # (n-1)-volume of each face

    @property
    def n_tops(self) -> int:
        return self.complex.n_simplices(self.complex.dim)


def dual_graph(X: SimplicialComplex, g: PLMetric) -> DualGraph:
    """The dual graph of X with the face volumes of g as weights; built
    once per (X, g) (`simplicial._metric_memo`) from the complex's cached
    faces and `cofacet_table` and the metric's face volumes, so it holds
    no array of its own."""
    return _metric_memo(X, g, "dual_graph", lambda X, g: DualGraph(
        X, X.simplices(X.dim - 1), cofacet_table(X), top_geometry(X, g, X.dim - 1)[1]))


@dataclass
class HypersurfaceResult:
    value: float  # best cycle weight found
    lower_bound: float  # proven lower bound (== value when exact)
    faces: tuple  # witness face set
    exact: bool
    runtime: float
    info: dict = field(default_factory=dict)


def _cut_vector(dg: DualGraph, z0: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Face indicator of the cycle z0 + boundary(tops with x=1), over GF(2)."""
    return z0 ^ x[dg.cofacets[:, 0]] ^ x[dg.cofacets[:, 1]]


def _group_key(a, b, parity, T):
    """Key of the edge group joining tops a and b at the given z0 parity."""
    return (np.minimum(a, b) * T + np.maximum(a, b)) * 2 + parity


def _odd_loop_cover(dg: DualGraph, z0: np.ndarray):
    """Twisted double cover of the dual graph, on the 2T lifts of the tops.

    Node (t, s) is t + s*T, and face f = (u, v) lifts to (u, s) - (v, s ^
    z0_f); faces with the same tops and parity form one edge group.
    Returns the edge pattern (CSR, both ways, each entry's group as its
    value), the sorted group keys (`_group_key`), the faces by group
    (ascending within one), each group's start and size in that order, and
    the tops of z0's faces, ascending, one of which every odd loop passes.
    Built once per complex and class (`simplicial._memo`), read-only."""
    z0 = np.asarray(z0, dtype=np.uint8)
    return _memo(dg.complex, ("odd_loop_cover", z0.tobytes()),
                 lambda X: _build_odd_loop_cover(dg, z0))


def _build_odd_loop_cover(dg: DualGraph, z0: np.ndarray):
    """`_odd_loop_cover`, uncached."""
    T, F = dg.n_tops, len(dg.faces)
    u, v = dg.cofacets[:, 0], dg.cofacets[:, 1]
    z = z0.astype(np.int64)
    key = _group_key(u, v, z, T)
    order = np.argsort(key, kind="stable")
    starts = np.flatnonzero(np.diff(key[order], prepend=-1))
    first = order[starts]
    # group k lifts to (u, 0) - (v, z) and (u, 1) - (v, 1 - z), each stored
    # both ways, in row order and ascending within a row
    a = np.concatenate([u[first], u[first] + T])
    b = np.concatenate([v[first] + z[first] * T, v[first] + (1 - z[first]) * T])
    tail, head = np.concatenate([a, b]), np.concatenate([b, a])
    edge = np.lexsort((head, tail))
    E = sparse.csr_matrix((np.tile(np.arange(len(first)), 4)[edge], head[edge],
                           np.searchsorted(tail[edge], np.arange(2 * T + 1))),
                          shape=(2 * T, 2 * T))
    return (E, key[first], order, starts, np.diff(starts, append=F),
            np.unique(dg.cofacets[z0 == 1]))


def _separate(dg: DualGraph, cover, y: np.ndarray, tilt: float) -> list:
    """Odd closed dual walks of y-length below 1, as face-count rows.

    Dijkstra runs from the cover's roots on lengths y + tilt * w / max(w):
    the tilt steers ties (most y_f are 0) towards short loops of small
    area, which cut deeper.  An edge group takes its shortest face's
    length (lowest index on ties), which keeps every cover distance, so
    with tilt = 0 an empty answer proves that no odd loop is violated.
    The chains from (root, 1) back to (root, 0) are stepped together and
    mapped to faces after the last step.  A walk is kept if its y-length
    is below 1 - `_LP_TOL`, so no LP row (met to 1e-7) comes back.
    Rows come by ascending root, each once, and the roots run in chunks
    (`systole._root_chunks`) of about 2^20 `dist` entries.
    """
    T, F = dg.n_tops, len(dg.faces)
    E, gkey, order, starts, sizes, roots = cover
    y = np.maximum(y, 0.0)
    lengths = (y + tilt * dg.weights / dg.weights.max())[order]
    best = np.minimum.reduceat(lengths, starts)
    at_best = lengths == np.repeat(best, sizes)
    choice = order[np.minimum.reduceat(np.where(at_best, np.arange(F), F), starts)]
    G = sparse.csr_matrix((best[E.data], E.indices, E.indptr), shape=E.shape)
    steps, n_walks = [], 0
    for sources in _root_chunks(roots, 2 * T):
        dist, pred = csgraph.dijkstra(G, indices=sources, return_predecessors=True,
                                      limit=1.0 if tilt == 0 else np.inf)
        src = np.flatnonzero(np.isfinite(dist[np.arange(len(sources)), sources + T]))
        # walk w is at `node`, in row `at` of the flattened pred
        walk, at, root = np.arange(n_walks, n_walks + len(src)), src * 2 * T, sources[src]
        node, pred = root + T, pred.ravel()
        while walk.size:
            prev = pred[at + node]
            steps.append((walk, prev, node))
            more = prev != root
            walk, at, root, node = walk[more], at[more], root[more], prev[more]
        n_walks += len(src)
    if not steps:
        return []
    walk, prev, node = map(np.concatenate, zip(*steps))
    face = choice[np.searchsorted(gkey, _group_key(prev % T, node % T,
                                                  (prev >= T) != (node >= T), T))]
    code, counts = np.unique(walk * F + face, return_counts=True)
    walk, face = np.divmod(code, F)
    bounds = np.searchsorted(walk, np.arange(n_walks + 1))
    ylen = np.add.reduceat(counts * y[face], bounds[:-1])
    rows, seen = [], set()
    short = np.flatnonzero(ylen < 1.0 - _LP_TOL)
    for a, b in zip(bounds[short].tolist(), bounds[short + 1].tolist()):
        row = face[a:b], counts[a:b]
        key = (row[0].tobytes(), row[1].tobytes())
        if key not in seen:
            seen.add(key)
            rows.append(row)
    return rows


def _dual_forest(dg: DualGraph):
    """A breadth-first spanning forest of the dual graph, rooted at the
    lowest top of each component: (face, *jumps), face[t] a face from top
    t to its parent (-1 at a root), jumps[k] each top's 2^k-th ancestor
    (or root), for every k before the first that reaches only roots."""
    T, F = dg.n_tops, len(dg.faces)
    u, v = dg.cofacets[:, 0], dg.cofacets[:, 1]
    # every face both ways, keyed tail * T + head: entry i holds face edge[i] % F
    key = np.concatenate([u * T + v, v * T + u])
    edge = np.argsort(key, kind="stable")
    key = key[edge]
    G = sparse.csr_matrix((np.ones(2 * F), key % T, np.searchsorted(key, np.arange(T + 1) * T)),
                          shape=(T, T))
    parent, seen = np.arange(T), np.zeros(T, dtype=bool)
    while not seen.all():
        nodes, pred = csgraph.breadth_first_order(G, np.argmin(seen))
        seen[nodes] = True
        parent[nodes[1:]] = pred[nodes[1:]]
    face = np.full(T, -1)
    tree = np.flatnonzero(parent != np.arange(T))
    face[tree] = edge[np.searchsorted(key, parent[tree] * T + tree)] % F
    jumps = [parent]
    while (parent[jumps[-1]] != jumps[-1]).any():
        jumps.append(jumps[-1][jumps[-1]])
    return (face, *jumps[:-1])


def _is_cut(dg: DualGraph, d: np.ndarray) -> bool:
    """Whether the face set d (0/1) is a cut of the dual graph, boundary(x)
    over GF(2) for a set x of tops.  x is fixed by d on the `_dual_forest`
    (built once per complex, `simplicial._memo`), 0 at each root: x_t is
    the parity of d on the tree path from t to its root, summed by pointer
    jumping.  d is a cut exactly when that x cuts it."""
    face, *jumps = _memo(dg.complex, "dual_forest", lambda X: _dual_forest(dg))
    x = np.where(face >= 0, d[face], 0)
    for up in jumps:
        x = x ^ x[up]
    return not _cut_vector(dg, d, x).any()


def _solve_milp(dg: DualGraph, z0: np.ndarray, cuts, timeout: float):
    """Branch-and-bound integer program for the minimum odd cut.

    Variables: binary x_t per top simplex, continuous y_f per face with
    y_f >= +-(x_u - x_v) when z0_f = 0 and y_f >= 1 - x_u - x_v,
    y_f >= x_u + x_v - 1 when z0_f = 1; nonnegative weights drive each
    y_f down to the XOR value at any integral x.  The odd-loop rows
    `cuts` y >= 1 ride along on the y columns.  scipy.optimize is
    imported here, on the first fallback, and not with the package.
    """
    from scipy import optimize

    T, F = dg.n_tops, len(dg.faces)
    # columns: x (T) then y (F); rows 2f and 2f + 1 hold face f:
    # y - x_u + x_v >= 0 and y + x_u - x_v >= 0 when z0_f = 0,
    # y + x_u + x_v >= 1 and y - x_u - x_v >= -1 when z0_f = 1
    odd = np.asarray(z0, dtype=bool)[:, None]
    cu = np.where(odd, [1.0, -1.0], [-1.0, 1.0])  # coefficient of x_u
    cols = np.repeat(np.column_stack([T + np.arange(F), dg.cofacets]), 2, axis=0)
    vals = np.stack([np.ones((F, 2)), cu, np.where(odd, cu, -cu)], axis=2)
    A = sparse.vstack([
        sparse.csr_matrix((vals.ravel(), (np.arange(2 * F).repeat(3), cols.ravel())),
                          shape=(2 * F, T + F)),
        sparse.hstack([sparse.csr_matrix((cuts.shape[0], T)), cuts]),
    ], format="csr")
    lb = np.concatenate([np.where(odd, [1.0, -1.0], 0.0).ravel(), np.ones(cuts.shape[0])])
    c = np.concatenate([np.zeros(T), dg.weights])
    integrality = np.concatenate([np.ones(T), np.zeros(F)])
    bounds_lo = np.zeros(T + F)
    bounds_hi = np.ones(T + F)
    bounds_hi[0] = 0.0  # gauge: complementing all tops gives the same cycle
    return optimize.milp(
        c,
        constraints=optimize.LinearConstraint(A, lb, np.inf),
        integrality=integrality,
        bounds=optimize.Bounds(bounds_lo, bounds_hi),
        options={"time_limit": timeout, "presolve": True},
    )


def _packing_bound(P, lam: np.ndarray, w: np.ndarray) -> float:
    """Best bound of the odd-loop packings in the columns of lam, 0 if none:
    for lam >= 0 on rows P, each odd on the class where lam > 0, and load =
    lam P, `sum(lam) - sum_f max(0, load_f - w_f)` is a feasible LP dual
    value, so it bounds the class whatever the solver's tolerances."""
    over = np.maximum(0.0, P.T @ lam - w[:, None]).sum(axis=0)
    return float((lam.sum(axis=0) - over).max(initial=0.0))


class _RowPool:
    """The odd-loop rows separated so far in one `sys_codim1_z2` call, and
    the only row store: a class's LP rows are pool rows.  `rows` holds
    every row (an odd closed dual walk, with its face counts) in the order
    found, one CSR matrix that `add` rebuilds from its arrays; `duals` the
    (pool indices, row duals lambda >= 0) of each class that ran an LP.
    No row is pooled twice: a row `_separate` finds for z0 is odd on z0,
    and the pooled rows odd on z0 are in the class's LP, so it does not
    find them again.  The pool lives in its call's frame, so a result
    never depends on an earlier call."""

    def __init__(self, n_faces: int):
        self.rows = sparse.csr_matrix((0, n_faces), dtype=np.int64)
        self.duals = []

    @property
    def packings(self) -> np.ndarray:
        """Column k: the row duals of the k-th class in `duals`, by pool row."""
        P = np.zeros((self.rows.shape[0], len(self.duals)))
        for k, (at, lam) in enumerate(self.duals):
            P[at, k] = lam
        return P

    def add(self, found: list):
        """Append the rows `found` by `_separate`; returns their pool
        indices and their CSR arrays (row starts, faces, counts)."""
        R, n = self.rows, self.rows.shape[0]
        block = (np.cumsum([0] + [len(f) for f, _ in found]),
                 np.concatenate([f for f, _ in found]), np.concatenate([c for _, c in found]))
        self.rows = sparse.csr_matrix(
            (np.concatenate((R.data, block[2])), np.concatenate((R.indices, block[1])),
             np.concatenate((R.indptr, R.indptr[-1] + block[0][1:]))),
            shape=(n + len(found), R.shape[1]))
        return np.arange(n, n + len(found)), block


def _solve_exact(dg: DualGraph, z0: np.ndarray, timeout: float,
                 cutoff: float = math.inf, pool: _RowPool | None = None):
    """Minimum odd cut by odd-loop cutting planes, with an MILP fallback.

    Any cycle z0 + boundary(x) in the class meets every odd closed dual
    walk gamma (one crossing z0 an odd number of times) in an odd number
    of faces, so `sum_{f in gamma} y_f >= 1` (a face walked twice counted
    twice) is valid: the cycle inequalities of the cut polytope
    (Barahona-Mahjoub 1986).  Each round solves the LP min w.y over
    0 <= y <= 1 and the rows so far, in one HiGHS model re-optimised from
    the last basis, then separates exactly: every odd loop crosses z0, so
    one Dijkstra over lengths y in the twisted double cover, rooted at the
    tops of z0's faces (`_separate`), finds a violated row if there is
    one.  Rounds stop when no odd loop is shorter than 1, when the class
    is exact, or at the deadline.

    The rows are `_RowPool` rows: the class keeps their pool indices `at`
    and their faces, counts and lengths.  The pooled rows odd on z0 are
    valid here, and so is any stored packing on them (`_packing_bound`):
    if the best such bound reaches the cutoff, the class is pruned with 0
    rounds and no LP.  Otherwise they make round 1, by the primal simplex,
    since a cold LP can stall the dual one (FCC T^3 s=10: over 120 s on
    3538 seeded rows, against 8 s).  The pool takes every row separated
    and the row duals of the round that gave the class's packing bound.

    The lower bound is the LP dual read as a packing, lambda = max(0, row
    duals).  An integral y weighs the LP value, so supp(y) is a minimum
    cycle once it lies in the class, that is, once z0 + supp(y) is a cut
    (`_is_cut`): the class is exact, path "lp", if it meets the packing
    bound to 1e-9 relative.  Otherwise (fractional y, or the deadline
    first) the integer program, which the problem's NP-hardness
    (Chen-Freedman 2011) keeps, runs for the time left with the loop rows;
    its dual bound raises the lower bound, and with no integral point in
    time z0 comes back, not exact.  A finite `cutoff` is a value the
    caller holds a cycle for: once the packing bound reaches it (to 1e-9
    relative), the call returns z0, not exact, with path "pruned".  Each
    round is logged at DEBUG.  The info dict carries the rounds, the rows
    (`cuts`), the rows seeded from the pool, the packing bound, the roots
    (counted even with no Dijkstra) and the path.
    """
    deadline = time.monotonic() + timeout
    stop = cutoff - 1e-9 * max(1.0, cutoff) if math.isfinite(cutoff) else math.inf
    F = len(dg.faces)
    w = dg.weights
    roots = np.unique(dg.cofacets[z0 == 1])
    pool = _RowPool(F) if pool is None else pool
    odd = (pool.rows @ z0.astype(np.int64)) & 1
    pooled = _packing_bound(pool.rows, pool.packings * odd[:, None], w)
    lower = pooled if pooled >= stop else 0.0  # the pooled bound only prunes
    lp, packing, y = None, None, np.zeros(F)
    # the class's LP rows: pool indices, and faces, counts and length by row
    at = faces = counts = lengths = np.zeros(0, dtype=np.int64)
    seeded, rounds, exact = 0, 0, False
    while not exact and lower < stop and time.monotonic() < deadline:
        if rounds == 0 and odd.any():
            new = np.flatnonzero(odd)
            rows = pool.rows[new]
            block, seeded, how = (rows.indptr, rows.indices, rows.data), len(new), \
                "seeded from the pool"
        else:
            cover = _odd_loop_cover(dg, z0)
            found = _separate(dg, cover, y, _TILT) or _separate(dg, cover, y, 0.0)
            if not found:
                break
            (new, block), how = pool.add(found), "added"
        lp = lp or _HighsLP(w, None, 1.0, math.inf, 0.0, 1.0, "cutting-plane")
        lp.set_options(simplex_strategy=4 if seeded and not rounds else 1)  # primal, dual
        at, faces, counts, lengths = map(np.concatenate, zip(
            (at, faces, counts, lengths), (new, block[1], block[2], np.diff(block[0]))))
        lp.add_rows(*block, 1.0, math.inf)
        rounds += 1
        try:
            y, dual, lp_value, _ = lp.solve(max(deadline - time.monotonic(), 0.0))
        except ComplexError:  # the deadline, or HiGHS gave up
            break
        # `_packing_bound` on the class's rows, summed face by face in row order
        lam = np.maximum(0.0, dual)
        load = np.bincount(faces, counts * np.repeat(lam, lengths), minlength=F)
        bound = max(0.0, float(lam.sum() - np.maximum(0.0, load - w).sum()))
        if bound >= lower:
            lower, packing = bound, (at, lam)
        log.debug("round %d: %d rows %s, %d roots, LP value %.9g, packing bound "
                  "%.9g, cutoff %.9g", rounds, len(new), how, len(roots),
                  lp_value, lower, cutoff)
        if lower < stop and (np.abs(y - np.round(y)) <= _LP_TOL).all():
            # supp(y) weighs the LP value: a minimum cycle once it is in the class
            cut = (y > 0.5).astype(np.uint8)
            exact = _is_cut(dg, cut ^ z0) and float(w @ cut) - lower <= 1e-9 * max(
                1.0, float(w @ cut))
    if packing is not None:
        pool.duals.append(packing)
    info = {"rounds": rounds, "cuts": len(at), "seeded": seeded,
            "packing_bound": lower, "roots": len(roots), "path": "lp"}
    if not exact:
        # z0 is a cycle of the class: the pruned class keeps it, and it is
        # the MILP's incumbent until an integral point turns up
        cut, info["path"] = z0.copy(), "pruned"
        if lower < stop:
            res = _solve_milp(dg, z0, pool.rows[at], max(deadline - time.monotonic(), 0.0))
            info.update(path="milp", milp_status=int(res.status), milp_message=res.message)
            if res.x is not None:
                cut = _cut_vector(dg, z0, np.round(res.x[:dg.n_tops]).astype(np.uint8))
                exact = res.status == 0
                if not exact:
                    lower = max(lower, float(res.mip_dual_bound))
    value = float(w @ cut)
    # roundoff may lift the bound past a pruned class's z0
    return value, value if exact else min(lower, value), cut, exact, info


def _surface_cuts(X: SimplicialComplex, g: PLMetric) -> np.ndarray:
    """Face indicator of a minimum cycle in every class of a surface.

    Row c is the class with bitmask c over the `z2_homology(X, 1)` basis:
    the XOR of the shortest closed walks attaining the min-plus closure
    D(c) = min(walk(c), min_a walk(a) + D(c ^ a)) (see the module
    docstring).  Each round lengthens the decompositions by one walk, and
    a shortest one has independent classes, so at most d rounds improve.
    Built once per (X, g) (`simplicial._metric_memo`), so every class
    shares it; read-only.
    """
    return _metric_memo(X, g, "surface_cuts", _build_surface_cuts)


def _build_surface_cuts(X: SimplicialComplex, g: PLMetric) -> np.ndarray:
    """`_surface_cuts`, uncached."""
    walk, loops = _z2_closed_walks(X, top_geometry(X, g, 1)[1])
    K = len(walk)
    c = np.arange(K)
    D, parts = walk.copy(), [[a] for a in range(K)]
    while True:
        cand = walk[None, :] + D[c[:, None] ^ c[None, :]]  # walk[a] + D[c ^ a]
        a = cand.argmin(axis=1)
        better = cand[c, a] < D
        if not better.any():
            break
        D = np.where(better, cand[c, a], D)
        parts = [[a[k]] + parts[k ^ a[k]] if better[k] else parts[k]
                 for k in range(K)]
    cuts = np.zeros((K, X.n_simplices(1)), dtype=np.uint8)
    for k in range(1, K):
        for p in parts[k]:
            loop = loops[p]
            for e in map(X.index, zip(loop, loop[1:])):
                cuts[k, e] ^= 1
    return cuts


def _reference_cycle(hz, coords: np.ndarray) -> np.ndarray:
    """z0 of a class: the XOR of the basis cycles its coordinates select."""
    return np.bitwise_xor.reduce(hz.cycle_reps[coords.astype(bool)], axis=0)


def min_hypersurface(X: SimplicialComplex, g: PLMetric, class_coords,
                     timeout: float = 300.0,
                     cutoff: float = math.inf, *,
                     _pool: _RowPool | None = None) -> HypersurfaceResult:
    """Minimum-weight Z2 (n-1)-cycle in the homology class with the given
    coordinates (relative to the z2_homology cycle basis).

    For n >= 3 a finite `cutoff` lets the class stop early, pruned, once
    its lower bound reaches it (see `_solve_exact`); the default solves it
    to exactness.  On a surface `timeout` and `cutoff` do not matter: the
    value is read off the closed-walk table (`_surface_cuts`) and is exact.
    `_pool` is private: `sys_codim1_z2` passes its row pool through it.
    """
    n = X.dim
    dg = dual_graph(X, g)
    hz = z2_homology(X, n - 1)
    coords = np.asarray(class_coords, dtype=np.uint8) % 2
    if coords.shape != (hz.dim,):
        raise ComplexError(f"expected {hz.dim} class coordinates")
    if not coords.any():
        raise ComplexError("class is zero")
    t0 = time.monotonic()
    if n == 2:
        cut = _surface_cuts(X, g)[int(coords @ (1 << np.arange(hz.dim)))]
        value = float(dg.weights @ cut)
        lower, exact = value, True
        info = {"rounds": 0, "cuts": 0, "seeded": 0, "roots": 0, "path": "walks"}
    else:
        value, lower, cut, exact, info = _solve_exact(
            dg, _reference_cycle(hz, coords), timeout, cutoff, _pool)
    faces = tuple(dg.faces[f] for f in np.flatnonzero(cut))
    res = HypersurfaceResult(value, lower, faces, exact, time.monotonic() - t0, info)
    ok, found = witness_verify(X, g, faces, coords)
    if not ok:
        raise ComplexError("solver returned an invalid witness cycle")
    if abs(found - value) > 1e-9 * max(1.0, value):
        raise ComplexError("witness weight does not match reported value")
    return res


def witness_verify(X: SimplicialComplex, g: PLMetric, faces, class_coords):
    """Check a face set is a Z2 cycle in the stated class; return (ok, weight).

    A face listed twice cancels.  The set is a cycle when every
    (n-2)-subface of its faces occurs an even number of times.
    """
    n = X.dim
    try:
        idx = [X.index(f) for f in faces if len(f) == n]
    except KeyError:
        return False, 0.0
    if len(idx) != len(faces):
        return False, 0.0
    chosen = np.flatnonzero(np.bincount(np.array(idx, dtype=np.int64),
                                        minlength=X.n_simplices(n - 1)) & 1)
    if n > 1 and (np.bincount(face_table(X, n - 1)[chosen].ravel()) & 1).any():
        return False, 0.0
    hz = z2_homology(X, n - 1)
    coords = hz.cocycle_reps[:, chosen].sum(axis=1) & 1
    if coords.tolist() != (np.asarray(class_coords, dtype=int) % 2).tolist():
        return False, 0.0
    weight = float(sum(top_geometry(X, g, n - 1)[1][chosen].tolist()))
    return True, weight


def sys_codim1_z2(X: SimplicialComplex, g: PLMetric,
                  timeout: float = 300.0) -> SystoleValue:
    """Z2 systole in codimension 1: minimum over all nonzero classes.

    The classes are solved in ascending weight of their reference cycles
    (lexicographic on ties), each with the best value so far as its
    cutoff, so for n >= 3 a class that cannot beat it is pruned.  The
    value is certified unless a class hits the per-class time limit with
    its lower bound below the best value; then it is an upper bound, and
    the provenance records the proven lower bound.  A surface is always
    exact.  For n >= 3 the classes share one `_RowPool`, a local of this
    call.  The per-class records come in lexicographic class order, with
    the rounds, rows (`cuts`), rows taken from the pool (`seeded`) and
    Dijkstra sources (`roots`) of each solve, all 0 on a surface; a pruned
    record's value is its reference cycle's weight, not a class minimum,
    and it is never the witness.  Each class is logged at INFO.
    """
    n = X.dim
    hz = z2_homology(X, n - 1)
    if hz.dim == 0:
        return SystoleValue(math.inf, None, "exact",
                            "H_{n-1}(X; Z2) = 0: no nonbounding hypersurface")
    dg = dual_graph(X, g)
    classes = [c for c in itertools.product((0, 1), repeat=hz.dim) if any(c)]
    z0_weight = {c: float(dg.weights @ _reference_cycle(hz, np.array(c))) for c in classes}
    best, records = None, {}
    pool = _RowPool(len(dg.faces)) if n >= 3 else None
    for combo in sorted(classes, key=lambda c: (z0_weight[c], c)):
        res = min_hypersurface(X, g, combo, timeout=timeout,
                               cutoff=best[0].value if best else math.inf, _pool=pool)
        path = res.info["path"]
        records[combo] = {"class": combo, "value": res.value,
                          "lower_bound": res.lower_bound, "exact": res.exact,
                          "pruned": path == "pruned", "path": path,
                          **{k: res.info[k] for k in ("rounds", "cuts", "seeded", "roots")}}
        log.info("class %s: %s, value %.9g, lower bound %.9g, %d rounds, %d rows "
                 "seeded, %.3f s", combo, path, res.value, res.lower_bound,
                 records[combo]["rounds"], records[combo]["seeded"], res.runtime)
        if path != "pruned" and (best is None or res.value < best[0].value):
            best = (res, combo)
    res, combo = best
    per_class = [records[c] for c in classes]
    # the minimum is certified if every unsolved class has a proven lower
    # bound at or above the best value found
    certified = all(
        p["exact"] or p["lower_bound"] >= res.value - 1e-9 * max(1.0, res.value)
        for p in per_class
    ) and res.exact
    return SystoleValue(
        value=res.value,
        witness={"faces": res.faces, "class": combo},
        exactness="exact" if certified else "upper-bound",
        provenance={
            "method": "z2-cover-walks" if n == 2 else "min-odd-cut",
            "classes": per_class,
            "lower_bound": min(p["lower_bound"] for p in per_class),
        },
    )
