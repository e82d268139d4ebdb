"""Minimum-weight Z2 hypersurfaces in closed pseudomanifolds.

A codimension-1 Z2 cycle is determined, modulo the boundary of a set of
top simplices, by a reference cycle in its class: flipping tops toggles
their boundary faces.  Minimizing total (n-1)-volume over top-simplex
subsets is a minimum odd-cut problem on the dual graph.  The dual graph,
the flips and the cycle test of a witness all read the complex's cached
`simplicial.cofacet_table` and `face_table`, and the face volumes come
from one batched `simplicial.top_geometry` call in degree n-1.

The exact solver is a cutting-plane LP over the odd-loop (cycle)
inequalities of the cut polytope: every cycle in the class meets every
dual loop that crosses the reference cycle an odd number of times.  Its
lower bound is a fractional packing of odd loops read off the LP dual,
which is a certificate independent of the LP solver's tolerances; a
class is exact when a witness cycle meets it.  When the relaxation stays
fractional the branch-and-bound integer program runs with the loop rows
added, and its dual bound is kept.

The systole is the minimum over the nonzero classes, so a class only
needs a lower bound at or above the best value found so far (the
bounding step of branch and bound, Land-Doig 1960).  `sys_codim1_z2`
visits the classes in ascending weight of their reference cycles and
passes that incumbent to the solver as a cutoff: a class whose packing
bound reaches it is pruned, and keeps its reference cycle as an upper
bound.  An odd loop depends on the complex alone, so the rows found for
one class are valid for every class they cross an odd number of times:
the call keeps them in one pool, with the LP-dual packing of each class
that ran an LP.  A class's LP rows are pool rows, and it starts from the
pooled rows odd on its reference cycle.  A packing on those rows alone
still bounds the class, so a dominated class is often pruned with no LP
at all (0 rounds), or else by the pooled rows alone, with no separation.

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
    lift,
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

    Node (t, s) is t + s*T.  Face f = (u, v) lifts to the edges
    (u, s) - (v, s ^ z0_f) (`simplicial.lift`).  Faces with the same two
    tops and the same parity lift to the same two edges: they form one
    edge group, stored once per direction.  Returns the edge pattern
    (both directions, CSR), the group of each stored entry, the sorted
    group keys (`_group_key`), the faces ordered by group, ascending
    within one, with the start of each group in that order, and the roots
    of the separation: the tops of the faces of z0, ascending.  An odd
    loop crosses z0, so it passes through a root.

    None of it depends on the metric, so it is built once per complex and
    class (`simplicial._memo`, keyed on z0's bytes), every array in it
    read-only.
    """
    z0 = np.asarray(z0, dtype=np.uint8)
    return _memo(dg.complex, ("odd_loop_cover", z0.tobytes()),
                 lambda X: _build_odd_loop_cover(dg, z0))


def _build_odd_loop_cover(dg: DualGraph, z0: np.ndarray):
    """`_odd_loop_cover`, uncached."""
    T = dg.n_tops
    u, v = dg.cofacets[:, 0], dg.cofacets[:, 1]
    z = z0.astype(np.int64)
    key = _group_key(u, v, z, T)
    order = np.argsort(key, kind="stable")
    starts = np.flatnonzero(np.r_[True, np.diff(key[order]) != 0])
    first = order[starts]
    E = lift(u[first], v[first], np.arange(2) ^ z[first, None], T,
             np.arange(1.0, len(first) + 1))
    E = E + E.T  # no entry meets its transpose, since u < v
    group = E.data.astype(np.int64) - 1
    return E, group, key[first], order, starts, np.unique(dg.cofacets[z0 == 1])


def _separate(dg: DualGraph, cover, y: np.ndarray, seen: set, tilt: float) -> list:
    """New odd closed dual walks of y-length below 1, as face-count rows.

    Dijkstra runs from the roots of the cover (the tops of z0's faces) on
    lengths y + tilt * w / max(w): the tilt steers ties (most y_f are 0)
    towards short loops of small area, which cut deeper.  Each edge group
    of the cover takes the length of its shortest face, the lowest face
    index on ties, and a walk crosses the group by that face.  This keeps
    every cover distance.  Every odd loop passes through a root, and the
    shortest odd loop through a root is no longer than it, so with
    tilt = 0 an empty answer proves that no odd loop is violated.  The
    predecessor chains of row i, from (roots[i], 1) back to (roots[i], 0),
    are stepped together, and a walk is kept only if its y-length itself
    is below 1.  Rows come by ascending root.  The roots run in chunks
    (`systole._root_chunks`), so `dist` and `pred` hold about 2^20
    entries at a time whatever the number of roots.
    """
    T, F = dg.n_tops, len(dg.faces)
    E, group, gkey, order, starts, roots = cover
    y = np.maximum(y, 0.0)
    lengths = (y + tilt * dg.weights / dg.weights.max())[order]
    best = np.minimum.reduceat(lengths, starts)
    at_best = lengths == np.repeat(best, np.diff(np.r_[starts, F]))
    choice = order[np.minimum.reduceat(np.where(at_best, np.arange(F), F), starts)]
    G = sparse.csr_matrix((best[group], E.indices, E.indptr), shape=E.shape)
    walks, faces, n_walks = [], [], 0
    for sources in _root_chunks(roots, 2 * T):
        dist, pred = csgraph.dijkstra(G, indices=sources, return_predecessors=True,
                                      limit=1.0 if tilt == 0 else np.inf)
        src = np.flatnonzero(np.isfinite(dist[np.arange(len(sources)), sources + T]))
        walk, node = np.arange(len(src)), sources[src] + T
        while walk.size:
            prev = pred[src[walk], node]
            parity = (prev >= T) != (node >= T)
            walks.append(walk + n_walks)
            faces.append(choice[np.searchsorted(gkey, _group_key(prev % T, node % T, parity, T))])
            more = prev != sources[src[walk]]
            walk, node = walk[more], prev[more]
        n_walks += len(src)
    if not walks:
        return []
    code, counts = np.unique(np.concatenate(walks) * F + np.concatenate(faces),
                             return_counts=True)
    walk, face = np.divmod(code, F)
    bounds = np.flatnonzero(np.r_[True, walk[1:] != walk[:-1], True])
    ylen = np.add.reduceat(counts * y[face], bounds[:-1])
    rows = []
    short = np.flatnonzero(ylen < 1.0 - _LP_TOL)
    for a, b in zip(bounds[short].tolist(), bounds[short + 1].tolist()):
        key = (face[a:b].tobytes(), counts[a:b].tobytes())
        if key not in seen:
            seen.add(key)
            rows.append((face[a:b], counts[a:b]))
    return rows


def _witness(dg: DualGraph, z0: np.ndarray, support: np.ndarray):
    """Tops x with z0 + boundary(x) inside the face set `support`, or None.

    The faces outside the support, lifted to the double cover, split it
    into components swapped in pairs by the deck involution; x takes the
    lift of each top that lies in the component of the pair holding the
    lowest-numbered top's 0-lift, so x_0 = 0.
    """
    T = dg.n_tops
    keep = np.flatnonzero(~support)
    p = z0[keep, None].astype(np.int64)
    G = lift(dg.cofacets[keep, 0], dg.cofacets[keep, 1], np.arange(2) ^ p, T)
    _, label = csgraph.connected_components(G, directed=False)
    if (label[:T] == label[T:]).any():
        return None
    first = np.full(label.max() + 1, 2 * T)
    np.minimum.at(first, label, np.arange(2 * T))
    return (first[label[:T]] > first[label[T:]]).astype(np.uint8)


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
    """The odd-loop rows separated so far in one `sys_codim1_z2` call.

    A row is an odd closed dual walk with its face counts.  It depends on
    the complex alone, and it is valid for every class whose reference
    cycle it crosses an odd number of times (see `_solve_exact`).  The
    pool is the only row store: a class's LP rows are pool rows.  `rows`
    holds every row in the order found, `seen` the key of each
    (`_separate`), and column k of `packings` the row duals lambda >= 0
    of the k-th class that ran an LP.  One key set serves every class: a
    row `_separate` finds for z0 is a walk from (r, 0) to (r, 1) in z0's
    twisted cover, so it is odd on z0; it cannot repeat a pooled row even
    on z0, and the pooled rows odd on z0 are already in the class's LP.
    The pool lives in the frame of the call that owns it, so a result
    never depends on an earlier call.
    """

    def __init__(self, n_faces: int):
        self.rows = sparse.csr_matrix((0, n_faces), dtype=np.int64)
        self.seen = set()
        self.packings = np.zeros((0, 0))

    def add(self, found: list):
        """Append the rows `found` by `_separate`, which has already put
        their keys in `seen`; returns their pool indices and their block."""
        n = self.rows.shape[0]
        block = sparse.csr_matrix(
            (np.concatenate([c for _, c in found]), np.concatenate([f for f, _ in found]),
             np.cumsum([0] + [len(f) for f, _ in found])),
            shape=(len(found), self.rows.shape[1]))
        self.rows = sparse.vstack([self.rows, block], format="csr")
        self.packings = np.pad(self.packings, ((0, len(found)), (0, 0)))
        return np.arange(n, n + len(found)), block


def _solve_exact(dg: DualGraph, z0: np.ndarray, timeout: float,
                 cutoff: float = math.inf, pool: _RowPool | None = None):
    """Minimum odd cut by odd-loop cutting planes, with an MILP fallback.

    Any cycle z0 + boundary(x) in the class meets every odd closed dual
    walk gamma (one crossing z0 an odd number of times) in an odd number
    of faces, because boundary(x) sums to an even number around a closed
    walk.  So `sum_{f in gamma} y_f >= 1` (a face walked twice counted
    twice) is valid for the class: these are the cycle inequalities of
    the cut polytope (Barahona-Mahjoub 1986).  Each round solves the LP
    min w.y over 0 <= y <= 1 and the rows found so far, then separates
    exactly: a walk from (t, 0) to (t, 1) in the twisted double cover of
    the dual graph (2T nodes, parallel faces of one parity taken at their
    shortest) is an odd loop, and every odd loop crosses z0, so it passes
    through a top of a face of z0.  One Dijkstra over lengths y, rooted at
    those tops only, therefore finds a violated row whenever there is
    one.  The LP is one HiGHS model for the whole call: each round appends
    only its new rows, and HiGHS re-optimises from the last basis within
    the time left.  Rounds stop when no odd loop is shorter than 1, when
    the class is exact, or at the deadline.

    The LP's rows are rows of a `_RowPool` (owned by `sys_codim1_z2`),
    which holds the rows and packings of the classes before this one in
    the same call; the class keeps only `at`, the ascending pool indices
    of its LP rows.  The pooled rows odd on z0 are valid here too, and so
    is any stored packing restricted to them (`_packing_bound`): if the
    best such bound reaches the cutoff, the class is pruned with 0 rounds,
    and no LP, cover or Dijkstra is built.  Otherwise those rows make
    round 1, with no separation.  That LP starts cold with every row
    violated, where the dual simplex can stall (FCC T^3 s=10: over 120 s
    on 3538 seeded rows, against 8 s), so round 1 runs the primal simplex
    and the later rounds the dual one.  The cover is built only when a
    round separates.  The pool takes every row separated and, as this
    class's packing, the row duals of the round that gave its packing
    bound.

    The lower bound is the LP dual read as a fractional packing of odd
    loops, lambda = max(0, row duals) (`_packing_bound`).  Whenever a
    round's y is integral, the witness is read off the double cover minus
    supp(y), and the class is exact, path "lp", once it meets the packing
    bound to 1e-9 relative.  Otherwise (fractional y, or the deadline hit
    first) the integer program runs for the time left with the loop rows
    added; its lower bound is the larger of the packing bound and its dual
    bound.  If it finds no integral point in time, z0 itself is returned,
    not exact, with the packing bound.  The problem is NP-hard in general
    (Chen-Freedman 2011), so the fallback stays.

    A finite `cutoff` is a value the caller already holds a cycle for.
    Once the packing bound reaches it (to 1e-9 relative), no cycle of this
    class can beat it: the call stops and returns z0 itself, not exact,
    with the packing bound and path "pruned".  With the default the class
    is solved to exactness.  Each round is logged at DEBUG.  The info dict
    carries the rounds, the rows (`cuts`), the rows seeded from the pool,
    the packing bound, the number of Dijkstra roots (the tops of z0's
    faces, counted whether or not a Dijkstra ran) and the path.
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
    at = np.zeros(0, dtype=np.int64)
    seeded, rounds, exact = 0, 0, False
    while not exact and lower < stop and time.monotonic() < deadline:
        if rounds == 0 and odd.any():
            new = np.flatnonzero(odd)
            block, seeded, how = pool.rows[new], len(new), "seeded from the pool"
        else:
            cover = _odd_loop_cover(dg, z0)
            found = (_separate(dg, cover, y, pool.seen, _TILT)
                     or _separate(dg, cover, y, pool.seen, 0.0))
            if not found:
                break
            (new, block), how = pool.add(found), "added"
        lp = lp or _HighsLP(w, sparse.csc_array((0, F)), 1.0, math.inf, 0.0, 1.0,
                            "cutting-plane")
        lp.set_options(simplex_strategy=4 if seeded and not rounds else 1)  # primal, dual
        at = np.r_[at, new]
        lp.add_rows(block, 1.0, math.inf)
        rounds += 1
        try:
            y, dual, lp_value, _ = lp.solve(max(deadline - time.monotonic(), 0.0))
        except ComplexError:  # the deadline, or HiGHS gave up
            break
        lam = np.maximum(0.0, dual)
        bound = _packing_bound(pool.rows[at], lam[:, None], w)
        if bound >= lower:
            lower, packing = bound, (at, lam)
        log.debug("round %d: %d rows %s, %d roots, LP value %.9g, packing bound "
                  "%.9g, cutoff %.9g", rounds, block.shape[0], how, len(roots),
                  lp_value, lower, cutoff)
        if lower < stop and (np.abs(y - np.round(y)) <= _LP_TOL).all():
            # a witness inside supp(y) weighs at most w.y, the LP value
            x = _witness(dg, z0, y > 0.5)
            if x is not None:
                cut = _cut_vector(dg, z0, x)
                exact = float(w @ cut) - lower <= 1e-9 * max(1.0, float(w @ cut))
    if packing is not None:
        pool.packings = np.column_stack([pool.packings, np.bincount(*packing, pool.rows.shape[0])])
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
    call, and every class's LP rows are pool rows: each class starts from
    the odd-loop rows the classes before it found that are odd on its
    reference cycle, and is pruned with 0 rounds and no LP if their
    packings on those rows reach the cutoff.  The per-class records come
    in lexicographic class order, with the rounds, rows (`cuts`), rows
    taken from the pool (`seeded`) and Dijkstra sources (`roots`) of each
    solve, all 0 on a surface; a pruned record's value is its reference
    cycle's weight, not a class minimum, and it is never the witness.
    Each class is logged at INFO.
    """
    n = X.dim
    hz = z2_homology(X, n - 1)
    if hz.dim == 0:
        return SystoleValue(math.inf, None, "exact",
                            "H_{n-1}(X; Z2) = 0: no nonbounding hypersurface")
    dg = dual_graph(X, g)
    classes = [c for c in itertools.product((0, 1), repeat=hz.dim) if any(c)]
    z0_weight = {c: float(dg.weights @ _reference_cycle(hz, np.array(c))) for c in classes}
    best, records, pool = None, {}, _RowPool(len(dg.faces))
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
