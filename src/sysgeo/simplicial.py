"""Piecewise-flat simplicial complexes.

A complex is given by its maximal simplices; the face lattice is derived.
Metrics assign positive finite lengths to edges, and each simplex must
embed as a nondegenerate Euclidean simplex (positive-definite Gram
matrix, which is the Cayley-Menger nondegeneracy condition).

Incidence is one table per dimension, built once from the face index and
cached on the complex: `face_table(X, k)` gives the (k-1)-faces of every
k-simplex and `edge_table(X, k)` its edges, and `cofacet_table(X)` the
two tops of every (n-1)-face.  The pseudomanifold and orientability
checks, the homology presentations, the dual graph and the codim-1
witness test all read these tables; no boundary matrix is built.
`_gram_stack` is the one Gram builder: it forms the Gram matrix of every
k-simplex at once from `edge_table`, and `top_geometry` is the one
degeneracy rule: a simplex is degenerate unless its Gram determinant is
positive and finite and its Cholesky factorisation succeeds.  The
structure checks of `validate` (connected, pure, pseudomanifold,
orientable) are cached on the complex in the same way; only the metric
is checked on every call.
Every cover graph of the package is built by `lift`, and every sum of
edge values along the paths of a tree by `tree_sums`.

What depends only on the complex is built once per complex through
`_memo` and cached on it: the incidence tables, the structure checks,
the homology data, the Laplacian pattern (`hodge._stiffness_plan`) and
circle-map search tree of `hodge`,
the Z2 homology cover's graph pattern and
the comass LP model of `systole`, and the twisted double cover of each
codim-1 class in `hypersurface`.
What depends on the metric too is built once per (X, g) through
`_metric_memo` and cached on g: `edge_lengths`, `_gram_stack`,
`top_geometry`, and the dual graph and a surface's minimum cycles in
`hypersurface`, so every stage of one verification measures each
simplex once.  The arrays these two caches return are shared, so they
are read-only.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

__all__ = [
    "ComplexError",
    "MetricError",
    "SimplicialComplex",
    "PLMetric",
    "CoverSpec",
    "GroupTable",
    "validate",
    "volume",
    "edge_table",
    "face_table",
    "cofacet_table",
    "edge_lengths",
    "top_geometry",
    "lift",
    "tree_sums",
    "build_cover",
    "product_complex",
    "pullback_metric",
    "read_mesh",
    "format_mesh",
    "read_cover",
]


class ComplexError(ValueError):
    pass


class MetricError(ValueError):
    """A metric that cannot be measured; `simplex` is the first degenerate
    simplex (`top_geometry`), or None."""

    def __init__(self, message: str, simplex: tuple | None = None):
        super().__init__(message)
        self.simplex = simplex


class SimplicialComplex:
    """Finite simplicial complex on vertices 0..V-1, closed under faces."""

    def __init__(self, n_vertices: int, maximal_simplices):
        self.n_vertices = int(n_vertices)
        maxi = sorted({tuple(sorted(s)) for s in maximal_simplices})
        if not maxi:
            raise ComplexError("no simplices")
        for s in maxi:
            if len(set(s)) != len(s):
                raise ComplexError(f"repeated vertex in simplex {s}")
            if s[0] < 0 or s[-1] >= self.n_vertices:
                raise ComplexError(f"vertex out of range in simplex {s}")
        self.dim = max(len(s) for s in maxi) - 1
        faces: list[set] = [set() for _ in range(self.dim + 1)]
        for s in maxi:
            for k in range(1, len(s) + 1):
                for f in itertools.combinations(s, k):
                    faces[k - 1].add(f)
        # isolated vertices are not representable; every vertex must occur
        seen = {v for s in maxi for v in s}
        if seen != set(range(self.n_vertices)):
            raise ComplexError("every vertex must belong to some simplex")
        self._faces = [sorted(fs) for fs in faces]
        self._index = [{s: i for i, s in enumerate(fs)} for fs in self._faces]
        self.maximal = maxi

    # -- face access --------------------------------------------------------

    def simplices(self, k: int):
        if k < 0 or k > self.dim:
            return []
        return self._faces[k]

    def index(self, simplex) -> int:
        s = tuple(sorted(simplex))
        return self._index[len(s) - 1][s]

    def has_simplex(self, simplex) -> bool:
        s = tuple(sorted(simplex))
        k = len(s) - 1
        return 0 <= k <= self.dim and s in self._index[k]

    @property
    def edges(self):
        return self.simplices(1)

    def n_simplices(self, k: int) -> int:
        return len(self.simplices(k))

    def euler_characteristic(self) -> int:
        return sum((-1) ** k * self.n_simplices(k) for k in range(self.dim + 1))

    # -- structure checks ---------------------------------------------------

    def is_connected(self) -> bool:
        return _memo(self, "connected", lambda X: _components(X) == 1)

    def is_pure(self) -> bool:
        return _memo(self, "pure",
                     lambda X: all(len(s) == X.dim + 1 for s in X.maximal))

    def pseudomanifold_defects(self):
        """(n-1)-simplices not shared by exactly two n-simplices."""
        return list(_memo(self, "defects", _defects))

    def is_closed_manifold(self) -> bool:
        return self.is_pure() and not self.pseudomanifold_defects()

    def is_orientable(self) -> bool:
        """Whether the top simplices orient coherently, on a connected dual graph.

        Orientation o_t in {0, 1} of top t induces (-1)^(o_t + n - c) on
        the face in column c of its `face_table` row, so two tops sharing
        a face at columns c and c' are coherent iff o_t + o_u = c + c' + 1
        mod 2.  In the orientation double cover, top t lifts to t and
        t + T and each face joins (t, o) to (u, o + c + c' + 1); X is
        connected and orientable iff the cover has exactly two components
        and they separate the two lifts of every top.
        """
        return self.is_closed_manifold() and _memo(self, "coherent", _coherent)


def _freeze(value):
    """value with every array in it made read-only: an array or a CSR/CSC
    matrix, bare or at the top level of a tuple.  Other values (bools,
    lists, models, presentations) pass as they are."""
    for v in value if isinstance(value, tuple) else (value,):
        arrays = (v.data, v.indices, v.indptr) if sparse.issparse(v) else (v,)
        for a in arrays:
            if isinstance(a, np.ndarray):
                a.flags.writeable = False
    return value


def _memo(X: SimplicialComplex, key, build):
    """build(X), computed on first use and cached on X under a hashable key
    (a complex is immutable), with every array in it read-only (`_freeze`)."""
    cache = getattr(X, "_memo_cache", None)
    if cache is None:
        cache = X._memo_cache = {}
    if key not in cache:
        cache[key] = _freeze(build(X))
    return cache[key]


def _metric_memo(X: SimplicialComplex, g: PLMetric, key, build):
    """build(X, g), computed on first use and cached on g under a hashable
    key (a metric is immutable too), with every array in it read-only.

    The cache holds the complex it was built for and is kept for one
    complex at a time: used with another, g starts a new cache.  Nothing
    refers back from X to g, so the two hold no reference cycle.  An
    error raised by build is not cached, so it is raised on every call.
    """
    cache = getattr(g, "_metric_memo_cache", None)
    if cache is None or cache[0] is not X:
        cache = g._metric_memo_cache = (X, {})
    memo = cache[1]
    if key not in memo:
        memo[key] = _freeze(build(X, g))
    return memo[key]


def _defects(X: SimplicialComplex):
    """`pseudomanifold_defects`, uncached."""
    faces = X.simplices(X.dim - 1)
    if not X.is_pure():
        return list(faces)
    count = np.bincount(face_table(X, X.dim).ravel(), minlength=len(faces))
    return [faces[i] for i in np.flatnonzero(count != 2)]


def _cofacets(X: SimplicialComplex):
    """(tops, columns) of the two incidences of every (n-1)-face in
    `face_table(X, n)`, each of shape (F, 2), tops ascending."""
    n = X.dim
    faces = X.simplices(n - 1)
    ft = face_table(X, n).ravel()
    bad = np.flatnonzero(np.bincount(ft, minlength=len(faces)) != 2)
    if bad.size:
        raise ComplexError(
            f"{len(bad)} faces without exactly two cofacets; "
            "closed pseudomanifold required (first: %s)" % (faces[bad[0]],))
    return np.divmod(np.argsort(ft, kind="stable").reshape(-1, 2), n + 1)


def cofacet_table(X: SimplicialComplex) -> np.ndarray:
    """The two tops of every (n-1)-face, shape (F, 2), ascending; cached on
    X.  Raises ComplexError unless every face has exactly two."""
    return _memo(X, "cofacets", _cofacets)[0]


def _coherent(X: SimplicialComplex) -> bool:
    """`is_orientable` on a closed manifold X, whose check it skips."""
    T = X.n_simplices(X.dim)
    t, c = _memo(X, "cofacets", _cofacets)
    p = (c[:, 0] + c[:, 1] + 1) % 2
    G = lift(t[:, 0], t[:, 1], np.arange(2) ^ p[:, None], T)
    k, label = csgraph.connected_components(G, directed=False)
    return k == 2 and bool((label[:T] != label[T:]).all())


class PLMetric:
    """Edge lengths on a complex; immutable after construction."""

    def __init__(self, lengths: dict):
        self._len = {tuple(sorted(e)): float(l) for e, l in lengths.items()}
        for e, l in self._len.items():
            if not 0 < l < math.inf:
                raise MetricError(f"edge {e} has nonpositive or non-finite length {l}")

    def length(self, u, v) -> float:
        if u == v:
            return 0.0
        return self._len[(u, v) if u < v else (v, u)]

    def items(self):
        return self._len.items()

    def min_length(self) -> float:
        return min(self._len.values())

    def scaled(self, c: float) -> "PLMetric":
        return PLMetric({e: c * l for e, l in self._len.items()})


@dataclass
class GroupTable:
    """Finite group given by its multiplication table: table[a][b] = a*b."""

    table: list

    def __post_init__(self):
        n = len(self.table)
        for row in self.table:
            if len(row) != n or sorted(row) != list(range(n)):
                raise ComplexError("multiplication table rows must be permutations")
        T = np.array(self.table, dtype=np.int64).reshape(n, n)
        ident = np.flatnonzero(((T == np.arange(n)) & (T.T == np.arange(n))).all(axis=1))
        if not ident.size:
            raise ComplexError("multiplication table has no identity")
        self.identity = int(ident[0])
        # every row is a permutation, so the identity occurs in each
        self.inv = np.argmax(T == self.identity, axis=1).tolist()
        bad = np.argwhere(T[T] != T[:, T])  # (a*b)*c against a*(b*c)
        if bad.size:
            a, b, c = bad[0].tolist()
            raise ComplexError(
                f"multiplication table is not associative: ({a}*{b})*{c} != {a}*({b}*{c})")

    @property
    def order(self) -> int:
        return len(self.table)

    def mul(self, a, b):
        return self.table[a][b]

    @classmethod
    def cyclic(cls, m: int) -> "GroupTable":
        return cls([[(a + b) % m for b in range(m)] for a in range(m)])


@dataclass
class CoverSpec:
    """Regular cover given by a flat edge coloring into a finite group.

    color[(u, v)] (u < v) is the transport from u to v; flatness means the
    ordered product around every 2-simplex boundary is the identity.
    """

    group: GroupTable
    color: dict

    def __post_init__(self):
        self.color = {tuple(sorted(e)): int(g) for e, g in self.color.items()}

    def transport(self, u, v):
        if u == v:
            return self.group.identity
        g = self.color[(u, v) if u < v else (v, u)]
        return g if u < v else self.group.inv[g]

    def check_flat(self, complex_: SimplicialComplex):
        for e in complex_.edges:
            if e not in self.color:
                raise ComplexError(f"edge {e} has no color")
        extra = set(self.color) - set(complex_.edges)
        if extra:
            raise ComplexError(f"color for non-edge {sorted(extra)[0]}")
        # triangles (a, b, c) are sorted, so each edge's color is its transport
        c = np.array([self.color[e] for e in complex_.edges], dtype=np.int64)
        ab, ac, bc = c[edge_table(complex_, 2)].T
        bad = np.flatnonzero(np.array(self.group.table)[ab, bc] != ac)
        if bad.size:
            tris = complex_.simplices(2)
            raise ComplexError(f"coloring is not flat on triangles {[tris[t] for t in bad[:5]]}")


# ---------------------------------------------------------------------------
# Metric geometry of all simplices of one dimension at once


def _subsimplex_table(X: SimplicialComplex, k: int, m: int) -> np.ndarray:
    """Index of every m-vertex face of every k-simplex, shape (n_k, C(k+1, m)).

    Faces run in `itertools.combinations` order.  Built once from the face
    index of X and cached on it, since a complex is immutable.
    """
    def build(X):
        idx = X._index[m - 1] if m - 1 <= X.dim else {}
        return np.array([[idx[f] for f in itertools.combinations(s, m)]
                         for s in X.simplices(k)],
                        dtype=np.int64).reshape(X.n_simplices(k), math.comb(k + 1, m))

    return _memo(X, ("subsimplex", k, m), build)


def face_table(X: SimplicialComplex, k: int) -> np.ndarray:
    """Index of every (k-1)-face of every k-simplex, shape (n_k, k + 1), k >= 1.

    Column c drops vertex k - c of the sorted simplex, so its face carries
    the boundary sign (-1)^(k - c), and each row ascends.  Cached on X.
    """
    return _subsimplex_table(X, k, k)


def edge_table(X: SimplicialComplex, k: int) -> np.ndarray:
    """Edge index of every vertex pair of every k-simplex, shape (n_k, pairs).

    Pairs run in `itertools.combinations(range(k + 1), 2)` order, and since
    simplices are sorted each edge is oriented from the pair's first vertex.
    Cached on X.
    """
    return _subsimplex_table(X, k, 2)


def edge_lengths(X: SimplicialComplex, g: PLMetric) -> np.ndarray:
    """Length of every edge of X, in edge order; read-only, cached on g."""
    return _metric_memo(X, g, "lengths",
                        lambda X, g: np.array([g.length(u, v) for (u, v) in X.edges]))


def _gram_stack(X: SimplicialComplex, g: PLMetric, k: int) -> np.ndarray:
    """Gram matrix of every k-simplex of X, shape (n_k, k, k); read-only,
    cached on g.

    Entry (i, j) of the simplex with vertices v_0..v_k is the product
    (v_a - v_0).(v_b - v_0) with a = i + 1, b = j + 1, read off the edge
    lengths as 0.5 * (l_0a^2 + l_0b^2 - l_ab^2).
    """
    return _metric_memo(X, g, ("gram", k), lambda X, g: _grams(X, g, k))


def _grams(X: SimplicialComplex, g: PLMetric, k: int) -> np.ndarray:
    """`_gram_stack`, uncached."""
    pairs = list(itertools.combinations(range(k + 1), 2))
    pos = {p: i for i, p in enumerate(pairs)}

    def col(i, j):  # column of |v_i - v_j|^2 in sq
        return pos[(min(i, j), max(i, j))] if i != j else len(pairs)

    ab = [(a, b) for a in range(1, k + 1) for b in range(1, k + 1)]
    # a length whose square overflows gives inf or NaN entries, which
    # `top_geometry` rejects by name: numpy need not warn of them first
    with np.errstate(over="ignore", invalid="ignore"):
        sq = edge_lengths(X, g)[edge_table(X, k)] ** 2
        sq = np.hstack([sq, np.zeros((len(sq), 1))])  # last column: |v_i - v_i|^2
        gram = 0.5 * (sq[:, [col(0, a) for a, _ in ab]] + sq[:, [col(0, b) for _, b in ab]]
                      - sq[:, [col(a, b) for a, b in ab]])
    return gram.reshape(len(sq), k, k)


def top_geometry(X: SimplicialComplex, g: PLMetric, k: int):
    """(Gram stack, volumes, embeddings) of every k-simplex of X at once.

    gram[t], vol[t] and pts[t] are the Gram matrix (`_gram_stack`), the
    volume sqrt(det) / k! and the Cholesky embedding (vertex 0 at the
    origin, vertex i at row i - 1 of the Cholesky factor) of k-simplex t.
    The arrays are read-only and cached on g.  This is the package's one
    degeneracy rule: a simplex is degenerate unless its Gram determinant
    is positive and finite (so NaN and overflow fail) and its Cholesky
    factorisation succeeds.  Raises MetricError, on every call, whose
    `simplex` is the first degenerate k-simplex in `X.simplices(k)` order.
    """
    return _metric_memo(X, g, ("geometry", k), lambda X, g: _geometry(X, g, k))


def _geometry(X: SimplicialComplex, g: PLMetric, k: int):
    """`top_geometry`, uncached."""

    def factor(gram):  # Cholesky factor(s), or None if one fails
        try:
            return np.linalg.cholesky(gram)
        except np.linalg.LinAlgError:
            return None

    simp = X.simplices(k)
    gram = _gram_stack(X, g, k)
    with np.errstate(over="ignore", invalid="ignore"):  # rejected below by name
        det = np.linalg.det(gram)
    chol = factor(gram)
    ok = (det > 0) & (det < math.inf)
    if chol is None:  # a failed stack does not say which factor failed
        ok &= [factor(G) is not None for G in gram]
    bad = np.flatnonzero(~ok)
    if bad.size:
        t = bad[0]
        raise MetricError(f"simplex {simp[t]} is degenerate (det {det[t]:g})", simp[t])
    pts = np.concatenate([np.zeros((len(simp), 1, k)), chol], axis=1)
    return gram, np.sqrt(det) / math.factorial(k), pts


# ---------------------------------------------------------------------------
# Whole-complex operations


@dataclass
class Diagnostics:
    closed_under_faces: bool
    connected: bool
    pure: bool
    pseudomanifold: bool
    orientable: bool | None
    metric_ok: bool
    violations: list
    n_simplices: list


def validate(X: SimplicialComplex, g: PLMetric | None = None) -> Diagnostics:
    """Structural and metric diagnostics; violations listed, never repaired.

    The metric is judged by `top_geometry` alone, in every dimension of a
    maximal simplex: its first degenerate simplex is a "cayley-menger"
    violation, and the first edge with no length "missing-edge-length".
    """
    violations = []
    pm_defects = X.pseudomanifold_defects()
    pseudo = not pm_defects
    if pm_defects:
        violations.append(("pseudomanifold", pm_defects[0]))
    connected = X.is_connected()
    if not connected:
        violations.append(("disconnected", None))
    metric_ok = True
    if g is not None:
        try:
            for k in _maximal_dims(X):
                top_geometry(X, g, k)
        except KeyError as exc:  # `edge_lengths` met an edge with no length
            metric_ok = False
            violations.append(("missing-edge-length", exc.args[0]))
        except MetricError as exc:
            metric_ok = False
            violations.append(("cayley-menger", exc.simplex))
    orientable = X.is_orientable() if pseudo else None
    return Diagnostics(
        closed_under_faces=True,  # faces are derived, closure holds by construction
        connected=connected,
        pure=X.is_pure(),
        pseudomanifold=pseudo,
        orientable=orientable,
        metric_ok=metric_ok,
        violations=violations,
        n_simplices=[X.n_simplices(k) for k in range(X.dim + 1)],
    )


def _maximal_dims(X: SimplicialComplex) -> list:
    """Every dimension k >= 1 of a maximal simplex of X, ascending: the
    dimensions in which a metric on X is measured."""
    return sorted({len(s) - 1 for s in X.maximal} - {0})


def _components(X: SimplicialComplex) -> int:
    """Number of connected components of the 1-skeleton of X."""
    a, b = face_table(X, 1).T
    A = sparse.csr_matrix((np.ones(len(a)), (a, b)), shape=(X.n_vertices,) * 2)
    return int(csgraph.connected_components(A, directed=False)[0])


def lift(tail, head, step, n: int, weights=None) -> sparse.csr_matrix:
    """CSR graph of the cover in which edge i, from tail[i] to head[i],
    steps sheet s to sheet step[i, s].  Node (v, s) is v + n*s; each edge
    is stored one way per sheet, with weight weights[i] (default 1)."""
    K = step.shape[1]
    src = (tail[:, None] + n * np.arange(K)).ravel()
    dst = (head[:, None] + n * step).ravel()
    w = np.ones(len(src)) if weights is None else np.repeat(weights, K)
    return sparse.csr_matrix((w, (src, dst)), shape=(n * K, n * K))


def tree_sums(X: SimplicialComplex, pred, roots, values) -> np.ndarray:
    """acc[i, w]: the signed sum of the rows values[e] (E x r) along the
    path from roots[i] to vertex w in the tree of pred[i], by pointer
    jumping; edge (a, b), a < b, counts +1 from a to b and -1 back.  A
    vertex off the tree points at the root with value 0, so it reads 0."""
    a, b = face_table(X, 1).T
    V, E = X.n_vertices, len(a)
    v = np.arange(V)
    ptr = np.where(pred < 0, roots[:, None], pred)
    # edges are sorted, so their keys a * V + b are too
    e = np.searchsorted(a * V + b, np.minimum(ptr, v) * V + np.maximum(ptr, v))
    sign = np.where(ptr < v, 1, -1) * (pred >= 0)
    acc = values[np.minimum(e, E - 1)] * sign[..., None]
    rows = np.arange(len(roots))[:, None]
    while (ptr != roots[:, None]).any():
        acc = acc + acc[rows, ptr]
        ptr = ptr[rows, ptr]
    return acc


def volume(X: SimplicialComplex, g: PLMetric) -> float:
    """Total n-volume: sum of flat simplex volumes of the top dimension."""
    return sum(top_geometry(X, g, X.dim)[1].tolist())


def build_cover(X: SimplicialComplex, g: PLMetric, spec: CoverSpec):
    """|B|-sheeted cover from a flat coloring.

    Returns (cover complex, cover metric, info) where info reports the
    connected-component count and the vertex map (v, sheet) -> vertex id.
    """
    spec.check_flat(X)
    B = spec.group
    m = B.order

    def vid(v, s):
        return v * m + s

    lifted = []
    for simplex in X.maximal:
        v0 = simplex[0]
        for sheet in range(m):
            lifted.append(
                tuple(vid(v, B.mul(sheet, spec.transport(v0, v))) for v in simplex)
            )
    cover = SimplicialComplex(X.n_vertices * m, lifted)
    lengths = {}
    for (u, v) in cover.edges:
        lengths[(u, v)] = g.length(u // m, v // m)
    info = {"components": _components(cover), "sheets": m, "vertex_id": vid}
    return cover, PLMetric(lengths), info


def product_complex(X, gX, Y, gY):
    """Staircase (Eilenberg-Zilber) triangulation of X x Y with the
    orthogonal product metric."""
    VY = Y.n_vertices

    def vid(a, b):
        return a * VY + b

    maximal = set()
    for sx in X.maximal:
        p = len(sx) - 1
        for sy in Y.maximal:
            q = len(sy) - 1
            for path in itertools.combinations(range(p + q), p):
                verts = []
                i = j = 0
                verts.append(vid(sx[0], sy[0]))
                for step in range(p + q):
                    if step in path:
                        i += 1
                    else:
                        j += 1
                    verts.append(vid(sx[i], sy[j]))
                maximal.add(tuple(verts))
    prod = SimplicialComplex(X.n_vertices * VY, maximal)
    lengths = {}
    for (u, v) in prod.edges:
        ax, bx = divmod(u, VY)
        ay, by = divmod(v, VY)
        dx = gX.length(ax, ay) if ax != ay else 0.0
        dy = gY.length(bx, by) if bx != by else 0.0
        lengths[(u, v)] = math.hypot(dx, dy)
    return prod, PLMetric(lengths)


@dataclass
class PullbackResult:
    metric: PLMetric
    inflation: float  # max edge-length ratio applied by the repair
    shift: float  # quadrature shift s used (0 when no repair was needed)


def pullback_metric(f: dict, X: SimplicialComplex, Y: SimplicialComplex,
                    gY: PLMetric, eps: float) -> PullbackResult:
    """Pull edge lengths of Y back along a simplicial map f: X -> Y.

    Collapsed edges get eps * (min edge length of gY).  If some simplex is
    degenerate, all lengths l are replaced by sqrt(l^2 + s^2) with the
    smallest s (binary search) that `top_geometry` accepts with the margin
    det G > 1e-14 * (max diagonal of G)^k; plain uniform scaling cannot
    repair degeneracy since Cayley-Menger signs are scale invariant.
    """
    if eps <= 0:
        raise MetricError("eps must be positive")
    for v in range(X.n_vertices):
        if v not in f:
            raise ComplexError(f"vertex {v} has no image")
    for s in X.maximal:
        img = tuple(sorted(set(f[v] for v in s)))
        if not Y.has_simplex(img):
            raise ComplexError(f"image of simplex {s} is not a simplex of Y")
    floor = eps * gY.min_length()
    base = {}
    for (u, v) in X.edges:
        fu, fv = f[u], f[v]
        base[(u, v)] = gY.length(fu, fv) if fu != fv else floor

    def metric_at(s):
        if s == 0.0:
            return PLMetric(base)
        return PLMetric({e: math.hypot(l, s) for e, l in base.items()})

    def ok(s):
        # `top_geometry`'s rule, with det G > 1e-14 * (max diagonal of G)^k
        g = metric_at(s)
        for k in _maximal_dims(X):
            try:
                gram = top_geometry(X, g, k)[0]
            except MetricError:
                return False
            scale = gram.diagonal(axis1=1, axis2=2).max(axis=1)
            if not (np.linalg.det(gram) > 1e-14 * scale ** k).all():
                return False
        return True

    if ok(0.0):
        return PullbackResult(metric_at(0.0), 1.0, 0.0)
    hi = floor
    while not ok(hi):
        hi *= 2.0
        if hi > 1e6 * max(l for _, l in gY.items()):
            raise MetricError("cannot repair degenerate pullback metric")
    lo = 0.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if ok(mid):
            hi = mid
        else:
            lo = mid
    s = hi
    metric = metric_at(s)
    inflation = max(metric.length(*e) / base[tuple(sorted(e))] for e in X.edges)
    return PullbackResult(metric, inflation, s)


# ---------------------------------------------------------------------------
# IO


def _parse(ln: str, fields: list, *types) -> list:
    """fields of statement ln, field k through types[k]; ComplexError
    naming ln unless there is one field per type and each converts."""
    try:
        if len(fields) != len(types):
            raise ValueError
        return [t(f) for t, f in zip(types, fields)]
    except ValueError:
        raise ComplexError(f"malformed statement {ln!r}") from None


def read_mesh(text: str):
    """Parse the mesh text format; returns (complex, metric)."""
    dim = None
    nv = None
    simplices = []
    lengths = {}
    for ln in text.splitlines():
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        tok = ln.split()
        if tok[0] == "dim":
            dim, = _parse(ln, tok[1:], int)
        elif tok[0] == "vertices":
            nv, = _parse(ln, tok[1:], int)
        elif tok[0] == "simplex":  # one or more vertices
            simplices.append(tuple(_parse(ln, tok[1:], *[int] * max(len(tok) - 1, 1))))
        elif tok[0] == "edgelen":
            u, v, length = _parse(ln, tok[1:], int, int, float)
            e = (u, v) if u < v else (v, u)
            if e in lengths:
                raise ComplexError(f"edge {e} listed twice")
            lengths[e] = length
        else:
            raise ComplexError(f"unknown statement {tok[0]!r}")
    if nv is None or not simplices:
        raise ComplexError("mesh must declare vertices and simplices")
    X = SimplicialComplex(nv, simplices)
    if dim is not None and X.dim != dim:
        raise ComplexError(f"declared dim {dim} but maximal simplices have dim {X.dim}")
    for e in X.edges:
        if e not in lengths:
            raise ComplexError(f"edge {e} has no edgelen")
    extra = set(lengths) - set(X.edges)
    if extra:
        raise ComplexError(f"edgelen for non-edge {sorted(extra)[0]}")
    return X, PLMetric(lengths)


def format_mesh(X: SimplicialComplex, g: PLMetric) -> str:
    out = [f"dim {X.dim}", f"vertices {X.n_vertices}"]
    for s in X.maximal:
        out.append("simplex " + " ".join(map(str, s)))
    for (u, v) in X.edges:
        out.append(f"edgelen {u} {v} {g.length(u, v):.17g}")
    return "\n".join(out) + "\n"


def read_cover(text: str) -> CoverSpec:
    """Parse a cover coloring file: 'group k', k table rows, 'color u v g'."""
    lines = [ln for ln in map(str.strip, text.splitlines()) if ln and not ln.startswith("#")]
    if not lines or lines[0].split()[0] != "group":
        raise ComplexError("expected 'group k' header")
    k, = _parse(lines[0], lines[0].split()[1:], int)
    if len(lines) < 1 + k:
        raise ComplexError(f"{lines[0]!r} needs {k} table rows")
    table = [_parse(ln, ln.split(), *[int] * k) for ln in lines[1:1 + k]]
    color = {}
    for ln in lines[1 + k :]:
        tok = ln.split()
        if tok[0] != "color":
            raise ComplexError(f"unknown statement {tok[0]!r}")
        u, v, c = _parse(ln, tok[1:], int, int, int)
        if not 0 <= c < k:
            raise ComplexError(f"color outside the group in {ln!r}")
        color[(u, v)] = c
    return CoverSpec(GroupTable(table), color)
