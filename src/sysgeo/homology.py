"""Simplicial homology over Z and Z2, with explicit representatives.

`h1_dual_bases` computes H_1 and H^1 once per complex and caches them.
It contracts a BFS spanning tree of the 1-skeleton, eliminates the other
edges by the unit pivots of triangles, and runs one Smith normal form
(`linalg_z.smith_normal_form`) on the few relations left over the
generators.  That gives integral cycle and cocycle bases of the free
parts, dual to each other, and an edge-coordinate matrix whose columns
are the H_1 coordinates (free and torsion) of the edges.  The systole,
Hodge and verify modules consume that cache; `homology` reports Betti
numbers and torsion, taking degree 1 from it and the other degrees from
a `QuotientPresentation` of full boundary matrices.  `z2_homology`
gives Z2 representatives with a dual cocycle basis: in degree 1 it is
the presentation's free and even-torsion rows read mod 2 (universal
coefficients; H_0 is free), and in the other degrees a
`linalg_z.gf2_echelon` reduction of the dense boundary matrices.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .linalg_z import gf2_echelon, gf2_kernel, int_matmul, smith_normal_form
from .simplicial import ComplexError, SimplicialComplex, edge_table

__all__ = [
    "homology",
    "HomologySummary",
    "QuotientPresentation",
    "H1Presentation",
    "h1_dual_bases",
    "z2_homology",
    "Z2Homology",
]


class _Quotient:
    """Coordinates on a quotient Z^g / im R, read off S = U R V (Smith).

    Row i of U x is a torsion coordinate mod divisors[i] when that divisor
    exceeds 1, vanishes on every x for a unit divisor, and is a free
    coordinate past the rank of R.
    """

    def _read_divisors(self, S, g):
        self.divisors = [int(d) for d in np.diagonal(S) if d]
        rank = len(self.divisors)
        self.free_rows = list(range(rank, g))
        self.tor_rows = [i for i in range(rank) if self.divisors[i] > 1]

    @property
    def free_rank(self) -> int:
        return len(self.free_rows)

    @property
    def torsion(self):
        return [self.divisors[i] for i in self.tor_rows]

    def _split(self, w):
        w = w.tolist()
        return (tuple(w[i] for i in self.free_rows),
                tuple(w[i] % self.divisors[i] for i in self.tor_rows))


class QuotientPresentation(_Quotient):
    """H = ker(A_out) / im(A_in) over Z, with representatives and coordinates.

    A_out: C -> C' (its kernel is the cycle space), A_in: C'' -> C (its
    image is divided out).  Both are lists of integer rows.  The Smith
    normal form of A_out gives the cycle basis K (columns r.. of V) and,
    in the rows of V^-1, both the test for a cycle (rows ..r vanish) and
    its coordinates in K (rows r..).  The Smith normal form of the
    boundaries in those coordinates gives the quotient: its U maps cycle
    coordinates to quotient coordinates and its U^-1 holds representatives.
    `homology` uses it in the degrees other than 1.
    """

    def __init__(self, A_out, A_in):
        S, _, V, _, Vi = smith_normal_form(A_out)
        r = int(np.count_nonzero(np.diagonal(S)))
        self.K = V[:, r:]
        self._Vi, self._r = Vi, r
        B = int_matmul(Vi, A_in)
        if B[:r].any():
            raise ComplexError("boundary is not a cycle; bad chain complex")
        S, self.U, _, self.Uinv, _ = smith_normal_form(B[r:])
        self._read_divisors(S, self.K.shape[1])

    def free_basis(self):
        """Integer vectors in C representing a basis of the free part."""
        return int_matmul(self.K, self.Uinv[:, self.free_rows]).T.tolist()

    def coords(self, z):
        """(free coords, torsion coords) of a cycle z, or None if not a cycle."""
        y = int_matmul(self._Vi, z)
        if y[:self._r].any():
            return None
        return self._split(int_matmul(self.U, y[self._r:]))


class H1Presentation(_Quotient):
    """H_1(X; Z) from a contracted spanning tree and one small Smith form.

    A BFS spanning forest of the 1-skeleton is contracted: its edges map
    to 0.  Every other edge is unknown until a triangle with exactly one
    unknown edge expresses it, with its +-1 coefficient as pivot, in the
    edges already known; when no such triangle is left, the lowest-index
    unknown edge becomes a new generator.  Each edge thus gets an exact
    integer expression over g generators, and the triangles that were not
    used as pivots, rewritten over the generators, form the relation
    matrix R (zero columns and repeats up to sign dropped).  This is the
    reduction of Kaczynski-Mrozek-Slusarek (1998): H_1 = Z^g / im R.

    With S = U R V the Smith normal form of R, `M = U @ Expr` (g x E) is
    the edge-coordinate matrix: column e holds the quotient coordinates of
    edge e, so a cycle's coordinates are M z, and labels read off its
    columns add up along any edge path.  The free rows of M are the
    integral `cocycles`; the `cycles` combine the tree loops of the
    generators by the columns of U^-1, so <cocycles[i], cycles[j]> =
    delta_ij by construction.  Since Ex @ loop_k = e_k, M pairs the U^-1
    combinations of the tree loops to the identity in every row, so the
    free rows and the rows of even torsion divisors, reduced mod 2, are
    dual bases of H_1(X; Z2) and H^1(X; Z2) (`z2`); odd torsion vanishes
    mod 2.
    """

    def __init__(self, X: SimplicialComplex):
        edges = X.edges
        self._tail = np.array([u for u, _ in edges], dtype=np.int64)
        self._head = np.array([v for _, v in edges], dtype=np.int64)
        self._nv = X.n_vertices
        parent = _bfs_forest(X)
        expr = [None] * len(edges)  # edge -> {generator: coefficient}
        for p in parent:
            if p is not None:
                expr[p[0]] = {}
        gens, relations = _eliminate(X, expr)
        g = len(gens)
        R = np.zeros((g, len(relations)), dtype=object)
        for j, col in enumerate(relations):
            for k, c in col:
                R[k, j] = c
        Ex = np.zeros((g, len(edges)), dtype=object)
        for i, e in enumerate(expr):
            for k, c in e.items():
                Ex[k, i] = c
        S, U, _, Ui, _ = smith_normal_form(R)
        self._read_divisors(S, g)
        self.M = int_matmul(U, Ex)
        # tree loop of generator edge (a, b): the edge, then b -> root -> a
        loops = np.zeros((g, len(edges)), dtype=np.int64)
        for k, i in enumerate(gens):
            loops[k, i] = 1
            for v, sign in ((self._head[i], 1), (self._tail[i], -1)):
                while parent[v] is not None:
                    j, p = parent[v]
                    loops[k, j] += sign if v < p else -sign
                    v = p
        self.cycles = int_matmul(Ui[:, self.free_rows].T, loops).tolist()
        self.cocycles = self.M[self.free_rows].tolist()
        z2 = self.free_rows + [i for i in self.tor_rows if self.divisors[i] % 2 == 0]
        self.z2 = Z2Homology(len(z2),
                             (int_matmul(Ui[:, z2].T, loops) % 2).astype(np.uint8),
                             (self.M[z2] % 2).astype(np.uint8))

    def coords(self, z):
        """(free coords, torsion coords) of a cycle z, or None if not a cycle."""
        z = np.array(z, dtype=object)
        bd = np.zeros(self._nv, dtype=object)
        np.add.at(bd, self._head, z)
        np.subtract.at(bd, self._tail, z)
        if bd.any():
            return None
        return self._split(int_matmul(self.M, z))


def _bfs_forest(X: SimplicialComplex):
    """Per vertex, (tree edge to its parent, parent) in a BFS forest of
    the 1-skeleton, or None at a root; neighbours are taken in edge order."""
    adj = [[] for _ in range(X.n_vertices)]
    for i, (u, v) in enumerate(X.edges):
        adj[u].append((v, i))
        adj[v].append((u, i))
    parent = [None] * X.n_vertices
    seen = [False] * X.n_vertices
    for root in range(X.n_vertices):
        if seen[root]:
            continue
        seen[root] = True
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for v, i in adj[u]:
                if not seen[v]:
                    seen[v] = True
                    parent[v] = (i, u)
                    queue.append(v)
    return parent


def _eliminate(X: SimplicialComplex, expr):
    """Express every unknown edge (expr[i] is None) over generators.

    Fills expr in place and returns (generator edges, relations), each
    relation a sorted tuple of (generator, coefficient), first one > 0.
    """
    # boundary of (a, b, c) = (b, c) - (a, c) + (a, b)
    tris = [((ab, 1), (ac, -1), (bc, 1)) for ab, ac, bc in edge_table(X, 2).tolist()]
    tri_of = [[] for _ in expr]
    for t, row in enumerate(tris):
        for i, _ in row:
            tri_of[i].append(t)
    unknown = [sum(expr[i] is None for i, _ in row) for row in tris]
    queue = deque(t for t, k in enumerate(unknown) if k == 1)
    pivot = [False] * len(tris)
    gens = []

    def settle(i):
        for t in tri_of[i]:
            unknown[t] -= 1
            if unknown[t] == 1:
                queue.append(t)

    nxt = 0
    while True:
        while queue:
            t = queue.popleft()
            if unknown[t] != 1:  # its last unknown edge was settled
                continue
            (i, s), = [(i, s) for i, s in tris[t] if expr[i] is None]
            expr[i] = _combine([(k, -s * sk) for k, sk in tris[t] if k != i], expr)
            pivot[t] = True
            settle(i)
        while nxt < len(expr) and expr[nxt] is not None:
            nxt += 1
        if nxt == len(expr):
            break
        expr[nxt] = {len(gens): 1}
        gens.append(nxt)
        settle(nxt)
    relations = {}
    for t, row in enumerate(tris):
        r = {} if pivot[t] else _combine(row, expr)
        if r:
            sign = 1 if r[min(r)] > 0 else -1
            relations.setdefault(tuple(sorted((k, sign * c) for k, c in r.items())))
    return gens, list(relations)


def _combine(terms, expr):
    """sum of c * expr[i] over the (i, c) in terms, as {generator: coeff}."""
    out = {}
    for i, c in terms:
        for k, a in expr[i].items():
            out[k] = out.get(k, 0) + c * a
    return {k: a for k, a in out.items() if a}


@dataclass
class HomologySummary:
    ring: str
    betti: list
    torsion: list  # per degree, list of elementary divisors > 1 (empty for Z2)


def homology(X: SimplicialComplex, ring: str = "Z") -> HomologySummary:
    """Betti numbers and torsion coefficients in every degree."""
    if ring not in ("Z", "Z2"):
        raise ComplexError(f"unsupported coefficient ring {ring!r}")
    n = X.dim
    if ring == "Z2":
        return HomologySummary(ring="Z2",
                               betti=[z2_homology(X, k).dim for k in range(n + 1)],
                               torsion=[[] for _ in range(n + 1)])
    pres = [h1_dual_bases(X)[2] if k == 1 else
            QuotientPresentation(X.boundary_matrix(k), X.boundary_matrix(k + 1))
            for k in range(n + 1)]
    return HomologySummary(ring="Z", betti=[p.free_rank for p in pres],
                           torsion=[p.torsion for p in pres])


def h1_dual_bases(X: SimplicialComplex):
    """(cycles, cocycles, presentation of H_1) with <w_i, h_j> = delta_ij.

    cycles and cocycles are integral bases of the free parts of H_1 and
    H^1, and the presentation (an `H1Presentation`) gives coordinates,
    torsion and the edge-coordinate matrix.  The result is cached on the
    complex (the complex is immutable) and is the package's only source
    of H_1 data.
    """
    cached = getattr(X, "_h1_dual_cache", None)
    if cached is None:
        h1 = H1Presentation(X)
        cached = X._h1_dual_cache = (h1.cycles, h1.cocycles, h1)
    return cached


# ---------------------------------------------------------------------------
# Z2


@dataclass
class Z2Homology:
    """H_k(X; Z2): dimension, cycle representatives, dual cocycle basis.

    The pairing of a cycle with the cocycle basis gives its coordinates;
    the bases are arranged so that cycle_reps[i] pairs to the i-th unit
    vector.
    """

    dim: int
    cycle_reps: np.ndarray  # dim x n_k
    cocycle_reps: np.ndarray  # dim x n_k


def z2_homology(X: SimplicialComplex, k: int) -> Z2Homology:
    """H_k(X; Z2) with representatives and a dual cocycle basis.

    Degree 1 is read off the integral presentation of `h1_dual_bases`;
    the other degrees reduce the dense boundary matrices over GF(2).
    Results are cached on the complex, which is treated as immutable.
    """
    cache = getattr(X, "_z2_homology_cache", None)
    if cache is None:
        cache = X._z2_homology_cache = {}
    if k in cache:
        return cache[k]
    if k == 1:
        cache[k] = h1_dual_bases(X)[2].z2
        return cache[k]
    nk = X.n_simplices(k)
    dk = X.boundary_matrix(k) % 2 if k >= 1 else np.zeros((0, nk), dtype=np.uint8)
    dk1 = X.boundary_matrix(k + 1) % 2

    def quotient_reps(cycles, boundaries):
        """Rows of `cycles` completing a basis of the span of `boundaries`:
        the first independent columns of [boundaries^T | cycles^T]."""
        _, pivots = gf2_echelon(np.vstack([boundaries, cycles]).T)
        nb = boundaries.shape[0]
        return cycles[[p - nb for p in pivots if p >= nb]]

    reps = quotient_reps(gf2_kernel(dk), dk1.T)
    # cocycles: kernel of delta_k = dk1^T; coboundaries spanned by rows of dk
    corereps = quotient_reps(gf2_kernel(dk1.T), dk)
    dim = reps.shape[0]
    if dim != corereps.shape[0]:
        raise ComplexError("Z2 homology/cohomology dimension mismatch")
    # renormalize cocycles so the pairing matrix is the identity
    P = (corereps @ reps.T) & 1
    R, pivots = gf2_echelon(np.hstack([P, np.eye(dim, dtype=np.uint8)]))
    if pivots != list(range(dim)):
        raise ComplexError("degenerate Z2 intersection pairing")
    cache[k] = Z2Homology(dim, reps, (R[:, dim:] @ corereps) & 1)
    return cache[k]
