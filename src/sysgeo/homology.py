"""Simplicial homology over Z and Z2, with explicit representatives.

One engine presents every group: `_eliminate` expresses the cells of a
complex over a few generators by the unit pivots of the relation rows
and leaves a small relation matrix R, on which one Smith normal form
(`linalg_z.smith_normal_form`) runs; this is the reduction of
Kaczynski-Mrozek-Slusarek (1998).  `H1Presentation` contracts a BFS
spanning tree first and keeps the coordinates.  Over Z on the 2-skeleton
of X it gives `h1_dual_bases`, cached per complex: dual integral bases
of the free parts of H_1 and H^1 and an edge-coordinate matrix, which
the systole, Hodge and verify modules consume.  Over Z2 on the dual
2-complex of a closed pseudomanifold (tops, faces, links of the
(n-2)-simplices) its H^1 is H_{n-1}(X; Z2).  `z2_homology` reads degree
1 off the first (free and even-torsion rows mod 2) and degree n-1 off
the second, with cycles and cocycles swapped.  `homology` presents
C_k / im d_(k+1) in every degree k < n, over Z or mod 2, and reads Betti
numbers and torsion off the ranks and divisors; no dense boundary
matrix is built.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .linalg_z import int_matmul, smith_normal_form
from .simplicial import (
    ComplexError,
    SimplicialComplex,
    _memo,
    cofacet_table,
    edge_table,
    face_table,
)

__all__ = [
    "homology",
    "HomologySummary",
    "H1Presentation",
    "h1_dual_bases",
    "z2_homology",
    "Z2Homology",
]


class H1Presentation:
    """H_1 of a 2-complex over Z (modulus 0) or Z2 (modulus 2), from a
    contracted spanning tree and one small Smith form.

    The complex has nodes 0..N-1, edges i from tail[i] to head[i], and
    2-cells given as rows of (edge, coefficient +-1).  A BFS spanning
    forest is contracted: its edges map to 0.  Every other edge is unknown
    until a row with exactly one unknown edge expresses it, with its
    coefficient as pivot, in the edges already known; when no such row is
    left, the lowest-index unknown edge becomes a new generator.  Each
    edge thus gets an exact expression over g generators (mod 2 over Z2),
    and the rows that were not used as pivots, rewritten over the
    generators, form the relation matrix R (zero columns and repeats up to
    sign dropped).  This is the reduction of Kaczynski-Mrozek-Slusarek
    (1998): H_1 = Z^g / im R.

    With S = U R V the Smith normal form of R, `M = U @ Expr` (g x E) is
    the edge-coordinate matrix: column e holds the quotient coordinates of
    edge e, so a cycle's coordinates are M z, and labels read off its
    columns add up along any edge path.  Since Expr @ loop_k = e_k for the
    tree loop of generator k, M pairs the U^-1 combinations of the loops
    to the identity in every row.  Over Z the free rows of M are the
    integral `cocycles` and those combinations the `cycles` (both, and
    `coords`, mean nothing over Z2).  U and V stay invertible mod 2, so
    the free rows and the rows of even divisors, reduced mod 2, give dual
    bases of H^1 and H_1 with Z2 coefficients (`z2`), whichever modulus.
    """

    def __init__(self, n_nodes, tail, head, rows, modulus):
        self._nv, self._tail, self._head = n_nodes, tail, head
        parent = _bfs_forest(n_nodes, tail, head)
        expr = [None] * len(tail)  # edge -> {generator: coefficient}
        for p in parent:
            if p is not None:
                expr[p[0]] = {}
        gens, R = _eliminate(rows, expr, modulus)
        g = len(gens)
        Ex = np.zeros((g, len(tail)), dtype=object)
        for i, e in enumerate(expr):
            for k, c in e.items():
                Ex[k, i] = c
        S, U, Ui = smith_normal_form(R)
        # row i of U x is a torsion coordinate mod divisors[i] when that
        # divisor exceeds 1, vanishes for a unit divisor, and is free past
        # the rank of R
        self.divisors = [int(d) for d in np.diagonal(S) if d]
        self.free_rows = list(range(len(self.divisors), g))
        self.tor_rows = [i for i, d in enumerate(self.divisors) if d > 1]
        self.M = int_matmul(U, Ex)
        # tree loop of generator edge (a, b): the edge, then b -> root -> a
        loops = np.zeros((g, len(tail)), dtype=np.int64)
        for k, i in enumerate(gens):
            loops[k, i] = 1
            for v, sign in ((head[i], 1), (tail[i], -1)):
                while parent[v] is not None:
                    j, p = parent[v]
                    loops[k, j] += sign if tail[j] == v else -sign
                    v = p
        z2 = self.free_rows + [i for i in self.tor_rows if self.divisors[i] % 2 == 0]
        cycles = int_matmul(Ui[:, z2].T, loops)  # the free rows first
        self.cycles = cycles[:self.free_rank].tolist()
        self.cocycles = self.M[self.free_rows].tolist()
        self.z2 = Z2Homology(len(z2), (cycles % 2).astype(np.uint8),
                             (self.M[z2] % 2).astype(np.uint8))

    @property
    def free_rank(self) -> int:
        return len(self.free_rows)

    @property
    def torsion(self):
        return [self.divisors[i] for i in self.tor_rows]

    def coords(self, z):
        """(free coords, torsion coords) of a cycle z, or None if not a cycle."""
        z = np.array(z, dtype=object)
        bd = np.zeros(self._nv, dtype=object)
        np.add.at(bd, self._head, z)
        np.subtract.at(bd, self._tail, z)
        if bd.any():
            return None
        w = int_matmul(self.M, z).tolist()
        return (tuple(w[i] for i in self.free_rows),
                tuple(w[i] % self.divisors[i] for i in self.tor_rows))


def _dual_z2(X: SimplicialComplex):
    """H_{n-1}(X; Z2) as H^1 of the dual 2-complex (tops, faces joining
    their cofacets, faces around each (n-2)-simplex): its cocycles are the
    face sets even around every (n-2)-simplex, i.e. the (n-1)-cycles."""
    n = X.dim
    cof = cofacet_table(X)
    ft = face_table(X, n - 1).ravel()
    order = (np.argsort(ft, kind="stable") // n).tolist()
    ends = np.cumsum(np.bincount(ft, minlength=X.n_simplices(n - 2))).tolist()
    rows = [[(f, 1) for f in order[a:b]] for a, b in zip([0] + ends, ends)]
    h = H1Presentation(X.n_simplices(n), cof[:, 0].tolist(), cof[:, 1].tolist(),
                       rows, 2).z2
    return Z2Homology(h.dim, h.cocycle_reps, h.cycle_reps)


def _bfs_forest(n_nodes, tail, head):
    """Per node, (tree edge to its parent, parent) in a BFS forest of the
    graph with edges tail[i] - head[i], or None at a root; neighbours are
    taken in edge order."""
    adj = [[] for _ in range(n_nodes)]
    for i, (u, v) in enumerate(zip(tail, head)):
        adj[u].append((v, i))
        adj[v].append((u, i))
    parent = [None] * n_nodes
    seen = [False] * n_nodes
    for root in range(n_nodes):
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


def _eliminate(rows, expr, modulus):
    """Express every unknown edge (expr[i] is None) over generators.

    rows are the relations, each a sequence of (edge, coefficient +-1).
    Fills expr in place and returns (generator edges, R): the columns of
    the integer matrix R (generators x relations) are the rows that were
    not pivots, rewritten over the generators, without zero columns and
    repeats up to sign.  The group presented is Z^g / im R.  A nonzero
    modulus reduces every coefficient by it.
    """
    row_of = [[] for _ in expr]
    for t, row in enumerate(rows):
        for i, _ in row:
            row_of[i].append(t)
    unknown = [sum(expr[i] is None for i, _ in row) for row in rows]
    queue = deque(t for t, k in enumerate(unknown) if k == 1)
    pivot = [False] * len(rows)
    gens = []

    def settle(i):
        for t in row_of[i]:
            unknown[t] -= 1
            if unknown[t] == 1:
                queue.append(t)

    nxt = 0
    while True:
        while queue:
            t = queue.popleft()
            if unknown[t] != 1:  # its last unknown edge was settled
                continue
            (i, s), = [(i, s) for i, s in rows[t] if expr[i] is None]
            expr[i] = _combine([(k, -s * sk) for k, sk in rows[t] if k != i],
                               expr, modulus)
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
    for t, row in enumerate(rows):
        r = {} if pivot[t] else _combine(row, expr, modulus)
        if r:
            sign = 1 if r[min(r)] > 0 else -1
            relations.setdefault(tuple(sorted((k, sign * c) for k, c in r.items())))
    R = np.zeros((len(gens), len(relations)), dtype=object)
    for j, col in enumerate(relations):
        for k, c in col:
            R[k, j] = c
    return gens, R


def _combine(terms, expr, modulus):
    """sum of c * expr[i] over the (i, c) in terms, as {generator: coeff},
    reduced by a nonzero modulus."""
    out = {}
    for i, c in terms:
        for k, a in expr[i].items():
            out[k] = out.get(k, 0) + c * a
    if modulus:
        out = {k: a % modulus for k, a in out.items()}
    return {k: a for k, a in out.items() if a}


@dataclass
class HomologySummary:
    ring: str
    betti: list
    torsion: list  # per degree, list of elementary divisors > 1 (empty for Z2)


def homology(X: SimplicialComplex, ring: str = "Z") -> HomologySummary:
    """Betti numbers and torsion coefficients in every degree.

    For k < n, `_eliminate` presents C_k / im d_(k+1) as Z^g / im R from
    the boundary rows of the (k+1)-simplices (mod 2 over Z2).  C_(k-1) is
    free, so the torsion of that group is the torsion of H_k, and one
    Smith form of R gives rank d_(k+1) = n_k - g + rank R.  Then
    b_k = n_k - rank d_k - rank d_(k+1).  Over Z2, rank R is the number
    of odd divisors, since U and V stay invertible mod 2.
    """
    if ring not in ("Z", "Z2"):
        raise ComplexError(f"unsupported coefficient ring {ring!r}")
    modulus = 0 if ring == "Z" else 2
    n = X.dim
    rank, torsion = [0], []  # rank[k] = rank d_k
    for k in range(n):
        signs = [(-1) ** (k + 1 - c) for c in range(k + 2)]
        rows = [list(zip(f, signs)) for f in face_table(X, k + 1).tolist()]
        gens, R = _eliminate(rows, [None] * X.n_simplices(k), modulus)
        # a generator in no relation is free: it stays out of the Smith form
        S = smith_normal_form(R[(R != 0).any(axis=1)])[0]
        d = [int(x) for x in np.diagonal(S) if x]
        rank.append(X.n_simplices(k) - len(gens) + sum(not modulus or x % 2 for x in d))
        torsion.append([] if modulus else [x for x in d if x > 1])
    rank.append(0)
    return HomologySummary(ring=ring,
                           betti=[X.n_simplices(k) - rank[k] - rank[k + 1]
                                  for k in range(n + 1)],
                           torsion=torsion + [[]])  # H_n is a subgroup of C_n


def h1_dual_bases(X: SimplicialComplex):
    """(cycles, cocycles, presentation of H_1) with <w_i, h_j> = delta_ij.

    cycles and cocycles are integral bases of the free parts of H_1 and
    H^1, and the presentation (an `H1Presentation`) gives coordinates,
    torsion and the edge-coordinate matrix.  The result is cached on the
    complex (the complex is immutable) and is the package's only source
    of H_1 data.
    """
    return _memo(X, "h1_dual_bases", _h1_dual_bases)


def _h1_dual_bases(X: SimplicialComplex):
    """`h1_dual_bases`, uncached."""
    # boundary of (a, b, c) = (b, c) - (a, c) + (a, b)
    rows = [((ab, 1), (ac, -1), (bc, 1)) for ab, ac, bc in edge_table(X, 2).tolist()]
    h1 = H1Presentation(X.n_vertices, [u for u, _ in X.edges],
                        [v for _, v in X.edges], rows, 0)
    return h1.cycles, h1.cocycles, h1


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
    """H_k(X; Z2), k = 1 or n-1 (n >= 3), with representatives and a dual
    cocycle basis: degree 1 from `h1_dual_bases`, degree n-1 from the dual
    2-complex of a closed pseudomanifold.  Cached on the complex."""
    n = X.dim
    if k == 1:
        return h1_dual_bases(X)[2].z2
    if k == n - 1 and n >= 3:
        return _memo(X, "dual_z2", _dual_z2)
    raise ComplexError(f"Z2 homology is computed in degree 1 and, for "
                       f"n >= 3, degree n-1; got degree {k} with n = {n}")
