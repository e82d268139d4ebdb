"""Reference mesh generators: flat tori, the projective plane, circles.

Flat tori are triangulated so that a reduced basis vector of the defining
lattice is realized by a straight edge path; the discrete shortest-path
and stable-norm invariants then coincide with the lattice minima.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .lattice import LatticeBasis, lll_reduce
from .simplicial import ComplexError, PLMetric, SimplicialComplex

__all__ = [
    "gen_flat_torus",
    "gen_rp2",
    "gen_circle",
    "perturb_metric",
    "RP2_TRIANGLES",
]


def _greedy_reduce(B: np.ndarray) -> np.ndarray:
    """Pairwise greedy reduction after LLL; Minkowski-reduced for rank <= 3."""
    M = lll_reduce(B)
    b = M.shape[0]
    changed = True
    while changed:
        changed = False
        order = np.argsort([v @ v for v in M])
        M = M[order]
        for i in range(b):
            for j in range(b):
                if i == j:
                    continue
                k = round(float(M[i] @ M[j]) / float(M[j] @ M[j]))
                if k != 0:
                    cand = M[i] - k * M[j]
                    if cand @ cand < M[i] @ M[i] - 1e-12:
                        M[i] = cand
                        changed = True
    return M[np.argsort([v @ v for v in M])]


def gen_flat_torus(basis, subdivisions: int = 3):
    """Triangulated flat torus R^b / L for b in {2, 3}.

    The fundamental domain of a greedy-reduced basis is cut into an
    s^b grid of parallelepiped cells, each split into b! simplices along
    coordinate-order staircases, so every reduced basis direction is a
    straight edge path of the mesh.  A basis that is not square, not
    finite or nearly singular raises LatticeError naming the fault.
    """
    B = LatticeBasis(basis).basis
    b = B.shape[0]
    if b not in (2, 3):
        raise ComplexError(f"flat torus generator supports rank 2 and 3, not {b}")
    s = int(subdivisions)
    if s < 3:
        raise ComplexError("need at least 3 subdivisions for a simplicial quotient")
    B = _greedy_reduce(B)

    def vid(idx):
        out = 0
        for c in idx:
            out = out * s + (c % s)
        return out

    simplices = []
    basis_steps = list(np.eye(b, dtype=int))
    for cell in itertools.product(range(s), repeat=b):
        for perm in itertools.permutations(range(b)):
            verts = [np.array(cell)]
            for axis in perm:
                verts.append(verts[-1] + basis_steps[axis])
            simplices.append(tuple(vid(v) for v in verts))
    X = SimplicialComplex(s**b, simplices)

    def coords(v):
        idx = []
        for _ in range(b):
            idx.append(v % s)
            v //= s
        return np.array(idx[::-1], dtype=float)

    lengths = {}
    for (u, v) in X.edges:
        d = coords(v) - coords(u)
        d -= s * np.round(d / s)  # minimal wrap; |d_i| <= 1 for s >= 3
        lengths[(u, v)] = float(np.linalg.norm((d / s) @ B))
    return X, PLMetric(lengths), B


# 6-vertex triangulation of the real projective plane (icosahedron antipodal
# quotient): 10 triangles, every vertex of degree 5.
RP2_TRIANGLES = (
    (0, 1, 2), (0, 1, 3), (0, 2, 4), (0, 3, 5), (0, 4, 5),
    (1, 2, 5), (1, 3, 4), (1, 4, 5), (2, 3, 4), (2, 3, 5),
)


def gen_rp2(scale: float = 1.0):
    """Equilateral 6-vertex projective plane with unit area at scale 1.

    All 15 edges share one length, chosen so the 10 equilateral triangles
    have total area scale^2.
    """
    if scale <= 0:
        raise ComplexError("scale must be positive")
    X = SimplicialComplex(6, RP2_TRIANGLES)
    edge = scale * math.sqrt(4.0 / (10.0 * math.sqrt(3.0)))
    return X, PLMetric({e: edge for e in X.edges})


def gen_circle(k: int = 12, circumference: float = 1.0):
    """Cycle graph with k edges of equal length summing to the circumference."""
    if k < 3:
        raise ComplexError("need at least 3 edges for a simplicial circle")
    X = SimplicialComplex(k, [(i, (i + 1) % k) for i in range(k)])
    return X, PLMetric({e: circumference / k for e in X.edges})


def perturb_metric(g: PLMetric, amplitude: float, seed: int = 0) -> PLMetric:
    """Multiply each edge length by an independent factor in [1-a, 1+a]."""
    if not 0 <= amplitude < 1:
        raise ComplexError("amplitude must lie in [0, 1)")
    rng = np.random.default_rng(seed)
    return PLMetric({
        e: l * (1.0 + amplitude * (2.0 * rng.random() - 1.0))
        for e, l in g.items()
    })
