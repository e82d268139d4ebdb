"""Simplicial homology over Z and Z2, with explicit representatives.

Everything integral is read off `linalg_z.smith_normal_form`, which also
returns the inverses of its transforms, and everything over Z2 off
`linalg_z.gf2_echelon`.  `h1_dual_bases` computes H_1 and H^1 once per
complex and caches them: integral cycle and cocycle bases of the free
parts, dual to each other, and the presentation that gives coordinates
and torsion.  The systole, Hodge and verify modules consume that cache;
`homology` reports Betti numbers and torsion and takes degree 1 from it.
`z2_homology` gives Z2 representatives with a dual cocycle basis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg_z import gf2_echelon, gf2_kernel, int_matmul, smith_normal_form
from .simplicial import ComplexError, SimplicialComplex

__all__ = [
    "homology",
    "HomologySummary",
    "QuotientPresentation",
    "integral_h1",
    "h1_dual_bases",
    "z2_homology",
    "Z2Homology",
]


class QuotientPresentation:
    """H = ker(A_out) / im(A_in) over Z, with representatives and coordinates.

    A_out: C -> C' (its kernel is the cycle space), A_in: C'' -> C (its
    image is divided out).  Both are lists of integer rows.  The Smith
    normal form of A_out gives the cycle basis K (columns r.. of V) and,
    in the rows of V^-1, both the test for a cycle (rows ..r vanish) and
    its coordinates in K (rows r..).  The Smith normal form of the
    boundaries in those coordinates gives the quotient: its U maps cycle
    coordinates to quotient coordinates and its U^-1 holds representatives.
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
        self.divisors = [int(d) for d in np.diagonal(S) if d]
        rank = len(self.divisors)
        self.free_rows = list(range(rank, self.K.shape[1]))
        self.tor_rows = [i for i in range(rank) if self.divisors[i] > 1]

    @property
    def free_rank(self) -> int:
        return len(self.free_rows)

    @property
    def torsion(self):
        return [self.divisors[i] for i in self.tor_rows]

    def free_basis(self):
        """Integer vectors in C representing a basis of the free part."""
        return int_matmul(self.K, self.Uinv[:, self.free_rows]).T.tolist()

    def coords(self, z):
        """(free coords, torsion coords) of a cycle z, or None if not a cycle."""
        y = int_matmul(self._Vi, z)
        if y[:self._r].any():
            return None
        w = int_matmul(self.U, y[self._r:]).tolist()
        free = tuple(w[i] for i in self.free_rows)
        tor = tuple(w[i] % self.divisors[i] for i in self.tor_rows)
        return free, tor


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


def _transpose(A):
    if not A:
        return []
    return [[A[i][j] for i in range(len(A))] for j in range(len(A[0]))]


def integral_h1(X: SimplicialComplex) -> QuotientPresentation:
    """H^1(X; Z) = ker(delta_1) / im(delta_0) with integral cocycle reps."""
    d1t = _transpose(X.boundary_matrix(2))  # delta_1 : C^1 -> C^2
    d0t = _transpose(X.boundary_matrix(1))  # delta_0 : C^0 -> C^1
    if not d1t:  # no 2-simplices: every 1-cochain is closed
        ne = X.n_simplices(1)
        d1t = [[0] * ne]
    return QuotientPresentation(d1t, d0t)


def h1_dual_bases(X: SimplicialComplex):
    """(cycles, cocycles, presentation of H_1) with <w_i, h_j> = delta_ij.

    cycles and cocycles are bases of the free parts of H_1 and H^1.  The
    pairing between them is unimodular, so the cocycle basis is
    renormalized integrally by the inverse pairing matrix, which is V @ U
    of its Smith normal form.  The result is cached on the complex (the
    complex is immutable) and is the package's only source of H_1 data.
    """
    cached = getattr(X, "_h1_dual_cache", None)
    if cached is not None:
        return cached
    h1 = QuotientPresentation(X.boundary_matrix(1), X.boundary_matrix(2))
    cycles = h1.free_basis()
    cocycles = integral_h1(X).free_basis()
    if len(cycles) != len(cocycles):
        raise ComplexError("H^1 and H_1 free ranks disagree")
    if cycles:
        P = int_matmul(cocycles, np.array(cycles, dtype=object).T)
        S, U, V, _, _ = smith_normal_form(P)
        if (np.diagonal(S) != 1).any():
            raise ComplexError("H^1 x H_1 pairing is not unimodular")
        cocycles = int_matmul(int_matmul(V, U), cocycles).tolist()
    X._h1_dual_cache = (cycles, cocycles, h1)
    return X._h1_dual_cache


# ---------------------------------------------------------------------------
# Z2


@dataclass
class Z2Homology:
    """H_k(X; Z2): dimension, cycle representatives, dual cocycle basis.

    coords(z) = pairing of a cycle with the cocycle basis; the bases are
    arranged so that coords(cycle_reps[i]) is the i-th unit vector.
    """

    dim: int
    cycle_reps: np.ndarray  # dim x n_k
    cocycle_reps: np.ndarray  # dim x n_k

    def coords(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=np.uint8) & 1
        if self.dim == 0:
            return np.zeros(0, dtype=np.uint8)
        return (self.cocycle_reps @ z) & 1

    def is_cycle_nontrivial(self, z) -> bool:
        return bool(self.coords(z).any())


def z2_homology(X: SimplicialComplex, k: int) -> Z2Homology:
    """H_k(X; Z2) with representatives and a dual cocycle basis.

    Results are cached on the complex, which is treated as immutable.
    """
    cache = getattr(X, "_z2_homology_cache", None)
    if cache is None:
        cache = X._z2_homology_cache = {}
    if k in cache:
        return cache[k]
    nk = X.n_simplices(k)
    dk = (np.array(X.boundary_matrix(k)) % 2 if k >= 1
          else np.zeros((0, nk), dtype=np.uint8))
    dk1 = np.array(X.boundary_matrix(k + 1)) % 2

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
