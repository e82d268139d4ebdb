"""Euclidean lattices: shortest vectors, duals, and dual-critical search.

There is one LLL reduction, in Gram form (`_lll_gram`): it works on the
Gram matrix itself and returns the unimodular transform, so a lattice
given by a basis B is reduced through B B^T and the transform applied to
B.  Shortest vectors are certified: a Fincke-Pohst enumeration of the
reduced Gram runs with radius equal to its shortest basis vector, so the
returned minimum is exact, not heuristic.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LatticeBasis",
    "LatticeError",
    "dual_lattice",
    "lambda1",
    "shortest_vector",
    "lambda1_gram",
    "berge_martinet_product",
    "hermite_invariant",
    "dual_critical_search",
    "GAMMA_PRIME",
    "read_lattice",
    "format_lattice",
]


class LatticeError(ValueError):
    pass


# Known Berge-Martinet constants, ranks 1..4.
GAMMA_PRIME = {
    1: 1.0,
    2: 2.0 / math.sqrt(3.0),
    3: math.sqrt(1.5),
    4: math.sqrt(2.0),
}


@dataclass(frozen=True)
class LatticeBasis:
    """Full-rank lattice in R^b given by b basis row vectors."""

    basis: np.ndarray

    def __post_init__(self):
        B = np.atleast_2d(np.asarray(self.basis, dtype=float))
        object.__setattr__(self, "basis", B)
        if B.shape[0] != B.shape[1]:
            raise LatticeError("basis must be square (full-rank lattice)")
        if not np.isfinite(B).all():
            raise LatticeError("basis has a non-finite entry (nan or inf)")
        scale = max(np.abs(B).max(), 1e-300)
        if abs(np.linalg.det(B)) <= 1e-12 * scale ** B.shape[0]:
            raise LatticeError("basis is singular or nearly singular")

    @property
    def rank(self) -> int:
        return self.basis.shape[0]

    def det(self) -> float:
        return abs(np.linalg.det(self.basis))

    def scaled(self, c: float) -> "LatticeBasis":
        return LatticeBasis(c * self.basis)


def dual_lattice(L: LatticeBasis) -> LatticeBasis:
    """Dual basis D with D @ B.T = I (vectors pairing integrally with L)."""
    return LatticeBasis(np.linalg.inv(L.basis).T)


# ---------------------------------------------------------------------------
# Reduction and enumeration


def lll_reduce(B: np.ndarray) -> np.ndarray:
    """LLL reduction (Lovasz delta 0.99) of the rows of B: U B, with U from
    the Gram-form reduction of B B^T (`_lll_gram`).  Raises LatticeError
    unless the rows of B are finite and linearly independent."""
    B = np.asarray(B, dtype=float)
    return np.array(_lll_gram(_gram_checked(B @ B.T))[1], dtype=float) @ B


def _ldl(G: list) -> tuple[list, list]:
    """(mu, d) with G = mu diag(d) mu^T, mu unit lower triangular: the
    Gram-Schmidt coefficients and squared Gram-Schmidt lengths of the
    basis whose Gram is G (a list of rows).  LatticeError unless every
    d > 0."""
    b = len(G)
    mu = [[0.0] * b for _ in range(b)]
    d = [0.0] * b
    for i in range(b):
        mi = mu[i]
        for j in range(i):
            mj = mu[j]
            mi[j] = (G[i][j] - sum(mi[l] * mj[l] * d[l] for l in range(j))) / d[j]
        d[i] = G[i][i] - sum(mi[l] * mi[l] * d[l] for l in range(i))
        if not d[i] > 0.0:
            raise LatticeError("Gram matrix is not positive definite")
        mi[i] = 1.0
    return mu, d


def _enumerate_min_sq(G: list, r2: float) -> tuple[float, np.ndarray]:
    """Exact minimum of x^T G x over nonzero integer x with x^T G x <= r2.

    Fincke-Pohst style depth-first enumeration on G = mu diag(d) mu^T
    (`_ldl`; G is a list of rows), where x^T G x is the sum over k of
    d_k (x_k - c_k)^2 with c_k = -sum_{j > k} mu_jk x_j.  The radius r2
    must be attainable (some nonzero x achieves <= r2); returns (minimum,
    argmin coefficients).
    """
    n = len(G)
    mu, d = _ldl(G)
    best = r2
    best_x = None
    x = [0] * n

    def dfs(k, partial):  # partial = squared contribution of levels > k
        nonlocal best, best_x
        if partial >= best - 1e-14 and best_x is not None:
            return
        c = -sum(mu[j][k] * x[j] for j in range(k + 1, n))
        radius = math.sqrt(max(best - partial, 0.0) / d[k])
        lo = math.ceil(c - radius - 1e-12)
        hi = math.floor(c + radius + 1e-12)
        for v in range(lo, hi + 1):
            x[k] = v
            contrib = d[k] * (v - c) ** 2
            if k == 0:
                if any(x):
                    tot = partial + contrib
                    if tot < best or best_x is None and tot <= best:
                        best = tot
                        best_x = list(x)
            else:
                dfs(k - 1, partial + contrib)
        x[k] = 0

    dfs(n - 1, 0.0)
    return best, np.array(best_x, dtype=np.int64)


def shortest_vector(L: LatticeBasis) -> tuple[np.ndarray, float]:
    """A shortest nonzero lattice vector and its length (certified)."""
    lam, x = lambda1_gram_vector(L.basis @ L.basis.T)
    return x @ L.basis, lam


def lambda1(L: LatticeBasis) -> float:
    """Least length of a nonzero vector of L (exact search)."""
    return shortest_vector(L)[1]


def _gram_checked(G) -> list:
    """G as a list of rows, symmetrised; LatticeError naming the fault
    unless G is a square, finite, symmetric (up to roundoff) and
    positive-definite matrix that is not nearly singular."""
    G = np.asarray(G, dtype=float)
    if G.ndim != 2 or G.shape[0] != G.shape[1] or not G.size:
        raise LatticeError("Gram matrix must be square")
    if not np.isfinite(G).all():
        raise LatticeError("Gram matrix has a non-finite entry (nan or inf)")
    rows, b = G.tolist(), len(G)
    scale = max(abs(v) for row in rows for v in row)
    if any(abs(rows[i][j] - rows[j][i]) > 1e-9 * scale for i in range(b) for j in range(i)):
        raise LatticeError("Gram matrix is not symmetric")
    G = [[0.5 * (rows[i][j] + rows[j][i]) for j in range(b)] for i in range(b)]
    if math.prod(_ldl(G)[1]) <= 1e-24 * scale ** b:
        raise LatticeError("Gram matrix is singular or nearly singular")
    return G


def _lll_gram(G: list) -> tuple[list, list]:
    """(G', U): LLL reduction (Lovasz delta 0.99) of the basis with Gram G
    (a list of rows), run on G itself.

    Each size reduction and swap of basis vectors is applied to the rows
    and columns of G and to the rows of the unimodular integer matrix U,
    so G' = U G U^T is the Gram of the reduced basis, whose vectors have
    the rows of U as coefficients in the given basis.
    """
    G = [row[:] for row in G]
    b = len(G)
    U = [[int(i == j) for j in range(b)] for i in range(b)]
    mu, d = _ldl(G)
    k = 1
    iters = 0
    while k < b:
        iters += 1
        if iters > 10000 * b * b:  # defensive: floating point stall
            break
        for j in range(k - 1, -1, -1):
            q = round(mu[k][j])
            if q:
                Gk, Gj = G[k], G[j]
                for i in range(b):
                    Gk[i] -= q * Gj[i]
                for row in G:
                    row[k] -= q * row[j]
                U[k] = [u - q * w for u, w in zip(U[k], U[j])]
                for i in range(j + 1):
                    mu[k][i] -= q * mu[j][i]
        if d[k] >= (0.99 - mu[k][k - 1] ** 2) * d[k - 1]:
            k += 1
        else:
            G[k - 1], G[k] = G[k], G[k - 1]
            for row in G:
                row[k - 1], row[k] = row[k], row[k - 1]
            U[k - 1], U[k] = U[k], U[k - 1]
            mu, d = _ldl(G)
            k = max(k - 1, 1)
    return G, U


def lambda1_gram_vector(G: np.ndarray) -> tuple[float, np.ndarray]:
    """(lambda1, integer coefficients) of a shortest vector for Gram G.

    G is LLL-reduced in Gram form (`_lll_gram`) and enumerated with the
    radius of its shortest reduced basis vector; the coefficients of the
    minimum in the reduced basis, times U, are those in the given basis.
    Raises LatticeError unless G is a finite, symmetric, positive-definite
    matrix.
    """
    Gr, U = _lll_gram(_gram_checked(G))
    r2 = min(Gr[i][i] for i in range(len(Gr)))
    best, x = _enumerate_min_sq(Gr, r2 * (1 + 1e-12))
    return math.sqrt(best), x @ np.array(U, dtype=np.int64)


def lambda1_gram(G: np.ndarray) -> float:
    """lambda1 of the lattice with Gram matrix G (symmetric positive definite)."""
    return lambda1_gram_vector(G)[0]


def berge_martinet_product(L: LatticeBasis) -> float:
    """lambda1(L) * lambda1(L*); scale invariant."""
    return lambda1(L) * lambda1(dual_lattice(L))


def hermite_invariant(L: LatticeBasis) -> float:
    """lambda1(L)^2 / det(L)^(2/b); scale invariant."""
    b = L.rank
    return lambda1(L) ** 2 / L.det() ** (2.0 / b)


# ---------------------------------------------------------------------------
# Dual-critical search


def _coeff_shell(b: int, box: int) -> np.ndarray:
    """Nonzero integer coefficient vectors in [-box, box]^b, one per +/- pair."""
    pts = []
    for c in itertools.product(range(-box, box + 1), repeat=b):
        if not any(c):
            continue
        # keep one representative of {c, -c}
        for v in c:
            if v > 0:
                pts.append(c)
                break
            if v < 0:
                break
    return np.array(pts, dtype=float)


def _fast_min_sq(G: np.ndarray, shell: np.ndarray) -> float:
    """min x^T G x over the precomputed coefficient shell (vectorized)."""
    return float(np.min(np.einsum("ij,jk,ik->i", shell, G, shell)))


def dual_critical_search(
    b: int, budget: int, seed: int
) -> tuple[LatticeBasis, float]:
    """Local search maximizing lambda1(L) * lambda1(L*) over det-1 lattices.

    Random symmetric perturbations of the Cholesky factor, accepted when
    they improve the product, with a restart schedule derived from the
    seed.  Deterministic given (b, budget, seed).  The returned value is
    recomputed with the certified enumeration.
    """
    if not 1 <= b <= 8:
        raise LatticeError("rank must be between 1 and 8")
    if b == 1:
        return LatticeBasis(np.array([[1.0]])), 1.0

    rng = np.random.default_rng(seed)
    shell = _coeff_shell(b, 2)

    def product_fast(B):
        # B must be LLL-reduced; the shell then contains a shortest vector
        G = B @ B.T
        try:
            Gi = np.linalg.inv(G)
        except np.linalg.LinAlgError:
            return -1.0
        a = _fast_min_sq(G, shell)
        d = _fast_min_sq(Gi, shell)
        if a <= 0.0 or d <= 0.0:  # ill-conditioned iterate
            return -1.0
        return math.sqrt(a * d)

    def normalize(B):
        # LLL-reduced at determinant 1, or None if B is (nearly) singular
        try:
            B = lll_reduce(B)
        except LatticeError:
            return None
        d = abs(np.linalg.det(B))
        if d < 1e-12:
            return None
        return B / d ** (1.0 / b)

    n_restarts = max(1, budget // 25000)
    per = budget // n_restarts
    best_B = np.eye(b)
    best_val = -1.0
    for _ in range(n_restarts):
        B = normalize(np.eye(b) + 0.1 * rng.standard_normal((b, b)))
        if B is None:
            B = np.eye(b)
        val = product_fast(B)
        step = 0.2
        since_accept = 0
        for _ in range(per):
            cand = normalize(B + step * rng.standard_normal((b, b)))
            if cand is None:
                continue
            v = product_fast(cand)
            if v > val:
                B, val = cand, v
                since_accept = 0
            else:
                since_accept += 1
                if since_accept > 200:
                    step = max(step * 0.5, 1e-4)
                    since_accept = 0
        if val > best_val:
            best_val = val
            best_B = B
    L = LatticeBasis(best_B)
    return L, berge_martinet_product(L)


# ---------------------------------------------------------------------------
# IO


def _fields(ln: str, tok: list, typ, count: int) -> list:
    """The tokens tok of statement ln, each through typ; LatticeError
    naming ln unless there are count of them and each converts."""
    try:
        if len(tok) != count:
            raise ValueError
        return [typ(t) for t in tok]
    except ValueError:
        raise LatticeError(f"malformed statement {ln!r}") from None


def read_lattice(text: str) -> LatticeBasis:
    """Parse the plain-text lattice format: 'lattice b' then b rows.

    A malformed header or row, or a missing or extra row, raises
    LatticeError naming the statement.
    """
    lines = [ln for ln in map(str.strip, text.splitlines()) if ln and not ln.startswith("#")]
    if not lines or lines[0].split()[0] != "lattice":
        raise LatticeError("expected header 'lattice b'")
    b, = _fields(lines[0], lines[0].split()[1:], int, 1)
    if b < 1:
        raise LatticeError(f"malformed statement {lines[0]!r}")
    if len(lines) < 1 + b:
        raise LatticeError(f"{lines[0]!r} needs {b} basis rows")
    if len(lines) > 1 + b:
        raise LatticeError(f"extra statement {lines[1 + b]!r}")
    return LatticeBasis(np.array([_fields(ln, ln.split(), float, b) for ln in lines[1:]]))


def format_lattice(L: LatticeBasis) -> str:
    out = [f"lattice {L.rank}"]
    for row in L.basis:
        out.append(" ".join(f"{v:.17g}" for v in row))
    return "\n".join(out) + "\n"
