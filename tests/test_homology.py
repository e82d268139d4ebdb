import importlib
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.sparse import csgraph

import sysgeo
import sysgeo.linalg_z as linalg_z
from sysgeo.generators import gen_circle, gen_rp2
from sysgeo.homology import h1_dual_bases, homology, z2_homology
from sysgeo.linalg_z import int_matmul
from sysgeo.simplicial import (
    ComplexError,
    SimplicialComplex,
    cofacet_table,
    product_complex,
)
from sysgeo.systole import sysh1

from reference import boundary_matrix, smith_normal_form


# ---------------------------------------------------------------------------
# Integer linear algebra


def _same_entries(got, ref):
    """Equal shapes and equal integers in every entry, whatever the dtypes."""
    return all(g.shape == r.shape and (g.astype(object) == r.astype(object)).all()
               for g, r in zip(got, ref, strict=True))


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 10), st.integers(1, 10))
@settings(max_examples=60, deadline=None)
def test_snf_fuzz(seed, m, n):
    rng = np.random.default_rng(seed)
    A = rng.integers(-9, 10, size=(m, n)).tolist()
    S, U, V, Ui, Vi = smith_normal_form(A)
    # the package's one-sided form is the reference's S, U and U^-1
    assert _same_entries(linalg_z.smith_normal_form(A), (S, U, Ui))
    Sn, Un, Vn, Uin, Vin = (np.array(M, dtype=object) for M in (S, U, V, Ui, Vi))
    An = np.array(A, dtype=object)
    assert (Un @ An @ Vn == Sn).all()
    assert (Un @ Uin == np.eye(m, dtype=int)).all()
    assert (Vn @ Vin == np.eye(n, dtype=int)).all()
    d = [S[i][i] for i in range(min(m, n))]
    for i in range(len(d) - 1):
        if d[i + 1]:
            assert d[i] != 0 and d[i + 1] % d[i] == 0
    # off-diagonal must vanish
    for i in range(m):
        for j in range(n):
            if i != j:
                assert S[i][j] == 0


def test_snf_large_entries_exact():
    A = [[10 ** 12, 1], [1, 10 ** 12]]
    S, U, V, Ui, _ = smith_normal_form(A)
    assert (int_matmul(int_matmul(U, A), V) == S).all()  # past int64
    assert _same_entries(linalg_z.smith_normal_form(A), (S, U, Ui))
    d = np.diagonal(S)
    assert d[0] == 1 and d[1] == 10 ** 24 - 1


def _run_json(code, timeout, *args):
    """The JSON that a fresh interpreter running code prints; a run over
    timeout seconds fails."""
    src = str(pathlib.Path(sysgeo.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                         text=True, timeout=timeout, check=True, env=env)
    return json.loads(out.stdout)


SNF_GROWTH_CASE = [[7, -8, -9, 5, -6, -6, 3], [-8, 5, -6, 2, 2, -6, -2],
                   [-7, 9, 0, -7, 6, 5, -5], [-3, -8, 1, 1, -8, -6, -1],
                   [-8, 5, 5, 4, 6, 6, -2], [-1, -4, -6, -4, 4, -3, 9],
                   [1, 3, 1, 6, -3, 2, 3]]


def test_snf_no_coefficient_growth():
    """A 7x7 matrix (det 6493962) that outgrows int64 during elimination
    must still finish quickly; run in a subprocess so a hang fails."""
    code = ("import json, sys; import numpy as np; "
            "from sysgeo.linalg_z import smith_normal_form; "
            "S = smith_normal_form(json.loads(sys.argv[1]))[0]; "
            "print(json.dumps(np.diagonal(S).tolist()))")
    assert _run_json(code, 30, json.dumps(SNF_GROWTH_CASE)) == [1] * 6 + [6493962]


class QuotientPresentation:
    """H = ker(A_out) / im(A_in) over Z, with representatives and coordinates.

    A_out: C -> C' (its kernel is the cycle space), A_in: C'' -> C (its
    image is divided out).  Both are lists of integer rows.  The Smith
    normal form of A_out gives the cycle basis K (columns r.. of V) and,
    in the rows of V^-1, both the test for a cycle (rows ..r vanish) and
    its coordinates in K (rows r..).  The Smith normal form of the
    boundaries in those coordinates gives the quotient: its U maps cycle
    coordinates to quotient coordinates and its U^-1 holds representatives.
    Row i of U x is a torsion coordinate mod divisors[i] when that divisor
    exceeds 1, vanishes on every x for a unit divisor, and is a free
    coordinate past the rank.  The dense reference for `homology` and
    `h1_dual_bases`: two Smith forms of full boundary matrices.
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
        return (tuple(w[i] for i in self.free_rows),
                tuple(w[i] % self.divisors[i] for i in self.tor_rows))


def test_quotient_coords_round_trip(grid_t2):
    X, _ = grid_t2
    pres = QuotientPresentation(boundary_matrix(X, 1), boundary_matrix(X, 2))
    basis = np.array(pres.free_basis())
    rng = np.random.default_rng(9)
    for _ in range(5):
        x = rng.integers(-3, 4, size=len(basis))
        free, tor = pres.coords((x @ basis).tolist())
        assert free == tuple(x) and tor == ()
    z = basis[0].copy()
    z[0] += 1  # one edge more: its boundary is no longer zero
    assert pres.coords(z.tolist()) is None


def _dense_gf2_echelon(M):
    """Reduced row echelon form over GF(2) as (R, pivots), on unpacked
    uint8 rows one column at a time: the tests' GF(2) reference."""
    R = (np.asarray(M) % 2).astype(np.uint8)
    m, n = R.shape
    pivots = []
    for c in range(n):
        r = len(pivots)
        if r == m:
            break
        nz = np.flatnonzero(R[r:, c])
        if not nz.size:
            continue
        p = r + int(nz[0])
        R[[r, p]] = R[[p, r]]
        rows = np.flatnonzero(R[:, c])
        R[rows[rows != r]] ^= R[r]
        pivots.append(c)
    return R, pivots


# ---------------------------------------------------------------------------
# Homology of reference spaces


def test_torus2_betti(grid_t2):
    X, _ = grid_t2
    h = homology(X, "Z")
    assert h.betti == [1, 2, 1]
    assert all(not t for t in h.torsion)


def test_torus3_betti(grid_t3):
    X, _ = grid_t3
    h = homology(X, "Z")
    assert h.betti == [1, 3, 3, 1]


def test_rp2_integral_homology(rp2_unit_area):
    X, _ = rp2_unit_area
    h = homology(X, "Z")
    assert h.betti == [1, 0, 0]
    assert h.torsion[1] == [2]  # Z/2 in degree 1


def test_rp2_z2_homology(rp2_unit_area):
    X, _ = rp2_unit_area
    h = homology(X, "Z2")
    assert h.betti == [1, 1, 1]


def test_sphere_s3(sphere_s3):
    X, _ = sphere_s3
    h = homology(X, "Z")
    assert h.betti == [1, 0, 0, 1]
    assert z2_homology(X, 2).dim == 0


def test_h1_dual_bases_pairing(grid_t3):
    X, _ = grid_t3
    cycles, cocycles, _ = h1_dual_bases(X)
    P = np.array([[int(np.dot(c, w)) for c in cycles] for w in cocycles])
    assert (P == np.eye(len(cycles), dtype=int)).all()


def test_h1_dual_bases_cocycles_closed(grid_t3):
    X, _ = grid_t3
    _, cocycles, _ = h1_dual_bases(X)
    d2 = np.array(boundary_matrix(X, 2))
    for w in cocycles:
        assert not (np.array(w) @ d2).any()


def test_integral_h1_coords_linear(grid_t2):
    X, _ = grid_t2
    cycles, _, pres = h1_dual_bases(X)
    (a, _), (b, _) = pres.coords(cycles[0]), pres.coords(cycles[1])
    s, _ = pres.coords((np.array(cycles[0]) + np.array(cycles[1])).tolist())
    assert tuple(np.array(a) + np.array(b)) == s


def test_z2_homology_reps_are_cycles(grid_t3):
    X, _ = grid_t3
    h = z2_homology(X, 2)
    assert h.dim == 3
    d2 = (np.array(boundary_matrix(X, 2)) % 2).astype(np.uint8)
    for rep in h.cycle_reps:
        assert not ((d2 @ rep) & 1).any()


def test_z2_homology_cached(grid_t3):
    X, _ = grid_t3
    assert z2_homology(X, 2) is z2_homology(X, 2)


def test_z2_pairing_identity(grid_t3):
    X, _ = grid_t3
    h = z2_homology(X, 2)
    P = (h.cocycle_reps @ h.cycle_reps.T) & 1
    assert (P == np.eye(h.dim, dtype=np.uint8)).all()


def _gf2_kernel(M):
    """Basis of the null space of M over GF(2), as rows."""
    R, pivots = _dense_gf2_echelon(M)
    n = R.shape[1]
    free = sorted(set(range(n)) - set(pivots))
    basis = np.zeros((len(free), n), dtype=np.uint8)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = R[:len(pivots), free].T
    return basis


def _dense_z2(X, k):
    """Dimension, cycle and dual cocycle bases of H_k(X; Z2) by the dense
    GF(2) reduction of both boundary matrices: the reference for the
    bases read off the tree presentations."""
    dk, dk1 = boundary_matrix(X, k) % 2, boundary_matrix(X, k + 1) % 2

    def quotient_reps(cycles, boundaries):
        _, pivots = _dense_gf2_echelon(np.vstack([boundaries, cycles]).T)
        nb = boundaries.shape[0]
        return cycles[[p - nb for p in pivots if p >= nb]]

    reps = quotient_reps(_gf2_kernel(dk), dk1.T)
    corereps = quotient_reps(_gf2_kernel(dk1.T), dk)
    dim = reps.shape[0]
    assert corereps.shape[0] == dim
    P = (corereps @ reps.T) & 1
    R, pivots = _dense_gf2_echelon(np.hstack([P, np.eye(dim, dtype=np.uint8)]))
    assert pivots == list(range(dim))
    return dim, reps, (R[:, dim:] @ corereps) & 1


def _check_against_dense(X, k, dim):
    """`z2_homology(X, k)` and the dense reduction are dual bases of the
    same H_k(X; Z2) and H^k(X; Z2), of dimension dim."""
    h = z2_homology(X, k)
    ref_dim, ref_cycles, ref_cocycles = _dense_z2(X, k)
    assert h.dim == ref_dim == dim
    cycles, cocycles = h.cycle_reps.astype(np.int64), h.cocycle_reps.astype(np.int64)
    dk, dk1 = boundary_matrix(X, k) % 2, boundary_matrix(X, k + 1) % 2
    assert cycles.shape == cocycles.shape == (dim, X.n_simplices(k))
    assert not (cycles @ dk.T % 2).any()  # cycles
    assert not (cocycles @ dk1 % 2).any()  # cocycles: zero on every boundary
    assert ((cocycles @ cycles.T) % 2 == np.eye(dim, dtype=int)).all()

    def rank(*rows):
        return len(_dense_gf2_echelon(np.vstack(rows))[1])

    # same span modulo boundaries (columns of dk1) and coboundaries (rows of dk)
    for B, new, ref in ((dk1.T, cycles, ref_cycles), (dk, cocycles, ref_cocycles)):
        assert rank(B, new) == rank(B, ref) == rank(B, new, ref) == rank(B) + dim


@pytest.mark.parametrize("name,dim", [
    ("rp2_unit_area", 1), ("circle_times_rp2", 2), ("grid_t3", 3), ("fcc_t3", 3),
    ("hex_t2", 2), ("sphere_s3", 0), ("moore_z3", 0)])
def test_z2_degree1_matches_dense_reduction(name, dim, request):
    """The degree-1 Z2 bases of the integral presentation are dual bases of
    the same H_1(X; Z2) and H^1(X; Z2) as the dense GF(2) reduction."""
    X = request.getfixturevalue(name)[0]
    if name == "moore_z3":
        assert homology(X, "Z").torsion[1] == [3]  # odd torsion: no Z2 class
    _check_against_dense(X, 1, dim)


def _torus_glued_to_s3(grid_t3, sphere_s3):
    """Cube T^3 s=3 and the 5-vertex S^3 glued along one edge: a closed
    pseudomanifold, not a manifold, whose dual graph has two components;
    the link of the glued edge is two circles, one in each."""
    T, _ = grid_t3
    (u, v), V = T.edges[0], T.n_vertices
    relabel = [u, v, V, V + 1, V + 2]
    S = [tuple(relabel[i] for i in s) for s in sphere_s3[0].maximal]
    return SimplicialComplex(V + 3, T.maximal + S)


@pytest.mark.parametrize("name,dim", [
    ("circle_times_rp2", 2), ("grid_t3", 3), ("fcc_t3", 3), ("sphere_s3", 0),
    ("glued", 3)])
def test_z2_codim1_matches_dense_reduction(name, dim, request):
    """The degree n-1 Z2 bases of the dual presentation are dual bases of
    the same H_{n-1}(X; Z2) and H^{n-1}(X; Z2) as the dense reduction."""
    if name == "glued":
        X = _torus_glued_to_s3(request.getfixturevalue("grid_t3"),
                               request.getfixturevalue("sphere_s3"))
        assert X.is_pure() and not X.pseudomanifold_defects()
        cof = cofacet_table(X)
        T = X.n_simplices(3)
        A = sparse.coo_matrix((np.ones(len(cof)), (cof[:, 0], cof[:, 1])), shape=(T, T))
        assert csgraph.connected_components(A, directed=False)[0] == 2
    else:
        X = request.getfixturevalue(name)[0]
    _check_against_dense(X, X.dim - 1, dim)


def test_z2_homology_other_degrees_rejected(grid_t3, hex_t2):
    for X, k in ((grid_t3[0], 0), (grid_t3[0], 3), (hex_t2[0], 0), (hex_t2[0], 2)):
        with pytest.raises(ComplexError, match="degree 1 and, for n >= 3, degree n-1"):
            z2_homology(X, k)


def test_z2_codim1_rejects_boundary():
    """A face with one cofacet fails the dual presentation as it fails the
    dual graph."""
    X = SimplicialComplex(4, [(0, 1, 2, 3)])
    with pytest.raises(ComplexError, match=r"^4 faces without exactly two cofacets; "):
        z2_homology(X, 2)


def _rp2_times(C, gc):
    R, gr = gen_rp2()
    return product_complex(C, gc, R, gr)


def _h1_reference_spaces():
    R, gr = gen_rp2()
    C, gc = gen_circle(4)
    return {
        "rp2": (R, 0, [2]),
        "circle": (C, 1, []),
        "s1xrp2": (_rp2_times(C, gc)[0], 1, [2]),
        "rp2xrp2": (_rp2_times(R, gr)[0], 0, [2, 2]),
    }


@pytest.mark.parametrize("name", ["rp2", "circle", "s1xrp2", "rp2xrp2", "t3"])
def test_h1_matches_quotient_presentation(name, grid_t3):
    X, b1, torsion = (grid_t3[0], 3, []) if name == "t3" else \
        _h1_reference_spaces()[name]
    cycles, cocycles, pres = h1_dual_bases(X)
    ref = QuotientPresentation(boundary_matrix(X, 1), boundary_matrix(X, 2))
    assert (pres.free_rank, pres.torsion) == (ref.free_rank, ref.torsion)
    assert (pres.free_rank, pres.torsion) == (b1, torsion)
    assert len(cycles) == len(cocycles) == b1
    # the free parts agree: the reference basis has unimodular coordinates
    if b1:
        F = np.array([pres.coords(z)[0] for z in ref.free_basis()], dtype=object)
        assert abs(round(np.linalg.det(F.astype(float)))) == 1


def test_h1_coords_round_trip_with_torsion():
    """Free and torsion coordinates of sums of the free cycle basis and the
    nontrivial loop of an RP^2 fibre of S^1 x RP^2."""
    R, gr = gen_rp2()
    loop = sysh1(R, gr, "Z").witness  # vertex loop with class 1 in Z/2
    C, gc = gen_circle(4)
    X, _ = _rp2_times(C, gc)  # vertex b of RP^2 is vertex b of the fibre
    cycles, _, pres = h1_dual_bases(X)
    tau = np.zeros(X.n_simplices(1), dtype=np.int64)
    for u, v in zip(loop, loop[1:]):
        tau[X.index((u, v))] += 1 if u < v else -1
    assert pres.torsion == [2]
    assert pres.coords(tau.tolist()) == ((0,), (1,))
    rng = np.random.default_rng(3)
    for _ in range(6):
        x, t = int(rng.integers(-4, 5)), int(rng.integers(-3, 4))
        z = x * np.array(cycles[0]) + t * tau
        assert pres.coords(z.tolist()) == ((x,), (t % 2,))
    d2 = np.array(boundary_matrix(X, 2))
    assert pres.coords((tau + d2[:, 0]).tolist()) == ((0,), (1,))
    z = tau.copy()
    z[0] += 1
    assert pres.coords(z.tolist()) is None


def test_homology_square_torus_s32_within_a_minute():
    """H_1 with its dual bases and the Z2 Betti numbers on a 6144-triangle
    torus; run in a subprocess so a slow path fails."""
    code = """
import json
import numpy as np
from sysgeo.generators import gen_flat_torus
from sysgeo.homology import h1_dual_bases, homology
X, _, _ = gen_flat_torus(np.eye(2), 32)
cycles, cocycles, pres = h1_dual_bases(X)
P = np.array(cocycles, dtype=object) @ np.array(cycles, dtype=object).T
print(json.dumps([pres.free_rank, (P == np.eye(len(cycles), dtype=int)).all().item(),
                  homology(X, "Z2").betti]))
"""
    assert _run_json(code, 60) == [2, True, [1, 2, 1]]


def test_z2_homology_fcc_t3_s8_within_five_seconds():
    """Both Z2 degrees of a cold 3072-tetrahedron FCC 3-torus, mesh
    included; run in a subprocess so a dense path fails."""
    code = """
import json
import numpy as np
from sysgeo.generators import gen_flat_torus
from sysgeo.homology import z2_homology
X, _, _ = gen_flat_torus(np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]]), 8)
print(json.dumps([X.n_simplices(3), z2_homology(X, 1).dim, z2_homology(X, 2).dim]))
"""
    assert _run_json(code, 5) == [3072, 3, 3]


def test_homology_fcc_t3_s8_within_ten_seconds():
    """Both rings of `homology` on a cold 3072-tetrahedron FCC 3-torus,
    mesh included; run in a subprocess so a dense path fails."""
    code = """
import json
import numpy as np
from sysgeo.generators import gen_flat_torus
from sysgeo.homology import homology
X, _, _ = gen_flat_torus(np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]]), 8)
z, z2 = homology(X, "Z"), homology(X, "Z2")
print(json.dumps([X.n_simplices(3), z.betti, z.torsion, z2.betti]))
"""
    assert _run_json(code, 10) == [3072, [1, 3, 3, 1], [[], [], [], []], [1, 3, 3, 1]]


# ---------------------------------------------------------------------------
# `homology` against the dense reference


def _dense_homology(X, ring):
    """(betti, torsion) from the full boundary matrices: a
    `QuotientPresentation` in every degree over Z, GF(2) ranks over Z2."""
    n = X.dim
    if ring == "Z":
        pres = [QuotientPresentation(boundary_matrix(X, k), boundary_matrix(X, k + 1))
                for k in range(n + 1)]
        return [p.free_rank for p in pres], [p.torsion for p in pres]
    rank = [len(_dense_gf2_echelon(boundary_matrix(X, k))[1]) for k in range(n + 2)]
    return ([X.n_simplices(k) - rank[k] - rank[k + 1] for k in range(n + 1)],
            [[] for _ in range(n + 1)])


def _check_homology_against_dense(X):
    """`homology(X, ring)`, computed with no dense boundary matrix, equals
    the dense reference in both rings; returns the integral (betti, torsion).

    A spy on the package's Smith form sees one input per degree k < n and
    ring, in degree order, each with fewer rows than the n_k rows of the
    dense d_(k+1) and fewer columns than its n_(k+1) columns.
    """
    module = importlib.import_module("sysgeo.homology")
    snf, shapes = module.smith_normal_form, []

    def spy(A):
        shapes.append(np.shape(A))
        return snf(A)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(module, "smith_normal_form", spy)
        got = {ring: homology(X, ring) for ring in ("Z", "Z2")}
    n = X.dim
    assert len(shapes) == 2 * n
    for i, (rows, cols) in enumerate(shapes):
        assert rows < X.n_simplices(i % n) and cols < X.n_simplices(i % n + 1)
    for ring, h in got.items():
        ref = _dense_homology(X, ring)
        assert h.ring == ring and (h.betti, h.torsion) == ref
    return got["Z"].betti, got["Z"].torsion


def _reference_complex(name, request):
    if name in ("circle_times_rp2", "sphere_s3", "moore_z3", "moore_z4_z6"):
        return request.getfixturevalue(name)[0]
    if name == "glued":
        return _torus_glued_to_s3(request.getfixturevalue("grid_t3"),
                                  request.getfixturevalue("sphere_s3"))
    return {
        "rp2": lambda: gen_rp2()[0],
        "rp2xrp2": lambda: _rp2_times(*gen_rp2())[0],
        "tetrahedron": lambda: SimplicialComplex(4, [(0, 1, 2, 3)]),
        # a tetrahedron and a triangle on a common edge, an edge, a point
        "non_pure": lambda: SimplicialComplex(7, [(0, 1, 2, 3), (2, 3, 4), (4, 5), (6,)]),
    }[name]()


@pytest.mark.parametrize("name,betti,torsion", [
    ("rp2", [1, 0, 0], [[], [2], []]),
    ("circle_times_rp2", [1, 1, 0, 0], [[], [2], [2], []]),
    ("rp2xrp2", [1, 0, 0, 0, 0], [[], [2, 2], [2], [2], []]),
    ("moore_z3", [1, 0, 0], [[], [3], []]),
    ("moore_z4_z6", [2, 0, 0], [[], [2, 12], []]),
    ("sphere_s3", [1, 0, 0, 1], [[], [], [], []]),
    ("glued", [1, 3, 3, 2], [[], [], [], []]),
    ("tetrahedron", [1, 0, 0, 0], [[], [], [], []]),
    ("non_pure", [2, 0, 0, 0], [[], [], [], []]),
])
def test_homology_matches_dense_reference(name, betti, torsion, request):
    X = _reference_complex(name, request)
    assert _check_homology_against_dense(X) == (betti, torsion)


@given(st.lists(st.sets(st.integers(0, 8), min_size=1, max_size=5),
                min_size=1, max_size=12))
@settings(max_examples=60, deadline=None)
def test_homology_matches_dense_reference_random(simplices):
    """Random complexes on at most 9 vertices, of dimension up to 4."""
    used = sorted(set().union(*simplices))
    label = {v: i for i, v in enumerate(used)}
    X = SimplicialComplex(len(used), [[label[v] for v in s] for s in simplices])
    _check_homology_against_dense(X)
