import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sysgeo
from sysgeo.homology import QuotientPresentation, h1_dual_bases, homology, z2_homology
from sysgeo.linalg_z import (
    gf2_kernel,
    int_matmul,
    integral_kernel,
    smith_normal_form,
    snf_diagonal,
)


# ---------------------------------------------------------------------------
# Integer linear algebra


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 10), st.integers(1, 10))
@settings(max_examples=60, deadline=None)
def test_snf_fuzz(seed, m, n):
    rng = np.random.default_rng(seed)
    A = rng.integers(-9, 10, size=(m, n)).tolist()
    S, U, V, Ui, Vi = smith_normal_form(A)
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
    S, U, V, _, _ = smith_normal_form(A)
    assert (int_matmul(int_matmul(U, A), V) == S).all()  # past int64
    d = snf_diagonal(A)
    assert d[0] == 1 and d[1] == 10 ** 24 - 1


SNF_GROWTH_CASE = [[7, -8, -9, 5, -6, -6, 3], [-8, 5, -6, 2, 2, -6, -2],
                   [-7, 9, 0, -7, 6, 5, -5], [-3, -8, 1, 1, -8, -6, -1],
                   [-8, 5, 5, 4, 6, 6, -2], [-1, -4, -6, -4, 4, -3, 9],
                   [1, 3, 1, 6, -3, 2, 3]]


def test_snf_no_coefficient_growth():
    """A 7x7 matrix (det 6493962) that outgrows int64 during elimination
    must still finish quickly; run in a subprocess so a hang fails."""
    code = ("import json, sys; from sysgeo.linalg_z import snf_diagonal; "
            "print(json.dumps(snf_diagonal(json.loads(sys.argv[1]))))")
    src = str(pathlib.Path(sysgeo.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code, json.dumps(SNF_GROWTH_CASE)],
                         capture_output=True, text=True, timeout=30, check=True,
                         env=env)
    assert json.loads(out.stdout) == [1] * 6 + [6493962]


def test_integral_kernel_annihilates():
    rng = np.random.default_rng(2)
    A = rng.integers(-5, 6, size=(3, 5)).tolist()
    K = integral_kernel(A)  # list of kernel columns
    An = np.array(A)
    assert K, "random wide matrix must have a kernel"
    for col in K:
        assert not (An @ np.array(col)).any()


def test_quotient_coords_round_trip(grid_t2):
    X, _ = grid_t2
    pres = QuotientPresentation(X.boundary_matrix(1), X.boundary_matrix(2))
    basis = np.array(pres.free_basis())
    rng = np.random.default_rng(9)
    for _ in range(5):
        x = rng.integers(-3, 4, size=len(basis))
        free, tor = pres.coords((x @ basis).tolist())
        assert free == tuple(x) and tor == ()
    z = basis[0].copy()
    z[0] += 1  # one edge more: its boundary is no longer zero
    assert pres.coords(z.tolist()) is None


def test_gf2_rank_and_kernel():
    M = np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1]], dtype=np.uint8)
    ker = gf2_kernel(M)
    assert M.shape[1] - ker.shape[0] == 2  # rank
    assert ker.shape[0] == 1
    assert not ((M @ ker.T) & 1).any()


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
    d2 = np.array(X.boundary_matrix(2))
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
    d2 = (np.array(X.boundary_matrix(2)) % 2).astype(np.uint8)
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
