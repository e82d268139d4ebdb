import math

import numpy as np
import pytest

from sysgeo.generators import gen_flat_torus, perturb_metric
from sysgeo.hodge import (
    OneForm,
    circle_map,
    comass,
    harmonic_representative,
    l2_norm,
    lemma_chain,
    period_gram,
    shortest_cocycle,
    sweep,
)
from sysgeo.homology import h1_dual_bases
from sysgeo.simplicial import ComplexError, volume


def cocycle_form(X, g):
    """A shortest integral class: a coordinate class on a unit square torus.
    (No basis vector of h1_dual_bases is promised to be one.)"""
    return shortest_cocycle(X, period_gram(X, g)[0])


def test_oneform_requires_closed(grid_t2):
    X, g = grid_t2
    vals = np.zeros(X.n_simplices(1))
    vals[0] = 1.0
    with pytest.raises(ComplexError):
        OneForm(X, g, vals)


def test_harmonic_representative_same_class(grid_t2):
    X, g = grid_t2
    w = cocycle_form(X, g)
    eta = harmonic_representative(X, g, w)
    cycles, _, _ = h1_dual_bases(X)
    for c in cycles:
        per_w = float(np.array(c, dtype=float) @ w)
        per_e = float(np.array(c, dtype=float) @ eta.values)
        assert per_e == pytest.approx(per_w, abs=1e-9)


def test_harmonic_minimizes_l2_over_class(grid_t2):
    X, g = grid_t2
    w = cocycle_form(X, g)
    eta = harmonic_representative(X, g, w)
    base = l2_norm(eta)
    d0 = np.array(X.boundary_matrix(1), dtype=float).T  # E x V coboundary
    rng = np.random.default_rng(1)
    for _ in range(50):
        u = rng.normal(size=X.n_vertices)
        other = OneForm(X, g, eta.values + d0 @ u)
        assert l2_norm(other) >= base - 1e-10


def test_period_gram_duality(grid_t2, grid_t3):
    for X, g in (grid_t2, grid_t3):
        G, Gi, etas = period_gram(X, g)
        assert np.abs(G @ Gi - np.eye(len(G))).max() < 1e-8
        assert len(etas) == len(G)


def test_period_gram_flat_torus_matches_lattice():
    # [DERIVED] harmonic forms on a flat torus are the constant forms, so
    # the period Gram matrix is the inverse Gram matrix of the lattice.
    B = np.array([[2.0, 0.0], [0.4, 1.2]])
    X, g, Bred = gen_flat_torus(B, 3)
    G, _, _ = period_gram(X, g)
    vol = abs(np.linalg.det(Bred))
    target = np.linalg.inv(Bred @ Bred.T) * vol
    # the bases differ by a unimodular change, so determinants agree
    assert np.linalg.det(G) == pytest.approx(np.linalg.det(target), rel=1e-7)


def test_circle_map_integrality(grid_t2):
    X, g = grid_t2
    f = circle_map(X, g, cocycle_form(X, g))
    for (u, v) in X.edges:
        d = f.values[v] - f.values[u]
        step = f.form.edge_value(u, v)
        assert (d - step) == pytest.approx(round(d - step), abs=1e-7)


def test_circle_map_rejects_zero_class(grid_t2):
    X, g = grid_t2
    with pytest.raises(ComplexError):
        circle_map(X, g, np.zeros(X.n_simplices(1)))


def test_sweep_coarea_identity_unit_torus(grid_t2):
    X, g = grid_t2
    f = circle_map(X, g, cocycle_form(X, g))
    data = sweep(X, g, f, samples=2000, seed=0)
    assert data.profile_integral == pytest.approx(data.coarea_integral, rel=1e-9)
    # every slice of the unit square torus by a coordinate circle is length 1
    assert data.min_volume == pytest.approx(1.0, rel=1e-7)
    assert data.mean_volume == pytest.approx(1.0, rel=1e-7)


def test_sweep_slice_bounded_by_mean(grid_t2, grid_t3):
    for X, g in (grid_t2, grid_t3):
        for seed in range(3):
            gp = perturb_metric(g, 0.05, seed=seed)
            f = circle_map(X, gp, cocycle_form(X, gp))
            data = sweep(X, gp, f, samples=1500, seed=seed)
            assert data.min_volume <= data.mean_volume + 1e-9
            assert data.coarea_integral == pytest.approx(
                data.profile_integral, rel=1e-6)


def test_comass_and_l2_norm_comparison(grid_t2):
    X, g = grid_t2
    eta = harmonic_representative(X, g, cocycle_form(X, g))
    assert l2_norm(eta) <= comass(eta) * math.sqrt(volume(X, g)) + 1e-9


def test_lemma_chain_unit_torus(grid_t2):
    X, g = grid_t2
    rep = lemma_chain(X, g, cocycle_form(X, g), samples=2000, seed=0)
    assert rep.holds
    assert rep.min_slice <= rep.coarea_integral + 1e-9
    assert rep.coarea_integral <= rep.l2_times_sqrt_vol + 1e-9
    assert rep.min_slice == pytest.approx(1.0, rel=1e-6)
    assert rep.l2_times_sqrt_vol == pytest.approx(1.0, rel=1e-7)


def test_lemma_chain_rejects_even_class(grid_t2):
    X, g = grid_t2
    with pytest.raises(ComplexError):
        lemma_chain(X, g, 2.0 * cocycle_form(X, g), samples=100)


def test_sweep_3d_unit_torus(grid_t3):
    X, g = grid_t3
    f = circle_map(X, g, cocycle_form(X, g))
    data = sweep(X, g, f, samples=1500, seed=0)
    assert data.min_volume == pytest.approx(1.0, rel=1e-6)
    assert data.coarea_integral == pytest.approx(1.0, rel=1e-6)
