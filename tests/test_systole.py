import math

import numpy as np
import pytest

from sysgeo.generators import gen_flat_torus, gen_rp2, perturb_metric
from sysgeo.simplicial import ComplexError, product_complex
from sysgeo.systole import (
    pisys1_upper,
    stable_norm,
    stsys1,
    sys1_aggregate,
    sysh1,
)


def loop_length(g, loop):
    return sum(g.length(loop[i], loop[i + 1]) for i in range(len(loop) - 1))


def test_unit_torus_homology_systole(grid_t2):
    X, g = grid_t2
    for ring in ("Z", "Z2"):
        sv = sysh1(X, g, ring)
        assert sv.value == pytest.approx(1.0, abs=1e-12)
        assert sv.exactness == "exact"
        assert sv.witness[0] == sv.witness[-1]
        assert loop_length(g, sv.witness) == pytest.approx(sv.value, abs=1e-12)


def test_unit_torus_stable_and_homotopy(grid_t2):
    X, g = grid_t2
    assert stsys1(X, g).value == pytest.approx(1.0, abs=1e-9)
    assert pisys1_upper(X, g).value == pytest.approx(1.0, abs=1e-12)
    assert sys1_aggregate(X, g).value == pytest.approx(1.0, abs=1e-9)


def test_hexagonal_torus_systoles(hex_t2):
    X, g = hex_t2
    assert stsys1(X, g).value == pytest.approx(1.0, abs=1e-9)
    assert sysh1(X, g, "Z2").value == pytest.approx(1.0, abs=1e-9)


def test_unit_3torus_systoles(grid_t3):
    X, g = grid_t3
    assert stsys1(X, g).value == pytest.approx(1.0, abs=1e-9)
    assert sysh1(X, g, "Z2").value == pytest.approx(1.0, abs=1e-12)


def test_stsys1_solves_each_class_once(grid_t2, monkeypatch):
    # the box is {-1, 0, 1}^2: the unit vectors are solved first, and the
    # search over the box, up to sign, adds only (1, -1) and (1, 1)
    import sysgeo.systole as systole
    X, g = grid_t2
    seen = []

    def counted(X, g, alpha):
        seen.append(tuple(alpha))
        return stable_norm(X, g, alpha)

    monkeypatch.setattr(systole, "stable_norm", counted)
    sv = stsys1(X, g)
    assert sorted(seen) == [(0, 1), (1, -1), (1, 0), (1, 1)]
    monkeypatch.undo()
    assert sv.value == min(stable_norm(X, g, a).value for a in seen)
    assert sv.value == pytest.approx(1.0, abs=1e-9)


def test_rp2_homology_systole_exact(rp2_unit_edges):
    X, g = rp2_unit_edges
    sv = sysh1(X, g, "Z2")
    assert sv.value == 3.0  # three unit edges, exact
    assert sv.exactness == "exact"


def test_rp2_stable_systole_infinite(rp2_unit_edges):
    X, g = rp2_unit_edges
    sv = stsys1(X, g)
    assert math.isinf(sv.value)


def test_sphere_no_one_systole(sphere_s3):
    X, g = sphere_s3
    assert math.isinf(sysh1(X, g, "Z2").value)
    assert math.isinf(stsys1(X, g).value)


def test_stable_norm_scale_covariance(grid_t2):
    X, g = grid_t2
    a = stable_norm(X, g, (1, 1)).value
    b = stable_norm(X, g.scaled(3.0), (1, 1)).value
    assert b == pytest.approx(3.0 * a, rel=1e-9)


def test_stable_norm_strong_duality_random(grid_t2):
    X, g = grid_t2
    rng = np.random.default_rng(0)
    for trial in range(10):
        gp = perturb_metric(g, 0.3, seed=trial)
        alpha = tuple(rng.integers(-3, 4, size=2))
        if alpha == (0, 0):
            alpha = (1, 0)
        sn = stable_norm(X, gp, alpha)
        assert sn.duality_gap <= 1e-7
        assert sn.value > 0


def test_stable_norm_homogeneity_and_triangle(grid_t2):
    X, g = grid_t2
    a = stable_norm(X, g, (1, 2)).value
    assert stable_norm(X, g, (2, 4)).value == pytest.approx(2 * a, abs=1e-9)
    b = stable_norm(X, g, (1, 0)).value
    c = stable_norm(X, g, (0, 2)).value
    assert a <= b + c + 1e-9


def test_stable_norm_zero_class(grid_t2):
    X, g = grid_t2
    assert stable_norm(X, g, (0, 0)).value == pytest.approx(0.0, abs=1e-10)


def test_stable_norm_wrong_arity(grid_t2):
    X, g = grid_t2
    with pytest.raises(ComplexError):
        stable_norm(X, g, (1, 0, 0))


def test_stable_norm_cycle_is_certificate(grid_t2):
    X, g = grid_t2
    sn = stable_norm(X, g, (1, 1))
    lengths = np.array([g.length(u, v) for (u, v) in X.edges])
    mass = float(np.abs(sn.cycle) @ lengths)
    assert mass == pytest.approx(sn.value, rel=1e-8)
    d1 = np.array(X.boundary_matrix(1), dtype=float)
    assert np.abs(d1 @ sn.cycle).max() < 1e-8


def test_stsys_below_pisys(grid_t2, hex_t2):
    for X, g in (grid_t2, hex_t2):
        assert stsys1(X, g).value <= pisys1_upper(X, g).value + 1e-9


def test_perturbed_metric_systoles_positive(grid_t2):
    X, g = grid_t2
    for seed in range(5):
        gp = perturb_metric(g, 0.4, seed=seed)
        for val in (sysh1(X, gp, "Z2").value, stsys1(X, gp).value):
            assert val > 0


def test_sysh1_z_with_torsion_labels(rp2_unit_area, circle_times_rp2):
    """The Z holonomy labels carry torsion coordinates: on RP^2 x RP^2
    (H_1 = Z/2 + Z/2) the shortest nontrivial loop is an RP^2 equator,
    three edges long; on S^1 x RP^2 it is the unit circle."""
    R, gr = rp2_unit_area
    edge = gr.length(0, 1)
    assert sysh1(R, gr, "Z").value == pytest.approx(3 * edge, rel=1e-12)
    X, g = product_complex(R, gr, *gen_rp2())
    sv = sysh1(X, g, "Z")
    assert sv.value == pytest.approx(3 * edge, rel=1e-12)
    assert loop_length(g, sv.witness) == pytest.approx(sv.value, rel=1e-12)
    X, g = circle_times_rp2
    assert sysh1(X, g, "Z").value == pytest.approx(1.0, rel=1e-12)
