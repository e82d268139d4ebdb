import importlib
import json
import math

import numpy as np
import pytest

import sysgeo.lattice as lattice
from sysgeo.generators import gen_circle, gen_flat_torus, gen_rp2, perturb_metric
from sysgeo.hodge import OneForm, circle_map, period_gram, shortest_form, sweep
from sysgeo.simplicial import ComplexError, product_complex
from sysgeo.verify import (
    HOLDS,
    NA,
    SOFT,
    VIOLATED,
    VerificationReport,
    pullback_monotonicity_test,
    syscat_bounds,
    verify_inequality12,
)


def make_report(**kw):
    base = dict(mesh="m", dim=2, b1=2, vol=1.0, stsys1=1.0, sys_codim1=1.0,
                sys_codim1_exact=True, sweep_min=1.0, lambda_product=1.0,
                gamma_prime=2.0 / math.sqrt(3.0), ratio=1.0)
    base.update(kw)
    return VerificationReport(**base)


def test_verdicts_all_hold():
    rep = make_report()
    v = rep.evaluate()
    assert v["chain-slice"] == HOLDS
    assert v["chain-ceiling"] == HOLDS
    assert v["hypersurface-below-sweep"] == HOLDS
    assert v["main-inequality"] == HOLDS
    assert rep.worst == HOLDS


def test_verdicts_follow_the_raw_numbers(grid_t2):
    """`verdicts` is `evaluate()` of the numbers as they are now: for a
    report built by its constructor, and after a number changes."""
    rep = make_report()
    assert rep.verdicts == make_report().evaluate() and len(rep.verdicts) == 4
    rep.sys_codim1 = 5.0
    assert rep.verdicts["hypersurface-below-sweep"] == VIOLATED
    assert json.loads(rep.to_json())["verdicts"] == rep.evaluate()
    X, g = grid_t2
    rep = verify_inequality12(X, g, exact_timeout=30)
    assert rep.verdicts["main-inequality"] == HOLDS
    rep.stsys1 *= 10.0
    assert rep.verdicts["main-inequality"] == VIOLATED
    assert rep.worst == VIOLATED


def test_verdict_violation_detected():
    rep = make_report(sys_codim1=5.0, sweep_min=1.0)
    v = rep.evaluate()
    assert v["hypersurface-below-sweep"] == VIOLATED
    assert rep.worst == VIOLATED


def test_verdict_soft_when_not_certified():
    rep = make_report(sys_codim1_exact=False)
    v = rep.evaluate()
    assert v["hypersurface-below-sweep"] == SOFT
    assert v["main-inequality"] == SOFT
    assert rep.worst == SOFT


def test_verdict_na_without_classes():
    rep = make_report(b1=0)
    assert rep.evaluate() == {"main-inequality": NA}
    assert rep.worst == NA


def test_slack_tolerates_roundoff():
    rep = make_report(lambda_product=2.0 / math.sqrt(3.0) + 1e-12)
    assert rep.evaluate()["chain-ceiling"] == HOLDS


def test_report_json_roundtrip():
    rep = make_report()
    text = rep.to_json()
    d = json.loads(text)
    assert d["schema_version"] == rep.schema_version
    back = VerificationReport.from_json(text)
    assert back.to_json() == text


def test_verify_unit_torus(grid_t2):
    X, g = grid_t2
    rep = verify_inequality12(X, g, name="t2", exact_timeout=30)
    assert rep.worst == HOLDS
    assert rep.b1 == 2
    assert rep.gamma_prime == pytest.approx(2.0 / math.sqrt(3.0))
    assert rep.ratio == pytest.approx(1.0, rel=1e-6)
    assert rep.sys_codim1_exact


def test_verify_reproducible(grid_t2):
    """The report is the same at any `seed`: the sweep minimum is exact."""
    X, g = grid_t2
    a = verify_inequality12(X, g, name="t2", exact_timeout=30, seed=0).to_json()
    b = verify_inequality12(X, g, name="t2", exact_timeout=30, seed=7).to_json()
    assert a == b


def test_verify_no_classes(sphere_s3):
    X, g = sphere_s3
    rep = verify_inequality12(X, g, name="s3", exact_timeout=5)
    assert rep.b1 == 0
    assert rep.worst == NA


def test_syscat_bounds_torus(grid_t2):
    X, g = grid_t2
    out = syscat_bounds(X, g)
    assert out["lower"] == 2
    assert out["upper"] == 2
    assert out["partition"] == (1, 1)
    assert not out["exact"]
    assert out["observed_constant"] == pytest.approx(1.0, rel=1e-6)


def test_syscat_bounds_sphere(sphere_s3):
    X, g = sphere_s3
    out = syscat_bounds(X)
    assert out["lower"] == 1
    assert out["upper"] == 3
    assert out["partition"] is None


def collapse_map(s_fine, s_coarse):
    k = s_fine // s_coarse
    return {i * s_fine + j: (i // k) * s_coarse + (j // k)
            for i in range(s_fine) for j in range(s_fine)}


def test_pullback_monotonicity_collapse():
    Xf, _, _ = gen_flat_torus(np.eye(2), 6)
    Yc, gY, _ = gen_flat_torus(np.eye(2), 3)
    out = pullback_monotonicity_test(collapse_map(6, 3), Xf, Yc, gY)
    assert out["ok"]
    for name, (got, ref, ok) in out["checks"].items():
        assert ok, name


def test_pullback_monotonicity_random_targets():
    Xf, _, _ = gen_flat_torus(np.eye(2), 6)
    Yc, gY, _ = gen_flat_torus(np.eye(2), 3)
    f = collapse_map(6, 3)
    for seed in range(5):
        gp = perturb_metric(gY, 0.2, seed=seed)
        out = pullback_monotonicity_test(f, Xf, Yc, gp)
        assert out["ok"], (seed, out["checks"])


def test_pullback_map_missing_vertex():
    Xf, _, _ = gen_flat_torus(np.eye(2), 6)
    Yc, gY, _ = gen_flat_torus(np.eye(2), 3)
    f = collapse_map(6, 3)
    del f[7]
    with pytest.raises(ComplexError, match="defined on all vertices"):
        pullback_monotonicity_test(f, Xf, Yc, gY)


def _guard_dense_reduction(monkeypatch, X):
    """Make `homology()` raise, and return a list that receives the row
    count of every Smith form the package runs.  A dense d_k (k >= 1) has
    at least X.n_vertices rows."""
    module = importlib.import_module("sysgeo.homology")  # not the function
    snf, rows = module.smith_normal_form, []

    def boom(*args):
        raise AssertionError("homology() called")

    def spy(A):
        rows.append(len(A))
        return snf(A)

    monkeypatch.setattr(module, "homology", boom)
    monkeypatch.setattr(module, "smith_normal_form", spy)
    return rows


def test_surface_verify_runs_without_gf2_elimination(monkeypatch):
    """On a surface every Z2 datum is degree 1, read off the integral H_1
    presentation: `homology()` is not used, and every Smith form is of a
    small relation matrix."""
    X, g, _ = gen_flat_torus(np.eye(2), 4)  # fresh: no cached homology
    rows = _guard_dense_reduction(monkeypatch, X)
    rep = verify_inequality12(X, g)
    assert rep.b1 == 2 and rep.sys_codim1_exact
    assert rows and max(rows) < X.n_vertices


@pytest.mark.parametrize("name", ["S1xRP2", "fcc-T3-s3"])
def test_3manifold_verify_runs_without_dense_reduction(name, monkeypatch):
    """In dimension 3 both Z2 degrees come from tree presentations (degree
    2 from the dual complex): no call of `homology()`, and every Smith
    form is of a small relation matrix."""
    # fresh complexes: no cached homology
    if name == "S1xRP2":
        (X, g), b1 = product_complex(*gen_circle(4, 1.0), *gen_rp2()), 1
    else:
        FCC = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
        X, g, _ = gen_flat_torus(FCC, 3)
        b1 = 3
    rows = _guard_dense_reduction(monkeypatch, X)
    rep = verify_inequality12(X, g)
    assert rep.b1 == b1 and rep.sys_codim1_exact
    assert len(rows) == 2 and max(rows) < X.n_vertices  # H_1 over Z, H_2 over Z2


def test_verify_searches_each_period_gram_once(monkeypatch, grid_t2):
    """One shortest-vector search per Gram: the period Gram's gives both
    lambda1(H^1) and the swept class, and the inverse Gram's lambda1(H_1).
    The report's product and sweep are those of a search of each Gram."""
    X, g = grid_t2
    g = perturb_metric(g, 0.1, seed=3)
    searched = []
    enumerate_min_sq = lattice._enumerate_min_sq

    def counted(G, r2):
        searched.append(np.linalg.det(G))
        return enumerate_min_sq(G, r2)

    monkeypatch.setattr(lattice, "_enumerate_min_sq", counted)
    rep = verify_inequality12(X, g)
    G, Gi, etas = period_gram(X, g)
    assert searched == pytest.approx([np.linalg.det(G), np.linalg.det(Gi)], rel=1e-9)
    monkeypatch.undo()
    lam, coeffs = lattice.lambda1_gram_vector(G)
    assert rep.lambda_product == lam * lattice.lambda1_gram(Gi)
    swept = coeffs.astype(float) @ np.array([eta.values for eta in etas])
    assert np.array_equal(shortest_form(G, etas)[1].values, swept)
    assert rep.sweep_min == sweep(X, g, circle_map(X, g, OneForm(X, g, swept))).min_volume
