import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import sysgeo
from sysgeo.generators import gen_flat_torus, perturb_metric
from sysgeo.hodge import (
    CircleMap,
    OneForm,
    _bspline_piece,
    circle_map,
    comass,
    harmonic_representative,
    l2_norm,
    period_gram,
    shortest_form,
    sweep,
)
from sysgeo.homology import h1_dual_bases
from sysgeo.lattice import lambda1_gram_vector
from sysgeo.simplicial import (
    ComplexError,
    MetricError,
    PLMetric,
    validate,
    volume,
)

from reference import boundary_matrix, harmonic_forms, simplex_gram, simplex_volume


def cocycle_form(X, g):
    """Integral cocycle of a shortest class: a coordinate class on a unit
    square torus.  (No basis vector of h1_dual_bases is promised to be one.)"""
    _, coeffs = lambda1_gram_vector(period_gram(X, g)[0])
    return coeffs.astype(float) @ np.asarray(h1_dual_bases(X)[1], dtype=float)


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
    d0 = np.array(boundary_matrix(X, 1), dtype=float).T  # E x V coboundary
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
    f = circle_map(X, g, harmonic_representative(X, g, cocycle_form(X, g)))
    for (u, v) in X.edges:
        d = f.values[v] - f.values[u]
        step = f.form.edge_value(u, v)
        assert (d - step) == pytest.approx(round(d - step), abs=1e-7)


def test_circle_map_rejects_zero_class(grid_t2):
    X, g = grid_t2
    with pytest.raises(ComplexError):
        circle_map(X, g, harmonic_representative(X, g, np.zeros(X.n_simplices(1))))


def test_sweep_coarea_identity_unit_torus(grid_t2):
    X, g = grid_t2
    f = circle_map(X, g, harmonic_representative(X, g, cocycle_form(X, g)))
    data = sweep(X, g, f)
    assert data.profile_integral == pytest.approx(data.coarea_integral, rel=1e-12)
    # every slice of the unit square torus by a coordinate circle is length 1
    assert data.min_volume == pytest.approx(1.0, rel=1e-7)
    assert data.profile_integral == pytest.approx(1.0, rel=1e-7)


def test_sweep_slice_bounded_by_mean(grid_t2, grid_t3):
    for X, g in (grid_t2, grid_t3):
        for seed in range(3):
            gp = perturb_metric(g, 0.05, seed=seed)
            f = circle_map(X, gp, harmonic_representative(X, gp, cocycle_form(X, gp)))
            data = sweep(X, gp, f)
            assert data.min_volume <= data.profile_integral + 1e-9
            assert data.coarea_integral == pytest.approx(
                data.profile_integral, rel=1e-6)


def test_comass_and_l2_norm_comparison(grid_t2):
    X, g = grid_t2
    eta = harmonic_representative(X, g, cocycle_form(X, g))
    assert l2_norm(eta) <= comass(eta) * math.sqrt(volume(X, g)) + 1e-9
    # a coordinate class of the unit square torus: |eta|_2 vol^(1/2) = 1
    assert l2_norm(eta) * math.sqrt(volume(X, g)) == pytest.approx(1.0, rel=1e-7)


def test_sweep_3d_unit_torus(grid_t3):
    X, g = grid_t3
    f = circle_map(X, g, harmonic_representative(X, g, cocycle_form(X, g)))
    data = sweep(X, g, f)
    assert data.min_volume == pytest.approx(1.0, rel=1e-6)
    assert data.coarea_integral == pytest.approx(1.0, rel=1e-6)


# ---------------------------------------------------------------------------
# Per-simplex references for the batched continuum layer


def _slice_measure(pts, phi, c):
    """(n-1)-volume of {phi = c} inside one embedded simplex, by clipping
    the edges and ordering the crossings by angle.  At a vertex level it
    is the limit from above, and levels closer than the profile's
    resolution 1e-13 are one: an edge crosses when one end is at or below
    c and the other above."""
    n = pts.shape[1]
    cross = []
    k = len(phi)
    for i in range(k):
        for j in range(i + 1, k):
            a, b = phi[i], phi[j]
            if min(a, b) <= c + 1e-13 < max(a, b):
                t = min(max((c - a) / (b - a), 0.0), 1.0)
                cross.append(pts[i] + t * (pts[j] - pts[i]))
    if len(cross) < n:
        return 0.0
    P = np.array(cross)
    if n == 2:
        return float(np.linalg.norm(P[1] - P[0]))
    E = pts[1:] - pts[0]
    grad = np.linalg.solve(E, phi[1:] - phi[0])
    nrm = grad / np.linalg.norm(grad)
    a = np.array([1.0, 0.0, 0.0])
    if abs(nrm @ a) > 0.9:
        a = np.array([0.0, 1.0, 0.0])
    u = a - (a @ nrm) * nrm
    u /= np.linalg.norm(u)
    v = np.cross(nrm, u)
    ctr = P.mean(axis=0)
    Q = P[np.argsort(np.arctan2((P - ctr) @ v, (P - ctr) @ u))]
    x, y = (Q - ctr) @ u, (Q - ctr) @ v
    return float(0.5 * abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))


def _embedded_lifts(X, g, f):
    """(vertex coordinates, lifted values of f) of every top simplex."""
    out = []
    for s in X.simplices(X.dim):
        pts = np.vstack([np.zeros(X.dim), np.linalg.cholesky(simplex_gram(s, g))])
        phi = np.array([f.values[s[0]]] +
                       [f.values[s[0]] + f.form.edge_value(s[0], v) for v in s[1:]])
        out.append((pts, phi))
    return out


def _reference_profile(tops, t):
    """Slice volume of {f = t}: every top's clip at every integer lift of t."""
    return sum(_slice_measure(pts, phi, t + k) for pts, phi in tops
               for k in range(math.ceil(phi.min() - t - 1e-13),
                              math.floor(phi.max() - t) + 1))


def _validated_perturbation(g, X, amplitude):
    for seed in range(20):
        gp = perturb_metric(g, amplitude, seed=seed)
        if validate(X, gp).metric_ok:
            return gp
    raise AssertionError("no valid perturbation")


def _narrow_map(f):
    """f with each odd vertex moved to 1e-7 above the vertex before it, a
    grid neighbour, so many tops have two nearly equal levels."""
    ends = np.array(f.complex.edges)
    z = np.round(f.form.values - (f.values[ends[:, 1]] - f.values[ends[:, 0]]))
    vals = f.values.copy()
    vals[1::2] = (vals[0:-1:2] + 1e-7) % 1.0
    eta = vals[ends[:, 1]] - vals[ends[:, 0]] + z
    return CircleMap(f.complex, f.metric, OneForm(f.complex, f.metric, eta), vals)


def _shortest_map(X, g):
    """The circle map `verify` sweeps: the shortest class's harmonic form."""
    G, _, etas = period_gram(X, g)
    return circle_map(X, g, shortest_form(G, etas)[1])


def _profile_cases(grid_t2, fcc_t3, circle_times_rp2):
    X2, g2 = grid_t2
    g2 = perturb_metric(g2, 0.05, seed=3)
    X3, g3 = fcc_t3
    g3 = _validated_perturbation(g3, X3, 0.05)
    Xp, gp = circle_times_rp2
    f2 = circle_map(X2, g2, harmonic_representative(X2, g2, cocycle_form(X2, g2)))
    f3 = circle_map(X3, g3, harmonic_representative(X3, g3, cocycle_form(X3, g3)))
    yield "square T2", X2, g2, f2
    eta3 = harmonic_representative(X2, g2, 3.0 * cocycle_form(X2, g2))
    yield "square T2, 3x class", X2, g2, circle_map(X2, g2, eta3)
    yield "square T2, narrow", X2, g2, _narrow_map(f2)
    yield "FCC T3", X3, g3, f3
    yield "FCC T3, narrow", X3, g3, _narrow_map(f3)
    etap = harmonic_representative(Xp, gp, cocycle_form(Xp, gp))
    yield "S1 x RP2", Xp, gp, circle_map(Xp, gp, etap)


def test_volume_at_matches_slice_clipping(grid_t2, fcc_t3, circle_times_rp2):
    rng = np.random.default_rng(5)
    for name, X, g, f in _profile_cases(grid_t2, fcc_t3, circle_times_rp2):
        data = sweep(X, g, f)
        tops = _embedded_lifts(X, g, f)
        lifts = np.concatenate([phi for _, phi in tops])
        if "3x" in name or "narrow" in name:
            assert lifts.max() > 1.0 or lifts.min() < 0.0, name  # pieces wrap
        if "narrow" in name:
            assert np.diff(data.breaks).min() < 1e-3, name  # narrow intervals
        ts = rng.random(200)
        assert np.abs(ts[:, None] - data.breaks[None, :]).min() > 1e-9
        ref = np.array([_reference_profile(tops, t) for t in ts])
        got = data.volume_at(ts)
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max(), name
        assert data.profile_integral == pytest.approx(data.coarea_integral, rel=1e-12), name


def test_volume_at_breakpoints_matches_slice_clipping(grid_t2, fcc_t3, circle_times_rp2):
    """At a breakpoint every piece that starts there is summed: copies of
    one vertex level folded into [0, 1) from different integer lifts are
    one breakpoint, not an interval an ulp wide that only some reach."""
    flat = [(f"{name} flat, shortest", X, g, _shortest_map(X, g))
            for name, (X, g) in (("square T2", grid_t2), ("FCC T3", fcc_t3),
                                 ("S1 x RP2", circle_times_rp2))]
    for name, X, g, f in [*_profile_cases(grid_t2, fcc_t3, circle_times_rp2), *flat]:
        data = sweep(X, g, f)
        tops = _embedded_lifts(X, g, f)
        ts = data.breaks[:-1]
        ref = np.array([_reference_profile(tops, t) for t in ts])
        assert np.abs(data.volume_at(ts) - ref).max() <= 1e-12 * np.abs(ref).max(), name


def _random_simplex(rng, n, kind):
    """(vertex coordinates, vertex levels) of a random n-simplex: plain,
    thin (a vertex 1e-3 off the hyperplane of the others), or with two
    pairs of levels 1e-7 apart."""
    pts, phi = rng.normal(size=(n + 1, n)), rng.normal(size=n + 1)
    if kind == "thin":
        w = rng.dirichlet(np.ones(n))
        pts[n] = w @ pts[:n] + 1e-3 * rng.normal(size=n)
    elif kind == "close":
        phi[1], phi[n] = phi[0] + 1e-7, phi[n - 1] - 1e-7
    return pts, phi


def test_bspline_slice_matches_clipping():
    """|grad f| vol M(t) with M the B-spline on the vertex levels is the
    clipped slice's volume, inside every knot interval (the coarea
    identity that `sweep` measures slices by)."""
    rng = np.random.default_rng(29)
    for n in (2, 3):
        for i in range(100):
            kind = ("plain", "thin", "close")[i % 3]
            pts, phi = _random_simplex(rng, n, kind)
            E = pts[1:] - pts[0]
            scale = abs(np.linalg.det(E)) / math.factorial(n) * np.linalg.norm(
                np.linalg.solve(E, phi[1:] - phi[0]))
            p = np.sort(phi)
            j = np.flatnonzero(np.diff(p) >= 1e-13)
            c = p[j, None] + np.diff(p)[j, None] * np.linspace(0.02, 0.98, 9)
            got = scale * _bspline_piece(np.repeat(p[None], len(j), axis=0), j, c)
            ref = np.array([[_slice_measure(pts, phi, t) for t in row] for row in c])
            assert np.abs(got - ref).max() <= 1e-10 * ref.max(), (n, i, kind)


def test_bspline_integrates_to_one():
    """The pieces of the normalised B-spline integrate to 1 over their knot
    intervals, with repeated and nearly repeated knots too."""
    rng = np.random.default_rng(31)
    for n in (2, 3, 4):
        nodes, weights = np.polynomial.legendre.leggauss(n)
        for i in range(30):
            p = np.sort(rng.normal(size=n + 1))
            if i % 3 == 1:  # repeated knots: a triple one at n = 3
                p[1] = p[0]
                p[n - 1] = p[n - 2] if n > 2 else p[n - 1]
            elif i % 3 == 2:
                p[1] = p[0] + 1e-7
            j = np.flatnonzero(np.diff(p) > 0)
            a, b = p[j], p[j + 1]
            c = 0.5 * (a + b)[:, None] + 0.5 * (b - a)[:, None] * nodes
            vals = _bspline_piece(np.repeat(p[None], len(j), axis=0), j, c)
            assert 0.5 * (b - a) @ (vals @ weights) == pytest.approx(1.0, abs=1e-12), (n, i)


def _minimum_cases(grid_t2, grid_t3, fcc_t3, circle_times_rp2):
    yield from _profile_cases(grid_t2, fcc_t3, circle_times_rp2)
    for (X, g), seed in ((grid_t2, 0), (grid_t2, 1), (grid_t3, 0)):
        gp = perturb_metric(g, 0.05, seed=seed)
        eta = harmonic_representative(X, gp, cocycle_form(X, gp))
        yield f"{X.dim}-torus p{seed}", X, gp, circle_map(X, gp, eta)


def test_sweep_minimum_is_exact(grid_t2, grid_t3, fcc_t3, circle_times_rp2):
    """min_volume is the profile's infimum: no level of a dense grid, nor
    1e-9 either side of a breakpoint, has a smaller slice, and the level
    t_min has that slice."""
    for name, X, g, f in _minimum_cases(grid_t2, grid_t3, fcc_t3, circle_times_rp2):
        data = sweep(X, g, f)
        tops = _embedded_lifts(X, g, f)
        b = data.breaks[:-1]
        ts = np.concatenate([np.arange(100) / 100, b + 1e-9, b - 1e-9]) % 1.0
        ref = np.array([_reference_profile(tops, t) for t in ts])
        assert data.min_volume <= ref.min() * (1 + 1e-10), name
        assert 0.0 <= data.t_min < 1.0, name
        assert _reference_profile(tops, data.t_min) == pytest.approx(
            data.min_volume, rel=1e-10), name
        levels, vols = data.critical_points()
        assert (np.diff(levels) > 0).all() and np.isin(b, levels).all(), name
        assert data.min_volume == vols.min(), name


def test_harmonic_representative_matches_dense_lstsq(grid_t3):
    X, g = grid_t3
    g = _validated_perturbation(g, X, 0.05)
    w = cocycle_form(X, g)
    ne = X.n_simplices(1)
    eidx = {e: i for i, e in enumerate(X.edges)}
    M = np.zeros((ne, ne))
    for s in X.simplices(X.dim):
        W = simplex_volume(s, g) * np.linalg.inv(simplex_gram(s, g))
        idx = [eidx[(s[0], v)] for v in s[1:]]
        M[np.ix_(idx, idx)] += W
    D = np.array(boundary_matrix(X, 1), dtype=float).T
    u, *_ = np.linalg.lstsq(D.T @ M @ D, D.T @ (M @ w), rcond=None)
    eta = harmonic_representative(X, g, w)
    assert np.abs(eta.values - (w - D @ u)).max() <= 1e-9


@pytest.mark.parametrize("mesh, valid", [("grid_t2", 6), ("hex_t2", 5), ("grid_t3", 5),
                                         ("fcc_t3", 1), ("circle_times_rp2", 6)])
def test_harmonic_solve_matches_sparse_reference(mesh, valid, request):
    """The per-top assembly gives the forms, Gram and inverse Gram of the
    sparse normal equations (`reference.harmonic_forms`) to 1e-12, flat
    and at +-10% seeds 0-4; a degenerate perturbation raises in both.
    valid metrics of the six are not degenerate (on FCC T^3 s=3 every
    +-10% one is)."""
    X, g = request.getfixturevalue(mesh)
    cycles, cocycles, _ = h1_dual_bases(X)
    d0 = np.array(boundary_matrix(X, 1), dtype=float).T
    omega = np.asarray(cocycles[0], dtype=float) + d0 @ np.random.default_rng(
        0).normal(size=X.n_vertices)
    solved = 0
    for gm in [g] + [perturb_metric(g, 0.1, seed=k) for k in range(5)]:
        if not validate(X, gm).metric_ok:
            for solve in (period_gram, lambda X, g: harmonic_forms(X, g, cocycles)):
                with pytest.raises(MetricError):
                    solve(X, gm)
            continue
        solved += 1
        G, Gi, etas = period_gram(X, gm)
        E_ref, G_ref = harmonic_forms(X, gm, cocycles)
        E = np.array([eta.values for eta in etas])
        assert np.abs(E - E_ref).max() <= 1e-12 * np.abs(E_ref).max()
        assert np.abs(G - G_ref).max() <= 1e-12 * np.abs(G_ref).max()
        Gi_ref = np.linalg.inv(G_ref)
        assert np.abs(Gi - Gi_ref).max() <= 1e-12 * np.abs(Gi_ref).max()
        eta = harmonic_representative(X, gm, omega).values
        eta_ref = harmonic_forms(X, gm, omega)[0][0]
        assert np.abs(eta - eta_ref).max() <= 1e-12 * np.abs(eta_ref).max()
    assert solved == valid


def test_degenerate_top_raises_metric_error(grid_t2):
    X, g = grid_t2
    f = circle_map(X, g, harmonic_representative(X, g, cocycle_form(X, g)))
    bad = PLMetric({e: (10.0 if e == X.edges[0] else l) for e, l in g.items()})
    with pytest.raises(MetricError):
        period_gram(X, bad)
    with pytest.raises(MetricError):
        sweep(X, bad, f)


def test_continuum_layer_fcc_s8_within_five_seconds():
    """period_gram, circle_map and sweep on the 3072-tet FCC 3-torus; the
    flat torus has a constant profile.  Run in a subprocess so a slow path
    fails."""
    code = """
import json, time
import numpy as np
from sysgeo.generators import gen_flat_torus
from sysgeo.hodge import circle_map, period_gram, shortest_form, sweep
from sysgeo.homology import h1_dual_bases
X, g, _ = gen_flat_torus(np.array([[0., 1, 1], [1, 0, 1], [1, 1, 0]]), 8)
h1_dual_bases(X)
t0 = time.perf_counter()
G, _, etas = period_gram(X, g)
data = sweep(X, g, circle_map(X, g, shortest_form(G, etas)[1]))
print(json.dumps([X.n_simplices(3), time.perf_counter() - t0, data.coarea_integral,
                  data.profile_integral, data.min_volume]))
"""
    src = str(pathlib.Path(sysgeo.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=120, check=True, env=env)
    tops, seconds, coarea, integral, smin = json.loads(out.stdout)
    assert tops == 3072
    assert seconds < 5.0
    assert integral == pytest.approx(coarea, rel=1e-12)
    assert smin == pytest.approx(coarea, rel=1e-9)
