import itertools
import json
import logging
import math
import os
import pathlib
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse import csgraph

import sysgeo
from sysgeo import hypersurface, systole
from sysgeo.generators import gen_circle, gen_flat_torus, gen_rp2, perturb_metric
from sysgeo.homology import z2_homology
from sysgeo.hypersurface import (
    _LP_TOL,
    _odd_loop_cover,
    _packing_bound,
    _separate,
    _solve_exact,
    dual_graph,
    min_hypersurface,
    sys_codim1_z2,
    witness_verify,
)
from sysgeo.simplicial import ComplexError, product_complex, validate
from sysgeo.systole import sysh1
from sysgeo.verify import verify_inequality12

from reference import simplex_volume


def test_dual_graph_structure(grid_t3):
    X, g = grid_t3
    dg = dual_graph(X, g)
    assert len(dg.faces) == X.n_simplices(2)
    assert dg.cofacets.shape == (len(dg.faces), 2)
    assert (dg.weights > 0).all()


def test_dual_graph_rejects_boundary():
    from sysgeo.simplicial import PLMetric, SimplicialComplex
    X = SimplicialComplex(3, [(0, 1, 2)])
    g = PLMetric({e: 1.0 for e in X.edges})
    with pytest.raises(ComplexError):
        dual_graph(X, g)


def test_dual_graph_rejects_non_pseudomanifold():
    from sysgeo.simplicial import PLMetric, SimplicialComplex
    # a tetrahedron boundary with a fin on edge (0, 1)
    X = SimplicialComplex(5, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3), (0, 1, 4)])
    g = PLMetric({e: 1.0 for e in X.edges})
    with pytest.raises(ComplexError, match=r"^3 faces without exactly two cofacets; "
                       r"closed pseudomanifold required \(first: \(0, 1\)\)$"):
        dual_graph(X, g)


def test_dual_graph_matches_face_dictionary(grid_t3, circle_times_rp2, rp2_unit_area):
    for X, g in (grid_t3, circle_times_rp2, rp2_unit_area):
        dg = dual_graph(X, g)
        index = {f: i for i, f in enumerate(X.simplices(X.dim - 1))}
        cof = [[] for _ in index]
        for t, s in enumerate(X.simplices(X.dim)):
            for i in range(len(s)):
                cof[index[s[:i] + s[i + 1:]]].append(t)
        assert dg.cofacets.tolist() == cof
        assert dg.weights.tolist() == [simplex_volume(f, g) for f in dg.faces]


def test_unit_3torus_class_area(grid_t3):
    X, g = grid_t3
    res = min_hypersurface(X, g, (1, 0, 0), timeout=60)
    assert res.exact
    assert res.value == pytest.approx(1.0, rel=1e-9)
    ok, weight = witness_verify(X, g, res.faces, (1, 0, 0))
    assert ok
    assert weight == pytest.approx(res.value, rel=1e-12)


def test_heuristic_upper_bounds_exact(grid_t3):
    # the pruned minimum over classes equals the minimum of the classes
    # solved one by one to exactness, and no class goes below it
    X, g = grid_t3
    gp = perturb_metric(g, 0.05, seed=3)
    sv = sys_codim1_z2(X, gp, timeout=60)
    hz = z2_homology(X, 2)
    exact = []
    for combo in itertools.product((0, 1), repeat=hz.dim):
        if any(combo):
            res = min_hypersurface(X, gp, combo, timeout=60)
            assert res.exact
            exact.append(res.value)
            assert sv.value <= res.value + 1e-9
    assert sv.exactness == "exact"
    assert sv.value == pytest.approx(min(exact), rel=1e-9)


def test_sys_codim1_unit_3torus_heuristic(grid_t3):
    X, g = grid_t3
    res = sys_codim1_z2(X, g, timeout=5)
    # each coordinate 2-torus slice has area 1, and no class goes below it
    assert res.value == pytest.approx(1.0, rel=1e-9)
    assert res.exactness == "exact"


def test_scaled_grid_torus_cross_section():
    X, g, _ = gen_flat_torus(3 * np.eye(3), 3)
    res = sys_codim1_z2(X, g, timeout=5)
    assert res.value == pytest.approx(9.0, rel=1e-9)  # m^2 for m = 3
    assert res.exactness == "exact"


def test_fcc_torus_heuristic_finds_sqrt3(fcc_t3):
    """FCC T^3 s=3: the systole sqrt(3) = covol * lambda1(L*), certified.

    The degree-2 basis (`z2_homology(X, 2)`) comes from the dual
    presentation: face sets read off the Z2 cocycles of the dual
    2-complex.  The value does not depend on it: it comes from the exact
    solve of the lightest class and the packing bounds of the pruned ones,
    and the representatives only set the order of the classes and the
    cycles kept by pruned ones.
    """
    X, g = fcc_t3
    res = sys_codim1_z2(X, g, timeout=30)
    assert res.value == pytest.approx(math.sqrt(3.0), abs=1e-9)
    assert res.exactness == "exact"


def test_surface_case_equals_homology_systole(grid_t2, hex_t2):
    for X, g in (grid_t2, hex_t2):
        res = sys_codim1_z2(X, g, timeout=30)
        assert res.exactness == "exact"
        ref = sysh1(X, g, "Z2")
        assert res.value == pytest.approx(ref.value, rel=1e-9)


def test_rp2_codim1_equals_homology_systole(rp2_unit_edges):
    X, g = rp2_unit_edges
    res = sys_codim1_z2(X, g, timeout=30)
    assert res.value == pytest.approx(3.0, abs=1e-12)


def test_sphere_trivial_codim1(sphere_s3):
    X, g = sphere_s3
    res = sys_codim1_z2(X, g, timeout=10)
    assert math.isinf(res.value)
    assert res.exactness == "exact"


def test_witness_verify_rejects_wrong_class(grid_t3):
    X, g = grid_t3
    res = min_hypersurface(X, g, (1, 0, 0), timeout=60)
    ok, _ = witness_verify(X, g, res.faces, (0, 1, 0))
    assert not ok


def test_witness_verify_rejects_noncycle(grid_t3):
    X, g = grid_t3
    single = [X.simplices(2)[0]]  # one triangle is never a 2-cycle here
    ok, _ = witness_verify(X, g, single, (1, 0, 0))
    assert not ok


def test_witness_verify_odd_boundary_and_unknown_faces(grid_t3):
    X, g = grid_t3
    res = min_hypersurface(X, g, (1, 0, 0), timeout=60)
    faces = list(res.faces)
    # adding the boundary of a tetrahedron keeps the cycle and its class
    tet = X.simplices(3)[0]
    bd = [tet[:k] + tet[k + 1:] for k in range(4)]
    ok, weight = witness_verify(X, g, faces + bd, (1, 0, 0))
    assert ok
    ref = sum(simplex_volume(f, g) for f in set(faces) ^ set(bd))
    assert weight == pytest.approx(ref, rel=1e-12)
    # three faces of it leave every edge of the fourth on one face only
    assert witness_verify(X, g, faces + bd[:3], (1, 0, 0)) == (False, 0.0)
    # a face listed twice cancels, which leaves an odd boundary
    assert witness_verify(X, g, faces + faces[:1], (1, 0, 0)) == (False, 0.0)
    assert witness_verify(X, g, faces + [(0, 1, 2, 3)], (1, 0, 0)) == (False, 0.0)
    assert witness_verify(X, g, faces + [(0, 1)], (1, 0, 0)) == (False, 0.0)
    missing = next(f for f in itertools.combinations(range(X.n_vertices), 3)
                   if not X.has_simplex(f))
    assert witness_verify(X, g, faces + [missing], (1, 0, 0)) == (False, 0.0)


def test_scaling_covariance(grid_t2):
    X, g = grid_t2
    a = sys_codim1_z2(X, g, timeout=30).value
    b = sys_codim1_z2(X, g.scaled(2.0), timeout=30).value
    assert b == pytest.approx(2.0 * a, rel=1e-9)


def test_exact_falls_back_to_milp_on_fractional_relaxation(sphere_s3):
    # dual graph K5 with every face odd: y = 1/3 meets every odd triangle,
    # so the relaxation is 10/3 * a while the best cut leaves 4 faces
    X, g = sphere_s3
    dg = dual_graph(X, g)
    a = math.sqrt(3.0) / 4.0
    z0 = np.ones(len(dg.faces), dtype=np.uint8)
    value, lower, cut, exact, info = _solve_exact(dg, z0, 30.0)
    assert info["path"] == "milp"
    assert info["packing_bound"] == pytest.approx(10.0 / 3.0 * a, rel=1e-9)
    assert exact
    assert value == pytest.approx(4.0 * a, rel=1e-12)
    assert lower == value
    assert int(cut.sum()) == 4


@pytest.mark.parametrize("weights, z0, best, first", [
    ((1.0, 2.0, 5.0), (1, 0, 0), 1.0, [0, 1]),
    ((1.0, 2.0, 5.0), (1, 1, 0), 3.0, [0, 2]),
    # faces 0 and 1 tie inside one edge group
    ((1.0, 1.0, 5.0), (1, 1, 0), 2.0, [0, 2]),
], ids=["z00-1.0", "z01-3.0", "tie-2.0"])
def test_exact_keeps_parallel_faces_apart(weights, z0, best, first):
    # two tops glued along three faces: the cover must not merge them;
    # the stand-in complex only hosts the per-complex cover cache
    dg = SimpleNamespace(complex=SimpleNamespace(), n_tops=2, faces=[0, 1, 2],
                         cofacets=np.array([[0, 1]] * 3),
                         weights=np.array(weights))
    z0 = np.array(z0, dtype=np.uint8)
    value, lower, cut, exact, info = _solve_exact(dg, z0, 10.0)
    assert (exact, info["path"]) == (True, "lp")
    assert value == best == float(dg.weights @ cut)
    # at y = 0 every face ties: each group is crossed by its lowest face
    rows = _separate(dg, _odd_loop_cover(dg, z0), np.zeros(3), 0.0)
    assert [f.tolist() for f, _ in rows] == [first]
    # z0 = 0 has no faces, so no roots and no odd loop
    zero = np.zeros(3, dtype=np.uint8)
    assert _separate(dg, _odd_loop_cover(dg, zero), np.zeros(3), 0.0) == []


def _midpoint_cover(dg, z0):
    """Double cover with every face edge subdivided at a midpoint: the
    reference for `_odd_loop_cover`.  Face f = (u, v) lifts to
    (u, s) - (v, s ^ z0_f) through node 2T + f + s*F."""
    T, F = dg.n_tops, len(dg.faces)
    u, v = dg.cofacets[:, 0], dg.cofacets[:, 1]
    z = z0.astype(np.int64)
    f = np.arange(F)
    m0, m1 = 2 * T + f, 2 * T + F + f
    src = np.concatenate([u, m0, u + T, m1])
    dst = np.concatenate([m0, v + z * T, m1, v + (1 - z) * T])
    src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
    N = 2 * T + 2 * F
    E = sparse.csr_matrix((np.arange(1.0, len(src) + 1), (src, dst)), shape=(N, N))
    return E, np.tile(f, 8)[E.data.astype(np.int64) - 1]


def _midpoint_separate(dg, cover, y, tilt, roots=None):
    """Odd-loop rows read walk by walk off the midpoint cover, one Dijkstra
    source per root (every top by default), each walk kept once: the
    reference for `_separate`."""
    T, F = dg.n_tops, len(dg.faces)
    E, face = cover
    roots = np.arange(T) if roots is None else roots
    y = np.maximum(y, 0.0)
    lengths = y + tilt * dg.weights / dg.weights.max()
    G = sparse.csr_matrix((0.5 * lengths[face], E.indices, E.indptr), shape=E.shape)
    dist, pred = csgraph.dijkstra(G, indices=roots, return_predecessors=True,
                                  limit=1.0 if tilt == 0 else np.inf)
    rows, seen = [], set()
    for i in np.flatnonzero(np.isfinite(dist[np.arange(len(roots)), roots + T])):
        t = roots[i]
        walk, node = [], t + T
        while node != t:
            node = pred[i, node]
            if node >= 2 * T:
                walk.append((node - 2 * T) % F)
        faces, counts = np.unique(walk, return_counts=True)
        key = (faces.tobytes(), counts.tobytes())
        if counts @ y[faces] < 1.0 - _LP_TOL and key not in seen:
            seen.add(key)
            rows.append((faces, counts))
    return rows


@pytest.fixture(scope="module")
def separation_inputs(circle_times_rp2, fcc_t3, grid_t3):
    X, g = grid_t3
    return {"S1xRP2": circle_times_rp2, "fcc-s3": fcc_t3,
            "cube-s3-p1": (X, perturb_metric(g, 0.1, seed=1))}


@pytest.mark.parametrize("mesh", ["S1xRP2", "fcc-s3", "cube-s3-p1"])
def test_separation_matches_midpoint_cover(mesh, separation_inputs):
    X, g = separation_inputs[mesh]
    dg = dual_graph(X, g)
    rng = np.random.default_rng(7)
    for combo, z0 in _classes(X, dg):
        cover, ref_cover = _odd_loop_cover(dg, z0), _midpoint_cover(dg, z0)
        roots = np.unique(dg.cofacets[z0 == 1])
        assert cover[-1].tolist() == roots.tolist()
        # generic lengths: every shortest walk is unique, so the rows of
        # the same roots agree
        for scale in (0.1, 0.25, 0.5):
            y = scale * rng.random(len(dg.faces))
            for tilt in (0.1, 0.0):
                rows = _separate(dg, cover, y, tilt)
                ref = _midpoint_separate(dg, ref_cover, y, tilt, roots)
                # a row is a walk from (r, 0) to (r, 1) in z0's cover, so it
                # is odd on z0: the row pool relies on this to pool no row
                # twice
                assert all(c @ z0[f] % 2 == 1 for f, c in rows)
                assert [(f.tolist(), c.tolist()) for f, c in rows] == \
                    [(f.tolist(), c.tolist()) for f, c in ref]
            # the roots find a violated odd loop exactly when all sources do
            assert bool(rows) == bool(_midpoint_separate(dg, ref_cover, y, 0.0))
        # all lengths tied at 0: the walks may differ, not their existence
        y = np.zeros(len(dg.faces))
        rows = _separate(dg, cover, y, 0.0)
        assert bool(rows) == bool(_midpoint_separate(dg, ref_cover, y, 0.0))
        for faces, counts in rows:
            degree = np.bincount(dg.cofacets[faces].ravel(),
                                 weights=np.repeat(counts, 2), minlength=dg.n_tops)
            assert not (degree % 2).any()
            assert counts @ z0[faces] % 2 == 1
            assert counts @ y[faces] < 1.0
        # a walk found from two roots is returned once
        keys = {(f.tobytes(), c.tobytes()) for f, c in rows}
        assert len(keys) == len(rows)


@pytest.mark.parametrize("mesh", ["fcc-s3", "S1xRP2"])
def test_separation_rooted_at_reference_tops(mesh, separation_inputs, monkeypatch):
    # every Dijkstra of a solve starts from the tops of z0's faces only,
    # and a class solved by the LP stops at the round that makes it exact
    X, g = separation_inputs[mesh]
    dg = dual_graph(X, g)
    sources, separations = [], []
    dijkstra, separate = csgraph.dijkstra, hypersurface._separate

    def spy_dijkstra(*args, **kwargs):
        sources.append(np.asarray(kwargs["indices"]).tolist())
        return dijkstra(*args, **kwargs)

    def spy_separate(*args):
        rows = separate(*args)
        separations.append(len(rows))
        return rows

    monkeypatch.setattr(hypersurface.csgraph, "dijkstra", spy_dijkstra)
    monkeypatch.setattr(hypersurface, "_separate", spy_separate)
    paths = []
    for _, z0 in _classes(X, dg):
        sources.clear()
        separations.clear()
        _, _, _, exact, info = _solve_exact(dg, z0, 60.0)
        roots = np.unique(dg.cofacets[z0 == 1]).tolist()
        assert exact
        assert len(sources) == len(separations) >= 1
        assert all(s == roots for s in sources)
        assert 1 <= info["roots"] == len(roots) < dg.n_tops
        # each round has one pass that finds rows; an empty tilted pass
        # before it falls back to an untilted one
        assert sum(n > 0 for n in separations) == info["rounds"]
        if info["path"] == "lp":
            # no empty pass after the round that made the class exact
            assert separations[-1] > 0
        paths.append(info["path"])
    assert "lp" in paths


@pytest.mark.parametrize("mesh", ["fcc-s3", "S1xRP2"])
def test_separation_chunks_keep_rows_and_seen(mesh, separation_inputs, monkeypatch):
    # one root per Dijkstra gives the rows and their order of one Dijkstra
    # from every root, each row once
    X, g = separation_inputs[mesh]
    dg = dual_graph(X, g)
    rng = np.random.default_rng(11)
    cases = [(z0, 0.25 * rng.random(len(dg.faces)), tilt)
             for _, z0 in _classes(X, dg) for tilt in (0.1, 0.0)]
    whole = [_separate(dg, _odd_loop_cover(dg, z0), y, tilt) for z0, y, tilt in cases]
    sources = []
    dijkstra = csgraph.dijkstra

    def spy_dijkstra(*args, **kwargs):
        sources.append(len(kwargs["indices"]))
        return dijkstra(*args, **kwargs)

    monkeypatch.setattr(systole, "_DIST_ENTRIES", 1)
    monkeypatch.setattr(hypersurface.csgraph, "dijkstra", spy_dijkstra)
    assert any(whole)
    for (z0, y, tilt), rows in zip(cases, whole):
        sources.clear()
        chunked = _separate(dg, _odd_loop_cover(dg, z0), y, tilt)
        assert sources == [1] * len(np.unique(dg.cofacets[z0 == 1]))
        assert [(f.tolist(), c.tolist()) for f, c in chunked] == \
            [(f.tolist(), c.tolist()) for f, c in rows]
        keys = {(f.tobytes(), c.tobytes()) for f, c in chunked}
        assert len(keys) == len(chunked)


def _pool_input(mesh, seed):
    """A fresh complex of the named mesh with its flat metric, or that
    metric perturbed by +-5% with the given seed."""
    if mesh == "S1xRP2":
        X, g = product_complex(*gen_circle(4, 1.0), *gen_rp2())
    else:
        basis = np.eye(3) if mesh == "cube-s3" else np.array(
            [[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
        X, g, _ = gen_flat_torus(basis, 3)
    return X, g if seed is None else perturb_metric(g, 0.05, seed=seed)


@pytest.mark.parametrize("seed", [None, 0, 1, 2], ids=["flat", "p0", "p1", "p2"])
@pytest.mark.parametrize("mesh", ["fcc-s3", "cube-s3", "S1xRP2"])
def test_row_pool_keeps_every_class_value(mesh, seed):
    X, g = _pool_input(mesh, seed)
    if not validate(X, g).metric_ok:
        pytest.skip("degenerate metric")
    # the reference: every class solved alone to exactness, with no pool
    ref = {}
    for combo, _ in _classes(X, dual_graph(X, g)):
        res = min_hypersurface(X, g, combo, timeout=60)
        assert res.exact
        ref[combo] = res.value
    best = min(ref.values())
    sv = sys_codim1_z2(X, g, timeout=60)
    assert sv.value == pytest.approx(best, rel=1e-12, abs=0.0)
    assert sv.exactness == "exact"
    assert ref[sv.witness["class"]] == pytest.approx(best, rel=1e-12, abs=0.0)
    records = sv.provenance["classes"]
    assert sum(r["seeded"] for r in records) > 0
    for r in records:
        assert r["lower_bound"] <= ref[r["class"]] + 1e-9
        assert 0 <= r["seeded"] <= r["cuts"]
        if r["pruned"]:
            assert r["lower_bound"] >= sv.value * (1 - 1e-9)
    # the pool lives within one call: a fresh complex gives the same records
    assert sys_codim1_z2(*_pool_input(mesh, seed), timeout=60).provenance["classes"] == records


@pytest.mark.parametrize("mesh", ["fcc-s3", "S1xRP2", "cube-s3-p1"])
def test_pooled_rows_are_odd_on_the_class(mesh, separation_inputs, monkeypatch):
    X, g = separation_inputs[mesh]
    dg = dual_graph(X, g)
    calls = []
    solve = hypersurface._solve_exact

    def spy(dg, z0, timeout, cutoff=math.inf, pool=None):
        # the pool's rows as the class finds them
        rows = pool.rows
        out = solve(dg, z0, timeout, cutoff, pool)
        calls.append((rows, np.array(z0), out[4]))
        return out

    monkeypatch.setattr(hypersurface, "_solve_exact", spy)
    sys_codim1_z2(X, g, timeout=60)
    assert len(calls) == 2 ** z2_homology(X, 2).dim - 1
    parities = [(rows @ z0.astype(np.int64)) & 1 for rows, z0, _ in calls]
    assert any(parity.any() for parity in parities)
    for (rows, z0, info), parity in zip(calls, parities):
        keys = set()
        for i in range(rows.shape[0]):
            faces = rows.indices[rows.indptr[i]:rows.indptr[i + 1]]
            counts = rows.data[rows.indptr[i]:rows.indptr[i + 1]]
            keys.add((faces.astype(np.int64).tobytes(), counts.tobytes()))
            if parity[i]:
                assert counts @ z0[faces] % 2 == 1
                degree = np.bincount(dg.cofacets[faces].ravel(),
                                     weights=np.repeat(counts, 2), minlength=dg.n_tops)
                assert not (degree % 2).any()
        # every pooled row appears once
        assert len(keys) == rows.shape[0]
        # a class that ran a round was seeded with exactly its odd pooled rows
        if info["rounds"]:
            assert info["seeded"] == parity.sum()


def test_row_pool_spares_separations_on_fcc_s3(monkeypatch):
    # FCC T^3 s=3: the pooled rows of the first classes prune five of the
    # six dominated classes with no Dijkstra, so the call separates at
    # most 5 times (10 without the pool) and builds at most 2 odd-loop
    # covers (7 without it)
    X, g = _pool_input("fcc-s3", None)
    separations, covers = [], []
    separate, build = hypersurface._separate, hypersurface._build_odd_loop_cover

    def spy_separate(*args):
        separations.append(1)
        return separate(*args)

    def spy_build(*args):
        covers.append(1)
        return build(*args)

    monkeypatch.setattr(hypersurface, "_separate", spy_separate)
    monkeypatch.setattr(hypersurface, "_build_odd_loop_cover", spy_build)
    sv = sys_codim1_z2(X, g, timeout=60)
    assert sv.exactness == "exact"
    assert sv.value == pytest.approx(math.sqrt(3.0), rel=1e-12)
    assert len(separations) <= 5 and len(covers) <= 2


@pytest.mark.parametrize("mesh, value, packed, solves, models", [
    ("fcc-s3", math.sqrt(3.0), 3, 6, 3),
    ("S1xRP2", 1.0, 1, 10, 2),
])
def test_pooled_packings_spare_cutting_plane_lps(mesh, value, packed, solves, models,
                                                 monkeypatch):
    # a class that the packings of the classes before it already bound at
    # the cutoff builds no LP model and solves none: FCC T^3 s=3 takes at
    # most 6 cutting-plane solves on 3 models (10 on 7 without the
    # packings), S^1 x RP^2 at most 10 on 2 (11 on 3)
    X, g = _pool_input(mesh, None)
    counts = {"solves": 0, "models": 0}
    init, solve = systole._HighsLP.__init__, systole._HighsLP.solve

    def spy_init(lp, *args):
        counts["models"] += args[-1] == "cutting-plane"
        init(lp, *args)

    def spy_solve(lp, *args):
        counts["solves"] += lp.name == "cutting-plane"
        return solve(lp, *args)

    monkeypatch.setattr(systole._HighsLP, "__init__", spy_init)
    monkeypatch.setattr(systole._HighsLP, "solve", spy_solve)
    sv = sys_codim1_z2(X, g, timeout=60)
    assert sv.exactness == "exact"
    assert sv.value == pytest.approx(value, rel=1e-12)
    records = sv.provenance["classes"]
    assert sum(r["rounds"] == 0 for r in records) >= packed
    assert counts["solves"] <= solves and counts["models"] <= models
    for r in records:
        if r["rounds"] == 0:
            assert r["pruned"] and r["cuts"] == r["seeded"] == 0
            assert r["lower_bound"] >= sv.value * (1 - 1e-9)


@pytest.mark.parametrize("seed", [None, 0, 1, 2], ids=["flat", "p0", "p1", "p2"])
@pytest.mark.parametrize("mesh", ["fcc-s3", "cube-s3", "S1xRP2"])
def test_pooled_packing_bounds_are_valid(mesh, seed, monkeypatch):
    X, g = _pool_input(mesh, seed)
    if not validate(X, g).metric_ok:
        pytest.skip("degenerate metric")
    dg = dual_graph(X, g)
    ref = {combo: min_hypersurface(X, g, combo, timeout=60).value
           for combo, _ in _classes(X, dg)}
    pools = []

    class Pool(hypersurface._RowPool):
        def __init__(self, n_faces):
            super().__init__(n_faces)
            pools.append(self)

    monkeypatch.setattr(hypersurface, "_RowPool", Pool)
    sv = sys_codim1_z2(X, g, timeout=60)
    for r in sv.provenance["classes"]:
        if r["rounds"] == 0:
            assert r["lower_bound"] <= ref[r["class"]] + 1e-9
    # every packing of the call, on the pooled rows odd on any class,
    # bounds that class from below
    (pool,) = pools
    assert pool.packings.shape == (pool.rows.shape[0], sum(
        r["rounds"] > 0 for r in sv.provenance["classes"]))
    for combo, z0 in _classes(X, dg):
        odd = (pool.rows @ z0) & 1
        assert _packing_bound(pool.rows, pool.packings * odd[:, None],
                              dg.weights) <= ref[combo] + 1e-9


@pytest.mark.parametrize("mesh, pinned", [
    ("fcc-s3", {(0, 0, 1): ("pruned", 0, 0, 0), (0, 1, 0): ("pruned", 0, 0, 0),
                (0, 1, 1): ("pruned", 1, 26, 0), (1, 0, 0): ("lp", 4, 103, 0),
                (1, 0, 1): ("pruned", 0, 0, 0), (1, 1, 0): ("pruned", 1, 22, 22),
                (1, 1, 1): ("pruned", 0, 0, 0)}),
    ("S1xRP2", {(0, 1): ("lp", 7, 112, 0), (1, 0): ("pruned", 3, 91, 27),
                (1, 1): ("pruned", 0, 0, 0)}),
])
def test_row_pool_records_are_pinned(mesh, pinned):
    # the (path, rounds, cuts, seeded) of every class of one call; seeding
    # a class with the pooled rows even on it as well changes them
    X, g = _pool_input(mesh, None)
    records = sys_codim1_z2(X, g, timeout=60).provenance["classes"]
    assert {r["class"]: (r["path"], r["rounds"], r["cuts"], r["seeded"])
            for r in records} == pinned


def test_min_hypersurface_without_pool_keeps_its_rounds():
    # a class solved alone starts from no row and no packing
    for mesh, rows in [("fcc-s3", {(0, 0, 1): (1, 18), (1, 0, 1): (5, 138),
                                   (1, 1, 1): (21, 532)}),
                       ("S1xRP2", {(0, 1): (7, 112), (1, 0): (9, 296), (1, 1): (13, 419)})]:
        X, g = _pool_input(mesh, None)
        for combo, (rounds, cuts) in rows.items():
            info = min_hypersurface(X, g, combo, timeout=60).info
            assert (info["path"], info["rounds"], info["cuts"], info["seeded"]) == \
                ("lp", rounds, cuts, 0)


def test_fcc_t3_diagonal_class_exact(fcc_t3):
    X, g = fcc_t3
    res = min_hypersurface(X, g, (1, 1, 1), timeout=60)
    assert res.exact
    assert res.value == pytest.approx(4.560478, rel=1e-6)
    assert res.info["path"] == "lp"


def test_exact_deadline_keeps_an_incumbent(fcc_t3):
    # the deadline passes before any LP round or MILP point: the reference
    # cycle comes back as an upper bound, checked by witness_verify
    X, g = fcc_t3
    res = min_hypersurface(X, g, (1, 1, 1), timeout=1e-6)
    assert not res.exact
    assert res.lower_bound <= res.value
    assert res.value >= 4.560478 - 1e-6
    ok, weight = witness_verify(X, g, res.faces, (1, 1, 1))
    assert ok and weight == pytest.approx(res.value, rel=1e-12)
    sv = sys_codim1_z2(X, g, timeout=1e-6)
    assert sv.exactness == "upper-bound"


def test_fcc_s4_diagonal_class_fast():
    """FCC T^3 at s=4 (384 tets), class (1,1,1): the cutting-plane LP is
    re-optimised from its last basis each round, so the class is exact in
    well under the 30 s the subprocess gets."""
    code = """
import json
import numpy as np
from sysgeo.generators import gen_flat_torus
from sysgeo.hypersurface import min_hypersurface
X, g, _ = gen_flat_torus(np.array([[0., 1, 1], [1, 0, 1], [1, 1, 0]]), 4)
res = min_hypersurface(X, g, (1, 1, 1), timeout=120)
print(json.dumps([X.n_simplices(3), res.value, res.lower_bound, res.exact]))
"""
    src = str(pathlib.Path(sysgeo.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=30, check=True, env=env)
    tops, value, lower, exact = json.loads(out.stdout)
    assert tops == 384
    assert exact
    assert value == pytest.approx(4.560478, rel=1e-6)
    assert lower == value


def test_fcc_s4_systole_certified_fast():
    """FCC T^3 at s=4 (384 tets): the lightest class is solved exactly and
    the other six are pruned against it after one round each, so the
    systole sqrt(3) is certified well within the 10 s the subprocess gets;
    solving every class to exactness takes several times longer."""
    code = """
import json
import numpy as np
from sysgeo.generators import gen_flat_torus
from sysgeo.hypersurface import sys_codim1_z2
X, g, _ = gen_flat_torus(np.array([[0., 1, 1], [1, 0, 1], [1, 1, 0]]), 4)
sv = sys_codim1_z2(X, g, timeout=120)
print(json.dumps([sv.value, sv.exactness, [c["pruned"] for c in sv.provenance["classes"]]]))
"""
    src = str(pathlib.Path(sysgeo.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=10, check=True, env=env)
    value, exactness, pruned = json.loads(out.stdout)
    assert value == pytest.approx(math.sqrt(3.0), abs=1e-9)
    assert exactness == "exact"
    assert sum(pruned) == 6


@pytest.fixture(scope="module")
def pruning_inputs(grid_t3, fcc_t3, circle_times_rp2):
    X, g = grid_t3
    return {"cube-s3": grid_t3, "fcc-s3": fcc_t3, "S1xRP2": circle_times_rp2,
            "cube-s3-p1": (X, perturb_metric(g, 0.05, seed=1)),
            "cube-s3-p2": (X, perturb_metric(g, 0.05, seed=2))}


@pytest.mark.parametrize("mesh", ["cube-s3", "fcc-s3", "S1xRP2", "cube-s3-p1", "cube-s3-p2"])
def test_pruned_systole_matches_unpruned(mesh, pruning_inputs):
    X, g = pruning_inputs[mesh]
    dg = dual_graph(X, g)
    classes = list(_classes(X, dg))
    unpruned = []
    for _, z0 in classes:
        value, _, _, exact, _ = _solve_exact(dg, z0, 60.0)
        assert exact
        unpruned.append(value)
    sv = sys_codim1_z2(X, g, timeout=60)
    assert sv.value == pytest.approx(min(unpruned), abs=1e-9)
    assert sv.exactness == "exact"
    records = sv.provenance["classes"]
    # lexicographic class order, whatever order the classes were solved in
    assert [r["class"] for r in records] == [c for c, _ in classes]
    assert any(r["pruned"] for r in records)
    for r, (combo, z0) in zip(records, classes):
        assert r["pruned"] == (r["path"] == "pruned")
        if not r["pruned"]:
            assert r["exact"] and r["lower_bound"] == r["value"]
            continue
        assert not r["exact"]
        assert r["class"] != sv.witness["class"]
        assert r["lower_bound"] >= sv.value * (1 - 1e-9)
        assert r["value"] >= r["lower_bound"]
        # a pruned class keeps its reference cycle, a real cycle of the class
        ok, weight = witness_verify(X, g, [dg.faces[f] for f in np.flatnonzero(z0)], combo)
        assert ok and weight == pytest.approx(r["value"], rel=1e-12)


def test_exact_solve_logs_every_round(grid_t3, caplog):
    X, g = grid_t3
    with caplog.at_level(logging.DEBUG, logger="sysgeo.hypersurface"):
        res = min_hypersurface(X, g, (1, 0, 0), timeout=60)
    rounds = [r for r in caplog.records if r.getMessage().startswith("round ")]
    assert res.info["rounds"] >= 1
    assert len(rounds) == res.info["rounds"]
    assert all(r.levelno == logging.DEBUG for r in rounds)
    assert "cutoff inf" in rounds[-1].getMessage()
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="sysgeo.hypersurface"):
        sv = sys_codim1_z2(X, g, timeout=60)
    assert [r.levelno for r in caplog.records] == [logging.INFO] * 7
    assert {r.getMessage().split(":")[0] for r in caplog.records} == {
        f"class {tuple(c['class'])}" for c in sv.provenance["classes"]}


def _brute_force(dg, z0):
    """Minimum weight of z0 + boundary(x) over every x with x_0 = 0."""
    T = dg.n_tops
    bits = (np.arange(2 ** (T - 1))[:, None] >> np.arange(T - 1)) & 1
    x = np.hstack([np.zeros((len(bits), 1), dtype=np.int64), bits])
    cut = z0 ^ x[:, dg.cofacets[:, 0]] ^ x[:, dg.cofacets[:, 1]]
    return float((cut @ dg.weights).min())


def _perturbed_surface(mesh, seed):
    if mesh == "rp2":
        X, g = gen_rp2()
    else:
        basis = np.eye(2) if mesh == "square-s3" else np.array(
            [[1.0, 0.0], [0.5, math.sqrt(3.0) / 2.0]])
        X, g, _ = gen_flat_torus(basis, 3)
    return X, perturb_metric(g, 0.1, seed=seed)


def _classes(X, dg):
    """(class coordinates, reference cycle z0) of every nonzero class."""
    hz = z2_homology(X, X.dim - 1)
    for combo in itertools.product((0, 1), repeat=hz.dim):
        if not any(combo):
            continue
        z0 = np.zeros(len(dg.faces), dtype=np.int64)
        for i, c in enumerate(combo):
            if c:
                z0 ^= np.array(hz.cycle_reps[i], dtype=np.int64)
        yield combo, z0


@pytest.mark.parametrize("mesh", ["rp2", "square-s3", "hex-s3"])
@pytest.mark.parametrize("seed", [1, 2])
def test_exact_matches_enumeration(mesh, seed):
    X, g = _perturbed_surface(mesh, seed)
    dg = dual_graph(X, g)
    for combo, z0 in _classes(X, dg):
        best = _brute_force(dg, z0)
        value, lower, cut, exact, info = _solve_exact(dg, z0, 30.0)
        assert exact
        assert value == pytest.approx(best, rel=1e-9)
        assert lower <= value
        assert info["packing_bound"] <= best * (1 + 1e-12)


@pytest.mark.parametrize("mesh", ["rp2", "square-s3", "hex-s3"])
@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("hypersurface_mode", ["exact", "heuristic"])
def test_surface_walks_match_enumeration(mesh, seed, hypersurface_mode):
    X, g = _perturbed_surface(mesh, seed)
    dg = dual_graph(X, g)
    values = []
    for combo, z0 in _classes(X, dg):
        best = _brute_force(dg, z0)
        values.append(best)
        res = min_hypersurface(X, g, combo, timeout=30)
        assert res.exact
        assert res.info == {"rounds": 0, "cuts": 0, "seeded": 0, "roots": 0,
                            "path": "walks"}
        assert res.value == pytest.approx(best, rel=1e-9)
        assert res.lower_bound == res.value
        ok, weight = witness_verify(X, g, res.faces, combo)
        assert ok
        assert weight == pytest.approx(res.value, rel=1e-12)
    # both modes the report accepts run the one solver: the exact minimum
    rep = verify_inequality12(X, g, hypersurface_mode=hypersurface_mode)
    if rep.b1:
        assert rep.sys_codim1_exact
        assert rep.sys_codim1 == pytest.approx(min(values), rel=1e-9)
    else:  # RP^2: the product bound does not apply
        assert rep.sys_codim1 is None


def test_two_projective_planes_need_two_walks(two_rp2):
    # no single closed walk has the class of both equators: the minimum
    # over it is one equator in each copy, twice the single value
    R, gr = gen_rp2()
    single = sys_codim1_z2(R, gr).value
    X, g = two_rp2
    dg = dual_graph(X, g)
    hz = z2_homology(X, 1)
    half = X.n_vertices // 2
    # each basis cycle lies in one copy, so (1, 1) is the sum of both
    sides = [{int(v >= half) for i in np.flatnonzero(rep) for v in X.edges[i]}
             for rep in hz.cycle_reps]
    assert sorted(sides, key=min) == [{0}, {1}]
    values = {}
    for combo, z0 in _classes(X, dg):
        res = min_hypersurface(X, g, combo)
        ref = _solve_exact(dg, z0, 30.0)
        assert res.exact and ref[3]
        assert res.value == pytest.approx(ref[0], rel=1e-9)
        values[combo] = res.value
    assert values[(1, 1)] == pytest.approx(2 * single, rel=1e-12)
    assert values[(1, 0)] == values[(0, 1)] == pytest.approx(single, rel=1e-12)
    assert sysh1(X, g, "Z2").value == pytest.approx(sysh1(R, gr, "Z2").value,
                                                    rel=1e-12)


def test_surface_route_still_requires_closed_pseudomanifold():
    # a torus with one triangle removed still has H_1(Z2) of rank 2
    T, g, _ = gen_flat_torus(np.eye(2), 3)
    from sysgeo.simplicial import SimplicialComplex
    X = SimplicialComplex(T.n_vertices, T.maximal[1:])
    assert z2_homology(X, 1).dim == 2
    with pytest.raises(ComplexError, match="closed pseudomanifold"):
        min_hypersurface(X, g, (1, 0))


def test_unknown_mode_rejected_on_surfaces(grid_t2):
    X, g = grid_t2
    with pytest.raises(ComplexError, match="unknown mode 'fast'"):
        verify_inequality12(X, g, hypersurface_mode="fast")
