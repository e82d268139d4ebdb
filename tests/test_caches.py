"""The two caches of every stage: metric-free structure once per complex
(`simplicial._memo`) and metric geometry once per (X, g)
(`simplicial._metric_memo`).

A cached value must not depend on what ran before it, a failed solve
must leave nothing behind, and neither cache may hold a reference cycle
or hand out an array that a caller could change.
"""
import gc
import weakref

import numpy as np
import pytest
from scipy.sparse._base import _spbase as sparse_base

import sysgeo.hodge as hodge
import sysgeo.hypersurface as hypersurface
import sysgeo.simplicial as simplicial
import sysgeo.systole as systole
from sysgeo.generators import gen_flat_torus, perturb_metric
from sysgeo.simplicial import (
    ComplexError,
    MetricError,
    PLMetric,
    SimplicialComplex,
    _gram_stack,
    edge_lengths,
    top_geometry,
)
from sysgeo.hypersurface import sys_codim1_z2
from sysgeo.systole import stsys1
from sysgeo.verify import verify_inequality12

from conftest import FCC_BASIS, parallel_certificates

SURVEYS = [("square-T2-s4", np.eye(2), 4), ("fcc-T3-s3", FCC_BASIS, 3),
           ("cube-T3-s3", np.eye(3), 3)]


def _report(X, g):
    """The report's JSON, or the error of a rejected input."""
    try:
        return verify_inequality12(X, g, exact_timeout=30.0).to_json()
    except ComplexError as exc:
        return repr(exc)


def _fresh(basis, s, g):
    """A new complex and a new copy of the metric g on it."""
    return gen_flat_torus(basis, s)[0], PLMetric(dict(g.items()))


@pytest.mark.parametrize("name, basis, s", SURVEYS, ids=[c[0] for c in SURVEYS])
def test_reports_do_not_depend_on_metric_order(name, basis, s):
    # +-10% metrics, seeds 0..9, on one complex in order and in reverse,
    # against each metric alone on a fresh complex
    X, g, _ = gen_flat_torus(basis, s)
    metrics = [perturb_metric(g, 0.1, seed=k) for k in range(10)]
    forward = [_report(X, gp) for gp in metrics]
    Y = gen_flat_torus(basis, s)[0]
    backward = [_report(Y, gp) for gp in metrics[::-1]][::-1]
    fresh = [_report(*_fresh(basis, s, gp)) for gp in metrics]
    assert forward == backward == fresh
    # the inputs are not all rejected: at least one report per lattice but FCC
    assert name.startswith("fcc") or any(r.startswith("{") for r in forward)


def test_failed_floor_solve_leaves_model_unchanged(monkeypatch):
    X, g, _ = gen_flat_torus(np.eye(3), 3)
    g1, g2 = perturb_metric(g, 0.1, seed=3), perturb_metric(g, 0.1, seed=4)
    ref = stsys1(*_fresh(np.eye(3), 3, g2))
    stsys1(X, g1)  # the model holds another metric's bounds and basis
    floor, solve = systole._ComassLP.floor, systole._HighsLP.solve
    state = {"in_floor": False, "raised": 0}

    def failing_floor(lp, i):
        state["in_floor"] = True
        try:
            return floor(lp, i)
        finally:
            state["in_floor"] = False

    def failing_solve(lp, *args):
        if state["in_floor"] and not state["raised"]:
            state["raised"] += 1
            raise ComplexError("stable norm LP failed: injected")
        return solve(lp, *args)

    monkeypatch.setattr(systole._ComassLP, "floor", failing_floor)
    monkeypatch.setattr(systole._HighsLP, "solve", failing_solve)
    # stsys1 solves the floors only when its unit certificates are singular
    parallel_certificates(monkeypatch)
    with pytest.raises(ComplexError, match="injected"):
        stsys1(X, g2)
    assert state["raised"] == 1
    # the same binding: the floor freed the other periods again
    lp = systole._ComassLP(X, g2)
    state["raised"] = 0
    with pytest.raises(ComplexError, match="injected"):
        lp.floor(1)
    monkeypatch.undo()
    alpha = (1, 1, 0)
    assert lp.norm(alpha)[0].value == pytest.approx(
        systole._ComassLP(*_fresh(np.eye(3), 3, g2)).norm(alpha)[0].value, rel=1e-12)
    sv = stsys1(X, g2)
    assert sv.value == ref.value
    assert sv.witness[0] == ref.witness[0]
    assert np.array_equal(sv.witness[1][1], ref.witness[1][1])


def test_revisited_metric_gives_the_fresh_report():
    # binding a metric passes the model again and drops its basis, so g1
    # after g2 after g1 on one complex reads as g1 on a fresh complex;
    # stsys1 solves box classes here, from restored bases
    X, g, _ = gen_flat_torus(FCC_BASIS, 3)
    g1, g2 = perturb_metric(g, 0.02, seed=3), perturb_metric(g, 0.02, seed=4)
    first, _, again = (_report(X, gm) for gm in (g1, g2, g1))
    assert first.startswith("{")
    assert first == again == _report(*_fresh(FCC_BASIS, 3, g1))


def test_interleaved_metrics_rebind_the_model():
    # two live LPs of one complex share its model: each solve binds its
    # own metric again if the other has used the model since, and the
    # start basis kept from its last solve is restored after that
    # binding, so values, certificates, cycles and iteration counts equal
    # those of a fresh LP per solve, on a complex of its own, given the
    # same start
    X, g, _ = gen_flat_torus(np.eye(2), 4)
    metrics = [perturb_metric(g, 0.1, seed=1), g.scaled(2.0)]
    lps = [systole._ComassLP(X, gm) for gm in metrics]
    own = [gen_flat_torus(np.eye(2), 4)[0] for _ in metrics]

    def solve(lp, alpha, start):
        sn, cert = lp.norm(alpha, start)
        return (sn.value, cert.tobytes(), sn.cycle.tobytes(), lp.iterations), lp.lp.basis()

    starts = [None, None]
    for alpha in [(1, 0), (1, 1), (0, 1), (2, -1)]:
        for m, gm in enumerate(metrics):
            fresh, _ = solve(systole._ComassLP(own[m], gm), alpha, starts[m])
            shared, starts[m] = solve(lps[m], alpha, starts[m])
            assert shared == fresh


def test_dual_graph_and_surface_cuts_built_once_per_metric(monkeypatch):
    # both depend on (X, g): every class of one call and a second call
    # share them, a new metric builds its own, and nothing in them is
    # filled in or written after it is built
    X, g, _ = gen_flat_torus(np.eye(2), 4)
    g2 = g.scaled(2.0)
    built = []
    build = hypersurface._build_surface_cuts

    def counted_build(X, g):
        built.append(g)
        return build(X, g)

    monkeypatch.setattr(hypersurface, "_build_surface_cuts", counted_build)
    for gm in (g, g, g2):
        assert len(sys_codim1_z2(X, gm).provenance["classes"]) == 3
    assert len(built) == 2 and built[0] is g and built[1] is g2
    dg = hypersurface.dual_graph(X, g)
    assert hypersurface.dual_graph(X, g) is dg
    assert hypersurface.dual_graph(X, g2) is not dg
    assert dg.faces is X.simplices(1) and dg.cofacets is simplicial.cofacet_table(X)
    assert dg.weights is top_geometry(X, g, 1)[1]
    with pytest.raises(AttributeError):
        dg.weights = None
    cuts = hypersurface._surface_cuts(X, g)
    assert hypersurface._surface_cuts(X, g) is cuts and len(built) == 2
    with pytest.raises(ValueError):
        cuts[1, 0] = 1


def test_caches_hold_no_reference_cycle():
    gc.collect()
    gc.disable()
    try:
        X, g, _ = gen_flat_torus(np.eye(3), 3)
        g2 = g.scaled(1.5)
        for gm in (g, g2):
            verify_inequality12(X, gm)
        model = simplicial._memo(X, "comass", systole._comass_model)
        dg = hypersurface.dual_graph(X, g2)
        refs = [weakref.ref(o) for o in (X, g, g2, model, dg)]
        del X, g, g2, gm, model, dg
        assert [r() for r in refs] == [None] * 5
    finally:
        gc.enable()


def test_metric_arrays_are_shared_and_read_only(fcc_t3):
    X, g = fcc_t3
    g = g.scaled(1.0)  # a metric of its own, so no other test sees a write
    lengths = edge_lengths(X, g)
    assert edge_lengths(X, g) is lengths
    for k in range(1, X.dim + 1):
        gram = _gram_stack(X, g, k)
        geo = top_geometry(X, g, k)
        assert _gram_stack(X, g, k) is gram and geo[0] is gram
        assert all(a is b for a, b in zip(top_geometry(X, g, k), geo))
        for a in (gram, *geo):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0.0
    with pytest.raises(ValueError):
        lengths[0] = 1.0
    # another complex: the metric starts a cache for it
    Y = gen_flat_torus(FCC_BASIS, 3)[0]
    assert edge_lengths(Y, g) is not lengths
    assert np.array_equal(edge_lengths(Y, g), lengths)


def test_structure_arrays_are_read_only():
    # `_memo` freezes every array it caches, bare or in a tuple, and the
    # arrays of a sparse matrix; other values pass as they are
    X = gen_flat_torus(np.eye(2), 3)[0]
    ft, ct = simplicial.face_table(X, 1), simplicial.cofacet_table(X)
    G, ids, roots = simplicial._memo(X, "z2_cover", systole._z2_cover)
    slot, indices, indptr, _ = simplicial._memo(X, "stiffness", hodge._stiffness_plan)
    assert simplicial.face_table(X, 1) is ft and simplicial.cofacet_table(X) is ct
    for a in (ft, ct, G.data, G.indices, G.indptr, ids, roots, slot, indices, indptr):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0
    listed, zeros = simplicial._memo(X, "mixed", lambda X: ([1], np.zeros(2)))
    assert listed == [1] and not zeros.flags.writeable
    assert X.is_connected() is True


def test_laplacian_pattern_built_once_per_complex(monkeypatch):
    # the grounded Laplacian's pattern and scatter slots depend only on the
    # complex: ten metrics and their harmonic representatives share one
    # plan, and each solve builds one sparse matrix, the one it factorises
    X, g, _ = gen_flat_torus(np.eye(2), 4)
    plans, built, factored = [], [], []
    plan, init, splu = hodge._stiffness_plan, sparse_base.__init__, hodge.splu

    def counted_plan(X):
        plans.append(X)
        return plan(X)

    def counted_init(m, *args, **kwargs):
        built.append(m)
        init(m, *args, **kwargs)

    def counted_splu(A):
        factored.append(A)
        return splu(A)

    monkeypatch.setattr(hodge, "_stiffness_plan", counted_plan)
    hodge.period_gram(X, g)  # builds the plan and warms the homology caches
    monkeypatch.setattr(sparse_base, "__init__", counted_init)
    monkeypatch.setattr(hodge, "splu", counted_splu)
    for gm in [perturb_metric(g, 0.1, seed=k) for k in range(10)]:
        etas = hodge.period_gram(X, gm)[2]
        hodge.harmonic_representative(X, gm, etas[0].values)
        assert [id(m) for m in built] == [id(A) for A in factored] and len(built) == 2
        built.clear(), factored.clear()
    assert plans == [X]


def test_degenerate_simplex_raises_on_every_call():
    X = SimplicialComplex(3, [(0, 1, 2)])
    g = PLMetric({(0, 1): 1.0, (1, 2): 1.0, (0, 2): 2.0})
    for _ in range(2):
        with pytest.raises(MetricError, match="degenerate"):
            top_geometry(X, g, 2)
    assert not simplicial.validate(X, g).metric_ok


def test_verify_measures_once_and_builds_one_comass_model(monkeypatch):
    # per verification each Gram stack is built at most once per (X, g, k),
    # and across metrics the comass LP's HiGHS model is built once per complex
    X, g, _ = gen_flat_torus(np.eye(3), 3)
    grams, models = [], []
    build, init = simplicial._grams, systole._HighsLP.__init__

    def counted_grams(X, g, k):
        grams.append((id(g), k))
        return build(X, g, k)

    def counted_init(lp, *args):
        models.append(args[-1])
        init(lp, *args)

    monkeypatch.setattr(simplicial, "_grams", counted_grams)
    monkeypatch.setattr(systole._HighsLP, "__init__", counted_init)
    metrics = [perturb_metric(g, 0.05, seed=seed) for seed in (2, 3, 4)]
    for gm in metrics:
        verify_inequality12(X, gm)
    assert len(grams) == len(set(grams)) and len(grams) >= 6
    assert models.count("stable norm") == 1


def test_odd_loop_cover_built_once_per_complex_and_class(monkeypatch):
    # the twisted double cover depends only on the complex and the class:
    # a second metric on the same complex builds none and gets the per-class
    # records of a fresh complex; the cached arrays are read-only
    X, g, _ = gen_flat_torus(np.eye(3), 3)
    g1, g2 = perturb_metric(g, 0.1, seed=5), perturb_metric(g, 0.1, seed=6)
    ref = sys_codim1_z2(*_fresh(np.eye(3), 3, g2)).provenance["classes"]
    built = []
    build = hypersurface._build_odd_loop_cover

    def counted_build(dg, z0):
        built.append(z0.tobytes())
        return build(dg, z0)

    monkeypatch.setattr(hypersurface, "_build_odd_loop_cover", counted_build)
    sys_codim1_z2(X, g1)
    first = list(built)
    assert first and len(set(first)) == len(first)
    assert sys_codim1_z2(X, g2).provenance["classes"] == ref
    assert built == first
    dg = hypersurface.dual_graph(X, g2)
    z0 = np.frombuffer(first[0], dtype=np.uint8)
    cover = hypersurface._odd_loop_cover(dg, z0)
    assert cover is hypersurface._odd_loop_cover(dg, z0.copy())
    E, *arrays = cover
    for a in (E.data, E.indices, E.indptr, *arrays):
        with pytest.raises(ValueError):
            a[0] = 0
