import itertools
import logging
import math
import time

import numpy as np
import pytest
from scipy.optimize import linprog

import sysgeo.systole as systole
from sysgeo.generators import gen_flat_torus, gen_rp2, perturb_metric
from sysgeo.homology import h1_dual_bases, z2_homology
from sysgeo.simplicial import (
    ComplexError,
    CoverSpec,
    GroupTable,
    edge_lengths,
    edge_table,
    face_table,
    product_complex,
)
from sysgeo.systole import (
    SystoleValue,
    pisys1_upper,
    stable_norm,
    stsys1,
    sys1_aggregate,
    sysh1,
)

from conftest import HEX_BASIS, parallel_certificates
from reference import _shortest_nontrivial_loop, _z_labels, boundary_matrix


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


def _box_up_to_sign(box):
    """The nonzero classes of the box, first nonzero coordinate positive."""
    return [a for a in itertools.product(*[range(-m, m + 1) for m in box])
            if any(a) and next(x for x in a if x) > 0]


def _logged(records, head):
    return [r.args[0] for r in records if r.msg.split()[0] == head]


def _info(records):
    """The args of the one INFO line of `stsys1`."""
    (line,) = [r for r in records if r.levelno == logging.INFO]
    return line.args


def test_stsys1_solves_each_class_once(monkeypatch, caplog):
    _solves_each_class_once(False, monkeypatch, caplog)


def test_stsys1_solves_each_class_once_with_floors(monkeypatch, caplog):
    _solves_each_class_once(True, monkeypatch, caplog)


def _solves_each_class_once(floors, monkeypatch, caplog):
    # one comass LP serves every solve: each box class, up to sign, that
    # no certificate in hand prunes, and the b floors only when the unit
    # certificates are singular (forced here by parallel ones); the
    # complex is fresh, since its HiGHS model is built once per complex
    X, g, _ = gen_flat_torus(np.eye(2), 4)
    builds, solves, iterations = [], [], []
    init, solve = systole._HighsLP.__init__, systole._HighsLP.solve

    def counted_init(lp, *args):
        builds.append(args[-1])
        init(lp, *args)

    def counted_solve(lp, *args):
        solves.append(lp.name)
        out = solve(lp, *args)
        iterations.append(out[3])
        return out

    monkeypatch.setattr(systole._HighsLP, "__init__", counted_init)
    monkeypatch.setattr(systole._HighsLP, "solve", counted_solve)
    if floors:
        parallel_certificates(monkeypatch)
    with caplog.at_level(logging.DEBUG, logger="sysgeo.systole"):
        sv = stsys1(X, g)
        records, n_solves = caplog.records[:], len(solves)
        caplog.clear()
        # another metric on the same complex reuses the model
        sv2 = stsys1(X, g.scaled(2.0))
    monkeypatch.undo()
    solved, pruned = _logged(records, "solved"), _logged(records, "pruned")
    (box,) = _logged(records, "box")
    assert builds == ["stable norm"]
    assert len(solved) == len(set(solved))
    # the rest are the floors, run only when needed; the log counts them
    assert n_solves == len(solved) + floors * len(box)
    info = _info(records)
    assert (info[3], info[4], info[6]) == (
        n_solves, "solved" if floors else "not needed", len(pruned))
    # the summary totals the simplex iterations of every solve, and each
    # DEBUG line names the solve whose basis it started from: the first
    # from the slack basis, every other from a solve logged before it
    assert info[5] == sum(iterations[:n_solves]) > 0
    lines = [r.args for r in records if r.msg.split()[0] in ("solved", "floor")]
    assert [a[2] for a in lines] == iterations[:n_solves]
    assert lines[0][1] == "slack basis"
    names = [a[0] if isinstance(a[0], tuple) else f"floor {a[0]}" for a in lines]
    assert all(a[1] in names[:k] for k, a in enumerate(lines) if k)
    assert sorted(solved + pruned) == _box_up_to_sign(box)
    for alpha in pruned:
        assert stable_norm(X, g, alpha).value >= sv.value
    assert sv.value == pytest.approx(1.0, abs=1e-9)
    # the scaled metric: no build, the same solves, twice the value
    assert len(solves) == 2 * n_solves
    assert _logged(caplog.records, "solved") == solved
    assert _logged(caplog.records, "pruned") == pruned
    assert sv2.value == pytest.approx(2.0 * sv.value, rel=1e-12)


@pytest.mark.parametrize("name", ["grid_t2", "hex_t2", "fcc_t3", "grid_t3"])
def test_singular_certificates_fall_back_to_floors(name, request, monkeypatch, caplog):
    # parallel unit certificates (b >= 2) certify no box: the floors are
    # solved, their box lies inside the certified one, and the value does
    # not move
    X, g = request.getfixturevalue(name)
    b = len(h1_dual_bases(X)[0])
    with caplog.at_level(logging.DEBUG, logger="sysgeo.systole"):
        ref = stsys1(X, g)
        (box,) = _logged(caplog.records, "box")
        caplog.clear()
        floors = []
        floor = systole._ComassLP.floor
        monkeypatch.setattr(systole._ComassLP, "floor",
                            lambda lp, i: floors.append(i) or floor(lp, i))
        parallel_certificates(monkeypatch)
        sv = stsys1(X, g)
    monkeypatch.undo()
    assert floors == list(range(b))
    assert _info(caplog.records)[4] == "solved"
    (floor_box,) = _logged(caplog.records, "box")
    assert all(f <= m for f, m in zip(floor_box, box))
    assert sv.value == pytest.approx(ref.value, rel=1e-12)
    assert sv.witness[0] == ref.witness[0]


def test_huge_certified_box_also_solves_floors(monkeypatch, caplog):
    # a box of more than `_BOX_CLASSES` classes solves the floors too and
    # keeps the smaller bound on every axis; the value does not move.  On
    # cube T^3 s=4 the unit certificates' box is wider than the floors'
    X, g, _ = gen_flat_torus(np.eye(3), 4)
    with caplog.at_level(logging.DEBUG, logger="sysgeo.systole"):
        ref = stsys1(X, g)
        (box,) = _logged(caplog.records, "box")
        monkeypatch.setattr(systole, "_BOX_CLASSES", 1)
        caplog.clear()
        sv = stsys1(X, g)
    (both,) = _logged(caplog.records, "box")
    assert _info(caplog.records)[4] == "solved"
    lp = systole._ComassLP(X, g)
    floor_box = [math.floor(ref.value / lp.floor(i)[0] + 1e-9) for i in range(lp.b)]
    assert both == [min(m, f) for m, f in zip(box, floor_box)] != box
    assert sv.value == pytest.approx(ref.value, rel=1e-12)
    assert sv.witness[0] == ref.witness[0]


def test_certified_box_bounds_every_class_below_the_value():
    # the box holds every integral beta with |C beta|_inf <= value, is the
    # tightest such box up to its margin, and a singular or nearly
    # singular C certifies none
    rng = np.random.default_rng(3)
    grid = np.array(list(itertools.product(range(-40, 41), repeat=2)))
    for _ in range(50):
        C = rng.normal(size=(2, 2))
        value = float(rng.uniform(0.5, 2.0))
        box = systole._certified_box(C, value)
        if np.linalg.cond(C, np.inf) > systole._COND_MAX:
            assert box is None
            continue
        inside = grid[np.abs(grid @ C.T).max(axis=1) <= value]
        assert (np.abs(inside) <= box).all()
        bound = value * np.abs(np.linalg.inv(C)).sum(axis=1)
        assert all(m <= x + 1e-6 for m, x in zip(box, bound))
    for C in (np.ones((2, 2)), np.array([[1.0, 1.0], [1.0, 1.0 + 1e-15]]),
              np.array([[1.0, 1.0], [1.0, 1.0 + 1e-6]]), np.zeros((1, 1))):
        assert systole._certified_box(C, 1.0) is None
    assert systole._certified_box(np.diag([2.0, 0.5]), 1.0) == [0, 2]
    assert systole._certified_box(np.array([[1.0]]), 3.0) == [3]


def test_stsys1_matches_unpruned_box(grid_t2, hex_t2, fcc_t3, circle_times_rp2, caplog):
    # the unpruned search: unit classes, then every box class up to sign,
    # each a one-shot stable norm, replacing the incumbent only when lower
    X, g = grid_t2
    cases = [(X, perturb_metric(g, 0.3, seed=seed)) for seed in range(5)]
    for X, g in cases + [hex_t2, fcc_t3, circle_times_rp2]:
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="sysgeo.systole"):
            sv = stsys1(X, g)
        (box,) = _logged(caplog.records, "box")
        units = [tuple(int(i == j) for j in range(len(box))) for i in range(len(box))]
        best = None
        for alpha in units + [a for a in _box_up_to_sign(box) if a not in units]:
            sn = stable_norm(X, g, alpha)
            if best is None or sn.value < best.value - 1e-12:
                best = sn
        assert sv.value == pytest.approx(best.value, rel=1e-12)
        assert sv.witness[0] == ("class", best.class_coords)


def _linprog_stable_norm(X, g, alpha):
    """Reference: the mass LP as a fresh `linprog` call, as (value, dual)."""
    ne, nv = X.n_simplices(1), X.n_vertices
    lengths = edge_lengths(X, g)
    _, cocycles, _ = h1_dual_bases(X)
    b = len(cocycles)
    ends = np.array(X.edges, dtype=np.int64).reshape(-1, 2)
    omega = np.array(cocycles, dtype=float).reshape(b, ne)
    A = np.zeros((nv + b, ne))
    A[ends[:, 0], np.arange(ne)] -= 1.0
    A[ends[:, 1], np.arange(ne)] += 1.0
    A[nv:] = omega
    rhs = np.concatenate([np.zeros(nv), np.array(alpha, dtype=float)])
    res = linprog(np.concatenate([lengths, lengths]), A_eq=np.hstack([A, -A]),
                  b_eq=rhs, bounds=(0, None), method="highs")
    assert res.status == 0
    return res.fun, float(rhs @ res.eqlin.marginals)


def _linprog_separation_bounds(X, g):
    """Reference: one fresh `linprog` call per basis direction."""
    ne = X.n_simplices(1)
    lengths = edge_lengths(X, g)
    cycles, _, _ = h1_dual_bases(X)
    b = len(cycles)
    tri = edge_table(X, 2)
    nf = len(tri)
    out = []
    for i in range(b):
        A = np.zeros((nf + b, ne + 1))
        for k, (ab, ac, bc) in enumerate(tri):
            A[k, [ab, ac, bc]] = [1.0, -1.0, 1.0]
        A[nf:, :ne] = np.array(cycles, dtype=float)
        A[nf + i, ne] = -1.0
        c = np.zeros(ne + 1)
        c[-1] = -1.0
        res = linprog(c, A_eq=A, b_eq=np.zeros(nf + b),
                      bounds=[(-l, l) for l in lengths] + [(None, None)],
                      method="highs")
        assert res.status == 0
        out.append(res.x[-1])
    return out


def _warm_lp_cases(grid_t2, grid_t3):
    X, g = grid_t2
    cases = [(X, perturb_metric(g, 0.3, seed=seed)) for seed in range(5)]
    return cases + [grid_t3]


def test_warm_started_stable_norm_matches_linprog(grid_t2, grid_t3):
    rng = np.random.default_rng(7)
    for X, g in _warm_lp_cases(grid_t2, grid_t3):
        b = len(h1_dual_bases(X)[0])
        classes = [tuple(int(a) for a in rng.integers(-2, 3, size=b)) for _ in range(8)]
        classes += [(0,) * b, classes[0], classes[3], (0,) * b]
        classes = [classes[i] for i in rng.permutation(len(classes))]
        lp = systole._ComassLP(X, g)  # every class on one model
        refs, certs = {}, []
        for alpha in classes:
            ref, ref_dual = _linprog_stable_norm(X, g, alpha)
            warm, cert = lp.norm(alpha)
            refs[alpha] = ref
            certs.append(cert)
            for sn in (warm, stable_norm(X, g, alpha)):
                assert sn.class_coords == alpha
                assert sn.value == pytest.approx(ref, rel=1e-9, abs=1e-9)
                assert sn.dual_value == pytest.approx(ref_dual, rel=1e-9, abs=1e-9)
                assert sn.duality_gap <= 1e-9
        # every certificate bounds every norm from below
        for cert in certs:
            for alpha, ref in refs.items():
                assert abs(cert @ np.array(alpha)) <= ref + 1e-9


def test_separation_bounds_match_linprog(grid_t2, grid_t3):
    # the floors fix the other periods at 0, then free them again
    for X, g in _warm_lp_cases(grid_t2, grid_t3):
        lp = systole._ComassLP(X, g)
        floors = [lp.floor(i)[0] for i in range(lp.b)]
        assert floors == pytest.approx(_linprog_separation_bounds(X, g), rel=1e-9)
        alpha = (1,) * lp.b
        assert lp.norm(alpha)[0].value == pytest.approx(
            _linprog_stable_norm(X, g, alpha)[0], rel=1e-9)


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


def test_stable_norm_rejects_non_integral_class(grid_t2):
    # neither class may be truncated to (0, 0) or (1, 0)
    X, g = grid_t2
    for alpha in ((0.5, 0), (1.9, 0)):
        with pytest.raises(ComplexError, match="not integral"):
            stable_norm(X, g, alpha)
    sn = stable_norm(X, g, (np.int64(1), np.int32(0)))
    assert sn.class_coords == (1, 0)


def test_stable_norm_cycle_is_certificate(grid_t2):
    X, g = grid_t2
    sn = stable_norm(X, g, (1, 1))
    lengths = np.array([g.length(u, v) for (u, v) in X.edges])
    mass = float(np.abs(sn.cycle) @ lengths)
    assert mass == pytest.approx(sn.value, rel=1e-8)
    d1 = np.array(boundary_matrix(X, 1), dtype=float)
    assert np.abs(d1 @ sn.cycle).max() < 1e-8
    # the cycle has the class itself, not its negative, and the
    # cochain certificate has edge-comass at most 1
    omega = np.array(h1_dual_bases(X)[1], dtype=float)
    assert omega @ sn.cycle == pytest.approx([1.0, 1.0], abs=1e-8)
    assert np.max(np.abs(sn.cocycle) / lengths) <= 1.0 + 1e-9


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
    """The H_1 edge labels carry torsion coordinates: on RP^2 x RP^2
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


def _meshes(name, request):
    """The (complex, metric) pairs a test case runs on: a fixture, RP^2 x
    RP^2, or three +-30% metrics on a square or hexagonal 2-torus."""
    if name == "rp2xrp2":
        return [product_complex(*gen_rp2(), *gen_rp2())]
    if name.startswith(("square", "hex")):
        lattice, s = name.split("-s")
        basis = np.eye(2) if lattice == "square" else HEX_BASIS
        X, g, _ = gen_flat_torus(basis, int(s))
        return [(X, perturb_metric(g, 0.3, seed=seed)) for seed in range(3)]
    return [request.getfixturevalue(name)]


def _chain(X, loop):
    """Edge 1-chain of a vertex loop."""
    z = np.zeros(X.n_simplices(1), dtype=np.int64)
    for u, v in zip(loop, loop[1:]):
        z[X.index((u, v))] += 1 if u < v else -1
    return z.tolist()


@pytest.mark.parametrize("name", [
    "rp2_unit_area", "rp2xrp2", "circle_times_rp2", "two_rp2", "moore_z3",
    "moore_z4_z6", "sphere_s3", "square-s3", "square-s4", "hex-s3", "hex-s4",
    "fcc_t3"])
def test_sysh1_z_matches_labelled_search(name, request):
    """The shortest-path-tree search equals the per-vertex Dijkstra on the
    H_1-labelled cover, and its witness is a closed walk of that length
    with nonzero class (torsion-only spaces included)."""
    for X, g in _meshes(name, request):
        label, combine, identity, nontrivial = _z_labels(X)
        sv = sysh1(X, g, "Z")
        if not nontrivial:
            assert (sv.value, sv.witness) == (math.inf, None)
            continue
        ref, _ = _shortest_nontrivial_loop(X, g, label, combine, identity)
        assert sv.value == pytest.approx(ref, rel=1e-12)
        assert sv.witness[0] == sv.witness[-1]
        assert loop_length(g, sv.witness) == pytest.approx(sv.value, rel=1e-12)
        free, torsion = h1_dual_bases(X)[2].coords(_chain(X, sv.witness))
        assert any(free) or any(torsion)


def _compose(p, q):
    return tuple(p[i] for i in q)


def _cover_specs(X, seed=0):
    """Z/2 and Z/3 colorings from homomorphisms H_1 -> Z/m (a free row of
    the edge-coordinate matrix mod m, or a torsion row whose divisor m
    divides), each also gauged into S3 as h_u^-1 c h_v with random h,
    and the one-element group.  S3 lists its identity last."""
    pres = h1_dual_bases(X)[2]
    perms = list(itertools.permutations(range(3)))[::-1]
    s3 = GroupTable([[perms.index(_compose(p, q)) for q in perms] for p in perms])
    generator = {2: (1, 0, 2), 3: (1, 2, 0)}
    rng = np.random.default_rng(seed)
    specs = []
    for i, d in [(i, 0) for i in pres.free_rows] + list(zip(pres.tor_rows, pres.torsion)):
        for m in (2, 3):
            if d % m:
                continue
            color = {e: int(pres.M[i][k]) % m for k, e in enumerate(X.edges)}
            specs.append(CoverSpec(GroupTable.cyclic(m), color))
            power = [(0, 1, 2)]
            for _ in range(m - 1):
                power.append(_compose(power[-1], generator[m]))
            h = [perms[j] for j in rng.integers(0, 6, size=X.n_vertices)]
            h_inv = [tuple(np.argsort(p).tolist()) for p in h]
            specs.append(CoverSpec(s3, {
                (u, v): perms.index(_compose(_compose(h_inv[u], power[c]), h[v]))
                for (u, v), c in color.items()}))
    specs.append(CoverSpec(GroupTable.cyclic(1), {e: 0 for e in X.edges}))
    return specs


@pytest.mark.parametrize("name", [
    "rp2_unit_area", "circle_times_rp2", "moore_z3", "moore_z4_z6", "square-s3",
    "hex-s4", "fcc_t3"])
def test_pisys1_upper_covers_match_labelled_search(name, request, monkeypatch):
    """Each listed cover gives the value of the per-vertex Dijkstra on the
    group-labelled cover, alone (the H_1 branch switched off) and as a
    candidate of `pisys1_upper`; a one-element group adds none."""
    for X, g in _meshes(name, request):
        base = sysh1(X, g, "Z").value
        for spec in _cover_specs(X):
            B = spec.group
            colors = [spec.color[e] for e in X.edges]

            def label(idx, sign, colors=colors, B=B):
                return colors[idx] if sign > 0 else B.inv[colors[idx]]

            ref, _ = _shortest_nontrivial_loop(X, g, label, B.mul, B.identity)
            assert math.isinf(ref) == (B.order == 1)
            assert pisys1_upper(X, g, [spec]).value == pytest.approx(min(base, ref), rel=1e-12)
            with monkeypatch.context() as m:
                m.setattr(systole, "sysh1", lambda *args: SystoleValue(math.inf))
                sv = pisys1_upper(X, g, [spec])
            if B.order == 1:
                assert (sv.value, sv.witness) == (math.inf, None)
                continue
            assert sv.value == pytest.approx(ref, rel=1e-12)
            loop = sv.witness
            assert loop[0] == loop[-1]
            assert loop_length(g, loop) == pytest.approx(sv.value, rel=1e-12)
            holonomy = B.identity
            for u, v in zip(loop, loop[1:]):
                holonomy = B.mul(holonomy, spec.transport(u, v))
            assert holonomy != B.identity


def _z2_signatures(X):
    """Edge e's column of the Z2 cocycle basis, read as a bitmask."""
    z2 = z2_homology(X, 1)
    return (z2.cocycle_reps.astype(np.int64) << np.arange(z2.dim)[:, None]).sum(axis=0)


def _labelled_ends(X):
    """(Z2 roots, H_1 roots): the ends of the edges whose Z2 signature, or
    whose H_1 label modulo the torsion, is nonzero."""
    pres = h1_dual_bases(X)[2]
    M = np.array(pres.M[pres.free_rows + pres.tor_rows], dtype=np.int64).reshape(-1, X.n_simplices(1))
    moduli = np.array([0] * pres.free_rank + list(pres.torsion))
    labelled = np.where(moduli[:, None] > 0, M % np.maximum(moduli, 1)[:, None], M).any(axis=0)
    ends = face_table(X, 1)
    return np.unique(ends[_z2_signatures(X) != 0]), np.unique(ends[labelled])


@pytest.fixture
def dijkstra_sources(monkeypatch):
    """The `indices` of every `csgraph.dijkstra` call of `systole`, as lists."""
    calls = []
    dijkstra = systole.csgraph.dijkstra

    def spy(*args, **kwargs):
        calls.append(np.asarray(kwargs["indices"]).tolist())
        return dijkstra(*args, **kwargs)

    monkeypatch.setattr(systole.csgraph, "dijkstra", spy)
    return calls


def test_closed_walks_rooted_at_sheet_changing_ends(dijkstra_sources):
    X, g, _ = gen_flat_torus(np.eye(2), 6)
    V = X.n_vertices
    z2_roots, z_roots = _labelled_ends(X)
    sysh1(X, g, "Z2")
    assert sum(dijkstra_sources, []) == z2_roots.tolist()
    dijkstra_sources.clear()
    sysh1(X, g, "Z")
    assert sum(dijkstra_sources, []) == z_roots.tolist()
    # a Z/2 cover colored by one H_1 row: its colored edges' ends
    pres = h1_dual_bases(X)[2]
    color = {e: int(pres.M[pres.free_rows[0]][k]) % 2 for k, e in enumerate(X.edges)}
    colored = np.unique([v for e, c in color.items() if c for v in e])
    dijkstra_sources.clear()
    with pytest.MonkeyPatch.context() as m:
        m.setattr(systole, "sysh1", lambda *args: SystoleValue(math.inf))
        pisys1_upper(X, g, [CoverSpec(GroupTable.cyclic(2), color)])
    assert sum(dijkstra_sources, []) == colored.tolist()
    for roots in (z2_roots, z_roots, colored):
        assert 0 < len(roots) < V


def test_color_for_non_edge_rejected():
    """A color on a pair that is not an edge of X is rejected, as read_mesh
    rejects an edgelen for a non-edge, before any cover is searched."""
    X, g = gen_rp2()
    color = {e: 0 for e in X.edges}
    color[(0, 99)] = 1
    spec = CoverSpec(GroupTable.cyclic(2), color)
    with pytest.raises(ComplexError, match=r"color for non-edge \(0, 99\)"):
        spec.check_flat(X)
    with pytest.raises(ComplexError, match=r"color for non-edge \(0, 99\)"):
        pisys1_upper(X, g, [spec])


def test_one_element_group_runs_no_dijkstra(grid_t2, dijkstra_sources, monkeypatch):
    X, g = grid_t2
    monkeypatch.setattr(systole, "sysh1", lambda *args: SystoleValue(math.inf))
    spec = CoverSpec(GroupTable.cyclic(1), {e: 0 for e in X.edges})
    sv = pisys1_upper(X, g, [spec])
    assert (sv.value, sv.witness) == (math.inf, None)
    walk, loops = systole._cover_walks(
        X, edge_lengths(X, g), systole._cover_pattern(X, np.zeros((len(X.edges), 1), dtype=np.int64)))
    assert walk.tolist() == [math.inf] and loops == [None]
    assert dijkstra_sources == []


ROOTED_MESHES = ["square-s4", "hex-s4", "rp2_unit_area", "circle_times_rp2", "two_rp2",
                 "moore_z3", "moore_z4_z6"]


@pytest.mark.parametrize("name", ROOTED_MESHES)
def test_rooted_searches_match_labelled_search(name, request):
    """At +-10%, seeds 0-4, the rooted searches equal the per-vertex
    labelled-cover Dijkstra: `sysh1` over Z2 and Z, and `pisys1_upper` on
    every listed cover, the gauged S3 ones included; and the rooted Z2
    table equals the one from every vertex, class by class, which the
    min-plus closure of `hypersurface._surface_cuts` reads."""
    if name.startswith(("square", "hex")):
        lattice, s = name.split("-s")
        X, g, _ = gen_flat_torus(np.eye(2) if lattice == "square" else HEX_BASIS, int(s))
    else:
        X, g = request.getfixturevalue(name)
    sig = _z2_signatures(X).tolist()
    z_label, combine, identity, _ = _z_labels(X)
    specs = _cover_specs(X)
    for seed in range(5):
        gp = perturb_metric(g, 0.1, seed=seed)
        lengths = edge_lengths(X, gp)
        ref, _ = _shortest_nontrivial_loop(X, gp, lambda i, s: sig[i], int.__xor__, 0)
        assert sysh1(X, gp, "Z2").value == pytest.approx(ref, rel=1e-12)
        P, ids, roots = systole._memo(X, "z2_cover", systole._z2_cover)
        walk, loops = systole._z2_closed_walks(X, lengths)
        every, _ = systole._cover_walks(X, lengths, (P, ids, np.arange(X.n_vertices)))
        assert walk == pytest.approx(every, rel=1e-12)
        for c, loop in enumerate(loops[1:], 1):
            if loop is None:  # two RP^2s: no closed walk has both classes
                assert math.isinf(walk[c])
                continue
            assert loop[0] == loop[-1] and loop[0] in roots
            assert loop_length(gp, loop) == pytest.approx(walk[c], rel=1e-12)
        ref_z, _ = _shortest_nontrivial_loop(X, gp, z_label, combine, identity)
        base = sysh1(X, gp, "Z").value
        assert base == pytest.approx(ref_z, rel=1e-12)
        for spec in specs:
            B = spec.group
            colors = [spec.color[e] for e in X.edges]

            def label(idx, sign, colors=colors, B=B):
                return colors[idx] if sign > 0 else B.inv[colors[idx]]

            ref_c, _ = _shortest_nontrivial_loop(X, gp, label, B.mul, B.identity)
            pattern = systole._cover_pattern(X, np.array(B.table)[:, colors].T)
            walk_c, _ = systole._cover_walks(X, lengths, pattern)
            assert walk_c.min() == pytest.approx(ref_c, rel=1e-12)
            assert pisys1_upper(X, gp, [spec]).value == pytest.approx(
                min(base, ref_c), rel=1e-12)


def test_sysh1_z_square_torus_s32_within_five_seconds():
    """The integral 1-systole of a cold 1024-vertex torus, H_1 included."""
    X, g, _ = gen_flat_torus(np.eye(2), 32)
    start = time.perf_counter()
    sv = sysh1(X, g, "Z")
    assert time.perf_counter() - start < 5.0
    assert sv.value == pytest.approx(1.0, rel=1e-12)
