import itertools
import logging
import math
import time

import numpy as np
import pytest
from scipy.optimize import linprog

import sysgeo.systole as systole
from sysgeo.generators import gen_flat_torus, gen_rp2, perturb_metric
from sysgeo.homology import h1_dual_bases
from sysgeo.simplicial import (
    ComplexError,
    CoverSpec,
    GroupTable,
    edge_lengths,
    edge_table,
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

from conftest import HEX_BASIS
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


def test_stsys1_solves_each_class_once(monkeypatch, caplog):
    # one comass LP serves every solve: the b floors and each box class,
    # up to sign, that no certificate in hand prunes; the complex is fresh,
    # since its HiGHS model is built once per complex
    X, g, _ = gen_flat_torus(np.eye(2), 4)
    builds, solves = [], []
    init, solve = systole._HighsLP.__init__, systole._HighsLP.solve

    def counted_init(lp, *args):
        builds.append(args[-1])
        init(lp, *args)

    def counted_solve(lp, *args):
        solves.append(lp.name)
        return solve(lp, *args)

    monkeypatch.setattr(systole._HighsLP, "__init__", counted_init)
    monkeypatch.setattr(systole._HighsLP, "solve", counted_solve)
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
    assert n_solves == len(solved) + len(box)  # the rest are the floors
    assert sorted(solved + pruned) == _box_up_to_sign(box)
    for alpha in pruned:
        assert stable_norm(X, g, alpha).value >= sv.value
    assert sv.value == pytest.approx(1.0, abs=1e-9)
    # the scaled metric: no build, the same solves, twice the value
    assert len(solves) == 2 * n_solves
    assert _logged(caplog.records, "solved") == solved
    assert _logged(caplog.records, "pruned") == pruned
    assert sv2.value == pytest.approx(2.0 * sv.value, rel=1e-12)


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


def test_sysh1_z_square_torus_s32_within_five_seconds():
    """The integral 1-systole of a cold 1024-vertex torus, H_1 included."""
    X, g, _ = gen_flat_torus(np.eye(2), 32)
    start = time.perf_counter()
    sv = sysh1(X, g, "Z")
    assert time.perf_counter() - start < 5.0
    assert sv.value == pytest.approx(1.0, rel=1e-12)
