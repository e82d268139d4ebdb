import math
import re

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse import csgraph

from sysgeo.generators import RP2_TRIANGLES, gen_circle, gen_flat_torus, perturb_metric
from sysgeo.homology import h1_dual_bases, z2_homology
from sysgeo.lattice import LatticeError
from sysgeo.simplicial import (
    ComplexError,
    CoverSpec,
    GroupTable,
    MetricError,
    PLMetric,
    SimplicialComplex,
    build_cover,
    face_table,
    format_mesh,
    lift,
    product_complex,
    pullback_metric,
    read_cover,
    read_mesh,
    top_geometry,
    tree_sums,
    validate,
    volume,
)
from sysgeo.verify import verify_inequality12

from conftest import FCC_BASIS, HEX_BASIS
from reference import boundary_matrix, simplex_is_nondegenerate, simplex_volume


def unit_triangle():
    X = SimplicialComplex(3, [(0, 1, 2)])
    return X, PLMetric({e: 1.0 for e in X.edges})


def test_faces_closed_and_counts():
    X = SimplicialComplex(4, [(0, 1, 2), (1, 2, 3)])
    assert X.dim == 2
    assert X.n_simplices(0) == 4
    assert X.n_simplices(1) == 5
    assert X.n_simplices(2) == 2
    assert X.euler_characteristic() == 1


def test_boundary_squares_to_zero():
    X, _, _ = gen_flat_torus(np.eye(2), 3)
    d1 = np.array(boundary_matrix(X, 1))
    d2 = np.array(boundary_matrix(X, 2))
    assert not (d1 @ d2).any()


def test_vertex_out_of_range_rejected():
    with pytest.raises(ComplexError):
        SimplicialComplex(2, [(0, 1, 2)])


def test_nonpositive_length_rejected():
    with pytest.raises(MetricError):
        PLMetric({(0, 1): 0.0})


def test_unit_triangle_area():
    X, g = unit_triangle()
    assert simplex_volume((0, 1, 2), g) == pytest.approx(math.sqrt(3) / 4, abs=1e-12)


def test_degenerate_triangle_inequality_flagged():
    X = SimplicialComplex(3, [(0, 1, 2)])
    g = PLMetric({(0, 1): 1.0, (1, 2): 1.0, (0, 2): 2.5})
    diag = validate(X, g)
    assert not diag.metric_ok


def test_validate_reports_first_degenerate_simplex():
    # the degenerate triangle (1, 2, 3) comes after a good one and before
    # a maximal edge
    X = SimplicialComplex(5, [(0, 1, 2), (1, 2, 3), (3, 4)])
    g = PLMetric({e: 2.5 if e == (2, 3) else 1.0 for e in X.edges})
    diag = validate(X, g)
    assert not diag.metric_ok
    assert diag.violations[-1] == ("cayley-menger", (1, 2, 3))
    # strong perturbations of tori and 3-tori: `top_geometry` is the one
    # degeneracy rule, so the metric passes exactly when it measures the
    # tops, and the named simplex is the per-simplex check's first, or none
    flagged = 0
    for basis, m in ((np.eye(2), 4), (HEX_BASIS, 4), (np.eye(3), 3), (FCC_BASIS, 3)):
        X, g, _ = gen_flat_torus(basis, m)
        for amplitude in (0.3, 0.5):
            for seed in range(4):
                gp = perturb_metric(g, amplitude, seed=seed)
                ref = next((s for s in X.maximal if not simplex_is_nondegenerate(s, gp)), None)
                try:
                    top_geometry(X, gp, X.dim)
                    named = None
                except MetricError as exc:
                    named = exc.simplex
                    assert named is not None
                diag = validate(X, gp)
                assert diag.metric_ok == (named is None) == (ref is None)
                assert diag.violations == ([] if ref is None else [("cayley-menger", ref)])
                assert named == ref
                flagged += ref is not None and ref != X.maximal[0]
    assert flagged
    # one length of 1e160 on square T^2 s=4: its square overflows, so the
    # Gram matrices of its triangles are not finite; validate rejects the
    # metric, and so does the verification, by name
    X, g, _ = gen_flat_torus(np.eye(2), 4)
    bad = PLMetric({e: 1e160 if e == (0, 1) else l for e, l in g.items()})
    first = next(t for t in X.simplices(2) if {0, 1} <= set(t))
    with pytest.warns(RuntimeWarning):
        diag = validate(X, bad)
        with pytest.raises(ComplexError, match="degenerate metric: "):
            verify_inequality12(X, bad)
    assert not diag.metric_ok
    assert diag.violations == [("cayley-menger", first)]


def test_validate_torus(grid_t2):
    X, g = grid_t2
    diag = validate(X, g)
    assert diag.closed_under_faces and diag.connected and diag.pure
    assert diag.pseudomanifold and diag.orientable and diag.metric_ok


def test_rp2_not_orientable(rp2_unit_area):
    X, g = rp2_unit_area
    diag = validate(X, g)
    assert diag.pseudomanifold and not diag.orientable


def test_validate_repeat_calls_keep_flags(rp2_unit_area):
    # the structure checks are cached on the complex, the metric is not
    T2, g = gen_flat_torus(np.eye(2), 3)[:2]
    two = disjoint_union(T2, T2)
    g2 = PLMetric({e: 1.0 for e in two.edges})
    RP2, gr = rp2_unit_area
    for _ in range(2):
        diag = validate(two, g2)
        assert not diag.connected and ("disconnected", None) in diag.violations
        assert not two.is_connected()
        diag = validate(RP2, gr)
        assert diag.pseudomanifold and diag.orientable is False
        assert not RP2.is_orientable() and diag.metric_ok
    bad = PLMetric({e: 5.0 if i == 0 else 1.0 for i, e in enumerate(RP2.edges)})
    diag = validate(RP2, bad)
    assert not diag.metric_ok and diag.orientable is False
    assert validate(RP2, gr).metric_ok


def test_flat_torus_volume_matches_determinant():
    for s in (3, 4):
        B = np.array([[2.0, 0.3], [0.0, 1.5]])
        X, g, _ = gen_flat_torus(B, s)
        assert volume(X, g) == pytest.approx(abs(np.linalg.det(B)), rel=1e-10)
    B3 = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
    X, g, _ = gen_flat_torus(B3, 3)
    assert volume(X, g) == pytest.approx(2.0, rel=1e-10)


def test_flat_torus_simplex_count():
    X, _, _ = gen_flat_torus(np.eye(3), 3)
    assert X.n_simplices(3) == 6 * 27
    assert X.n_vertices == 27


def test_flat_torus_rejects_fine_subdivision_below_three():
    with pytest.raises(ComplexError):
        gen_flat_torus(np.eye(3), 2)


@pytest.mark.parametrize("basis, reason", [
    ([[1.0, 0.0], [2.0, 0.0]], "singular"),
    ([[1.0, float("nan")], [0.0, 1.0]], "non-finite"),
    ([[1.0, 0.0], [1.0, 1e-14]], "nearly singular"),
], ids=["dependent", "nan", "near-dependent"])
def test_flat_torus_rejects_bad_basis(basis, reason):
    """A bad basis is refused by name, not by a bare error from deep in the
    reduction or by a mesh of 1e-15 edges."""
    with pytest.raises(LatticeError, match=reason):
        gen_flat_torus(basis, 3)


def test_rp2_unit_area(rp2_unit_area):
    X, g = rp2_unit_area
    assert X.n_simplices(2) == len(RP2_TRIANGLES) == 10
    assert volume(X, g) == pytest.approx(1.0, rel=1e-12)


def test_circle_circumference():
    X, g = gen_circle(7, 2.5)
    assert volume(X, g) == pytest.approx(2.5, rel=1e-12)


def test_double_cover_volume_and_connectivity(grid_t2):
    X, g = grid_t2
    color = {e: 0 for e in X.edges}
    # color by the mod-2 winding in the first coordinate (wrap edges of row 0)
    s = 4
    for (u, v) in X.edges:
        if {u % s, v % s} == {0, s - 1}:
            color[(u, v)] = 1
    spec = CoverSpec(GroupTable.cyclic(2), color)
    C, gc, info = build_cover(X, g, spec)
    assert info["sheets"] == 2
    assert info["components"] == 1
    assert volume(C, gc) == pytest.approx(2 * volume(X, g), rel=1e-10)


def test_trivial_cover_disconnects(grid_t2):
    X, g = grid_t2
    spec = CoverSpec(GroupTable.cyclic(2), {e: 0 for e in X.edges})
    _, _, info = build_cover(X, g, spec)
    assert info["components"] == 2


def test_nonflat_coloring_rejected(grid_t2):
    X, g = grid_t2
    color = {e: 0 for e in X.edges}
    color[X.edges[0]] = 1
    with pytest.raises(ComplexError):
        build_cover(X, g, CoverSpec(GroupTable.cyclic(2), color))


def test_product_volume_multiplicative(rp2_unit_area):
    C, gc = gen_circle(4, 1.0)
    R, gr = rp2_unit_area
    P, gp = product_complex(C, gc, R, gr)
    assert P.dim == 3
    assert volume(P, gp) == pytest.approx(volume(C, gc) * volume(R, gr), rel=1e-9)


def test_product_simplex_count():
    C, gc = gen_circle(3, 1.0)
    X, g = SimplicialComplex(3, [(0, 1, 2)]), PLMetric(
        {(0, 1): 1.0, (1, 2): 1.0, (0, 2): 1.0})
    P, _ = product_complex(C, gc, X, g)
    # edge x triangle splits into 3 tetrahedra
    assert P.n_simplices(3) == 3 * 3


def test_pullback_identity_map_is_isometry(grid_t2):
    X, g = grid_t2
    res = pullback_metric({v: v for v in range(X.n_vertices)}, X, X, g, 1e-6)
    assert res.shift == 0.0
    for (u, v) in X.edges:
        assert res.metric.length(u, v) == pytest.approx(g.length(u, v), rel=1e-12)


def test_pullback_collapsed_edges_get_positive_length(grid_t2):
    X, g = grid_t2
    Y, gY = unit_triangle()
    f = {v: v % 3 for v in range(X.n_vertices)}
    # not necessarily simplicial onto Y; just exercise the metric repair
    res = pullback_metric(f, X, Y, gY, 1e-6)
    assert res.metric.min_length() > 0


def test_pullback_repairs_collapsed_3torus():
    """Cube T^3 s=6 collapsed onto s=3 flattens tops, so every length l
    becomes sqrt(l^2 + s^2) with the smallest shift s that passes."""
    X, _, _ = gen_flat_torus(np.eye(3), 6)
    Y, gY, _ = gen_flat_torus(np.eye(3), 3)
    f = {(i * 6 + j) * 6 + k: ((i // 2) * 3 + j // 2) * 3 + k // 2
         for i in range(6) for j in range(6) for k in range(6)}
    res = pullback_metric(f, X, Y, gY, 1e-6)
    assert res.shift == float.fromhex("0x1.db15ce5510b0ep-14")
    assert res.inflation == 339.8088718579425
    assert all(simplex_is_nondegenerate(t, res.metric, margin=1e-14) for t in X.maximal)


def test_mesh_io_roundtrip(grid_t2):
    X, g = grid_t2
    X2, g2 = read_mesh(format_mesh(X, g))
    assert X2.maximal == X.maximal
    for e in X.edges:
        assert g2.length(*e) == pytest.approx(g.length(*e), rel=1e-12)


TRIANGLE_MESH = "dim 2\nvertices 3\nsimplex 0 1 2\n"
Z2_HEADER = "group 2\n0 1\n1 0\n"


@pytest.mark.parametrize("read, text, statement", [
    (read_mesh, TRIANGLE_MESH + "simplex 0 x\n", "simplex 0 x"),
    (read_mesh, TRIANGLE_MESH + "edgelen 0 1\n", "edgelen 0 1"),
    (read_mesh, "dim\n" + TRIANGLE_MESH, "dim"),
    (read_cover, "group\n", "group"),
    (read_cover, "group 2\n0 1\n", "group 2"),
    (read_cover, Z2_HEADER + "color 0 1\n", "color 0 1"),
    (read_cover, Z2_HEADER + "color 0 1 2\n", "color 0 1 2"),
], ids=["simplex-vertex", "edgelen-length", "dim-value", "group-order",
        "group-table", "color-element", "color-range"])
def test_malformed_statement_rejected(read, text, statement):
    """A mesh or cover file that is not well formed raises ComplexError
    naming the statement, not an IndexError or a bare ValueError."""
    with pytest.raises(ComplexError, match=re.escape(repr(statement))):
        read(text)


@pytest.mark.parametrize("length", ["inf", "nan"])
def test_non_finite_length_rejected(length):
    text = TRIANGLE_MESH + f"edgelen 0 1 {length}\nedgelen 0 2 1\nedgelen 1 2 1\n"
    with pytest.raises(MetricError, match="nonpositive or non-finite length"):
        read_mesh(text)


# a Latin square with identity 0 and inverses, not associative
LOOP5 = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1],
         [4, 3, 1, 2, 0]]


def test_non_associative_table_rejected():
    text = "group 5\n" + "".join(" ".join(map(str, row)) + "\n" for row in LOOP5)
    with pytest.raises(ComplexError, match="not associative") as info:
        read_cover(text + "color 0 1 1\n")
    a, b, c = map(int, re.search(r"\((\d)\*(\d)\)\*(\d)", str(info.value)).groups())
    assert LOOP5[LOOP5[a][b]][c] != LOOP5[a][LOOP5[b][c]]
    with pytest.raises(ComplexError, match="not associative"):
        GroupTable(LOOP5)


Z2_COLOR = "color 0 1 1\ncolor 0 2 0\ncolor 1 2 1\n"


@pytest.mark.parametrize("text", [
    Z2_HEADER + "  # an indented note\n" + Z2_COLOR,
    "\t# a tab-indented note before the header\n" + Z2_HEADER + Z2_COLOR,
    Z2_HEADER + Z2_COLOR + "   #\n",
], ids=["indented", "tab-before-header", "bare-mark"])
def test_cover_comment_lines_skipped(text):
    """A comment line is skipped however it is indented, as in read_mesh."""
    spec = read_cover(text)
    assert spec.group.table == [[0, 1], [1, 0]]
    assert spec.color == {(0, 1): 1, (0, 2): 0, (1, 2): 1}


@pytest.mark.parametrize("header", ["grouping 2", "groups 2", "group2"])
def test_cover_header_is_the_word_group(header):
    """The header's first token is exactly `group`, not a word it begins."""
    with pytest.raises(ComplexError, match="expected 'group k' header"):
        read_cover(header + "\n0 1\n1 0\n" + Z2_COLOR)


def test_metric_scaling_scales_volume(grid_t3):
    X, g = grid_t3
    assert volume(X, g.scaled(2.0)) == pytest.approx(8 * volume(X, g), rel=1e-10)


# ---------------------------------------------------------------------------
# The face-incidence layer


def dict_boundary(X, k):
    """Boundary matrix by a face-dictionary loop, the reference for the table."""
    if k <= 0:
        return np.zeros((1, X.n_simplices(max(k, 0))), dtype=int)
    index = {f: i for i, f in enumerate(X.simplices(k - 1))}
    M = np.zeros((X.n_simplices(k - 1), X.n_simplices(k)), dtype=int)
    for j, s in enumerate(X.simplices(k)):
        for i in range(len(s)):
            M[index[s[:i] + s[i + 1:]], j] += (-1) ** i
    return M


def disjoint_union(X, Y):
    V = X.n_vertices
    return SimplicialComplex(V + Y.n_vertices,
                             X.maximal + [tuple(v + V for v in s) for s in Y.maximal])


NONPURE = SimplicialComplex(5, [(0, 1, 2), (1, 2, 3), (2, 3, 4), (0, 4)])
# the boundary of a tetrahedron with a fin: edge (0, 1) lies in three triangles
FIN = SimplicialComplex(5, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3), (0, 1, 4)])


def test_boundary_matrix_matches_face_dictionary(grid_t2, grid_t3, rp2_unit_area,
                                                 circle_times_rp2, sphere_s3):
    for X in (grid_t2[0], grid_t3[0], rp2_unit_area[0], circle_times_rp2[0],
              sphere_s3[0], NONPURE, FIN):
        for k in range(-1, X.dim + 2):
            got = boundary_matrix(X, k)
            assert got.dtype.kind == "i"
            assert np.array_equal(got, dict_boundary(X, k)), (X.dim, k)


def test_face_table_columns_and_signs(grid_t3, circle_times_rp2):
    for X in (grid_t3[0], circle_times_rp2[0]):
        bd = {}
        for k in range(1, X.dim + 1):
            ft = face_table(X, k)
            assert ft.shape == (X.n_simplices(k), k + 1)
            for s, row in zip(X.simplices(k), ft):
                for c, f in enumerate(row):
                    assert X.simplices(k - 1)[f] == s[:k - c] + s[k - c + 1:]
            M = np.zeros((X.n_simplices(k - 1), X.n_simplices(k)), dtype=int)
            np.add.at(M, (ft, np.arange(len(ft))[:, None]), (-1) ** (k - np.arange(k + 1)))
            bd[k] = M
        for k in range(2, X.dim + 1):
            assert not (bd[k - 1] @ bd[k]).any()


def test_is_orientable_on_closed_manifolds(grid_t2, grid_t3, rp2_unit_area,
                                           circle_times_rp2, sphere_s3):
    T2, RP2 = grid_t2[0], rp2_unit_area[0]
    assert grid_t3[0].is_orientable() and sphere_s3[0].is_orientable()
    assert T2.is_orientable()
    assert not circle_times_rp2[0].is_orientable()
    assert not RP2.is_orientable()
    # a disconnected dual graph is not oriented, as validate reports it
    assert not disjoint_union(T2, T2).is_orientable()
    assert not disjoint_union(RP2, T2).is_orientable()
    assert not disjoint_union(RP2, RP2).is_orientable()


def test_pseudomanifold_defects():
    assert NONPURE.pseudomanifold_defects() == list(NONPURE.simplices(1))
    assert FIN.pseudomanifold_defects() == [(0, 1), (0, 4), (1, 4)]
    book = SimplicialComplex(5, [(0, 1, 2), (0, 1, 3), (0, 1, 4)])
    assert book.pseudomanifold_defects() == list(book.simplices(1))
    assert not FIN.is_orientable() and not FIN.is_closed_manifold()


def test_connectivity_from_one_skeleton(grid_t2):
    X = grid_t2[0]
    assert X.is_connected()
    assert not disjoint_union(X, X).is_connected()
    assert SimplicialComplex(2, [(0,), (1,)]).is_connected() is False


# ---------------------------------------------------------------------------
# Cover graphs and tree sums


def _lift_by_edge(tail, head, step, n, weights):
    """Dense `lift`, built one edge and one sheet at a time."""
    K = step.shape[1]
    D = np.zeros((n * K, n * K))
    for i in range(len(tail)):
        for s in range(K):
            D[tail[i] + n * s, head[i] + n * step[i, s]] += weights[i]
    return D


def test_lift_matches_edge_by_edge_build(grid_t2, rp2_unit_edges):
    rng = np.random.default_rng(0)
    X = grid_t2[0]
    E = X.n_simplices(1)
    lengths = rng.uniform(0.5, 2.0, E)
    RP2 = rp2_unit_edges[0]
    sig = z2_homology(RP2, 1).cocycle_reps[0].astype(np.int64)
    colors = rng.integers(0, 3, E)
    cases = [
        # one sheet: the graph of X itself
        (X, np.zeros((E, 1), dtype=np.int64), lengths),
        # Z2 signatures: the double cover dual to the nonzero class of RP^2
        (RP2, np.arange(2) ^ sig[:, None], None),
        # a 3-sheeted cyclic cover: sheet s steps to s * color
        (X, np.array(GroupTable.cyclic(3).table)[:, colors].T, lengths),
    ]
    for Y, step, w in cases:
        a, b = face_table(Y, 1).T
        n = Y.n_vertices
        got = lift(a, b, step, n, w)
        ref = _lift_by_edge(a, b, step, n, np.ones(len(a)) if w is None else w)
        assert got.format == "csr" and got.shape == ref.shape == (n * step.shape[1],) * 2
        assert np.array_equal(got.toarray(), ref)


def _walk_sums(X, pred, roots, values):
    """`tree_sums`, walking each vertex up its tree one edge at a time."""
    out = np.zeros((len(roots), X.n_vertices, values.shape[1]), dtype=values.dtype)
    for i, r in enumerate(roots):
        for w in range(X.n_vertices):
            total, x = 0, w
            while pred[i, x] >= 0:
                p = pred[i, x]
                e = X.index((p, x))
                total = total + (values[e] if p < x else -values[e])
                x = p
            if x == r:  # off the tree, w reads 0
                out[i, w] = total
    return out


def test_tree_sums_match_vertex_walks(grid_t2):
    rng = np.random.default_rng(1)
    T2 = grid_t2[0]
    for X in (T2, disjoint_union(T2, T2)):
        pres = h1_dual_bases(X)[2]
        labels = np.array(pres.M[pres.free_rows + pres.tor_rows], dtype=np.int64).T
        reals = rng.normal(size=(X.n_simplices(1), 2))
        a, b = face_table(X, 1).T
        V = X.n_vertices
        G = sparse.csr_matrix((rng.uniform(0.5, 2.0, len(a)), (a, b)), shape=(V, V))
        roots = np.arange(0, V, 3)
        _, pred = csgraph.dijkstra(G, directed=False, indices=roots,
                                   return_predecessors=True)
        got = tree_sums(X, pred, roots, labels)
        assert got.dtype == np.int64
        assert np.array_equal(got, _walk_sums(X, pred, roots, labels))
        got = tree_sums(X, pred, roots, reals)
        assert np.allclose(got, _walk_sums(X, pred, roots, reals), rtol=0, atol=1e-12)
        if X is not T2:  # the other copy is off every tree
            assert not got[roots < T2.n_vertices, T2.n_vertices:].any()
            assert not got[roots >= T2.n_vertices, :T2.n_vertices].any()
