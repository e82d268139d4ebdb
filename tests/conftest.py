"""Shared session-scoped meshes.

Building a triangulated torus and its integer homology data is the
expensive part of most tests, so every module reuses these fixtures.
"""
import math

import numpy as np
import pytest

import sysgeo.systole as systole
from sysgeo.generators import gen_circle, gen_flat_torus, gen_rp2
from sysgeo.simplicial import PLMetric, SimplicialComplex, product_complex


HEX_BASIS = np.array([[1.0, 0.0], [0.5, math.sqrt(3.0) / 2.0]])
FCC_BASIS = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]])


def parallel_certificates(monkeypatch):
    """Make `_ComassLP.norm` hand out, on each LP, the certificate of its
    first solve again: still a lower bound on every norm of that metric,
    but a singular certificate matrix, so `stsys1` has to solve the
    floors."""
    norm = systole._ComassLP.norm

    def parallel(lp, alpha, start=None):
        sn, cert = norm(lp, alpha, start)
        if not hasattr(lp, "first_cert"):
            lp.first_cert = cert
        return sn, lp.first_cert

    monkeypatch.setattr(systole._ComassLP, "norm", parallel)


def _unit_edges(X):
    return X, PLMetric({e: 1.0 for e in X.edges})


@pytest.fixture(scope="session")
def hex_t2():
    """Hexagonal flat 2-torus, 4 subdivisions per side."""
    X, g, _ = gen_flat_torus(HEX_BASIS, 4)
    return X, g


@pytest.fixture(scope="session")
def grid_t2():
    """Unit square 2-torus, 4 subdivisions per side."""
    X, g, _ = gen_flat_torus(np.eye(2), 4)
    return X, g


@pytest.fixture(scope="session")
def grid_t3():
    """Unit cube 3-torus, 3 subdivisions per side."""
    X, g, _ = gen_flat_torus(np.eye(3), 3)
    return X, g


@pytest.fixture(scope="session")
def fcc_t3():
    """Face-centered-cubic 3-torus, 3 subdivisions per side."""
    X, g, _ = gen_flat_torus(FCC_BASIS, 3)
    return X, g


@pytest.fixture(scope="session")
def rp2_unit_area():
    """Projective plane mesh scaled to unit area."""
    X, g = gen_rp2()
    return X, g


@pytest.fixture(scope="session")
def rp2_unit_edges():
    """Projective plane mesh with every edge of length 1."""
    return _unit_edges(gen_rp2()[0])


@pytest.fixture(scope="session")
def circle_times_rp2():
    """Orthogonal product of a circumference-1 circle and a unit-area RP^2."""
    C, gc = gen_circle(4, 1.0)
    R, gr = gen_rp2()
    return product_complex(C, gc, R, gr)


@pytest.fixture(scope="session")
def sphere_s3():
    """Boundary of the 4-simplex with unit edges: a 3-sphere."""
    verts = list(range(5))
    maximal = [tuple(s for s in verts if s != i) for i in verts]
    return _unit_edges(SimplicialComplex(5, maximal))


def _moore(m, first=0):
    """Triangles of a 2-complex with H_1 = Z/m on the 3m + 4 vertices
    from `first` on, numbered here from 0: a disk whose boundary 3m-gon
    wraps m times around the triangle loop 0 -> 1 -> 2 -> 0.  An annulus
    joins the 3m-gon to an inner 3m-gon (vertices 3..3m+2), coned off at
    vertex 3m+3."""
    tris = []
    for i in range(3 * m):
        a, b, p, q = i % 3, (i + 1) % 3, 3 + i, 3 + (i + 1) % (3 * m)
        tris += [(a, b, p), (b, p, q), (p, q, 3 * m + 3)]
    return [tuple(first + v for v in t) for t in tris]


@pytest.fixture(scope="session")
def moore_z3():
    """Moore space with H_1 = Z/3, every edge of length 1."""
    return _unit_edges(SimplicialComplex(13, _moore(3)))


@pytest.fixture(scope="session")
def moore_z4_z6():
    """Disjoint Moore spaces with H_1 = Z/4 + Z/6, every edge of length 1."""
    return _unit_edges(SimplicialComplex(38, _moore(4) + _moore(6, 16)))


@pytest.fixture(scope="session")
def two_rp2():
    """Two disjoint copies of the unit-area projective plane."""
    R, g = gen_rp2()
    V = R.n_vertices
    X = SimplicialComplex(2 * V, list(R.maximal) + [
        tuple(V + v for v in s) for s in R.maximal])
    lengths = {e: g.length(*e) for e in R.edges}
    lengths.update({(V + a, V + b): g.length(a, b) for a, b in R.edges})
    return X, PLMetric(lengths)
