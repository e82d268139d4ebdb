import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sysgeo.lattice import (
    GAMMA_PRIME,
    LatticeBasis,
    LatticeError,
    berge_martinet_product,
    dual_critical_search,
    dual_lattice,
    format_lattice,
    hermite_invariant,
    lambda1,
    lambda1_gram,
    lambda1_gram_vector,
    lll_reduce,
    read_lattice,
    shortest_vector,
)

FCC = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
HEX = np.array([[1.0, 0.0], [0.5, math.sqrt(3.0) / 2.0]])


def test_lambda1_integer_lattice():
    for n in range(1, 5):
        assert lambda1(LatticeBasis(np.eye(n))) == pytest.approx(1.0, abs=1e-12)


def test_lambda1_fcc():
    # [DERIVED] shortest FCC vectors have squared length 2
    assert lambda1(LatticeBasis(FCC)) == pytest.approx(math.sqrt(2.0), abs=1e-12)


def test_shortest_vector_is_in_lattice_and_attains_length():
    L = LatticeBasis(FCC)
    v, length = shortest_vector(L)
    assert length == pytest.approx(math.sqrt(2.0), abs=1e-12)
    coeffs = np.linalg.solve(np.asarray(L.basis).T, v)
    assert np.allclose(coeffs, np.round(coeffs), atol=1e-9)
    assert np.linalg.norm(v) == pytest.approx(length, abs=1e-12)


def test_dual_lattice_of_fcc_is_bcc_scaled():
    # [DERIVED] FCC* has minimum sqrt(3)/2 (BCC at half-integer scale)
    D = dual_lattice(LatticeBasis(FCC))
    assert lambda1(D) == pytest.approx(math.sqrt(3.0) / 2.0, abs=1e-12)


def test_dual_of_dual_roundtrip():
    rng = np.random.default_rng(3)
    for _ in range(10):
        B = rng.normal(size=(3, 3))
        if abs(np.linalg.det(B)) < 1e-3:
            continue
        L = LatticeBasis(B)
        DD = dual_lattice(dual_lattice(L))
        # same lattice: change of basis matrix is unimodular
        U = np.linalg.solve(np.asarray(L.basis).T, np.asarray(DD.basis).T)
        assert np.allclose(U, np.round(U), atol=1e-8)
        assert abs(abs(np.linalg.det(U)) - 1.0) < 1e-8


def test_lll_preserves_lattice_and_shortens():
    rng = np.random.default_rng(7)
    for _ in range(20):
        B = rng.integers(-20, 21, size=(4, 4)).astype(float)
        if abs(np.linalg.det(B)) < 0.5:
            continue
        M = lll_reduce(B)
        U = np.linalg.solve(B.T, M.T)
        assert np.allclose(U, np.round(U), atol=1e-7)
        assert abs(abs(np.linalg.det(U)) - 1.0) < 1e-7


def test_lll_output_is_lll_reduced():
    """Size-reduced (|mu_ij| <= 1/2) and Lovasz at delta 0.99, by a
    Gram-Schmidt of the output independent of the reduction's own."""
    rng = np.random.default_rng(23)
    for b in range(1, 7):
        for trial in range(15):
            B = rng.normal(size=(b, b))
            if trial % 3 == 0:  # long, nearly parallel rows
                B = np.tril(rng.integers(-30, 31, size=(b, b))).astype(float) @ B
            if abs(np.linalg.det(B)) < 1e-3:
                continue
            M = lll_reduce(B)
            U = np.linalg.solve(B.T, M.T)
            assert np.allclose(U, np.round(U), atol=1e-7)
            Q, R = np.linalg.qr(M.T)
            d = np.diag(R) ** 2  # squared Gram-Schmidt lengths
            mu = (R / np.diag(R)[:, None]).T  # mu[i, j] = <m_i, m*_j> / |m*_j|^2
            assert np.all(np.abs(np.tril(mu, -1)) <= 0.5 + 1e-9)
            for k in range(1, b):
                assert d[k] >= (0.99 - mu[k, k - 1] ** 2) * d[k - 1] * (1 - 1e-9)


def test_lambda1_gram_vector_certificate():
    rng = np.random.default_rng(11)
    for _ in range(20):
        B = rng.normal(size=(3, 3))
        if abs(np.linalg.det(B)) < 1e-2:
            continue
        G = B @ B.T
        val, coeffs = lambda1_gram_vector(G)
        assert val == pytest.approx(lambda1_gram(G), abs=1e-10)
        attained = math.sqrt(coeffs @ G @ coeffs)
        assert attained == pytest.approx(val, rel=1e-10)


def test_berge_martinet_fcc():
    # [PAPER] sqrt(3/2) for the FCC lattice
    assert berge_martinet_product(LatticeBasis(FCC)) == pytest.approx(
        math.sqrt(1.5), abs=1e-12)


def test_berge_martinet_hexagonal():
    # [DERIVED] the hexagonal lattice is self-dual up to similarity
    assert berge_martinet_product(LatticeBasis(HEX)) == pytest.approx(
        2.0 / math.sqrt(3.0), abs=1e-12)


def test_hermite_fcc():
    # [DERIVED] lambda1^2 / det^(2/3) = 2 / 2^(2/3) = 2^(1/3)
    assert hermite_invariant(LatticeBasis(FCC)) == pytest.approx(
        2.0 ** (1.0 / 3.0), abs=1e-12)


def test_gamma_prime_table():
    # [PAPER] known dual-critical constants up to dimension 4
    assert GAMMA_PRIME[1] == pytest.approx(1.0)
    assert GAMMA_PRIME[2] == pytest.approx(2.0 / math.sqrt(3.0))
    assert GAMMA_PRIME[3] == pytest.approx(math.sqrt(1.5))
    assert GAMMA_PRIME[4] == pytest.approx(math.sqrt(2.0))


@given(st.floats(min_value=0.1, max_value=10.0), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=25, deadline=None)
def test_berge_martinet_scale_invariant(c, seed):
    rng = np.random.default_rng(seed)
    B = rng.normal(size=(3, 3))
    if abs(np.linalg.det(B)) < 1e-2:
        return
    a = berge_martinet_product(LatticeBasis(B))
    b = berge_martinet_product(LatticeBasis(c * B))
    assert a == pytest.approx(b, rel=1e-8)


def test_degenerate_basis_rejected():
    with pytest.raises(LatticeError):
        LatticeBasis(np.array([[1.0, 0.0], [2.0, 0.0]]))


@pytest.mark.parametrize("entry", ["nan", "inf", "-inf"])
def test_non_finite_basis_rejected(entry):
    """A nan or inf entry is refused as non-finite, not as singular, both
    from a file and from an array."""
    text = f"lattice 2\n{entry} 0\n0 1\n"
    with pytest.raises(LatticeError, match="non-finite"):
        read_lattice(text)
    with pytest.raises(LatticeError, match="non-finite"):
        LatticeBasis(np.array([[1.0, 0.0], [0.0, float(entry)]]))


def test_search_small_budget_reaches_square_lattice_bound():
    _, value = dual_critical_search(2, 2000, seed=5)
    assert value >= 1.0 - 1e-9  # Z^2 already attains 1
    assert value <= GAMMA_PRIME[2] + 1e-9


def test_lattice_io_roundtrip():
    L = LatticeBasis(FCC)
    L2 = read_lattice(format_lattice(L))
    assert np.allclose(np.asarray(L.basis), np.asarray(L2.basis))


def test_lattice_comment_lines_skipped():
    """A comment line is skipped however it is indented."""
    L = read_lattice("  # an indented note\nlattice 2\n\t# a tab-indented one\n"
                     "1 0\n0 1\n   #\n")
    assert np.asarray(L.basis).tolist() == [[1.0, 0.0], [0.0, 1.0]]


@pytest.mark.parametrize("header", ["lattices 2", "latticed 2", "lattice2"])
def test_lattice_header_is_the_word_lattice(header):
    """The header's first token is exactly `lattice`, not a word it begins."""
    with pytest.raises(LatticeError, match="expected header 'lattice b'"):
        read_lattice(header + "\n1 0\n0 1\n")


def test_lattice_extra_row_rejected():
    """A row after the b basis rows is an error, not silently dropped."""
    with pytest.raises(LatticeError, match=re.escape("extra statement '2 2'")):
        read_lattice("lattice 2\n1 0\n0 1\n2 2\n")


@pytest.mark.parametrize("text, statement", [
    ("lattice 2\n1 x\n0 1\n", "1 x"),
    ("lattice 2\n1 0 0\n0 1\n", "1 0 0"),
    ("lattice\n1\n", "lattice"),
    ("lattice two\n1\n", "lattice two"),
    ("lattice 0\n", "lattice 0"),
    ("lattice 2\n1 0\n", "lattice 2"),
], ids=["row-value", "row-length", "header-rank", "header-value", "header-zero",
        "missing-row"])
def test_malformed_lattice_statement_rejected(text, statement):
    """A lattice file that is not well formed raises LatticeError naming
    the statement, not a bare ValueError."""
    with pytest.raises(LatticeError, match=re.escape(repr(statement))):
        read_lattice(text)


def _random_gram(rng, b, cond, skew):
    """Gram with eigenvalues spread geometrically over [1, cond] in a random
    frame; skew changes its basis by three random shears of up to 3."""
    Q, _ = np.linalg.qr(rng.normal(size=(b, b)))
    G = Q @ np.diag(np.geomspace(1.0, cond, b)) @ Q.T
    U = np.eye(b, dtype=np.int64)
    for _ in range(3 if skew and b > 1 else 0):
        i, j = rng.choice(b, 2, replace=False)
        U[i] += rng.integers(-3, 4) * U[j]
    return U @ G @ U.T


def _brute_min_sq(G, r2):
    """min x^T G x over the nonzero integer x of the box that holds every
    x with x^T G x <= r2: |x_i| <= sqrt(r2 (G^-1)_ii)."""
    box = np.floor(np.sqrt(r2 * np.diag(np.linalg.inv(G))) * (1 + 1e-9)).astype(int)
    xs = np.array(list(itertools.product(*(range(-m, m + 1) for m in box))))
    xs = xs[xs.any(axis=1)]
    return np.einsum("ij,jk,ik->i", xs, G, xs).min()


@pytest.mark.parametrize("b", [1, 2, 3, 4])
def test_lambda1_gram_vector_matches_brute_force(b):
    """The Gram-form search finds the minimum of the quadratic form over
    every nonzero integer vector, on well and badly conditioned Grams
    (condition number up to 1e4) in reduced and skewed bases.

    The form is compared up to the roundoff of evaluating it at the
    coefficients c, a few ulps of |c|^T |G| |c|: on a skewed Gram that
    sum is far larger than the minimum it cancels down to."""
    rng = np.random.default_rng(100 + b)
    for cond in (1.0, 10.0, 1e2, 1e4):
        for skew in (False, True):
            for _ in range(8):
                G = _random_gram(rng, b, cond, skew)
                val, coeffs = lambda1_gram_vector(G)
                assert coeffs.dtype.kind == "i" and coeffs.any()
                tol = 1e-14 * (np.abs(coeffs) @ np.abs(G) @ np.abs(coeffs))
                assert abs(coeffs @ G @ coeffs - val * val) <= tol
                assert _brute_min_sq(G, val * val + tol) >= val * val - tol
                assert lambda1_gram(G) == val


def test_shortest_vector_equals_gram_search():
    """The basis search and the Gram search of B B^T agree."""
    rng = np.random.default_rng(17)
    for b in range(1, 5):
        for _ in range(10):
            B = rng.normal(size=(b, b))
            if abs(np.linalg.det(B)) < 1e-2:
                continue
            assert shortest_vector(LatticeBasis(B))[1] == pytest.approx(
                lambda1_gram(B @ B.T), rel=1e-12)


@pytest.mark.parametrize("G, reason", [
    ([[1.0, 2.0], [2.0, 1.0]], "not positive definite"),
    ([[1.0, 1.0], [1.0, 1.0]], "not positive definite"),
    ([[-1.0]], "not positive definite"),
    ([[1.0, 0.5], [0.4, 1.0]], "not symmetric"),
    ([[1.0, float("nan")], [float("nan"), 1.0]], "non-finite"),
    ([[float("inf"), 0.0], [0.0, 1.0]], "non-finite"),
    ([[1e-30, 0.0], [0.0, 1.0]], "nearly singular"),
    ([[1.0, 0.0, 0.0]], "must be square"),
], ids=["indefinite", "semidefinite", "negative", "non-symmetric", "nan", "inf",
        "nearly-singular", "non-square"])
def test_bad_gram_rejected(G, reason):
    """A Gram matrix that is not finite, symmetric and positive definite
    raises LatticeError naming the fault; none is read from one triangle."""
    for search in (lambda1_gram, lambda1_gram_vector):
        with pytest.raises(LatticeError, match=reason):
            search(np.array(G))
