"""End-to-end acceptance suite.

Each test prints exactly one PASS/FAIL line (on the real stderr, so it is
visible even under pytest capture) and enforces the stated tolerance and
runtime budget.
"""
import math
import time

import numpy as np
import pytest

from sysgeo.generators import gen_flat_torus, perturb_metric
from sysgeo.hodge import circle_map, comass, harmonic_representative, l2_norm, sweep
from sysgeo.homology import h1_dual_bases
from sysgeo.hypersurface import sys_codim1_z2
from sysgeo.lattice import (
    LatticeBasis,
    berge_martinet_product,
    dual_critical_search,
    hermite_invariant,
)
from sysgeo.simplicial import volume
from sysgeo.systole import stable_norm, stsys1, sysh1
from sysgeo.verify import HOLDS, pullback_monotonicity_test, verify_inequality12

FCC = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
SQRT32 = math.sqrt(1.5)


@pytest.fixture
def report(capfd):
    """One visible PASS/FAIL line per criterion, bypassing pytest capture."""
    def emit(num, ok, detail):
        line = f"[acceptance {num:>2}] {'PASS' if ok else 'FAIL'}: {detail}"
        with capfd.disabled():
            print(line, flush=True)
        assert ok, line
    return emit


def harmonic_sweep_stats(X, g):
    _, cocycles, _ = h1_dual_bases(X)
    w = np.asarray(cocycles[0], dtype=float)
    f = circle_map(X, g, harmonic_representative(X, g, w))
    data = sweep(X, g, f)
    return {
        "coarea": data.coarea_integral,
        "profile": data.profile_integral,
        "min_slice": data.min_volume,
        "l2": l2_norm(f.form),
        "comass": comass(f.form),
        "vol": volume(X, g),
    }


@pytest.fixture(scope="module")
def random_metric_sweeps(grid_t2, grid_t3):
    """100 sweep evaluations shared by the coarea and norm criteria."""
    out = []
    for (X, g), count in ((grid_t2, 50), (grid_t3, 50)):
        for seed in range(count):
            gp = perturb_metric(g, 0.05, seed=seed)
            out.append(harmonic_sweep_stats(X, gp))
    return out


def test_criterion_01_fcc_dual_product(report):
    t0 = time.perf_counter()
    val = berge_martinet_product(LatticeBasis(FCC))
    dt = time.perf_counter() - t0
    ok = abs(val - SQRT32) <= 1e-9 and dt < 1.0
    report(1, ok, f"FCC lambda1*dual product {val:.12f} "
                  f"(target sqrt(3/2)={SQRT32:.12f}), {dt:.3f}s")


def test_criterion_02_fcc_hermite(report):
    t0 = time.perf_counter()
    herm = hermite_invariant(LatticeBasis(FCC))
    prod = berge_martinet_product(LatticeBasis(FCC))
    dt = time.perf_counter() - t0
    ok = abs(herm - 2.0 ** (1 / 3)) <= 1e-9 and herm > prod and dt < 1.0
    report(2, ok, f"FCC Hermite {herm:.12f} (target 2^(1/3)) > product "
                  f"{prod:.12f}, {dt:.3f}s")


def test_criterion_03_random_search_reaches_optima(report):
    t0 = time.perf_counter()
    _, v3 = dual_critical_search(3, 10 ** 5, seed=1)
    dt3 = time.perf_counter() - t0
    t0 = time.perf_counter()
    _, v2 = dual_critical_search(2, 10 ** 5, seed=1)
    dt2 = time.perf_counter() - t0
    ok = (v3 >= SQRT32 - 1e-3 and dt3 < 60.0
          and v2 >= 2.0 / math.sqrt(3.0) - 1e-3 and dt2 < 60.0)
    report(3, ok, f"search dim3 {v3:.6f} ({dt3:.1f}s), "
                  f"dim2 {v2:.6f} ({dt2:.1f}s)")


def test_criterion_04_hexagonal_torus_equality(report, hex_t2):
    X, g = hex_t2
    t0 = time.perf_counter()
    ratio = stsys1(X, g).value * sysh1(X, g, "Z2").value / volume(X, g)
    dt = time.perf_counter() - t0
    target = 2.0 / math.sqrt(3.0)
    ok = abs(ratio - target) <= 0.02 * target and dt < 30.0
    report(4, ok, f"hex T^2 ratio {ratio:.9f} vs 2/sqrt(3)={target:.9f}, "
                  f"{dt:.1f}s")


def test_criterion_05_circle_times_rp2(report, circle_times_rp2):
    X, g = circle_times_rp2
    t0 = time.perf_counter()
    st = stsys1(X, g).value
    sv = sys_codim1_z2(X, g, timeout=100.0)
    ratio = st * sv.value / volume(X, g)
    dt = time.perf_counter() - t0
    ok = (abs(ratio - 1.0) <= 0.05 and sv.exactness == "exact"
          and dt < 120.0)
    report(5, ok, f"S^1 x RP^2 ratio {ratio:.9f} (gamma'_1 = 1), "
                  f"codim-1 systole {sv.exactness}, {dt:.1f}s")


def test_criterion_06_fcc_torus_proof_chain(report, fcc_t3):
    X, g = fcc_t3
    t0 = time.perf_counter()
    rep = verify_inequality12(X, g, name="fcc-t3", exact_timeout=120.0)
    dt = time.perf_counter() - t0
    v = rep.evaluate()
    slack = 1e-9
    chain1 = rep.stsys1 * rep.sweep_min <= rep.lambda_product * rep.vol * (1 + slack) + slack
    chain2 = rep.lambda_product <= SQRT32 + 1e-9
    chain3 = rep.sys_codim1 <= rep.sweep_min * (1 + slack) + slack
    ok = (chain1 and chain2 and chain3
          and v["chain-slice"] == HOLDS and v["chain-ceiling"] == HOLDS
          and v["hypersurface-below-sweep"] == HOLDS
          and rep.sys_codim1_exact and dt < 600.0)
    report(6, ok, f"FCC T^3 chain: stsys*sweep={rep.stsys1 * rep.sweep_min:.9f}"
                  f" <= lam*vol={rep.lambda_product * rep.vol:.9f},"
                  f" lam={rep.lambda_product:.9f} <= sqrt(3/2),"
                  f" codim1={rep.sys_codim1:.9f} <= sweep={rep.sweep_min:.9f}"
                  f" ({'exact' if rep.sys_codim1_exact else 'bound'}), {dt:.0f}s")


def test_criterion_07_coarea_identity(report, random_metric_sweeps):
    t0 = time.perf_counter()
    worst = max(abs(s["profile"] - s["coarea"]) / max(abs(s["coarea"]), 1e-30)
                for s in random_metric_sweeps)
    dt = time.perf_counter() - t0
    ok = worst <= 1e-6 and len(random_metric_sweeps) == 100
    report(7, ok, f"coarea identity on 100 random metrics, worst rel err "
                  f"{worst:.3e} (tol 1e-6)")


def test_criterion_08_norm_comparisons(report, random_metric_sweeps):
    bad = 0
    for s in random_metric_sweeps:
        rhs = s["l2"] * math.sqrt(s["vol"])
        if not s["coarea"] <= rhs * (1 + 1e-9) + 1e-9:
            bad += 1
        if not s["l2"] <= s["comass"] * math.sqrt(s["vol"]) * (1 + 1e-9) + 1e-9:
            bad += 1
    ok = bad == 0
    report(8, ok, f"Cauchy-Schwarz and l2<=comass*vol^(1/2) on 100 metrics, "
                  f"{bad} violations")


def test_criterion_09_lp_duality_and_homogeneity(report, grid_t2):
    X, g = grid_t2
    rng = np.random.default_rng(12)
    worst_gap = 0.0
    worst_hom = 0.0
    for trial in range(50):
        gp = perturb_metric(g, 0.2, seed=1000 + trial)
        alpha = tuple(int(a) for a in rng.integers(-3, 4, size=2))
        if alpha == (0, 0):
            alpha = (1, 1)
        sn = stable_norm(X, gp, alpha)
        worst_gap = max(worst_gap, sn.duality_gap)
        double = stable_norm(X, gp, tuple(2 * a for a in alpha)).value
        scale = max(abs(sn.value), 1.0)
        worst_hom = max(worst_hom, abs(double - 2 * sn.value) / scale)
    ok = worst_gap <= 1e-7 and worst_hom <= 1e-9
    report(9, ok, f"LP duality gap worst {worst_gap:.2e} (tol 1e-7), "
                  f"homogeneity defect worst {worst_hom:.2e} (tol 1e-9)")


def test_criterion_10_positivity(report, grid_t2, grid_t3, hex_t2, rp2_unit_edges):
    values = []
    for X, g in (grid_t2, grid_t3, hex_t2):
        values.append(sysh1(X, g, "Z").value)
        values.append(sysh1(X, g, "Z2").value)
        values.append(stsys1(X, g).value)
        values.append(sys_codim1_z2(X, g, timeout=5).value)
    R, gR = rp2_unit_edges
    rp2_h = sysh1(R, gR, "Z2")
    rp2_st = stsys1(R, gR)
    values.append(rp2_h.value)
    finite = [v for v in values if math.isfinite(v)]
    ok = (all(v > 0 for v in finite)
          and rp2_h.value == 3.0
          and math.isinf(rp2_st.value))
    report(10, ok, f"{len(finite)} finite systoles all > 0; RP^2 sysh1 = "
                   f"{rp2_h.value} (exactly 3), stsys1 = {rp2_st.value}")


def test_criterion_11_pullback_monotonicity(report):
    Xf, _, _ = gen_flat_torus(np.eye(2), 6)
    Yc, gY, _ = gen_flat_torus(np.eye(2), 3)
    f = {i * 6 + j: (i // 2) * 3 + (j // 2)
         for i in range(6) for j in range(6)}
    t0 = time.perf_counter()
    failures = []
    for seed in range(20):
        gp = perturb_metric(gY, 0.2, seed=2000 + seed)
        out = pullback_monotonicity_test(f, Xf, Yc, gp, eps=1e-6)
        if not out["ok"]:
            failures.append((seed, out["checks"]))
    dt = time.perf_counter() - t0
    ok = not failures and dt < 120.0
    report(11, ok, f"grid-collapse pullback on 20 random targets, "
                   f"{len(failures)} failures, {dt:.1f}s")
