"""Output checks against references that do not use the layers under test.

Flat-torus references come from the `lattice` module applied to the
reduced basis `gen_flat_torus` returns:

* `stsys1` equals lambda1(L) and `lambda_product` equals the
  Berge-Martinet product lambda1(L) * lambda1(L*);
* `sys_codim1` is at least lambda1(L) on T^2 and covol(L) * lambda1(L*) on
  T^3, and equal to it when the report tags it exact.

S^1 x RP^2 must give ratio 1.  On every verified input the theorem
verdicts must not read `violated`.
"""

from __future__ import annotations

from sysgeo.lattice import LatticeBasis, berge_martinet_product, dual_lattice, lambda1

THEOREM_VERDICTS = ("main-inequality", "chain-ceiling")
VIOLATED = "violated"
RTOL = 1e-6  # the period Gram comes from an iterative harmonic solve


def _close(a, b) -> bool:
    return a is not None and abs(a - b) <= RTOL * max(1.0, abs(b))


def reference_misses(inp, rep) -> list[str]:
    """Values of `rep` that contradict the independent reference of `inp`."""
    misses = []
    if inp.lattice is not None:
        L = LatticeBasis(inp.lattice)
        lam = lambda1(L)
        codim1 = lam if L.rank == 2 else L.det() * lambda1(dual_lattice(L))
        if not _close(rep.stsys1, lam):
            misses.append(f"stsys1 {rep.stsys1!r} != lambda1(L) {lam!r}")
        bm = berge_martinet_product(L)
        if not _close(rep.lambda_product, bm):
            misses.append(f"lambda_product {rep.lambda_product!r} != {bm!r}")
        if rep.sys_codim1 is None or rep.sys_codim1 < codim1 - RTOL * max(1.0, codim1):
            misses.append(f"sys_codim1 {rep.sys_codim1!r} below reference {codim1!r}")
        elif rep.sys_codim1_exact and not _close(rep.sys_codim1, codim1):
            misses.append(f"exact sys_codim1 {rep.sys_codim1!r} != {codim1!r}")
    if inp.ratio is not None and not _close(rep.ratio, inp.ratio):
        misses.append(f"ratio {rep.ratio!r} != {inp.ratio!r}")
    return misses


def verdict_misses(rep) -> list[str]:
    """Theorem-backed verdicts that the report gives as violated."""
    return [f"{k} violated (ratio {rep.ratio})"
            for k in THEOREM_VERDICTS if rep.verdicts.get(k) == VIOLATED]
