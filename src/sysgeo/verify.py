"""End-to-end verification of the product systolic volume bound.

For a closed piecewise-flat n-manifold with first Betti number b >= 1 the
harness evaluates the chain

    stsys_1 * (min slice)  <=  lambda_1(H_1) * lambda_1(H^1) * vol
                           <=  (gamma'_b + slack) * vol

together with the codimension-1 Z2 systole, and reports three-valued
verdicts: quantities that are exact in the discrete model give hard
verdicts, flagged bounds give soft ones.  The verdicts compare upper
bounds for the PL manifold, which can certify `holds` but not
`violated`: a `violated` may be false (ROADMAP item 1; `metric-survey`
shows two per pass).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field


from .homology import h1_dual_bases
from .hodge import circle_map, period_gram, shortest_form, sweep
from .hypersurface import sys_codim1_z2
from .lattice import GAMMA_PRIME, lambda1_gram
from .simplicial import (
    ComplexError,
    PLMetric,
    SimplicialComplex,
    pullback_metric,
    validate,
    volume,
)
from .systole import sys1_aggregate, sysh1, stsys1

__all__ = [
    "VerificationReport",
    "verify_inequality12",
    "syscat_bounds",
    "pullback_monotonicity_test",
    "SLACK",
    "SCHEMA_VERSION",
]

SLACK = 1e-9
SCHEMA_VERSION = 1

HOLDS = "holds"
SOFT = "holds-with-flagged-bounds"
VIOLATED = "violated"
NA = "not-applicable"


@dataclass
class VerificationReport:
    """Raw numbers plus verdicts; verdicts are recomputed from the numbers."""

    mesh: str
    dim: int
    b1: int
    vol: float
    stsys1: float | None = None
    sys_codim1: float | None = None
    sys_codim1_exact: bool = False
    sweep_min: float | None = None
    lambda_product: float | None = None
    gamma_prime: float | None = None
    ratio: float | None = None
    syscat_lower: int = 1
    syscat_upper: int | None = None
    notes: list = field(default_factory=list)
    schema_version: int = SCHEMA_VERSION

    def evaluate(self) -> dict:
        """Recompute every verdict from the stored raw numbers."""
        v = {}
        if self.b1 < 1:
            v["main-inequality"] = NA
            return v

        def leq(a, b):
            return a <= b + SLACK * max(1.0, abs(a), abs(b))

        if self.stsys1 is not None and self.sweep_min is not None \
                and self.lambda_product is not None:
            v["chain-slice"] = (
                HOLDS if leq(self.stsys1 * self.sweep_min,
                             self.lambda_product * self.vol) else VIOLATED)
        if self.lambda_product is not None and self.gamma_prime is not None:
            v["chain-ceiling"] = (
                HOLDS if leq(self.lambda_product, self.gamma_prime) else VIOLATED)
        if self.sys_codim1 is not None and self.sweep_min is not None:
            ok = leq(self.sys_codim1, self.sweep_min)
            v["hypersurface-below-sweep"] = (
                (HOLDS if self.sys_codim1_exact else SOFT) if ok else VIOLATED)
        if (self.stsys1 is not None and self.sys_codim1 is not None
                and self.gamma_prime is not None):
            ok = leq(self.stsys1 * self.sys_codim1, self.gamma_prime * self.vol)
            v["main-inequality"] = (
                (HOLDS if self.sys_codim1_exact else SOFT) if ok else VIOLATED)
        return v

    @property
    def verdicts(self) -> dict:
        """The verdicts of the current raw numbers (`evaluate`)."""
        return self.evaluate()

    @property
    def worst(self) -> str:
        order = {VIOLATED: 0, SOFT: 1, NA: 2, HOLDS: 3}
        vs = self.verdicts.values()
        return min(vs, key=lambda s: order[s]) if vs else NA

    def to_json(self) -> str:
        return json.dumps({**self.__dict__, "verdicts": self.verdicts},
                          indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "VerificationReport":
        d = json.loads(text)
        return cls(**{k: v for k, v in d.items() if k in cls.__dataclass_fields__})


def verify_inequality12(X: SimplicialComplex, g: PLMetric, name: str = "mesh",
                        exact_timeout: float = 120.0, seed: int = 0,
                        hypersurface_mode: str = "exact") -> VerificationReport:
    """Full proof-chain evaluation on one mesh.

    Requires b1 >= 1 (otherwise a not-applicable report is returned) and
    n in {2, 3} for the slicing and hypersurface stages.  `sweep_min` is
    the exact minimum of the sweep's slice-volume profile, so nothing is
    random: `seed` is ignored and kept only because `perfbench/run.py`
    passes it.  `hypersurface_mode` may be "exact" or "heuristic"; both
    run the one codim-1 solver, the pruned exact solve of
    `sys_codim1_z2`, and any other value is rejected.
    """
    if hypersurface_mode not in ("exact", "heuristic"):
        raise ComplexError(f"unknown mode {hypersurface_mode!r}")
    diag = validate(X, g)
    if not diag.metric_ok:
        raise ComplexError(f"degenerate metric: {diag.violations}")
    n = X.dim
    b1 = h1_dual_bases(X)[2].free_rank
    vol = volume(X, g)
    rep = VerificationReport(mesh=name, dim=n, b1=b1, vol=vol,
                             gamma_prime=GAMMA_PRIME.get(b1))
    rep.syscat_upper = n
    if b1 < 1:
        rep.notes.append("first Betti number is 0; product bound not applicable")
        return rep
    rep.syscat_lower = 2

    st = stsys1(X, g)
    rep.stsys1 = st.value

    if n in (2, 3):
        G, Gi, etas = period_gram(X, g)
        lam, eta = shortest_form(G, etas)
        rep.lambda_product = lam * lambda1_gram(Gi)
        f = circle_map(X, g, eta)
        data = sweep(X, g, f)
        rep.sweep_min = data.min_volume
        if abs(data.profile_integral - data.coarea_integral) > \
                1e-6 * max(1.0, data.coarea_integral):
            rep.notes.append("coarea cross-check failed")
        sv = sys_codim1_z2(X, g, timeout=exact_timeout)
        rep.sys_codim1 = sv.value
        rep.sys_codim1_exact = sv.exactness == "exact"
        rep.ratio = rep.stsys1 * rep.sys_codim1 / vol
    else:
        rep.notes.append(f"dimension {n}: slicing and hypersurface stages skipped")
    if rep.gamma_prime is None:
        rep.notes.append(f"no ceiling table entry for b1 = {b1}")
    return rep


def syscat_bounds(X: SimplicialComplex, g: PLMetric | None = None) -> dict:
    """Rigorous category-style bounds from the 1 + (n-1) partition.

    Positive first Betti number gives lower bound 2 (witnessed by the
    product bound for that partition); the dimension is always an upper
    bound.  The exact value would require an infimum over all metrics and
    is never claimed.
    """
    b1 = h1_dual_bases(X)[2].free_rank
    out = {
        "dim": X.dim,
        "b1": b1,
        "lower": 2 if b1 >= 1 else 1,
        "upper": X.dim,
        "partition": (1, X.dim - 1) if b1 >= 1 else None,
        "exact": False,
    }
    if g is not None and b1 >= 1 and X.dim in (2, 3):
        st = stsys1(X, g)
        sv = sys_codim1_z2(X, g, timeout=10.0)
        out["observed_constant"] = st.value * sv.value / volume(X, g)
    return out


def pullback_monotonicity_test(f: dict, X: SimplicialComplex,
                               Y: SimplicialComplex, gY: PLMetric,
                               eps: float = 1e-6) -> dict:
    """Pull gY back along a simplicial map and compare systoles/volumes.

    A simplicial projection is distance-nonincreasing, so every systole
    of the pullback must be at least the target value (up to the repair
    tolerance); the pullback volume is at most (top simplex count of X)
    times the target volume.
    """
    if any(v not in f for v in range(X.n_vertices)):
        raise ComplexError("map must be defined on all vertices")
    image = {tuple(sorted({f[v] for v in s})) for s in X.maximal}
    covered = {tuple(t) for t in Y.maximal}
    if not covered <= {i for i in image if len(i) == Y.dim + 1}:
        raise ComplexError("map is not surjective on maximal simplices")
    pb = pullback_metric(f, X, Y, gY, eps)
    gX = pb.metric
    tol = max(10 * eps, pb.shift * X.n_simplices(1))
    out = {"shift": pb.shift, "inflation": pb.inflation, "checks": {}}
    sy = sys1_aggregate(Y, gY)
    sx = sys1_aggregate(X, gX)
    out["checks"]["sys1"] = (sx.value, sy.value, sx.value >= sy.value - tol)
    hy = sysh1(Y, gY, "Z2")
    hx = sysh1(X, gX, "Z2")
    out["checks"]["sysh1_z2"] = (hx.value, hy.value, hx.value >= hy.value - tol)
    volx, voly = volume(X, gX), volume(Y, gY)
    k = X.n_simplices(X.dim)
    out["checks"]["volume"] = (volx, k * voly, volx <= k * voly * (1 + SLACK) + tol)
    out["ok"] = all(c[2] for c in out["checks"].values())
    return out
