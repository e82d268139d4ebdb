"""Benchmark inputs: one pass of each workload, built with `sysgeo.generators`.

Every call to `build_pass` makes fresh complexes, so no cache that the
program keeps on a complex carries over from one pass to the next.  The
workload seed is handed to `verify_inequality12` as its sampling seed
(sweep sample points and heuristic restarts); the meshes themselves are
fixed so that the output checks and the share metrics mean the same thing
on every seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from sysgeo.generators import gen_circle, gen_flat_torus, gen_rp2, perturb_metric
from sysgeo.simplicial import PLMetric, SimplicialComplex, product_complex

SQUARE = np.eye(2)
HEX = np.array([[1.0, 0.0], [0.5, math.sqrt(3.0) / 2.0]])
FCC = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]])

# The ROADMAP item-3 survey: perturbation seeds 0..29 per lattice at +-10%.
# They are fixed, not drawn from the workload seed, so the survey's known
# false verdicts show on every run and its shares compare between runs.
SURVEY_SEEDS = range(30)
SURVEY_AMPLITUDE = 0.1


@dataclass
class Input:
    name: str
    complex: SimplicialComplex
    metric: PLMetric
    mode: str  # hypersurface_mode passed to verify_inequality12
    seed: int  # sampling seed passed to verify_inequality12
    lattice: np.ndarray | None = None  # reduced basis of a flat torus
    ratio: float | None = None  # known ratio stsys1 * sys_codim1 / vol


def _torus(name, basis, s, mode, seed):
    X, g, B = gen_flat_torus(basis, s)
    return Input(name, X, g, mode, seed, lattice=B)


def cold_refine(seed: int) -> list[Input]:
    return [
        _torus("square-T2-s12", SQUARE, 12, "heuristic", seed),
        _torus("hex-T2-s12", HEX, 12, "heuristic", seed),
        _torus("fcc-T3-s3", FCC, 3, "heuristic", seed),
    ]


def codim1_exact(seed: int) -> list[Input]:
    C, gc = gen_circle(3)
    R, gr = gen_rp2()
    X, g = product_complex(C, gc, R, gr)
    return [
        _torus("square-T2-s6", SQUARE, 6, "exact", seed),
        _torus("hex-T2-s6", HEX, 6, "exact", seed),
        Input("S1xRP2", X, g, "exact", seed, ratio=1.0),
    ]


def metric_survey(seed: int) -> list[Input]:
    out = []
    for lat, basis in (("square", SQUARE), ("hex", HEX)):
        X, g, _ = gen_flat_torus(basis, 4)
        for k in SURVEY_SEEDS:
            gp = perturb_metric(g, SURVEY_AMPLITUDE, seed=k)
            out.append(Input(f"{lat}-T2-s4-p{k}", X, gp, "heuristic", seed))
    return out


WORKLOADS = {
    "cold-refine": cold_refine,
    "codim1-exact": codim1_exact,
    "metric-survey": metric_survey,
}


def build_pass(workload: str, seed: int) -> list[Input]:
    return WORKLOADS[workload](seed)
