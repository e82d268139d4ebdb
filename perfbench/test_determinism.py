"""Checks of the benchmark itself.

Run from the root of a checkout:

    python3 -m pytest perfbench

Two traced runs of a workload with the same seed must give identical
counters, because a later change may claim a gain from them.  Each
traced run verifies one untraced and one traced pass, so the heavy
workloads take about a minute per run.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("metric-survey", "cold-refine", "codim1-exact")
EXACT_COUNTERS = (
    "hypersurface.milp_nodes",
    "hypersurface.milp_calls",
    "hypersurface.milp_limit_hits",
    "hypersurface.classes",
    "hypersurface.heuristic_restarts",
    "systole.lp_calls",
    "homology.calls",
    "homology.h1_dual_bases_calls",
    "homology.z2_homology_calls",
    "simplicial.n_edges",
    "simplicial.n_tops",
)


def traced_counters(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, check=True, cwd=ROOT, timeout=900)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"], proc.stdout
    return {k: result["metrics"][k]["value"] for k in EXACT_COUNTERS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counters_repeat(workload):
    first = traced_counters(workload)
    assert first == traced_counters(workload)
    # no class may hit the MILP time limit, or its time measures the limit
    assert first["hypersurface.milp_limit_hits"] == 0
    if workload != "codim1-exact":
        assert first["hypersurface.milp_calls"] == 0


def test_self_times_account_for_root():
    spans = [
        [tracer.ROOT, 0.0, 10.0, -1, None],
        ["verify.verify_inequality12", 1.0, 9.0, 0, None],
        ["homology.homology", 2.0, 5.0, 1, None],
        ["homology.smith_normal_form", 3.0, 4.0, 2, None],
        ["hodge.sweep", 6.0, 8.0, 1, None],
    ]
    own = tracer.self_times(spans)
    assert own == [2.0, 3.0, 2.0, 1.0, 2.0]
    assert sum(own) == 10.0
    assert tracer.summarize(spans)["self_s"]["homology"] == 3.0
