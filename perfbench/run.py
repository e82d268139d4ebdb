"""Benchmark of `sysgeo.verify.verify_inequality12` on three workloads.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload cold-refine --seed 1 --seconds 30 --trace 0

The run sets up (imports sysgeo and builds one pass's inputs) in five
fresh processes and reports the median as `setup_s`.  It then verifies
whole passes of the workload, each on freshly built complexes, until the
next pass would end after `--seconds`, and always at least one pass.
Every output is checked (see checks.py).  With `--trace 0` the last line
of output is a JSON object with the end-to-end metrics; with `--trace 1`
the run alternates untraced and traced passes, writes the spans to
`perfbench/out/` and prints the per-layer metrics instead.

BLAS and OpenMP are pinned to one thread before numpy is imported.  Every
time is reported at a reference machine speed measured beside the run
(speed.py); the wall times are printed on the lines before the result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_PROBES = 5
SCALE_MIN_S = 1.0  # shorter inputs are scaled by the speed over the whole pass
REJECTION = "degenerate metric"  # the input-rejection ComplexError of verify


def pin_threads() -> dict:
    """One BLAS/OpenMP thread; must run before numpy is first imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    return {var: os.environ[var] for var in THREAD_VARS}


def setup_probe(workload: str, seed: int) -> float:
    """Seconds to import sysgeo and build one pass's inputs in this process."""
    t0 = time.perf_counter()
    import workloads

    workloads.build_pass(workload, seed)
    return time.perf_counter() - t0


def measure_setup(workload: str, seed: int, probe) -> list[tuple[float, float]]:
    """(wall seconds, speed factor) of each set-up process."""
    out = []
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, __file__, "--setup-probe", "--workload", workload,
             "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=True, cwd=ROOT)
        out.append((float(proc.stdout.split()[-1]), probe.factor(start, time.monotonic())))
    return out


def run_pass(workload: str, seed: int, probe, tracer=None) -> dict:
    """Verify every input of one fresh pass; check the outputs afterwards.

    `batch_s` and `verify_s` are at the reference speed (see speed.py),
    each input scaled by the speed sampled while it ran; `wall_s` is the
    pass's wall time.
    """
    import checks
    import workloads
    import sysgeo.verify
    from sysgeo.simplicial import ComplexError

    inputs = workloads.build_pass(workload, seed)
    results = []
    with tracer.installed() if tracer else nullcontext():
        for inp in inputs:
            start = time.monotonic()
            t0 = time.perf_counter()
            try:
                with tracer.root(inp.name) if tracer else nullcontext():
                    rep = sysgeo.verify.verify_inequality12(
                        inp.complex, inp.metric, name=inp.name,
                        hypersurface_mode=inp.mode, seed=inp.seed)
                outcome = ("verified", rep)
            except ComplexError as exc:
                kind = "rejected" if str(exc).startswith(REJECTION) else "error"
                outcome = (kind, repr(exc))
            except Exception as exc:  # a program fault is a failed input, not a crash
                outcome = ("error", repr(exc))
            dt = time.perf_counter() - t0
            results.append((inp, dt, start, *outcome))

    whole = (results[0][2], results[-1][2] + results[-1][1])
    scaled = []
    for _, dt, start, _, _ in results:
        # a short input's own window holds too few speed samples
        window = (start, start + dt) if dt >= SCALE_MIN_S else whole
        scaled.append(dt * probe.factor(*window))
    wall = sum(r[1] for r in results)
    p = {"wall_s": wall, "batch_s": sum(scaled), "factor": sum(scaled) / wall,
         "verify_s": [],
         "attempted": len(results), "verified": 0, "rejected": 0, "errors": [],
         "failed": 0, "hard_failed": 0,
         "reference_misses": [], "verdict_misses": [], "violated": 0,
         "verdicts": 0, "certified": 0,
         "n_edges": sum(inp.complex.n_simplices(1) for inp in inputs),
         "n_tops": sum(inp.complex.n_simplices(inp.complex.dim) for inp in inputs)}
    for (inp, _, _, kind, rep), dt in zip(results, scaled):
        if kind == "rejected":
            p["rejected"] += 1
        elif kind == "error":
            p["errors"].append(f"{inp.name}: {rep}")
            p["failed"] += 1
            p["hard_failed"] += 1
        else:
            p["verified"] += 1
            p["verify_s"].append(dt)
            p["certified"] += rep.sys_codim1_exact
            p["verdicts"] += len(rep.verdicts)
            p["violated"] += sum(v == checks.VIOLATED for v in rep.verdicts.values())
            ref, ver = checks.reference_misses(inp, rep), checks.verdict_misses(rep)
            p["reference_misses"] += [f"{inp.name}: {m}" for m in ref]
            p["verdict_misses"] += [f"{inp.name}: {m}" for m in ver]
            p["failed"] += bool(ref or ver)
            p["hard_failed"] += bool(ref)
    return p


def run_passes(workload: str, seed: int, seconds: float, traced: bool, probe):
    """Whole passes until the next one would overrun; at least one of each kind."""
    import tracer as tracing

    plain, traced_passes, durations = [], [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        if traced and len(plain) > len(traced_passes):
            tr = tracing.Tracer()
            p = run_pass(workload, seed, probe, tr)
            traced_passes.append((p, tr.spans))
        else:
            plain.append(run_pass(workload, seed, probe))
        durations.append(time.perf_counter() - t0)
        missing = traced and not (plain and traced_passes)
        elapsed = time.perf_counter() - start
        if not missing and elapsed + statistics.median(durations) > seconds:
            return plain, traced_passes


def end_to_end(plain: list[dict], setup: list[tuple[float, float]]) -> dict:
    att = sum(p["attempted"] for p in plain)
    verify_s = [t for p in plain for t in p["verify_s"]]
    return {
        "setup_s": statistics.median(wall * f for wall, f in setup),
        "batch_s": statistics.median(p["batch_s"] for p in plain),
        "verify_p50_s": statistics.median(verify_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sound_share": 1.0 - sum(p["failed"] for p in plain) / att,
        "verified_share": sum(p["verified"] for p in plain) / att,
        "nonviolated_verdict_share": 1.0 - sum(p["violated"] for p in plain)
        / max(1, sum(p["verdicts"] for p in plain)),
    }


def per_layer(plain: list[dict], traced: list) -> tuple[dict, list]:
    import tracer as tracing

    rows, records = [], []
    for p, spans in traced:
        s = tracing.summarize(spans)
        recs = tracing.codim1_records(spans)
        records.append(recs)
        calls, total, own = s["calls"], s["total_s"], s["self_s"]
        classes = [c for r in recs for c in r.get("classes", [])]
        milps = [m for c in classes for m in c["milp"]]
        gaps = [(r["value"] - r["lower_bound"]) / r["value"] for r in recs]
        row = {
            "homology.self_s": own.get("homology", 0.0),
            "homology.homology_s": total.get("homology.homology", 0.0),
            "homology.h1_dual_bases_s": total.get("homology.h1_dual_bases", 0.0),
            "homology.z2_homology_s": total.get("homology.z2_homology", 0.0),
            "homology.calls": calls.get("homology.homology", 0),
            "homology.h1_dual_bases_calls": calls.get("homology.h1_dual_bases", 0),
            "homology.z2_homology_calls": calls.get("homology.z2_homology", 0),
            "hypersurface.self_s": own.get("hypersurface", 0.0),
            "hypersurface.milp_calls": calls.get("hypersurface.milp", 0),
            "hypersurface.milp_nodes": sum(m["nodes"] for m in milps),
            "hypersurface.min_hypersurface_s": total.get("hypersurface.min_hypersurface", 0.0),
            "hypersurface.milp_limit_hits": sum(m["status"] == 1 for m in milps),
            "hypersurface.sys_codim1_s": total.get("hypersurface.sys_codim1_z2", 0.0),
            "hypersurface.classes": len(classes),
            "hypersurface.heuristic_restarts": sum(c["info"].get("restarts", 0) for c in classes),
            "hypersurface.dual_graph_s": total.get("hypersurface.dual_graph", 0.0),
            "hypersurface.witness_verify_s": total.get("hypersurface.witness_verify", 0.0),
            "hypersurface.certified_share": p["certified"] / max(1, p["verified"]),
            "hypersurface.gap_rel": statistics.fmean(gaps) if gaps else 0.0,
            "hodge.self_s": own.get("hodge", 0.0),
            "hodge.period_gram_s": total.get("hodge.period_gram", 0.0),
            "hodge.harmonic_representative_calls": calls.get("hodge.harmonic_representative", 0),
            "hodge.circle_map_s": total.get("hodge.circle_map", 0.0),
            "hodge.sweep_s": total.get("hodge.sweep", 0.0),
            "systole.self_s": own.get("systole", 0.0),
            "systole.stsys1_s": total.get("systole.stsys1", 0.0),
            "systole.stable_norm_calls": calls.get("systole.stable_norm", 0),
            "systole.lp_calls": calls.get("systole.lp", 0),
            "systole.lp_s": total.get("systole.lp", 0.0),
            "simplicial.self_s": own.get("simplicial", 0.0),
            "simplicial.validate_s": total.get("simplicial.validate", 0.0),
            "simplicial.volume_s": total.get("simplicial.volume", 0.0),
            "simplicial.n_edges": p["n_edges"],
            "simplicial.n_tops": p["n_tops"],
            "lattice.s": own.get("lattice", 0.0),
            "verify.self_s": own.get("verify", 0.0),
            "trace.batch_s": p["wall_s"],
            "trace.accounted_share": sum(own.values()) / p["wall_s"],
            "trace.spans": len(spans),
        }
        # span times are wall seconds; scale them like batch_s
        rows.append({k: v * p["factor"] if k.endswith("_s") or k == "lattice.s" else v
                     for k, v in row.items()})
    m = {k: statistics.median(r[k] for r in rows) for k in rows[0]}
    m["trace.overhead_s"] = m["trace.batch_s"] - statistics.median(p["batch_s"] for p in plain)
    return m, records


def tail_percentile(samples: list[float]) -> tuple[int, float] | None:
    """Highest of p99/p90 with at least ten samples beyond it."""
    n = len(samples)
    for q in (99, 90):
        if n * (100 - q) / 100 >= 10:
            return q, statistics.quantiles(samples, n=100)[q - 1]
    return None


def report(args, threads, setup, plain, traced) -> dict:
    """Print the human-readable lines; return the result object.

    Metric names and units come from BENCHMARK.json, so the result holds
    exactly the metrics the benchmark declares.
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    e2e = end_to_end(plain, setup)
    att = sum(p["attempted"] for p in plain)
    verify_s = [t for p in plain for t in p["verify_s"]]
    first = plain[0]
    print(f"workload {args.workload} seed {args.seed}: {len(plain)} untraced and "
          f"{len(traced)} traced pass(es) of {first['attempted']} inputs; threads {threads}")
    for name, value in e2e.items():
        print(f"  {name:36s} {value:12.6g} {units[name]}")
    info = [("verify_p50_s samples", len(verify_s), "count"),
            ("setup_wall_s", statistics.median(wall for wall, _ in setup), "s"),
            ("batch_wall_s", statistics.median(p["wall_s"] for p in plain), "s"),
            ("speed_factor", statistics.median(p["factor"] for p in plain), "ratio"),
            ("failed_share", sum(p["failed"] for p in plain) / att, "share"),
            ("rejected_share", sum(p["rejected"] for p in plain) / att, "share"),
            ("violated_verdicts per pass", first["violated"], "count"),
            ("codim1_certified_share", first["certified"] / max(1, first["verified"]), "share")]
    tail = tail_percentile(verify_s)
    if tail:
        info.insert(1, (f"verify_p{tail[0]}_s", tail[1], "s"))
    for name, value, u in info:
        print(f"  {name:36s} {value:12.6g} {u}")
    for label, key in (("error", "errors"), ("reference miss", "reference_misses"),
                       ("false verdict", "verdict_misses")):
        for msg in first[key]:
            print(f"  {label}: {msg}")
    # program errors and reference misses fail the run; false theorem
    # verdicts are counted in sound_share and listed above
    hard = sum(p["hard_failed"] for p in plain)
    result = {"correct": hard == 0, "attempted": att, "failed": hard}
    values = e2e
    if traced:
        values, records = per_layer(plain, traced)
        for name, value in values.items():
            print(f"  {name:36s} {value:12.6g} {units[name]}")
        OUT.mkdir(parents=True, exist_ok=True)
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "threads": threads,
            "end_to_end": e2e, "per_layer": values, "codim1_classes": records,
            "spans": [spans for _, spans in traced],
        }))
        print(f"  spans and codim-1 classes written to {path.relative_to(ROOT)}")
    kind = "per_layer" if traced else "end_to_end"
    result["metrics"] = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                         for m in spec[kind]}
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("cold-refine", "codim1-exact", "metric-survey"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not (SRC / "sysgeo" / "__init__.py").is_file():
        print(f"error: no sysgeo sources under {SRC}", file=sys.stderr)
        return 2
    threads = pin_threads()
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        print(setup_probe(args.workload, args.seed))
        return 0
    import speed
    with speed.SpeedProbe() as probe:
        probe.wait_for_sample()
        setup = measure_setup(args.workload, args.seed, probe)
        plain, traced = run_passes(args.workload, args.seed, args.seconds,
                                   bool(args.trace), probe)
    print(json.dumps(report(args, threads, setup, plain, traced)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
