"""Command-line entry points.

One `main_*` function per console script; all output is plain text or
JSON on stdout so results can be piped and diffed.  An input error (a
malformed, missing or unreadable file, a degenerate metric, a bad
lattice or argument value) prints `<prog>: error: <message>` to stderr,
nothing to stdout, and exits with code 3.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import math
import os
import pathlib
import sys

import numpy as np

from . import generators, hodge, hypersurface, systole, verify
from .homology import homology
from .lattice import (
    GAMMA_PRIME,
    LatticeError,
    berge_martinet_product,
    dual_critical_search,
    dual_lattice,
    format_lattice,
    hermite_invariant,
    lambda1,
    read_lattice,
)
from .simplicial import (
    ComplexError,
    MetricError,
    build_cover,
    format_mesh,
    product_complex,
    read_cover,
    read_mesh,
    validate,
    volume,
)


def _input_errors(main):
    """Console entry point `main_<prog>` that reports an input error as
    `<prog>: error: <message>` on stderr and returns exit code 3.  Each
    command writes stdout only after its last input error can occur."""
    prog = main.__name__.removeprefix("main_")

    @functools.wraps(main)
    def run(argv=None) -> int:
        try:
            return main(argv)
        except (ComplexError, MetricError, LatticeError, OSError) as exc:
            sys.stderr.write(f"{prog}: error: {exc}\n")
            return 3
    return run


def _read(path):
    return pathlib.Path(path).read_text()


def _mesh(path):
    return read_mesh(_read(path))


def _json_default(o):
    """JSON form of a value json cannot encode: numpy arrays and scalars in
    full, as lists and numbers; anything else as its string."""
    return o.tolist() if isinstance(o, (np.ndarray, np.generic)) else str(o)


def _add_verbose(p):
    p.add_argument("-v", "--verbose", action="count", default=0,
                   help="log progress to stderr (-v per step, -vv per solver round)")


def _log_level(verbose: int):
    if verbose:
        logging.basicConfig(level=logging.INFO if verbose == 1 else logging.DEBUG,
                            stream=sys.stderr,
                            format="%(relativeCreated)8.0f ms %(name)s: %(message)s")


# ---------------------------------------------------------------------------
# syslat


@_input_errors
def main_syslat(argv=None) -> int:
    p = argparse.ArgumentParser(prog="syslat", description=None)
    sub = p.add_subparsers(dest="cmd", required=True)
    pi = sub.add_parser("info", help="invariants of a lattice file")
    pi.add_argument("file")
    ps = sub.add_parser("search", help="search for a large lambda1(L)lambda1(L*)")
    ps.add_argument("--dim", type=int, required=True)
    ps.add_argument("--budget", type=int, default=100000)
    ps.add_argument("--seed", type=int, default=0)
    a = p.parse_args(argv)
    if a.cmd == "info":
        L = read_lattice(_read(a.file))
        out = {
            "rank": L.rank,
            "det": L.det(),
            "lambda1": lambda1(L),
            "lambda1_dual": lambda1(dual_lattice(L)),
            "berge_martinet_product": berge_martinet_product(L),
            "hermite_invariant": hermite_invariant(L),
        }
        if L.rank in GAMMA_PRIME:
            out["gamma_prime_ceiling"] = GAMMA_PRIME[L.rank]
        print(json.dumps(out, indent=2))
    else:
        L, value = dual_critical_search(a.dim, a.budget, seed=a.seed)
        print(json.dumps({"product": value}, indent=2))
        print(format_lattice(L), end="")
    return 0


# ---------------------------------------------------------------------------
# sysmesh


@_input_errors
def main_sysmesh(argv=None) -> int:
    p = argparse.ArgumentParser(prog="sysmesh")
    sub = p.add_subparsers(dest="cmd", required=True)
    pc = sub.add_parser("check", help="structural and metric diagnostics")
    pc.add_argument("file")
    ph = sub.add_parser("homology", help="Betti numbers and torsion")
    ph.add_argument("file")
    ph.add_argument("--ring", choices=["z", "z2"], default="z")
    pv = sub.add_parser("cover", help="build a cover from a coloring file")
    pv.add_argument("file")
    pv.add_argument("coloring")
    pp = sub.add_parser("product", help="staircase product of two meshes")
    pp.add_argument("a")
    pp.add_argument("b")
    a = p.parse_args(argv)
    if a.cmd == "check":
        X, g = _mesh(a.file)
        d = validate(X, g)
        out = {k: getattr(d, k) for k in (
            "closed_under_faces", "connected", "pure", "pseudomanifold",
            "orientable", "metric_ok")}
        out["violations"] = d.violations
        out["volume"] = volume(X, g) if d.metric_ok else None
        print(json.dumps(out, indent=2))
        return 0 if d.metric_ok and d.pseudomanifold else 1
    if a.cmd == "homology":
        X, _ = _mesh(a.file)
        h = homology(X, "Z" if a.ring == "z" else "Z2")
        print(json.dumps({"ring": a.ring, "betti": h.betti,
                          "torsion": h.torsion}, indent=2))
        return 0
    if a.cmd == "cover":
        X, g = _mesh(a.file)
        spec = read_cover(_read(a.coloring))
        C, gc, info = build_cover(X, g, spec)
        sys.stderr.write(json.dumps({"sheets": info["sheets"],
                                     "components": info["components"]}) + "\n")
        print(format_mesh(C, gc), end="")
        return 0
    X1, g1 = _mesh(a.a)
    X2, g2 = _mesh(a.b)
    P, gp = product_complex(X1, g1, X2, g2)
    print(format_mesh(P, gp), end="")
    return 0


# ---------------------------------------------------------------------------
# syssys


@_input_errors
def main_syssys(argv=None) -> int:
    p = argparse.ArgumentParser(prog="syssys")
    p.add_argument("mesh")
    p.add_argument("--invariant", choices=["sysh1", "pisys1", "stsys1", "sys1"],
                   default="sys1")
    p.add_argument("--ring", choices=["z", "z2"], default="z")
    p.add_argument("--covers", help="directory of cover coloring files")
    _add_verbose(p)
    a = p.parse_args(argv)
    _log_level(a.verbose)
    X, g = _mesh(a.mesh)
    covers = []
    if a.covers:
        for f in sorted(pathlib.Path(a.covers).glob("*")):
            covers.append(read_cover(f.read_text()))
    ring = "Z" if a.ring == "z" else "Z2"
    if a.invariant == "sysh1":
        sv = systole.sysh1(X, g, ring)
    elif a.invariant == "pisys1":
        sv = systole.pisys1_upper(X, g, covers or None)
    elif a.invariant == "stsys1":
        sv = systole.stsys1(X, g)
    else:
        sv = systole.sys1_aggregate(X, g, covers or None)
    print(json.dumps({
        "invariant": a.invariant,
        "value": sv.value if math.isfinite(sv.value) else "inf",
        "witness": sv.witness,
        "exactness": sv.exactness,
        "provenance": sv.provenance,
    }, indent=2, default=_json_default))
    return 0


# ---------------------------------------------------------------------------
# syshodge


@_input_errors
def main_syshodge(argv=None) -> int:
    p = argparse.ArgumentParser(prog="syshodge")
    p.add_argument("mesh")
    p.add_argument("--class", dest="cls", default="auto-shortest",
                   help="cocycle file (one edge value per line) or auto-shortest")
    p.add_argument("--emit-profile", metavar="CSV",
                   help="write every level the exact minimum examined, ascending")
    _add_verbose(p)
    a = p.parse_args(argv)
    _log_level(a.verbose)
    X, g = _mesh(a.mesh)
    if a.cls == "auto-shortest":
        G, _, etas = hodge.period_gram(X, g)
        _, eta = hodge.shortest_form(G, etas)
    else:
        try:
            omega = np.array([float(ln) for ln in _read(a.cls).split()])
        except ValueError as exc:
            raise ComplexError(f"cocycle file {a.cls}: {exc}") from None
        eta = hodge.harmonic_representative(X, g, omega)
    f = hodge.circle_map(X, g, eta)
    data = hodge.sweep(X, g, f)
    out = {
        "l2_norm": hodge.l2_norm(f.form),
        "comass": hodge.comass(f.form),
        "min_slice": data.min_volume,
        "t_min": data.t_min,
        "coarea_integral": data.coarea_integral,
        "profile_integral": data.profile_integral,
    }
    if a.emit_profile:
        with open(a.emit_profile, "w") as fh:
            fh.write("t,slice_volume\n")
            for t, v in zip(*data.critical_points()):
                fh.write(f"{t:.12g},{v:.12g}\n")
    print(json.dumps(out, indent=2))
    return 0


# ---------------------------------------------------------------------------
# sysz2


@_input_errors
def main_sysz2(argv=None) -> int:
    p = argparse.ArgumentParser(prog="sysz2")
    p.add_argument("mesh")
    p.add_argument("--timeout", type=float, default=120.0,
                   help="seconds per class")
    _add_verbose(p)
    a = p.parse_args(argv)
    _log_level(a.verbose)
    X, g = _mesh(a.mesh)
    sv = hypersurface.sys_codim1_z2(X, g, timeout=a.timeout)
    # H_{n-1}(X; Z2) = 0: no class, no witness, and the value is +inf
    w = sv.witness or {"class": None, "faces": ()}
    print(json.dumps({
        "value": sv.value if math.isfinite(sv.value) else "inf",
        "exactness": sv.exactness,
        "witness_class": w["class"],
        "witness_faces": [list(f) for f in w["faces"]],
        "per_class": sv.provenance["classes"] if sv.witness else [],
    }, indent=2, default=_json_default))
    return 0


# ---------------------------------------------------------------------------
# sysverify


def _gen_mesh(a):
    if a.space == "torus":
        B = read_lattice(_read(a.lattice)).basis if a.lattice else np.eye(a.rank)
        X, g, _ = generators.gen_flat_torus(B, a.subdivisions)
        return X, g
    if a.space == "rp2":
        return generators.gen_rp2(a.scale)
    Xa, ga = generators.gen_circle(a.segments, a.scale)
    Xb, gb = generators.gen_rp2()
    return product_complex(Xa, ga, Xb, gb)


@_input_errors
def main_sysverify(argv=None) -> int:
    p = argparse.ArgumentParser(prog="sysverify")
    sub = p.add_subparsers(dest="cmd", required=True)
    pr = sub.add_parser("run", help="full inequality verification on a mesh")
    pr.add_argument("mesh")
    pr.add_argument("--exact-timeout", type=float, default=120.0)
    pr.add_argument("--json", dest="json_out")
    _add_verbose(pr)
    pg = sub.add_parser("gen", help="write a generated example mesh to stdout")
    pg.add_argument("space", choices=["torus", "rp2", "product"])
    pg.add_argument("--lattice", help="lattice file for torus")
    pg.add_argument("--rank", type=int, default=2)
    pg.add_argument("--subdivisions", type=int, default=4)
    pg.add_argument("--scale", type=float, default=1.0)
    pg.add_argument("--segments", type=int, default=4)
    a = p.parse_args(argv)
    if a.cmd == "gen":
        X, g = _gen_mesh(a)
        print(format_mesh(X, g), end="")
        return 0
    _log_level(a.verbose)
    X, g = _mesh(a.mesh)
    rep = verify.verify_inequality12(
        X, g, name=os.path.basename(a.mesh),
        exact_timeout=a.exact_timeout)
    text = rep.to_json()
    if a.json_out:
        pathlib.Path(a.json_out).write_text(text + "\n")
    print(text)
    worst = rep.worst
    if worst == verify.VIOLATED:
        return 1
    if worst == verify.SOFT:
        return 2
    return 0
