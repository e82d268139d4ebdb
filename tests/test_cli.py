import json
import logging
import math
import os
import pathlib
import shlex
import subprocess
import sys

import numpy as np
import pytest

import sysgeo
from sysgeo import cli, hodge
from sysgeo.cli import (
    main_syshodge,
    main_syslat,
    main_sysmesh,
    main_syssys,
    main_sysverify,
    main_sysz2,
)
from sysgeo.generators import gen_circle, gen_flat_torus, gen_rp2
from sysgeo.homology import h1_dual_bases, z2_homology
from sysgeo.lattice import LatticeBasis, format_lattice
from sysgeo.simplicial import (
    PLMetric,
    SimplicialComplex,
    format_mesh,
    product_complex,
    read_cover,
    read_mesh,
)
from sysgeo.systole import pisys1_upper, stsys1


@pytest.fixture(scope="module")
def torus_file(tmp_path_factory):
    X, g, _ = gen_flat_torus(np.eye(2), 4)
    path = tmp_path_factory.mktemp("mesh") / "t2.mesh"
    path.write_text(format_mesh(X, g))
    return str(path)


@pytest.fixture(scope="module")
def rp2_file(tmp_path_factory):
    X, g = gen_rp2()
    path = tmp_path_factory.mktemp("mesh") / "rp2.mesh"
    path.write_text(format_mesh(X, g))
    return str(path)


@pytest.fixture(scope="module")
def fcc_file(tmp_path_factory):
    B = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
    path = tmp_path_factory.mktemp("lat") / "fcc.lat"
    path.write_text(format_lattice(LatticeBasis(B)))
    return str(path)


def test_syslat_info(fcc_file, capsys):
    assert main_syslat(["info", fcc_file]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["berge_martinet_product"] == pytest.approx(math.sqrt(1.5), abs=1e-9)
    assert out["hermite_invariant"] == pytest.approx(2 ** (1 / 3), abs=1e-9)
    assert out["gamma_prime_ceiling"] == pytest.approx(math.sqrt(1.5))


def test_syslat_search(capsys):
    assert main_syslat(["search", "--dim", "2", "--budget", "2000",
                        "--seed", "1"]) == 0
    out = capsys.readouterr().out
    head = json.loads(out[:out.index("}") + 1])
    assert head["product"] >= 1.0 - 1e-9


def test_sysmesh_check(torus_file, capsys):
    assert main_sysmesh(["check", torus_file]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["pseudomanifold"] and out["orientable"] and out["metric_ok"]
    assert out["volume"] == pytest.approx(1.0, rel=1e-9)


def test_sysmesh_homology_z2(rp2_file, capsys):
    assert main_sysmesh(["homology", rp2_file, "--ring", "z2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["betti"] == [1, 1, 1]


def test_sysmesh_homology_z(rp2_file, capsys):
    assert main_sysmesh(["homology", rp2_file, "--ring", "z"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["betti"] == [1, 0, 0]
    assert out["torsion"] == [[], [2], []]


@pytest.mark.parametrize("ring,betti,torsion", [
    ("z", [1, 1, 0, 0], [[], [2], [2], []]),
    ("z2", [1, 2, 2, 1], [[], [], [], []]),
])
def test_sysmesh_homology_s1_x_rp2(ring, betti, torsion, tmp_path, capsys):
    """A 3-manifold with torsion in two degrees, written by `sysverify gen`."""
    assert main_sysverify(["gen", "product"]) == 0
    mesh = tmp_path / "s1xrp2.mesh"
    mesh.write_text(capsys.readouterr().out)
    assert main_sysmesh(["homology", str(mesh), "--ring", ring]) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["betti"], out["torsion"]) == (betti, torsion)


def test_syssys_stable(torus_file, capsys):
    assert main_syssys([torus_file, "--invariant", "stsys1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert float(out["value"]) == pytest.approx(1.0, abs=1e-9)


def test_syssys_witness_cycle_in_full(tmp_path, capsys):
    # square T^2 s=20 has 1200 edges, past numpy's display cut-off of 1000
    X, g, _ = gen_flat_torus(np.eye(2), 20)
    path = tmp_path / "t20.mesh"
    path.write_text(format_mesh(X, g))
    assert main_syssys([str(path), "--invariant", "stsys1"]) == 0
    out = json.loads(capsys.readouterr().out)
    X, g = read_mesh(path.read_text())
    cycle = dict(out["witness"])["cycle"]
    assert len(cycle) == X.n_simplices(1) == 1200
    assert all(isinstance(c, (int, float)) for c in cycle)
    assert cycle == dict(stsys1(X, g).witness)["cycle"].tolist()


def test_syssys_infinite_value(rp2_file, capsys):
    assert main_syssys([rp2_file, "--invariant", "stsys1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["value"] == "inf"


def test_syshodge_profile(torus_file, tmp_path, capsys):
    csv = tmp_path / "profile.csv"
    assert main_syshodge([torus_file, "--emit-profile", str(csv)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["min_slice"] == pytest.approx(1.0, rel=1e-6)
    assert "mean_slice" not in out
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "t,slice_volume"
    # the rows are the levels the exact minimum examined: every breakpoint
    # in [0, 1) and every interior critical point, ascending
    X, g = read_mesh(pathlib.Path(torus_file).read_text())
    G, _, etas = hodge.period_gram(X, g)
    data = hodge.sweep(X, g, hodge.circle_map(X, g, hodge.shortest_form(G, etas)[1]))
    rows = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
    levels, vols = data.critical_points()
    assert rows[:, 0] == pytest.approx(levels, abs=1e-12)
    assert rows[:, 1] == pytest.approx(vols, rel=1e-11)
    assert (np.diff(rows[:, 0]) > 0).all() and len(rows) >= len(data.breaks) - 1
    assert rows[:, 1].min() == pytest.approx(out["min_slice"], rel=1e-11)


def test_readme_example_session(tmp_path, monkeypatch, capsys):
    """Each line of the README's example session runs as written, through
    the console entry points, in a fresh directory: a flag the CLI no
    longer takes fails here before it goes stale in the docs."""
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    session = readme.split("Example session:\n\n```sh\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(tmp_path)
    root = logging.getLogger()
    handlers, level = root.handlers[:], root.level  # `-v` may configure logging
    try:
        for line in session.splitlines():
            tool, *args = shlex.split(line, comments=True)
            target = None
            if ">" in args:
                args, target = args[:args.index(">")], args[args.index(">") + 1]
            assert getattr(cli, f"main_{tool}")(args) == 0, line
            if target:
                (tmp_path / target).write_text(capsys.readouterr().out)
    finally:
        root.handlers[:] = handlers
        root.setLevel(level)
    assert len(session.splitlines()) >= 4
    assert (tmp_path / "report.json").exists() and (tmp_path / "profile.csv").exists()


def test_sysz2_exact(rp2_file, capsys):
    assert main_sysz2([rp2_file, "--timeout", "30"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["exactness"] == "exact"
    assert float(out["value"]) > 0


@pytest.fixture(scope="module")
def product_file(tmp_path_factory):
    X, g = product_complex(*gen_circle(4), *gen_rp2())
    path = tmp_path_factory.mktemp("mesh") / "s1xrp2.mesh"
    path.write_text(format_mesh(X, g))
    return str(path)


@pytest.fixture(scope="module")
def fibre_class(product_file):
    """Class coordinates of the RP^2 fibre over circle vertex 0, whose
    vertex b is vertex b of RP^2."""
    X, _ = read_mesh(pathlib.Path(product_file).read_text())
    faces = [X.index(t) for t in gen_rp2()[0].simplices(2)]
    return (z2_homology(X, 2).cocycle_reps[:, faces].sum(axis=1) & 1).tolist()


@pytest.fixture(scope="module")
def z2_cover_dir(product_file, tmp_path_factory):
    """Directory holding one cover file: the Z/2 coloring of S^1 x RP^2
    read off its torsion class, the torsion row of the edge-coordinate
    matrix mod 2."""
    X, _ = read_mesh(pathlib.Path(product_file).read_text())
    pres = h1_dual_bases(X)[2]
    (row,) = pres.tor_rows
    colors = [f"color {u} {v} {int(c) % 2}" for (u, v), c in zip(X.edges, pres.M[row])]
    path = tmp_path_factory.mktemp("covers")
    (path / "z2.cover").write_text("\n".join(["group 2", "0 1", "1 0"] + colors) + "\n")
    return path


def test_syssys_pisys1_reads_cover_dir(product_file, z2_cover_dir, capsys):
    assert main_syssys([product_file, "--invariant", "pisys1",
                        "--covers", str(z2_cover_dir)]) == 0
    out = json.loads(capsys.readouterr().out)
    X, g = read_mesh(pathlib.Path(product_file).read_text())
    spec = read_cover((z2_cover_dir / "z2.cover").read_text())
    assert out["value"] == pisys1_upper(X, g, [spec]).value
    assert out["exactness"] == "upper-bound"


def test_sysmesh_cover_writes_double_cover(product_file, z2_cover_dir, capsys):
    assert main_sysmesh(["cover", product_file, str(z2_cover_dir / "z2.cover")]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.err) == {"sheets": 2, "components": 1}
    X, _ = read_mesh(pathlib.Path(product_file).read_text())
    C, _ = read_mesh(captured.out)
    assert C.n_vertices == 2 * X.n_vertices


def test_sysz2_prunes_dominated_classes(product_file, fibre_class, capsys):
    # S^1 x RP^2: the unit-area RP^2 fibre class is solved to 1, and the
    # two other classes are pruned against it
    assert main_sysz2([product_file, "--timeout", "30"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["exactness"] == "exact"
    assert out["value"] == pytest.approx(1.0, rel=1e-9)
    assert out["witness_class"] == fibre_class
    per_class = out["per_class"]
    assert [c["class"] for c in per_class] == [[0, 1], [1, 0], [1, 1]]
    fibre = [c["class"] == fibre_class for c in per_class]
    assert sum(fibre) == 1
    assert [c["pruned"] for c in per_class] == [not f for f in fibre]
    assert [c["exact"] for c in per_class] == fibre
    assert [c["path"] for c in per_class] == ["lp" if f else "pruned" for f in fibre]
    X, _ = read_mesh(pathlib.Path(product_file).read_text())
    for c in per_class:
        if c["rounds"]:
            assert c["cuts"] >= 1
        else:
            # pruned by the packings of the classes before it, with no LP
            assert c["pruned"] and c["cuts"] == c["seeded"] == 0
        # each separation is rooted at some, not all, of the tops
        assert 1 <= c["roots"] < X.n_simplices(3)
        assert c["lower_bound"] >= out["value"] * (1 - 1e-9)
        assert c["value"] >= c["lower_bound"]


def test_sysz2_without_codim1_classes(tmp_path, capsys):
    """The boundary of the 4-simplex, a 3-sphere, has H_2(X; Z2) = 0: the
    value is +inf with no witness and no class."""
    X = SimplicialComplex(5, [tuple(v for v in range(5) if v != i) for i in range(5)])
    path = tmp_path / "s3.mesh"
    path.write_text(format_mesh(X, PLMetric({e: 1.0 for e in X.edges})))
    assert main_sysz2([str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"value": "inf", "exactness": "exact", "witness_class": None,
                   "witness_faces": [], "per_class": []}


def _cli(main, args):
    """Run a console entry point in a fresh interpreter, so that its
    logging setup is its own: (exit code, stdout, stderr)."""
    code = f"import sys\nfrom sysgeo.cli import {main}\nsys.exit({main}({args!r}))"
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(sysgeo.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=120, env=env)
    return out.returncode, out.stdout, out.stderr


def test_verbose_logs_to_stderr_only(product_file, fibre_class):
    quiet = _cli("main_sysz2", [product_file])
    info = _cli("main_sysz2", [product_file, "-v"])
    debug = _cli("main_sysz2", [product_file, "-vv"])
    assert quiet[0] == info[0] == debug[0] == 0
    assert quiet[1] == info[1] == debug[1]
    assert quiet[2] == ""
    # one line per class at -v; -vv adds one per cutting-plane round
    lines = info[2].splitlines()
    assert len(lines) == 3 and all(": class (" in line for line in lines)
    assert f"class {tuple(fibre_class)}: lp" in info[2]
    rounds = sum(c["rounds"] for c in json.loads(quiet[1])["per_class"])
    assert sum(": round " in line for line in debug[2].splitlines()) == rounds
    # the report on stdout does not change either
    run = _cli("main_sysverify", ["run", product_file, "--exact-timeout", "30"])
    run_v = _cli("main_sysverify", ["run", product_file, "--exact-timeout", "30", "-v"])
    assert run[:2] == run_v[:2] and run[2] == ""
    assert sum(": class (" in line for line in run_v[2].splitlines()) == 3


def test_syssys_verbose_logs_stsys1_summary(torus_file):
    quiet = _cli("main_syssys", [torus_file, "--invariant", "stsys1"])
    info = _cli("main_syssys", [torus_file, "-v", "--invariant", "stsys1"])
    assert quiet[0] == info[0] == 0 and quiet[2] == ""
    assert json.loads(info[1]) == json.loads(quiet[1])
    # one INFO summary: value, class, box, solves, pruned
    (line,) = info[2].splitlines()
    assert "sysgeo.systole: stsys1 1 at class (" in line
    assert ", box [" in line and " solves, " in line and line.endswith(" pruned")


def test_syshodge_verbose_logs_gram_and_sweep(torus_file):
    quiet = _cli("main_syshodge", [torus_file])
    info = _cli("main_syshodge", [torus_file, "-v"])
    debug = _cli("main_syshodge", [torus_file, "-vv"])
    assert quiet[0] == info[0] == debug[0] == 0
    assert quiet[1] == info[1] == debug[1] and quiet[2] == ""
    out = json.loads(quiet[1])
    # -v: the period Gram's sizes, then the sweep's minimum
    gram, sweep = info[2].splitlines()
    X, g = read_mesh(pathlib.Path(torus_file).read_text())
    assert gram.endswith(f"sysgeo.hodge: period gram: b1 2, {X.n_simplices(1)} edges, "
                         f"Laplacian nnz {X.n_vertices + 2 * X.n_simplices(1)}")
    assert "sysgeo.hodge: sweep: " in sweep and " breakpoints, min volume " in sweep
    volume, t_min = (float(x) for x in sweep.split(" min volume ")[1].split(" at t_min "))
    assert volume == pytest.approx(out["min_slice"], rel=1e-8)
    assert t_min == pytest.approx(out["t_min"], abs=1e-8)
    # -vv adds the harmonic solve's residual, before the Gram it serves
    resid, *rest = debug[2].splitlines()
    assert [ln.split(" ms ")[1] for ln in rest] == [
        ln.split(" ms ")[1] for ln in (gram, sweep)]
    assert "sysgeo.hodge: harmonic solve: 2 classes, relative residual " in resid
    assert float(resid.split()[-1]) <= 1e-8


def test_sysverify_gen_and_run(tmp_path, capsys):
    assert main_sysverify(["gen", "torus", "--rank", "2",
                           "--subdivisions", "4"]) == 0
    mesh_text = capsys.readouterr().out
    mesh = tmp_path / "gen.mesh"
    mesh.write_text(mesh_text)
    out_json = tmp_path / "report.json"
    code = main_sysverify(["run", str(mesh), "--exact-timeout", "30",
                           "--json", str(out_json)])
    assert code == 0
    rep = json.loads(out_json.read_text())
    assert rep["verdicts"]["main-inequality"] == "holds"
    assert rep["ratio"] == pytest.approx(1.0, rel=1e-6)


@pytest.fixture(scope="module")
def malformed_files(tmp_path_factory):
    """A mesh with one zero edge length, a lattice missing a basis row, a
    cocycle file with a word for a value, and a valid mesh to apply it to."""
    X, g, _ = gen_flat_torus(np.eye(2), 4)
    root = tmp_path_factory.mktemp("malformed")
    u, v = X.edges[0]
    text = format_mesh(X, g)
    files = {
        "mesh": text.replace(f"edgelen {u} {v} {g.length(u, v):.17g}\n",
                             f"edgelen {u} {v} 0\n"),
        "lat": "lattice 2\n1 0\n",
        "cls": "0\n1\nabc\n",
        "good": text,
    }
    for name, content in files.items():
        (root / name).write_text(content)
    return {name: str(root / name) for name in files}


# each console script's arguments on the files of `malformed_files`, and
# one bad argument per script (argparse's usage errors); the id's part
# before any "-" names the script
_MALFORMED_ARGS = {
    "syslat": ["info", "{lat}"],
    "sysmesh": ["check", "{mesh}"],
    "syssys": ["{mesh}"],
    "syshodge": ["{mesh}"],
    "syshodge-class": ["{good}", "--class", "{cls}"],
    "sysz2": ["{mesh}"],
    "sysverify": ["run", "{mesh}"],
    "syslat-argument": ["search", "--dim", "two"],
    "sysmesh-argument": ["homology", "{good}", "--ring", "q"],
    "syssys-argument": ["{good}", "--invariant", "sys9"],
    "syshodge-argument": ["{good}", "--emit-profile"],
    "sysz2-argument": ["{good}", "--timeout", "abc"],
    "sysverify-argument": ["run", "{good}", "--exact-timeout", "abc"],
}


@pytest.mark.parametrize("case", list(_MALFORMED_ARGS))
def test_console_script_input_error_exits_3(case, malformed_files):
    """Every console script reports a malformed input file or a bad
    argument on one stderr line, writes nothing to stdout and exits with
    code 3, not argparse's 2, which `sysverify run` gives a flagged
    verdict."""
    prog = case.split("-")[0]
    code, out, err = _cli(f"main_{prog}",
                          [a.format(**malformed_files) for a in _MALFORMED_ARGS[case]])
    assert code == 3 and out == "", (code, out)
    (line,) = err.splitlines()
    assert line.startswith(f"{prog}: error: ") and "Traceback" not in err, err
