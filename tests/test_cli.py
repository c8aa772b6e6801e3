import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dcpm
from dcpm.cli import (EXIT_INFEASIBLE, EXIT_INVALID, EXIT_NO_CONVERGENCE,
                      EXIT_OK, main)
from dcpm.mesh import dump_mesh

from conftest import TETRA_TEXT, degenerate_lengths, pinched


@pytest.fixture
def mesh_file(tmp_path, octagon1):
    path = tmp_path / "octagon1.mesh"
    path.write_text(dump_mesh(octagon1.mesh, octagon1.lengths))
    return str(path)


def read_u(path):
    out = {}
    for line in path.read_text().splitlines():
        _, idx, val = line.split()
        out[int(idx)] = float(val)
    return np.array([out[i] for i in range(len(out))])


def parse_report(text):
    report = {}
    for line in text.splitlines():
        k, _, v = line.partition(" = ")
        report[k] = v
    return report


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_cli_contract(argv):
    code, out, err = run_cli(argv)
    assert code in (EXIT_OK, EXIT_INVALID, EXIT_INFEASIBLE,
                    EXIT_NO_CONVERGENCE), (argv[:1], code, err)
    err_lines = err.splitlines()
    assert len(err_lines) == (code != EXIT_OK), (argv[:1], err)
    assert all(line.startswith("error: ") for line in err_lines)
    assert not re.search(r"\bnan\b", out, re.IGNORECASE), out
    return code, out, err


# -- exit codes ----------------------------------------------------------------

@pytest.fixture
def cli_paths(tmp_path, octagon1, mesh_file):
    """Placeholders of the exit-code table: input files, {tmp}, an empty
    output directory, {nowhere}, a path in a missing directory, and the
    whitespace that splitting the table's argv would drop."""
    kappa = "".join(f"k {f} -1.1\n" for f in range(octagon1.mesh.face_count))
    texts = {
        "tetra": TETRA_TEXT,
        "vcount100": TETRA_TEXT.replace("v 4", "v 100"),
        "hugeface": TETRA_TEXT.replace("f 2 ", "f 99999999999999999999 "),
        "hugevcount": TETRA_TEXT.replace("v 4", "v 99999999999999999999"),
        "inflength": dump_mesh(octagon1.mesh, np.r_[np.inf, octagon1.lengths[1:]]),
        "kappa": kappa,
        "kinf": kappa.replace("\nk 3 -1.1\n", "\nk 3 -inf\n"),
        "latin1": "v 14\n# caf\xe9 \xff\n",  # written as Latin-1: not UTF-8
    }
    paths = {"mesh": mesh_file, "tmp": str(tmp_path / "out"),
             "nowhere": str(tmp_path / "out" / "missing" / "x"),
             "space": " ", "newline": "\n"}
    (tmp_path / "out").mkdir()
    for name, text in texts.items():
        paths[name] = str(tmp_path / name)
        Path(paths[name]).write_text(text, encoding="latin-1")
    return paths


def row(id, code, argv, err="", report=None, written=()):
    """One case: each word of ``argv`` is formatted with ``cli_paths``;
    ``err`` is all of stderr if it ends in a newline, else a fragment of it;
    ``report`` is a fragment of stdout, or None for an empty one; and
    ``written`` names the files left in {tmp}."""
    return pytest.param(argv, code, err, report, written, id=id)


SOLVE = "solve --mesh {mesh} --out {tmp}/u --kappa"
FLOW = "flow --mesh {mesh} --out {tmp}/u --kappa const:-1 --steps"
CONVERGE = "converge --out {tmp}/s.csv --levels"
NOT_CONVERGED = "error: no convergence; the best iterate was written\n"

EXIT_CODES = [
    # a malformed command line leaves through main, not argparse's usage exit
    row("no-command", EXIT_INVALID, "",
        "error: the following arguments are required: cmd\n"),
    row("unknown-command", EXIT_INVALID, "frobnicate --out {tmp}/u",
        "error: argument cmd: invalid choice: 'frobnicate'"),
    row("solve-missing-kappa", EXIT_INVALID, "solve --mesh {mesh} --out {tmp}/u",
        "error: the following arguments are required: --kappa\n"),
    row("solve-max-iter-abc", EXIT_INVALID, f"{SOLVE} const:-1 --max-iter abc",
        "error: argument --max-iter: invalid int value: 'abc'\n"),
    row("solve-tol-x", EXIT_INVALID, f"{SOLVE} const:-1 --tol x",
        "error: argument --tol: invalid float value: 'x'\n"),
    row("flow-polish", EXIT_INVALID, f"{FLOW} 8 --polish",
        "error: unrecognized arguments: --polish\n"),
    # the configs own the count and tolerance rules; main maps their ValueError
    *(row(f"solve-tol-{tol}", EXIT_INVALID, f"{SOLVE} const:-1 --tol {tol}",
          "error: tolerance must be finite and > 0\n")
      for tol in ("-1", "nan", "inf")),
    row("solve-max-iter-0", EXIT_INVALID, f"{SOLVE} const:-1 --max-iter 0",
        "error: max_iterations must be an integer >= 1\n"),
    row("flow-steps-0", EXIT_INVALID, f"{FLOW} 0",
        "error: steps must be an integer >= 1\n"),
    # models.octagon_fixture and models.convergence_study own the level rules
    row("gen-negative-refine", EXIT_INVALID, "gen octagon --out {tmp}/m --refine "
        "-1", "error: level must be an integer >= 0\n"),
    row("converge-zero-levels", EXIT_INVALID, f"{CONVERGE} 0",
        "error: levels must be an integer >= 1\n"),
    # curvatures: a const: value is an ASCII number, as in a curvature file
    row("solve-positive-kappa", EXIT_INVALID, f"{SOLVE} const:0.5",
        "error: curvature must be finite and negative\n"),
    row("solve-infinite-kappa", EXIT_INVALID, f"{SOLVE} const:-inf",
        "error: curvature must be finite and negative\n"),
    row("check-kappa-underscore", EXIT_INVALID, "check --mesh {mesh} --kappa "
        "const:-1_0", "error: bad curvature literal 'const:-1_0'\n"),
    row("check-kappa-arabic-digit", EXIT_INVALID, "check --mesh {mesh} --kappa "
        "const:-١", "error: bad curvature literal 'const:-١'\n"),
    row("check-kappa-leading-space", EXIT_INVALID, "check --mesh {mesh} --kappa "
        "const:{space}-1", "error: bad curvature literal 'const: -1'\n"),
    row("check-kappa-trailing-newline", EXIT_INVALID, "check --mesh {mesh} "
        "--kappa const:-1{newline}", "error: bad curvature literal 'const:-1\\n'\n"),
    row("curvature-file-infinite", EXIT_INVALID, f"{SOLVE} {{kinf}}", "finite"),
    row("converge-positive-kappa", EXIT_INVALID, f"{CONVERGE} 2 --kappa const:1"),
    row("converge-curvature-file", EXIT_INVALID, f"{CONVERGE} 1 --kappa "
        "{kappa}", "error: converge supports only const:<value> curvature\n"),
    # an output file given twice would hold only the last text written to it
    row("solve-out-is-report", EXIT_INVALID, f"{SOLVE} const:-1 --report "
        "{tmp}/u", "/out/u' given twice"),
    row("flow-out-is-trace", EXIT_INVALID, f"{FLOW} 8 --trace {{tmp}}/./u",
        "given twice"),
    # an output file that names an input would replace it
    row("solve-out-is-mesh", EXIT_INVALID, "solve --mesh {mesh} --kappa const:-1 "
        "--out {mesh}", "/octagon1.mesh' is an input file"),
    row("solve-report-is-kappa", EXIT_INVALID, f"{SOLVE} {{kappa}} --report "
        "{kappa}", "/kappa' is an input file"),
    row("check-report-is-mesh", EXIT_INVALID, "check --mesh {mesh} --report "
        "{tmp}/../octagon1.mesh", "/out/../octagon1.mesh' is an input file"),
    row("flow-trace-is-mesh", EXIT_INVALID, f"{FLOW} 8 --trace {{mesh}}",
        "/octagon1.mesh' is an input file"),
    row("solve-missing-mesh", EXIT_INVALID, "solve --mesh {tmp}/nope --kappa "
        "const:-1 --out {tmp}/u", "error: cannot read mesh file: "),
    row("solve-low-genus", EXIT_INVALID, "solve --mesh {tetra} --kappa const:-1 "
        "--out {tmp}/u", "genus"),
    row("check-infinite-length", EXIT_INVALID, "check --mesh {inflength}",
        "length"),
    row("check-vertex-count-100", EXIT_INVALID, "check --mesh {vcount100}",
        "vertex count"),
    row("check-huge-face-id", EXIT_INVALID, "check --mesh {hugeface}", "int64"),
    row("check-huge-vertex-count", EXIT_INVALID, "check --mesh {hugevcount}",
        "int64"),
    # model lengths past the sinh range are infeasible, not a NaN result
    *(row(f"solve-kappa-{k}", EXIT_INFEASIBLE, f"{SOLVE} const:-{k}")
      for k in ("1e300", "1e150", "1e100")),
    row("converge-kappa-1e300", EXIT_INFEASIBLE, f"{CONVERGE} 1 --kappa "
        "const:-1e300"),
    row("check-kappa-1e300", EXIT_OK, "check --mesh {mesh} --kappa const:-1e300",
        report="feasible = False"),
    # no convergence: the best iterate and the report are still written
    *(row(f"solve-max-iter-{n}", EXIT_NO_CONVERGENCE, f"{SOLVE} const:-1 "
          f"--tol 1e-30 --max-iter {n}", NOT_CONVERGED, "converged = False",
          ("u",)) for n in (2, 1)),
    # a tiny curvature leaves the Newton system nearly singular; the failed
    # solve ends in one error line, with no traceback and no u file
    *(row(f"solve-kappa-{k}", EXIT_NO_CONVERGENCE, f"{SOLVE} const:-{k}",
          "error: linear solve failed") for k in ("1e-8", "1e-20")),
]


# files that cannot be read as UTF-8 text or cannot be written
FILE_ERRORS = [row(id, EXIT_INVALID, argv, "error: cannot ") for id, argv in [
    ("check-mesh-not-utf8", "check --mesh {latin1}"),
    ("solve-kappa-not-utf8", f"{SOLVE} {{latin1}}"),
    ("gen-out", "gen octagon --out {nowhere}"),
    ("check-report", "check --mesh {mesh} --report {nowhere}"),
    ("solve-out", "solve --mesh {mesh} --kappa const:-1 --out {nowhere}"),
    ("solve-report", f"{SOLVE} const:-1 --report {{nowhere}}"),
    ("flow-trace", f"{FLOW} 8 --trace {{nowhere}}"),
    ("converge-out", "converge --levels 1 --out {nowhere}")]]


@pytest.mark.parametrize("argv, code, err, report, written", EXIT_CODES)
def test_exit_code(cli_paths, argv, code, err, report, written):
    inputs = {p: Path(p).read_bytes() for p in cli_paths.values()
              if Path(p).is_file()}
    got_code, out, got_err = assert_cli_contract(
        [word.format(**cli_paths) for word in argv.split()])
    assert got_code == code, got_err
    assert (got_err == err) if err.endswith("\n") else (err in got_err)
    assert (out == "") if report is None else (report in out)
    left = sorted(p.name for p in Path(cli_paths["tmp"]).rglob("*"))
    assert left == sorted(written)
    # no command writes to an input file
    assert {p: Path(p).read_bytes() for p in inputs} == inputs


@pytest.mark.parametrize("argv, code, err, report, written", FILE_ERRORS)
def test_unreadable_or_unwritable_file_exits_2(cli_paths, argv, code, err,
                                               report, written):
    test_exit_code(cli_paths, argv, code, err, report, written)


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert (exc.value.code, capsys.readouterr().out[:11]) == (0, "usage: dcpm")


# -- gen ------------------------------------------------------------------

def test_gen_roundtrips(tmp_path, capsys):
    out = tmp_path / "m.mesh"
    assert main(["gen", "octagon", "--refine", "1",
                 "--out", str(out)]) == EXIT_OK
    report = parse_report(capsys.readouterr().out)
    assert report["vertices"] == "14"
    assert report["faces"] == "32"
    from dcpm.mesh import load_mesh
    mesh, _ = load_mesh(out.read_text())
    assert mesh.face_count == 32


# -- solve ------------------------------------------------------------------

def test_solve_from_a_degenerate_start(tmp_path, octagon2, capsys):
    path = tmp_path / "degenerate.mesh"
    path.write_text(dump_mesh(octagon2.mesh, degenerate_lengths(octagon2)))
    assert main(["solve", "--mesh", str(path), "--kappa", "const:-1",
                 "--out", str(tmp_path / "u.out")]) == EXIT_OK
    assert parse_report(capsys.readouterr().out)["converged"] == "True"


def test_solve_success(tmp_path, mesh_file, capsys):
    out = tmp_path / "u.out"
    report_path = tmp_path / "report.txt"
    code = main(["solve", "--mesh", mesh_file, "--kappa", "const:-1.0",
                 "--out", str(out), "--report", str(report_path)])
    assert code == EXIT_OK
    report = parse_report(capsys.readouterr().out)
    assert report["converged"] == "True"
    assert float(report["residual_inf"]) <= 1e-10
    u = read_u(out)
    assert len(u) == 14
    # the report file drops the timing line but keeps everything else
    file_report = parse_report(report_path.read_text())
    assert "seconds" in report and "seconds" not in file_report
    assert file_report["residual_inf"] == report["residual_inf"]


def test_solve_deterministic_outputs(tmp_path, mesh_file):
    paths = []
    for tag in ("a", "b"):
        out = tmp_path / f"u.{tag}"
        rep = tmp_path / f"r.{tag}"
        assert main(["solve", "--mesh", mesh_file, "--kappa", "const:-1.3",
                     "--out", str(out), "--report", str(rep)]) == EXIT_OK
        paths.append((out, rep))
    assert paths[0][0].read_bytes() == paths[1][0].read_bytes()
    assert paths[0][1].read_bytes() == paths[1][1].read_bytes()


def test_solve_curvature_file(tmp_path, mesh_file, octagon1):
    kfile = tmp_path / "kappa.txt"
    kfile.write_text("\n".join(
        f"k {f} -1.1" for f in range(octagon1.mesh.face_count)))
    assert main(["solve", "--mesh", mesh_file, "--kappa", str(kfile),
                 "--out", str(tmp_path / "u")]) == EXIT_OK


@pytest.mark.parametrize("argv", [
    ["solve", "--out", "{tmp}/u", "--report", "{nowhere}"],
    ["solve", "--out", "{nowhere}", "--report", "{tmp}/r"],
    ["solve", "--out", "{tmp}/u", "--report", "{tmp}"],
    ["flow", "--steps", "8", "--out", "{tmp}/u", "--report", "{nowhere}",
     "--trace", "{tmp}/t"],
    ["flow", "--steps", "8", "--out", "{tmp}/u", "--report", "{tmp}/r",
     "--trace", "{nowhere}"],
    ["flow", "--steps", "8", "--out", "{nowhere}", "--report", "{tmp}/r",
     "--trace", "{tmp}/t"],
], ids=["solve-report", "solve-out", "solve-report-is-dir", "flow-report",
        "flow-trace", "flow-out"])
def test_unwritable_output_stops_before_solving(tmp_path, mesh_file, capsys,
                                                monkeypatch, argv):
    # every output path is checked first: nothing is solved or written, and
    # an output that already exists keeps its bytes
    import dcpm.cli

    def no_solve(*args):
        raise AssertionError("solved despite an unwritable output")

    monkeypatch.setattr(dcpm.cli, "newton_solve", no_solve)
    monkeypatch.setattr(dcpm.cli, "continuation_solve", no_solve)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    (out_dir / "r").write_text("old report\n")
    paths = {"tmp": str(out_dir), "nowhere": str(tmp_path / "missing" / "x")}
    argv = argv[:1] + ["--mesh", mesh_file, "--kappa", "const:-1"] + argv[1:]
    assert main([arg.format(**paths) for arg in argv]) == EXIT_INVALID
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write file: ") and err.count("\n") == 1
    assert sorted(p.name for p in out_dir.iterdir()) == ["r"]
    assert (out_dir / "r").read_text() == "old report\n"
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("argv", [
    ["gen", "octagon", "--refine", "1", "--out", "{nowhere}"],
    ["check", "--mesh", "{mesh}", "--report", "{nowhere}"],
    ["solve", "--mesh", "{mesh}", "--kappa", "const:-1", "--out", "{nowhere}"],
    ["flow", "--mesh", "{mesh}", "--kappa", "const:-1", "--steps", "8",
     "--out", "{tmp}/u", "--report", "{nowhere}"],
    ["converge", "--levels", "1", "--out", "{nowhere}"],
], ids=lambda argv: argv[0])
def test_every_command_checks_outputs_first(tmp_path, mesh_file, capsys,
                                            monkeypatch, argv):
    # no command reads, builds or solves anything before its outputs pass
    import dcpm.cli
    import dcpm.models

    def no_work(*args, **kwargs):
        raise AssertionError("worked despite an unwritable output")

    monkeypatch.setattr(dcpm.cli, "load_mesh", no_work)
    monkeypatch.setattr(dcpm.models, "octagon_fixture", no_work)
    monkeypatch.setattr(dcpm.models, "convergence_study", no_work)
    before = sorted(tmp_path.rglob("*"))
    paths = {"mesh": mesh_file, "tmp": str(tmp_path),
             "nowhere": str(tmp_path / "missing" / "x")}
    assert main([arg.format(**paths) for arg in argv]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot write file: ")
    assert captured.err.count("\n") == 1
    assert sorted(tmp_path.rglob("*")) == before


def test_solve_validates_topology_once(tmp_path, mesh_file, topology_calls):
    assert main(["solve", "--mesh", mesh_file, "--kappa", "const:-1",
                 "--out", str(tmp_path / "u")]) == EXIT_OK
    assert len(topology_calls) == 1


def test_flow_validates_topology_once(tmp_path, mesh_file, topology_calls):
    assert main(["flow", "--mesh", mesh_file, "--kappa", "const:-1",
                 "--steps", "8", "--out", str(tmp_path / "u")]) == EXIT_OK
    assert len(topology_calls) == 1


def test_solve_and_check_evaluate_angles_once(tmp_path, octagon2, capsys,
                                              corner_angle_calls):
    # solve: the start and each trial point; the report reads the angles of
    # the last one.  check: one evaluation for the margin and Gauss-Bonnet
    path = tmp_path / "m.mesh"
    path.write_text(dump_mesh(octagon2.mesh, octagon2.lengths))
    assert main(["solve", "--mesh", str(path), "--kappa", "const:-1",
                 "--out", str(tmp_path / "u")]) == EXIT_OK
    iterations = int(parse_report(capsys.readouterr().out)["iterations"])
    # every step here is a full step: one trial point per iteration
    assert len(corner_angle_calls) == 1 + iterations == 4
    corner_angle_calls.clear()
    assert main(["check", "--mesh", str(path)]) == EXIT_OK
    assert len(corner_angle_calls) == 1


TINY_KAPPAS = ["const:-1e-160", "const:-1e-200", "const:-1e-300"]


@pytest.mark.parametrize("kappa", TINY_KAPPAS)
def test_cli_contract_at_tiny_curvature(tmp_path, mesh_file, kappa):
    # tiny model lengths underflow the half-angle products: no NaN may reach
    # a report, and every failure is one error line
    out = str(tmp_path / "out")
    assert_cli_contract(["check", "--mesh", mesh_file, "--kappa", kappa])
    assert_cli_contract(["solve", "--mesh", mesh_file, "--kappa", kappa,
                         "--out", out])
    assert_cli_contract(["flow", "--mesh", mesh_file, "--kappa", kappa,
                         "--steps", "8", "--out", out])
    assert_cli_contract(["converge", "--levels", "1", "--kappa", kappa,
                         "--out", out])


@pytest.mark.parametrize("kappa", TINY_KAPPAS)
def test_tiny_curvature_check_and_solves(tmp_path, mesh_file, kappa):
    # check sees the Euclidean-limit margin; the solves fail on the nearly
    # singular Newton system (-Delta as kappa -> 0) with exit 4
    code, out, err = run_cli(["check", "--mesh", mesh_file, "--kappa", kappa])
    assert (code, err) == (EXIT_OK, "")
    report = parse_report(out)
    assert report["feasible"] == "True"
    assert abs(float(report["acuteness_margin"])
               - -0.13597394722258627) <= 1e-12
    out_path = str(tmp_path / "out")
    for argv in (["solve", "--mesh", mesh_file],
                 ["flow", "--mesh", mesh_file, "--steps", "8"],
                 ["converge", "--levels", "1"]):
        code, out, err = run_cli(argv + ["--kappa", kappa, "--out", out_path])
        assert code == EXIT_NO_CONVERGENCE, (argv[0], err)
        assert err.startswith("error: linear solve failed") and err.count("\n") == 1
        assert out == ""


def test_overflowing_model_length_is_infeasible(tmp_path, octagon1, capsys):
    # (-kappa/2) * l overflows; pytest turns any RuntimeWarning into an error
    path = tmp_path / "m.mesh"
    lengths = octagon1.lengths.copy()
    lengths[0] = 1e300
    path.write_text(dump_mesh(octagon1.mesh, lengths))
    assert main(["check", "--mesh", str(path), "--kappa", "const:-1e10"]) == EXIT_OK
    assert parse_report(capsys.readouterr().out)["feasible"] == "False"
    assert main(["solve", "--mesh", str(path), "--kappa", "const:-1e10",
                 "--out", str(tmp_path / "u")]) == EXIT_INFEASIBLE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


LAZY_SCIPY_SCRIPT = """
import json, sys
import dcpm.cli
mesh, report, u = sys.argv[1:]
codes = [dcpm.cli.main(["gen", "octagon", "--refine", "2", "--out", mesh]),
         dcpm.cli.main(["check", "--mesh", mesh, "--report", report])]
before = [m for m in sys.modules if m.startswith("scipy")]
codes.append(dcpm.cli.main(["solve", "--mesh", mesh, "--kappa", "const:-1",
                            "--out", u]))
print(json.dumps({"codes": codes, "scipy_before_solve": before}))
"""


def test_gen_and_check_do_not_load_scipy(tmp_path):
    src = str(Path(dcpm.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", LAZY_SCIPY_SCRIPT, str(tmp_path / "m.mesh"),
         str(tmp_path / "check.txt"), str(tmp_path / "u.out")],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["scipy_before_solve"] == []
    assert result["codes"] == [EXIT_OK, EXIT_OK, EXIT_OK]


# -- flow ------------------------------------------------------------------

def test_flow_matches_solve(tmp_path, mesh_file):
    u_solve = tmp_path / "u.solve"
    u_flow = tmp_path / "u.flow"
    trace = tmp_path / "trace.csv"
    assert main(["solve", "--mesh", mesh_file, "--kappa", "const:-1",
                 "--out", str(u_solve)]) == EXIT_OK
    assert main(["flow", "--mesh", mesh_file, "--kappa", "const:-1",
                 "--steps", "32", "--trace", str(trace),
                 "--out", str(u_flow)]) == EXIT_OK
    np.testing.assert_allclose(read_u(u_flow), read_u(u_solve), atol=1e-9)
    lines = trace.read_text().strip().splitlines()
    assert lines[0] == "t,residual_inf,linearity_defect"
    assert len(lines) == 4                 # three checkpoints


def test_flow_no_polish(tmp_path, mesh_file, capsys):
    code = main(["flow", "--mesh", mesh_file, "--kappa", "const:-1",
                 "--steps", "16", "--no-polish",
                 "--out", str(tmp_path / "u")])
    assert code == EXIT_OK
    report = parse_report(capsys.readouterr().out)
    assert report["converged"] == "False"
    assert float(report["linearity_defect"]) <= 1e-6


def test_flow_polish_non_convergence_exits_4(tmp_path, mesh_file, capsys,
                                             monkeypatch):
    # a polish that can take no step ends unconverged: exit 4, with the
    # flow's end point and the report still written
    import dcpm.solver

    monkeypatch.setattr(dcpm.solver, "MAX_BACKTRACKS", 0)
    out, report_path = tmp_path / "u", tmp_path / "r"
    assert main(["flow", "--mesh", mesh_file, "--kappa", "const:-1",
                 "--steps", "1", "--out", str(out),
                 "--report", str(report_path)]) == EXIT_NO_CONVERGENCE
    captured = capsys.readouterr()
    assert captured.err == NOT_CONVERGED
    assert parse_report(captured.out)["converged"] == "False"
    assert len(read_u(out)) == 14
    assert parse_report(report_path.read_text())["converged"] == "False"


def test_flow_checkpoints_at_step_times(tmp_path, mesh_file, capsys):
    # 50 steps put no step at t = 0.25 or 0.75: each checkpoint is the first
    # step past its fraction, labelled and measured at that step's own time
    trace = tmp_path / "trace.csv"
    assert main(["flow", "--mesh", mesh_file, "--kappa", "const:-1",
                 "--steps", "50", "--no-polish", "--trace", str(trace),
                 "--out", str(tmp_path / "u")]) == EXIT_OK
    report = parse_report(capsys.readouterr().out)
    assert float(report["linearity_defect"]) <= 1e-6
    times = [float(line.split(",")[0])
             for line in trace.read_text().splitlines()[1:]]
    assert times == [13 / 50, 25 / 50, 38 / 50]


# -- check ------------------------------------------------------------------

def test_check_reports_topology(tmp_path, mesh_file, capsys):
    assert main(["check", "--mesh", mesh_file,
                 "--isoperimetric"]) == EXIT_OK
    report = parse_report(capsys.readouterr().out)
    assert report["genus"] == "2"
    assert report["solver_eligible"] == "True"
    assert report["feasible"] == "True"
    assert float(report["isoperimetric_constant"]) > 0


def test_check_accepts_ineligible_mesh(tmp_path, capsys):
    bad = tmp_path / "tetra.mesh"
    bad.write_text(TETRA_TEXT)
    assert main(["check", "--mesh", str(bad)]) == EXIT_OK
    report = parse_report(capsys.readouterr().out)
    assert report["genus"] == "0"
    assert report["solver_eligible"] == "False"


def test_pinched_mesh_is_invalid(tmp_path, octagon2, capsys):
    path = tmp_path / "pinched.mesh"
    path.write_text(dump_mesh(pinched(octagon2), octagon2.lengths))
    assert main(["check", "--mesh", str(path)]) == EXIT_OK
    report = parse_report(capsys.readouterr().out)
    assert report["genus"] == "3"
    assert report["violations"] == "2"
    assert report["solver_eligible"] == "False"
    assert main(["solve", "--mesh", str(path), "--kappa", "const:-1",
                 "--out", str(tmp_path / "u.out")]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: invalid mesh: vertex 10: link has 2 cycles")
    assert captured.err.count("\n") == 1
    assert not (tmp_path / "u.out").exists()


def test_check_infeasible_reported(tmp_path, octagon1, capsys):
    path = tmp_path / "m.mesh"
    lengths = octagon1.lengths.copy()
    lengths[0] *= 50.0
    path.write_text(dump_mesh(octagon1.mesh, lengths))
    assert main(["check", "--mesh", str(path)]) == EXIT_OK
    report = parse_report(capsys.readouterr().out)
    assert report["feasible"] == "False"


# -- converge ------------------------------------------------------------------

def test_converge_writes_csv(tmp_path, capsys):
    out = tmp_path / "study.csv"
    assert main(["converge", "--levels", "2", "--out", str(out)]) == EXIT_OK
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "level,max_len,margin,iters,residual,error_inf"
    assert len(lines) == 3


def test_converge_non_convergence_exits_4(tmp_path, capsys, monkeypatch):
    # a level that does not converge fails the study; the CSV and the
    # report are still written, as for solve
    import dcpm.models
    from dcpm.solver import SolveConfig, newton_solve

    def one_step(mesh, kappa, lengths):
        return newton_solve(mesh, kappa, lengths,
                            SolveConfig(max_iterations=1, tolerance=1e-30))

    monkeypatch.setattr(dcpm.models, "newton_solve", one_step)
    out = tmp_path / "study.csv"
    assert main(["converge", "--levels", "2",
                 "--out", str(out)]) == EXIT_NO_CONVERGENCE
    captured = capsys.readouterr()
    assert captured.err.startswith("error: no convergence")
    assert captured.err.count("\n") == 1
    assert parse_report(captured.out)["levels"] == "2"
    assert len(out.read_text().splitlines()) == 3


# -- input contract -------------------------------------------------------------

# Replacement tokens: bad numbers and literals, plus ids in and out of range for
# the level-1 octagon (V = 14, E = 48, F = 32).  No vertex count here can make
# a missing check allocate more than a few kB per vertex array.
MUTATION_TOKENS = ["0", "-1", "nan", "inf", "-inf", "1e308",
                   "99999999999999999999", "+3", "x",
                   "1", "13", "14", "47", "48", "-47", "+31", "96", "1000"]


@st.composite
def mutated_mesh(draw, text):
    lines = text.splitlines()
    i = draw(st.integers(0, len(lines) - 1))
    op = draw(st.sampled_from(["delete", "duplicate", "replace"]))
    if op == "delete":
        del lines[i]
    elif op == "duplicate":
        lines.insert(i, lines[i])
    else:
        toks = lines[i].split()
        toks[draw(st.integers(0, len(toks) - 1))] = draw(
            st.sampled_from(MUTATION_TOKENS))
        lines[i] = " ".join(toks)
    return "\n".join(lines) + "\n"


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_cli_contract_on_mutated_mesh(octagon1, data):
    text = data.draw(mutated_mesh(dump_mesh(octagon1.mesh, octagon1.lengths)))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.mesh")
        Path(path).write_text(text)
        assert_cli_contract(["check", "--mesh", path])
        assert_cli_contract(["solve", "--mesh", path, "--kappa", "const:-1",
                             "--max-iter", "20", "--out", os.path.join(tmp, "u")])


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_cli_contract_on_mutated_curvature(octagon1, data):
    kappa_text = "".join(f"k {fid} -1\n" for fid in octagon1.mesh.face_ids.tolist())
    text = data.draw(mutated_mesh(kappa_text))
    with tempfile.TemporaryDirectory() as tmp:
        mesh_path, kappa_path = os.path.join(tmp, "m.mesh"), os.path.join(tmp, "m.k")
        Path(mesh_path).write_text(dump_mesh(octagon1.mesh, octagon1.lengths))
        Path(kappa_path).write_text(text)
        assert_cli_contract(["check", "--mesh", mesh_path, "--kappa", kappa_path])
        assert_cli_contract(["solve", "--mesh", mesh_path, "--kappa", kappa_path,
                             "--max-iter", "20", "--out", os.path.join(tmp, "u")])


def test_cli_contract_with_warnings_as_errors(tmp_path, octagon0):
    # at kappa = -1e-2 a Newton trial point on the level-0 mesh overflows the
    # scaled lengths; the line search rejects it without a warning, and
    # converge measures its error against -log(-kappa), never nan
    mesh_path = tmp_path / "octagon0.mesh"
    mesh_path.write_text(dump_mesh(octagon0.mesh, octagon0.lengths))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert_cli_contract(["solve", "--mesh", str(mesh_path), "--kappa",
                             "const:-1e-2", "--out", str(tmp_path / "u")])
        assert_cli_contract(["converge", "--levels", "1", "--kappa", "const:-1e-2",
                             "--out", str(tmp_path / "converge.csv")])
