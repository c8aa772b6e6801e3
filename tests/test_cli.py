import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dcpm
from dcpm.cli import (EXIT_INFEASIBLE, EXIT_INVALID, EXIT_NO_CONVERGENCE,
                      EXIT_OK, main)
from dcpm.mesh import dump_mesh

from conftest import TETRA_TEXT


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


def test_gen_rejects_negative_refine(tmp_path):
    assert main(["gen", "octagon", "--refine", "-1",
                 "--out", str(tmp_path / "m")]) == EXIT_INVALID


# -- solve ------------------------------------------------------------------

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


def test_solve_rejects_positive_kappa(tmp_path, mesh_file, capsys):
    assert main(["solve", "--mesh", mesh_file, "--kappa", "const:0.5",
                 "--out", str(tmp_path / "u")]) == EXIT_INVALID


def test_solve_rejects_low_genus(tmp_path, capsys):
    bad = tmp_path / "tetra.mesh"
    bad.write_text(TETRA_TEXT)
    assert main(["solve", "--mesh", bad.as_posix(), "--kappa", "const:-1",
                 "--out", str(tmp_path / "u")]) == EXIT_INVALID
    assert "genus" in capsys.readouterr().err


def test_solve_missing_mesh(tmp_path):
    assert main(["solve", "--mesh", str(tmp_path / "nope"),
                 "--kappa", "const:-1",
                 "--out", str(tmp_path / "u")]) == EXIT_INVALID


def test_solve_non_convergence_exit(tmp_path, mesh_file):
    code = main(["solve", "--mesh", mesh_file, "--kappa", "const:-1",
                 "--tol", "1e-30", "--max-iter", "2",
                 "--out", str(tmp_path / "u")])
    assert code == EXIT_NO_CONVERGENCE
    assert (tmp_path / "u").exists()      # best iterate still written


def test_solve_curvature_file(tmp_path, mesh_file, octagon1):
    kfile = tmp_path / "kappa.txt"
    kfile.write_text("\n".join(
        f"k {f} -1.1" for f in range(octagon1.mesh.face_count)))
    assert main(["solve", "--mesh", mesh_file, "--kappa", str(kfile),
                 "--out", str(tmp_path / "u")]) == EXIT_OK


@pytest.mark.parametrize("cmd, flag, value", [
    ("solve", "--tol", "-1"),
    ("solve", "--tol", "nan"),
    ("solve", "--max-iter", "0"),
    ("flow", "--steps", "0"),
])
def test_config_error_exit(tmp_path, mesh_file, capsys, cmd, flag, value):
    code = main([cmd, "--mesh", mesh_file, "--kappa", "const:-1", flag, value,
                 "--out", str(tmp_path / "u")])
    assert code == EXIT_INVALID
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_solve_rejects_infinite_kappa(tmp_path, mesh_file, capsys):
    assert main(["solve", "--mesh", mesh_file, "--kappa", "const:-inf",
                 "--out", str(tmp_path / "u")]) == EXIT_INVALID
    assert "finite" in capsys.readouterr().err


def test_curvature_file_rejects_infinite(tmp_path, mesh_file, octagon1):
    kfile = tmp_path / "kappa.txt"
    kfile.write_text("\n".join(
        f"k {f} {'-inf' if f == 3 else '-1.1'}"
        for f in range(octagon1.mesh.face_count)))
    assert main(["solve", "--mesh", mesh_file, "--kappa", str(kfile),
                 "--out", str(tmp_path / "u")]) == EXIT_INVALID


def test_check_rejects_infinite_length(tmp_path, octagon1, capsys):
    path = tmp_path / "m.mesh"
    lengths = octagon1.lengths.copy()
    lengths[0] = np.inf
    path.write_text(dump_mesh(octagon1.mesh, lengths))
    assert main(["check", "--mesh", str(path)]) == EXIT_INVALID
    assert "length" in capsys.readouterr().err


@pytest.mark.parametrize("kappa", ["const:-1e300", "const:-1e150", "const:-1e100"])
def test_solve_huge_curvature_is_infeasible(tmp_path, mesh_file, capsys, kappa):
    # model lengths past the sinh range are infeasible, not a NaN result
    assert main(["solve", "--mesh", mesh_file, "--kappa", kappa,
                 "--out", str(tmp_path / "u")]) == EXIT_INFEASIBLE
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "nan" not in captured.out


@pytest.mark.parametrize("text, message", [
    (TETRA_TEXT.replace("v 4", "v 100"), "vertex count"),
    (TETRA_TEXT.replace("f 2 ", "f 99999999999999999999 "), "int64"),
    (TETRA_TEXT.replace("v 4", "v 99999999999999999999"), "int64"),
], ids=["vertex-count-100", "huge-face-id", "huge-vertex-count"])
def test_check_rejects_out_of_range_integers(tmp_path, capsys, text, message):
    path = tmp_path / "m.mesh"
    path.write_text(text)
    assert main(["check", "--mesh", str(path)]) == EXIT_INVALID
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_non_convergence_writes_one_error_line(tmp_path, mesh_file, capsys):
    assert main(["solve", "--mesh", mesh_file, "--kappa", "const:-1",
                 "--tol", "1e-30", "--max-iter", "1",
                 "--out", str(tmp_path / "u")]) == EXIT_NO_CONVERGENCE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_solve_validates_topology_once(tmp_path, mesh_file, monkeypatch):
    import dcpm.cli
    import dcpm.solver
    calls = []
    real = dcpm.solver.validate_topology
    for module in (dcpm.cli, dcpm.solver):
        monkeypatch.setattr(module, "validate_topology",
                            lambda mesh: calls.append(1) or real(mesh))
    assert main(["solve", "--mesh", mesh_file, "--kappa", "const:-1",
                 "--out", str(tmp_path / "u")]) == EXIT_OK
    assert len(calls) == 1


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


def test_check_infeasible_reported(tmp_path, octagon1, capsys):
    path = tmp_path / "m.mesh"
    lengths = octagon1.lengths.copy()
    lengths[0] *= 50.0
    path.write_text(dump_mesh(octagon1.mesh, lengths))
    assert main(["check", "--mesh", str(path)]) == EXIT_OK
    report = parse_report(capsys.readouterr().out)
    assert report["feasible"] == "False"


def test_check_huge_curvature_reports_infeasible(mesh_file, capsys):
    assert main(["check", "--mesh", mesh_file, "--kappa", "const:-1e300"]) == EXIT_OK
    out = capsys.readouterr().out
    assert parse_report(out)["feasible"] == "False"
    assert "nan" not in out


# -- converge ------------------------------------------------------------------

def test_converge_writes_csv(tmp_path, capsys):
    out = tmp_path / "study.csv"
    assert main(["converge", "--levels", "2", "--out", str(out)]) == EXIT_OK
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "level,max_len,margin,iters,residual,error_inf"
    assert len(lines) == 3


def test_converge_rejects_positive_kappa(tmp_path):
    assert main(["converge", "--levels", "2", "--kappa", "const:1",
                 "--out", str(tmp_path / "s.csv")]) == EXIT_INVALID


def test_converge_huge_curvature_is_infeasible(tmp_path, capsys):
    assert main(["converge", "--levels", "1", "--kappa", "const:-1e300",
                 "--out", str(tmp_path / "s.csv")]) == EXIT_INFEASIBLE
    assert capsys.readouterr().err.count("\n") == 1


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


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_cli_contract_on_mutated_mesh(octagon1, data):
    text = data.draw(mutated_mesh(dump_mesh(octagon1.mesh, octagon1.lengths)))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.mesh")
        Path(path).write_text(text)
        for argv in (["check", "--mesh", path],
                     ["solve", "--mesh", path, "--kappa", "const:-1",
                      "--max-iter", "20", "--out", os.path.join(tmp, "u")]):
            code, out, err = run_cli(argv)
            assert code in (EXIT_OK, EXIT_INVALID, EXIT_INFEASIBLE,
                            EXIT_NO_CONVERGENCE), (argv[0], code, err)
            err_lines = err.splitlines()
            assert len(err_lines) == (code != EXIT_OK), (argv[0], err)
            assert all(line.startswith("error: ") for line in err_lines)
            assert not re.search(r"\bnan\b", out, re.IGNORECASE), out
