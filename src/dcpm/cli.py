"""Command line interface: dcpm solve|flow|check|gen|converge.

Reports are machine readable ``key = value`` lines on stdout; all numbers
are printed with 17 significant digits so runs diff byte-for-byte.

Each ``cmd_*`` only computes and returns (exit code, report, {path: text}).
:func:`main` checks every output path before the command reads its inputs,
so one that is unwritable or names an input file exits 2 with nothing
written; then it writes the files in order, the report file last, prints
the report and maps the exit code: 0 success, 2 parse/validation error, a
file that cannot be read or written, an input too large for memory or a
scipy that cannot be imported, 3 infeasible configuration (any
``InfeasibleFaceError``), 4 non-convergence (outputs still written; for
``converge``, a level that did not converge) or a failed linear solve
(nothing written).  2, 3 and 4 write one ``error:`` line to stderr.
A malformed command line is a ``CliError`` too: the parser raises it instead
of printing its usage and exiting, so it leaves through :func:`main`.

Only ``solve``, ``flow`` and ``converge`` load scipy, on their first linear
solve; the ``seconds`` line of ``solve`` and ``flow`` includes that import.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import geometry, models
from .geometry import InfeasibleFaceError
from .mesh import MeshError, SurfaceMesh, ascii_number, dump_mesh, \
    isoperimetric_constant, load_face_curvature, load_mesh, validate_topology
from .solver import ContinuationConfig, LinearSolveError, SolveConfig, \
    SolverInputError, continuation_solve, newton_solve

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_INFEASIBLE = 3
EXIT_NO_CONVERGENCE = 4


class CliError(Exception):
    """Invalid input, configuration or file access; main exits EXIT_INVALID."""


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return f"{value:.17g}"
    return str(value)


# timing is shown on stdout but kept out of report files so that identical
# inputs produce byte-identical files
_VOLATILE_KEYS = ("seconds",)


def _read(path: str, what: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read {what} file: {exc}")


def _write(path: str, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise CliError(f"cannot write file: {exc}")


def _check_writable(outputs, inputs) -> None:
    """Raise CliError unless the given output paths are distinct files, none
    of them an input file (all compared by ``os.path.realpath``), that can
    each be opened for writing, so that a command fails before it reads,
    solves or writes.

    Each path is opened for appending and closed, which changes no file; one
    that did not exist is removed again.  ``None`` stands for a path not given.
    """
    paths = [p for p in outputs if p is not None]
    real = [os.path.realpath(p) for p in paths]
    read = {os.path.realpath(p) for p in inputs if p}
    for i, path in enumerate(paths):
        if real[i] in real[:i]:
            raise CliError(f"output file {path!r} given twice")
        if real[i] in read:
            raise CliError(f"output file {path!r} is an input file")
    for path in paths:
        existed = os.path.lexists(path)
        try:
            open(path, "a").close()
        except OSError as exc:
            raise CliError(f"cannot write file: {exc}")
        if not existed:
            Path(path).unlink()


def _report_text(report: dict, skip=()) -> str:
    return "".join(f"{k} = {_fmt(v)}\n" for k, v in report.items()
                   if k not in skip)


def _read_mesh(path: str):
    try:
        return load_mesh(_read(path, "mesh"))
    except MeshError as exc:
        raise CliError(f"invalid mesh: {exc}")


def _const_kappa(spec: str) -> float:
    try:
        value = ascii_number(float, spec[len("const:"):])
    except ValueError:
        raise CliError(f"bad curvature literal {spec!r}")
    if not (value < 0 and np.isfinite(value)):
        raise CliError("curvature must be finite and negative")
    return value


def _read_kappa(spec: str, mesh: SurfaceMesh) -> np.ndarray:
    if spec.startswith("const:"):
        return np.full(mesh.face_count, _const_kappa(spec))
    try:
        return load_face_curvature(_read(spec, "curvature"), mesh)
    except MeshError as exc:
        raise CliError(f"invalid curvature file: {exc}")


def _config(make, *args, **kwargs):
    """make(*args, **kwargs); its ValueError, an argument check, is CliError."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise CliError(str(exc))


def _u_text(u: np.ndarray) -> str:
    return "".join(f"u {i} {x:.17g}\n" for i, x in enumerate(u.tolist()))


def _input_digest(mesh: SurfaceMesh, lengths: np.ndarray) -> dict:
    return {
        "vertices": mesh.vertex_count,
        "edges": mesh.edge_count,
        "faces": mesh.face_count,
        "chi": mesh.euler_characteristic,
        "genus": mesh.genus,
        "max_length": geometry.max_length(lengths),
    }


def cmd_solve(args) -> tuple[int, dict, dict]:
    mesh, lengths = _read_mesh(args.mesh)
    kappa = _read_kappa(args.kappa, mesh)
    cfg = _config(SolveConfig, tolerance=args.tol, max_iterations=args.max_iter)

    t0 = time.perf_counter()
    result = newton_solve(mesh, kappa, lengths, cfg)
    elapsed = time.perf_counter() - t0

    report = {"command": "solve", **_input_digest(mesh, lengths)}
    report.update({
        "iterations": result.iterations,
        "converged": result.converged,
        "residual_inf": result.residual_inf,
        "gauss_bonnet_residual": geometry.gauss_bonnet_residual(
            mesh, result.angles),
        "acuteness_margin": geometry.acuteness_margin(result.angles),
        "u_inf": float(np.max(np.abs(result.u))),
        "seconds": elapsed,
    })
    code = EXIT_OK if result.converged else EXIT_NO_CONVERGENCE
    return code, report, {args.out: _u_text(result.u)}


def cmd_flow(args) -> tuple[int, dict, dict]:
    mesh, lengths = _read_mesh(args.mesh)
    kappa = _read_kappa(args.kappa, mesh)
    cfg = _config(ContinuationConfig, steps=args.steps, newton_polish=args.polish)

    t0 = time.perf_counter()
    result = continuation_solve(mesh, kappa, lengths,
                                np.zeros(mesh.vertex_count), cfg)
    elapsed = time.perf_counter() - t0

    report = {"command": "flow", **_input_digest(mesh, lengths)}
    report.update({
        "steps": args.steps,
        "newton_polish": args.polish,
        "converged": result.converged,
        "residual_inf": result.residual_inf,
        "linearity_defect": result.linearity_defect,
        "u_inf": float(np.max(np.abs(result.u))),
        "seconds": elapsed,
    })
    trace = "t,residual_inf,linearity_defect\n" + "".join(
        f"{t:.17g},{res:.17g},{defect:.17g}\n"
        for t, res, defect in result.checkpoint_log)
    # an unpolished flow never reports converged; its end point is the result
    code = (EXIT_OK if result.converged or not args.polish
            else EXIT_NO_CONVERGENCE)
    return code, report, {args.trace: trace, args.out: _u_text(result.u)}


def cmd_check(args) -> tuple[int, dict, dict]:
    mesh, lengths = _read_mesh(args.mesh)
    topo = validate_topology(mesh)
    kappa = _read_kappa(args.kappa, mesh)
    report = {"command": "check", **_input_digest(mesh, lengths)}
    report.update({
        "is_simplicial": topo.is_simplicial,
        "max_vertex_degree": topo.max_vertex_degree,
        "violations": len(topo.violations),
        "solver_eligible": topo.solver_eligible,
    })
    for i, v in enumerate(topo.violations):
        report[f"violation_{i}"] = v
    try:
        angles = geometry.corner_angles(mesh, kappa, lengths[mesh.face_edges])
        report["acuteness_margin"] = geometry.acuteness_margin(angles)
        report["gauss_bonnet_residual"] = geometry.gauss_bonnet_residual(
            mesh, angles)
        report["feasible"] = True
    except InfeasibleFaceError:
        report["feasible"] = False
    if args.isoperimetric:
        report["isoperimetric_constant"] = _config(isoperimetric_constant,
                                                   mesh, lengths)
    return EXIT_OK, report, {}


def cmd_gen(args) -> tuple[int, dict, dict]:
    surface = _config(models.octagon_fixture, args.refine)
    report = {
        "command": "gen",
        "model": args.model,
        "refine": args.refine,
        "vertices": surface.mesh.vertex_count,
        "edges": surface.mesh.edge_count,
        "faces": surface.mesh.face_count,
        "max_length": geometry.max_length(surface.lengths),
        "out": args.out,
    }
    return EXIT_OK, report, {args.out: dump_mesh(surface.mesh, surface.lengths)}


def cmd_converge(args) -> tuple[int, dict, dict]:
    if not args.kappa.startswith("const:"):
        raise CliError("converge supports only const:<value> curvature")
    rows = _config(models.convergence_study, args.levels,
                   _const_kappa(args.kappa))
    report = {"command": "converge", "levels": args.levels, "out": args.out}
    for r in rows:
        report[f"level_{r.level}_error_inf"] = r.error_inf
    code = EXIT_OK if all(r.converged for r in rows) else EXIT_NO_CONVERGENCE
    return code, report, {args.out: models.rows_to_csv(rows)}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dcpm",
        description="Prescribed negative curvature on closed triangulated "
                    "surfaces via discrete conformal factors")
    sub = parser.add_subparsers(dest="cmd", required=True)
    shared = _Parser(add_help=False)  # the options of every command on a mesh
    shared.add_argument("--mesh", required=True)
    shared.add_argument("--report", default=None)

    p = sub.add_parser("solve", parents=[shared], help="Newton solve for K(u) = 0")
    p.add_argument("--kappa", required=True,
                   help="const:<negative value> or curvature file")
    p.add_argument("--tol", type=float, default=SolveConfig.tolerance)
    p.add_argument("--max-iter", type=int, default=SolveConfig.max_iterations)
    p.add_argument("--out", default="u.out")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("flow", parents=[shared], help="continuation ODE solve")
    p.add_argument("--kappa", required=True)
    p.add_argument("--steps", type=int, default=ContinuationConfig.steps)
    p.add_argument("--no-polish", dest="polish", action="store_false")
    p.add_argument("--trace", default=None)
    p.add_argument("--out", default="u.out")
    p.set_defaults(func=cmd_flow)

    p = sub.add_parser("check", parents=[shared],
                       help="topology/feasibility diagnostics")
    p.add_argument("--kappa", default="const:-1")
    p.add_argument("--isoperimetric", action="store_true")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("gen", help="generate model fixtures")
    p.add_argument("model", choices=["octagon"])
    p.add_argument("--refine", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("converge", help="refinement convergence study")
    p.add_argument("--levels", type=int, required=True)
    p.add_argument("--kappa", default="const:-1")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_converge)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        given = vars(args).get
        kappa = given("kappa", "")  # a kappa that is not const:<value> is a file
        _check_writable(map(given, ("trace", "out", "report")),
                        (given("mesh"), None if kappa.startswith("const:") else kappa))
        code, report, files = args.func(args)
        files[given("report")] = _report_text(report, _VOLATILE_KEYS)
        for path, text in files.items():
            if path is not None:  # None: an optional output not asked for
                _write(path, text)
        sys.stdout.write(_report_text(report))
        if code != EXIT_NO_CONVERGENCE:
            return code
        message = "no convergence; the best iterate was written"
    except InfeasibleFaceError as exc:
        code, message = EXIT_INFEASIBLE, str(exc)
    except (CliError, SolverInputError, MemoryError, ImportError) as exc:
        code, message = EXIT_INVALID, str(exc) or "out of memory"
    except LinearSolveError as exc:
        code, message = EXIT_NO_CONVERGENCE, f"linear solve failed: {exc}"
    print(f"error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
