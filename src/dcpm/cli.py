"""Command line interface: dcpm solve|flow|check|gen|converge.

Reports are machine readable ``key = value`` lines on stdout; all numbers
are printed with 17 significant digits so runs diff byte-for-byte.

Exit codes, all mapped in :func:`main`: 0 success, 2 parse/validation
error, 3 infeasible configuration, 4 non-convergence (best iterate still
written).  Each of 2, 3 and 4 writes one ``error:`` line to stderr.

Only ``solve``, ``flow`` and ``converge`` load scipy, on their first linear
solve; the ``seconds`` line of ``solve`` and ``flow`` includes that import.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from . import geometry, models
from .calculus import isoperimetric_constant
from .geometry import InfeasibleFaceError
from .mesh import MeshError, SurfaceMesh, dump_mesh, load_face_curvature, \
    load_mesh, validate_topology
from .solver import ContinuationConfig, InfeasibleStartError, SolveConfig, \
    SolverInputError, continuation_solve, newton_solve

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_INFEASIBLE = 3
EXIT_NO_CONVERGENCE = 4


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_INVALID):
        super().__init__(message)
        self.code = code


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return f"{value:.17g}"
    return str(value)


# timing is shown on stdout but kept out of report files so that identical
# inputs produce byte-identical files
_VOLATILE_KEYS = ("seconds",)


def _emit(report: dict, path: str | None = None) -> None:
    sys.stdout.write("".join(f"{k} = {_fmt(v)}\n" for k, v in report.items()))
    if path:
        Path(path).write_text("".join(
            f"{k} = {_fmt(v)}\n" for k, v in report.items()
            if k not in _VOLATILE_KEYS))


def _read_mesh(path: str):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise CliError(f"cannot read mesh file: {exc}")
    try:
        return load_mesh(text)
    except MeshError as exc:
        raise CliError(f"invalid mesh: {exc}")


def _const_kappa(spec: str) -> float:
    try:
        value = float(spec[len("const:"):])
    except ValueError:
        raise CliError(f"bad curvature literal {spec!r}")
    if not (value < 0 and np.isfinite(value)):
        raise CliError("curvature must be finite and negative")
    return value


def _read_kappa(spec: str, mesh: SurfaceMesh) -> np.ndarray:
    if spec.startswith("const:"):
        return np.full(mesh.face_count, _const_kappa(spec))
    try:
        text = Path(spec).read_text()
    except OSError as exc:
        raise CliError(f"cannot read curvature file: {exc}")
    try:
        return load_face_curvature(text, mesh)
    except MeshError as exc:
        raise CliError(f"invalid curvature file: {exc}")


def _config(cls, **fields):
    try:
        return cls(**fields)
    except ValueError as exc:
        raise CliError(str(exc))


def _write_u(path: str, u: np.ndarray) -> None:
    lines = [f"u {i} {u[i]:.17g}" for i in range(len(u))]
    Path(path).write_text("\n".join(lines) + "\n")


def _input_digest(mesh: SurfaceMesh, lengths: np.ndarray) -> dict:
    return {
        "vertices": mesh.vertex_count,
        "edges": mesh.edge_count,
        "faces": mesh.face_count,
        "chi": mesh.euler_characteristic,
        "genus": mesh.genus,
        "max_length": geometry.max_length(lengths),
    }


def cmd_solve(args) -> int:
    mesh, lengths = _read_mesh(args.mesh)
    kappa = _read_kappa(args.kappa, mesh)
    cfg = _config(SolveConfig, tolerance=args.tol, max_iterations=args.max_iter)

    t0 = time.perf_counter()
    result = newton_solve(mesh, kappa, lengths, cfg)
    elapsed = time.perf_counter() - t0

    recomputed = geometry.discrete_curvature(mesh, kappa, result.u, lengths)
    final_res = float(np.max(np.abs(recomputed)))
    report = {"command": "solve", **_input_digest(mesh, lengths)}
    report.update({
        "iterations": result.iterations,
        "converged": result.converged,
        "residual_inf": final_res,
        "gauss_bonnet_residual": geometry.gauss_bonnet_residual(
            mesh, kappa, result.u, lengths),
        "acuteness_margin": geometry.acuteness_margin(
            mesh, kappa, geometry.scale_lengths(mesh, result.u, lengths)),
        "u_inf": float(np.max(np.abs(result.u))),
        "seconds": elapsed,
    })
    _write_u(args.out, result.u)
    _emit(report, args.report)
    return EXIT_OK if result.converged else EXIT_NO_CONVERGENCE


def cmd_flow(args) -> int:
    mesh, lengths = _read_mesh(args.mesh)
    kappa = _read_kappa(args.kappa, mesh)
    cfg = _config(ContinuationConfig, steps=args.steps, newton_polish=args.polish)

    t0 = time.perf_counter()
    result = continuation_solve(mesh, kappa, lengths,
                                np.zeros(mesh.vertex_count), cfg)
    elapsed = time.perf_counter() - t0

    recomputed = geometry.discrete_curvature(mesh, kappa, result.u, lengths)
    final_res = float(np.max(np.abs(recomputed)))
    report = {"command": "flow", **_input_digest(mesh, lengths)}
    report.update({
        "steps": args.steps,
        "newton_polish": args.polish,
        "converged": result.converged,
        "residual_inf": final_res,
        "linearity_defect": result.linearity_defect,
        "u_inf": float(np.max(np.abs(result.u))),
        "seconds": elapsed,
    })
    if args.trace:
        lines = ["t,residual_inf,linearity_defect"]
        for t, res, defect in result.checkpoint_log:
            lines.append(f"{t:.17g},{res:.17g},{defect:.17g}")
        Path(args.trace).write_text("\n".join(lines) + "\n")
    _write_u(args.out, result.u)
    _emit(report, args.report)
    if args.polish:
        return EXIT_OK if result.converged else EXIT_NO_CONVERGENCE
    return EXIT_OK


def cmd_check(args) -> int:
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
        report["acuteness_margin"] = geometry.acuteness_margin(
            mesh, kappa, lengths)
        report["gauss_bonnet_residual"] = geometry.gauss_bonnet_residual(
            mesh, kappa, np.zeros(mesh.vertex_count), lengths)
        report["feasible"] = True
    except InfeasibleFaceError:
        report["feasible"] = False
    if args.isoperimetric:
        try:
            report["isoperimetric_constant"] = isoperimetric_constant(
                mesh, lengths)
        except ValueError as exc:
            raise CliError(str(exc))
    _emit(report, args.report)
    return EXIT_OK


def cmd_gen(args) -> int:
    if args.model != "octagon":
        raise CliError(f"unknown model {args.model!r}")
    if args.refine < 0:
        raise CliError("--refine must be >= 0")
    surface = models.octagon_fixture(args.refine)
    Path(args.out).write_text(dump_mesh(surface.mesh, surface.lengths))
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
    _emit(report)
    return EXIT_OK


def cmd_converge(args) -> int:
    if not args.kappa.startswith("const:"):
        raise CliError("converge supports only const:<value> curvature")
    value = _const_kappa(args.kappa)
    if args.levels < 1:
        raise CliError("--levels must be >= 1")
    rows = models.convergence_study(args.levels, value)
    Path(args.out).write_text(models.rows_to_csv(rows))
    report = {"command": "converge", "levels": args.levels, "out": args.out}
    for r in rows:
        report[f"level_{r.level}_error_inf"] = r.error_inf
    _emit(report)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dcpm",
        description="Prescribed negative curvature on closed triangulated "
                    "surfaces via discrete conformal factors")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("solve", help="Newton solve for K(u) = 0")
    p.add_argument("--mesh", required=True)
    p.add_argument("--kappa", required=True,
                   help="const:<negative value> or curvature file")
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--max-iter", type=int, default=100)
    p.add_argument("--out", default="u.out")
    p.add_argument("--report", default=None)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("flow", help="continuation ODE solve")
    p.add_argument("--mesh", required=True)
    p.add_argument("--kappa", required=True)
    p.add_argument("--steps", type=int, default=1000)
    p.add_argument("--polish", action=argparse.BooleanOptionalAction,
                   default=True)
    p.add_argument("--trace", default=None)
    p.add_argument("--out", default="u.out")
    p.add_argument("--report", default=None)
    p.set_defaults(func=cmd_flow)

    p = sub.add_parser("check", help="topology/feasibility diagnostics")
    p.add_argument("--mesh", required=True)
    p.add_argument("--kappa", default="const:-1")
    p.add_argument("--isoperimetric", action="store_true")
    p.add_argument("--report", default=None)
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
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        if code != EXIT_NO_CONVERGENCE:
            return code
        message = "no convergence; the best iterate was written"
    except CliError as exc:
        code, message = exc.code, str(exc)
    except (InfeasibleStartError, InfeasibleFaceError) as exc:
        code, message = EXIT_INFEASIBLE, str(exc)
    except SolverInputError as exc:
        code, message = EXIT_INVALID, str(exc)
    print(f"error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
