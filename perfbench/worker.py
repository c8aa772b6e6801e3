"""One benchmark worker: set up a workload, then run and check timed ops.

Started by ``run.py`` in a fresh process with ``PYTHONPATH=src`` and the BLAS
thread count fixed in its environment.  It prints ``ready`` as soon as the
first operation can run (the end of set-up), then, unless ``--setup-only``,
runs operations until the wall-clock ``--deadline`` and prints one JSON line
with the samples.

Every operation is checked; a failed check counts as a failed operation and
never stops the run.  With ``--trace 1`` operations alternate between
untraced and traced, so one run also gives the tracing overhead.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import dcpm
# layers are called through their modules, so that the tracer sees the calls
from dcpm import geometry, mesh, models, solver

from tracer import Tracer

HERE = Path(__file__).resolve().parent
TOLERANCE = 1e-10
KAPPA_AMPLITUDE = 0.5
FLOW_STEPS = 250
WARMUP_LEVEL = 2
CHILD_TIMEOUT_S = 120
MIN_OPS = 3


class LibraryWorkload:
    """One solver call per op on a fresh ``SurfaceMesh`` built from stored arrays."""

    def __init__(self, level: int, sigma: float, seed: int, flow: bool):
        self.flow = flow
        self.inputs = {lvl: self._make_input(lvl, sigma, seed)
                       for lvl in sorted({level, WARMUP_LEVEL})}
        self.level = level

    @staticmethod
    def _make_input(level, sigma, seed):
        m = models.octagon_fixture(level)
        s = m.mesh
        arrays = (s.vertex_count, s.edges, s.face_edges, s.face_signs,
                  s.edge_ids, s.face_ids)
        kappa = models.dual_distance_kappa(s, KAPPA_AMPLITUDE)
        u0 = np.random.default_rng(seed).normal(0.0, sigma, s.vertex_count)
        return arrays, m.lengths, kappa, u0

    def op(self, level: int, tracer: Tracer | None):
        """Run one op; returns (seconds, failure reason or None, Newton iterations)."""
        arrays, lengths, kappa, u0 = self.inputs[level]
        t0 = time.perf_counter()
        try:
            surface = mesh.SurfaceMesh(*arrays)
            if tracer is None:
                result = self._solve(surface, lengths, kappa, u0)
            else:
                with tracer.installed():
                    result = self._solve(surface, lengths, kappa, u0)
            seconds = time.perf_counter() - t0
            failure = self._check(surface, lengths, kappa, result)
            return seconds, failure, None if self.flow else result.iterations
        except Exception as exc:  # a failed op is counted, never fatal
            return time.perf_counter() - t0, f"{type(exc).__name__}: {exc}", None

    def _solve(self, surface, lengths, kappa, u0):
        if self.flow:
            return solver.continuation_solve(
                surface, kappa, lengths, u0, solver.ContinuationConfig(steps=FLOW_STEPS))
        return solver.newton_solve(
            surface, kappa, lengths, solver.SolveConfig(tolerance=TOLERANCE, initial_u=u0))

    def _check(self, surface, lengths, kappa, result) -> str | None:
        u = np.asarray(result.u)
        if not np.isfinite(u).all():
            return "u not finite"
        K = geometry.discrete_curvature(surface, kappa, u, lengths)
        if not float(np.max(np.abs(K))) <= TOLERANCE:
            return f"max|K(u)| = {np.max(np.abs(K)):.3e} > {TOLERANCE}"
        if not result.converged:
            return "not converged"
        if self.flow and not np.isfinite(result.linearity_defect):
            return "linearity_defect not finite"
        return None

    def close(self):
        pass


class CliWorkload:
    """gen, check and solve as three sequential ``dcpm.cli`` processes per op."""

    COMMANDS = ("gen", "check", "solve")

    def __init__(self, level: int, root: Path):
        self.level = level
        self.root = root
        self.tmp = root / ".perfbench-tmp" / str(os.getpid())
        self.tmp.mkdir(parents=True, exist_ok=True)
        self.reference: dict[int, dict[str, bytes]] = {}
        self.cli_s = {name: 0.0 for name in self.COMMANDS}
        self.import_s = 0.0

    def _argv(self, level):
        d = self.tmp
        mesh_file = str(d / f"octagon{level}.mesh")
        return {
            "gen": ["gen", "octagon", "--refine", str(level), "--out", mesh_file],
            "check": ["check", "--mesh", mesh_file, "--kappa", "const:-1",
                      "--report", str(d / f"check{level}.txt")],
            "solve": ["solve", "--mesh", mesh_file, "--kappa", "const:-1",
                      "--report", str(d / f"solve{level}.txt"),
                      "--out", str(d / f"u{level}.out")],
        }

    def op(self, level: int, tracer: Tracer | None):
        """Run one op; returns (seconds, failure reason or None, None)."""
        stats = self.tmp / "stats.json"
        seconds, per_command = 0.0, {}
        try:
            for name, argv in self._argv(level).items():
                if tracer is None:
                    cmd = [sys.executable, "-m", "dcpm.cli", *argv]
                else:
                    cmd = [sys.executable, str(HERE / "traced_cli.py"), str(stats), *argv]
                t0 = time.perf_counter()
                proc = subprocess.run(cmd, cwd=self.root, capture_output=True,
                                      timeout=CHILD_TIMEOUT_S)
                per_command[name] = time.perf_counter() - t0
                seconds += per_command[name]
                if proc.returncode != 0:
                    return seconds, (f"{name} exited {proc.returncode}: "
                                     f"{proc.stderr.decode(errors='replace').strip()}"), None
                if tracer is not None:
                    child = json.loads(stats.read_text())
                    self.import_s += child.pop("import_s")
                    tracer.merge(child)
            if tracer is not None:
                for name, s in per_command.items():
                    self.cli_s[name] += s
            return seconds, self._check(level), None
        except Exception as exc:  # a failed op is counted, never fatal
            return seconds, f"{type(exc).__name__}: {exc}", None

    def _check(self, level) -> str | None:
        files = {p: (self.tmp / f"{p}{level}{ext}").read_bytes()
                 for p, ext in (("octagon", ".mesh"), ("check", ".txt"),
                                ("solve", ".txt"), ("u", ".out"))}
        if b"\nconverged = True\n" not in files["solve"]:
            return "solve report does not say converged = True"
        if level not in self.reference:
            # first op at this level: verify the written u against K(u) = 0
            surface, lengths = mesh.load_mesh(files["octagon"].decode())
            u = np.array([float(line.split()[2])
                          for line in files["u"].decode().splitlines()])
            kappa = np.full(surface.face_count, -1.0)
            K = geometry.discrete_curvature(surface, kappa, u, lengths)
            if not (np.isfinite(u).all() and float(np.max(np.abs(K))) <= TOLERANCE):
                return "written u does not solve K(u) = 0"
            self.reference[level] = files
        for name, data in files.items():
            if data != self.reference[level][name]:
                return f"{name} file differs from the run's first op"
        return None

    def close(self):
        for p in self.tmp.iterdir():
            p.unlink()
        self.tmp.rmdir()
        try:
            self.tmp.parent.rmdir()
        except OSError:
            pass  # another worker's directory is still there


def environment() -> dict:
    """What the timings depend on: CPUs, versions, BLAS threads."""
    cpu = next((line.split(":", 1)[1].strip()
                for line in Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    blas = {}
    for line in Path("/proc/self/maps").read_text().splitlines():
        path = line.split()[-1]
        if "openblas" in path and path not in blas:
            lib = ctypes.CDLL(path)
            for suffix in ("64_", ""):
                get_threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
                get_config = getattr(lib, f"scipy_openblas_get_config{suffix}", None)
                if get_threads and get_config:
                    get_config.restype = ctypes.c_char_p
                    blas[path] = {"config": get_config().decode(),
                                  "threads": get_threads()}
    import scipy
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": sorted(blas.values(), key=lambda b: b["config"]),
    }


WORKLOADS = {
    "newton-l5": lambda seed, root: LibraryWorkload(5, 0.01, seed, flow=False),
    "flow-l2": lambda seed, root: LibraryWorkload(2, 0.05, seed, flow=True),
    "cli-l5": lambda seed, root: CliWorkload(5, root),
}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--deadline", type=float, default=0.0,
                        help="time.time() after which no op starts")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    root = Path.cwd()
    if Path(dcpm.__file__).resolve().parent != root / "src" / "dcpm":
        print(f"dcpm imported from {dcpm.__file__}, not from src/", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed, root)
    try:
        print("ready", flush=True)
        if args.setup_only:
            return 0
        tracer = Tracer()
        # at least two ops of each kind in a traced run, for its medians
        min_ops = 4 if args.trace else MIN_OPS
        # warm-up: the same op on a small level, checked but not timed
        _, failure, _ = workload.op(WARMUP_LEVEL, None)
        attempted, failures = 1, [failure] if failure else []
        untraced, traced, iterations = [], [], []
        while True:
            done = len(untraced) + len(traced)
            typical = statistics.median(untraced + traced) if done else 0.0
            if done >= min_ops and time.time() + typical > args.deadline:
                break
            trace_this = args.trace == 1 and done % 2 == 1
            seconds, failure, iters = workload.op(workload.level,
                                                  tracer if trace_this else None)
            (traced if trace_this else untraced).append(seconds)
            attempted += 1
            if failure:
                failures.append(failure)
            if iters is not None and not trace_this:
                iterations.append(iters)
    finally:
        workload.close()

    usage = resource.getrusage(resource.RUSAGE_CHILDREN
                               if isinstance(workload, CliWorkload)
                               else resource.RUSAGE_SELF)
    out = {
        "op_s": untraced,
        "traced_op_s": traced,
        "attempted": attempted,
        "failures": failures,
        "peak_rss_kib": usage.ru_maxrss,
        "iterations": iterations,
        "trace": tracer.as_dict(),
        "environment": environment(),
    }
    if isinstance(workload, CliWorkload):
        out["cli_s"] = workload.cli_s
        out["import_s"] = workload.import_s
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
