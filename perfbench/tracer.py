"""Per-layer timing from outside the program.

Each traced layer is a public function of a ``dcpm`` module (or, for
``solver.cho_factor``, the LAPACK kernel the solver calls).  While a
:class:`Tracer` is installed, every module attribute that holds the original
function object -- the defining module, the ``dcpm`` package namespace and
every ``from .x import f`` copy in another ``dcpm`` module -- is replaced by a
timing wrapper, so calls through re-imported names are counted too.  On exit
the originals are put back, so untraced operations run unmodified code.

A layer's self time is its span minus the spans of traced layers called
inside it.  A layer that a later version of the program no longer has is
reported with zero calls and a note; it never stops the benchmark.
"""

from __future__ import annotations

import importlib
import math
import sys
import time
from contextlib import contextmanager

# (metric prefix, module that defines it, attribute path in that module)
LAYERS = (
    ("solver.newton_solve", "dcpm.solver", "newton_solve"),
    ("solver.continuation_solve", "dcpm.solver", "continuation_solve"),
    ("solver.solve_linear_spd", "dcpm.solver", "solve_linear_spd"),
    ("solver.cho_factor", "scipy.linalg", "cho_factor"),
    ("jacobian.assemble_jacobian", "dcpm.jacobian", "assemble_jacobian"),
    ("jacobian.JacobianParts.matrix", "dcpm.jacobian", "JacobianParts.matrix"),
    ("calculus.laplacian_matrix", "dcpm.calculus", "laplacian_matrix"),
    ("geometry.corner_angles", "dcpm.geometry", "corner_angles"),
    ("geometry.discrete_curvature", "dcpm.geometry", "discrete_curvature"),
    ("geometry.acuteness_margin", "dcpm.geometry", "acuteness_margin"),
    ("mesh.load_mesh", "dcpm.mesh", "load_mesh"),
    ("mesh.dump_mesh", "dcpm.mesh", "dump_mesh"),
    ("mesh.validate_topology", "dcpm.mesh", "validate_topology"),
    ("models.refine_midpoint", "dcpm.models", "refine_midpoint"),
    ("models.dual_distance_kappa", "dcpm.models", "dual_distance_kappa"),
)

# counters derived from the values the traced layers return
COUNTERS = ("jacobian.dense_bytes", "solver.newton_iterations",
            "solver.backtracks", "solver.gradient_fallback")


def _count_dense_bytes(tracer: "Tracer", matrix) -> None:
    tracer.counters["jacobian.dense_bytes"] += getattr(matrix, "nbytes", 0)


def _count_newton(tracer: "Tracer", result) -> None:
    c = tracer.counters
    c["solver.newton_iterations"] += getattr(result, "iterations", 0)
    c["solver.gradient_fallback"] += int(bool(
        getattr(result, "used_gradient_fallback", False)))
    # every backtrack halves the step (SolveConfig.backtrack_shrink = 0.5)
    for entry in getattr(result, "step_log", ()):
        c["solver.backtracks"] += round(-math.log2(entry[2]))


ON_RESULT = {
    "jacobian.JacobianParts.matrix": _count_dense_bytes,
    "solver.newton_solve": _count_newton,
}


def _resolve(module_name: str, path: str):
    """(owner, attribute, original) or None when the layer no longer exists."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name, None)
    if owner is None or not callable(getattr(owner, attr, None)):
        return None
    return owner, attr, getattr(owner, attr)


class Tracer:
    """Aggregates calls, inclusive and self seconds per layer, plus counters."""

    def __init__(self):
        self.stats = {name: [0, 0.0, 0.0] for name, _, _ in LAYERS}
        self.counters = {name: 0 for name in COUNTERS}
        self.notes: list[str] = []
        self._children: list[float] = []

    def _wrap(self, name, fn):
        stat = self.stats[name]
        on_result = ON_RESULT.get(name)
        children = self._children

        def traced(*args, **kwargs):
            children.append(0.0)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span = time.perf_counter() - t0
                inner = children.pop()
                stat[0] += 1
                stat[1] += span
                stat[2] += span - inner
                if children:
                    children[-1] += span
            if on_result is not None:
                try:
                    on_result(self, out)
                except (AttributeError, IndexError, TypeError, ValueError) as exc:
                    note = f"{name}: cannot read counters from result ({exc})"
                    if note not in self.notes:
                        self.notes.append(note)
            return out

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Trace every layer inside the ``with`` block, then restore."""
        patched = []
        try:
            for name, module_name, path in LAYERS:
                found = _resolve(module_name, path)
                if found is None:
                    note = f"{name}: {module_name}.{path} not found, reported as 0 calls"
                    if note not in self.notes:
                        self.notes.append(note)
                    continue
                owner, attr, orig = found
                wrapped = self._wrap(name, orig)
                holders = [(owner, attr)] + [
                    (mod, key) for mod in list(sys.modules.values())
                    if getattr(mod, "__name__", "").split(".")[0] == "dcpm"
                    for key, value in list(vars(mod).items())
                    if value is orig and (mod, key) != (owner, attr)]
                for holder, key in holders:
                    setattr(holder, key, wrapped)
                    patched.append((holder, key, orig))
            yield self
        finally:
            for holder, key, orig in reversed(patched):
                setattr(holder, key, orig)

    def merge(self, other: dict) -> None:
        """Add the ``as_dict`` output of another tracer (e.g. a child process)."""
        for name, (calls, total, self_s) in other["stats"].items():
            stat = self.stats[name]
            stat[0] += calls
            stat[1] += total
            stat[2] += self_s
        for name, value in other["counters"].items():
            self.counters[name] += value
        self.notes.extend(n for n in other["notes"] if n not in self.notes)

    def as_dict(self) -> dict:
        return {"stats": self.stats, "counters": self.counters,
                "notes": self.notes}
