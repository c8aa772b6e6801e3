"""dcpm benchmark: three workloads, end-to-end metrics, traced per-layer run.

Usage, from the root of a checkout (imports ``dcpm`` from ``src/``):

    python3 perfbench/run.py --workload newton-l5 --seed 1 --seconds 30 --trace 0

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones (``op_s``, ``peak_rss_mb``, ``setup_s``); with ``--trace 1``
they are the per-layer ones.  The line before it holds the raw samples and
the machine description.  See README.md in this directory for the
workloads, the metrics and the measured spread.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import COUNTERS, LAYERS

HERE = Path(__file__).resolve().parent
WORKLOADS = ("newton-l5", "flow-l2", "cli-l5")
# fresh set-up-only processes before and after the timed worker; with the
# worker's own set-up that gives 5 set-up samples per run
SETUP_PROBES_BEFORE = 2
SETUP_PROBES_AFTER = 2
WORKER_TIMEOUT_S = 170
# the single-threaded BLAS steadies the dense solve (see README.md)
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}


class BenchmarkError(Exception):
    pass


def spawn(args: list[str], env: dict, root: Path):
    """Start a worker; returns (process, seconds until it printed ``ready``)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args],
                            cwd=root, env=env, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.communicate()
        raise BenchmarkError(f"worker failed during set-up (exit {proc.returncode})")
    return proc, setup


def finish(proc) -> str:
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchmarkError("worker timed out")
    if proc.returncode != 0:
        raise BenchmarkError(f"worker exited {proc.returncode}")
    return out


def setup_probe(common: list[str], env: dict, root: Path) -> float:
    proc, setup = spawn([*common, "--setup-only"], env, root)
    finish(proc)
    return setup


def per_layer(sample: dict) -> dict:
    """Per-op averages over the traced ops of the worker."""
    n = len(sample["traced_op_s"])
    stats = sample["trace"]["stats"]
    metrics = {}
    for name, _, _ in LAYERS:
        calls, total_s, self_s = stats[name]
        metrics[f"{name}.calls"] = (calls / n, "count")
        metrics[f"{name}.self_s"] = (self_s / n, "s")
        metrics[f"{name}.total_s"] = (total_s / n, "s")
    for name in COUNTERS:
        unit = "B" if name.endswith("bytes") else "count"
        metrics[name] = (sample["trace"]["counters"][name] / n, unit)
    metrics["cli.import_s"] = (sample.get("import_s", 0.0) / n, "s")
    for cmd in ("gen", "check", "solve"):
        metrics[f"cli.{cmd}_s"] = (sample.get("cli_s", {}).get(cmd, 0.0) / n, "s")
    traced = statistics.median(sample["traced_op_s"])
    untraced = statistics.median(sample["op_s"])
    metrics["trace.op_s"] = (traced, "s")
    metrics["trace.untraced_op_s"] = (untraced, "s")
    metrics["trace.overhead_s"] = (traced - untraced, "s")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "dcpm" / "__init__.py").is_file():
        print("error: run from the root of a dcpm checkout (src/dcpm missing)",
              file=sys.stderr)
        return 2
    env = {**os.environ, **BLAS_ENV, "PYTHONPATH": str(root / "src")}
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    start = time.perf_counter()
    setups = []
    try:
        if not args.trace:
            setups += [setup_probe(common, env, root) for _ in range(SETUP_PROBES_BEFORE)]
            reserve = SETUP_PROBES_AFTER * statistics.median(setups)
        else:
            reserve = 0.0
        deadline = time.time() + args.seconds - (time.perf_counter() - start) - reserve
        proc, setup = spawn([*common, "--deadline", repr(deadline),
                             "--trace", str(args.trace)], env, root)
        setups.append(setup)
        sample = json.loads(finish(proc).splitlines()[-1])
        if not args.trace:
            setups += [setup_probe(common, env, root) for _ in range(SETUP_PROBES_AFTER)]
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        metrics = per_layer(sample)
    else:
        metrics = {
            "op_s": (statistics.median(sample["op_s"]), "s"),
            "peak_rss_mb": (sample["peak_rss_kib"] * 1024 / 1e6, "MB"),
            "setup_s": (statistics.median(setups), "s"),
        }
    for note in sample["trace"]["notes"] + sample["failures"]:
        print(f"note: {note}", file=sys.stderr)
    detail = {"workload": args.workload, "seed": args.seed, "setup_s": setups,
              **{k: v for k, v in sample.items() if k != "trace"}}
    print(json.dumps(detail))
    failed = len(sample["failures"])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sample["attempted"],
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
