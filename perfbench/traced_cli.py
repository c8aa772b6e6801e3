"""Run ``dcpm.cli`` under the layer tracer, for the traced ``cli-l5`` ops.

Usage: python3 perfbench/traced_cli.py STATS_JSON CLI_ARG...

Behaves like ``python -m dcpm.cli CLI_ARG...`` (same exit code), and writes
the per-layer totals of this process, including the time to import the
CLI as ``cli.import_s``, to STATS_JSON.
"""

import json
import sys
import time
from pathlib import Path

from tracer import Tracer


def main() -> int:
    stats_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import dcpm.cli
    import_s = time.perf_counter() - t0
    tracer = Tracer()
    with tracer.installed():
        code = dcpm.cli.main(argv)
    out = tracer.as_dict()
    out["import_s"] = import_s
    Path(stats_path).write_text(json.dumps(out))
    return code


if __name__ == "__main__":
    sys.exit(main())
