"""Set-up probe: a fresh interpreter imports the CLI and builds a workload's inputs.

run.py spawns this under ``python3 -X importtime`` several times and reports
the median wall time as ``setup_s``; the import log gives the ``import.*``
breakdown.  The CLI is imported first, so the log attributes its imports
(numpy included) to it rather than to the benchmark.

    python3 bench/probe.py <workload> <seed>
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import toricsat.cli  # noqa: E402

import tempfile  # noqa: E402

import workloads  # noqa: E402

if __name__ == "__main__":
    name, seed = sys.argv[1], int(sys.argv[2])
    with tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT) as workdir:
        workloads.make_workload(name, seed, workdir, toricsat.cli.run)
