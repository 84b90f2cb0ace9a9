"""Record golden.json: the SHA-256 of every successful job's canonical JSON.

    python3 bench/golden.py

Runs the first GOLDEN_ROUNDS rounds of every workload at the default seed
once, refuses to record if any output fails its checks, and rewrites
golden.json.  run.py compares against it whenever it runs the default seed,
so a change that alters the bytes of a result is counted as failed.  Rerun
this only when an output change is intended, and say so in the change.
"""

import json
import os
import sys
import tempfile
from io import StringIO

import checks
import run
import workloads

GOLDEN_ROUNDS = 4


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    import toricsat.cli as cli

    digests = {}
    for name in workloads.WORKLOADS:
        digests[name] = {}
        with tempfile.TemporaryDirectory(prefix=".bench-", dir=run.ROOT) as workdir:
            wl = workloads.make_workload(name, run.DEFAULT_SEED, workdir, cli.run)
            for jobs in wl.rounds[:GOLDEN_ROUNDS]:
                for job in jobs:
                    buf = StringIO()
                    rc = cli.run(job.argv, stdout=buf)
                    why = checks.check_output(job, rc, buf.getvalue())
                    if why:
                        print(f"not recording: {job.key}: {why}", file=sys.stderr)
                        return 1
                    if rc == 0:
                        digests[name][job.key] = checks.digest(buf.getvalue())
    doc = {"seed": run.DEFAULT_SEED, "rounds": GOLDEN_ROUNDS, "digests": digests}
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {sum(len(d) for d in digests.values())} digests in {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
