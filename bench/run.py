"""Benchmark of the toricsat command line: whole CLI jobs, end to end and per layer.

Run from the repository root:

    python3 bench/run.py --workload saturate --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seconds 30 --trace 0   # every workload, one table
    python3 bench/selftest.py                                    # tiny-size self-test

An untraced run (--trace 0) drives ``toricsat.cli.run(argv, stdout=StringIO)``
in-process as a closed loop: one client, no threads, each job starts when the
previous one returns.  It runs whole rounds of the workload (see
workloads.py) until --seconds of job time have passed and at least MIN_JOBS
jobs are done, and reports:

    jobs_per_s    jobs completed per second of loop time, the median over rounds
                  (a round's jobs divided by the sum of their latencies)
    job_p50_ms    median latency of cli.run
    job_p90_ms    90th percentile latency (>= MIN_JOBS samples, so >= 10 lie beyond it)
    ok_frac       1 - failed/attempted: a job fails on a wrong exit code or a failed check
    setup_s       median over fresh-process probes of interpreter start, import
                  toricsat.cli and input generation (probe.py)
    peak_rss_mb   ru_maxrss of this process after the loop

The timings are taken at the reference host speed.  A shared host changes
speed from second to second and from minute to minute by a third or more,
and such a phase moves every timing of a run together.  So a fixed piece of
pure-Python work (calibrate) is timed just before and just after every job
and every set-up probe, and the job's (or probe's) wall time is multiplied by
CAL_REF_S / (the smaller of those two times): the time it would have taken
had the calibration run in CAL_REF_S.  The smaller is taken because a brief
stall can land in one calibration and make it read slow.  The calibration does not touch the program, so
a faster program still reads faster; the raw wall-clock figures and the
calibration times are in the ``env`` line.

A traced run (--trace 1) runs one warm-up round, then alternates traced and
untraced rounds.  The per-layer metrics listed in layers.json come from the
first TRACED_ROUNDS traced rounds, so their counts repeat exactly for a seed;
trace.overhead_frac compares the traced and untraced rounds.  Layer times are
raw wall time.  Spans are written to .bench-out/ when the run ends.

Every job's output is checked as soon as it returns, outside its timed
interval (checks.py); at the default seed the canonical JSON of the first
rounds must also match golden.json.  Only a digest of each output is kept
past its check, so the harness's memory does not grow with the number of jobs
run.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the line before it is {"env": ...}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from io import StringIO
from pathlib import Path

import checks
import workloads
from tracing import Tracer, layer_table, layer_value

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
DEFAULT_SEED = 1
MIN_JOBS = 100
SETUP_PROBES = 11
TRACE_SETUP_PROBES = 3
TRACED_ROUNDS = 2
RERUN_SAMPLE = 6
ROUND_TRIP_ROUNDS = 2
# The calibration's size, and the seconds it takes at the reference host
# speed: about its median on a 2-vCPU Intel Xeon VM under Python 3.11.
CAL_ITERS = 6_000
CAL_REF_S = 0.0015
END_TO_END = (
    ("jobs_per_s", "1/s"),
    ("job_p50_ms", "ms"),
    ("job_p90_ms", "ms"),
    ("ok_frac", "frac"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("saturate", "invariants", "certify", "all"))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# -- measurement --------------------------------------------------------------


def calibrate() -> float:
    """Seconds a fixed piece of pure-Python work takes now: the host's current speed.

    Integer arithmetic, and a dict keyed by small tuples that is then sorted:
    on a shared host the first slows a little less than the program's jobs
    and the second a little more, so their sum tracks the jobs best of the
    mixes tried (arithmetic, dicts, scattered reads of a large buffer, numpy
    table updates).
    """
    start = time.perf_counter()
    acc = 0
    for i in range(CAL_ITERS):
        acc += i * i % 7
    counts: dict = {}
    for i in range(CAL_ITERS // 8):
        key = (i % 37, i % 101)
        counts[key] = counts.get(key, 0) + 1
    sorted(counts.items())
    return time.perf_counter() - start


def run_round(cli, jobs, checker, tracer=None) -> list[tuple[float, float]]:
    """Run one round of jobs back to back; return (latency, calibration) per job, in seconds.

    The calibration time is the smaller of two, one just before the job and
    one just after it.  Each output is handed to the checker after that.
    """
    timed = []
    for job in jobs:
        if tracer is not None:
            tracer.job = checker.attempted
        buf = StringIO()
        before = calibrate()
        start = time.perf_counter()
        try:
            rc = cli.run(job.argv, stdout=buf)
        except Exception:  # a crash is a failed job, not a failed benchmark
            rc, buf = -1, StringIO(traceback.format_exc())
        latency = time.perf_counter() - start
        timed.append((latency, min(before, calibrate())))
        checker.add(job, rc, buf.getvalue())
    return timed


class Loop:
    """Rounds run so far, each job timed raw and at the reference host speed."""

    def __init__(self):
        self.cal: list[float] = []  # calibration time around each job
        self.latencies: list[float] = []  # seconds, at the reference speed
        self.rates: list[float] = []  # jobs per second of each round, at the reference speed
        self.raw_latencies: list[float] = []
        self.raw_rates: list[float] = []
        self.busy_s = 0.0

    def round(self, cli, jobs, checker, tracer=None) -> float:
        """Run one round; return its rate at the reference speed."""
        timed = run_round(cli, jobs, checker, tracer)
        self.cal += [cal for _, cal in timed]
        scaled = [dt * CAL_REF_S / cal for dt, cal in timed]
        raw = [dt for dt, _ in timed]
        self.raw_latencies += raw
        self.latencies += scaled
        self.raw_rates.append(len(raw) / sum(raw))
        self.rates.append(len(scaled) / sum(scaled))
        self.busy_s += sum(raw)
        return self.rates[-1]


def closed_loop(cli, rounds, seconds: float, checker) -> Loop:
    """Whole rounds until `seconds` of job time have passed and MIN_JOBS jobs are done."""
    loop = Loop()
    while loop.busy_s < seconds or len(loop.latencies) < MIN_JOBS:
        loop.round(cli, rounds[len(loop.rates) % len(rounds)], checker)
    return loop


def traced_loop(cli, rounds, seconds: float, checker, tracer):
    """Warm-up round, then traced (odd) and untraced (even) rounds in turn."""
    loop = Loop()
    loop.round(cli, rounds[0], checker)
    timed = {True: [], False: []}
    kept = None
    traced_rounds = 0
    while True:
        i = len(loop.rates)
        traced = i % 2 == 1
        if traced:
            tracer.install()
            try:
                rate = loop.round(cli, rounds[i % len(rounds)], checker, tracer)
            finally:
                tracer.uninstall()
            traced_rounds += 1
            if traced_rounds == TRACED_ROUNDS:
                kept = (list(tracer.spans), dict(tracer.counters))
            if traced_rounds >= TRACED_ROUNDS:
                tracer.reset()
        else:
            rate = loop.round(cli, rounds[i % len(rounds)], checker)
        timed[traced].append(rate)
        if not traced and kept is not None and loop.busy_s >= seconds:
            break
    overhead = 1.0 - statistics.median(timed[True]) / statistics.median(timed[False])
    return loop, kept, overhead


def parse_importtime(log: str) -> dict[str, float]:
    """numpy's cumulative import time and the sum over top-level toricsat imports, in ms."""
    numpy_us = toricsat_us = 0
    for line in log.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        cumulative, raw = int(parts[1]), parts[2].rstrip()
        name, top = raw.strip(), len(raw) - len(raw.lstrip()) <= 1
        if name == "numpy" and not numpy_us:
            numpy_us = cumulative
        if top and (name == "toricsat" or name.startswith("toricsat.")):
            toricsat_us += cumulative
    return {"import.numpy_ms": numpy_us / 1e3, "import.toricsat_ms": toricsat_us / 1e3}


def probe_setup(name: str, seed: int, count: int) -> tuple[float, dict, dict]:
    """Median set-up time of fresh processes that import the CLI and build the inputs.

    Each probe's wall time is taken at the reference host speed, from the
    calibrations on either side of it; the raw walls are returned too.
    """
    walls, raw, logs = [], [], []
    cal = calibrate()
    for _ in range(count):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", str(BENCH / "probe.py"), name, str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=150,
        )
        raw.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr[-2000:]}")
        after = calibrate()
        walls.append(raw[-1] * CAL_REF_S / min(cal, after))
        cal = after
        logs.append(parse_importtime(proc.stderr))
    breakdown = {k: statistics.median(log[k] for log in logs) for k in logs[0]}
    return statistics.median(walls), breakdown, {"setup_probe_s": walls, "setup_probe_raw_s": raw}


# -- checking -----------------------------------------------------------------


class Checker:
    """Checks every job's output as it returns and keeps only what later checks need.

    The first run of a job key is checked in full (checks.py, and golden.json
    at its seed); later runs of the key must repeat its exit code and output
    digest.  Outputs are kept only for the first ROUND_TRIP_ROUNDS rounds,
    whose jobs `finish` re-runs from their emitted input and whose
    certificates it verifies again.
    """

    def __init__(self, wl):
        self.first: dict[str, tuple[int, str]] = {}  # key -> (exit code, output digest)
        self.kept: dict[str, tuple] = {}  # key -> (job, exit code, output)
        self.keep = {job.key for jobs in wl.rounds[:ROUND_TRIP_ROUNDS] for job in jobs}
        self.runs: dict[str, int] = {}  # key -> times run
        self.jobs: list = []  # job of every run, in order
        self.reasons: dict[str, str] = {}
        golden = json.loads((BENCH / "golden.json").read_text())
        self.golden = golden["digests"][wl.name] if wl.seed == golden["seed"] else {}

    @property
    def attempted(self) -> int:
        return len(self.jobs)

    def add(self, job, rc: int, out: str) -> None:
        self.jobs.append(job)
        self.runs[job.key] = self.runs.get(job.key, 0) + 1
        seen = (rc, checks.digest(out))
        if job.key in self.first:
            if seen != self.first[job.key]:
                self.reasons.setdefault(job.key, "output differs between runs of the same job")
            return
        self.first[job.key] = seen
        why = checks.check_output(job, rc, out)
        if why is None and rc == 0 and job.key in self.golden and seen[1] != self.golden[job.key]:
            why = "canonical JSON differs from golden.json"
        if why:
            self.reasons[job.key] = why
        if job.key in self.keep:
            self.kept[job.key] = (job, rc, out)

    def finish(self, cli, workdir) -> int:
        """Re-run a sample of jobs and round-trip the certificates; return failed runs."""
        passed = [k for k, (job, rc, out) in self.kept.items() if rc == 0 and k not in self.reasons]
        for key in passed[:: max(1, len(passed) // RERUN_SAMPLE)][:RERUN_SAMPLE]:
            why = checks.rerun_from_input(cli, self.kept[key][2])
            if why:
                self.reasons[key] = why
        path = os.path.join(workdir, "round-trip.json")
        for key, (job, rc, out) in self.kept.items():
            if job.check["kind"] == "cert" and key not in self.reasons:
                why = checks.certificate_round_trip(cli, out, path)
                if why:
                    self.reasons[key] = why
        return sum(self.runs[key] for key in self.reasons)


# -- environment --------------------------------------------------------------


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return ""


def _git_commit():
    """HEAD of the repository at ROOT, or None when ROOT is not a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return head.stdout.strip() if head.returncode == 0 else None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "toricsat").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _quantiles(values) -> dict:
    q = statistics.quantiles(values, n=10, method="inclusive")
    return {"p50": statistics.median(values), "p90": q[8]}


def environment(args, wl, checker, loop, load_start, setup) -> dict:
    cpu = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.processor())
    seen_keys, seen_gens = set(), set()
    repeat_keys = repeat_gens = with_gens = 0
    for job in checker.jobs:
        repeat_keys += job.key in seen_keys
        seen_keys.add(job.key)
        if job.gens_key is not None:
            with_gens += 1
            repeat_gens += job.gens_key in seen_gens
            seen_gens.add(job.gens_key)
    raw_ms = _quantiles([dt * 1e3 for dt in loop.raw_latencies])
    return dict(
        {
            "python": platform.python_version(),
            "numpy": sys.modules["numpy"].__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": cpu,
            "loadavg_start": load_start,
            "loadavg_end": _read("/proc/loadavg").split()[:3],
            "calibration_ref_s": CAL_REF_S,
            "calibration_s": {"min": min(loop.cal), "median": statistics.median(loop.cal),
                              "max": max(loop.cal)},
            "raw_jobs_per_s": statistics.median(loop.raw_rates),
            "raw_job_p50_ms": raw_ms["p50"],
            "raw_job_p90_ms": raw_ms["p90"],
            "workload": wl.name,
            "seed": wl.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "git_commit": _git_commit(),
            "source_sha256": _source_digest(),
            "jobs": checker.attempted,
            "latency_samples": len(loop.latencies),
            "rounds": len(loop.rates),
            "jobs_per_round": len(wl.rounds[0]),
            "ladders": wl.ladders,
            "repeat_share_argv": repeat_keys / checker.attempted,
            "repeat_share_generators": repeat_gens / with_gens if with_gens else None,
            "client": "closed loop, 1 client, in-process, no threads",
        },
        **setup,
    )


# -- entry point --------------------------------------------------------------


def run_workload(args) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    import toricsat.cli as cli

    load_start = _read("/proc/loadavg").split()[:3]
    with tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT) as workdir:
        wl = workloads.make_workload(args.workload, args.seed, workdir, cli.run)
        probes = TRACE_SETUP_PROBES if args.trace else SETUP_PROBES
        setup_s, imports, setup = probe_setup(args.workload, args.seed, probes)
        checker = Checker(wl)
        if args.trace:
            loop, (spans, counters), overhead = traced_loop(
                cli, wl.rounds, args.seconds, checker, Tracer()
            )
        else:
            loop = closed_loop(cli, wl.rounds, args.seconds, checker)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        failed = checker.finish(cli, workdir)
    env = environment(args, wl, checker, loop, load_start, setup)
    for key, why in list(checker.reasons.items())[:10]:
        print(f"FAILED {key}: {why}", file=sys.stderr)
    if args.trace:
        table = layer_table(spans)
        layers = json.loads((BENCH / "layers.json").read_text())["metrics"]
        values = dict(imports, **{"trace.overhead_frac": overhead})
        metrics = {
            m["name"]: {"value": values[m["name"]] if m["name"] in values
                        else layer_value(m["name"], table, counters), "unit": m["unit"]}
            for m in layers
        }
        write_spans(args, env, spans)
    else:
        ms = _quantiles([dt * 1e3 for dt in loop.latencies])
        values = {
            "jobs_per_s": statistics.median(loop.rates),
            "job_p50_ms": ms["p50"],
            "job_p90_ms": ms["p90"],
            "ok_frac": 1.0 - failed / checker.attempted,
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    print(json.dumps({"env": env}, sort_keys=True))
    return {"correct": failed == 0, "attempted": checker.attempted, "failed": failed,
            "metrics": metrics}


def write_spans(args, env, spans) -> None:
    out = ROOT / ".bench-out"
    out.mkdir(exist_ok=True)
    t0 = spans[0][1] if spans else 0.0
    rows = [[n, round((s - t0) * 1e6, 1), round((e - t0) * 1e6, 1), p, j]
            for n, s, e, p, j in spans]
    path = out / f"trace-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps({"env": env, "columns": ["name", "start_us", "end_us",
                                                         "parent", "job"], "spans": rows}))


def run_all(args) -> int:
    """Run every workload in its own process and print one table of its metrics."""
    results = {}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"bench: workload {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
        res = results[name]
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}")
        for metric, v in res["metrics"].items():
            print(f"  {metric:48s} {v['value']:>14.6g} {v['unit']}")
    print(json.dumps(results, sort_keys=True))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "toricsat" / "cli.py").is_file():
        print(f"bench: no toricsat sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    print(json.dumps(run_workload(args), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
