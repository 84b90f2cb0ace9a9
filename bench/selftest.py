"""Self-test of the benchmark at a tiny size.

    python3 bench/selftest.py

Runs every workload, untraced and traced, on three rounds of four jobs each,
and asserts that each run emits exactly the metrics BENCHMARK.json names, with
their units, and no failures.  Then feeds the checker deliberately corrupted
outputs (a wrong result, a wrong exit code, bytes that differ from
golden.json, two runs of one job that disagree) and asserts that each is
counted as failed.  Exits 0 when every assertion holds.
"""

import contextlib
import io
import json
import sys
import tempfile

import run
import workloads

TINY_ROUNDS, TINY_JOBS = 3, 4


def _tiny(make):
    def make_tiny(*args, **kwargs):
        wl = make(*args, **kwargs)
        wl.rounds = [jobs[:TINY_JOBS] for jobs in wl.rounds[:TINY_ROUNDS]]
        return wl

    return make_tiny


def check_metrics(spec) -> None:
    run.MIN_JOBS = 1
    run.SETUP_PROBES = run.TRACE_SETUP_PROBES = 1
    workloads.make_workload = _tiny(workloads.make_workload)
    for name in workloads.WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            args = run.parse_args(["--workload", name, "--seed", "3", "--seconds", "0",
                                   "--trace", str(trace)])
            with contextlib.redirect_stdout(io.StringIO()):
                result = run.run_workload(args)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] and result["failed"] == 0, (name, trace, result)
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == want, (name, trace, set(got) ^ set(want))
            assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
            print(f"ok   {name} trace={trace}: {len(got)} metrics, {result['attempted']} jobs")


def _corrupt_result(job, out: str) -> str:
    doc = json.loads(out)
    res = doc["result"]
    kind = job.check["kind"]
    if kind in ("hyp", "curve", "product"):
        res["min_gens"] = res["min_gens"][:-1]
        res["embedding_dimension"] -= 1
    elif kind == "contains":
        res["contains"] = not res["contains"]
    elif kind == "cert":
        res["certificate"]["ord_target"] += 1
    elif kind == "verify":
        res["valid"] = not res["valid"]
    else:
        raise AssertionError(f"no corruption for {kind}")
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def check_corruption() -> None:
    sys.path.insert(0, str(run.ROOT / "src"))
    import toricsat.cli as cli

    wanted = {"saturate": "hyp", "invariants": "contains", "certify": "cert"}
    for name, kind in wanted.items():
        with tempfile.TemporaryDirectory(prefix=".bench-", dir=run.ROOT) as workdir:
            wl = workloads.make_workload(name, run.DEFAULT_SEED, workdir, cli.run)
            job = next(j for j in wl.rounds[0] if j.check["kind"] == kind)
            buf = io.StringIO()
            rc = cli.run(job.argv, stdout=buf)
            out = buf.getvalue()
            cases = {
                "clean": [(rc, out)],
                "wrong result": [(rc, _corrupt_result(job, out))],
                "wrong exit code": [(3, out)],
                "bytes differ from golden.json": [(rc, out.replace("\n", " \n", 1))],
                "repeats disagree": [(rc, out), (rc, out + " ")],
            }
            for case, runs in cases.items():
                checker = run.Checker(wl)
                for code, text in runs:
                    checker.add(job, code, text)
                failed = checker.finish(cli, workdir)
                want = 0 if case == "clean" else len(runs)
                assert failed == want, (name, case, failed, checker.reasons)
                print(f"ok   {name}: {case} -> {failed} failed"
                      + (f" ({next(iter(checker.reasons.values()))})" if checker.reasons else ""))


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    layers = json.loads((run.BENCH / "layers.json").read_text())["metrics"]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        [(m["name"], m["unit"]) for m in layers], "BENCHMARK.json per_layer != layers.json"
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    check_corruption()
    check_metrics(spec)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
