"""lutzlab benchmark: one workload, one seed, one line of metrics.

    python3 perfbench/run.py --workload sandwich|dynamics|persist
                             --seed N --seconds T --trace 0|1

Run it from the root of a checkout; it benchmarks the lutzlab package in
that checkout's src/ and fails (nonzero exit, no result) when there is
none.  It first starts fresh interpreters that only import lutzlab and
build the workload's inputs (set-up time, median of PROBES after one
discarded warm-up), then one fresh interpreter that runs the workload for
T seconds and checks its outputs.  The second-to-last line of standard
output is a report (environment, failure ratio, worst relative error, the
tail percentile and sample count); the last line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics for --trace 0 and the per-layer metrics for
--trace 1.  Only the standard library is used here, so this process stays
small and its memory never counts toward the workload's.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

import workloads  # standard library only

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
PROBES = {"full": 5, "tiny": 1}
DEADLINE_S = 170.0
TAIL_BEYOND = 10


class BenchError(Exception):
    pass


def child_env() -> dict:
    """One process, one thread: no LUTZLAB_THREADS fan-out, no BLAS pool."""
    env = dict(os.environ)
    env.pop("LUTZLAB_THREADS", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def worker(args: list, timeout: float) -> dict:
    try:
        proc = subprocess.run([sys.executable, WORKER] + args, cwd=ROOT,
                              env=child_env(), capture_output=True,
                              text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {args[0]} timed out after {timeout:.0f} s")
    if proc.returncode != 0:
        raise BenchError(f"worker {args[0]} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        raise BenchError(f"worker {args[0]} printed no result")


def tail(samples: list) -> tuple:
    """(value, percentile): the op time at the highest percentile that has
    at least TAIL_BEYOND samples beyond it; the maximum (percentile 100)
    when there are too few samples for one."""
    xs = sorted(samples)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0
    i = n - 1 - TAIL_BEYOND
    return xs[i], 100.0 * (i + 1) / n


def code_identity() -> dict:
    """Git commit when the checkout has one, and a digest of src/ always."""
    sha = None
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.isfile(head):
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            path = os.path.join(ROOT, ".git", ref[5:])
            if os.path.isfile(path):
                with open(path) as fh:
                    sha = fh.read().strip()
        else:
            sha = ref
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "lutzlab")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {"git_sha": sha, "src_sha256": digest.hexdigest()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny inputs, for the self-test")
    args = ap.parse_args(argv)
    t_start = time.monotonic()
    base = ["--workload", args.workload, "--seed", str(args.seed),
            "--size", args.size]
    try:
        if not os.path.isfile(os.path.join(ROOT, "src", "lutzlab",
                                           "__init__.py")):
            raise BenchError(f"no lutzlab package under {ROOT}/src")
        probes = [worker(["setup"] + base, 60.0)
                  for _ in range(PROBES[args.size] + 1)][1:]
        remaining = DEADLINE_S - (time.monotonic() - t_start)
        res = worker(["run"] + base + ["--seconds", str(args.seconds),
                                       "--trace", str(args.trace)],
                     remaining)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    setup_s = statistics.median(p["import_s"] + p["construct_s"]
                                for p in probes)
    import_s = statistics.median(p["import_s"] for p in probes)
    construct_s = statistics.median(p["construct_s"] for p in probes)
    correct = res["failed"] == 0
    report = {"workload": args.workload, "seed": args.seed,
              "size": args.size, "trace": args.trace,
              "fail_ratio": res["failed"] / res["attempted"],
              "max_rel_err": res["max_rel_err"],
              "setup_probes": len(probes), "import_s": import_s,
              "construct_s": construct_s,
              "environment": dict(res["environment"],
                                  nproc=os.cpu_count(), **code_identity()),
              "notes": res["notes"]}
    if args.trace:
        correct = (correct and res["traced_matches_untraced"]
                   and not res["trace_missing"])
        metrics = dict(res["layers"], **{"cli.import_s": import_s})
        units = {k: layer_unit(k) for k in metrics}
        report.update(traced_rounds=res["rounds"],
                      traced_matches_untraced=res["traced_matches_untraced"],
                      trace_missing=res["trace_missing"])
    else:
        lat = res["latencies"]
        tail_s, tail_pct = tail(lat)
        metrics = {"setup_s": setup_s,
                   "ops_per_s": res["units"] / res["busy_s"],
                   "latency_p50_s": statistics.median(lat),
                   "latency_tail_s": tail_s,
                   "peak_rss_mb": res["peak_rss_mb"]}
        units = {"setup_s": "s", "ops_per_s": "1/s", "latency_p50_s": "s",
                 "latency_tail_s": "s", "peak_rss_mb": "MB"}
        report.update(tail_percentile=tail_pct, latency_samples=len(lat),
                      rounds=res["rounds"], measured_s=res["busy_s"],
                      op_unit=res["op_unit"])
    print("perfbench " + json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": correct, "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()}}))
    return 0


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("hit_ratio"):
        return "ratio"
    if name.endswith("_bytes"):
        return "B"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
