"""One benchmark process: a set-up probe or a measured workload run.

    python3 perfbench/worker.py setup --workload W --seed N [--size S]
    python3 perfbench/worker.py run --workload W --seed N --seconds T
                                    --trace 0|1 [--size S]

Both print one JSON line.  `setup` times `import lutzlab` and the
workload's construction in this fresh interpreter.  `run` builds the
workload, runs whole rounds of operations until the ops have taken T
seconds, then checks every output against the reference outside the
timed region.
With --trace 1 it alternates untraced and traced rounds on the same inputs
and reports per-layer metrics, the tracing overhead, and whether the two
kinds of round gave identical outputs.  lutzlab is imported from the
checkout's src/ and nowhere else.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

sys.path.insert(0, HERE)
import workloads  # noqa: E402  (standard library only)


def import_lutzlab():
    """Import lutzlab from this checkout; return (package, seconds)."""
    if not os.path.isfile(os.path.join(SRC, "lutzlab", "__init__.py")):
        raise SystemExit(f"no lutzlab package under {SRC}")
    sys.path.insert(0, SRC)
    t0 = perf_counter()
    import lutzlab.cli  # noqa: F401  (pulls in every module)
    import_s = perf_counter() - t0
    import lutzlab
    where = os.path.realpath(lutzlab.__file__)
    if not where.startswith(os.path.realpath(SRC) + os.sep):
        raise SystemExit(f"lutzlab was imported from {where}, not {SRC}")
    return lutzlab, import_s


def peak_rss_mb() -> float:
    """This process's resident-set high-water mark.

    VmHWM belongs to this process's own address space; ru_maxrss may carry
    the parent's mark across fork and exec, so it is only the fallback.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_round(wl, round_index: int) -> list:
    """Run one round; return [(op, canonical output, error, seconds)].

    Each output is reduced to its canonical form right after its op, and
    outside the op's time, so that what the run retains stays small.
    """
    records = []
    for op in wl.ops(round_index):
        t0 = perf_counter()
        try:
            raw, err = op.run(), None
        except Exception as exc:   # a failed op is counted, not fatal
            raw, err = None, f"{op.label}: {type(exc).__name__}: {exc}"
        dt = perf_counter() - t0
        canon = None
        if err is None:
            try:
                canon = wl.canonical(op, raw)
            except workloads.CheckFailed as exc:
                err = str(exc)
        records.append((op, canon, err, dt))
    return records


def busy(records: list) -> float:
    return sum(dt for *_, dt in records)


def judge(wl, records: list, ref) -> dict:
    failed, worst, notes = 0, 0.0, []
    for op, canon, err, _ in records:
        if err is None:
            ok, e, err = workloads.verdict(wl, op, canon, ref)
            if e != math.inf:   # inf marks a structural mismatch
                worst = max(worst, e)
            if ok:
                continue
        failed += 1
        if len(notes) < 5:
            notes.append(err)
    return {"attempted": len(records), "failed": failed,
            "max_rel_err": worst, "notes": notes}


def cmd_setup(args) -> dict:
    lutzlab, import_s = import_lutzlab()
    t0 = perf_counter()
    workloads.WORKLOADS[args.workload](args.seed, args.size, WORK)
    return {"import_s": import_s, "construct_s": perf_counter() - t0}


def environment(lutzlab) -> dict:
    import numpy
    import scipy
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "lutzlab": lutzlab.__version__,
            "LUTZLAB_THREADS": os.environ.get("LUTZLAB_THREADS")}


def cmd_run(args) -> dict:
    lutzlab, _ = import_lutzlab()
    workdir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, args.size,
                                                 workdir)
        if args.trace:
            result = traced_run(wl, args)
        else:
            result = timed_run(wl, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["environment"] = environment(lutzlab)
    return result


def timed_run(wl, seconds: float) -> dict:
    """Whole rounds until the ops have taken `seconds` in total."""
    records, rounds = [], 0
    while busy(records) < seconds:
        records += run_round(wl, rounds)
        rounds += 1
    rss = peak_rss_mb()   # before the reference checks add their own
    result = judge(wl, records, wl.reference())
    result.update(latencies=[dt for *_, dt in records],
                  units=sum(op.units for op, _, err, _ in records
                            if err is None),
                  busy_s=busy(records), rounds=rounds, peak_rss_mb=rss,
                  op_unit=wl.unit)
    return result


def traced_run(wl, args) -> dict:
    """Untraced and traced rounds in turn, on the same inputs."""
    from tracer import Tracer

    tracer = Tracer()
    records, walls, artifact_bytes = [], {False: [], True: []}, 0
    mismatches, rounds = 0, 0
    while busy(records) < args.seconds:
        plain = run_round(wl, 2 * rounds)
        tracer.install()
        try:
            traced = run_round(wl, 2 * rounds + 1)
        finally:
            tracer.uninstall()
        rounds += 1
        walls[False].append(busy(plain))
        walls[True].append(busy(traced))
        mismatches += sum(p[1] != t[1] or p[2] != t[2]
                          for p, t in zip(plain, traced))
        artifact_bytes += sum(wl.artifact_bytes(t[1]) for t in traced
                              if t[1] is not None)
        records += plain + traced
    result = judge(wl, records, wl.reference())
    layers = tracer.layer_metrics(rounds)
    layers["cli.artifact_bytes"] = artifact_bytes / rounds
    layers["trace.untraced_round_s"] = statistics.median(walls[False])
    layers["trace.overhead_s"] = (statistics.median(walls[True])
                                  - statistics.median(walls[False]))
    os.makedirs(WORK, exist_ok=True)
    tracer.write_spans(os.path.join(
        WORK, f"spans-{args.workload}-seed{args.seed}.jsonl"))
    result.update(layers=layers, rounds=rounds,
                  traced_matches_untraced=(mismatches == 0),
                  trace_missing=tracer.missing)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("mode", choices=("setup", "run"))
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    args = ap.parse_args(argv)
    result = cmd_setup(args) if args.mode == "setup" else cmd_run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
