"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Checks that
  * every workload, traced and untraced, prints exactly the metrics that
    BENCHMARK.json names, each with its unit, and reports correct outputs;
  * each workload's reference check accepts the real outputs and rejects
    a deliberately wrong reference;
  * run.py fails, without printing a result, in a directory that holds
    only BENCHMARK.json and the benchmark's own files.
Takes about a minute; prints one line per check and exits 1 on a failure.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import workloads  # noqa: E402
from worker import WORK, import_lutzlab, run_round  # noqa: E402

FAILURES = []


def expect(cond: bool, what: str) -> None:
    print(("ok    " if cond else "FAIL  ") + what, flush=True)
    if not cond:
        FAILURES.append(what)


def run_bench(cwd: str, workload: str, trace: int):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "0.1", "--trace", str(trace),
         "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def check_emission(spec: dict) -> dict:
    """Run every workload at tiny size; return the traced metrics."""
    layers = {}
    for name in sorted(workloads.WORKLOADS):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_bench(ROOT, name, trace)
            if proc.returncode != 0:
                expect(False, f"{name} trace={trace} exits 0\n"
                              f"{proc.stderr[-1500:]}")
                continue
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            expect(set(res) == {"correct", "attempted", "failed",
                                "metrics"},
                   f"{name} trace={trace}: result keys")
            expect(got == want, f"{name} trace={trace}: metrics and units "
                                f"match BENCHMARK.json {key}")
            expect(res["correct"] and res["failed"] == 0
                   and res["attempted"] >= 1,
                   f"{name} trace={trace}: outputs correct")
            if trace:
                layers[name] = {k: v["value"]
                                for k, v in res["metrics"].items()}
    return layers


def check_hot_spots(layers: dict) -> None:
    """The traced run locates the seed's known hot spots."""
    if set(layers) != set(workloads.WORKLOADS):
        expect(False, "every workload gave traced metrics")
        return
    sw = layers["sandwich"]
    wl = workloads.Sandwich(7, "tiny")
    amplitudes = {b - a for a, b in wl.points}
    expect(sw["distance.gray_integral.calls"]
           == len(amplitudes) * (len(amplitudes) - 1) // 2,
           "sandwich: one Gray leg per distinct amplitude pair")
    dyn = layers["dynamics"]
    traced_round = dyn["trace.untraced_round_s"] + dyn["trace.overhead_s"]
    expect(dyn["reeb.resonance_scan.total_s"] > 0.5 * traced_round,
           "dynamics: resonance_scan takes most of the wall time")
    expect(dyn["profile.eval_scalar_s"] > dyn["profile.eval_vector_s"],
           "dynamics: scalar evaluation is the dominant profile work")
    per = layers["persist"]
    expect(per["persistence.d_squared_check.calls"]
           == 2 * len(workloads.Persist(7, "tiny").specs),
           "persist: each DGA's differential is checked twice")


def tampered(name: str, ref):
    """Wrong references: each must make the check fail."""
    if name == "sandwich":
        key = next(iter(ref))
        lower, upper = ref[key]
        for lo, up in ((lower * (1 + 1e-9), upper),
                       (lower, upper * (1 - 1e-9))):
            bad = dict(ref)
            bad[key] = (lo, up)
            yield bad
    elif name == "dynamics":
        for label, field, change in (
                ("reeb scan", "orbits.csv[0].r0", lambda v: v * (1 + 1e-7)),
                ("reeb scan", "orbits.csv[0].p", lambda v: v + 1),
                ("reeb perturb", "perturbed.json.action_hyperbolic",
                 lambda v: v * (1 + 1e-7))):
            bad = copy.deepcopy(ref)
            for per_cmd in bad.values():
                per_cmd[label][field] = change(per_cmd[label][field])
            yield bad
    else:
        bars, t_action = ref[0]
        yield [(bars, t_action * (1 + 1e-12))] + ref[1:]
        yield [(bars[:-1], t_action)] + ref[1:]


def check_references() -> None:
    import_lutzlab()
    workdir = os.path.join(WORK, f"selftest-{os.getpid()}")
    try:
        for name, cls in sorted(workloads.WORKLOADS.items()):
            wl = cls(7, "tiny", workdir)
            records = run_round(wl, 0)
            ref = wl.reference()
            verdicts = [workloads.verdict(wl, op, out, ref)[0]
                        for op, out, err, _ in records if err is None]
            expect(len(verdicts) == len(records) and all(verdicts),
                   f"{name}: outputs pass the true reference")
            for i, bad in enumerate(tampered(name, ref)):
                rejected = any(
                    not workloads.verdict(wl, op, out, bad)[0]
                    for op, out, _, _ in records)
                expect(rejected, f"{name}: wrong reference {i} rejected")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def check_bare_directory() -> None:
    bare = os.path.join(WORK, f"bare-{os.getpid()}")
    try:
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(bare, "persist", 0)
        expect(proc.returncode != 0 and not proc.stdout.strip(),
               "fails without a result where there is no lutzlab source")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    check_references()
    check_bare_directory()
    check_hot_spots(check_emission(spec))
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
