"""Record the dynamics workload's reference artifacts.

    python3 perfbench/record_reference.py

Runs the dynamics commands on every profile of the pool with the
checkout's lutzlab and writes perfbench/reference/dynamics.json.  The
committed file was recorded from commit 9afe92e; re-recording replaces
that reference with the current code's numbers, so only do it when a
change to the numbers is intended and explained.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import workloads  # noqa: E402
from worker import WORK, import_lutzlab  # noqa: E402


def main() -> int:
    import_lutzlab()
    workdir = os.path.join(WORK, f"record-{os.getpid()}")
    profiles = {}
    try:
        for entry in workloads.PROFILE_POOL:
            base = os.path.join(workdir, workloads.profile_id(entry))
            per_cmd = {}
            for label, argv, out in workloads.dynamics_argv(entry, base):
                code, _ = workloads.run_cli(argv)
                if code != 0:
                    raise SystemExit(f"{label} on {entry} exited {code}")
                per_cmd[label] = workloads.flatten_artifacts(
                    code, workloads.read_artifacts(out))
            profiles[workloads.profile_id(entry)] = per_cmd
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(os.path.dirname(workloads.DYNAMICS_REFERENCE), exist_ok=True)
    with open(workloads.DYNAMICS_REFERENCE, "w") as fh:
        json.dump({"profiles": profiles}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
