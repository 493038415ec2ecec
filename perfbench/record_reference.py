"""Record reference.json: each workload's CSV verdicts and exact values.

    python3 perfbench/record_reference.py

Runs one untraced pass per workload and program seed and stores, per
command, the verdict, the value and whether the value came from an exact
path.  Re-record only when the workloads change; a program change must
match the old reference.
"""

import json
import os
import shutil
import time

import checks
import run
from workloads import PROGRAM_SEEDS, WORKLOADS


def record(name, seed, pass_dir):
    rec = run.run_worker(name, seed, pass_dir, time.monotonic() + 600.0)
    entries = []
    for cmd in rec["commands"]:
        rows = checks.read_rows(os.path.join(pass_dir, cmd["csv"]))
        if cmd["rc"] != 0 or rows is None:
            raise SystemExit(f"{' '.join(cmd['argv'])} --seed {seed}: "
                             f"exit {cmd['rc']}")
        entries.append({"argv": cmd["argv"], "rows": checks.summarize(rows)})
    return entries


def main():
    out = os.path.join(run.OUT, "reference")
    shutil.rmtree(out, ignore_errors=True)
    reference = {name: {str(seed): record(name, seed,
                                          os.path.join(out, f"{name}-{seed}"))
                        for seed in PROGRAM_SEEDS}
                 for name in WORKLOADS}
    with open(checks.REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
