"""hardylab benchmark: CLI workloads timed end to end, and per layer when traced.

    python3 perfbench/run.py --workload ball-zonal --seed 7 --seconds 36 --trace 0

Run from the root of a source checkout (the package is imported from
``src/``).  A run issues the workload's commands (workloads.py) in passes,
one fresh worker process per pass, for about ``--seconds`` seconds and at
least MIN_PASSES passes.  It checks every pass's output (checks.py).

``--trace 0`` reports the end-to-end metrics as medians over the passes:
``wall_s`` and ``cpu_s`` (user + system) of the workload's commands,
``setup_s`` (import of ``hardylab.cli``, median of at least MIN_SETUPS
fresh processes) and ``peak_rss_mb``.  ``--trace 1`` alternates untraced and
traced passes and reports the per-layer metrics of spans.PER_LAYER as
medians over the traced passes, with ``trace.overhead_s`` the traced minus
the untraced median wall time (a difference of two noisy medians; the
wrappers themselves cost microseconds per span, see ``trace.spans``).

The last stdout line is the result JSON; the line before it is a report
with the environment, the per-pass figures, failed checks and the headroom
against the acceptance wall-clock gates.  Pass outputs are kept under
``.perfbench_out/`` in the checkout.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import checks
from spans import PER_LAYER
from workloads import GATES, UNCOVERED_GATES, WORKLOADS, program_seed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
MIN_PASSES = 2
MIN_SETUPS = 5
RUN_DEADLINE_S = 170.0
BLAS_THREADS = 1
END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    pass


def worker_env():
    env = dict(os.environ, PYTHONPATH=SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env.pop("HARDY_LAB_SEED", None)
    return env


def run_worker(workload, seed, pass_dir, deadline, trace=False,
               setup_only=False):
    """Run one worker process to completion and return its pass record."""
    os.makedirs(pass_dir)
    argv = [sys.executable, os.path.join(HERE, "worker.py"),
            "--workload", workload, "--seed", str(seed), "--out", pass_dir]
    if trace:
        argv.append("--trace")
    if setup_only:
        argv.append("--setup-only")
    t = time.perf_counter()
    with open(os.path.join(pass_dir, "log.txt"), "w") as log:
        try:
            proc = subprocess.run(argv, stdout=log, stderr=subprocess.STDOUT,
                                  env=worker_env(), cwd=ROOT,
                                  timeout=max(deadline - time.monotonic(), 1.0))
        except subprocess.TimeoutExpired as exc:  # run() kills and reaps it
            raise BenchError(f"worker passed the run deadline; see {log.name}") \
                from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}; see {log.name}")
    with open(os.path.join(pass_dir, "pass.json")) as fh:
        record = json.load(fh)
    record["process_s"] = time.perf_counter() - t
    record["traced"] = trace
    return record


def git_commit():
    """HEAD of the checkout's own git repository, or None outside one."""
    try:
        proc = subprocess.run(["git", "--git-dir", os.path.join(ROOT, ".git"),
                               "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest():
    """sha256 over the package sources, identifying the code without git."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "hardylab")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def command_medians(passes):
    """Median wall time of each command over the passes, keyed by argv."""
    times = {}
    for p in passes:
        for c in p["commands"]:
            times.setdefault(tuple(c["argv"]), []).append(c["wall_s"])
    return {argv: statistics.median(t) for argv, t in times.items()}


def headroom(medians):
    """Gate minus the time of the identical command(s), per criterion."""
    out = {}
    for name, (gate, cmds) in GATES.items():
        if all(c in medians for c in cmds):
            used = sum(medians[c] for c in cmds)
            out[name] = {"gate_s": gate, "command_s": used,
                         "headroom_s": gate - used, "used_frac": used / gate}
    return out


def metric(value, unit):
    return {"value": value, "unit": unit}


def measure(args):
    """Run the passes and return (result, report)."""
    seed = program_seed(args.seed)
    reference = checks.load_reference()[args.workload][str(seed)]
    run_dir = os.path.join(OUT, f"{args.workload}-seed{args.seed}"
                                f"-trace{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    deadline = time.monotonic() + RUN_DEADLINE_S

    def worker(tag, **kw):
        return run_worker(args.workload, seed, os.path.join(run_dir, tag),
                          deadline, **kw)

    start = time.perf_counter()
    passes = []
    while True:
        trace_pass = bool(args.trace) and len(passes) % 2 == 1
        passes.append(worker(f"pass{len(passes)}", trace=trace_pass))
        elapsed = time.perf_counter() - start
        typical = statistics.median(p["process_s"] for p in passes)
        if len(passes) >= MIN_PASSES and elapsed + typical > args.seconds:
            break
    setups = [p["setup_s"] for p in passes]
    while len(setups) < MIN_SETUPS:
        setups.append(worker(f"setup{len(setups)}", setup_only=True)["setup_s"])

    attempted, failures = 0, []
    for i, p in enumerate(passes):
        n, fails = checks.check_pass(os.path.join(run_dir, f"pass{i}"),
                                     p["commands"], reference)
        attempted += n
        failures += [f"pass{i}: {f}" for f in fails]
        if p["traced"]:
            attempted += 1
            if p["unrestored"]:
                failures.append(f"pass{i}: wrappers left on {p['unrestored']}")

    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    if args.trace:
        layers = [p["layers"] for p in traced]
        metrics = {k: statistics.median(r[k] for r in layers) for k in layers[0]}
        metrics["trace.overhead_s"] = (
            statistics.median(p["wall_s"] for p in traced)
            - statistics.median(p["wall_s"] for p in untraced))
        metrics = {k: metric(metrics[k], unit) for k, unit in PER_LAYER.items()}
    else:
        values = {k: statistics.median(p[k] for p in passes)
                  for k in ("wall_s", "cpu_s", "peak_rss_mb")}
        values["setup_s"] = statistics.median(setups)
        metrics = {k: metric(values[k], unit) for k, unit in END_TO_END.items()}

    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures), "metrics": metrics}
    medians = command_medians(traced or untraced)
    report = {
        "workload": args.workload,
        "seed": args.seed, "program_seed": seed, "trace": bool(args.trace),
        "seconds": args.seconds, "failed_frac": len(failures) / attempted,
        "failures": failures[:20],
        "passes": [{k: p[k] for k in ("traced", "wall_s", "cpu_s",
                                      "peak_rss_mb", "setup_s", "process_s")}
                   for p in passes],
        "setup_samples": setups,
        "commands_s": {" ".join(argv): t for argv, t in medians.items()},
        "headroom": headroom(medians),
        "headroom_from": "traced passes" if traced else "untraced passes",
        "uncovered_gates": UNCOVERED_GATES,
        "environment": {
            "cpu_count": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            **passes[0]["versions"],
            "blas_threads": BLAS_THREADS,
            "git_commit": git_commit(),
            "src_sha256": source_digest(),
        },
        "out": os.path.relpath(run_dir, ROOT),
    }
    return result, report


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "hardylab", "cli.py")):
        print("perfbench: src/hardylab/cli.py not found; run from the root of "
              "a hardylab checkout", file=sys.stderr)
        return 2
    try:
        result, report = measure(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    with open(os.path.join(ROOT, report["out"], "result.json"), "w") as fh:
        json.dump({"result": result, "report": report}, fh, indent=1)
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
