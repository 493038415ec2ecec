"""One pass of a workload in a fresh interpreter.

Imports ``hardylab.cli`` (timed as set-up), issues the workload's commands in
sequence through ``cli.run`` (timed as the pass's wall and CPU time) and
writes ``pass.json`` into ``--out``.  With ``--trace`` the layer entry
points are wrapped for the duration of the pass and the spans are written to
``spans.json``.  run.py starts one worker process per pass, so every pass
pays the import and the first fill of the package's rule caches, as a CLI
invocation does.
"""

import argparse
import dataclasses
import json
import os
import resource
import sys
import time
import traceback

from workloads import WORKLOADS


def run_commands(workload, seed, out, cli, tracer):
    commands = []
    for i, cmd in enumerate(WORKLOADS[workload]):
        csv_name = f"cmd{i:02d}.csv"
        argv = [*cmd, "--seed", str(seed), "--out", os.path.join(out, csv_name)]
        if tracer is not None:
            tracer.trace = i
        t = time.perf_counter()
        try:
            rc = cli.run(argv)
        except Exception:  # a crash is a failed command, reported by the checks
            traceback.print_exc()
            rc = None
        commands.append({"argv": list(cmd), "rc": rc, "csv": csv_name,
                         "wall_s": time.perf_counter() - t})
    return commands


def cpu_time():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    t = time.perf_counter()
    from hardylab import cli, quadrature
    record = {"setup_s": time.perf_counter() - t}

    if not args.setup_only:
        tracer = snap = None
        if args.trace:
            import spans  # after the timed import: spans imports numpy
            targets = spans.hardylab_targets()
            snap = spans.snapshot(targets)
            tracer = spans.Tracer()
            tracer.install(targets)
        try:
            cpu0, t = cpu_time(), time.perf_counter()
            record["commands"] = run_commands(args.workload, args.seed,
                                              args.out, cli, tracer)
            record["wall_s"] = time.perf_counter() - t
            record["cpu_s"] = cpu_time() - cpu0
        finally:
            if tracer is not None:
                tracer.uninstall()
        ru = resource.getrusage(resource.RUSAGE_SELF)
        record["peak_rss_mb"] = ru.ru_maxrss / 1024.0   # Linux reports KiB
        if tracer is not None:
            record["unrestored"] = [f"{getattr(owner, '__name__', owner)}.{attr}"
                                    for owner, attr in spans.unrestored(snap)]
            record["layers"] = spans.layer_metrics(
                tracer.spans, record["wall_s"],
                quadrature._zonal_nodes.cache_info().misses)
            with open(os.path.join(args.out, "spans.json"), "w") as fh:
                json.dump([{**dataclasses.asdict(s),
                            "attrs": {k: repr(v) for k, v in s.attrs.items()}}
                           for s in tracer.spans], fh)

    import numpy
    import scipy
    record["versions"] = {"python": sys.version.split()[0],
                          "numpy": numpy.__version__, "scipy": scipy.__version__}
    with open(os.path.join(args.out, "pass.json"), "w") as fh:
        json.dump(record, fh)


if __name__ == "__main__":
    main()
