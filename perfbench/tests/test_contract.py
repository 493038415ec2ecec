import json
import os
import shutil
import subprocess
import sys

import checks
import run
import spans
from workloads import PROGRAM_SEEDS, WORKLOADS

ROOT = run.ROOT


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_benchmark_json_matches_the_metrics_the_run_emits():
    bench = load_benchmark()
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == spans.PER_LAYER


def test_reference_covers_every_workload_command():
    reference = checks.load_reference()
    for name, commands in WORKLOADS.items():
        for seed in PROGRAM_SEEDS:
            assert ([e["argv"] for e in reference[name][str(seed)]]
                    == [list(c) for c in commands])


def test_run_fails_without_the_package(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ball-zonal",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
