"""Smoke test of the benchmark itself, at tiny sizes (about a minute).

    python3 perfbench/selftest.py

Checks that
- every metric named in BENCHMARK.json is emitted, with its unit, by the
  untraced and the traced run of every workload;
- the per-layer counts repeat exactly for the same seed;
- a corrupted result and a refused instance are counted as failed calls;
- without the package sources the benchmark exits non-zero and prints no
  result.
Exits non-zero on the first failed check.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 3

# counts that must repeat exactly for one seed
EXACT_COUNTS = ("cube_fourier.fwht.calls", "cube_fourier.fwht.elems",
                "inner_hierarchy.matrix_size", "cli.out_bytes",
                "outer_hierarchy.ipm_iters")


def fail(msg):
    print(f"SELFTEST FAILED: {msg}", file=sys.stderr)
    sys.exit(1)


def bench(workload, trace, cwd=ROOT):
    argv = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
            "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=300)


def result_of(workload, trace):
    done = bench(workload, trace)
    if done.returncode != 0:
        fail(f"{workload} trace={trace} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload}: result keys {sorted(result)}")
    if not (result["correct"] and result["attempted"] >= 1 and result["failed"] == 0):
        fail(f"{workload} trace={trace}: {result}\n{done.stderr}")
    return result


def check_metrics(workload, result, declared):
    metrics = result["metrics"]
    if set(metrics) != {m["name"] for m in declared}:
        fail(f"{workload}: metrics {sorted(metrics)} != declared {[m['name'] for m in declared]}")
    for m in declared:
        got = metrics[m["name"]]
        if got["unit"] != m["unit"] or not isinstance(got["value"], (int, float)):
            fail(f"{workload}: {m['name']} = {got}, declared unit {m['unit']}")


def check_emission(spec):
    for workload in (w["name"] for w in spec["workloads"]):
        check_metrics(workload, result_of(workload, 0), spec["end_to_end"])
        first, second = result_of(workload, 1), result_of(workload, 1)
        check_metrics(workload, first, spec["per_layer"])
        for name in EXACT_COUNTS:
            a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
            if a != b:
                fail(f"{workload}: {name} differs between runs of seed {SEED}: {a} != {b}")
        print(f"ok {workload}: metrics and units as declared, counts repeat")


def check_failures_counted():
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import run
    import workloads

    scratch = os.path.join(ROOT, ".perfbench", "selftest")
    os.makedirs(scratch, exist_ok=True)
    try:
        for wl in workloads.WORKLOADS.values():
            def corrupted_check(s, result, wl=wl):
                wl.corrupt(s, result)
                return wl.check(s, result)

            bad = dataclasses.replace(wl, check=corrupted_check)
            calls, _ = run.measure_untraced(bad, wl.tiny, 0.01, SEED, 0, scratch, {})
            if not calls or any(c.ok for c in calls):
                fail(f"{wl.name}: a corrupted result passed the referee")
            huge = workloads.Shape("random", 40, 13)
            refused = workloads.refused_shapes(wl.name, [huge])
            if "n=40" not in refused.get(huge, ""):
                fail(f"{wl.name}: the memory guard did not refuse n=40")
            calls, _ = run.measure_untraced(wl, (huge,), 0.01, SEED, 0, scratch, refused)
            if any(c.ok for c in calls):
                fail(f"{wl.name}: a refused instance counted as passed")
            print(f"ok {wl.name}: corrupted and refused calls count as failed")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def check_missing_sources(spec):
    bare = os.path.join(ROOT, ".perfbench", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        done = bench(spec["workloads"][0]["name"], 0, cwd=bare)
        if done.returncode == 0 or '"correct"' in done.stdout:
            fail("the benchmark ran without the package sources")
        print("ok: exits non-zero without the package sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    check_missing_sources(spec)
    check_failures_counted()
    check_emission(spec)
    print("selftest passed")


if __name__ == "__main__":
    main()
