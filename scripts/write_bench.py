"""Run every workload of BENCHMARK.json untraced and write one BENCH file.

    python3 scripts/write_bench.py BENCH_label.json

Each workload runs as ``perfbench/run.py --trace 0`` at seed ``SEED`` for the
benchmark's ``run_seconds``, so BENCH files written by this script differ only
in the code and the machine. The file holds each workload's result line and
the machine block that run.py prints. Run it from any directory of a source
checkout; run.py's stderr passes through to the terminal.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 1
NOTES = ("One run per workload on one machine: a record, not a claim; compare "
         "commits only in alternating runs on the same machine. certify_large "
         "peak_rss_mb is bimodal on identical code: single workers of one commit "
         "end at either of two levels about 2% apart for the same seed.")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("out", help="path of the BENCH JSON file to write")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    report = {"notes": NOTES, "seed": SEED, "seconds": bench["run_seconds"], "workloads": {}}
    for workload in bench["workloads"]:
        argv = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload",
                workload["name"], "--seed", str(SEED), "--seconds", str(bench["run_seconds"]),
                "--trace", "0"]
        done = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
        *_, machine, result = done.stdout.strip().splitlines()
        report["machine"] = json.loads(machine)["machine"]
        report["workloads"][workload["name"]] = json.loads(result)
        if not report["workloads"][workload["name"]].get("correct"):
            print(f"warning: {workload['name']} reported correct=false", file=sys.stderr)
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
