"""cubesos benchmark: closed loop, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``. Each call starts when the previous one returns. The workload's
round of instance shapes is repeated with fresh instances derived from
``--seed`` (whole rounds only, so every run measures the same mix). Every
call is refereed; a call that fails a check counts as failed and is never
dropped.

``--trace 0`` measures the end-to-end metrics with no tracing. The
``--seconds`` are split over WORKERS fresh processes run one after another;
each worker's imports and warm-up call are one set-up sample. Throughput
and latency are means over the whole run, not medians: on a shared box the
machine switches between a fast and a slow state (about 1.8x apart) for
seconds at a time, and a median flips between the two states while a mean
moves with the share of time spent in each.
``--trace 1`` alternates untraced and traced passes over the first round in
this process and prints the per-layer metrics (means per call) with the
tracing overhead.
The last stdout line is the JSON result; details, the machine block and the
spans (JSONL) go to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

T_START = time.perf_counter()

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
WORKLOAD_NAMES = ("outer_sdp", "inner_eig", "certify_large")
WORKERS = 3
BLAS_THREADS = 1  # two threads on a shared 2-core box widened the run-to-run spread
ROUNDS_PER_WORKER = 10_000  # instance-index stride, so workers never share an instance


def pin_threads() -> None:
    # before numpy loads BLAS, so the pool is created at this size
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def setup(args, scratch):
    """Imports plus one untimed warm-up call on the round's first shape.
    Returns the seconds since the script started, and the workload."""
    sys.path[:0] = [HERE, SRC]
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    os.makedirs(scratch, exist_ok=True)
    warm = wl.attempt(scratch, shapes_of(wl, args)[0], workloads.instance_seed(0, -1), {})
    if not warm.ok:
        raise SystemExit(f"warm-up call failed: {warm.reason}")
    return time.perf_counter() - T_START, wl


def shapes_of(wl, args):
    return wl.tiny if args.tiny else wl.shapes


# ---------------------------------------------------------------------------
# machine block (stdlib only)


def _read(path):
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return ""


def machine_block() -> dict:
    import numpy
    import scipy

    cpu = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.processor())
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        level = _read(f"{base}/{index}/level").strip()
        kind = _read(f"{base}/{index}/type").strip()
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read(f"{base}/{index}/size").strip()
    mem_total = next((line.split(":", 1)[1].strip() for line in _read("/proc/meminfo").splitlines()
                      if line.startswith("MemTotal")), "")
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "caches": caches,
        "mem_total": mem_total,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": BLAS_THREADS,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
    }


# ---------------------------------------------------------------------------
# measurement


def plan(shapes, seed, round_index):
    """Instances of one round: (shape, instance seed) pairs."""
    import workloads

    base = round_index * len(shapes)
    return [(s, workloads.instance_seed(seed, base + i)) for i, s in enumerate(shapes)]


def run_round(wl, scratch, items, refused, tracer=None, first_call=0):
    calls = []
    for i, (s, seed) in enumerate(items):
        if tracer is not None:
            tracer.call = first_call + i
        calls.append(wl.attempt(scratch, s, seed, refused, tracer))
    return calls


def keep_going(elapsed, rounds, seconds):
    # whole rounds, stopping at the round count nearest to the time budget
    return rounds == 0 or elapsed + 0.5 * elapsed / rounds < seconds


def measure_untraced(wl, shapes, seconds, seed, first_round, scratch, refused):
    """Calls, and the wall time of each round (checks included), over the
    round count nearest to ``seconds``."""
    calls, walls = [], []
    t0 = time.perf_counter()
    while keep_going(time.perf_counter() - t0, len(walls), seconds):
        t = time.perf_counter()
        calls += run_round(wl, scratch, plan(shapes, seed, first_round + len(walls)), refused)
        walls.append(time.perf_counter() - t)
    return calls, walls


def measure_traced(wl, shapes, args, scratch, refused):
    """Pairs of passes over round 0, one untraced and one traced, in
    alternating order; per-layer metrics come from the traced passes."""
    import spans

    tracer = spans.Tracer()
    items = plan(shapes, args.seed, 0)
    calls, pairs = [], 0
    wall = {False: 0.0, True: 0.0}
    t0 = time.perf_counter()
    while keep_going(time.perf_counter() - t0, pairs, args.seconds):
        for traced in ((False, True) if pairs % 2 == 0 else (True, False)):
            if traced:
                tracer.install()
            try:
                t = time.perf_counter()
                calls += run_round(wl, scratch, items, refused, tracer if traced else None,
                                   first_call=tracer.calls)
                wall[traced] += time.perf_counter() - t
            finally:
                tracer.uninstall()
            if traced:
                tracer.calls += len(items)
        pairs += 1
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.write_jsonl(os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.jsonl"))
    metrics = {name: (value, spans.PER_LAYER_UNITS[name])
               for name, value in tracer.metrics(wall[True] - wall[False]).items()}
    return calls, metrics, {"pairs": pairs, "untraced_wall_s": wall[False],
                            "traced_wall_s": wall[True]}


def call_record(c) -> dict:
    return {"shape": c.shape.label(), "seed": c.seed, "seconds": c.seconds,
            "ok": c.ok, "reason": c.reason, "out_bytes": c.out_bytes}


def refused_for(args, wl):
    import workloads

    refused = workloads.refused_shapes(args.workload, shapes_of(wl, args))
    for reason in refused.values():
        print(reason, file=sys.stderr)
    return refused


def worker(args, scratch) -> dict:
    """One worker process of an untraced run."""
    setup_s, wl = setup(args, scratch)
    calls, walls = measure_untraced(wl, shapes_of(wl, args), args.seconds, args.seed,
                                    args.worker * ROUNDS_PER_WORKER, scratch,
                                    refused_for(args, wl))
    return {"setup_s": setup_s, "round_walls": walls,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "calls": [call_record(c) for c in calls]}


def run_workers(args):
    """End-to-end metrics from WORKERS fresh processes run one after another,
    each for its share of the time, in whole rounds."""
    reports = []
    for j in range(WORKERS):
        argv = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds / WORKERS),
                "--worker", str(j)] + (["--tiny"] if args.tiny else [])
        # a fixed hash seed, so dict and set layouts repeat from run to run
        env = dict(os.environ, PYTHONHASHSEED="0")
        # killed past its timeout, so the whole run ends within 180 s
        done = subprocess.run(argv, capture_output=True, text=True, timeout=170 / WORKERS,
                              env=env)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            raise SystemExit(f"worker {j} exited with code {done.returncode}")
        reports.append(json.loads(done.stdout.strip().splitlines()[-1]))
    calls = [c for r in reports for c in r["calls"]]
    latencies = [c["seconds"] for c in calls]
    metrics = {
        "solves_per_s": (sum(c["ok"] for c in calls)
                         / sum(w for r in reports for w in r["round_walls"]), "1/s"),
        "call_s.mean": (statistics.fmean(latencies), "s"),
        "setup_s": (statistics.median(r["setup_s"] for r in reports), "s"),
        "peak_rss_mb": (max(r["peak_rss_mb"] for r in reports), "MiB"),
    }
    cuts = statistics.quantiles(latencies, n=10) if len(latencies) > 1 else latencies * 9
    detail = {"setup_s": [r["setup_s"] for r in reports],
              "rounds": [len(r["round_walls"]) for r in reports],
              "latency_s": {"samples": len(latencies), "p50": statistics.median(latencies),
                            "p90": cuts[8], "beyond_p90": sum(x > cuts[8] for x in latencies)}}
    return calls, metrics, detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="self-test sizes")
    ap.add_argument("--worker", type=int, default=None, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "cubesos", "__init__.py")):
        print(f"error: no cubesos sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    pin_threads()
    if not args.trace:
        if args.worker is not None:
            scratch = os.path.join(OUT_DIR, f"tmp-{os.getpid()}")
            try:
                print(json.dumps(worker(args, scratch)))
            finally:
                shutil.rmtree(scratch, ignore_errors=True)
            return 0
        calls, metrics, detail = run_workers(args)
    else:
        scratch = os.path.join(OUT_DIR, f"tmp-{os.getpid()}")
        try:
            _, wl = setup(args, scratch)
            calls, metrics, detail = measure_traced(wl, shapes_of(wl, args), args, scratch,
                                                    refused_for(args, wl))
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        calls = [call_record(c) for c in calls]

    failed = [c for c in calls if not c["ok"]]
    for c in failed[:10]:
        print(f"FAILED {c['shape']} seed={c['seed']}: {c['reason']}", file=sys.stderr)
    result = {
        "correct": bool(calls) and not failed,
        "attempted": len(calls),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    machine = machine_block()
    detail.update(workload=args.workload, seed=args.seed, trace=args.trace,
                  fail_rate=len(failed) / max(len(calls), 1), machine=machine,
                  result=result, calls=calls)
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(detail, fh, indent=1)
    print(json.dumps({"machine": machine}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
