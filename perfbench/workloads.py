"""The three benchmark workloads: instance plans, calls, referee checks and
the memory guard.

A workload is a *round* of instance shapes, called in order and repeated
with fresh seeded instances. Scalar shapes drive ``cubesos.cli.main``
in-process and parse the JSON it writes; matrix shapes (in ``outer_sdp``)
call the library, because no subcommand takes matrix input. Sizes are
chosen so that a round takes a few seconds on a 2-core box; see README.md
for why each exists.
"""

from __future__ import annotations

import gc
import json
import math
import os
import time
import traceback
from dataclasses import dataclass

import numpy as np

from cubesos import cli, inner_hierarchy, outer_hierarchy
from cubesos.instances import random_matrix_poly

# Referee tolerances. Outer and brute-force values are compared with the
# CLI's own sandwich slack; certificate residuals with the test suite's.
OUTER_SLACK = 1e-6
INNER_SLACK = 1e-8
CERT_RESIDUAL = 1e-7

# An instance whose predicted peak exceeds this share of MemAvailable is
# refused (counted as a failed call) instead of run.
MEMORY_SHARE = 0.5
BASE_BYTES = 120 << 20  # interpreter, numpy, scipy and cubesos loaded


@dataclass(frozen=True)
class Shape:
    """One instance shape: ``kind`` is random, maxcut or matrix; ``d`` is the
    degree and ``k`` the matrix order."""

    kind: str
    n: int
    r: int
    d: int = 2
    k: int = 1

    def label(self):
        extra = f",k={self.k}" if self.kind == "matrix" else ""
        return f"{self.kind}(n={self.n},d={self.d},r={self.r}{extra})"


@dataclass
class Call:
    shape: Shape
    seed: int
    seconds: float = 0.0
    ok: bool = False
    reason: str = ""
    out_bytes: int = 0


def instance_seed(seed: int, index: int) -> int:
    """Seed of the index-th instance of a run (index -1: the warm-up)."""
    return (seed * 1_000_003 + index + 1) % (1 << 31)


# ---------------------------------------------------------------------------
# memory guard


def _binom_sum(n, top, bottom=0):
    return sum(math.comb(n, j) for j in range(bottom, min(top, n) + 1))


def predicted_peak_bytes(workload: str, s: Shape) -> int:
    """Upper estimate of the process peak for one call, from the sizes the
    call allocates: N characters of weight <= r, m constraint classes, the
    2^n value tables and 4^n Schur transforms, and the certificate JSON."""
    f8 = 8
    N = _binom_sum(s.n, s.r)
    tables = 4 * f8 << s.n
    if workload == "certify_large":
        # 2^n weight records as dicts and JSON text, about 1 KB each
        return BASE_BYTES + tables * 3 + (1200 << s.n)
    if s.kind == "matrix":
        kN = s.k * N
        m = s.k * (s.k + 1) // 2 * _binom_sum(s.n, 2 * s.r) - 1
        return BASE_BYTES + tables * s.k * s.k + f8 * (2 * m * kN * kN + 3 * m * m + 20 * kN * kN)
    peak = tables + 5 * f8 * N * N
    if workload == "outer_sdp":
        m = _binom_sum(s.n, 2 * s.r, 1)
        peak += f8 * (5 * 4 ** s.n + 3 * m * m + 20 * N * N)
    return BASE_BYTES + peak


def mem_available_bytes() -> int:
    with open("/proc/meminfo") as fh:
        for line in fh:
            if line.startswith("MemAvailable:"):
                return int(line.split()[1]) * 1024
    raise RuntimeError("MemAvailable missing from /proc/meminfo")


def refused_shapes(workload: str, shapes) -> dict:
    """Shapes whose predicted peak is over the guard, with the reason."""
    limit = MEMORY_SHARE * mem_available_bytes()
    refused = {}
    for s in shapes:
        need = predicted_peak_bytes(workload, s)
        if need > limit:
            refused[s] = (f"refused {workload} {s.label()}: predicted peak "
                          f"{need / 2**20:.0f} MiB exceeds {MEMORY_SHARE:.0%} of "
                          f"MemAvailable ({limit / MEMORY_SHARE / 2**20:.0f} MiB)")
    return refused


# ---------------------------------------------------------------------------
# instance inputs


def _maxcut_file(scratch, n, seed):
    """Seeded weighted G(n, 1/2) as a graph JSON file for ``maxcut:FILE``."""
    rng = np.random.default_rng(seed)
    edges, weights = [], []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if rng.random() < 0.5:
                edges.append([i, j])
                weights.append(int(rng.integers(1, 4)))
    path = os.path.join(scratch, "graph.json")
    with open(path, "w") as fh:
        json.dump({"n": n, "edges": edges, "weights": weights}, fh)
    return path


def _instance_arg(scratch, s: Shape, seed: int) -> str:
    if s.kind == "maxcut":
        return "maxcut:" + _maxcut_file(scratch, s.n, seed)
    return f"random:n={s.n},d={s.d},seed={seed}"


# ---------------------------------------------------------------------------
# calls: each returns (seconds, result, bytes written); the result is what
# the referee sees


def _run_cli(argv, out):
    t0 = time.perf_counter()
    code = cli.main(argv)
    seconds = time.perf_counter() - t0
    if code != 0:
        raise RuntimeError(f"cubesos exited with code {code}")
    with open(out) as fh:
        return seconds, json.load(fh), os.path.getsize(out)


def _call_bounds(which):
    def call(scratch, s, seed):
        out = os.path.join(scratch, "report.json")
        argv = ["bounds", "--instance", _instance_arg(scratch, s, seed),
                "--r", str(s.r), "--which", which, "--out", out, "--quiet"]
        return _run_cli(argv, out)
    return call


def _call_certify(scratch, s, seed):
    out = os.path.join(scratch, "cert.json")
    argv = ["certify", "--instance", _instance_arg(scratch, s, seed),
            "--r", str(s.r), "--verify", "--out", out, "--quiet"]
    return _run_cli(argv, out)


def _call_matrix(scratch, s, seed):
    """Outer and inner bound of a random matrix polynomial, and the
    brute-force minimum eigenvalue they must sandwich."""
    F = random_matrix_poly(s.n, s.d, s.k, seed)
    t0 = time.perf_counter()
    lo = outer_hierarchy.outer_matrix(F, s.r)
    hi = inner_hierarchy.inner_matrix(F, s.r)
    mid = F.min_eigenvalue()
    seconds = time.perf_counter() - t0
    return seconds, {"outer": {"value": lo.value, "status": lo.diagnostics["status"]},
                     "inner": {"value": hi.value}, "min_eigenvalue": mid}, 0


# ---------------------------------------------------------------------------
# referee checks: each returns a list of failed conditions


def _finite(*values):
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def _check_sandwich(lo, mid, hi, status):
    bad = []
    if lo is not None:
        if status != "optimal":
            bad.append(f"outer status {status!r}")
        if not (_finite(lo, mid) and lo <= mid + OUTER_SLACK):
            bad.append(f"outer {lo!r} > f_min {mid!r}")
    if not (_finite(mid, hi) and mid <= hi + INNER_SLACK):
        bad.append(f"f_min {mid!r} > inner {hi!r}")
    return bad


def check_bounds(s: Shape, report) -> list:
    outer = report.get("outer")
    return _check_sandwich(outer and outer["value"], report["brute"]["value"],
                           report["inner"]["value"], outer and outer["status"])


def check_certificate(s: Shape, cert) -> list:
    bad = []
    weights = [w["w"] for w in cert["weights"]]
    if len(weights) != 1 << s.n:
        bad.append(f"{len(weights)} weights for n={s.n}")
    if not (_finite(cert["residual"]) and cert["residual"] <= CERT_RESIDUAL):
        bad.append(f"residual {cert['residual']!r} > {CERT_RESIDUAL}")
    if not (weights and min(weights) >= 0.0):
        bad.append("negative certificate weight")
    if not (_finite(cert["delta"]) and cert["delta"] >= 0.0):
        bad.append(f"budget delta {cert['delta']!r}")
    return bad


def check_matrix(s: Shape, res) -> list:
    return _check_sandwich(res["outer"]["value"], res["min_eigenvalue"],
                           res["inner"]["value"], res["outer"]["status"])


# Corruptions used by the self-test: each must make the referee fail.
def _corrupt_bounds(s, report):
    report["brute"]["value"] = report["inner"]["value"] + 1.0


def _corrupt_certificate(s, cert):
    cert["residual"] = 1.0


def _corrupt_matrix(s, res):
    res["min_eigenvalue"] = res["inner"]["value"] + 1.0


# ``outer_sdp`` mixes scalar shapes (through the CLI) and matrix shapes
# (through the library); these pick the call, check and corruption by kind.
_call_bounds_all = _call_bounds("all")


def _call_outer_sdp(scratch, s, seed):
    return (_call_matrix if s.kind == "matrix" else _call_bounds_all)(scratch, s, seed)


def check_outer_sdp(s, result):
    return (check_matrix if s.kind == "matrix" else check_bounds)(s, result)


def _corrupt_outer_sdp(s, result):
    (_corrupt_matrix if s.kind == "matrix" else _corrupt_bounds)(s, result)


# ---------------------------------------------------------------------------
# workloads


@dataclass(frozen=True)
class Workload:
    name: str
    shapes: tuple   # one round, cheapest first (the warm-up shape)
    tiny: tuple     # a round at self-test sizes
    call: object
    check: object
    corrupt: object

    def attempt(self, scratch, s: Shape, seed: int, refused: dict, tracer=None) -> Call:
        """One closed-loop call with its referee check; never raises."""
        rec = Call(s, seed)
        if s in refused:
            rec.reason = refused[s]
            return rec
        gc.collect()  # every call starts from the same heap state
        try:
            rec.seconds, result, rec.out_bytes = self.call(scratch, s, seed)
            bad = self.check(s, result)
        except Exception as exc:  # a failed call is counted, never dropped
            rec.reason = "".join(traceback.format_exception_only(exc)).strip()
            return rec
        rec.ok = not bad
        rec.reason = "; ".join(bad)
        if tracer is not None:
            tracer.counts["cli.out_bytes"] += rec.out_bytes
        return rec


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            "outer_sdp",
            (Shape("random", 9, 2), Shape("random", 9, 3), Shape("maxcut", 9, 3),
             Shape("matrix", 5, 2, k=2), Shape("matrix", 4, 2, k=3)),
            (Shape("random", 5, 2), Shape("maxcut", 5, 2),
             Shape("matrix", 3, 1, k=2), Shape("matrix", 3, 1, k=3)),
            _call_outer_sdp, check_outer_sdp, _corrupt_outer_sdp,
        ),
        Workload(
            "inner_eig",
            (Shape("random", 13, 5, d=3), Shape("maxcut", 16, 4), Shape("random", 16, 4)),
            (Shape("maxcut", 6, 2), Shape("random", 6, 2, d=3)),
            _call_bounds("inner,brute"), check_bounds, _corrupt_bounds,
        ),
        Workload(
            "certify_large",
            tuple(Shape("random", n, n // 3) for n in (14, 15, 15, 16)),
            (Shape("random", 9, 3), Shape("random", 10, 3)),
            _call_certify, check_certificate, _corrupt_certificate,
        ),
    ]
}
