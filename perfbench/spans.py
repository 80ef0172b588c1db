"""Span recorder for the traced benchmark run.

The recorder wraps the public callables of each cubesos layer where every
caller module looks them up (the module global a caller resolves at call
time, or the class attribute for methods), records one span per call and
restores the originals on ``uninstall``. Nothing here is imported by the
package; the untraced run never installs it.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from collections import defaultdict

# (home module, attribute, span name) for module-level callables. Every
# cubesos module that holds the same function object under the same name is
# patched too, e.g. ``fwht`` as imported by outer_hierarchy, inner_hierarchy
# and kernel_certifier.
FUNCTIONS = [
    ("cli", "main", "cli.main"),
    ("cube_fourier", "fwht", "cube_fourier.fwht"),
    ("cube_fourier", "value_table", "cube_fourier.value_table"),
    ("cube_fourier", "brute_force_min", "cube_fourier.brute_force_min"),
    ("outer_hierarchy", "outer_cube", "outer_hierarchy.outer_cube"),
    ("outer_hierarchy", "outer_matrix", "outer_hierarchy.outer_matrix"),
    ("inner_hierarchy", "inner_cube", "inner_hierarchy.inner_cube"),
    ("inner_hierarchy", "inner_matrix", "inner_hierarchy.inner_matrix"),
    ("inner_hierarchy", "_smallest_eigenpair", "inner_hierarchy.eig"),
    ("kernel_certifier", "certify", "kernel_certifier.certify"),
    ("kernel_certifier", "choose_kernel", "kernel_certifier.choose_kernel"),
    ("krawtchouk", "least_root", "krawtchouk.least_root"),
    ("instances", "random_poly", "instances.random_poly"),
]

# (home module, class, method, span name)
METHODS = [
    ("outer_hierarchy", "_XorConstraints", "schur", "outer_hierarchy.schur"),
    ("outer_hierarchy", "_DenseConstraints", "schur", "outer_hierarchy.schur"),
    ("kernel_certifier", "SosCubeCertificate", "verify", "kernel_certifier.verify"),
    ("kernel_certifier", "SosCubeCertificate", "to_dict", "kernel_certifier.to_dict"),
]

# Dense factorisations and eigen-solves called from outer_hierarchy, reached
# through its ``np`` and ``sla`` globals (and eigsh, imported at call time).
NP_LINALG = ("cholesky", "eigh", "eigvalsh")
SLA = ("cho_factor", "cho_solve", "solve_triangular")
LINALG = "outer_hierarchy.linalg"

# Spans whose self time (duration minus traced children) is reported as the
# layer's ``self_s``.
SELF_TIME = {
    "cli.self_s": ("cli.main",),
    "outer_hierarchy.self_s": ("outer_hierarchy.outer_cube", "outer_hierarchy.outer_matrix"),
    "inner_hierarchy.self_s": ("inner_hierarchy.inner_cube", "inner_hierarchy.inner_matrix"),
}

# per-layer metric -> unit, in the order they are reported
PER_LAYER_UNITS = {
    "cube_fourier.fwht.s": "s",
    "cube_fourier.fwht.calls": "count",
    "cube_fourier.fwht.elems": "count",
    "cube_fourier.fwht.butterflies_per_s": "1/s",
    "cube_fourier.value_table.s": "s",
    "cube_fourier.brute_force_min.s": "s",
    "outer_hierarchy.outer_cube.s": "s",
    "outer_hierarchy.outer_matrix.s": "s",
    "outer_hierarchy.schur.s": "s",
    "outer_hierarchy.linalg.s": "s",
    "outer_hierarchy.self_s": "s",
    "outer_hierarchy.ipm_iters": "count",
    "inner_hierarchy.inner_cube.s": "s",
    "inner_hierarchy.inner_matrix.s": "s",
    "inner_hierarchy.eig.s": "s",
    "inner_hierarchy.self_s": "s",
    "inner_hierarchy.matrix_size": "count",
    "kernel_certifier.certify.s": "s",
    "kernel_certifier.choose_kernel.s": "s",
    "kernel_certifier.verify.s": "s",
    "kernel_certifier.to_dict.s": "s",
    "krawtchouk.least_root.s": "s",
    "krawtchouk.least_root.calls": "count",
    "cli.main.s": "s",
    "cli.self_s": "s",
    "cli.out_bytes": "B",
    "instances.random_poly.s": "s",
    "trace.overhead_s": "s",
}


class _Proxy:
    """Stands in for a module: the given attributes are replaced, every other
    lookup goes to the wrapped module."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


def _count_fwht(tracer, args, result):
    size = int(result.size)
    tracer.counts["cube_fourier.fwht.elems"] += size
    tracer.counts["butterflies"] += size * int(math.log2(size)) if size > 1 else 0


def _count_ipm(tracer, args, result):
    tracer.counts["outer_hierarchy.ipm_iters"] += result.diagnostics["iterations"]


def _count_matrix_size(tracer, args, result):
    tracer.counts["inner_hierarchy.matrix_size"] += result.diagnostics["matrix_size"]


COUNTERS = {
    "cube_fourier.fwht": _count_fwht,
    "outer_hierarchy.outer_cube": _count_ipm,
    "outer_hierarchy.outer_matrix": _count_ipm,
    "inner_hierarchy.inner_cube": _count_matrix_size,
    "inner_hierarchy.inner_matrix": _count_matrix_size,
}


class Tracer:
    """In-memory span recorder. ``call`` is the index of the workload call
    the spans belong to; the runner sets it before each call."""

    def __init__(self):
        self.origin = time.perf_counter()
        self.spans = []      # [id, name, start, end, parent, call]
        self.counts = defaultdict(float)
        self.call = -1
        self.calls = 0       # workload calls made under tracing
        self._stack = []
        self._undo = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name, fn):
        counter = COUNTERS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            span = [sid, name, 0.0, 0.0, stack[-1] if stack else None, self.call]
            spans.append(span)
            stack.append(sid)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            if counter is not None:
                counter(self, args, result)
            return result

        return traced

    # -- patching ----------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Patch every traced callable; ``uninstall`` restores them."""
        import importlib

        import scipy.sparse.linalg

        for home in {home for home, *_ in FUNCTIONS + METHODS}:
            importlib.import_module(f"cubesos.{home}")
        pkg = {name[len("cubesos."):]: mod for name, mod in sys.modules.items()
               if name.startswith("cubesos.")}
        for home, attr, name in FUNCTIONS:
            original = getattr(pkg[home], attr)
            traced = self.wrap(name, original)
            for mod in pkg.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, traced)
        for home, cls_name, attr, name in METHODS:
            cls = getattr(pkg[home], cls_name)
            self._set(cls, attr, self.wrap(name, getattr(cls, attr)))
        outer = pkg["outer_hierarchy"]
        np_mod, sla = outer.np, outer.sla
        linalg = _Proxy(np_mod.linalg, **{f: self.wrap(LINALG, getattr(np_mod.linalg, f))
                                          for f in NP_LINALG})
        self._set(outer, "np", _Proxy(np_mod, linalg=linalg))
        self._set(outer, "sla", _Proxy(sla, **{f: self.wrap(LINALG, getattr(sla, f))
                                               for f in SLA}))
        self._set(scipy.sparse.linalg, "eigsh", self.wrap(LINALG, scipy.sparse.linalg.eigsh))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results -----------------------------------------------------------

    def totals(self):
        """Inclusive seconds, call counts and self seconds per span name."""
        inclusive = defaultdict(float)
        ncalls = defaultdict(int)
        child_time = defaultdict(float)
        for sid, name, start, end, parent, call in self.spans:
            inclusive[name] += end - start
            ncalls[name] += 1
            if parent is not None:
                child_time[parent] += end - start
        self_time = defaultdict(float)
        for sid, name, start, end, parent, call in self.spans:
            self_time[name] += (end - start) - child_time[sid]
        return inclusive, ncalls, self_time

    def metrics(self, overhead_s):
        """Per-layer metrics, each a mean per traced workload call."""
        inclusive, ncalls, self_time = self.totals()
        per = 1.0 / max(self.calls, 1)
        out = {}
        for metric in PER_LAYER_UNITS:
            if metric in SELF_TIME:
                value = sum(self_time[s] for s in SELF_TIME[metric]) * per
            elif metric.endswith(".calls"):
                value = ncalls[metric[:-len(".calls")]] * per
            elif metric == "cube_fourier.fwht.butterflies_per_s":
                busy = inclusive["cube_fourier.fwht"]
                value = self.counts["butterflies"] / busy if busy else 0.0
            elif metric == "trace.overhead_s":
                value = overhead_s * per
            elif metric.endswith(".s"):
                value = inclusive[metric[:-2]] * per
            else:
                value = self.counts[metric] * per
            out[metric] = value
        return out

    def write_jsonl(self, path):
        with open(path, "w") as fh:
            for sid, name, start, end, parent, call in self.spans:
                fh.write(json.dumps({
                    "id": sid, "name": name, "call": call, "parent": parent,
                    "start": start - self.origin, "end": end - self.origin,
                }) + "\n")
