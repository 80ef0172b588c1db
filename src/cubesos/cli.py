"""Command-line interface: bounds, certificates, sweeps and constant tables.

Machine-readable JSON/CSV goes to stdout (or --out); human-oriented progress
goes to stderr and is silenced by --quiet. Each subcommand only computes: it
returns its output, as one text or as an iterable of text pieces (``certify``
streams its weight records a block at a time), or raises. ``main`` alone maps
a failure to its exit code and its one stderr line, for every subcommand:
0 success; 2 input error (``error: ...``), which is any exception not named
below, including a polynomial whose value table or spectrum is not finite;
3 ``SolverError`` (``solver failure: ...``: an interior-point, eigen-solve,
LP or root failure, or a certificate that fails ``certify --verify``) or
``MemoryError`` (``out of memory: ...``); 4 ``CertificationError``
(``certification failed: ...``: no certificate at the requested order).
``main`` writes --out through a temporary file beside it, renamed over it on
success and removed on any failure, so nothing is written on a nonzero exit.
On stdout the pieces go out as they are made; every check runs before the
first piece, so only a failure while writing can leave a partial text there.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
import time
from datetime import datetime, timezone

from .config import CertificationError, SolverError

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_SOLVER = 3
EXIT_CERT = 4

BOUNDS = ("inner", "outer", "brute")


def _say(args, msg: str) -> None:
    if not args.quiet:
        print(msg, file=sys.stderr)


def _csv(rows, fieldnames) -> str:
    """CSV text of the rows under a header of the fieldnames, which is
    written even when there are no rows."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fieldnames)
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def _load_instance(args):
    """The polynomial named by --poly or --instance, refused when --r exceeds
    its n, whichever bounds are asked for. Its n is kept on args, where
    ``main`` reads it for an out-of-memory message."""
    from .cube_fourier import read_polynomial_json
    from .instances import maxcut_instance, random_poly, read_graph_json, stable_set_instance

    kind, _, rest = (args.instance or "").partition(":")
    if args.poly:
        f = read_polynomial_json(args.poly)
    elif kind in ("maxcut", "stable"):
        n, W = read_graph_json(rest)
        edges = [(i + 1, j + 1) for i in range(n) for j in range(i + 1, n) if W[i, j]]
        f = maxcut_instance(W) if kind == "maxcut" else stable_set_instance(edges, n)
    elif kind == "random":
        hint = "(use random:n=..,d=..,seed=..)"
        params = {}
        for key, _, value in (kv.partition("=") for kv in rest.split(",") if kv):
            if key not in ("n", "d", "seed") or key in params:
                problem = "repeats" if key in params else "has unknown"
                raise ValueError(f"instance {args.instance!r} {problem} key {key!r} {hint}")
            params[key] = value
        missing = [f"{key}=" for key in ("n", "d") if key not in params]
        if missing:
            raise ValueError(f"instance {args.instance!r} lacks {' and '.join(missing)} {hint}")
        f = random_poly(int(params["n"]), int(params["d"]), int(params.get("seed", 0)))
    else:
        raise ValueError(f"unknown instance kind {kind!r} (use maxcut:/stable:/random:)")
    args.n = f.n
    if args.r > f.n:
        raise ValueError(f"--r {args.r} must be <= n={f.n}")
    return f


def _numbers(text: str, kind=int) -> list:
    return [kind(tok) for tok in text.split(",") if tok]


# ---------------------------------------------------------------------------
# subcommands: each returns its output text, or an iterable of text pieces,
# and raises on failure


def cmd_bounds(args) -> str:
    from .cube_fourier import brute_force_min
    from .inner_hierarchy import inner_cube
    from .outer_hierarchy import outer_cube

    which = set(args.which.split(",")) if args.which != "all" else set(BOUNDS)
    unknown = sorted(which - set(BOUNDS))
    if unknown:
        raise ValueError(f"unknown --which entry {', '.join(map(repr, unknown))} "
                         f"(use a comma list of {','.join(BOUNDS)}, or all)")
    f = _load_instance(args)
    report = {
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "n": f.n,
        "degree": f.degree,
        "r": args.r,
        "which": sorted(which),
    }
    timings = {}
    if "brute" in which:
        t0 = time.perf_counter()
        fmin, argmin = brute_force_min(f)
        timings["brute"] = time.perf_counter() - t0
        report["brute"] = {"value": fmin, "argmin": "".join(str(int(v)) for v in argmin)}
    if "inner" in which:
        t0 = time.perf_counter()
        res = inner_cube(f, args.r)
        timings["inner"] = time.perf_counter() - t0
        report["inner"] = {"r": args.r, "value": res.value,
                           "matrix_size": res.diagnostics["matrix_size"],
                           "product": res.diagnostics["product"],
                           "products": res.diagnostics["products"],
                           "eig_residual": res.diagnostics["eig_residual"]}
    if "outer" in which:
        t0 = time.perf_counter()
        res = outer_cube(f, args.r)
        timings["outer"] = time.perf_counter() - t0
        outer = {"r": args.r, "value": res.value,
                 "status": res.diagnostics["status"],
                 "gap": res.diagnostics["rel_gap"],
                 "schur": res.diagnostics["schur"],
                 "blocks": res.diagnostics["blocks"],
                 "constraints": res.diagnostics["constraints"]}
        if args.gram:
            outer["gram"] = res.gram.tolist()
        report["outer"] = outer
    lo = report.get("outer", {}).get("value")
    mid = report.get("brute", {}).get("value")
    hi = report.get("inner", {}).get("value")
    checks = []
    if lo is not None and mid is not None:
        checks.append(lo <= mid + 1e-6)
    if mid is not None and hi is not None:
        checks.append(mid <= hi + 1e-8)
    if lo is not None and hi is not None:
        checks.append(lo <= hi + 1e-6)
    report["sandwich_ok"] = all(checks) if checks else None
    for name, dt in timings.items():
        _say(args, f"{name}: {dt:.3f}s")
    return json.dumps(report, indent=1) + "\n"


def cmd_certify(args):
    from .kernel_certifier import RESIDUAL_TOL, certify

    f = _load_instance(args)
    cert = certify(f, args.r, tight=args.tight)
    if args.verify:
        check = cert.verify(f)
        residual, wmin = check["max_residual"], check["min_weight"]
        _say(args, f"verification residual: {residual:.3e}, min weight: {wmin:.3e}")
        if not residual <= RESIDUAL_TOL:
            raise SolverError(f"verification failed: max residual {residual:.3e} > {RESIDUAL_TOL}")
        if not wmin >= 0.0:
            raise SolverError(f"verification failed: min weight {wmin:.3e} < 0")
    _say(args, f"delta={cert.delta} (original frame: {cert.delta_original})")
    return cert.json_pieces()


def cmd_sweep(args) -> str:
    if args.mode == "roots":
        from .krawtchouk import root_sweep_rows

        return _csv(root_sweep_rows(_numbers(args.n or "100"), _numbers(args.q or "2"),
                                    args.r_max),
                    ["n", "q", "r", "xi", "xi_over_n", "phi_q(r/n)"])
    if args.mode == "phi":
        from .krawtchouk import phi_q_sweep

        ns = _numbers(args.n or "")
        return _csv(phi_q_sweep(_numbers(args.q or "2,3,4,5"), ns, args.t_points),
                    ["q", "t", "phi_q"] + [f"xi_over_n[n={n}]" for n in dict.fromkeys(ns)])
    from .kernel_certifier import error_sweep

    rows = error_sweep(args.d, _numbers(args.n or "10,12"),
                       _numbers(args.r_fractions or "0.2,0.3,0.4,0.5", float),
                       samples=args.samples, seed=args.seed)
    return _csv(rows, ["n", "r", "t", "max_outer_gap", "max_inner_gap",
                       "bound_2Cd_xi_over_n", "phi(t)"])


def cmd_gamma(args) -> str:
    from .gamma_constants import build_gamma_table, c_d, gamma_d

    if args.dmax < 1:
        raise ValueError(f"--dmax {args.dmax} must be >= 1")
    n_values = list(range(1, args.n_sweep + 1)) if args.n_sweep else []
    tables = [build_gamma_table(d, n_values, q=args.q) for d in range(1, args.dmax + 1)]
    # q = 2 prints the exact integer constants, q > 2 the limit LP's
    text = "\n".join(f"{t.d} {gamma_d(t.d)} {c_d(t.d)}" if t.q == 2
                     else f"{t.d} {t.gamma} {t.c_constant}" for t in tables)
    _say(args, "d gamma_d C_d\n" + text)
    if not (args.csv or args.n_sweep):
        return text + "\n"
    rows = []
    for table in tables:
        for k in range(table.d + 1):
            base = {
                "d": table.d,
                "k": k,
                "rho_infinity": table.rho_infinity_values[k],
                "gamma_d": table.gamma,
                "C_d": table.c_constant,
            }
            finite = [(n, table.rho_finite_values[n, k]) for n in n_values
                      if (n, k) in table.rho_finite_values]
            rows += [{**base, "n": n, "rho_finite": rho}
                     for n, rho in (finite if n_values else [("", "")])]
    return _csv(rows, ["d", "k", "n", "rho_finite", "rho_infinity", "gamma_d", "C_d"])


# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every
    ``main`` call; parsing does not change it."""
    ap = argparse.ArgumentParser(prog="cubesos",
                                 description="Sum-of-squares hierarchy bounds on the boolean cube")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--threads", type=int, default=None,
                        help="BLAS/OpenMP thread count (default: all cores)")
    common.add_argument("--quiet", action="store_true", help="suppress stderr chatter")
    common.add_argument("--max-n", type=int, default=None,
                        help="enumeration cap on n (overrides CUBESOS_MAX_N)")
    common.add_argument("--out", help="write the output to this file instead of stdout")
    instance = argparse.ArgumentParser(add_help=False, parents=[common])
    src = instance.add_mutually_exclusive_group(required=True)
    src.add_argument("--poly", help="polynomial JSON file")
    src.add_argument("--instance", help="maxcut:FILE | stable:FILE | random:n=..,d=..,seed=..")
    instance.add_argument("--r", type=int, required=True)
    sub = ap.add_subparsers(dest="command", required=True)

    b = sub.add_parser("bounds", help="compute inner/outer/brute bounds", parents=[instance])
    b.add_argument("--which", default="all", help="comma list of inner,outer,brute (default all)")
    b.add_argument("--gram", action="store_true", help="include the Gram matrix in the report")
    b.set_defaults(func=cmd_bounds)

    c = sub.add_parser("certify", help="emit an explicit SOS certificate", parents=[instance])
    c.add_argument("--verify", action="store_true", help="re-check on all cube points")
    c.add_argument("--tight", action="store_true",
                   help="use the smallest instance-specific budget instead of the operator-norm one")
    c.set_defaults(func=cmd_certify)

    s = sub.add_parser("sweep", help="emit CSV sweeps (roots, phi curves, error bounds)", parents=[common])
    s.add_argument("--mode", required=True, choices=["roots", "phi", "errors"])
    s.add_argument("--q", help="comma list of alphabet sizes")
    s.add_argument("--n", help="comma list of dimensions")
    s.add_argument("--r-max", type=int, default=None,
                   help="roots: largest r (default n//2), capped at (q-1)n/q, "
                        "where phi_q(r/n) ends")
    s.add_argument("--t-points", type=int, default=200)
    s.add_argument("--d", type=int, default=2)
    s.add_argument("--r-fractions", help="comma list of r/n values for error sweeps")
    s.add_argument("--samples", type=int, default=20)
    s.add_argument("--seed", type=int, default=0)
    s.set_defaults(func=cmd_sweep)

    g = sub.add_parser("gamma", help="harmonic-component constants table", parents=[common])
    g.add_argument("--dmax", type=int, required=True)
    g.add_argument("--n-sweep", type=int, default=0,
                   help="also compute finite-n constants up to this n")
    g.add_argument("--csv", action="store_true")
    g.add_argument("--q", type=int, default=2)
    g.set_defaults(func=cmd_gamma)
    return ap


def _write_out(path: str, pieces) -> None:
    """Write the pieces to a temporary file beside path and rename it over
    path; on any failure remove it, leaving path as it was. A symlink, or a
    path that exists and is not a regular file (a device such as /dev/null,
    a pipe), is written in place instead, since renaming would replace it."""
    if os.path.islink(path) or (os.path.exists(path) and not os.path.isfile(path)):
        with open(path, "w") as fh:
            fh.writelines(pieces)
        return
    tmp = f"{path}.{os.getpid()}.tmp"
    fh = open(tmp, "x")
    try:
        with fh:
            fh.writelines(pieces)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def main(argv=None) -> int:
    """Run one subcommand; the only place that maps a failure to an exit
    code and a stderr line, and the only place that writes the output."""
    args = build_parser().parse_args(argv)
    try:
        if args.threads is not None:
            if args.threads < 1:
                raise ValueError(f"--threads {args.threads} must be >= 1")
            # must happen before numpy/BLAS initialization (imports are deferred)
            for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
                os.environ[var] = str(args.threads)
        if getattr(args, "r", 0) < 0:
            raise ValueError(f"--r {args.r} must be >= 0")
        if args.max_n is not None:
            os.environ["CUBESOS_MAX_N"] = str(args.max_n)
        output = args.func(args)
        pieces = (output,) if isinstance(output, str) else output
        if args.out:
            _write_out(args.out, pieces)
        else:
            sys.stdout.writelines(pieces)
        return EXIT_OK
    except CertificationError as exc:
        code, message = EXIT_CERT, f"certification failed: {exc}"
    except SolverError as exc:
        code, message = EXIT_SOLVER, f"solver failure: {exc}"
    except MemoryError:
        sizes = ", ".join(f"{key}={getattr(args, key)}" for key in ("n", "r")
                          if getattr(args, key, None) is not None)
        code, message = EXIT_SOLVER, f"out of memory: {sizes or args.command} does not fit on this machine"
    except Exception as exc:
        code, message = EXIT_INPUT, f"error: {exc}"
    print(message, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
