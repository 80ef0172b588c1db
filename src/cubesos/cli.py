"""Command-line interface: bounds, certificates, sweeps and constant tables.

Machine-readable JSON/CSV goes to stdout (or --out); human-oriented progress
goes to stderr and is silenced by --quiet. Exit codes: 0 success, 2 input
error (including a polynomial whose value table or spectrum is not finite),
3 solver failure, out of memory, or a certificate that fails ``certify
--verify``, 4 certification impossible at the requested order. No output is
written on a nonzero exit.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time
from datetime import datetime, timezone

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_SOLVER = 3
EXIT_CERT = 4

BOUNDS = ("inner", "outer", "brute")


def _say(args, msg: str) -> None:
    if not args.quiet:
        print(msg, file=sys.stderr)


def _emit(args, text: str) -> None:
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_csv(args, rows, fieldnames=None) -> None:
    buf = io.StringIO()
    rows = list(rows)
    if not rows:
        _emit(args, "")
        return
    writer = csv.DictWriter(buf, fieldnames=fieldnames or list(rows[0].keys()))
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    _emit(args, buf.getvalue())


def _out_of_memory(f, args) -> int:
    print(f"out of memory: n={f.n}, r={args.r} does not fit on this machine", file=sys.stderr)
    return EXIT_SOLVER


def _load_instance(args):
    from .cube_fourier import read_polynomial_json
    from .instances import maxcut_instance, random_poly, read_graph_json, stable_set_instance

    if args.poly:
        return read_polynomial_json(args.poly)
    spec = args.instance
    kind, _, rest = spec.partition(":")
    if kind == "maxcut":
        n, W = read_graph_json(rest)
        return maxcut_instance(W)
    if kind == "stable":
        n, W = read_graph_json(rest)
        edges = [(i + 1, j + 1) for i in range(n) for j in range(i + 1, n) if W[i, j]]
        return stable_set_instance(edges, n)
    if kind == "random":
        params = dict(kv.split("=") for kv in rest.split(","))
        return random_poly(int(params["n"]), int(params["d"]), int(params.get("seed", 0)))
    raise ValueError(f"unknown instance kind {kind!r} (use maxcut:/stable:/random:)")


def _parse_int_list(text: str):
    return [int(tok) for tok in text.split(",") if tok]


def _parse_float_list(text: str):
    return [float(tok) for tok in text.split(",") if tok]


# ---------------------------------------------------------------------------
# subcommands


def cmd_bounds(args) -> int:
    from .cube_fourier import brute_force_min
    from .inner_hierarchy import inner_cube
    from .outer_hierarchy import SolverError, SolverOptions, outer_cube

    opts = SolverOptions(
        tol_gap=args.solver_tol if args.solver_tol is not None else SolverOptions.tol_gap,
        max_iter=args.solver_max_iter if args.solver_max_iter is not None else SolverOptions.max_iter,
    )

    which = set(args.which.split(",")) if args.which != "all" else set(BOUNDS)
    unknown = sorted(which - set(BOUNDS))
    if unknown:
        print(f"error: unknown --which entry {', '.join(map(repr, unknown))} "
              f"(use a comma list of {','.join(BOUNDS)}, or all)", file=sys.stderr)
        return EXIT_INPUT
    try:
        f = _load_instance(args)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    report = {
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "n": f.n,
        "degree": f.degree,
        "r": args.r,
        "which": sorted(which),
    }
    timings = {}
    try:
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
                               "matrix_size": res.diagnostics["matrix_size"]}
        if "outer" in which:
            t0 = time.perf_counter()
            res = outer_cube(f, args.r, options=opts)
            timings["outer"] = time.perf_counter() - t0
            outer = {"r": args.r, "value": res.value,
                     "status": res.diagnostics["status"],
                     "gap": res.diagnostics["rel_gap"]}
            if args.gram:
                outer["gram"] = res.gram.tolist()
            report["outer"] = outer
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except MemoryError:
        return _out_of_memory(f, args)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
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
    _emit(args, json.dumps(report, indent=1) + "\n")
    return EXIT_OK


def cmd_certify(args) -> int:
    from .kernel_certifier import RESIDUAL_TOL, CertificationError, certify

    try:
        f = _load_instance(args)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        cert = certify(f, args.r, tight=args.tight)
    except CertificationError as exc:
        print(f"certification failed: {exc}", file=sys.stderr)
        return EXIT_CERT
    except MemoryError:
        return _out_of_memory(f, args)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    if args.verify:
        check = cert.verify(f)
        residual, wmin = check["max_residual"], check["min_weight"]
        _say(args, f"verification residual: {residual:.3e}, min weight: {wmin:.3e}")
        if not residual <= RESIDUAL_TOL:
            print(f"verification failed: max residual {residual:.3e} > {RESIDUAL_TOL}",
                  file=sys.stderr)
            return EXIT_SOLVER
        if not wmin >= 0.0:
            print(f"verification failed: min weight {wmin:.3e} < 0", file=sys.stderr)
            return EXIT_SOLVER
    _say(args, f"delta={cert.delta} (original frame: {cert.delta_original})")
    _emit(args, cert.to_json())
    return EXIT_OK


def cmd_sweep(args) -> int:
    if args.mode == "roots":
        from .krawtchouk import root_sweep_rows

        ns = _parse_int_list(args.n or "100")
        qs = _parse_int_list(args.q or "2")
        _emit_csv(args, root_sweep_rows(ns, qs, args.r_max))
        return EXIT_OK
    if args.mode == "phi":
        from .qary import phi_q_sweep

        qs = _parse_int_list(args.q or "2,3,4,5")
        ns = _parse_int_list(args.n or "")
        _emit_csv(args, phi_q_sweep(qs, ns, args.t_points))
        return EXIT_OK
    if args.mode == "errors":
        from .kernel_certifier import error_sweep

        ns = _parse_int_list(args.n or "10,12")
        fracs = _parse_float_list(args.r_fractions or "0.2,0.3,0.4,0.5")
        rows = list(error_sweep(args.d, ns, fracs, samples=args.samples, seed=args.seed))
        _emit_csv(args, rows, fieldnames=["n", "r", "t", "max_outer_gap",
                                          "max_inner_gap", "bound_2Cd_xi_over_n",
                                          "phi(t)", "errors"])
        return EXIT_OK
    print(f"unknown sweep mode {args.mode!r}", file=sys.stderr)
    return EXIT_INPUT


def cmd_gamma(args) -> int:
    from .gamma_constants import build_gamma_table, c_d, gamma_d

    n_values = list(range(1, args.n_sweep + 1)) if args.n_sweep else []
    tables = [build_gamma_table(d, n_values, q=args.q) for d in range(1, args.dmax + 1)]
    # q = 2 prints the exact integer constants, q > 2 the limit LP's
    text = "\n".join(f"{t.d} {gamma_d(t.d)} {c_d(t.d)}" if t.q == 2
                     else f"{t.d} {t.gamma} {t.c_constant}" for t in tables)
    _say(args, "d gamma_d C_d\n" + text)
    if not (args.csv or args.n_sweep):
        _emit(args, text + "\n")
        return EXIT_OK
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
            if n_values:
                for n in n_values:
                    if (n, k) in table.rho_finite_values:
                        rows.append({**base, "n": n,
                                     "rho_finite": table.rho_finite_values[(n, k)]})
            else:
                rows.append({**base, "n": "", "rho_finite": ""})
    _emit_csv(args, rows, fieldnames=["d", "k", "n", "rho_finite",
                                      "rho_infinity", "gamma_d", "C_d"])
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="cubesos",
                                 description="Sum-of-squares hierarchy bounds on the boolean cube")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--threads", type=int, default=None,
                        help="BLAS/OpenMP thread count (default: all cores)")
    common.add_argument("--quiet", action="store_true", help="suppress stderr chatter")
    common.add_argument("--max-n", type=int, default=None,
                        help="enumeration cap on n (overrides CUBESOS_MAX_N)")
    sub = ap.add_subparsers(dest="command", required=True)

    b = sub.add_parser("bounds", help="compute inner/outer/brute bounds", parents=[common])
    src = b.add_mutually_exclusive_group(required=True)
    src.add_argument("--poly", help="polynomial JSON file")
    src.add_argument("--instance", help="maxcut:FILE | stable:FILE | random:n=..,d=..,seed=..")
    b.add_argument("--r", type=int, required=True)
    b.add_argument("--which", default="all", help="comma list of inner,outer,brute (default all)")
    b.add_argument("--gram", action="store_true", help="include the Gram matrix in the report")
    b.add_argument("--out")
    b.add_argument("--solver-tol", type=float, default=None)
    b.add_argument("--solver-max-iter", type=int, default=None)
    b.set_defaults(func=cmd_bounds)

    c = sub.add_parser("certify", help="emit an explicit SOS certificate", parents=[common])
    src = c.add_mutually_exclusive_group(required=True)
    src.add_argument("--poly")
    src.add_argument("--instance")
    c.add_argument("--r", type=int, required=True)
    c.add_argument("--verify", action="store_true", help="re-check on all cube points")
    c.add_argument("--tight", action="store_true",
                   help="use the smallest instance-specific budget instead of the operator-norm one")
    c.add_argument("--out")
    c.set_defaults(func=cmd_certify)

    s = sub.add_parser("sweep", help="emit CSV sweeps (roots, phi curves, error bounds)", parents=[common])
    s.add_argument("--mode", required=True, choices=["roots", "phi", "errors"])
    s.add_argument("--q", help="comma list of alphabet sizes")
    s.add_argument("--n", help="comma list of dimensions")
    s.add_argument("--r-max", type=int, default=None)
    s.add_argument("--t-points", type=int, default=200)
    s.add_argument("--d", type=int, default=2)
    s.add_argument("--r-fractions", help="comma list of r/n values for error sweeps")
    s.add_argument("--samples", type=int, default=20)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out")
    s.set_defaults(func=cmd_sweep)

    g = sub.add_parser("gamma", help="harmonic-component constants table", parents=[common])
    g.add_argument("--dmax", type=int, required=True)
    g.add_argument("--n-sweep", type=int, default=0,
                   help="also compute finite-n constants up to this n")
    g.add_argument("--csv", action="store_true")
    g.add_argument("--q", type=int, default=2)
    g.add_argument("--out")
    g.set_defaults(func=cmd_gamma)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.threads is not None:
        # must happen before numpy/BLAS initialization (imports are deferred)
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ[var] = str(args.threads)
    if args.max_n is not None:
        os.environ["CUBESOS_MAX_N"] = str(args.max_n)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
