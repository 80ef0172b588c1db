"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings. Every tolerance is pinned here, not configurable.
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest

from cubesos.cube_fourier import (
    CubePolynomial,
    brute_force_min,
    harmonic_parts,
    popcount_table,
    sup_norm,
    value_table,
)
from cubesos.gamma_constants import (
    c_d,
    gamma_d,
    rho_finite,
    rho_infinity,
    rho_infinity_grid,
)
from cubesos.inner_hierarchy import inner_cube, inner_matrix, inner_univariate
from cubesos.instances import random_matrix_poly, random_poly
from cubesos.kernel_certifier import certify
from cubesos.krawtchouk import (
    DiscreteMeasure,
    kraw_int,
    kraw_int_table,
    kraw_step_bound_check,
    least_root,
    levenshtein_phi,
    orthonormal_table,
)
from cubesos.outer_hierarchy import outer_cube, outer_matrix


def _report(criterion: int, ok: bool, detail: str, elapsed: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion:2d}: {status} ({elapsed:6.1f}s) {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _qualifying_cells():
    """(d, n, r) with (r+1)/n <= 1/2 and d(d+1) xi_{r+1}^n / n <= 1/2."""
    cells = []
    for d in (1, 2, 3):
        for n in (10, 12):
            for r in range(1, n // 2):
                if (r + 1) / n > 0.5:
                    continue
                xi = least_root(n, 2, r + 1)
                if d * (d + 1) * xi / n <= 0.5 + 1e-9:
                    cells.append((d, n, r, xi))
    return cells


# ---------------------------------------------------------------------------


def test_criterion_01_gamma_table():
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "cubesos.cli", "gamma", "--dmax", "10", "--quiet"],
        capture_output=True, text=True, check=True,
    )
    elapsed = time.perf_counter() - t0
    gammas = [int(line.split()[1]) for line in proc.stdout.strip().splitlines()]
    ok = gammas == [1, 2, 4, 8, 20, 48, 112, 256, 576, 1280] and elapsed < 1.0
    _report(1, ok, f"gamma_1..10={gammas}, runtime={elapsed:.2f}s", elapsed)


def test_criterion_02_univariate_identity_equals_least_root():
    t0 = time.perf_counter()
    worst = 0.0
    for n in (10, 20, 40, 60):
        measure = DiscreteMeasure(n, 2)
        for r in range(1, n // 2 + 1):
            val = inner_univariate([0.0, 1.0], measure, r).value
            worst = max(worst, abs(val - least_root(n, 2, r + 1)))
    elapsed = time.perf_counter() - t0
    _report(2, worst <= 1e-8 and elapsed < 10.0,
            f"max |inner - root| = {worst:.2e}", elapsed)


def test_criterion_03_outer_exactness_regime():
    t0 = time.perf_counter()
    worst = 0.0
    for n, d in ((4, 2), (5, 2), (5, 3), (6, 2)):
        r = math.ceil((n + d - 1) / 2)
        for s in range(20):
            f = random_poly(n, d, seed=30000 + 100 * n + 10 * d + s)
            fmin, _ = brute_force_min(f)
            val = outer_cube(f, r).value
            worst = max(worst, abs(val - fmin))
    elapsed = time.perf_counter() - t0
    _report(3, worst <= 1e-6 and elapsed < 300.0,
            f"max |f_(r) - f_min| = {worst:.2e} over 80 instances", elapsed)


def test_criterion_04_inner_exactness_and_tightness():
    t0 = time.perf_counter()
    worst_exact = 0.0
    for s in range(10):
        n = 4 + s % 5  # n in 4..8
        f = random_poly(n, min(3, n), seed=40000 + s)
        fmin, _ = brute_force_min(f)
        worst_exact = max(worst_exact, abs(inner_cube(f, n).value - fmin))
    tight_ok = True
    for n in range(3, 9):
        f = CubePolynomial.from_terms(n, [([i + 1], 1.0) for i in range(n)])
        for r in range(n):
            tight_ok &= inner_cube(f, r).value > 1e-6
        tight_ok &= inner_cube(f, n).value <= 1e-8
    elapsed = time.perf_counter() - t0
    _report(4, worst_exact <= 1e-8 and tight_ok,
            f"max |f^(n) - f_min| = {worst_exact:.2e}, weight-function tightness ok", elapsed)


def test_criterion_05_outer_error_dominance():
    # The inequality (f_min - f_(r)) / ||f|| <= 2 C_d xi_{r+1}/n + 1e-6 is
    # established for every instance through an explicit SOS certificate whose
    # budget upper-bounds the true gap; on cells where the moment SDP is small
    # enough, the SDP value itself is cross-checked against both quantities.
    t0 = time.perf_counter()
    cells = _qualifying_cells()
    assert {(d, n, r) for d, n, r, _ in cells} == {
        (1, 10, 2), (1, 10, 3), (1, 10, 4),
        (1, 12, 3), (1, 12, 4), (1, 12, 5), (2, 12, 5),
    }
    worst_margin = -np.inf
    detail = []
    for d, n, r, xi in cells:
        bound = 2.0 * c_d(d) * xi / n
        worst = 0.0
        polys = []
        for s in range(50):
            f = random_poly(n, d, seed=50000 + 997 * d + 31 * n + 7 * r + s)
            polys.append(f)
            cert = certify(f, r, tight=True)
            gap_bound = cert.delta_original
            assert cert.residual <= 1e-7
            assert np.all(cert.weights >= -1e-10)
            worst = max(worst, gap_bound / 1.0)  # instances have sup-norm 1
        assert worst <= bound + 1e-6, (d, n, r, worst, bound)
        worst_margin = max(worst_margin, worst - bound)
        detail.append(f"({d},{n},{r}): {worst:.4f}<={bound:.4f}")
        # SDP cross-check on a subsample where the basis is small enough
        basis = sum(math.comb(n, k) for k in range(r + 1))
        if basis <= 400:
            for f in polys[:2]:
                fmin, _ = brute_force_min(f)
                res = outer_cube(f, r)
                gap_bound = certify(f, r, tight=True).delta_original
                assert fmin - res.value <= gap_bound + 1e-6
                assert fmin - res.value <= bound + 1e-6
                assert res.value <= fmin + 1e-6
    elapsed = time.perf_counter() - t0
    _report(5, elapsed < 1800.0, "; ".join(detail), elapsed)


def test_criterion_06_inner_error_dominance():
    t0 = time.perf_counter()
    detail = []
    for d, n, r, xi in _qualifying_cells():
        bound = c_d(d) * xi / n
        worst = 0.0
        for s in range(50):
            f = random_poly(n, d, seed=60000 + 997 * d + 31 * n + 7 * r + s)
            fmin, _ = brute_force_min(f)
            gap = inner_cube(f, r).value - fmin
            worst = max(worst, gap)
        assert worst <= bound + 1e-6, (d, n, r, worst, bound)
        detail.append(f"({d},{n},{r}): {worst:.4f}<={bound:.4f}")
    elapsed = time.perf_counter() - t0
    _report(6, elapsed < 300.0, "; ".join(detail), elapsed)


def test_criterion_07_certificate_soundness():
    t0 = time.perf_counter()
    n, r = 10, 5
    xi = least_root(n, 2, r + 1)
    worst_resid = 0.0
    min_weight = np.inf
    ok = True
    for s in range(20):
        d = 1 + s % 2
        f = random_poly(n, d, seed=70000 + s)
        cert = certify(f, r)
        check = cert.verify(f)
        worst_resid = max(worst_resid, check["max_residual"])
        min_weight = min(min_weight, check["min_weight"])
        closed_form = 2.0 * c_d(d) * xi / n
        ok &= check["max_residual"] <= 1e-7
        ok &= check["min_weight"] >= -1e-10
        ok &= cert.delta <= closed_form + 1e-9
    elapsed = time.perf_counter() - t0
    _report(7, ok, f"max residual={worst_resid:.2e}, min weight={min_weight:.2e}", elapsed)


def test_criterion_08_extremal_root_convergence():
    t0 = time.perf_counter()
    ok = True
    final = 0.0
    for q in (2, 3):
        for t in (0.1, 0.25, 0.4, 0.5):
            gaps = []
            for n in (50, 100, 200, 400):
                r = int(t * n)
                gaps.append(abs(least_root(n, q, r) / n - levenshtein_phi(t, q)))
            ok &= all(gaps[i + 1] <= gaps[i] + 1e-12 for i in range(3))
            ok &= gaps[-1] <= 0.03
            final = max(final, gaps[-1])
    elapsed = time.perf_counter() - t0
    _report(8, ok and elapsed < 10.0, f"largest gap at n=400: {final:.4f}", elapsed)


def test_criterion_09_krawtchouk_identity_suite():
    t0 = time.perf_counter()
    # orthogonality: Gram of the orthonormal family vs identity, rel tol 1e-9
    worst_gram = 0.0
    for q in (2, 3, 4):
        for n in range(1, 41):
            P = orthonormal_table(n, n, q)
            G = (P * DiscreteMeasure(n, q).weights) @ P.T
            worst_gram = max(worst_gram, float(np.max(np.abs(G - np.eye(n + 1)))))
    ok = worst_gram <= 1e-9
    # normalized values bounded by one, exhaustively in exact integers
    for n in range(1, 61):
        rows = kraw_int_table(n, 2)
        for k, row in enumerate(rows):
            norm = math.comb(n, k)
            ok &= all(v <= norm for v in row)
    # stepwise bounds, exhaustively
    for n in range(1, 61):
        rep = kraw_step_bound_check(n, 2, min(6, n))
        ok &= rep.min_step_slack >= -1e-12 and rep.min_drift_slack >= -1e-12
    # zonal identity: character sums equal Krawtchouk values, in integers
    for n in range(1, 11):
        pc = popcount_table(n)
        by_weight = [[] for _ in range(n + 1)]
        for a in range(1 << n):
            by_weight[int(pc[a])].append(a)
        for k in range(n + 1):
            for t in range(n + 1):
                x = (1 << t) - 1
                s = sum(1 - 2 * (int(pc[a & x]) % 2) for a in by_weight[k])
                ok &= s == kraw_int(n, 2, k, t)
    elapsed = time.perf_counter() - t0
    _report(9, ok, f"max orthonormal Gram deviation = {worst_gram:.2e}", elapsed)


def test_criterion_10_harmonic_component_bound():
    t0 = time.perf_counter()
    ok = True
    for s in range(100):
        n = 5 + s % 6  # 5..10
        d = 1 + s % 4  # 1..4
        f = random_poly(n, d, seed=100000 + s)
        norm = sup_norm(f)
        cap = gamma_d(d) * norm
        ok &= float(np.max(np.abs(harmonic_parts(f)))) <= cap + 1e-9
    for s in range(20):
        n, d, k = 6, 2, 2
        F = random_matrix_poly(n, d, k, seed=101000 + s)
        cap = gamma_d(d) * F.sup_norm()
        comps = {}
        for (i, j), poly in F.entries.items():
            for deg, part in enumerate(harmonic_parts(poly)):
                comps.setdefault(deg, np.zeros((1 << n, k, k)))[:, i, j] = part
        for tables in comps.values():
            ok &= float(np.max(np.abs(np.linalg.eigvalsh(tables)))) <= cap + 1e-9
    elapsed = time.perf_counter() - t0
    _report(10, ok, "harmonic components within gamma_d bound (scalar + matrix)", elapsed)


def test_criterion_11_rho_monotone_and_dominated():
    t0 = time.perf_counter()
    ok = True
    detail = []
    for q in (2, 3):
        for d in range(1, 5):
            limits = {
                k: (float(rho_infinity(d, k)) if q == 2 else rho_infinity_grid(d, k, q))
                for k in range(d + 1)
            }
            for k in range(d + 1):
                prev = -np.inf
                for n in range(d, 31):
                    val = rho_finite(n, d, k, q).value
                    ok &= val >= prev - 1e-9
                    ok &= val <= limits[k] + 1e-9
                    prev = val
            detail.append(f"q={q},d={d} ok")
    elapsed = time.perf_counter() - t0
    _report(11, ok, "rho(n,d,k) nondecreasing and dominated by rho(inf,d,k)", elapsed)


def test_criterion_12_matrix_sandwich():
    t0 = time.perf_counter()
    ok = True
    worst_exact = 0.0
    for s in range(10):
        n = 4 + s % 5  # 4..8
        d = 1 + s % 2
        F = random_matrix_poly(n, d, 2, seed=120000 + s)
        fmin = F.min_eigenvalue()
        r = max(1, math.ceil(d / 2)) + 1
        lo = outer_matrix(F, r).value
        hi = inner_matrix(F, r).value
        ok &= lo - 1e-6 <= fmin <= hi + 1e-8
        exact = inner_matrix(F, n).value
        worst_exact = max(worst_exact, abs(exact - fmin))
    ok &= worst_exact <= 1e-6
    elapsed = time.perf_counter() - t0
    _report(12, ok, f"sandwich holds; max |F^(n) - F_min| = {worst_exact:.2e}", elapsed)
