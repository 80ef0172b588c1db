import math

import numpy as np
import pytest

from cubesos.cube_fourier import harmonic_parts, sup_norm, value_table
from cubesos.gamma_constants import (
    GAMMA_TABLE_KNOWN,
    build_gamma_table,
    c_d,
    chebyshev_coeffs,
    gamma_d,
    rho_finite,
    rho_infinity,
    rho_infinity_grid,
    solve_lp,
)
from cubesos.instances import random_matrix_poly, random_poly


# ---------------------------------------------------------------------------
# Chebyshev coefficients


def test_chebyshev_t0_t2():
    assert chebyshev_coeffs(0) == [1]
    assert chebyshev_coeffs(1) == [0, 1]
    assert chebyshev_coeffs(2) == [-1, 0, 2]


def test_chebyshev_coefficient_sum_identity():
    for m in (3, 10, 17):
        total = sum(abs(c) for c in chebyshev_coeffs(m))
        closed = ((1 + math.sqrt(2)) ** m + (1 - math.sqrt(2)) ** m) / 2
        assert total == pytest.approx(closed, rel=1e-12)


def test_chebyshev_values_on_grid():
    xs = np.linspace(-1, 1, 101)
    for m in (4, 9):
        vals = np.polynomial.polynomial.polyval(xs, np.array(chebyshev_coeffs(m), dtype=float))
        assert np.allclose(vals, np.cos(m * np.arccos(xs)), atol=1e-10)


# ---------------------------------------------------------------------------
# rho at infinity


def test_rho_infinity_examples():
    assert rho_infinity(1, 1) == 1
    assert max(rho_infinity(2, k) for k in range(3)) == 2


def test_gamma_table_known_values():
    assert tuple(gamma_d(d) for d in range(1, 11)) == GAMMA_TABLE_KNOWN


def test_c_d():
    assert c_d(1) == 2
    assert c_d(2) == 12
    assert c_d(3) == 48


def test_gamma_d_growth_bound():
    for d in range(1, 13):
        assert gamma_d(d) <= (1 + math.sqrt(2)) ** d


def test_rho_infinity_grid_cross_check():
    # grid LP over [-1, 1] reproduces the Chebyshev closed form to 1e-3
    for d, k in [(1, 1), (2, 2), (2, 0), (3, 1)]:
        val = rho_infinity_grid(d, k, q=2, grid_points=2001)
        assert val == pytest.approx(rho_infinity(d, k), abs=1e-3)


# ---------------------------------------------------------------------------
# finite-n LP


def test_rho_finite_linear():
    for n in (1, 4, 9):
        res = rho_finite(n, 1, 1)
        assert res.value == pytest.approx(1.0, abs=1e-9)


def test_rho_finite_constant_component():
    res = rho_finite(8, 3, 0)
    assert res.value >= 1.0 - 1e-9
    assert res.value <= rho_infinity(3, 0) + 1e-9


def test_rho_finite_monotone_toward_limit():
    vals = [rho_finite(n, 2, 2).value for n in (2, 5, 10, 20)]
    assert all(vals[i] <= vals[i + 1] + 1e-9 for i in range(len(vals) - 1))
    assert all(v <= 2.0 + 1e-9 for v in vals)


def test_rho_finite_solution_is_feasible():
    from cubesos.krawtchouk import kraw_hat_table

    res = rho_finite(12, 3, 2)
    prof = res.lam @ kraw_hat_table(12, 3, 2)
    assert np.max(np.abs(prof)) <= 1.0 + 1e-9
    assert res.lam[2] == pytest.approx(res.value, abs=1e-9)


def test_rho_finite_qary():
    res = rho_finite(10, 2, 1, q=3)
    assert res.value >= 1.0 - 1e-9  # lambda = e_1 is feasible


# ---------------------------------------------------------------------------
# simplex


def test_lp_simple_box():
    sol = solve_lp([1.0], [[1.0]], [1.0])
    assert sol.status == "optimal" and sol.value == pytest.approx(1.0)


def test_lp_unbounded():
    sol = solve_lp([1.0], [[-1.0]], [0.0])
    assert sol.status == "unbounded"


def test_lp_infeasible():
    sol = solve_lp([1.0], [[1.0], [-1.0]], [1.0, -2.0])
    assert sol.status == "infeasible"


def test_lp_degenerate_tie_terminates():
    # several identical rows force degenerate pivots; Bland's rule terminates
    A = [[1.0, 1.0]] * 4 + [[1.0, 0.0]]
    b = [1.0] * 4 + [0.5]
    sol = solve_lp([1.0, 1.0], A, b)
    assert sol.status == "optimal"
    assert sol.value == pytest.approx(1.0)


def test_lp_objective_matches_substitution():
    rng = np.random.default_rng(5)
    A = rng.uniform(0, 1, (6, 3))
    b = rng.uniform(1, 2, 6)
    c = rng.uniform(-1, 1, 3)
    sol = solve_lp(c, A, b)
    assert sol.status == "optimal"
    assert np.all(A @ sol.x <= b + 1e-9)
    assert np.all(sol.x >= -1e-12)
    assert sol.value == pytest.approx(float(c @ sol.x), abs=1e-9)


# ---------------------------------------------------------------------------
# harmonic component bound (empirical)


def test_harmonic_component_bound_small():
    for seed in range(25):
        n, d = 8, 3
        p = random_poly(n, d, seed=seed)
        norm = sup_norm(p)
        bound = gamma_d(d) * norm
        assert np.max(np.abs(harmonic_parts(p))) <= bound + 1e-9


def test_harmonic_component_bound_matrix():
    # spectral norms of entrywise harmonic components vs gamma_d * ||P||
    for seed in range(5):
        n, d, k = 6, 2, 2
        F = random_matrix_poly(n, d, k, seed=seed)
        norm = F.sup_norm()
        comps = {}
        for (i, j), poly in F.entries.items():
            for deg, part in enumerate(harmonic_parts(poly)):
                comps.setdefault(deg, np.zeros((1 << n, k, k)))[:, i, j] = part
        for deg, tables in comps.items():
            spec = np.max(np.abs(np.linalg.eigvalsh(tables)))
            assert spec <= gamma_d(d) * norm + 1e-9


def test_build_gamma_table():
    table = build_gamma_table(2, [2, 4, 8])
    assert table.gamma == 2.0
    assert table.c_constant == 12.0
    assert table.rho_finite_values[(8, 2)] <= 2.0 + 1e-9
    qtable = build_gamma_table(1, [4, 8], q=3)
    assert qtable.gamma >= 1.0 - 1e-6


def test_build_gamma_table_rejects_q_below_2():
    with pytest.raises(ValueError, match="q must be >= 2"):
        build_gamma_table(2, [], q=1)


@pytest.mark.parametrize("call", [lambda: rho_finite(4, 2, 1), lambda: rho_infinity_grid(2, 1, q=3)],
                         ids=["rho_finite", "rho_infinity_grid"])
def test_failed_lp_is_a_solver_error(monkeypatch, call):
    from cubesos import gamma_constants
    from cubesos.config import SolverError

    monkeypatch.setattr(gamma_constants, "solve_lp",
                        lambda *args, **kwargs: gamma_constants.LpSolution("infeasible", None, None))
    with pytest.raises(SolverError, match="LP unexpectedly infeasible"):
        call()
