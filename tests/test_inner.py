import numpy as np
import pytest

from cubesos.cube_fourier import CubePolynomial, MatrixPolynomial, brute_force_min
from cubesos.inner_hierarchy import (
    inner_cube,
    inner_cube_symmetrized,
    inner_matrix,
    inner_univariate,
    inner_univariate_values,
    symmetrize_to_univariate,
)
from cubesos.instances import random_matrix_poly, random_poly
from cubesos.krawtchouk import DiscreteMeasure, least_root


def weight_poly(n):
    return CubePolynomial.from_terms(n, [([i + 1], 1.0) for i in range(n)])


# ---------------------------------------------------------------------------
# univariate


def test_univariate_identity_gives_least_root():
    for n in (8, 20, 41):
        for r in (1, 2, n // 3):
            res = inner_univariate([0.0, 1.0], DiscreteMeasure(n, 2), r)
            assert res.value == pytest.approx(least_root(n, 2, r + 1), abs=1e-9)


def test_univariate_order_zero_is_mean():
    res = inner_univariate([0.0, 1.0], DiscreteMeasure(10, 2), 0)
    assert res.value == pytest.approx(5.0, abs=1e-12)


def test_univariate_constant():
    for r in (0, 2, 5):
        res = inner_univariate([3.25], DiscreteMeasure(9, 2), r)
        assert res.value == pytest.approx(3.25, abs=1e-12)


def test_univariate_qary_identity():
    res = inner_univariate([0.0, 1.0], DiscreteMeasure(12, 3), 3)
    assert res.value == pytest.approx(least_root(12, 3, 4), abs=1e-9)


def test_univariate_density_is_unit_norm():
    res = inner_univariate([0.0, 0.0, 1.0], DiscreteMeasure(8, 2), 3)
    assert np.linalg.norm(res.density_coeffs) == pytest.approx(1.0, abs=1e-12)
    assert res.diagnostics["eig_residual"] <= 1e-10


def test_univariate_linear_upper_estimator():
    # if g <= c t on the grid then the bound is within c * xi_{r+1} of g_min
    n, r, c = 20, 4, 0.7
    t = np.arange(n + 1, dtype=float)
    g = c * t - 0.3 * c * t**2 / n  # concave, below ct, min 0 at t=0
    assert np.all(g <= c * t + 1e-12)
    res = inner_univariate_values(g, DiscreteMeasure(n, 2), r)
    assert res.value - 0.0 <= c * least_root(n, 2, r + 1) + 1e-8


# ---------------------------------------------------------------------------
# cube


def test_cube_exact_at_full_order():
    for seed in range(3):
        f = random_poly(6, 3, seed=seed)
        fmin, _ = brute_force_min(f)
        assert inner_cube(f, 6).value == pytest.approx(fmin, abs=1e-8)


def test_cube_weight_function_tight_only_at_n():
    f = weight_poly(5)
    for r in range(5):
        assert inner_cube(f, r).value > 1e-6
    assert inner_cube(f, 5).value == pytest.approx(0.0, abs=1e-8)


def test_cube_constant():
    f = CubePolynomial.constant(6, -2.5)
    for r in (0, 2, 6):
        assert inner_cube(f, r).value == pytest.approx(-2.5, abs=1e-12)


def test_cube_zero_polynomial():
    f = CubePolynomial(5, {})
    assert inner_cube(f, 2).value == pytest.approx(0.0, abs=1e-14)
    assert inner_cube_symmetrized(f, 2).value == pytest.approx(0.0, abs=1e-14)


def test_cube_order_zero_is_average():
    f = random_poly(6, 2, seed=11)
    from cubesos.cube_fourier import value_table

    assert inner_cube(f, 0).value == pytest.approx(float(value_table(f).mean()), abs=1e-12)


def test_cube_monotone_in_r():
    f = random_poly(7, 3, seed=2)
    vals = [inner_cube(f, r).value for r in range(8)]
    assert all(vals[i + 1] <= vals[i] + 1e-9 for i in range(7))


def test_cube_upper_bounds_minimum():
    for seed in range(5):
        f = random_poly(8, 3, seed=seed)
        fmin, _ = brute_force_min(f)
        assert inner_cube(f, 2).value >= fmin - 1e-8


# ---------------------------------------------------------------------------
# symmetrized


def test_symmetrized_weight_profile():
    F = symmetrize_to_univariate(weight_poly(6))
    assert np.allclose(F, np.arange(7.0))


def test_symmetrized_equals_univariate_for_invariant_input():
    n, r = 8, 3
    res = inner_cube_symmetrized(weight_poly(n), r)
    assert res.value == pytest.approx(least_root(n, 2, r + 1), abs=1e-9)


def test_symmetrized_constant():
    f = CubePolynomial.constant(5, 1.75)
    assert inner_cube_symmetrized(f, 2).value == pytest.approx(1.75, abs=1e-12)


def test_symmetrized_dominates_inner():
    for seed in range(5):
        f = random_poly(8, 3, seed=100 + seed)
        fmin, _ = brute_force_min(f)
        v_in = inner_cube(f, 2).value
        v_sym = inner_cube_symmetrized(f, 2).value
        assert fmin <= v_in + 1e-9
        assert v_in <= v_sym + 1e-8


# ---------------------------------------------------------------------------
# matrix-valued


def test_matrix_scalar_case_reduces():
    f = random_poly(6, 2, seed=4)
    F = MatrixPolynomial.from_entries(6, 1, {(0, 0): f})
    for r in (1, 3):
        assert inner_matrix(F, r).value == pytest.approx(inner_cube(f, r).value, abs=1e-10)


def test_matrix_diagonal_decouples():
    f1 = random_poly(5, 2, seed=6)
    f2 = random_poly(5, 2, seed=7)
    F = MatrixPolynomial.from_entries(5, 2, {(0, 0): f1, (1, 1): f2})
    for r in (1, 2):
        expect = min(inner_cube(f1, r).value, inner_cube(f2, r).value)
        assert inner_matrix(F, r).value == pytest.approx(expect, abs=1e-10)


def test_matrix_constant():
    C = np.array([[2.0, -1.0], [-1.0, 0.5]])
    entries = {
        (i, j): CubePolynomial.constant(4, C[i, j]) for i in range(2) for j in range(i, 2)
    }
    F = MatrixPolynomial.from_entries(4, 2, entries)
    lam_min = float(np.linalg.eigvalsh(C)[0])
    for r in (0, 2, 4):
        assert inner_matrix(F, r).value == pytest.approx(lam_min, abs=1e-10)


def test_matrix_rejects_asymmetric():
    F = MatrixPolynomial(
        4, 2,
        {(0, 1): CubePolynomial.from_terms(4, [([1], 1.0)]),
         (1, 0): CubePolynomial.from_terms(4, [([2], 1.0)])},
    )
    with pytest.raises(ValueError):
        inner_matrix(F, 1)


@pytest.mark.parametrize("front_end", ["inner_cube", "inner_matrix"])
@pytest.mark.parametrize("r", [-1, 6])
def test_order_out_of_range(monkeypatch, front_end, r):
    # the order is checked before any array over the cube is allocated
    f = random_poly(5, 2, seed=3)
    monkeypatch.setenv("CUBESOS_MAX_N", "4")
    with pytest.raises(ValueError, match="out of range"):
        if front_end == "inner_cube":
            inner_cube(f, r)
        else:
            inner_matrix(MatrixPolynomial.from_entries(5, 1, {(0, 0): f}), r)


def test_matrix_exact_at_full_order():
    F = random_matrix_poly(5, 2, 2, seed=9)
    assert inner_matrix(F, 5).value == pytest.approx(F.min_eigenvalue(), abs=1e-8)


def test_matrix_upper_bounds_minimum():
    for seed in range(3):
        F = random_matrix_poly(6, 2, 2, seed=20 + seed)
        assert inner_matrix(F, 2).value >= F.min_eigenvalue() - 1e-8
