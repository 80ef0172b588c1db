import math
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg as sla

from cubesos.cube_fourier import popcount_table
from cubesos.krawtchouk import (
    DiscreteMeasure,
    StepBoundReport,
    _roots_below,
    _scaled_jacobi,
    kraw_hat_table,
    kraw_int,
    kraw_norm_sq,
    kraw_step_bound_check,
    least_root,
    levenshtein_phi,
    orthonormal_table,
    root_sweep_rows,
)


def jacobi_matrix(n: int, q: int, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and off-diagonal of the order-r Jacobi matrix: multiplication
    by t in the orthonormal Krawtchouk basis, whose eigenvalues are the roots
    of K_r."""
    diag, off_sq = _scaled_jacobi(n, q, order)
    return np.array(diag) / q, np.sqrt(off_sq) / q


def test_measure_weights_sum_to_one():
    for n, q in [(10, 2), (25, 3), (40, 5)]:
        w = DiscreteMeasure(n, q).weights
        assert np.all(w > 0)
        assert abs(w.sum() - 1.0) <= 1e-12


def test_measure_weights_are_correctly_rounded():
    # each weight is the exact rational (q-1)^t C(n,t) / q^n rounded once
    for q in (2, 3):
        for n in [*range(0, 41), 100, 255, 599, 600]:
            w = DiscreteMeasure(n, q).weights
            exact = [float(Fraction(math.comb(n, t) * (q - 1) ** t, q**n))
                     for t in range(n + 1)]
            assert w.tolist() == exact
            assert abs(w.sum() - 1.0) <= 1e-14


def test_entry_points_do_not_import_scipy_stats():
    # no scipy module at all: the solvers that need scipy import it when called
    code = ("import sys\n"
            "import cubesos.cli, cubesos.kernel_certifier, cubesos.krawtchouk, "
            "cubesos.inner_hierarchy, cubesos.outer_hierarchy\n"
            "scipy = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "sys.exit(' '.join(scipy) or None)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_khat_degree_zero_and_one():
    for n in (5, 17):
        table = kraw_hat_table(n, 1)
        assert table[0].tolist() == [1.0] * (n + 1)
        for t in range(n + 1):
            assert table[1, t] == pytest.approx(1 - 2 * t / n, abs=1e-14)


def test_khat_small_value():
    # K_2^4(1) = C(3,2) - C(1,1) C(3,1) = 0
    assert kraw_hat_table(4, 2)[2, 1] == pytest.approx(0.0, abs=1e-14)
    assert kraw_int(4, 2, 2, 1) == 0


def test_recurrence_matches_defining_sum():
    for n, q in [(9, 2), (7, 3), (6, 4)]:
        table = kraw_hat_table(n, n, q)
        for k in range(n + 1):
            norm = (q - 1) ** k * math.comb(n, k)
            for t in range(n + 1):
                assert table[k, t] * norm == pytest.approx(
                    kraw_int(n, q, k, t), rel=1e-11, abs=1e-9
                )


@pytest.mark.parametrize("n, q", [(600, 2), (1200, 3)])
def test_khat_table_is_correctly_rounded_at_large_n(n, q):
    # each entry is the exact K_k(t) / K_k(0) rounded once, at any n
    table = kraw_hat_table(n, 6, q)
    for k in range(7):
        for t in [*range(0, n + 1, 37), n]:
            exact = Fraction(kraw_int(n, q, k, t), (q - 1) ** k * math.comb(n, k))
            assert table[k, t] == float(exact), (k, t)


def test_orthogonality_binary_and_qary():
    # Gram of the orthonormal family is the identity to 1e-9
    for q in (2, 3, 4):
        for n in (8, 23, 40):
            P = orthonormal_table(n, n, q)
            w = DiscreteMeasure(n, q).weights
            G = (P * w) @ P.T
            assert np.max(np.abs(G - np.eye(n + 1))) <= 1e-9


def test_norm_matches_value_at_zero():
    for n, q, k in [(12, 2, 5), (9, 3, 4)]:
        assert kraw_norm_sq(n, q, k) == kraw_int(n, q, k, 0)


def test_normalized_bounded_by_one():
    # exhaustive over integer arguments: the normalized maximum sits at t = 0
    for n in (15, 37, 60):
        table = kraw_hat_table(n, n, 2)
        assert table.max() <= 1.0 + 1e-12
        assert np.abs(table).max() <= 1.0 + 1e-12


def test_zonal_identity_exact():
    # sum of weight-k characters at 1^t 0^{n-t} equals K_k(t), in integers
    for n in (6, 10):
        pc = popcount_table(n)
        for k in range(n + 1):
            masks = [a for a in range(1 << n) if pc[a] == k]
            for t in range(n + 1):
                x = (1 << t) - 1
                s = sum(1 - 2 * (int(pc[a & x]) % 2) for a in masks)
                assert s == kraw_int(n, 2, k, t)


# ---------------------------------------------------------------------------
# roots


def test_least_root_degree_one():
    # the root (q-1) n / q is returned exactly when it is a float, and else
    # as the float just above it
    assert least_root(10, 2, 1) == 5.0
    for q in (2, 3, 5, 7):
        for n in range(1, 40):
            root = Fraction((q - 1) * n, q)
            xi = least_root(n, q, 1)
            assert Fraction(xi) >= root > Fraction(math.nextafter(xi, 0.0))


@pytest.mark.parametrize("call", [lambda: least_root(10, 1, 2), lambda: jacobi_matrix(10, 0, 2),
                                  lambda: levenshtein_phi(0.0, 1), lambda: levenshtein_phi(0.0, 0)],
                         ids=["least_root", "jacobi_matrix", "levenshtein_phi", "levenshtein_phi_q0"])
def test_root_entry_points_reject_q_below_2(call):
    with pytest.raises(ValueError, match="q must be >= 2"):
        call()


def test_least_root_degree_two():
    for n in (6, 11, 30):
        assert least_root(n, 2, 2) == pytest.approx((n - math.sqrt(n)) / 2, abs=1e-10)


def test_least_root_vs_dense_eigenvalues():
    evals = sla.eigh_tridiagonal(*jacobi_matrix(17, 2, 6), eigvals_only=True)
    assert least_root(17, 2, 6) == pytest.approx(evals[0], abs=1e-10)
    assert np.all(evals >= -1e-9) and np.all(evals <= 17 + 1e-9)
    assert np.all(np.diff(evals) > 1e-9)  # distinct


def test_least_root_interlacing():
    for q in (2, 3):
        xs = [least_root(20, q, r) for r in range(1, 11)]
        assert all(xs[i + 1] < xs[i] for i in range(len(xs) - 1))


def test_least_root_midrange_near_phi():
    assert abs(least_root(200, 2, 100) / 200 - levenshtein_phi(0.5)) <= 0.02


def _kraw_at(n, q, r, x):
    """K_r(x) from its defining sum, with generalized binomials at a rational x."""
    def binom(y, i):
        return math.prod((y - j for j in range(i)), start=Fraction(1)) / math.factorial(i)

    return sum((-1) ** i * (q - 1) ** (r - i) * binom(x, i) * binom(n - x, r - i)
               for i in range(r + 1))


def test_least_root_is_a_sign_change():
    xi, eps = Fraction(least_root(14, 2, 5)), Fraction(1, 10**6)
    assert _kraw_at(14, 2, 5, xi - eps) > 0 > _kraw_at(14, 2, 5, xi + eps)


def test_least_root_is_at_or_above_the_root():
    # K_r changes sign on [0, xi], so a root lies at or below xi: checked in
    # exact arithmetic from the defining sum, without the Sturm count
    for n in (14, 30):
        for q in (2, 3):
            for r in range(1, (n // 2 if q == 2 else (q - 1) * n // q) + 1):
                xi = Fraction(least_root(n, q, r))
                assert _kraw_at(n, q, r, xi) * _kraw_at(n, q, r, 0) <= 0, (n, q, r)


@pytest.mark.parametrize("n, q, r_max", [(100, 2, 50), (100, 3, 66), (40, 5, 32),
                                         (400, 2, 200)])
def test_least_root_bracket_is_proven_and_narrow(n, q, r_max):
    # by exact counts, no root lies at or below xi (1 - 1e-13) and one lies at
    # or below xi
    for r in range(1, r_max + 1):
        jacobi = _scaled_jacobi(n, q, r)
        xi = Fraction(least_root(n, q, r))
        assert _roots_below(q, jacobi, xi) >= 1, (n, q, r)
        assert _roots_below(q, jacobi, xi * (1 - Fraction(1, 10**13))) == 0, (n, q, r)


def test_sturm_count_treats_a_zero_pivot_as_negative():
    # at t = (q-1) n / q the first pivot of q (J - t I) is 0 (and for q = 2
    # and odd r, t is itself a root of K_r); the count there must be the
    # count of roots <= t, which is the count just above t
    for n in (10, 12, 21):
        for q in (2, 3, 5):
            t = Fraction((q - 1) * n, q)
            for r in range(1, 9):
                jacobi = _scaled_jacobi(n, q, r)
                assert _roots_below(q, jacobi, t) == _roots_below(
                    q, jacobi, t + Fraction(1, 10**30)), (n, q, r)
    assert _roots_below(2, _scaled_jacobi(10, 2, 3), Fraction(5)) == 2


# ---------------------------------------------------------------------------
# phi and the limit polynomials


def test_phi_binary_values():
    assert levenshtein_phi(0.5) == 0.0
    assert levenshtein_phi(0.0) == 0.5


def test_phi_qary_endpoint():
    for q in (3, 4, 5):
        assert levenshtein_phi((q - 1) / q, q) == pytest.approx(0.0, abs=1e-12)
        assert levenshtein_phi(0.0, q) == pytest.approx((q - 1) / q)


def test_phi_domain():
    with pytest.raises(ValueError):
        levenshtein_phi(0.6, 2)


def limit_poly_eval(k: int, t: float, q: int = 2) -> float:
    """Khat_k^infinity(t) = (1 - q t/(q-1))^k, the n -> infinity limit of
    Khat_k^n(n t)."""
    if not 0.0 <= t <= 1.0:
        raise ValueError("t must lie in [0, 1]")
    return (1.0 - q * t / (q - 1)) ** k


def test_limit_polynomial():
    assert limit_poly_eval(0, 0.3) == 1.0
    for t in (0.0, 0.2, 0.7):
        assert limit_poly_eval(2, t) == pytest.approx((1 - 2 * t) ** 2)
    # convergence at finite n
    assert abs(kraw_hat_table(400, 3)[3, 100] - 0.5**3) <= 0.01


def test_limit_polynomial_qary():
    assert limit_poly_eval(2, 0.5, q=3) == pytest.approx((1 - 3 * 0.5 / 2) ** 2)


# ---------------------------------------------------------------------------
# step bounds and sweeps


def test_step_bounds_hold():
    for n, q, d in [(30, 2, 5), (30, 3, 4), (60, 2, 6)]:
        report = kraw_step_bound_check(n, q, d)
        assert isinstance(report, StepBoundReport)
        assert report.ok
        assert report.min_step_slack >= -1e-12
        assert report.min_drift_slack >= -1e-12


def test_step_bounds_equality_at_degree_zero():
    report = kraw_step_bound_check(12, 2, 0)
    assert report.min_step_slack == pytest.approx(0.0, abs=1e-14)


def test_root_sweep_rows():
    rows = list(root_sweep_rows([20], [2]))
    assert len(rows) == 10
    assert rows[0]["r"] == 1 and rows[-1]["r"] == 10
    for row in rows:
        assert row["xi_over_n"] == pytest.approx(row["xi"] / row["n"])
        assert row["phi_q(r/n)"] <= row["xi_over_n"] + 1e-12
