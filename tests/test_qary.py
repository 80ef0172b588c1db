import math

import numpy as np
import pytest

from cubesos.krawtchouk import (
    DiscreteMeasure,
    kraw_hat_table,
    kraw_int_table,
    kraw_step_bound_check,
    least_root,
    levenshtein_phi,
    phi_q_sweep,
)
from cubesos.inner_hierarchy import inner_univariate_values


def test_inner_symmetrized_identity():
    grid = np.polynomial.polynomial.polyval(np.arange(13.0), [0.0, 1.0])
    res = inner_univariate_values(grid, DiscreteMeasure(12, 3), 3)
    assert res.value == pytest.approx(least_root(12, 3, 4), abs=1e-8)


def test_inner_symmetrized_constant():
    grid = np.polynomial.polynomial.polyval(np.arange(11.0), [2.0])
    res = inner_univariate_values(grid, DiscreteMeasure(10, 3), 2)
    assert res.value == pytest.approx(2.0, abs=1e-12)


def test_inner_symmetrized_kernel_profile_bound():
    # g_q(t) = d - sum_i Khat_i has inner bound <= d(d+1) xi/n via the
    # linear estimator
    n, q, d, r = 12, 3, 2, 4
    khat = kraw_hat_table(n, d, q)
    g = d - khat[1:d + 1].sum(axis=0)
    res = inner_univariate_values(g, DiscreteMeasure(n, q), r)
    assert res.value <= d * (d + 1) * least_root(n, q, r + 1) / n + 1e-9


def test_qary_step_bounds():
    report = kraw_step_bound_check(30, 3, 4)
    assert report.ok


def test_qary_orthogonality_exact():
    for q in (3, 5):
        n = 14
        T = kraw_int_table(n, q)
        for k in (0, 3, n):
            for l in (0, 3, n - 1):
                s = sum(T[k][t] * T[l][t] * (q - 1) ** t * math.comb(n, t)
                        for t in range(n + 1))
                expect = q**n * (q - 1) ** k * math.comb(n, k) if k == l else 0
                assert s == expect


def test_phi_q_sweep_rows():
    rows = list(phi_q_sweep([2, 3], n_list=[30], t_points=9))
    qs = {row["q"] for row in rows}
    assert qs == {2, 3}
    for row in rows:
        assert row["phi_q"] >= 0.0
        assert f"xi_over_n[n=30]" in row
    # q = 2 column reproduces the binary curve
    for row in rows:
        if row["q"] == 2:
            assert row["phi_q"] == pytest.approx(levenshtein_phi(row["t"], 2))


@pytest.mark.parametrize("q", [0, 1])
def test_phi_q_sweep_rejects_q_below_2(q):
    with pytest.raises(ValueError, match="q must be >= 2"):
        list(phi_q_sweep([q], t_points=2))


def test_phi_q_sweep_endpoint():
    rows = list(phi_q_sweep([3], t_points=5))
    assert rows[0]["phi_q"] == pytest.approx(2 / 3)
    assert rows[-1]["phi_q"] == pytest.approx(0.0, abs=1e-12)
