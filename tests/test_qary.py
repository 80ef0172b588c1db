import itertools
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
)
from cubesos.inner_hierarchy import inner_univariate_values
from cubesos.qary import QaryPolynomial, phi_q_sweep, qary_brute_min


def test_reduction_preserves_evaluation():
    # x^3 with q=3 reduces via x(x-1)(x-2) = 0, i.e. x^3 = 3x^2 - 2x
    f = QaryPolynomial.from_terms(2, 3, [((3, 0), 1.0)])
    assert all(e < 3 for exps in f.terms for e in exps)
    for x in itertools.product(range(3), repeat=2):
        assert f.evaluate(x) == pytest.approx(float(x[0] ** 3), abs=1e-12)


def test_reduction_random_agreement():
    rng = np.random.default_rng(0)
    raw = [(tuple(rng.integers(0, 6, size=3)), float(rng.uniform(-1, 1))) for _ in range(8)]
    f = QaryPolynomial.from_terms(3, 4, raw)
    for x in itertools.product(range(4), repeat=3):
        direct = sum(c * math.prod(xi**e for xi, e in zip(x, exps)) for exps, c in raw)
        assert f.evaluate(x) == pytest.approx(direct, rel=1e-10, abs=1e-10)


def test_brute_min_weight():
    f = QaryPolynomial.from_terms(4, 3, [(tuple(int(i == j) for j in range(4)), 1.0)
                                         for i in range(4)])
    val, arg = qary_brute_min(f)
    assert val == 0.0 and list(arg) == [0, 0, 0, 0]


def test_brute_min_constant():
    f = QaryPolynomial.from_terms(3, 3, [((0, 0, 0), -1.5)])
    val, arg = qary_brute_min(f)
    assert val == -1.5 and list(arg) == [0, 0, 0]


def test_brute_min_matches_reverse_enumeration():
    rng = np.random.default_rng(5)
    terms = [(tuple(rng.integers(0, 3, size=6)), float(rng.uniform(-1, 1))) for _ in range(12)]
    f = QaryPolynomial.from_terms(6, 3, terms)
    val, arg = qary_brute_min(f)
    # independent re-enumeration in reversed order
    best = math.inf
    best_x = None
    for x in reversed(list(itertools.product(range(3), repeat=6))):
        v = f.evaluate(x)
        if v < best - 1e-15 or (abs(v - best) <= 1e-15 and (best_x is None or x <= best_x)):
            best, best_x = v, x
    assert val == pytest.approx(best, abs=1e-12)
    assert tuple(arg) == best_x
    assert f.evaluate(arg) == pytest.approx(val, abs=1e-12)


def test_value_table_peak_memory():
    # x_i and x_i^2 for every i: a q^n table per (variable, exponent) pair
    # would hold 2n of them
    import tracemalloc

    n, q = 10, 3
    f = QaryPolynomial(n, q, {tuple(e * (j == i) for j in range(n)): 1.0
                              for i in range(n) for e in (1, 2)})
    tracemalloc.start()
    try:
        f.value_table()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 8 * q**n, peak / (8 * q**n)


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


def test_cap_enforced():
    with pytest.raises(ValueError):
        QaryPolynomial.from_terms(30, 3, [((0,) * 30, 1.0)]).value_table()
