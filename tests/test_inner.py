import subprocess
import sys
import warnings

import numpy as np
import pytest

from cubesos import inner_hierarchy
from cubesos.config import SolverError
from cubesos.cube_fourier import (
    CubePolynomial,
    MatrixPolynomial,
    brute_force_min,
    from_spectrum,
    fwht,
    masks_up_to_weight,
    spectrum,
    value_table,
)
from cubesos.inner_hierarchy import (
    inner_cube,
    inner_matrix,
    inner_univariate_values,
)
from cubesos.instances import maxcut_instance, random_matrix_poly, random_poly
from cubesos.krawtchouk import DiscreteMeasure, least_root


def univariate(coeffs, measure, r):
    """The inner bound of the polynomial with ascending monomial coefficients
    ``coeffs``, from its values on [0:n]."""
    grid = np.polynomial.polynomial.polyval(np.arange(measure.n + 1.0), coeffs)
    return inner_univariate_values(grid, measure, r)


def weight_poly(n):
    return CubePolynomial.from_terms(n, [([i + 1], 1.0) for i in range(n)])


# ---------------------------------------------------------------------------
# univariate


def test_univariate_identity_gives_least_root():
    for n in (8, 20, 41):
        for r in (1, 2, n // 3):
            res = univariate([0.0, 1.0], DiscreteMeasure(n, 2), r)
            assert res.value == pytest.approx(least_root(n, 2, r + 1), abs=1e-9)


def test_univariate_order_zero_is_mean():
    res = univariate([0.0, 1.0], DiscreteMeasure(10, 2), 0)
    assert res.value == pytest.approx(5.0, abs=1e-12)


def test_univariate_constant():
    for r in (0, 2, 5):
        res = univariate([3.25], DiscreteMeasure(9, 2), r)
        assert res.value == pytest.approx(3.25, abs=1e-12)


def test_univariate_qary_identity():
    res = univariate([0.0, 1.0], DiscreteMeasure(12, 3), 3)
    assert res.value == pytest.approx(least_root(12, 3, 4), abs=1e-9)


def test_univariate_density_is_unit_norm():
    res = univariate([0.0, 0.0, 1.0], DiscreteMeasure(8, 2), 3)
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


def test_cube_order_zero_is_average():
    f = random_poly(6, 2, seed=11)
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


# ---------------------------------------------------------------------------
# matrix-free path: Lanczos on two transforms per product, above the switch


@pytest.fixture
def lanczos_calls(monkeypatch):
    """Records the size of every Lanczos solve, so a test can tell which
    path ran."""
    calls = []
    lanczos = inner_hierarchy._lanczos

    def counted(A):
        calls.append(A.shape[0])
        return lanczos(A)

    monkeypatch.setattr(inner_hierarchy, "_lanczos", counted)
    return calls


def _block_matrix(masks, k, spectra):
    """Referee of the formed product: A[(i,a),(j,b)] = fhat_ij(a XOR b), one
    np.take from each 2^n spectrum; block (j, i) repeats block (i, j), which
    is symmetric."""
    xor = np.bitwise_xor.outer(masks, masks)
    N = masks.size
    A = np.zeros((k * N, k * N))
    for (i, j), fhat in spectra.items():
        A[i * N:(i + 1) * N, j * N:(j + 1) * N] = np.take(fhat, xor)
        A[j * N:(j + 1) * N, i * N:(i + 1) * N] = np.take(fhat, xor)
    return A


def _dense_smallest(n, k, spectra, r):
    return np.linalg.eigvalsh(_block_matrix(masks_up_to_weight(n, r), k, spectra))[0]


def _assert_close(value, expect):
    assert abs(value - expect) <= 1e-12 * max(1.0, abs(expect)), (value, expect)


def _maxcut_g12():
    rng = np.random.default_rng(12)
    adj = np.triu((rng.random((12, 12)) < 0.5).astype(float), 1)
    return maxcut_instance(adj + adj.T)


def _characters(n, coeffs):
    """The polynomial sum_a coeffs[a] chi_a."""
    fhat = np.zeros(1 << n)
    fhat[list(coeffs)] = list(coeffs.values())
    return from_spectrum(n, fhat)


def _chi_1234_5678():
    return _characters(12, {0b1111: 1.0, 0b11110000: 0.5})


@pytest.mark.parametrize("f, r", [
    (random_poly(12, 2, seed=31), 5),
    (random_poly(12, 3, seed=32), 4),
    (_maxcut_g12(), 4),  # degenerate spectrum
    (weight_poly(10), 10),  # ones is in the kernel at r = n
    (_chi_1234_5678(), 3),
], ids=["random-d2", "random-d3", "maxcut-g12", "weight-r=n", "chi1234+chi5678/2"])
def test_matrix_free_matches_dense(lanczos_calls, f, r):
    res = inner_cube(f, r)
    assert lanczos_calls == [res.diagnostics["matrix_size"]]
    _assert_close(res.value, _dense_smallest(f.n, 1, {(0, 0): spectrum(f)}, r))
    _assert_close(res.diagnostics["eigenvalue"], res.value)


def test_matrix_free_weight_function_exact_at_n(lanczos_calls):
    # N = 4096: the reference is the exact minimum, 0, that r = n attains
    res = inner_cube(weight_poly(12), 12)
    assert lanczos_calls == [4096]
    assert abs(res.value) <= 1e-12


def test_matrix_free_characters_value():
    assert inner_cube(_chi_1234_5678(), 3).value == pytest.approx(-1.0, abs=1e-12)


def test_matrix_free_constant(lanczos_calls):
    # A = c I: Lanczos meets an invariant subspace at its first product, and
    # must stop there without dividing by its zero beta
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = inner_cube(CubePolynomial.constant(12, -2.5), 4)
    assert lanczos_calls
    assert res.diagnostics["products"] == 1
    _assert_close(res.value, -2.5)


@pytest.mark.parametrize("f, r", [(CubePolynomial(12, {}), 4),
                                  (_characters(12, {0b11111: 1.0}), 2)],
                         ids=["zero", "chi12345"])
def test_zero_operator_is_exact_without_lanczos(lanczos_calls, f, r):
    # f has no spectrum at weights <= 2r, so A = 0
    res = inner_cube(f, r)
    assert res.value == 0.0 and res.diagnostics["eigenvalue"] == 0.0
    assert lanczos_calls == []


@pytest.mark.parametrize("n, k, r", [(8, 2, 8), (12, 3, 3)])
def test_matrix_free_block_input_matches_dense(lanczos_calls, n, k, r):
    F = random_matrix_poly(n, 2, k, seed=40 + n)
    res = inner_matrix(F, r)
    assert lanczos_calls == [res.diagnostics["matrix_size"]]
    _assert_close(res.value, _dense_smallest(n, k, F.spectra(), r))
    assert res.value >= F.min_eigenvalue() - 1e-12


@pytest.mark.parametrize("front_end", ["inner_cube", "inner_matrix"])
def test_dense_and_matrix_free_paths_agree(monkeypatch, lanczos_calls, front_end):
    # one instance solved on each side of the size switch
    if front_end == "inner_cube":
        f = random_poly(10, 3, seed=51)
        solve = lambda: inner_cube(f, 3)  # noqa: E731
    else:
        F = random_matrix_poly(7, 2, 2, seed=52)
        solve = lambda: inner_matrix(F, 3)  # noqa: E731
    monkeypatch.setattr(inner_hierarchy, "_DENSE_RATIO", float("inf"))
    dense = solve()
    assert lanczos_calls == []
    monkeypatch.setattr(inner_hierarchy, "_DENSE_RATIO", 0)
    lanczos = solve()
    assert len(lanczos_calls) == 1
    _assert_close(lanczos.value, dense.value)
    _assert_close(lanczos.diagnostics["eigenvalue"], dense.diagnostics["eigenvalue"])
    assert lanczos.diagnostics["eig_residual"] <= 1e-12
    assert dense.diagnostics["eig_residual"] <= 1e-12


# ---------------------------------------------------------------------------
# the three products: formed matrix, transforms and sparse gather


@pytest.fixture
def gather_builds(monkeypatch):
    """Records the size of every sparse-gather matrix built, so a test can
    tell which product Lanczos ran on."""
    builds = []
    build = inner_hierarchy._gather_matrix

    def counted(*args):
        G = build(*args)
        builds.append(G.shape[0])
        return G

    monkeypatch.setattr(inner_hierarchy, "_gather_matrix", counted)
    return builds


def _operator_input(k):
    """(solve, spectra) at n = 9, r = 3: a scalar input for k = 1, else a
    k x k matrix input, whose off-diagonal blocks the gather mirrors."""
    if k == 1:
        f = random_poly(9, 3, seed=81)
        return (lambda: inner_cube(f, 3)), {(0, 0): spectrum(f)}
    F = random_matrix_poly(9, 2, k, seed=80 + k)
    return (lambda: inner_matrix(F, 3)), F.spectra()


@pytest.mark.parametrize("k", [1, 2, 3], ids=["scalar", "k=2", "k=3"])
def test_gather_and_transform_products_equal_formed_matrix(rng, k):
    _, spectra = _operator_input(k)
    masks = masks_up_to_weight(9, 3)
    tables = np.zeros((k, k, 1 << 9))
    for (i, j), fhat in spectra.items():
        tables[i, j] = tables[j, i] = fwht(fhat)
    supports = {ij: np.flatnonzero(fhat) for ij, fhat in spectra.items()}
    G = inner_hierarchy._gather_matrix(9, masks, k, spectra, supports)
    v = rng.standard_normal(k * masks.size)
    expect = _block_matrix(masks, k, spectra) @ v
    transforms = inner_hierarchy._Transforms(masks, tables) @ v
    gather = G @ v
    scale = np.max(np.abs(expect))
    assert np.max(np.abs(transforms - expect)) <= 1e-12 * scale
    assert np.max(np.abs(gather - expect)) <= 1e-12 * scale
    assert G.indices.dtype == np.int32


@pytest.mark.parametrize("k", [1, 2, 3], ids=["scalar", "k=2", "k=3"])
@pytest.mark.parametrize("product, dense_ratio, gather_ratio", [
    ("dense", float("inf"), 0.0),
    ("transforms", 0, float("inf")),
    ("gather", 0, 0.0),
])
def test_three_products_match_dense_reference(monkeypatch, lanczos_calls, gather_builds,
                                              k, product, dense_ratio, gather_ratio):
    # the selection forced each way through the two fitted constants; in the
    # dense case the gather is the cheaper product, and must still not be built
    solve, spectra = _operator_input(k)
    monkeypatch.setattr(inner_hierarchy, "_DENSE_RATIO", dense_ratio)
    monkeypatch.setattr(inner_hierarchy, "_GATHER_RATIO", gather_ratio)
    solved = []
    eigenpair = inner_hierarchy._smallest_eigenpair
    monkeypatch.setattr(inner_hierarchy, "_smallest_eigenpair",
                        lambda A: solved.append(A) or eigenpair(A))
    res = solve()
    size = res.diagnostics["matrix_size"]
    assert res.diagnostics["product"] == product
    assert lanczos_calls == ([] if product == "dense" else [size])
    assert gather_builds == ([size] if product == "gather" else [])
    if product == "dense":
        assert res.diagnostics["products"] == 0
    else:
        assert 0 < res.diagnostics["products"] < size
    if product == "dense":
        # the formed matrix is the referee's, entry for entry
        assert np.array_equal(solved[0], _block_matrix(masks_up_to_weight(9, 3), k, spectra))
    expect = _dense_smallest(9, k, spectra, 3)
    _assert_close(res.diagnostics["eigenvalue"], expect)
    _assert_close(res.value, expect)
    assert res.diagnostics["eig_residual"] <= 1e-12


@pytest.mark.parametrize("k, lanczos, calls", [(1, False, 1), (2, False, 3), (1, True, 1)],
                         ids=["dense-scalar", "dense-k=2", "gather"])
def test_solve_transforms_only_for_the_f_tables(monkeypatch, lanczos_calls, gather_builds,
                                                k, lanczos, calls):
    # one transform per spectrum builds the F tables; the value and residual
    # come from the formed matrix or the gather the solve ran on, not from
    # further transforms
    solve, _ = _operator_input(k)
    monkeypatch.setattr(inner_hierarchy, "_DENSE_RATIO", 0 if lanczos else float("inf"))
    monkeypatch.setattr(inner_hierarchy, "_GATHER_RATIO", 0.0)
    fwht_calls = []

    def counted(v):
        fwht_calls.append(v.size)
        return fwht(v)

    monkeypatch.setattr(inner_hierarchy, "fwht", counted)
    res = solve()
    assert len(fwht_calls) == calls
    assert lanczos_calls == gather_builds == ([res.diagnostics["matrix_size"]] if lanczos else [])


def test_product_selection_follows_the_spectrum(lanczos_calls, gather_builds):
    # max-cut on G(16, 1/2): about 60 characters in the spectrum, so the
    # gather's N |S| lookups cost far less than two 2^16-point transforms
    rng = np.random.default_rng(16)
    adj = np.triu((rng.random((16, 16)) < 0.5).astype(float), 1)
    res = inner_cube(maxcut_instance(adj + adj.T), 4)
    assert lanczos_calls == gather_builds == [res.diagnostics["matrix_size"]] == [2517]
    # a degree-6 spectrum fills all 2510 characters of weight <= 6: the
    # transforms are cheaper
    res = inner_cube(random_poly(12, 6, seed=91), 4)
    assert lanczos_calls == [2517, 794]
    assert gather_builds == [2517]


def test_dense_branch_never_loads_scipy_sparse(tmp_path):
    # bounds --which all and the matrix shapes of the outer_sdp benchmark
    # solve their inner bounds densely; the residual product included, none
    # of them may build the gather or import scipy.sparse
    code = ("import sys\n"
            "from cubesos import cli, inner_hierarchy\n"
            "from cubesos.instances import random_matrix_poly\n"
            f"out = {str(tmp_path / 'report.json')!r}\n"
            "assert cli.main(['bounds', '--instance', 'random:n=9,d=2,seed=1', '--r', '3',\n"
            "                 '--which', 'all', '--out', out, '--quiet']) == 0\n"
            "for n, k in ((5, 2), (4, 3)):\n"
            "    inner_hierarchy.inner_matrix(random_matrix_poly(n, 2, k, seed=1), 2)\n"
            "loaded = [m for m in sys.modules if m.startswith('scipy.sparse')]\n"
            "sys.exit(f'scipy.sparse loaded: {loaded}' if loaded else 0)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_value_is_density_integral():
    # the value is sum_x f p^2 / sum_x p^2 for the reported density p
    f = random_poly(9, 3, seed=61)
    res = inner_cube(f, 3)
    coeffs = np.zeros(1 << 9)
    coeffs[masks_up_to_weight(9, 3)] = res.density_coeffs
    p = fwht(coeffs)
    vals = value_table(f)
    assert res.value == pytest.approx(float(vals @ p**2 / (p @ p)), abs=1e-13)
    assert res.value >= vals.min()
    assert res.value == pytest.approx(res.diagnostics["eigenvalue"], abs=1e-12)


def test_univariate_value_is_density_integral():
    from cubesos.krawtchouk import orthonormal_table

    n, r = 12, 4
    measure = DiscreteMeasure(n, 2)
    g = np.cos(np.arange(n + 1.0))
    res = inner_univariate_values(g, measure, r)
    pw = (res.density_coeffs @ orthonormal_table(n, r, 2)) ** 2 * measure.weights
    assert res.value == pytest.approx(float(pw @ g / pw.sum()), abs=1e-14)


def test_eigh_eigenvector_is_owned():
    # a column view would keep eigh's whole eigenvector matrix alive
    res = inner_cube(random_poly(9, 3, 1), 3)
    assert res.density_coeffs.base is None
    assert res.diagnostics["product"] == "dense"
    assert univariate([0.0, 1.0], DiscreteMeasure(20, 2), 5).density_coeffs.base is None


def test_lanczos_failure_raises_solver_error(monkeypatch):
    # a stopping tolerance of 0 is not met here: the solve runs to its step cap
    monkeypatch.setattr(inner_hierarchy, "_LANCZOS_TOL", 0.0)
    with pytest.raises(SolverError, match="Lanczos eigen-solve of size 794 .* 794 steps"):
        inner_cube(random_poly(12, 2, seed=71), 4)


def test_non_finite_eigenpair_raises_solver_error(monkeypatch):
    monkeypatch.setattr(inner_hierarchy, "_smallest_eigenpair",
                        lambda A: (float("nan"), np.full(A.shape[0], np.nan), 0))
    with pytest.raises(SolverError, match="eigenvalue solve failed"):
        inner_cube(random_poly(5, 2, seed=72), 2)
