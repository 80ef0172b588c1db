import numpy as np
import pytest

from cubesos import outer_hierarchy
from cubesos.cube_fourier import (
    CubePolynomial,
    MatrixPolynomial,
    brute_force_min,
    masks_up_to_weight,
    point_to_mask,
    spectrum,
    value_table,
)
from cubesos.gamma_constants import solve_lp
from cubesos.inner_hierarchy import inner_cube
from cubesos.instances import maxcut_instance, random_matrix_poly, random_poly
from cubesos.outer_hierarchy import (
    OuterBoundResult,
    SolverError,
    _DenseConstraints,
    _quotient,
    _solve_ipm,
    _span,
    _XorConstraints,
    outer_cube,
    outer_matrix,
    verify_sos_certificate,
)


def weight_poly(n):
    return CubePolynomial.from_terms(n, [([i + 1], 1.0) for i in range(n)])


def solve_dense(C, mats, b):
    return _solve_ipm([np.asarray(C, dtype=np.float64)], _DenseConstraints(mats),
                      np.asarray(b, dtype=np.float64))


# ---------------------------------------------------------------------------
# interior-point core


def test_sdp_rank_one_optimum():
    E11 = np.zeros((2, 2))
    E11[0, 0] = 1.0
    sol = solve_dense(np.eye(2), [E11], [1.0])
    assert sol.status == "optimal"
    assert sol.primal_obj == pytest.approx(1.0, abs=1e-6)
    assert sol.X[0][0, 0] == pytest.approx(1.0, abs=1e-6)
    assert abs(sol.X[0][0, 1]) <= 1e-6


def test_sdp_solution_certificates():
    rng = np.random.default_rng(3)
    N, m = 8, 5
    mats = []
    for _ in range(m):
        M = rng.standard_normal((N, N))
        mats.append(M + M.T)
    Xfeas = np.eye(N)
    b = np.array([float(np.tensordot(M, Xfeas)) for M in mats])
    Craw = rng.standard_normal((N, N))
    sol = solve_dense(Craw + Craw.T + 2 * N * np.eye(N), mats, b)
    assert sol.status == "optimal"
    assert np.linalg.eigvalsh(sol.X[0])[0] >= -1e-8
    assert sol.primal_res <= 1e-8
    assert sol.rel_gap <= 1e-7
    assert sol.dual_obj <= sol.primal_obj + 1e-6  # weak duality


def test_sdp_diagonal_reduces_to_lp():
    # diagonal data: the SDP optimum equals the LP optimum
    rng = np.random.default_rng(7)
    N = 5
    c = rng.uniform(0.5, 2.0, N)
    a = rng.uniform(0.5, 1.5, N)
    sol = solve_dense(np.diag(c), [np.diag(a)], [3.0])
    assert sol.status == "optimal"
    # LP: min c.x s.t. a.x = 3, x >= 0, as -max(-c).x
    lp = solve_lp(-c, np.vstack([a, -a]), np.array([3.0, -3.0]))
    assert lp.status == "optimal"
    assert sol.primal_obj == pytest.approx(-lp.value, abs=1e-6)


def test_sdp_max_iter_is_not_reported_optimal(monkeypatch):
    monkeypatch.setattr(outer_hierarchy, "_MAX_ITER", 1)
    E11 = np.zeros((2, 2))
    E11[0, 0] = 1.0
    sol = solve_dense(np.eye(2), [E11], [1.0])
    assert sol.status != "optimal"


def test_sdp_infeasible_detected():
    # <E11, X> = -1 is impossible for X >= 0
    E11 = np.zeros((2, 2))
    E11[0, 0] = 1.0
    sol = solve_dense(np.eye(2), [E11], [-1.0])
    assert sol.status in ("infeasible_detected", "max_iter")
    assert sol.status != "optimal"


# ---------------------------------------------------------------------------
# XOR-structured constraint backend against explicit matrices


def block_constraint_matrices(n, k, masks, classes):
    """Dense matrices of the block Gram constraints, in the backend's row
    order: (c, i, j) for i <= j (c != 0 on diagonal blocks), then the trace
    rows tr X_ii - tr X_00."""
    N = masks.size
    xor = np.bitwise_xor.outer(masks, masks)
    mats = []
    for i in range(k):
        for j in range(i, k):
            for c in classes:
                if c == 0 and i == j:
                    continue
                pattern = (xor == c).astype(np.float64)
                A = np.zeros((k * N, k * N))
                if i == j:
                    A[i * N:(i + 1) * N, i * N:(i + 1) * N] = pattern
                else:
                    A[i * N:(i + 1) * N, j * N:(j + 1) * N] = 0.5 * pattern
                    A[j * N:(j + 1) * N, i * N:(i + 1) * N] = 0.5 * pattern
                mats.append(A)
    for i in range(1, k):
        A = np.zeros((k * N, k * N))
        A[i * N:(i + 1) * N, i * N:(i + 1) * N] = np.eye(N)
        A[:N, :N] -= np.eye(N)
        mats.append(A)
    return mats


@pytest.mark.parametrize("n,k,r", [(4, 1, 2), (4, 2, 2), (4, 3, 2), (3, 3, 1), (6, 1, 2), (7, 1, 3)])
def test_xor_backend_matches_dense(monkeypatch, n, k, r):
    rng = np.random.default_rng(100 * n + 10 * k + r)
    masks = masks_up_to_weight(n, r)
    classes = masks_up_to_weight(n, min(2 * r, n))
    xor = _XorConstraints(n, masks, classes, k)
    dense = _DenseConstraints(block_constraint_matrices(n, k, masks, classes))
    assert xor.m == dense.m
    B = rng.standard_normal((k * masks.size, k * masks.size))
    W = B @ B.T
    y = rng.standard_normal(dense.m)

    def rel(a, b):
        return np.max(np.abs(a - b)) / np.max(np.abs(b))

    # both Schur products, whichever the cost rule picks
    S = dense.schur([W])
    for schur in (xor.schur, xor._schur_pairs, xor._schur_transforms):
        assert rel(schur([W]), S) <= 1e-12
    # a chunk budget of 3 to 6 rows (a row has at most kN index pairs): some
    # batch of the pair Schur spans several chunks and ends on a partial one
    kN = k * masks.size
    monkeypatch.setattr(outer_hierarchy, "_PAIR_CHUNK_BYTES", 3 * 8 * kN * 4 * kN)
    small = _XorConstraints(n, masks, classes, k)
    chunks = {}
    for rows, I, _ in small._pair_plans[0][0]:
        chunks.setdefault(I.shape[1], []).append(rows.size)
    assert any(len(sizes) > 1 and sizes[-1] < sizes[0] for sizes in chunks.values())
    assert rel(small._schur_pairs([W]), S) <= 1e-12
    assert rel(xor.apply([W]), dense.apply([W])) <= 1e-12
    assert rel(xor.adjoint(y)[0], dense.adjoint(y)[0]) <= 1e-12


def even_span(n):
    """Reduced echelon basis of the even masks, the span of a connected
    graph's max-cut spectrum."""
    return _span(n, np.array([3 << i for i in range(n - 1)]))


@pytest.mark.parametrize("n,r,k,split,product", [
    (12, 2, 1, False, "pairs"), (9, 3, 1, False, "transforms"), (9, 2, 1, False, "pairs"),
    (5, 2, 2, False, "transforms"), (4, 2, 3, False, "transforms"),
    (9, 3, 1, True, "transforms"), (12, 2, 1, True, "pairs"), (6, 3, 2, True, "transforms"),
], ids=["12-2-pairs", "9-3-transforms", "9-2-pairs", "5-2-k2-transforms", "4-2-k3-transforms",
        "maxcut-9-3-split-transforms", "maxcut-12-2-split-pairs", "maxcut-6-3-k2-split-transforms"])
def test_schur_cost_rule(n, r, k, split, product):
    # the pairs' gather beats 4^n transforms at r = 2; at (9, 3), N = 130
    # and the transforms are about three times faster; at the benchmark's
    # matrix shapes the cube has 2^5 and 2^4 points, so the transforms are
    # cheap against kN = 32 and 33 Gram rows. Split over the even masks,
    # (9, 3) keeps the transforms on a 2^8 grid (blocks of 37 and 93, 246
    # classes), (12, 2) the pairs over blocks of 67 and 12, and the 2 x 2
    # (6, 3) the transforms on a 2^5 grid (blocks of 32 and 52)
    ops = _XorConstraints(n, masks_up_to_weight(n, r), masks_up_to_weight(n, 2 * r), k,
                          even_span(n) if split else None)
    assert ops.schur_product == product
    if split:
        assert len(ops.sizes) == 2 and ops.h == n - 1


@pytest.mark.parametrize("k", [1, 2])
def test_constraint_map_beyond_the_cap(k):
    # n = 40: the basis builder, apply, adjoint and the pair Schur hold no
    # 2^n array
    n = 40
    ops = _XorConstraints(n, masks_up_to_weight(n, 1), masks_up_to_weight(n, 2), k)
    assert ops.schur_product == "pairs"
    rng = np.random.default_rng(40 + k)
    B = rng.standard_normal((k * (n + 1), k * (n + 1)))
    X, W = B + B.T, B @ B.T
    y = rng.standard_normal(ops.m)
    (Ay,) = ops.adjoint(y)
    assert abs(ops.apply([X]) @ y - np.tensordot(X, Ay)) <= 1e-12 * np.linalg.norm(X) * np.linalg.norm(Ay)
    S = ops.schur([W])
    for j in (0, ops.m // 2, ops.m - 1):
        unit = np.zeros(ops.m)
        unit[j] = 1.0
        column = ops.apply([W @ ops.adjoint(unit)[0] @ W])
        assert np.max(np.abs(S[:, j] - column)) <= 1e-12 * np.max(np.abs(column))


# ---------------------------------------------------------------------------
# sign cosets


def span_elements(gens):
    """Every XOR of a subset of gens, by doubling."""
    H = {0}
    for g in gens:
        H |= {h ^ int(g) for h in H}
    return H


@pytest.mark.parametrize("seed", range(10))
def test_sign_cosets_partition_the_basis(seed):
    # a random subspace H of F_2^n, n <= 12: the cosets partition the basis,
    # two masks share a coset exactly when their XOR is in H, the kept
    # classes are those in H, and the grid coordinates are one-to-one on each
    # coset and linear: grid(a XOR c) = grid(a) XOR grid(c) for c in H
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 13))
    r = int(rng.integers(1, min(3, n) + 1))
    gens = rng.integers(0, 1 << n, size=int(rng.integers(0, n + 1)))
    # sparse generators too, so that H can hold low-weight masks only
    gens = np.concatenate([gens, [1 << int(i) ^ 1 << int(j) for i, j in rng.integers(0, n, (2, 2))]])
    span = _span(n, gens)
    H = span_elements(gens)
    assert len(H) == 1 << span.size
    masks, classes = masks_up_to_weight(n, r), masks_up_to_weight(n, 2 * r)
    ops = _XorConstraints(n, masks, classes, 1, span)
    assert np.array_equal(np.sort(np.concatenate(ops.cosets)), np.arange(masks.size))
    assert ops.sizes == [idx.size for idx in ops.cosets]
    assert ops.cosets[0][0] == 0  # H itself comes first
    inH = np.array(sorted(H))
    assert np.array_equal(ops.classes, classes[np.isin(classes, inH)])
    assert np.array_equal(classes[ops.kept], ops.classes)
    label = np.empty(masks.size, dtype=np.int64)
    for g, idx in enumerate(ops.cosets):
        label[idx] = g
    same = label[:, None] == label[None, :]
    assert np.array_equal(np.isin(np.bitwise_xor.outer(masks, masks), inH), same)
    sample = rng.choice(inH, size=min(inH.size, 8), replace=False)
    for idx, grid in zip(ops.cosets, ops._grid):
        assert np.unique(grid).size == grid.size
        assert grid.max(initial=0) < 1 << span.size
        for c in sample:
            moved = _quotient(masks[idx] ^ c, span)[1]
            assert np.array_equal(moved, grid ^ _quotient(np.array([c]), span)[1][0])


@pytest.mark.parametrize("n,r,k,seed", [(5, 2, 1, 1), (6, 2, 1, 2), (6, 3, 1, 3), (7, 2, 1, 4),
                                         (5, 2, 2, 5), (6, 3, 2, 6), (4, 2, 3, 7), (5, 2, 3, 8)],
                         ids=["5-2-1", "6-2-2", "6-3-3", "7-2-4",
                              "5-2-k2-5", "6-3-k2-6", "4-2-k3-7", "5-2-k3-8"])
def test_split_map_and_schur_match_dense_on_the_classes_of_the_span(n, r, k, seed):
    # a block-diagonal W over the cosets of a random H: the quotient
    # transforms and the per-coset pairs give the dense Schur complement
    # restricted to the classes in H and the trace rows, and apply and
    # adjoint the dense map's
    rng = np.random.default_rng(seed)
    span = _span(n, rng.integers(0, 1 << n, size=n // 2))
    masks, classes = masks_up_to_weight(n, r), masks_up_to_weight(n, min(2 * r, n))
    ops = _XorConstraints(n, masks, classes, k, span)
    assert len(ops.cosets) > 1
    dense = _DenseConstraints(block_constraint_matrices(n, k, masks, classes))
    # dense rows: per block the classes (but class 0 on the diagonal), then
    # the k - 1 trace rows
    inH = np.isin(np.arange(classes.size), ops.kept)
    keep = [inH[1:] if i == j else inH for i in range(k) for j in range(i, k)]
    rows = np.flatnonzero(np.concatenate(keep + [np.ones(k - 1, dtype=bool)]))
    assert rows.size == ops.m
    W = []
    for size in ops.sizes:
        B = rng.standard_normal((size, size))
        W.append(B @ B.T)
    full = ops.assemble(W)
    S = dense.schur([full])[np.ix_(rows, rows)]

    def rel(a, b):
        return np.max(np.abs(a - b)) / np.max(np.abs(b))

    for schur in (ops._schur_transforms, ops._schur_pairs):
        assert rel(schur(W), S) <= 1e-12
    assert rel(ops.apply(W), dense.apply([full])[rows]) <= 1e-12
    y = np.zeros(dense.m)
    y[rows] = rng.standard_normal(rows.size)
    # y is 0 off the span, so the dense adjoint is 0 across cosets
    assert rel(ops.assemble(ops.adjoint(y[rows])), dense.adjoint(y)[0]) <= 1e-12


def maxcut_graph(n, seed):
    """Weighted G(n, 1/2) with integer weights 1..3, as a max-cut polynomial."""
    rng = np.random.default_rng(seed)
    W = np.triu(rng.integers(1, 4, (n, n)) * (rng.random((n, n)) < 0.5), 1)
    return maxcut_instance(W + W.T)


@pytest.mark.parametrize("n,r", [(6, 2), (7, 3), (8, 2), (9, 3), (10, 2), (10, 3), (12, 2)])
def test_split_matches_one_block_on_maxcut(n, r):
    f = maxcut_graph(n, 100 + n)
    fmin = brute_force_min(f)[0]
    res = outer_cube(f, r)
    assert res.diagnostics["status"] == "optimal"
    assert len(res.diagnostics["blocks"]) >= 2
    assert sum(res.diagnostics["blocks"]) == res.basis.size
    # the same problem as one block, through the solver directly
    fhat = spectrum(f)
    masks, classes = masks_up_to_weight(n, r), masks_up_to_weight(n, 2 * r)
    ops = _XorConstraints(n, masks, classes, 1)
    b = ops.gather([fhat])
    scale = float(np.max(np.abs(b)))
    sol = _solve_ipm([np.eye(masks.size)], ops, b / scale)
    assert sol.status == "optimal"
    whole = fhat[0] - scale * sol.primal_obj
    assert abs(res.value - whole) <= 1e-9 * abs(whole)
    assert max(res.value, whole) <= fmin + 1e-6
    # moments vanish off the span (odd classes), the Gram across cosets
    odd = np.array([bin(int(c)).count("1") % 2 == 1 for c in classes])
    assert not res.moments[odd].any() and res.moments[0] == 1.0
    assert res.diagnostics["constraints"] == np.count_nonzero(~odd) - 1
    assert verify_sos_certificate(res, f).ok


@pytest.mark.parametrize("n,r,k", [(5, 2, 2), (6, 2, 2), (5, 2, 3), (6, 3, 2)])
def test_split_matches_one_block_on_maxcut_matrices(n, r, k):
    # max-cut entries have spectra on the even masks, so the k x k block
    # Gram splits into the even and odd characters
    F = MatrixPolynomial.from_entries(n, k, {(i, j): maxcut_graph(n, 10 * n + 3 * i + j)
                                             for i in range(k) for j in range(i, k)})
    res = outer_matrix(F, r)
    assert res.diagnostics["status"] == "optimal"
    assert len(res.diagnostics["blocks"]) >= 2
    assert sum(res.diagnostics["blocks"]) == k * res.basis.size
    fhat = F.spectra()
    masks, classes = masks_up_to_weight(n, r), masks_up_to_weight(n, 2 * r)
    ops = _XorConstraints(n, masks, classes, k)
    assert res.diagnostics["constraints"] < ops.m
    b = ops.gather([fhat[block] for block in ops.blocks])
    scale = float(np.max(np.abs(b)))
    sol = _solve_ipm([np.eye(k * masks.size)], ops, b / scale)
    assert sol.status == "optimal"
    whole = (sum(fhat[i, i][0] for i in range(k)) - scale * sol.primal_obj) / k
    assert abs(res.value - whole) <= 1e-9 * abs(whole)
    assert res.value <= F.min_eigenvalue() + 1e-6
    # the Gram is 0 across the cosets
    odd = np.array([bin(int(a)).count("1") % 2 for a in np.tile(masks, k)])
    assert not res.gram[np.ix_(odd == 1, odd == 0)].any()


def test_constant_splits_into_one_by_one_blocks():
    # fhat = c e_0 spans H = {0}: every basis mask is its own coset, and no
    # class but 0 is in H, so no constraint is left
    res = outer_cube(CubePolynomial.constant(5, -2.5), 2)
    assert res.diagnostics["status"] == "optimal"
    assert res.diagnostics["blocks"] == [1] * 16
    assert res.diagnostics["constraints"] == 0
    assert res.value == pytest.approx(-2.5, abs=1e-7)
    assert res.moments[0] == 1.0 and not res.moments[1:].any()
    assert np.array_equal(res.gram, np.diag(np.diag(res.gram)))


def test_outer_pairs_reach():
    # n = 12, r = 2: the pair Schur holds no 4^n array
    f = random_poly(12, 2, seed=1)
    res = outer_cube(f, 2)
    assert (res.diagnostics["status"], res.diagnostics["schur"]) == ("optimal", "pairs")
    assert res.value <= brute_force_min(f)[0] + 1e-6


# ---------------------------------------------------------------------------
# outer bound on the cube


def test_outer_single_variable_exact():
    f = CubePolynomial.from_terms(1, [([1], 1.0)])
    res = outer_cube(f, 1)
    assert res.value == pytest.approx(0.0, abs=1e-7)


def test_outer_constant():
    f = CubePolynomial.constant(4, 1.5)
    res = outer_cube(f, 1)
    assert res.value == pytest.approx(1.5, abs=1e-7)


def test_outer_weight_function():
    res = outer_cube(weight_poly(4), 2)
    assert res.value == pytest.approx(0.0, abs=1e-6)
    assert res.value <= 1e-7


def test_outer_exactness_regime():
    # 2r >= n + d - 1 forces equality with the true minimum
    f = maxcut_instance([[0, 1, 1], [1, 0, 1], [1, 1, 0]])  # n=3, d=2 -> r=2
    fmin, _ = brute_force_min(f)
    res = outer_cube(f, 2)
    assert fmin == -2.0
    assert res.value == pytest.approx(fmin, abs=1e-6)


def test_outer_weak_duality_and_monotone():
    f = random_poly(6, 2, seed=12)
    fmin, _ = brute_force_min(f)
    values = [outer_cube(f, r).value for r in (1, 2, 3)]
    for v in values:
        assert v <= fmin + 1e-7
    assert values[0] <= values[1] + 1e-7
    assert values[1] <= values[2] + 1e-7


def test_outer_duality_consistency():
    f = random_poly(6, 2, seed=3)
    res = outer_cube(f, 2)
    assert res.value == pytest.approx(res.moment_value, abs=1e-6)


def test_outer_moments_normalized():
    f = random_poly(5, 2, seed=8)
    res = outer_cube(f, 2)
    assert res.moments[0] == 1.0


@pytest.mark.parametrize("n, r, seed", [(5, 3, 5), (6, 4, 8)])
def test_outer_moments_are_the_minimizer_characters_at_an_exact_order(n, r, seed):
    # 2r >= n + deg - 1 makes the bound exact, and with one minimizer x*,
    # well apart from the next value, the moments are those of the point
    # mass at x*: moments[i] = chi_c(x*) for c = masks_up_to_weight(n, 2r)[i]
    f = random_poly(n, 2, seed=seed)
    vals = np.sort(value_table(f))
    assert vals[1] - vals[0] >= 0.1
    res = outer_cube(f, r)
    xmask = point_to_mask(brute_force_min(f)[1])
    classes = masks_up_to_weight(n, 2 * r)
    chi = np.array([(-1.0) ** bin(int(c) & xmask).count("1") for c in classes])
    assert res.moments.shape == classes.shape
    assert res.moments[0] == 1.0
    assert np.max(np.abs(res.moments - chi)) <= 1e-6


def test_outer_r_too_small():
    f = random_poly(5, 3, seed=1)
    with pytest.raises(ValueError):
        outer_cube(f, 1)


def test_outer_sandwich_with_inner():
    f = random_poly(7, 2, seed=21)
    fmin, _ = brute_force_min(f)
    lo = outer_cube(f, 2).value
    hi = inner_cube(f, 2).value
    assert lo - 1e-6 <= fmin <= hi + 1e-8


# ---------------------------------------------------------------------------
# certificate verification


def test_verify_certificate_valid():
    f = random_poly(6, 2, seed=5)
    res = outer_cube(f, 3)
    ver = verify_sos_certificate(res, f)
    assert ver.ok
    assert ver.max_residual <= 1e-6
    assert ver.gram_min_eigenvalue >= -1e-8


def test_verify_certificate_detects_bad_gram():
    f = random_poly(5, 2, seed=6)
    res = outer_cube(f, 2)
    w, V = np.linalg.eigh(res.gram)
    w[0] -= 1e-3
    bad = OuterBoundResult(res.value, (V * w) @ V.T, res.order, res.basis,
                          res.moment_value, res.moments, res.diagnostics)
    ver = verify_sos_certificate(bad, f)
    assert not ver.psd


def test_verify_certificate_refuses_a_matrix_gram():
    # a k x k input's Gram is kN x kN over N characters
    F = random_matrix_poly(4, 2, 2, seed=15)
    res = outer_matrix(F, 2)
    with pytest.raises(ValueError, match=r"shape \(22, 22\) does not match the basis of 11 characters"):
        verify_sos_certificate(res, F.entry(0, 0))


def test_verify_zero_polynomial():
    f = CubePolynomial(4, {})
    res = OuterBoundResult(0.0, np.zeros((5, 5)), 1,
                           np.array([0, 1, 2, 4, 8]), 0.0, None, {})
    ver = verify_sos_certificate(res, f)
    assert ver.max_residual == 0.0 and ver.ok


# ---------------------------------------------------------------------------
# matrix-valued


def test_outer_matrix_scalar_reduction():
    f = random_poly(5, 2, seed=9)
    F = MatrixPolynomial.from_entries(5, 1, {(0, 0): f})
    a = outer_cube(f, 2).value
    b = outer_matrix(F, 2).value
    assert a == pytest.approx(b, abs=1e-6)


def test_outer_matrix_diagonal_decouples():
    f1 = random_poly(4, 2, seed=10)
    f2 = random_poly(4, 2, seed=11)
    F = MatrixPolynomial.from_entries(4, 2, {(0, 0): f1, (1, 1): f2})
    expect = min(outer_cube(f1, 2).value, outer_cube(f2, 2).value)
    assert outer_matrix(F, 2).value == pytest.approx(expect, abs=1e-6)


def test_outer_matrix_constant():
    C = np.array([[1.0, 0.5], [0.5, -1.0]])
    entries = {(i, j): CubePolynomial.constant(3, C[i, j])
               for i in range(2) for j in range(i, 2)}
    F = MatrixPolynomial.from_entries(3, 2, entries)
    lam = float(np.linalg.eigvalsh(C)[0])
    assert outer_matrix(F, 1).value == pytest.approx(lam, abs=1e-6)


def test_outer_matrix_lower_bounds_minimum():
    F = random_matrix_poly(5, 2, 2, seed=14)
    assert outer_matrix(F, 2).value <= F.min_eigenvalue() + 1e-6


@pytest.mark.parametrize("c", [2.0**-900, 2.0**900])
def test_outer_is_solved_at_unit_scale(c):
    # the IPM sees b / max|b| whatever the scale of f, so a power-of-two
    # multiple of f gives the same solve, scaled back exactly
    f = random_poly(6, 2, seed=3)
    g = CubePolynomial(f.n, {m: c * v for m, v in f.terms.items()})
    res, res_c = outer_cube(f, 2), outer_cube(g, 2)
    assert res_c.value == c * res.value
    assert res_c.moment_value == c * res.moment_value
    assert np.array_equal(res_c.gram, c * res.gram)
    assert np.array_equal(res_c.moments, res.moments)


def test_outer_non_finite_iterate_raises(monkeypatch):
    monkeypatch.setattr(_XorConstraints, "apply", lambda self, X: np.full(self.m, np.nan))
    with pytest.raises(SolverError, match="iterate 1 is not finite"):
        outer_cube(random_poly(4, 2, seed=1), 1)


@pytest.mark.parametrize("entry", [(0, 0), (0, -1)], ids=["diagonal", "off-diagonal"])
def test_outer_non_finite_schur_raises(monkeypatch, entry):
    # the solver's factorizations skip scipy's finiteness check: a NaN in S
    # still ends in SolverError, not in ValueError
    schur = _XorConstraints.schur

    def poisoned(self, W):
        S = schur(self, W)
        S[entry] = np.nan
        return S

    monkeypatch.setattr(_XorConstraints, "schur", poisoned)
    for call in (lambda: outer_cube(random_poly(5, 2, seed=9), 2),
                 lambda: outer_matrix(random_matrix_poly(4, 2, 2, seed=15), 2)):
        with pytest.raises(SolverError):
            call()


def test_outer_unfactorable_schur_is_numerical(monkeypatch):
    monkeypatch.setattr(_XorConstraints, "schur", lambda self, W: -np.eye(self.m))
    with pytest.raises(SolverError, match=r"status=numerical"):
        outer_cube(random_poly(5, 2, seed=9), 2)


def test_outer_unconverged_raises_with_diagnostics(monkeypatch):
    monkeypatch.setattr(outer_hierarchy, "_MAX_ITER", 1)
    f = random_poly(5, 2, seed=9)
    F = random_matrix_poly(4, 2, 2, seed=15)
    for call in (lambda: outer_cube(f, 2), lambda: outer_matrix(F, 2)):
        with pytest.raises(SolverError, match=r"status=max_iter, gap=.*, pres="):
            call()
