import dataclasses
import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cubesos.cube_fourier import (
    CubePolynomial,
    brute_force_min,
    from_spectrum,
    fwht,
    mask_to_bitstring,
    point_to_mask,
    popcount_table,
    spectrum,
    sup_norm,
    value_table,
)
from cubesos.gamma_constants import gamma_d
from cubesos.inner_hierarchy import inner_cube
from cubesos.instances import random_poly
from cubesos.kernel_certifier import (
    CertificationError,
    certify,
    _apply_by_weight,
    choose_kernel,
    error_sweep,
)
from cubesos.krawtchouk import DiscreteMeasure, kraw_hat_table, kraw_int, least_root
from cubesos.outer_hierarchy import outer_cube


def weight_poly(n):
    return CubePolynomial.from_terms(n, [([i + 1], 1.0) for i in range(n)])


# ---------------------------------------------------------------------------
# kernel selection


def test_choose_kernel_degree_zero():
    spec = choose_kernel(8, 0, 2)
    assert spec.lambda_tilde == pytest.approx(0.0, abs=1e-12)
    assert spec.lambda_abs == 0.0
    assert spec.delta == 0.0
    assert spec.lambdas[0] == pytest.approx(1.0, abs=1e-10)


def test_choose_kernel_normalization_and_bounds():
    for (n, d, r) in [(10, 1, 5), (10, 2, 5), (12, 3, 4)]:
        spec = choose_kernel(n, d, r)
        assert spec.lambdas[0] == pytest.approx(1.0, abs=1e-10)
        assert np.all(spec.lambdas <= 1.0 + 1e-10)
        # optimum is dominated by the linear-estimator value
        assert spec.lambda_tilde <= d * (d + 1) * least_root(n, 2, r + 1) / n + 1e-9


def test_choose_kernel_lambda_vs_lambda_tilde():
    spec = choose_kernel(10, 2, 5)
    assert spec.lambda_tilde <= 0.5
    assert spec.lambda_abs <= 2 * spec.lambda_tilde + 1e-9


def test_kernel_objective_vanishes_at_origin():
    # the optimized profile g has g(0) = 0: all normalized values are 1 there
    n, d = 12, 3
    khat = kraw_hat_table(n, d, 2)
    g0 = d - khat[1:d + 1, 0].sum()
    assert g0 == pytest.approx(0.0, abs=1e-14)


def test_lambda_reconstruction():
    # sum_i lam_i K_i(t) = u^2(t) on the grid
    import math

    n, d, r = 12, 2, 5
    spec = choose_kernel(n, d, r)
    K = np.array([[kraw_int(n, 2, k, t) for t in range(n + 1)] for k in range(2 * r + 1)],
                 dtype=float)
    recon = spec.lambdas @ K
    usq = spec.u_values**2
    assert np.max(np.abs(recon - usq)) <= 1e-9 * max(1.0, usq.max())


def test_kernel_exact_at_full_order():
    spec = choose_kernel(6, 2, 6)
    assert spec.lambda_tilde == pytest.approx(0.0, abs=1e-9)
    assert np.all(np.abs(spec.lambdas[:3] - 1.0) <= 1e-8)


def test_linear_estimator_dominates_profile():
    # d - sum Khat_i <= d(d+1) t / n on the grid: exhaustive for n <= 60, d <= 6
    for n in range(1, 61):
        khat = kraw_hat_table(n, min(6, n), 2)
        t = np.arange(n + 1)
        for d in range(1, min(6, n) + 1):
            g = d - khat[1:d + 1].sum(axis=0)
            assert np.all(g <= d * (d + 1) * t / n + 1e-10)


# ---------------------------------------------------------------------------
# the averaging operator


def _apply_T(spec, values):
    """T on a value table: the weight-k part scaled by lam_k (0 beyond 2r)."""
    lam = np.zeros(spec.n + 1)
    top = min(spec.lambdas.size, spec.n + 1)
    lam[:top] = spec.lambdas[:top]
    return _apply_by_weight(lam, values, spec.n)


def _apply_T_inverse(spec, values, degree):
    """T^{-1} on a value table of degree <= degree."""
    inv = np.zeros(spec.n + 1)
    inv[:degree + 1] = 1.0 / spec.lambdas[:degree + 1]
    return _apply_by_weight(inv, values, spec.n)


def test_funk_hecke_order_zero_kernel_averages():
    n = 6
    spec = choose_kernel(n, 0, 0)
    p = random_poly(n, 2, seed=3)
    assert _apply_T(spec, np.ones(1 << n)) == pytest.approx(np.ones(1 << n))
    vals = value_table(p)
    assert _apply_T(spec, vals) == pytest.approx(np.full(1 << n, vals.mean()))


def test_funk_hecke_eigenrelation_vs_direct_sum():
    # T chi_z = lam_{|z|} chi_z, checked against the explicit kernel sum
    rng = np.random.default_rng(1)
    for n, d, r in [(6, 2, 3), (7, 1, 2), (8, 2, 4)]:
        spec = choose_kernel(n, d, r)
        pc = popcount_table(n)
        usq = spec.u_values**2
        x_all = np.arange(1 << n)
        lam = np.zeros(n + 1)  # eigenvalue is 0 beyond the kernel degree 2r
        lam[: spec.lambdas.size] = spec.lambdas
        for z in rng.integers(0, 1 << n, size=12):
            chi_z = 1.0 - 2.0 * (pc[np.bitwise_and(x_all, int(z))] % 2)
            direct = np.array([
                np.mean(chi_z * usq[pc[np.bitwise_xor(x_all, x)]]) for x in x_all
            ])
            expected = lam[pc[int(z)]] * chi_z
            assert np.max(np.abs(direct - expected)) <= 1e-9


def test_funk_hecke_invert_roundtrip():
    n = 7
    spec = choose_kernel(n, 3, 4)
    vals = value_table(random_poly(n, 3, seed=4))
    q = _apply_T(spec, _apply_T_inverse(spec, vals, 3))
    assert np.max(np.abs(q - vals)) <= 1e-9


def test_funk_hecke_preserves_degree():
    # T^{-1} scales harmonic components, so its output has no Fourier
    # coefficient above the input's degree (n > 2r), up to rounding
    n = 10
    spec = choose_kernel(n, 2, 3)
    p = random_poly(n, 2, seed=5)
    inv_p = _apply_T_inverse(spec, value_table(p), p.degree)
    high = popcount_table(n) > p.degree
    assert np.max(np.abs(fwht(inv_p)[high])) / inv_p.size <= 1e-15 * np.abs(inv_p).max()
    q = _apply_T(spec, inv_p)
    assert np.max(np.abs(q - value_table(p))) <= 1e-9


def test_operator_norm_surrogate():
    # || T^{-1} p - p ||_inf <= gamma_d * Lambda * ||p||_inf
    n, d, r = 8, 2, 4
    spec = choose_kernel(n, d, r)
    for seed in range(10):
        p = random_poly(n, d, seed=seed)
        inv_p = _apply_T_inverse(spec, value_table(p), d)
        dev = np.max(np.abs(inv_p - value_table(p)))
        assert dev <= gamma_d(d) * spec.lambda_abs * sup_norm(p) + 1e-9


# ---------------------------------------------------------------------------
# certificates


def test_certify_constant():
    cert = certify(CubePolynomial.constant(6, 2.0), 2)
    assert cert.delta == 0.0
    assert cert.residual <= 1e-12
    assert np.all(cert.weights >= 0.0)


def test_certify_weight_function():
    n, r = 8, 4
    f = weight_poly(n) * (1.0 / n)
    cert = certify(f, r)
    assert cert.residual <= 1e-7
    assert np.all(cert.weights >= 0.0)
    # budget dominated by the closed-form bound for d = 1
    assert cert.delta <= 2 * gamma_d(1) * 2 * least_root(n, 2, r + 1) / n + 1e-9


def test_certify_random_validates_everywhere():
    n, r = 10, 5
    for seed in (0, 1):
        f = random_poly(n, 2, seed=seed)
        cert = certify(f, r)
        check = cert.verify(f)
        assert check["max_residual"] <= 1e-7
        assert check["min_weight"] >= 0.0
        assert cert.weights.size == 1 << n


def test_certify_reports_lambda_tilde_when_infeasible():
    f = random_poly(6, 2, seed=5)
    with pytest.raises(CertificationError, match="lambda_tilde"):
        certify(f, 1)


def test_certification_error_is_the_config_one():
    from cubesos import config

    assert CertificationError is config.CertificationError


def test_choose_kernel_bookkeeping_mismatch_is_a_solver_error(monkeypatch):
    from cubesos import kernel_certifier
    from cubesos.config import SolverError

    solve = kernel_certifier.inner_univariate_values
    monkeypatch.setattr(kernel_certifier, "inner_univariate_values",
                        lambda *args: dataclasses.replace(solve(*args), value=solve(*args).value + 1.0))
    with pytest.raises(SolverError, match="bookkeeping"):
        choose_kernel(10, 2, 5)


def test_certificate_json_schema():
    f = random_poly(5, 2, seed=2)
    data = certify(f, 3).to_dict()
    assert set(data) == {"delta", "r", "u_coeffs", "weights", "translate", "scale", "residual"}
    assert len(data["weights"]) == 1 << 5
    assert all(set(w) == {"y", "w"} for w in data["weights"])
    assert len(data["translate"]) == 5


def _json_of_records(cert):
    """The certificate text built record by record, as a dict per weight."""
    data = {
        "delta": cert.delta,
        "r": cert.r,
        "u_coeffs": [float(c) for c in cert.u_coeffs],
        "weights": [
            {"y": mask_to_bitstring(y, cert.n), "w": float(w)}
            for y, w in enumerate(cert.weights)
        ],
        "translate": mask_to_bitstring(point_to_mask(cert.translate), cert.n),
        "scale": cert.scale,
        "residual": cert.residual,
    }
    return json.dumps(data, indent=1) + "\n"


@pytest.mark.parametrize("tight", [False, True])
@pytest.mark.parametrize("n, r", [(0, 0), (1, 1), (2, 1), (5, 3), (9, 4), (12, 4), (14, 5)])
def test_to_json_matches_record_by_record_json(n, r, tight):
    f = CubePolynomial.constant(0, 2.0) if n == 0 else random_poly(n, min(2, n), seed=n)
    cert = certify(f, r, tight=tight)
    text = cert.to_json()
    assert text == _json_of_records(cert)
    assert cert.to_dict() == json.loads(text)


@pytest.mark.parametrize("n, r", [(5, 3), (9, 4)])
def test_json_pieces_span_blocks_and_end_on_a_partial_one(monkeypatch, n, r):
    from cubesos import kernel_certifier

    monkeypatch.setattr(kernel_certifier, "_RECORD_BLOCK", 3)
    cert = certify(random_poly(n, 2, seed=n), r)
    pieces = list(cert.json_pieces())
    assert (1 << n) % 3 != 0  # the last block is partial
    assert len(pieces) == 1 + -(-(1 << n) // 3) + 1  # head, every block, tail
    assert "".join(pieces) == _json_of_records(cert) == cert.to_json()


@pytest.mark.parametrize("block, batch", [(5, 3), (7, 2), (3, 8)])
def test_json_pieces_with_text_batches_across_blocks(monkeypatch, block, batch):
    # the records of a block are formatted batch rows at a time; here a
    # batch ends inside a block, or is wider than the block
    from cubesos import kernel_certifier

    monkeypatch.setattr(kernel_certifier, "_RECORD_BLOCK", block)
    monkeypatch.setattr(kernel_certifier, "_TEXT_BATCH", batch)
    for tight in (False, True):
        cert = certify(random_poly(6, 2, seed=6), 3, tight=tight)
        pieces = list(cert.json_pieces())
        assert len(pieces) == 1 + -(-64 // block) + 1
        assert "".join(pieces) == _json_of_records(cert)


# ---------------------------------------------------------------------------
# weight text: the records writer against float.__repr__


def _weight_texts(values):
    """The "w" texts of a records writer over values (n = 0, one block),
    and the number of values it left to repr."""
    from cubesos.kernel_certifier import _RecordText

    x = np.array(values, dtype=np.float64)
    records = _RecordText(0, x.size, 64)
    text = records.block(x, 0, x.size, True)
    return re.findall(r'"w": (.*)\n', text), records.fallbacks


def _assert_reprs(values):
    texts, _ = _weight_texts(values)
    assert texts == [repr(float(v)) for v in values]


def _ulps(x, k):
    """x and its k neighbours below and above, within [0, max float]."""
    out = [x]
    for direction in (0.0, math.inf):
        y = x
        for _ in range(k):
            y = math.nextafter(y, direction)
            out.append(y)
    return [v for v in out if math.isfinite(v)]


@settings(deadline=None, max_examples=200)
@given(st.lists(st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
                min_size=1, max_size=80))
@example([0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 0.0, 1.0, 0.5])
def test_weight_text_is_float_repr(values):
    _assert_reprs(values)


def test_weight_text_of_powers_of_two_and_ten():
    _assert_reprs([v for e in range(-80, 61) for v in _ulps(2.0**e, 3)])
    _assert_reprs([v for e in range(-20, 21) for v in _ulps(float(f"1e{e}"), 3)])


def test_weight_text_of_exact_decimal_midpoints():
    # odd multiples of 2^-t end in the digit 5 when written out exactly
    _assert_reprs([j * 2.0**-t for t in range(1, 64) for j in range(1, 200, 2)])
    _assert_reprs([j * 2.0**-18 for j in range(2**17 + 1, 2**17 + 4000, 2)])


def test_weight_text_of_short_decimals():
    rng = np.random.default_rng(12)
    values = rng.random(3000) * 10.0 ** rng.integers(-12, 16, 3000)
    _assert_reprs([round(float(v), int(d)) for v, d in zip(values, rng.integers(0, 17, 3000))])


def test_weight_text_across_the_layout_switches_and_the_exponent_window():
    # exponent form below 1e-4 and from 1e16; the integer path formats
    # k = floor(log10 x) in -11..15 and hands the rest to repr
    edges = [1e-4, 1e16, 1.0, 10.0, 1e-11, 1e-12, 1e15, 1e14, 9.5e15, 9.5e-12, 0.5e-11]
    _assert_reprs([v for x in edges for v in _ulps(x, 3)])
    _assert_reprs([9.999999999999999e-5, 9999999999999998.0, 0.00010000000000000002,
                   1.0000000000000002e16, 123456789012345.67, 4503599627370495.5])


def test_weight_text_takes_the_integer_path_on_ordinary_values():
    rng = np.random.default_rng(5)
    small = rng.random(5000) * 3e-5
    texts, fallbacks = _weight_texts(small)
    assert texts == [repr(float(v)) for v in small] and fallbacks == 0
    # above about 1e10 an ulp is a short decimal, and some values lie
    # exactly half-way between two candidates: those are left to repr
    wide = 10.0 ** rng.uniform(-10, 13, 5000)
    texts, fallbacks = _weight_texts(wide)
    assert texts == [repr(float(v)) for v in wide] and fallbacks <= 5


@pytest.mark.parametrize("tight", [False, True])
@pytest.mark.parametrize("n", [12, 13, 14, 15, 16])
def test_weight_text_of_certificates_is_nearly_all_integer_path(n, tight):
    from cubesos.kernel_certifier import _RecordText

    weights = certify(random_poly(n, 2, seed=n), n // 3, tight=tight).weights
    records = _RecordText(n, weights.size, 4096)
    records.block(weights, 0, weights.size, True)
    assert records.fallbacks <= 0.001 * weights.size


def test_to_json_refuses_non_finite_weights():
    cert = certify(random_poly(5, 2, seed=2), 3)
    for bad in (np.nan, np.inf):
        w = cert.weights.copy()
        w[6] = bad
        with pytest.raises(ValueError, match="y=01100"):
            dataclasses.replace(cert, weights=w).to_json()
        # refused when the stream is made, before its first piece
        with pytest.raises(ValueError, match="y=01100"):
            dataclasses.replace(cert, weights=w).json_pieces()


def test_certify_rejects_non_finite_value_table():
    # 1e308 + 1e308 overflows at x = 1100
    f = CubePolynomial(4, {0b1: 1e308, 0b10: 1e308, 0b100: -1e308})
    with pytest.raises(ValueError, match=r"not finite at n=4: f\(1100\) = inf"):
        certify(f, 2)
    # finite values whose range max f - min f overflows
    g = CubePolynomial(4, {0b1: 1e308, 0b10: -1e308})
    with pytest.raises(ValueError, match="range of f overflows at n=4"):
        certify(g, 2)


def test_certificate_backs_outer_bound():
    # brute force >= SDP value >= brute force - delta, certified
    n, r = 8, 4
    for seed in (3, 4):
        f = random_poly(n, 2, seed=seed)
        fmin, _ = brute_force_min(f)
        cert = certify(f, r)
        sdp = outer_cube(f, r).value
        assert sdp <= fmin + 1e-7
        assert sdp >= fmin - cert.delta_original - 1e-7


def test_tight_certificate_never_larger():
    n, r = 10, 4
    for seed in range(5):
        f = random_poly(n, 2, seed=seed)
        loose = certify(f, r)
        tight = certify(f, r, tight=True)
        gap = tight.delta_original
        assert gap <= loose.delta_original + 1e-12
        assert tight.residual <= 1e-7
        assert np.all(tight.weights >= 0.0)


def test_exactness_at_full_order_certificate():
    f = random_poly(6, 2, seed=6)
    gap = certify(f, 6, tight=True).delta_original
    assert gap <= 1e-9


@pytest.mark.parametrize("tight", [False, True])
def test_certificate_commutes_with_translation(tight):
    # g(x) = f(x XOR s) has minimizer x0 XOR s and the same values, so the
    # certificate is f's moved by s: same budget, scale and weights
    n, r = 9, 3
    f = random_poly(n, 2, seed=11)
    vals = value_table(f)
    assert np.count_nonzero(vals == vals.min()) == 1
    fhat = spectrum(f)
    pc = popcount_table(n)
    for s in (0b1, 0b101100110, (1 << n) - 1):
        # ghat(a) = fhat(a) (-1)^{|a AND s|}
        g = from_spectrum(n, fhat * (1 - 2 * (pc[np.arange(1 << n) & s] % 2)))
        assert g.degree == f.degree
        cf, cg = certify(f, r, tight=tight), certify(g, r, tight=tight)
        assert cg.delta == pytest.approx(cf.delta, rel=1e-12, abs=1e-15)
        assert cg.scale == pytest.approx(cf.scale, rel=1e-12)
        assert np.max(np.abs(cg.weights - cf.weights)) <= 1e-12 * cf.weights.max()
        moved = point_to_mask(cg.translate) ^ point_to_mask(cf.translate)
        assert moved == s


# ---------------------------------------------------------------------------
# sweeps


def test_error_sweep_rows():
    rows = list(error_sweep(2, [8], [0.25, 0.5], samples=3, seed=1))
    assert len(rows) == 2
    for row in rows:
        assert row["max_outer_gap"] <= row["bound_2Cd_xi_over_n"] + 1e-6
        assert row["max_inner_gap"] <= row["bound_2Cd_xi_over_n"] + 1e-6
        assert "errors" not in row


def test_error_sweep_runs_each_cell_once():
    # at n = 8, r/n = 0.2 and 0.3 both round to r = 2
    rows = list(error_sweep(2, [8], [0.2, 0.3], samples=1))
    assert [(row["n"], row["r"]) for row in rows] == [(8, 2)]


@pytest.mark.parametrize("failure, name", [
    ("gram", "outer Gram certificate"),
    ("residual", "certificate residual"),
    ("weights", "certificate weights"),
])
def test_certificate_demo_exits_1_on_a_failed_check(monkeypatch, capsys, failure, name):
    import importlib.util
    import pathlib

    from cubesos.kernel_certifier import SosCubeCertificate
    from cubesos.outer_hierarchy import SosVerification

    path = pathlib.Path(__file__).parents[1] / "scripts" / "certificate_demo.py"
    spec = importlib.util.spec_from_file_location("certificate_demo", path)
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    monkeypatch.setattr("sys.argv", ["certificate_demo.py", "--n", "4", "--r", "2"])
    assert demo.main() == 0
    if failure == "gram":
        monkeypatch.setattr(demo, "verify_sos_certificate",
                            lambda res, f: SosVerification(1.0, -1.0, False, False))
    else:
        verify = SosCubeCertificate.verify
        bad = {"residual": ("max_residual", 1.0), "weights": ("min_weight", -1.0)}[failure]
        monkeypatch.setattr(SosCubeCertificate, "verify",
                            lambda self, f: {**verify(self, f), bad[0]: bad[1]})
    capsys.readouterr()
    assert demo.main() == 1
    assert capsys.readouterr().err == f"check failed: {name}\n"
