import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubesos.config import CapExceededError
from cubesos.cube_fourier import (
    CubePolynomial,
    DimensionMismatchError,
    MatrixPolynomial,
    brute_force_min,
    evaluate,
    from_spectrum,
    fwht,
    harmonic_parts,
    mask_to_bitstring,
    masks_up_to_weight,
    polynomial_from_dict,
    polynomial_to_dict,
    popcount_table,
    read_polynomial_json,
    spectrum,
    sup_norm,
    value_table,
    write_polynomial_json,
)
from cubesos.instances import random_poly


def poly(n, terms):
    return CubePolynomial.from_terms(n, terms)


# ---------------------------------------------------------------------------
# evaluation


def test_evaluate_basic():
    p = poly(2, [([1], 1.0), ([2], 1.0), ([1, 2], -1.0)])
    assert evaluate(p, (1, 1)) == 1.0


def test_evaluate_zero_polynomial():
    p = CubePolynomial(3, {})
    for x in itertools.product((0, 1), repeat=3):
        assert evaluate(p, x) == 0.0


def test_evaluate_expanded_square():
    # -(x1-x2)^2 = -x1 - x2 + 2 x1 x2 on the cube
    p = poly(2, [([1], -1.0), ([2], -1.0), ([1, 2], 2.0)])
    assert evaluate(p, (1, 0)) == -1.0


def test_evaluate_dimension_mismatch():
    p = poly(2, [([1], 1.0)])
    with pytest.raises(DimensionMismatchError):
        evaluate(p, (1, 0, 1))


def test_repeated_variables_collapse():
    p = CubePolynomial.from_terms(2, [([1, 1], 1.0)])
    assert p.terms == {1: 1.0}


# ---------------------------------------------------------------------------
# Fourier transform


def test_fourier_of_constant():
    assert spectrum(CubePolynomial.constant(3, 1.0)).tolist() == [1.0] + [0.0] * 7


def test_fourier_of_single_variable():
    # x1 = (1 - chi_{e1}) / 2
    fhat = spectrum(poly(1, [([1], 1.0)]))
    assert fhat[0] == pytest.approx(0.5, abs=1e-15)
    assert fhat[1] == pytest.approx(-0.5, abs=1e-15)


def test_fourier_of_character_sum():
    # X_k = sum of weight-k characters has all weight-k coefficients equal 1
    n, k = 5, 2
    weight_k = popcount_table(n) == k
    p = from_spectrum(n, weight_k.astype(float))
    assert p.degree == k
    fhat = spectrum(p)
    assert np.array_equal(np.flatnonzero(fhat), np.flatnonzero(weight_k))
    assert np.all(fhat[weight_k] == 1.0)


def test_fourier_cap():
    with pytest.raises(CapExceededError):
        spectrum(CubePolynomial.constant(30, 1.0))


def test_fwht_involution(rng):
    v = rng.standard_normal(64)
    assert np.allclose(fwht(fwht(v)) / 64, v)


@pytest.mark.parametrize("rows,n", [(1, 0), (3, 1), (5, 6), (7, 7), (2, 13)])
def test_row_transforms_come_back_transposed(rows, n, rng):
    from cubesos.cube_fourier import _HADAMARD, _kron_transform

    a = rng.standard_normal((rows, 1 << n))
    out = _kron_transform(_HADAMARD, a)
    assert out.shape == (1 << n, rows)
    expect = np.stack([fwht(row) for row in a], axis=1)
    assert np.max(np.abs(out - expect)) <= 1e-14 * np.abs(a).sum()


@pytest.mark.parametrize("n", [0, 1, 5, 6, 7, 12, 13])
def test_transforms_across_block_boundaries(n, rng):
    # sizes on both sides of each pass boundary of the blocked transform
    v = rng.standard_normal(1 << n)
    v_in = v.copy()
    out = fwht(v)
    assert np.array_equal(v, v_in)
    if n <= 12:
        H = np.ones((1, 1))
        for _ in range(n):
            H = np.kron(H, [[1.0, 1.0], [1.0, -1.0]])
        assert np.max(np.abs(out - H @ v)) <= 1e-14 * np.abs(v).sum()
    p = random_poly(n, min(n, 3), seed=n)
    vals = value_table(p)
    points = itertools.product((0, 1), repeat=n)
    expect = [evaluate(p, x[::-1]) for x in points]  # x[::-1]: variable 1 is bit 0
    assert np.max(np.abs(vals - expect)) <= 1e-12
    fhat = spectrum(p)
    assert np.max(np.abs(fhat - fwht(vals) / vals.size)) <= 1e-15 * np.abs(vals).max()
    assert not fhat[popcount_table(n) > p.degree].any()
    back = from_spectrum(n, fhat)
    assert back.degree == p.degree
    for m in range(1 << n):
        assert abs(back.terms.get(m, 0.0) - p.terms.get(m, 0.0)) <= 1e-12


@settings(deadline=None, max_examples=30)
@given(st.integers(2, 6), st.integers(0, 2**30))
def test_fourier_round_trip(n, seed):
    p = random_poly(n, min(3, n), seed=seed, normalize=False)
    back = fwht(spectrum(p))
    assert np.max(np.abs(back - value_table(p))) <= 1e-12


@settings(deadline=None, max_examples=20)
@given(st.integers(2, 6), st.integers(0, 2**30))
def test_parseval(n, seed):
    p = random_poly(n, min(3, n), seed=seed, normalize=False)
    mean_sq = float(np.mean(value_table(p) ** 2))
    assert float(np.sum(spectrum(p) ** 2)) == pytest.approx(mean_sq, rel=1e-10)


def test_character_orthonormality_exact():
    # integer arithmetic divided by 2^n: exact delta_{a,b}; exhaustive pairs
    # for small n, sampled pairs up to n = 10
    rng = np.random.default_rng(0)
    for n in (2, 3, 4, 8, 10):
        pc = popcount_table(n)
        x = np.arange(1 << n)
        if n <= 4:
            pairs = [(a, b) for a in range(1 << n) for b in range(1 << n)]
        else:
            pairs = [tuple(rng.integers(0, 1 << n, 2)) for _ in range(60)]
        for a, b in pairs:
            prod = (1 - 2 * (pc[x & a] % 2)) * (1 - 2 * (pc[x & b] % 2))
            assert int(prod.sum()) == ((1 << n) if a == b else 0)


# ---------------------------------------------------------------------------
# harmonic decomposition


def test_harmonic_parts_single_variable():
    # x1 on {0,1}^2, indexed by mask: 1/2 and -chi_{e1}/2
    parts = harmonic_parts(poly(2, [([1], 1.0)]))
    assert parts.shape == (2, 4)
    assert parts[0] == pytest.approx([0.5] * 4)
    assert parts[1] == pytest.approx([-0.5, 0.5, -0.5, 0.5])


def test_harmonic_parts_constant():
    parts = harmonic_parts(CubePolynomial.constant(4, 3.5))
    assert parts.shape == (1, 16)
    assert parts[0] == pytest.approx([3.5] * 16)


def test_harmonic_parts_weights_and_sum(rng):
    p = random_poly(6, 3, seed=5)
    parts = harmonic_parts(p)
    pc = popcount_table(6)
    for k, part in enumerate(parts):
        # part k has no Fourier coefficient off weight k, up to rounding
        assert np.max(np.abs(fwht(part)[pc != k])) / part.size <= 1e-15
    assert np.max(np.abs(parts.sum(axis=0) - value_table(p))) <= 1e-10


def test_harmonic_parts_mutually_orthogonal():
    p = random_poly(6, 3, seed=9)
    tabs = harmonic_parts(p)
    for i in range(len(tabs)):
        for j in range(i + 1, len(tabs)):
            inner = np.mean(tabs[i] * tabs[j])
            assert abs(inner) <= 1e-12


@settings(deadline=None, max_examples=20)
@given(st.integers(2, 6), st.integers(1, 3), st.integers(0, 2**30))
def test_fourier_support_within_degree(n, d, seed):
    p = random_poly(n, min(d, n), seed=seed, normalize=False)
    assert not spectrum(p)[popcount_table(n) > p.degree].any()


# ---------------------------------------------------------------------------
# sup norm, minimization, translation


def test_sup_norm_character():
    n = 4
    chi = from_spectrum(n, np.eye(1 << n)[5])
    assert sup_norm(chi) == pytest.approx(1.0, abs=1e-12)


def test_sup_norm_weight():
    p = poly(5, [([i + 1], 1.0) for i in range(5)])
    assert sup_norm(p) == 5.0


def test_sup_norm_expanded_square():
    p = poly(2, [([1], -1.0), ([2], -1.0), ([1, 2], 2.0)])
    assert sup_norm(p) == 1.0


def test_brute_min_weight():
    p = poly(4, [([i + 1], 1.0) for i in range(4)])
    val, arg = brute_force_min(p)
    assert val == 0.0 and list(arg) == [0, 0, 0, 0]


def test_brute_min_tie_break_lexicographic():
    # maxcut on K2: minimizers (0,1) and (1,0); lexicographically (0,1) wins
    p = poly(2, [([1], -1.0), ([2], -1.0), ([1, 2], 2.0)])
    val, arg = brute_force_min(p)
    assert val == -1.0 and list(arg) == [0, 1]


def test_brute_min_constant():
    val, arg = brute_force_min(CubePolynomial.constant(3, 2.5))
    assert val == 2.5 and list(arg) == [0, 0, 0]


@pytest.mark.parametrize("n", range(13))
def test_popcount_table_matches_bit_count(n):
    pc = popcount_table(n)
    assert pc.dtype == np.int64
    assert pc.tolist() == [m.bit_count() for m in range(1 << n)]


def test_masks_up_to_weight_order():
    assert list(masks_up_to_weight(3, 2)) == [0, 1, 2, 4, 3, 5, 6]
    # against a scan of the cube, empty below weight 0 and whole above n
    for n in range(13):
        for r in range(-1, n + 2):
            masks = masks_up_to_weight(n, r)
            assert masks.dtype == np.int64
            assert masks.tolist() == sorted((m for m in range(2**n) if m.bit_count() <= r),
                                            key=lambda m: (m.bit_count(), m)), (n, r)


def test_masks_up_to_weight_beyond_the_cap(monkeypatch):
    # grown by weight, not scanned: n = 40 is far above the default cap
    monkeypatch.delenv("CUBESOS_MAX_N", raising=False)
    assert masks_up_to_weight(40, 2).size == 1 + 40 + 780
    with pytest.raises(ValueError, match="n=63"):
        masks_up_to_weight(63, 1)


# ---------------------------------------------------------------------------
# JSON formats


def test_polynomial_json_round_trip(tmp_path):
    p = poly(3, [([1], 0.5), ([2, 3], -1.25)])
    data = polynomial_to_dict(p)
    assert data == {
        "n": 3,
        "terms": [{"vars": [1], "coef": 0.5}, {"vars": [2, 3], "coef": -1.25}],
    }
    assert polynomial_from_dict(json.loads(json.dumps(data))).terms == p.terms


def test_polynomial_fourier_json_round_trip():
    p = poly(3, [([1], 1.0), ([1, 2], 2.0)])
    data = polynomial_to_dict(p, form="fourier")
    assert all(len(item["a"]) == 3 for item in data["fourier"])
    q = polynomial_from_dict(data)
    assert np.max(np.abs(value_table(q) - value_table(p))) <= 1e-12


def test_fourier_json_reads_back_its_degree(tmp_path):
    p = random_poly(10, 2, seed=3)
    path = tmp_path / "f.json"
    write_polynomial_json(p, path, form="fourier")
    q = read_polynomial_json(path)
    assert set(q.terms) == set(p.terms) and q.degree == 2
    assert max(abs(q.terms[m] - c) for m, c in p.terms.items()) <= 1e-15


def test_fourier_json_rejects_non_binary_bitstring():
    data = {"n": 3, "fourier": [{"a": "000", "coef": 1.0}, {"a": "1x0", "coef": 2.0}]}
    with pytest.raises(ValueError, match="'1x0'"):
        polynomial_from_dict(data)


def test_fourier_json_sums_repeats():
    data = {"n": 2, "fourier": [{"a": "10", "coef": 1.0}, {"a": "10", "coef": 0.5}]}
    assert polynomial_from_dict(data).terms == {0: 1.5, 1: -3.0}


@pytest.mark.parametrize("data, message", [
    ({"n": 2, "terms": [{"vars": [1], "coef": 1.0}], "fourier": [{"a": "11", "coef": 5.0}]},
     "both a 'terms' and a 'fourier' field"),
    ({"n": 2.7, "terms": [{"vars": [1], "coef": 1.0}]}, "field 'n' must be an integer, got 2.7"),
    ({"n": "2", "fourier": []}, "field 'n' must be an integer, got '2'"),
    ({"n": True, "terms": []}, "field 'n' must be an integer, got True"),
], ids=["both-forms", "fractional-n", "string-n", "boolean-n"])
def test_polynomial_json_rejects_ambiguous_input(data, message):
    with pytest.raises(ValueError, match=message):
        polynomial_from_dict(data)


def test_bitstring_convention():
    # variable 1 is the leftmost character
    assert mask_to_bitstring(1, 3) == "100"


def test_matrix_polynomial_symmetric_completion():
    f = poly(2, [([1], 1.0)])
    M = MatrixPolynomial.from_entries(2, 2, {(0, 1): f})
    assert M.entry(1, 0).terms == f.terms
    assert M.entry(0, 0).terms == {}


def test_matrix_polynomial_conflict_rejected():
    a = poly(2, [([1], 1.0)])
    b = poly(2, [([2], 1.0)])
    with pytest.raises(ValueError):
        MatrixPolynomial.from_entries(2, 2, {(0, 1): a, (1, 0): b})


def test_matrix_polynomial_min_eigenvalue():
    F = MatrixPolynomial.from_entries(
        2, 2, {(0, 0): poly(2, [([1], 1.0)]), (1, 1): poly(2, [([2], 1.0)])}
    )
    assert F.min_eigenvalue() == 0.0
    assert F.sup_norm() == 1.0


def test_matrix_polynomial_json():
    from cubesos.cube_fourier import matrix_polynomial_from_dict

    data = {
        "n": 3,
        "k": 2,
        "entries": [
            {"i": 1, "j": 1, "poly": [{"vars": [1], "coef": 1.0}]},
            {"i": 1, "j": 2, "poly": [{"vars": [2, 3], "coef": -0.5}]},
        ],
    }
    F = matrix_polynomial_from_dict(data)
    assert F.k == 2
    assert F.entry(0, 0).terms == {1: 1.0}
    assert F.entry(1, 0).terms == {6: -0.5}  # symmetric completion


@pytest.mark.parametrize("data, message", [
    ({"n": 2.7, "k": 1, "entries": []}, "field 'n' must be an integer, got 2.7"),
    ({"n": 2, "k": 1.9, "entries": []}, "field 'k' must be an integer, got 1.9"),
    ({"n": 2, "k": True, "entries": []}, "field 'k' must be an integer, got True"),
    ({"n": 2, "k": 2, "entries": [{"i": 1.5, "j": 2, "poly": []}]},
     "field 'i' must be an integer, got 1.5"),
    ({"n": 2, "k": 2, "entries": [{"i": 1, "j": "2", "poly": []}]},
     "field 'j' must be an integer, got '2'"),
])
def test_matrix_polynomial_json_rejects_non_integers(data, message):
    from cubesos.cube_fourier import matrix_polynomial_from_dict

    with pytest.raises(ValueError, match=f"matrix polynomial JSON {message}"):
        matrix_polynomial_from_dict(data)


def test_enumeration_cap_env(monkeypatch):
    from cubesos.config import CapExceededError

    monkeypatch.setenv("CUBESOS_MAX_N", "4")
    p = CubePolynomial.constant(5, 1.0)
    with pytest.raises(CapExceededError):
        value_table(p)
    monkeypatch.delenv("CUBESOS_MAX_N")
    assert value_table(p).size == 32


def test_overflowing_tables_are_refused_without_warnings(recwarn):
    from cubesos.inner_hierarchy import inner_cube

    # finite coefficients, values overflowing at x = 1100 (1e308 + 1e308)
    f = CubePolynomial(4, {0b1: 1e308, 0b10: 1e308, 0b100: -1e308})
    values = r"value table of f is not finite at n=4: f\(1100\) = inf"
    with pytest.raises(ValueError, match=values):
        value_table(f)
    with pytest.raises(ValueError, match=values):
        brute_force_min(f)
    with pytest.raises(ValueError, match=values):  # from the inner bound's F table
        inner_cube(f, 2)
    # the spectrum itself overflows: fhat(0) = 3 * 1.5e308 / 2
    g = CubePolynomial(4, {0b1: 1.5e308, 0b10: 1.5e308, 0b100: 1.5e308})
    with pytest.raises(ValueError, match=r"spectrum of f is not finite at n=4: fhat\(0000\) = inf"):
        spectrum(g)
    assert [str(w.message) for w in recwarn] == []
