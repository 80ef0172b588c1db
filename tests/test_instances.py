import itertools
import json

import numpy as np
import pytest

from cubesos.cube_fourier import CubePolynomial, brute_force_min, sup_norm, value_table
from cubesos.instances import (
    maxcut_instance,
    random_matrix_poly,
    random_poly,
    read_graph_json,
    stable_set_instance,
)


def cut_value(W, mask, n):
    total = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            if ((mask >> i) & 1) != ((mask >> j) & 1):
                total += W[i, j]
    return total


def test_maxcut_k2():
    f = maxcut_instance([[0, 1], [1, 0]])
    assert f.terms == {1: -1.0, 2: -1.0, 3: 2.0}
    assert brute_force_min(f)[0] == -1.0


def test_maxcut_zero_weights():
    f = maxcut_instance(np.zeros((3, 3)))
    assert f.terms == {}


def test_maxcut_k3():
    f = maxcut_instance([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    assert brute_force_min(f)[0] == -2.0


def test_maxcut_matches_cut_enumeration():
    rng = np.random.default_rng(2)
    n = 7
    W = rng.uniform(0, 1, (n, n))
    W = np.triu(W, 1)
    W = W + W.T
    f = maxcut_instance(W)
    best = max(cut_value(W, m, n) for m in range(1 << n))
    assert brute_force_min(f)[0] == pytest.approx(-best, abs=1e-10)


def test_maxcut_rejects_asymmetric():
    with pytest.raises(ValueError):
        maxcut_instance([[0, 1], [2, 0]])


def test_stable_set_empty_graph():
    f = stable_set_instance([], 5)
    assert -brute_force_min(f)[0] == 5.0


def test_stable_set_triangle():
    f = stable_set_instance([(1, 2), (2, 3), (1, 3)], 3)
    assert -brute_force_min(f)[0] == 1.0


def test_stable_set_c5():
    f = stable_set_instance([(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)], 5)
    assert -brute_force_min(f)[0] == 2.0


def test_stable_set_matches_independent_set_enumeration():
    rng = np.random.default_rng(3)
    n = 8
    edges = [(i + 1, j + 1) for i in range(n) for j in range(i + 1, n)
             if rng.uniform() < 0.4]
    f = stable_set_instance(edges, n)
    eset = {(a - 1, b - 1) for a, b in edges}
    alpha = 0
    for mask in range(1 << n):
        verts = [i for i in range(n) if (mask >> i) & 1]
        if all((a, b) not in eset for a in verts for b in verts if a < b):
            alpha = max(alpha, len(verts))
    assert -brute_force_min(f)[0] == pytest.approx(alpha, abs=1e-10)


def test_stable_set_rejects_self_loop():
    with pytest.raises(ValueError):
        stable_set_instance([(2, 2)], 4)


def test_random_poly_deterministic():
    a = random_poly(8, 3, seed=123)
    b = random_poly(8, 3, seed=123)
    assert a.terms == b.terms


def test_random_poly_degree_and_norm():
    for seed in range(5):
        p = random_poly(7, 2, seed=seed)
        assert p.degree == 2
        assert sup_norm(p) == pytest.approx(1.0, abs=1e-12)


def _random_poly_by_recursion(n, d, seed, normalize=True):
    """The generator as it was before it read masks_up_to_weight: a
    depth-first recursion over the monomials, each drawing in preorder."""
    rng = np.random.default_rng(seed)
    masks = []

    def emit(mask, start, weight):
        masks.append(mask)
        if weight == d:
            return
        for i in range(start, n):
            emit(mask | (1 << i), i + 1, weight + 1)

    emit(0, 0, 0)
    coefs = rng.uniform(-1.0, 1.0, len(masks))
    top = [k for k, m in enumerate(masks) if m.bit_count() == d]
    while d > 0 and np.max(np.abs(coefs[top])) < 1e-12:
        coefs[top] = rng.uniform(-1.0, 1.0, len(top))
    p = CubePolynomial(n, {m: float(c) for m, c in zip(masks, coefs) if c != 0.0})
    if normalize:
        norm = sup_norm(p)
        if norm > 0:
            p = p * (1.0 / norm)
    return p


@pytest.mark.parametrize("n,d", [(0, 0), (1, 1), (4, 0), (4, 4), (6, 3), (9, 2), (9, 3),
                                 (12, 2), (13, 3), (13, 5), (16, 2)])
@pytest.mark.parametrize("seed", [0, 1, 5])
def test_random_poly_matches_the_recursive_enumerator(n, d, seed):
    # the same monomials draw the same coefficients, bit for bit and in the
    # same term order, so every seeded instance (the benchmark's too) stays
    new, old = random_poly(n, d, seed), _random_poly_by_recursion(n, d, seed)
    assert list(new.terms.items()) == list(old.terms.items())


def test_random_polys_reject_negative_degree():
    # a negative d is refused, not read as an empty set of monomials
    with pytest.raises(ValueError, match="d=-1"):
        random_poly(5, -1, seed=1)
    with pytest.raises(ValueError, match="d=-1"):
        random_matrix_poly(5, -1, 2, seed=1)


def test_random_matrix_poly_normalized_symmetric():
    F = random_matrix_poly(5, 2, 2, seed=4)
    assert F.sup_norm() == pytest.approx(1.0, abs=1e-10)
    tables = F.value_tables()
    assert np.allclose(tables, np.swapaxes(tables, 1, 2))


def test_read_graph_json(tmp_path):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"n": 3, "edges": [[1, 2], [2, 3]], "weights": [2.0, 1.0]}))
    n, W = read_graph_json(path)
    assert n == 3
    assert W[0, 1] == 2.0 and W[1, 2] == 1.0 and W[0, 2] == 0.0


@pytest.mark.parametrize("n", [3.5, True, "3"])
def test_read_graph_json_rejects_non_integer_n(tmp_path, n):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"n": n, "edges": [[1, 2]]}))
    with pytest.raises(ValueError, match="graph JSON field 'n' must be an integer"):
        read_graph_json(path)
