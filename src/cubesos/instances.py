"""Benchmark instance generators: max-cut, stable set, random polynomials."""

from __future__ import annotations

import json

import numpy as np

from .cube_fourier import (
    CubePolynomial,
    MatrixPolynomial,
    json_integer,
    masks_up_to_weight,
    sup_norm,
)

__all__ = [
    "maxcut_instance",
    "stable_set_instance",
    "random_poly",
    "random_matrix_poly",
    "read_graph_json",
]


def maxcut_instance(weights) -> CubePolynomial:
    """f(x) = -sum_{i<j} w_ij (x_i - x_j)^2, multilinearized; min f = -maxcut(w)."""
    W = np.asarray(weights, dtype=np.float64)
    n = W.shape[0]
    if W.shape != (n, n) or np.max(np.abs(W - W.T)) > 0:
        raise ValueError("weights must be a symmetric square matrix")
    if np.any(np.diag(W) != 0):
        raise ValueError("weights must have zero diagonal")
    terms = []
    for i in range(n):
        for j in range(i + 1, n):
            w = W[i, j]
            if w != 0.0:
                # (x_i - x_j)^2 = x_i + x_j - 2 x_i x_j on the cube
                terms.append(([i + 1], -w))
                terms.append(([j + 1], -w))
                terms.append(([i + 1, j + 1], 2 * w))
    return CubePolynomial.from_terms(n, terms)


def stable_set_instance(edges, n: int) -> CubePolynomial:
    """Negated stability objective: f = -(sum_i x_i - sum_{ij in E} x_i x_j),
    so that -min f is the stability number of the graph."""
    terms = [([i + 1], -1.0) for i in range(n)]
    seen = set()
    for i, j in edges:
        if i == j:
            raise ValueError(f"self-loop at vertex {i}")
        if not (1 <= i <= n and 1 <= j <= n):
            raise ValueError("edge endpoint out of range (vertices are 1-based)")
        key = (min(i, j), max(i, j))
        if key in seen:
            continue
        seen.add(key)
        terms.append(([i, j], 1.0))
    return CubePolynomial.from_terms(n, terms)


def random_poly(n: int, d: int, seed: int, normalize: bool = True) -> CubePolynomial:
    """Random multilinear polynomial of degree exactly d, sup-norm 1.

    Coefficients are drawn uniformly from [-1, 1], independently per monomial
    of size <= d; the top-degree block is resampled if it comes out
    (numerically) zero, and the result is rescaled to sup-norm 1 unless
    ``normalize=False``.
    """
    if d > n:
        raise ValueError("d must be <= n")
    if d < 0:
        raise ValueError(f"d must be >= 0, got d={d}")
    rng = np.random.default_rng(seed)
    # each monomial draws in the order of its increasing tuple of variables
    masks = sorted(masks_up_to_weight(n, d).tolist(),
                   key=lambda m: [i for i in range(n) if m >> i & 1])
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


def random_matrix_poly(n: int, d: int, k: int, seed: int) -> MatrixPolynomial:
    """Random symmetric k x k matrix polynomial of degree d, spectral sup-norm 1."""
    entries = {}
    for i in range(k):
        for j in range(i, k):
            entries[(i, j)] = random_poly(n, d, seed + 101 * (i * k + j) + 1,
                                          normalize=False)
    F = MatrixPolynomial.from_entries(n, k, entries)
    norm = F.sup_norm()
    if norm > 0:
        entries = {key: poly * (1.0 / norm) for key, poly in F.entries.items()}
        F = MatrixPolynomial(n, k, entries)
    return F


def read_graph_json(path) -> tuple[int, np.ndarray]:
    """Edge-list file {"n":..., "edges":[[i,j],...], "weights":[...]?} ->
    (n, symmetric weight matrix). Missing weights default to 1."""
    with open(path) as fh:
        data = json.load(fh)
    n = json_integer(data, "n", "graph")
    if n < 1:
        raise ValueError(f"graph JSON field 'n' must be >= 1, got {n}")
    edges = data["edges"]
    weights = data.get("weights", [1.0] * len(edges))
    if len(weights) != len(edges):
        raise ValueError("weights must match edges in length")
    W = np.zeros((n, n))
    for (i, j), w in zip(edges, weights):
        if not all(type(v) is int and 1 <= v <= n for v in (i, j)):
            raise ValueError(f"edge {[i, j]}: endpoints must be integers 1..{n}")
        if i == j:
            raise ValueError(f"self-loop at vertex {i}")
        W[i - 1, j - 1] += w
        W[j - 1, i - 1] += w
    return n, W
