"""Measure-based (inner) hierarchy bounds: upper bounds on the minimum.

All variants reduce to a smallest-eigenvalue problem. On the cube the basis
is the characters (orthonormal under the uniform measure mu), so the order-r
bound is the smallest eigenvalue of A[a,b] = fhat(a XOR b) over |a|,|b| <= r;
a k x k matrix input fills k^2 such blocks from the spectra of its entries,
and scalar input is the k = 1 case of the same block matrix. On the integer
grid [0:n] the basis is the w-orthonormal Krawtchouk family, whose
multiplication matrix entries are exact finite sums over the grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .cube_fourier import (
    CubePolynomial,
    MatrixPolynomial,
    masks_up_to_weight,
    popcount_table,
    spectrum,
    value_table,
)
from .krawtchouk import DiscreteMeasure, orthonormal_table

__all__ = [
    "InnerBoundResult",
    "inner_univariate",
    "inner_univariate_values",
    "inner_cube",
    "inner_cube_symmetrized",
    "inner_matrix",
    "symmetrize_to_univariate",
]


@dataclass(frozen=True)
class InnerBoundResult:
    value: float
    order: int
    density_coeffs: np.ndarray  # eigenvector: the density is its square
    diagnostics: dict = field(default_factory=dict)


def _smallest_eigenpair(A: np.ndarray) -> tuple[float, np.ndarray]:
    if A.shape[0] <= 128:
        w, v = np.linalg.eigh(A)
        return float(w[0]), v[:, 0]
    w, v = sla.eigh(A, subset_by_index=(0, 0))
    return float(w[0]), v[:, 0]


def _result(A: np.ndarray, order: int, extra: dict | None = None) -> InnerBoundResult:
    val, vec = _smallest_eigenpair(A)
    residual = float(np.linalg.norm(A @ vec - val * vec))
    diag = {"matrix_size": A.shape[0], "eig_residual": residual}
    if extra:
        diag.update(extra)
    if not np.isfinite(val):
        raise ArithmeticError(f"eigenvalue solve failed: residual={residual!r}")
    return InnerBoundResult(val, order, vec, diag)


def inner_univariate_values(
    g_values: np.ndarray, measure: DiscreteMeasure, r: int
) -> InnerBoundResult:
    """Order-r inner bound for a function given by its values on [0:n].

    Builds A[i,j] = <g p_i, p_j>_w in the orthonormal Krawtchouk basis (an
    exact finite sum, the measure being discrete) and takes the smallest
    eigenvalue; the eigenvector is the optimal square-root density.
    """
    n = measure.n
    _check_order(n, r)
    gv = np.asarray(g_values, dtype=np.float64)
    if gv.shape != (n + 1,):
        raise ValueError("g_values must have length n+1")
    P = orthonormal_table(n, r, measure.q)
    A = (P * (gv * measure.weights)) @ P.T
    return _result(A, r)


def inner_univariate(g_coeffs, measure: DiscreteMeasure, r: int) -> InnerBoundResult:
    """Order-r inner bound for the polynomial with the given monomial
    coefficients (ascending), over [0:n] with the measure's weights."""
    coeffs = np.asarray(g_coeffs, dtype=np.float64).ravel()
    t = np.arange(measure.n + 1, dtype=np.float64)
    gv = np.polynomial.polynomial.polyval(t, coeffs)
    return inner_univariate_values(gv, measure, r)


def _check_order(n: int, r: int) -> None:
    if not 0 <= r <= n:
        raise ValueError(f"r={r} out of range 0..{n}")


def _block_matrix(n: int, k: int, spectra: dict, r: int) -> np.ndarray:
    """A[(i,a),(j,b)] = fhat_ij(a XOR b) over characters of weight <= r, from
    the upper-triangle spectra; block (j, i) repeats block (i, j), which is
    symmetric."""
    masks = masks_up_to_weight(n, r)
    xor = np.bitwise_xor.outer(masks, masks)
    N = masks.size
    A = np.zeros((k * N, k * N))
    for (i, j), fhat in spectra.items():
        block = A[i * N:(i + 1) * N, j * N:(j + 1) * N]
        # every index is in range; "clip" writes in place, unbuffered
        np.take(fhat, xor, out=block, mode="clip")
        if i != j:
            A[j * N:(j + 1) * N, i * N:(i + 1) * N] = block
    return A


def inner_cube(f: CubePolynomial, r: int) -> InnerBoundResult:
    """The order-r inner bound on min f over {0,1}^n.

    Smallest eigenvalue of (fhat(a XOR b)) over characters of weight <= r;
    exact at r = n, monotone nonincreasing in r.
    """
    _check_order(f.n, r)
    return _result(_block_matrix(f.n, 1, {(0, 0): spectrum(f)}, r), r, {"k": 1})


def symmetrize_to_univariate(f: CubePolynomial) -> np.ndarray:
    """Values F(0..n) of the coordinate-permutation average of f, which
    depends on x only through its Hamming weight."""
    vals = value_table(f)
    pc = popcount_table(f.n)
    sums = np.bincount(pc, weights=vals, minlength=f.n + 1)
    counts = np.bincount(pc, minlength=f.n + 1)
    return sums / counts


def inner_cube_symmetrized(f: CubePolynomial, r: int) -> InnerBoundResult:
    """Inner bound restricted to permutation-invariant densities: the
    univariate bound of the symmetrized profile F on [0:n]. Always at least
    as large as inner_cube(f, r)."""
    F = symmetrize_to_univariate(f)
    return inner_univariate_values(F, DiscreteMeasure(f.n, 2), r)


def inner_matrix(F: MatrixPolynomial, r: int) -> InnerBoundResult:
    """Order-r inner bound on min_x lambda_min(F(x)) for a symmetric
    matrix-valued polynomial: smallest eigenvalue of the block matrix
    A[(i,a),(j,b)] = Fhat_ij(a XOR b)."""
    _check_order(F.n, r)
    return _result(_block_matrix(F.n, F.k, F.spectra(), r), r, {"k": F.k})
