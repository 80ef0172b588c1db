"""Measure-based (inner) hierarchy bounds: upper bounds on the minimum.

All variants reduce to a smallest-eigenvalue problem. On the cube the basis
is the characters (orthonormal under the uniform measure mu), so the order-r
bound is the smallest eigenvalue of A[a,b] = fhat(a XOR b) over |a|,|b| <= r;
a k x k matrix input fills k^2 such blocks from the spectra of its entries,
and scalar input is the k = 1 case of the same block matrix. A is XOR
convolution by fhat restricted to those characters, so a product A v costs
two Walsh-Hadamard transforms per block: v to the square-root density p on
the cube, times F's values, and back to the characters of weight <= r.
Above a size switch (the cube of the size against the cost of one product)
the eigenpair comes from Lanczos (ARPACK) on that product and A is never
formed; below it A is gathered and solved densely.
On the integer grid [0:n] the basis is the w-orthonormal Krawtchouk family,
whose multiplication matrix entries are exact finite sums over the grid.

The value reported is the integral of f against the density p^2 / <p, p>
of the computed eigenvector, not the eigenvalue: every p gives a feasible
density, so the value bounds the minimum from above even if the eigen-solve
is loose. The eigenvalue is kept as ``diagnostics["eigenvalue"]``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import SolverError
from .cube_fourier import (
    CubePolynomial,
    MatrixPolynomial,
    fwht,
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


# The solver switch, at the measured crossover (one BLAS thread). Dense eigh
# costs about size^3 flops. Lanczos costs some tens of products, each of
# ``product_cost`` units (k n 2^n for the cube operator: k transforms of n
# passes over 2^n points; size^2 for a formed matrix) plus a fixed overhead in
# ARPACK and numpy calls worth about _PRODUCT_OVERHEAD units. Dense while
# size^3 <= _DENSE_RATIO * (product_cost + _PRODUCT_OVERHEAD): N = 130 at
# n = 9 stays dense (3 ms against 6), N = 299 at n = 12 goes to Lanczos
# (11 ms against 18), and N = 1351 at n = 20 stays dense (0.8 s against 4.3).
_DENSE_RATIO = 250
_PRODUCT_OVERHEAD = 40_000


def _smallest_eigenpair(A) -> tuple[float, np.ndarray]:
    """Smallest eigenvalue and a unit eigenvector of the symmetric operator A
    (``shape``, ``product_cost``, ``dense()`` and ``A @ v``): eigh on the
    formed matrix below the size switch, Lanczos (ARPACK eigsh) on the
    product above it."""
    size = A.shape[0]
    if size ** 3 <= _DENSE_RATIO * (A.product_cost + _PRODUCT_OVERHEAD):
        w, v = np.linalg.eigh(A.dense())
        return float(w[0]), v[:, 0]
    # imported here, so that callers with small problems never load it
    from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

    op = LinearOperator(A.shape, matvec=A.__matmul__, dtype=np.float64)
    # a seeded random start: ones or e_0 can lie in A's kernel, where ARPACK stops
    v0 = np.random.default_rng(0).standard_normal(size)
    try:
        w, v = eigsh(op, k=1, which="SA", tol=0, v0=v0)
    except ArpackError as exc:  # ArpackNoConvergence included
        raise SolverError(f"Lanczos eigen-solve of size {size} failed: {exc}") from exc
    return float(w[0]), v[:, 0]


def _result(A, order: int, extra: dict | None = None) -> InnerBoundResult:
    size = A.shape[0]
    if A.is_zero:
        # every density of degree <= 2r integrates f to 0 (on the cube: f has
        # no spectrum at weights <= 2r), and Lanczos would break down at its
        # first product
        eigenvalue, vec, value, residual = 0.0, np.eye(1, size)[0], 0.0, 0.0
    else:
        eigenvalue, vec = _smallest_eigenpair(A)
        value = A.integral(vec)
        residual = float(np.linalg.norm(A @ vec - eigenvalue * vec))
    if not (np.isfinite(eigenvalue) and np.isfinite(value)):
        raise SolverError(f"eigenvalue solve failed: eigenvalue={eigenvalue!r}, "
                          f"density integral={value!r}, residual={residual!r}")
    diag = {"matrix_size": size, "eigenvalue": eigenvalue, "eig_residual": residual}
    if extra:
        diag.update(extra)
    return InnerBoundResult(value, order, vec, diag)


class _GridOperator:
    """A[i,j] = <g p_i, p_j>_w over the w-orthonormal Krawtchouk family p_i of
    degree <= r on [0:n]: an exact finite sum over the grid, formed densely."""

    def __init__(self, g: np.ndarray, measure: DiscreteMeasure, r: int):
        self.g, self.w = g, measure.weights
        self.table = orthonormal_table(measure.n, r, measure.q)
        self.matrix = (self.table * (g * self.w)) @ self.table.T
        self.shape = self.matrix.shape
        self.product_cost = self.matrix.size
        self.is_zero = not self.matrix.any()

    def dense(self) -> np.ndarray:
        return self.matrix

    def __matmul__(self, v) -> np.ndarray:
        return self.matrix @ v

    def integral(self, v) -> float:
        """sum_t w(t) g(t) p(t)^2 / sum_t w(t) p(t)^2 for p = sum_i v_i p_i."""
        pw = (v @ self.table) ** 2 * self.w
        return float(pw @ self.g / pw.sum())


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
    return _result(_GridOperator(gv, measure, r), r)


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


def _block_matrix(masks: np.ndarray, k: int, spectra: dict) -> np.ndarray:
    """A[(i,a),(j,b)] = fhat_ij(a XOR b) over the given characters, from the
    upper-triangle spectra; block (j, i) repeats block (i, j), which is
    symmetric."""
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


class _XorBlocks:
    """The block matrix A[(i,a),(j,b)] = Fhat_ij(a XOR b) over characters of
    weight <= r, as an operator: A v is F p on the cube, for p the
    square-root density of v, restricted back to those characters."""

    def __init__(self, n: int, k: int, spectra: dict, r: int):
        self.n, self.k, self.spectra = n, k, spectra
        self.masks = masks_up_to_weight(n, r)
        self.shape = (k * self.masks.size,) * 2
        self.product_cost = k * n << n  # k transforms of 2^n points, n passes each
        low = popcount_table(n) <= 2 * r  # A reads each spectrum only there
        self.is_zero = not any(fhat[low].any() for fhat in spectra.values())
        # F(x) at every cube point, shape (k, k, 2^n)
        self.tables = np.zeros((k, k, 1 << n))
        for (i, j), fhat in spectra.items():
            self.tables[i, j] = self.tables[j, i] = fwht(fhat)

    def dense(self) -> np.ndarray:
        return _block_matrix(self.masks, self.k, self.spectra)

    def _densities(self, v) -> np.ndarray:
        """p_i(x) = sum_a v[(i,a)] chi_a(x) on the cube, shape (k, 2^n)."""
        coeffs = np.zeros((self.k, 1 << self.n))
        coeffs[:, self.masks] = np.reshape(v, (self.k, -1))
        return np.array([fwht(c) for c in coeffs])

    def _apply(self, p: np.ndarray) -> np.ndarray:
        """(F p)(x) = F(x) p(x) at every cube point."""
        return np.einsum("ijx,jx->ix", self.tables, p)

    def __matmul__(self, v) -> np.ndarray:
        fp = self._apply(self._densities(v))
        return np.concatenate([fwht(c)[self.masks] for c in fp]) / (1 << self.n)

    def integral(self, v) -> float:
        """sum_x p(x)^T F(x) p(x) / sum_x |p(x)|^2 for the density of v."""
        p = self._densities(v)
        return float(np.vdot(p, self._apply(p)) / np.vdot(p, p))


def inner_cube(f: CubePolynomial, r: int) -> InnerBoundResult:
    """The order-r inner bound on min f over {0,1}^n.

    Smallest eigenvalue of (fhat(a XOR b)) over characters of weight <= r;
    exact at r = n, monotone nonincreasing in r.
    """
    _check_order(f.n, r)
    return _result(_XorBlocks(f.n, 1, {(0, 0): spectrum(f)}, r), r, {"k": 1})


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
    return _result(_XorBlocks(F.n, F.k, F.spectra(), r), r, {"k": F.k})
