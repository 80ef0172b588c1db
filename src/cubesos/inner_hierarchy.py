"""Measure-based (inner) hierarchy bounds: upper bounds on the minimum.

All variants reduce to a smallest-eigenvalue problem. On the cube the basis
is the characters (orthonormal under the uniform measure mu), so the order-r
bound is the smallest eigenvalue of A[a,b] = fhat(a XOR b) over |a|,|b| <= r;
a k x k matrix input fills k^2 such blocks from the spectra of its entries,
and scalar input is the k = 1 case of the same block matrix. A is XOR
convolution by fhat restricted to those characters. ``_cube_bound`` picks
the product A v once, by one cost rule, and builds only that one:

- the formed matrix, solved by eigh, below a size switch (the cube of the
  size against the cheaper of the other two products' costs): fhat over the
  classes of weight <= 2r, read through ``cube_fourier.xor_rows``, the
  class index of the outer bound's constraint map;
- above it, Lanczos (ARPACK) on the cheaper of
  - the sparse XOR gather: row a of a block reads fhat only on its support S
    at weights <= 2r, at the columns a XOR c of weight <= r, so A is one CSR
    matrix built from N x |S| lookups (_GATHER_RATIO units per lookup);
  - the transforms: two Walsh-Hadamard transforms per block, v to the
    square-root density p on the cube, times F's values, and back to the
    characters of weight <= r (k n 2^n units).

On the integer grid [0:n] the basis is the w-orthonormal Krawtchouk family,
whose multiplication matrix entries are exact finite sums over the grid; that
matrix is always formed and solved by eigh. ``inner_univariate_values`` takes
values on [0:n] and a ``DiscreteMeasure(n, q)``; at q > 2 it is the q-ary
bound.

The value reported is the Rayleigh quotient v^T A v / v^T v of the computed
eigenvector v, on the product the solve ran on, not the eigenvalue. By
Parseval it is the integral of f against the density p^2 / <p, p> of v, and
every p gives a feasible density, so the value bounds the minimum from above
even if the eigen-solve is loose. The eigenvalue is kept as
``diagnostics["eigenvalue"]``, and the product as ``diagnostics["product"]``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import SolverError, check_order
from .cube_fourier import (
    CubePolynomial,
    MatrixPolynomial,
    finite_table,
    fwht,
    masks_up_to_weight,
    popcount_table,
    spectrum,
    xor_rows,
)
from .krawtchouk import DiscreteMeasure, orthonormal_table

__all__ = [
    "InnerBoundResult",
    "inner_univariate_values",
    "inner_cube",
    "inner_matrix",
]


@dataclass(frozen=True)
class InnerBoundResult:
    value: float
    order: int
    density_coeffs: np.ndarray  # eigenvector: the density is its square
    diagnostics: dict = field(default_factory=dict)


# The solver switch, at the measured crossover (one BLAS thread). Dense eigh
# costs about size^3 flops. Lanczos costs some tens of products, each of the
# cheaper product's cost (in transform units: k n 2^n for k transforms of n
# passes over 2^n points) plus a fixed overhead in ARPACK and numpy calls
# worth about _PRODUCT_OVERHEAD units. Dense while
# size^3 <= _DENSE_RATIO * (that cost + _PRODUCT_OVERHEAD): N = 130 at
# n = 9 stays dense (3 ms against 6), and N = 299 at n = 12 goes to Lanczos
# (11 ms against 18).
_DENSE_RATIO = 250
_PRODUCT_OVERHEAD = 40_000

# A sparse-gather product costs about _GATHER_RATIO transform units per
# lookup of the N x |S| tables its CSR matrix is built from. Measured on one
# BLAS thread over n = 10..18, d = 1..4, r = 1..n/2: a lookup costs 0.1 to
# 0.6 units, and the shapes where the two products break even lie between
# 0.26 and 0.35.
_GATHER_RATIO = 0.3
_GATHER_CHUNK = 1 << 15  # lookups per row chunk while the gather is built


def _smallest_eigenpair(A) -> tuple[float, np.ndarray]:
    """Smallest eigenvalue and a unit eigenvector of the symmetric A: eigh
    if A is a formed matrix (an ndarray), with the eigenvector copied out of
    eigh's matrix; else Lanczos (ARPACK eigsh) on the product A @ v."""
    if isinstance(A, np.ndarray):
        w, v = np.linalg.eigh(A)
        return float(w[0]), v[:, 0].copy()
    # imported here, so that callers with small problems never load it
    from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

    size = A.shape[0]
    op = LinearOperator(A.shape, matvec=A.__matmul__, dtype=np.float64)
    # a seeded random start: ones or e_0 can lie in A's kernel, where ARPACK stops
    v0 = np.random.default_rng(0).standard_normal(size)
    try:
        w, v = eigsh(op, k=1, which="SA", tol=0, v0=v0)
    except ArpackError as exc:  # ArpackNoConvergence included
        raise SolverError(f"Lanczos eigen-solve of size {size} failed: {exc}") from exc
    return float(w[0]), v[:, 0]


def _result(A, size: int, order: int, extra: dict | None = None) -> InnerBoundResult:
    """The bound from the product A of a size x size operator; A = None is
    the zero operator."""
    if A is None:
        # every density of degree <= 2r integrates f to 0 (on the cube: f has
        # no spectrum at weights <= 2r), and Lanczos would break down at its
        # first product
        eigenvalue, vec, value, residual = 0.0, np.eye(1, size)[0], 0.0, 0.0
    else:
        eigenvalue, vec = _smallest_eigenpair(A)
        Av = A @ vec
        residual = float(np.linalg.norm(Av - eigenvalue * vec))
        value = float(vec @ Av / (vec @ vec))
    if not (np.isfinite(eigenvalue) and np.isfinite(value)):
        raise SolverError(f"eigenvalue solve failed: eigenvalue={eigenvalue!r}, "
                          f"density integral={value!r}, residual={residual!r}")
    diag = {"matrix_size": size, "eigenvalue": eigenvalue, "eig_residual": residual}
    if extra:
        diag.update(extra)
    return InnerBoundResult(value, order, vec, diag)


def inner_univariate_values(
    g_values: np.ndarray, measure: DiscreteMeasure, r: int
) -> InnerBoundResult:
    """Order-r inner bound for a function given by its values on [0:n].

    Builds A[i,j] = <g p_i, p_j>_w in the orthonormal Krawtchouk basis (an
    exact finite sum, the measure being discrete) and takes the smallest
    eigenvalue; the eigenvector is the optimal square-root density.
    """
    n = measure.n
    check_order(n, r)
    gv = np.asarray(g_values, dtype=np.float64)
    if gv.shape != (n + 1,):
        raise ValueError("g_values must have length n+1")
    table = orthonormal_table(n, r, measure.q)
    return _result((table * (gv * measure.weights)) @ table.T, r + 1, r)


def _gather_block(pos: np.ndarray, masks: np.ndarray, support: np.ndarray,
                  fhat: np.ndarray) -> tuple:
    """CSR arrays (data, indices, indptr) of one block of the gather: row a
    holds fhat(c) at column pos[a XOR c] for each c in the support where
    that is a basis index (>= 0). Written row-major from the lookup table
    pos[masks XOR support] (no COO, no sort), a few rows at a time: one pass
    counts each row's entries and a second fills them in, so no N x |S|
    array is ever held."""
    N = masks.size
    step = max(1, _GATHER_CHUNK // max(1, support.size))
    chunks = [slice(lo, min(lo + step, N)) for lo in range(0, N, step)]
    support = support.astype(np.int32)

    def columns(rows):
        return np.take(pos, masks[rows, None] ^ support)

    indptr = np.zeros(N + 1, dtype=np.int32)
    for rows in chunks:
        indptr[rows.start + 1:rows.stop + 1] = np.count_nonzero(columns(rows) >= 0, axis=1)
    np.cumsum(indptr, out=indptr)
    indices = np.empty(indptr[-1], dtype=np.int32)
    data = np.empty(indptr[-1])
    values = fhat[support]
    for rows in chunks:
        cols = columns(rows)
        keep = cols >= 0
        out = slice(indptr[rows.start], indptr[rows.stop])
        indices[out] = np.compress(keep.ravel(), cols)
        data[out] = np.broadcast_to(values, keep.shape)[keep]
    return data, indices, indptr


def _gather_matrix(n: int, masks: np.ndarray, k: int, spectra: dict, supports: dict):
    """The block matrix as one CSR matrix with int32 indices: row a of block
    (i, j) holds Fhat_ij(c) at column a XOR c, for each c in supports[i, j]
    with |a XOR c| <= r; block (j, i) is block (i, j)."""
    import scipy.sparse as sp

    masks = masks.astype(np.int32)
    N = masks.size
    pos = np.full(1 << n, -1, dtype=np.int32)  # basis index, -1 above weight r
    pos[masks] = np.arange(N, dtype=np.int32)
    blocks = {ij: sp.csr_matrix(_gather_block(pos, masks, support, spectra[ij]), shape=(N, N))
              for ij, support in supports.items()}
    if k == 1:
        return blocks[0, 0]
    return sp.bmat([[blocks[min(i, j), max(i, j)] for j in range(k)]
                    for i in range(k)], format="csr")


class _Transforms:
    """The block matrix as the product A v = F p on the cube, for p the
    square-root density of v, restricted back to the characters ``masks``:
    two transforms per block over the F tables, shape (k, k, 2^n)."""

    def __init__(self, masks: np.ndarray, tables: np.ndarray):
        self.masks, self.tables = masks, tables
        self.shape = (tables.shape[0] * masks.size,) * 2

    def __matmul__(self, v) -> np.ndarray:
        k, _, cube = self.tables.shape
        # p_i(x) = sum_a v[(i,a)] chi_a(x), then (F p)(x) = F(x) p(x), on the cube
        coeffs = np.zeros((k, cube))
        coeffs[:, self.masks] = np.reshape(v, (k, -1))
        fp = np.einsum("ijx,jx->ix", self.tables, [fwht(c) for c in coeffs])
        return np.concatenate([fwht(c)[self.masks] for c in fp]) / cube


def _cube_bound(n: int, k: int, spectra: dict, r: int) -> InnerBoundResult:
    """The bound from the block matrix A[(i,a),(j,b)] = Fhat_ij(a XOR b)
    over characters of weight <= r, on the one product the cost rule picks;
    ``diagnostics["product"]`` names it."""
    masks = masks_up_to_weight(n, r)
    size = k * masks.size
    low = popcount_table(n) <= 2 * r  # A reads each spectrum only there
    supports = {ij: np.flatnonzero(low & (fhat != 0)) for ij, fhat in spectra.items()}
    # F(x) at every cube point: checked finite for every product, and the
    # data the transforms read
    tables = np.zeros((k, k, 1 << n))
    with np.errstate(over="ignore", invalid="ignore"):
        for (i, j), fhat in spectra.items():
            tables[i, j] = tables[j, i] = finite_table(fwht(fhat), n)
    # k transforms of 2^n points, n passes each; against one lookup per
    # (character, support) pair, twice for a block off the diagonal
    transform_cost = k * n << n
    lookups = masks.size * sum(s.size * (1 if i == j else 2) for (i, j), s in supports.items())
    cheaper = min(transform_cost, _GATHER_RATIO * lookups)
    if not any(s.size for s in supports.values()):
        product, A = "zero", None
    elif size ** 3 <= _DENSE_RATIO * (cheaper + _PRODUCT_OVERHEAD):
        # every a XOR b lies in the classes of weight <= 2r
        classes = masks_up_to_weight(n, 2 * r)
        values = np.concatenate([spectra[i, j][classes] for i in range(k) for j in range(i, k)])
        product, A = "dense", values[xor_rows(masks, classes, k)]
    elif cheaper < transform_cost:
        product, A = "gather", _gather_matrix(n, masks, k, spectra, supports)
    else:
        product, A = "transforms", _Transforms(masks, tables)
    return _result(A, size, r, {"k": k, "product": product})


def inner_cube(f: CubePolynomial, r: int) -> InnerBoundResult:
    """The order-r inner bound on min f over {0,1}^n.

    Smallest eigenvalue of (fhat(a XOR b)) over characters of weight <= r;
    exact at r = n, monotone nonincreasing in r.
    """
    check_order(f.n, r)
    return _cube_bound(f.n, 1, {(0, 0): spectrum(f)}, r)


def inner_matrix(F: MatrixPolynomial, r: int) -> InnerBoundResult:
    """Order-r inner bound on min_x lambda_min(F(x)) for a symmetric
    matrix-valued polynomial: smallest eigenvalue of the block matrix
    A[(i,a),(j,b)] = Fhat_ij(a XOR b)."""
    check_order(F.n, r)
    return _cube_bound(F.n, F.k, F.spectra(), r)
