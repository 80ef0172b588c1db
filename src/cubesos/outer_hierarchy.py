"""Sum-of-squares (outer) hierarchy bounds via semidefinite programming.

The order-r lower bound on min f over {0,1}^n is computed in Gram form:

    maximize   lambda = fhat(0) - tr(G)
    subject to sum_{a XOR b = c} G[a,b] = fhat(c)   for 0 != c, |c| <= 2r,
               G >= 0 over characters of weight <= r,

whose dual is the character-moment problem (moment matrix (y_{a XOR b}),
y_0 = 1). Both are solved together by the embedded dense primal-dual
interior-point method with Nesterov-Todd scaling and Mehrotra
predictor-corrector steps.

Matrix-valued input F (k x k) uses the same program over a k x k block Gram
matrix G: the class-c constraint of entry (i, j) sits in blocks (i, j) and
(j, i); the class-0 constraints of the diagonal blocks, which carry lambda,
become the k - 1 rows tr G_ii - tr G_00 = fhat_ii(0) - fhat_00(0), and
lambda = (sum_i fhat_ii(0) - tr G) / k.

The constraint map aggregates matrix entries by the XOR of their character
indices, so each constraint matrix is a 0/1 partial permutation a -> a XOR c
(Fujisawa, Kojima & Nakata 1997 form the Schur complement of such sparse
constraints from their nonzeros). The map and its adjoint read one
precomputed row index per Gram entry (``cube_fourier.xor_rows``, which the
inner bound's formed matrix reads too, numbered once in constraint order
with the class-0 row of block (0, 0) last) and touch no 2^n array. The
interior-point Schur complement is then formed one of two ways, picked once
per solve by a cost rule: row A' is the constraint map applied to W A' W,
the one product W[:, I] @ W[J, :] over the index pairs of A' (no 2^n
array), or the XOR cross-correlation of the blocks of the scaling matrix
through Walsh-Hadamard transforms that touch only the basis rows on the way
in and the constraint classes on the way out. Either is formed in the map's
numbering and made constraint rows by the map's own tail. One such backend
serves scalar and matrix input; ``diagnostics["schur"]`` names the pick.

The interior-point method works on a list of diagonal Gram blocks. Every
input is split by its sign symmetry: with D = diag((-1)^{s.a}) (x) I_k,
G -> D G D keeps the problem for every s orthogonal to H, the GF(2) span of
the supports of all the fhat_ij, so an optimal Gram is block-diagonal over
the cosets of H among the basis characters, and only the classes in H
constrain it (Gatermann & Parrilo 2004). Max-cut's fhat, and a matrix of
max-cut entries, lives on the even masks and splits in two; input with
linear terms is one block. ``diagnostics["blocks"]`` lists the block sizes
and ``diagnostics["constraints"]`` the number of constraints solved.

Scalar input (``outer_cube``) also returns a point rounded from the moments
(Henrion & Lasserre 2005) and f there, an upper bound on min f. Because the
bound is nondecreasing in r and at most min f, a lower order whose value
reaches f at that point proves the order-r value; ``outer_cube`` tries one
such order before r and stops there when it does (Nie 2013), and
``diagnostics["orders"]`` lists the orders solved. ``_outer_sdp`` is the
direct solve of one order.
"""

from __future__ import annotations

import importlib
import math
import sys
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .config import SolverError, check_order
from .cube_fourier import (
    _HADAMARD,
    CubePolynomial,
    MatrixPolynomial,
    _kron_transform,
    _spare,
    evaluate,
    fwht,
    mask_to_point,
    masks_up_to_weight,
    spectrum,
    value_table,
    xor_rows,
)

__all__ = [
    "SolverError",
    "OuterBoundResult",
    "outer_cube",
    "outer_matrix",
    "verify_sos_certificate",
    "SosVerification",
]


class _LazyModule:
    """Stands in for a module until it is needed: each attribute lookup reads
    the module from ``sys.modules``, importing it on the first. The global
    bound to the stand-in is never rebound, so a caller that replaces that
    global (the tracer in ``perfbench/spans.py`` does) keeps its replacement
    in place."""

    def __init__(self, name: str):
        self._name = name

    def __getattr__(self, attr):
        module = sys.modules.get(self._name) or importlib.import_module(self._name)
        return getattr(module, attr)


# scipy.linalg takes a few tenths of a second and about 20 MiB to import, and
# only the interior-point method reads it
sla = _LazyModule("scipy.linalg")


# relative primal and dual residual at which an iterate counts as feasible
_TOL_FEAS = 1e-8
# relative duality gap at which a feasible iterate counts as optimal
_TOL_GAP = 1e-7
# interior-point iterations before the solve reports max_iter
_MAX_ITER = 200
# fraction of the distance to the cone boundary taken by each step
_STEP_DAMPING = 0.99
# A summed entry of the pair Schur, with its share of the products, costs
# about _PAIR_RATIO transform units (one row element through one bit of a
# transform). Measured on one BLAS thread over n = 3..13, r = 1..3,
# k = 1..3: where n >= 6 and the two products are within 1.5x of each
# other, a summed entry cost 2.2 to 4.5 units over two runs. The products'
# (kN)^4 multiply-adds ride in the ratio: (kN)^2 / m of them per summed
# entry, each 1/10 to 1/38 of one, about 8 at r = 2 (a quarter to a half of
# the time) and 36 at r = 3 (half). They outgrow the sums only near
# r = n/2, where the transforms are cheaper by far.
_PAIR_RATIO = 3.5
# bytes of products, operands and class-sum index per chunk of pair rows; a
# chunk that outgrows a 2 MiB L2 cache slows the class sums: at n = 9, r = 2
# the pair Schur took 1.7 ms at 1 MiB and 3.5 ms at 4 MiB
_PAIR_CHUNK_BYTES = 1 << 20


@dataclass(frozen=True)
class SdpSolution:
    X: list  # the diagonal blocks of the primal Gram
    y: np.ndarray
    Z: list
    primal_obj: float
    dual_obj: float
    gap: float
    rel_gap: float
    primal_res: float
    dual_res: float
    iterations: int
    status: str  # optimal | max_iter | infeasible_detected | numerical


# ---------------------------------------------------------------------------
# constraint backends


class _DenseConstraints:
    """Explicit list of symmetric constraint matrices on a one-block Gram
    (matrices pass as one-element lists, as to ``_XorConstraints``)."""

    def __init__(self, mats):
        self.mats = [np.asarray(M, dtype=np.float64) for M in mats]
        self.m = len(self.mats)

    def apply(self, X: list) -> np.ndarray:
        (X,) = X
        return np.array([float(np.tensordot(M, X)) for M in self.mats])

    def adjoint(self, y: np.ndarray) -> list:
        N = self.mats[0].shape[0]
        out = np.zeros((N, N))
        for yi, M in zip(y, self.mats):
            if yi != 0.0:
                out += yi * M
        return [out]

    def schur(self, W: list) -> np.ndarray:
        (W,) = W
        mids = [W @ M @ W for M in self.mats]
        S = np.empty((self.m, self.m))
        for i in range(self.m):
            for j in range(i, self.m):
                S[i, j] = S[j, i] = float(np.tensordot(self.mats[i], mids[j]))
        return S


class _XorConstraints:
    """Constraints on a k x k block Gram matrix over a character basis of masks.

    ``classes`` lists every XOR class c of weight <= 2r, class 0 first. Row
    (c, i, j), i <= j, reads <A, X> = b where A holds the 0/1 indicator E_c of
    the positions (a, b) with a XOR b = c in blocks (i, j) and (j, i), with
    weight 1/2 on each off-diagonal block. Diagonal blocks carry the classes
    c != 0, and the k - 1 trace rows tr X_ii - tr X_00 follow (E_0 is the
    identity). k = 1 is the scalar Gram problem.

    Sign cosets: given ``span``, the reduced echelon basis of a subspace H
    of F_2^n that holds the support of every entry's spectrum, the Gram is
    solved block-diagonal over the cosets of H among the basis masks
    (``cosets``, in the order of their reduced representatives, H itself
    first; a coset's block has k x k blocks over its masks), and only the
    classes in H are kept (``classes``, at the positions ``kept`` of the
    classes given). That loses nothing: flipping G[(i, a), (j, b)] by
    (-1)^{s.(a XOR b)} for s orthogonal to H keeps the problem, and the
    average over those s is an optimal G that is 0 unless a XOR b is in H
    (Gatermann & Parrilo 2004). Without ``span`` H is everything.

    The map is numbered once, over m + 1 rows: the constraint rows in the
    order above, the trace rows (from ``_trace`` on) holding tr X_ii, and
    last Z_0, the class-0 row of block (0, 0). ``_rows``
    (``cube_fourier.xor_rows`` in that numbering, one per coset) holds, for
    each entry of a coset's Gram block, the row it feeds, and ``_weight`` is
    1 on diagonal-block rows and 1/2 on off-diagonal ones. So ``apply`` is
    one class sum over ``_rows`` per coset and ``adjoint`` one gather from
    them; neither touches a 2^n array. One tail, ``_fold``, serves the map
    and both Schur products: trace row i becomes Z_i - Z_0, and Z_0 is
    dropped. Gram matrices and their Schur arguments pass as lists, one
    array per coset.

    The Schur entry <A, W A' W> is a sum over cosets, formed by one of two
    products, picked once per solve by a cost rule and named by
    ``schur_product``:

    - ``pairs``: E_c' is a partial permutation a -> a XOR c', so W A' W is
      the one product W[:, I] @ W[J, :] over the index pairs (I, J) of A',
      and row A' of the Schur complement is ``apply`` of it: one class sum
      over ``_rows`` for a chunk of products at once. No 2^n array; about
      (kN)^4 multiply-adds and (kN)^2 summed entries per row and coset.
    - ``transforms``: the entry of blocks (p, q) and (s, t) is the XOR
      cross-correlation of the zero-padded W_qs and W_pt at shift (c, c'),
      through Walsh-Hadamard transforms on the 2^h x 2^h grid of quotient
      coordinates (the bits of a mask at the h pivot columns of ``span``),
      which is linear and one-to-one on each coset. The transforms read only
      the rows of W and write only the rows of the classes, and each block
      pair's products of spectra are summed over the cosets before its one
      transform back.
    """

    def __init__(self, n: int, masks: np.ndarray, classes: np.ndarray, k: int,
                 span: np.ndarray | None = None):
        if span is None:
            span = np.left_shift(1, np.arange(n, dtype=np.int64))
        self.masks, self.k, self.h = masks, k, span.size
        rep, grid = _quotient(masks, span)
        _, coset = np.unique(rep, return_inverse=True)
        order = np.argsort(coset, kind="stable")
        self.cosets = np.split(order, np.cumsum(np.bincount(coset))[:-1])
        self._grid = [grid[idx] for idx in self.cosets]
        rep, grid = _quotient(classes, span)
        self.kept = np.flatnonzero(rep == 0)
        self.classes = classes[self.kept]
        self._class_grid = grid[self.kept]
        self.blocks = [(i, j) for i in range(k) for j in range(i, k)]
        self.sizes = [k * idx.size for idx in self.cosets]
        nb, e = len(self.blocks), self.classes.size
        # block b's kept class c is row pos[b * e + c]: the constraint rows in
        # order, the trace rows Z_1..Z_{k-1} (class 0 of blocks (i, i), i > 0)
        # from _trace on, and Z_0 last, at row m
        zero = np.array([b * e for b, (i, j) in enumerate(self.blocks) if i == j])
        order = np.concatenate([np.setdiff1d(np.arange(nb * e), zero), zero[1:], zero[:1]])
        pos = np.argsort(order)
        self._trace, self.m = nb * e - k, nb * e - 1
        # per block: its rows, the slice of its constraint rows, and 1 if its
        # class 0 is read (first) for the trace rows
        self._at = [(p, slice(p[-1] + 1 - e + (i == j), p[-1] + 1), int(i == j and k > 1))
                    for p, (i, j) in zip(pos.reshape(nb, e), self.blocks)]
        self._rows = [pos[xor_rows(masks[idx], self.classes, k)] for idx in self.cosets]
        self._weight = np.repeat([1.0 if i == j else 0.5 for i, j in self.blocks], e)[order]
        # pairs: each constraint row class-sums one product per coset;
        # transforms: h-bit transforms of N_coset + 2^h rows per block and
        # coset, and of 2^h + e rows per block pair
        size = 1 << self.h
        pairs = self.m * sum(s * s for s in self.sizes)
        transforms = self.h * size * (nb * sum(idx.size + size for idx in self.cosets)
                                      + nb * (nb + 1) // 2 * (size + e))
        self.schur_product = "pairs" if _PAIR_RATIO * pairs <= transforms else "transforms"

    def _fold(self, v: np.ndarray) -> np.ndarray:
        """The constraint rows of v over the rows of ``_rows``, on both axes
        of a matrix, columns first: trace row i becomes Z_i - Z_0 and Z_0 is
        dropped. In place; a view of v."""
        t, m = self._trace, self.m
        if v.ndim == 2:
            v[:, t:m] -= v[:, m:m + 1]
            v = v[:, :m]
        v[t:m] -= v[m:m + 1]
        return v[:m]

    def gather(self, per_block) -> np.ndarray:
        """Constraint rows of per-block class sums (arrays of length 2^n, in
        the order of ``blocks``); with Fourier coefficients this is b."""
        v = np.empty(self.m + 1)
        for (p, _, _), values in zip(self._at, per_block):
            v[p] = values[self.classes]
        return self._fold(v)

    def assemble(self, X: list) -> np.ndarray:
        """The Gram matrix over (coordinate, mask) of per-coset blocks, 0
        across cosets: a coset's row i * N_c + p lands at i * N + idx[p]."""
        if len(X) == 1:
            return X[0]
        N = self.masks.size
        out = np.zeros((self.k * N, self.k * N))
        for idx, block in zip(self.cosets, X):
            rows = (N * np.arange(self.k)[:, None] + idx).ravel()
            out[np.ix_(rows, rows)] = block
        return out

    def _class_sums(self, X: np.ndarray, index: np.ndarray) -> np.ndarray:
        """<A, X_p> on every one of the m + 1 rows, for p stacked square
        matrices of one coset, by one bincount over ``index``: its ``_rows``
        entry repeated, copy p offset by p (m + 1)."""
        ne = self._weight.size
        p = X.size // X.shape[-1] ** 2
        sums = np.bincount(index[:X.size], weights=X.ravel(), minlength=p * ne)
        return sums.reshape(p, ne) * self._weight

    def apply(self, X: list) -> np.ndarray:
        sums = self._class_sums(X[0], self._rows[0].ravel())[0]
        for row, block in zip(self._rows[1:], X[1:]):
            sums += self._class_sums(block, row.ravel())[0]
        return self._fold(sums)

    def adjoint(self, y: np.ndarray) -> list:
        # the transpose of _fold: Z_0 takes minus every trace row
        ext = np.append(y, -y[self._trace:].sum()) * self._weight
        return [ext[row] for row in self._rows]

    def schur(self, W: list) -> np.ndarray:
        if self.schur_product == "pairs":
            return self._schur_pairs(W)
        return self._schur_transforms(W)

    @cached_property
    def _pair_plans(self):
        """Per coset, the chunks (rows, I, J) of the pair Schur and its
        class-sum index. A chunk holds the rows whose A' has L index
        pairs in the coset's block (both orientations off the diagonal), I
        and J of shape (rows, L), so W A' W = _weight[row] * W[:, I] @ W[J, :],
        and as many rows as fit _PAIR_CHUNK_BYTES with their products,
        operands and index."""
        ne = self._weight.size
        plans = []
        for rows2d in self._rows:
            row, kN = rows2d.ravel(), rows2d.shape[0]
            # every Gram entry grouped by its row, in raster order within a row
            order = np.argsort(row, kind="stable")
            first = np.searchsorted(row[order], np.arange(ne))
            count = np.bincount(row, minlength=ne)
            batches = []
            for L in np.unique(count[count > 0]):
                rows = np.flatnonzero(count == L)
                I, J = np.divmod(order[first[rows, None] + np.arange(L)], kN)
                step = max(1, _PAIR_CHUNK_BYTES // (8 * kN * (2 * L + 2 * kN)))
                batches += [(rows[lo:lo + step], I[lo:lo + step], J[lo:lo + step])
                            for lo in range(0, rows.size, step)]
            most = max(chunk.size for chunk, _, _ in batches)
            plans.append((batches, (row + ne * np.arange(most)[:, None]).ravel()))
        return plans

    def _schur_pairs(self, W: list) -> np.ndarray:
        """Schur complement whose row A' is ``apply`` of W A' W, a chunk of
        products W[:, I] @ W[J, :] at a time, summed over cosets."""
        S = np.zeros((self.m + 1,) * 2)
        for block, (batches, index) in zip(W, self._pair_plans):
            for rows, I, J in batches:
                # W is symmetric: W[:, I] is W[I, :] transposed
                M = np.matmul(block[I].transpose(0, 2, 1), block[J])
                S[rows] += self._class_sums(M, index) * self._weight[rows, None]
        # handed over as the transpose of the rows formed here: the order of
        # S's memory sets how the solver's S @ dy sums, and with it the last
        # bits of every iterate
        return self._fold(S).T

    @cached_property
    def _buffers(self) -> list:
        """Two flat arrays of one 2^h x 2^h grid each, reused by every pass
        of every transform in the solve."""
        size = 1 << self.h
        return [np.empty(size * size) for _ in range(2)]

    @cached_property
    def _sums(self) -> np.ndarray:
        """Per block pair, its products of spectra summed over the cosets."""
        size, nb = 1 << self.h, len(self.blocks)
        return np.empty((nb * (nb + 1) // 2, size, size))

    def _spectrum(self, W: np.ndarray, grid: np.ndarray) -> np.ndarray:
        """2-D Walsh-Hadamard spectrum of W with its rows and columns placed
        at ``grid``: the rows transformed along the column bits, then every
        column along the row bits. A view of one of the buffers."""
        bufs, size = self._buffers, 1 << self.h
        padded = bufs[0][:W.shape[0] * size].reshape(-1, size)
        padded.fill(0.0)
        padded[:, grid] = W
        half = _kron_transform(_HADAMARD, padded, bufs)
        spread = _spare(bufs, half)[:size * size].reshape(size, size)
        spread.fill(0.0)
        spread[:, grid] = half
        return _kron_transform(_HADAMARD, spread, bufs)

    def _back(self, acc: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """acc transformed back along its columns, cut to the grid rows
        ``rows`` and those transformed along the other axis: a
        (2^h, rows.size) view of one of the buffers."""
        bufs = self._buffers
        half = _kron_transform(_HADAMARD, acc, bufs)
        # the indices are in range, and mode="raise" would buffer the output
        cut = _spare(bufs, half)[:rows.size * half.shape[1]].reshape(rows.size, -1)
        half.take(rows, axis=0, out=cut, mode="clip")
        return _kron_transform(_HADAMARD, cut, bufs)

    def _schur_transforms(self, W: list) -> np.ndarray:
        """Schur complement from the 2-D Walsh-Hadamard spectra of the
        zero-padded blocks of W: each block pair's products, summed over the
        cosets, go back along one axis, are cut to the pair's rows, and only
        those go back along the other."""
        nb, last, m, rows = len(self.blocks), len(W) - 1, self.m, self._class_grid
        # k > 1: S is a view; Z_0, the class-0 row of block (0, 0), is last
        S = np.empty((m + (self.k > 1),) * 2)
        for c, (block, grid) in enumerate(zip(W, self._grid)):
            N = grid.size
            spectra = {}
            for i, j in self.blocks:
                spec = self._spectrum(block[i * N:(i + 1) * N, j * N:(j + 1) * N], grid)
                # a view of a buffer the next transform reuses
                spec = spec.copy() if nb > 1 else spec
                spectra[j, i], spectra[i, j] = spec.T, spec
            for pair, (a, b) in enumerate((a, b) for a in range(nb) for b in range(a, nb)):
                (i, j), (i2, j2) = self.blocks[a], self.blocks[b]
                da, db = int(i == j), int(i2 == j2)
                terms = [(spectra[q, s], spectra[p, u])
                         for p, q in [(i, j), (j, i)][da:] for s, u in [(i2, j2), (j2, i2)][db:]]
                # the first coset of several starts the sum; the last pair
                # (last diagonal block with itself) is its spectrum's last use
                out = self._sums[pair] if last and not c else terms[0][0] if a == b == nb - 1 else None
                acc = np.multiply(*terms[0], out=out)
                for x, y in terms[1:]:
                    acc += x * y
                if c:
                    acc = np.add(self._sums[pair], acc, out=self._sums[pair])
                if c < last:
                    continue
                (pa, sa, fa), (pb, sb, fb) = self._at[a], self._at[b]
                back = self._back(acc, rows[db - fb:])
                # off-diagonal blocks weigh 1/2, and the transforms back 4^-h
                factor = 0.5 ** (2 * self.h + 2 - da - db)
                direct = back[:, fb:].take(rows[da:], axis=0, out=S[sa, sb], mode="clip")
                direct *= factor
                if fa:
                    # both ways: at a == b the column is written next
                    S[pa[0], pb] = S[pb, pa[0]] = back[rows[0]] * factor
                if fb:
                    S[sa, pb[0]] = back[rows[da:], 0] * factor
                if a < b:
                    S[sb, sa] = direct.T
                    if fb:
                        S[pb[0], sa] = S[sa, pb[0]]
        return self._fold(S)


def _echelon(n: int, rows: np.ndarray) -> list:
    """Reduced echelon form over GF(2) of the equations c.x = t, each given
    as the row c << 1 | t and taken in order: a row whose c depends on the
    rows kept before it is skipped. Each kept row's highest bit is its pivot
    column, which no other kept row has set. The elimination stops once the
    rank reaches n, where every c is a combination of the kept ones."""
    rest = np.asarray(rows, dtype=np.int64)
    basis = []
    while len(basis) < n:
        # a row reduced to t alone depends on the kept rows
        rest = rest[rest > 1]
        if not rest.size:
            break
        # rest is reduced by every row so far, and so is v
        v = int(rest[0])
        p = v.bit_length() - 1
        basis = [u ^ v if u >> p & 1 else u for u in basis]
        basis.append(v)
        rest = rest ^ (v * ((rest >> p) & 1))
    return basis


def _span(n: int, support: np.ndarray) -> np.ndarray:
    """Reduced echelon basis over GF(2) of the span H of the masks in
    ``support``, sorted: each vector's highest bit is its pivot column, which
    no other vector has set."""
    rows = np.asarray(support, dtype=np.int64) << 1
    return np.sort(np.array(_echelon(n, rows), dtype=np.int64) >> 1)


def _round_point(n: int, fhat: np.ndarray, res) -> int:
    """A point, as a mask, read off the moments y_c of a scalar solve
    (Henrion & Lasserre 2005): the equations c.x = [y_c < 0] for c on the
    support of fhat, largest |y_c| first, each skipped when it depends on
    earlier ones. Their solutions form a coset of the annihilator of the
    span of the support, on which f is constant; the one returned is 0 off
    the pivot columns. At a point mass the moments are the characters of
    the point, and that point is among the solutions."""
    classes = masks_up_to_weight(n, 2 * res.order)
    on = np.flatnonzero(fhat[classes])
    y = res.moments[on]
    rows = (classes[on] << 1 | (y < 0))[np.argsort(-np.abs(y), kind="stable")]
    return sum((v & 1) << (v.bit_length() - 2) for v in _echelon(n, rows))


def _quotient(masks: np.ndarray, span: np.ndarray) -> tuple:
    """(rep, grid) of each mask for the reduced echelon basis ``span`` of H:
    rep is the mask reduced by the basis, 0 at every pivot column, the same
    for every mask of a coset of H; grid holds the mask's bits at the pivot
    columns (bit i at the pivot of span[i]). The mask is rep XOR the basis
    vectors its grid bits pick, so grid is one-to-one on each coset, and as
    a bit selection it is linear."""
    rep, grid = masks.copy(), np.zeros_like(masks)
    for i, v in enumerate(span.tolist()):
        bit = (masks >> (v.bit_length() - 1)) & 1
        rep ^= v * bit
        grid |= bit << i
    return rep, grid


# ---------------------------------------------------------------------------
# interior-point core


def _max_step(D_scaled: np.ndarray) -> float:
    """Largest alpha with I + alpha * D_scaled >= 0 (capped at 1e6)."""
    # exact: an iterative estimate can sit above lambda_min and let the step
    # leave the cone; LAPACK's MRRR computes the one eigenvalue only
    lo = float(sla.eigh(D_scaled, eigvals_only=True, subset_by_index=[0, 0],
                        driver="evr", check_finite=False)[0])
    if lo >= 0.0:
        return 1e6
    return -1.0 / lo


def _dot(A: list, B: list) -> float:
    """<A, B> of two block-diagonal matrices given as lists of blocks."""
    return sum(float(np.tensordot(a, b)) for a, b in zip(A, B))


def _norm(A: list) -> float:
    """Frobenius norm of a block-diagonal matrix given as a list of blocks."""
    return math.hypot(*(np.linalg.norm(a) for a in A))


def _solve_ipm(C: list, ops, b) -> SdpSolution:
    """min <C, X> subject to ops.apply(X) = b over block-diagonal X >= 0,
    with C, X and Z lists of the diagonal blocks. The scaling, its
    eigendecomposition and the step lengths run per block (a step is the
    shortest over blocks); residuals, gap and mu sum over blocks, and ops
    sums the one Schur complement over them."""
    N = sum(c.shape[0] for c in C)
    m = b.size
    normb = 1.0 + np.linalg.norm(b)
    normC = 1.0 + _norm(C)

    eta = max(1.0, float(np.max(np.abs(b))) if m else 1.0)
    X = [eta * np.eye(c.shape[0]) for c in C]
    zeta = max(1.0, max(float(np.max(np.abs(c))) for c in C))
    Z = [zeta * np.eye(c.shape[0]) for c in C]
    y = np.zeros(m)

    def measure(X, y, Z):
        """Residuals, objectives and the optimality test at an iterate."""
        rp = b - ops.apply(X)
        Rd = [c - z - a for c, z, a in zip(C, Z, ops.adjoint(y))]
        pobj = _dot(C, X)
        dobj = float(b @ y)
        gap = _dot(X, Z)
        rel_gap = gap / (1.0 + abs(pobj) + abs(dobj))
        pres = float(np.linalg.norm(rp) / normb)
        dres = float(_norm(Rd) / normC)
        optimal = pres <= _TOL_FEAS and dres <= _TOL_FEAS and rel_gap <= _TOL_GAP
        return rp, Rd, (pobj, dobj, gap, rel_gap, pres, dres), optimal

    status = "max_iter"
    it = 0
    for it in range(1, _MAX_ITER + 1):
        rp, Rd, stats, optimal = measure(X, y, Z)
        if not np.isfinite(stats).all():
            raise SolverError(f"interior-point iterate {it} is not finite")
        if optimal:
            status = "optimal"
            break
        if np.linalg.norm(y) > 1e13 * normb or sum(np.trace(x) for x in X) > 1e13 * N * eta:
            status = "infeasible_detected"
            break

        try:
            Lz = [np.linalg.cholesky(z) for z in Z]
            s, Q = zip(*(np.linalg.eigh(L.T @ x @ L) for L, x in zip(Lz, X)))
            if min(sk[0] for sk in s) <= 0:
                raise np.linalg.LinAlgError("scaled matrix not PD")
        except np.linalg.LinAlgError:
            status = "numerical"
            break

        mu = sum(float(sk.sum()) for sk in s) / N
        d = [np.sqrt(sk) for sk in s]
        # R maps the scaled space back: R D R^T = X, R^{-T} D R^{-1} = Z with
        # D = diag(d), and W = R R^T
        Rq = [sla.solve_triangular(L, q, trans="T", lower=True, check_finite=False) * (sk ** 0.25)
              for L, q, sk in zip(Lz, Q, s)]
        W = [r @ r.T for r in Rq]
        S = ops.schur(W)
        # tiny ridge for safety at the central-path tail, set on S's own
        # diagonal (S + ridge I without two more m x m arrays)
        diag = S.diagonal().copy()
        ridge = 1e-14 * (diag.sum() / m if m else 1.0)
        for attempt in range(5):
            np.fill_diagonal(S, diag + ridge)
            try:
                S_fact = sla.cho_factor(S, lower=True, check_finite=False)
                break
            except np.linalg.LinAlgError:
                ridge = max(ridge * 100.0, 1e-12)
        else:
            status = "numerical"
            break

        A_WRdW = ops.apply([w @ rd @ w for w, rd in zip(W, Rd)])
        denom = [dk[:, None] + dk[None, :] for dk in d]

        def direction(sigma_mu: float, cc: list | None):
            """dy, dZ and the scaled steps R^-1 dX R^-T, R^T dZ R; since
            dX = V - W dZ W, the first is Vh minus the second."""
            Vh = []
            for i, dk in enumerate(d):
                v = -np.diag(dk * dk)
                if sigma_mu:
                    v += sigma_mu * np.eye(dk.size)
                if cc is not None:
                    v -= cc[i]
                v *= 2.0 / denom[i]
                Vh.append(v)
            rhs = rp - ops.apply([r @ v @ r.T for r, v in zip(Rq, Vh)]) + A_WRdW
            dy = sla.cho_solve(S_fact, rhs, check_finite=False)
            # one refinement step against the un-ridged S: near mu -> 0 the
            # ridge swamps S's small eigenvalues and would freeze pres
            dy += sla.cho_solve(S_fact, rhs - S @ dy + ridge * dy, check_finite=False)
            # the factors are not checked finite: a non-finite S shows here
            if not np.isfinite(dy).all():
                raise SolverError(f"interior-point direction {it} is not finite")
            dZ = [rd - a for rd, a in zip(Rd, ops.adjoint(dy))]
            dZh = [r.T @ dz @ r for r, dz in zip(Rq, dZ)]
            return dy, dZ, [v - dzh for v, dzh in zip(Vh, dZh)], dZh

        def max_step(dH):
            return min(_max_step(dh / sc) for dh, sc in zip(dH, scale))

        # predictor; step lengths live in the scaled space where both X and Z
        # look like D: max alpha with I + alpha D^{-1/2} M D^{-1/2} >= 0
        scale = [np.sqrt(np.outer(dk, dk)) for dk in d]
        _, _, dXh, dZh = direction(0.0, None)
        ap = min(1.0, max_step(dXh))
        ad = min(1.0, max_step(dZh))
        # <X + ap dX, Z + ad dZ> = <D + ap dXh, D + ad dZh>
        D = [np.diag(dk) for dk in d]
        mu_aff = _dot([Dk + ap * x for Dk, x in zip(D, dXh)],
                      [Dk + ad * z for Dk, z in zip(D, dZh)]) / N
        sigma = min(0.999, max(1e-8, (max(mu_aff, 0.0) / mu) ** 3))

        # corrector
        cc = [x @ z for x, z in zip(dXh, dZh)]
        cc = [0.5 * (c + c.T) for c in cc]
        dy, dZ, dXh, dZh = direction(sigma * mu, cc)
        ap = min(1.0, _STEP_DAMPING * max_step(dXh))
        ad = min(1.0, _STEP_DAMPING * max_step(dZh))
        if ap < 1e-10 and ad < 1e-10:
            break  # stalled
        X = [x + ap * (r @ dxh @ r.T) for x, r, dxh in zip(X, Rq, dXh)]
        y = y + ad * dy
        Z = [z + ad * dz for z, dz in zip(Z, dZ)]
    else:
        # every break leaves the iterate measured at the loop head; after the
        # last step it has not been measured yet
        _, _, stats, optimal = measure(X, y, Z)
        if optimal:
            status = "optimal"
    return SdpSolution(X, y, Z, *stats, it, status)


# ---------------------------------------------------------------------------
# hierarchy front ends


@dataclass(frozen=True)
class OuterBoundResult:
    value: float           # certified from the Gram side
    gram: np.ndarray       # over (coordinate, basis mask); 0 across sign cosets
    order: int             # the order asked for
    basis: np.ndarray      # character masks indexing the Gram matrix
    moment_value: float    # dual (moment-side) objective
    # scalar input: moments[i] = y_c for c = masks_up_to_weight(n, 2r)[i],
    # y_0 = 1, and 0 off the span of the support of fhat (the symmetric
    # optimum's moments vanish there); None for matrix input
    moments: np.ndarray | None
    diagnostics: dict = field(default_factory=dict)
    # scalar input (outer_cube): a 0/1 point rounded from the moments, and f
    # there; None otherwise
    point: np.ndarray | None = None
    f_point: float | None = None


def _outer_sdp(n: int, k: int, fhat: dict, r: int) -> OuterBoundResult:
    """Solve the order-r Gram SDP of a k x k block input whose entry (i, j),
    i <= j, has Fourier coefficients fhat[i, j]; raise SolverError unless
    the interior-point method converged.

    The Gram problem is homogeneous in its right-hand side b, so the IPM
    solves with b / max|b| and the Gram side is scaled back; the moments do
    not depend on the scale. Every input thus reaches the IPM at the same scale, even
    coefficients near the float range."""
    masks = masks_up_to_weight(n, r)
    classes = masks_up_to_weight(n, 2 * r)
    # the Gram splits over the sign cosets of the span of every entry's support
    span = _span(n, np.concatenate([np.flatnonzero(v) for v in fhat.values()]))
    ops = _XorConstraints(n, masks, classes, k, span)
    b = ops.gather([fhat[block] for block in ops.blocks])
    scale = float(np.max(np.abs(b), initial=0.0)) or 1.0
    b = b / scale
    sol = _solve_ipm([np.eye(size) for size in ops.sizes], ops, b)
    if sol.status != "optimal":
        raise SolverError(f"SDP did not converge: status={sol.status}, "
                          f"gap={sol.rel_gap:.2e}, pres={sol.primal_res:.2e}")
    trace_f0 = sum(fhat[i, i][0] for i in range(k))
    moments = None
    if k == 1:
        # the symmetric optimum's moments vanish on classes outside the span
        moments = np.zeros(classes.size)
        moments[ops.kept] = np.append(1.0, -sol.y)
    return OuterBoundResult(
        value=float((trace_f0 - scale * sol.primal_obj) / k),
        gram=ops.assemble(sol.X) * scale,
        order=r,
        basis=masks,
        moment_value=float((trace_f0 - scale * sol.dual_obj) / k),
        moments=moments,
        diagnostics={
            "status": sol.status,
            "iterations": sol.iterations,
            "rel_gap": sol.rel_gap,
            "primal_res": sol.primal_res,
            "dual_res": sol.dual_res,
            "k": k,
            "schur": ops.schur_product,
            "blocks": ops.sizes,
            "constraints": ops.m,
        },
    )


def outer_cube(f: CubePolynomial, r: int) -> OuterBoundResult:
    """The order-r SOS lower bound on min f over {0,1}^n, with a point x
    rounded from its moments (``point``, and ``f_point`` = f(x)).

    Monotone nondecreasing in r, at most min f, and equal to it once
    2r >= n + deg - 1. So when a lower order r0 already reaches f(x), order
    r can only give the same number. One lower order, r0 = 1 for affine f
    and max(2, ceil(deg / 2)) otherwise, is solved first when r0 < r, and
    its value is returned when it passes the interior-point method's
    order-r optimality test with this pair: its Gram padded with zeros, an
    order-r Gram since fhat is 0 on the classes above 2 r0, and the
    moments chi_c(x) on the span of fhat's support and 0 off it, the
    average of the point masses on which f equals f(x), exactly feasible at
    order r (flat truncation of rank one; Nie 2013). Otherwise order r is
    solved.

    ``order`` is r and ``moments`` are order r's (on an exit, those of the
    point, with ``moment_value`` = f(x) and the pair's ``rel_gap``);
    ``basis``, ``gram`` and the diagnostics ``schur``, ``blocks`` and
    ``constraints`` are those of the last order solved. ``diagnostics["orders"]`` lists every order solved,
    the returned one last, and ``iterations`` sums their iterations.
    Raises SolverError if an interior-point solve does not converge.
    """
    n, d = f.n, f.degree
    check_order(n, r, d)
    fhat = spectrum(f)
    r0 = 1 if d <= 1 else max(2, -(-d // 2))
    orders, iterations = [], 0
    if r0 < r:
        low = _outer_sdp(n, 1, {(0, 0): fhat}, r0)
        x = _round_point(n, fhat, low)
        point = mask_to_point(x, n)
        fx = evaluate(f, point)
        orders, iterations = [r0], low.diagnostics["iterations"]
        # the pair in the solver's units: b / max|b|, where b holds all of
        # fhat's support but class 0 at every order >= r0
        scale = float(np.max(np.abs(fhat[1:]), initial=0.0)) or 1.0
        f0 = float(fhat[0])
        pobj, dobj = (f0 - low.value) / scale, (f0 - fx) / scale
        rel_gap = (pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
        if rel_gap <= _TOL_GAP:
            classes = masks_up_to_weight(n, 2 * r)
            parity = np.zeros_like(classes)
            for i in range(n):
                if x >> i & 1:
                    parity ^= classes >> i
            in_span = _quotient(classes, _span(n, np.flatnonzero(fhat)))[0] == 0
            moments = np.where(in_span, 1.0 - 2.0 * (parity & 1), 0.0)
            # the moments of a point are exactly feasible
            diagnostics = {**low.diagnostics, "rel_gap": rel_gap, "dual_res": 0.0,
                           "orders": orders}
            return replace(low, order=r, moment_value=fx, moments=moments,
                           diagnostics=diagnostics, point=point, f_point=fx)
    res = _outer_sdp(n, 1, {(0, 0): fhat}, r)
    point = mask_to_point(_round_point(n, fhat, res), n)
    diagnostics = {**res.diagnostics, "orders": orders + [r],
                   "iterations": iterations + res.diagnostics["iterations"]}
    return replace(res, diagnostics=diagnostics, point=point, f_point=evaluate(f, point))


def outer_matrix(F: MatrixPolynomial, r: int) -> OuterBoundResult:
    """Order-r SOS lower bound on min_x lambda_min(F(x)) for a symmetric
    matrix polynomial, via the block Gram over (character, coordinate).
    Raises SolverError if the interior-point method does not converge."""
    check_order(F.n, r, F.degree)
    return _outer_sdp(F.n, F.k, F.spectra(), r)


# ---------------------------------------------------------------------------
# certificate verification


@dataclass(frozen=True)
class SosVerification:
    max_residual: float
    gram_min_eigenvalue: float
    psd: bool
    ok: bool


def verify_sos_certificate(result: OuterBoundResult, f: CubePolynomial) -> SosVerification:
    """Check the Gram reconstruction sum_{a,b} G[a,b] chi_{a XOR b} = f - value
    on every cube point to 1e-6, and positive semidefiniteness of G to 1e-8.
    Scalar input only: raises ValueError unless G is N x N for a basis of N
    characters (a matrix result's Gram is kN x kN)."""
    N = result.basis.size
    if result.gram.shape != (N, N):
        raise ValueError(f"Gram matrix of shape {result.gram.shape} does not match "
                         f"the basis of {N} characters: the check takes scalar input only")
    fvals = value_table(f)
    coeffs = np.zeros(fvals.size)
    xor_flat = np.bitwise_xor.outer(result.basis, result.basis).ravel()
    np.add.at(coeffs, xor_flat, result.gram.ravel())
    recon = fwht(coeffs)
    residual = float(np.max(np.abs(recon - (fvals - result.value))))
    lam_min = float(np.linalg.eigvalsh(result.gram)[0])
    psd = lam_min >= -1e-8
    return SosVerification(residual, lam_min, psd, psd and residual <= 1e-6)
