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
precomputed constraint row per Gram entry and touch no 2^n array. The
interior-point Schur complement is then formed one of two ways, picked once
per solve by a cost rule: one product W[:, I] @ W[J, :] per constraint over
its index pairs, class-summed (no 2^n array), or the XOR cross-correlation
of the blocks of the scaling matrix through Walsh-Hadamard transforms that
touch only the basis rows on the way in and the constraint classes on the
way out. One such backend serves scalar and matrix input;
``diagnostics["schur"]`` names the pick.
"""

from __future__ import annotations

import importlib
import sys
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .config import SolverError
from .cube_fourier import (
    _HADAMARD,
    CubePolynomial,
    MatrixPolynomial,
    _kron_transform,
    fwht,
    masks_up_to_weight,
    spectrum,
    value_table,
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
# A gathered entry of the pair Schur, with its share of the products, costs
# about _PAIR_RATIO transform units (one row element through one bit of a
# transform). Measured on one BLAS thread over n = 3..13, r = 1..3,
# k = 1..3: a gathered entry costs 6 to 13 units at k = 1 and n >= 6, and
# the shapes where the two products break even lie between 5.8 and 8.3.
# The products' (kN)^4 multiply-adds are left out: each costs about 1/200
# of a gathered entry, so they catch up with the gather only where N^2 is
# some hundred times m, near r = n/2, where the transforms are cheaper by far.
_PAIR_RATIO = 7
# bytes of products, operands and gathered entries per batch of pair rows
_PAIR_CHUNK_BYTES = 4 << 20


@dataclass(frozen=True)
class SdpSolution:
    X: np.ndarray
    y: np.ndarray
    Z: np.ndarray
    primal_obj: float
    dual_obj: float
    gap: float
    rel_gap: float
    primal_res: float
    dual_res: float
    iterations: int
    status: str  # optimal | max_iter | infeasible_detected


# ---------------------------------------------------------------------------
# constraint backends


class _DenseConstraints:
    """Explicit list of symmetric constraint matrices."""

    def __init__(self, mats):
        self.mats = [np.asarray(M, dtype=np.float64) for M in mats]
        self.m = len(self.mats)

    def apply(self, X: np.ndarray) -> np.ndarray:
        return np.array([float(np.tensordot(M, X)) for M in self.mats])

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        N = self.mats[0].shape[0]
        out = np.zeros((N, N))
        for yi, M in zip(y, self.mats):
            if yi != 0.0:
                out += yi * M
        return out

    def schur(self, W: np.ndarray) -> np.ndarray:
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
    c != 0. For k > 1 the k - 1 trace rows tr X_ii - tr X_00 follow (E_0 is
    the identity). k = 1 is the scalar Gram problem.

    The map is worked on over extended rows b * e + c: block b of
    ``blocks``, and index c of the class in ``_ext`` (e of them). ``_row``
    holds, for each entry (x, y) of the kN x kN Gram, the extended row it
    feeds: that of block (min(i, j), max(i, j)) and of the class of its two
    masks, or the dropped slot nb * e when the class is not a row (class 0
    at k = 1, the diagonal). ``_weight`` is 1 on diagonal-block rows and 1/2
    on off-diagonal ones. So ``apply`` is one class sum over ``_row`` and
    ``adjoint`` one gather from it; neither touches a 2^n array.

    The Schur entry <A, W A' W> is formed by one of two products, picked once
    per solve by a cost rule and named by ``schur_product``:

    - ``pairs``: E_c' is a partial permutation a -> a XOR c', so W A' W is
      the one product W[:, I] @ W[J, :] over the index pairs (I, J) of A',
      and row A' of the Schur complement holds its class sums. No 2^n array;
      about (kN)^4 multiply-adds and a gather of (kN)^2 / 2 per row.
    - ``transforms``: the entry of blocks (p, q) and (s, t) is the XOR
      cross-correlation of the zero-padded W_qs and W_pt on F_2^{2n} at
      shift (c, c'), through Walsh-Hadamard transforms that read only the N
      rows of W and write only the rows of the classes.
    """

    def __init__(self, n: int, masks: np.ndarray, classes: np.ndarray, k: int):
        self.n = n
        self.k = k
        self.masks = masks
        self.blocks = [(i, j) for i in range(k) for j in range(i, k)]
        # Every block is worked on over the same extended rows; for k > 1 the
        # class-0 rows of the diagonal blocks are kept there to form the trace
        # rows, then dropped by _restrict.
        self._ext = classes if k > 1 else classes[1:]
        e = self._ext.size
        self.m = e
        if k > 1:
            self._zero = np.array([b * e for b, (i, j) in enumerate(self.blocks) if i == j])
            self._keep = np.setdiff1d(np.arange(len(self.blocks) * e), self._zero)
            self.m = self._keep.size + k - 1
        size, N, nb = 1 << n, masks.size, len(self.blocks)
        block = np.empty((k, k), dtype=np.int64)
        for b, (i, j) in enumerate(self.blocks):
            block[i, j] = block[j, i] = b
        # class index of each pair of masks by a search of the sorted classes;
        # a class that is not a row (class 0 at k = 1) goes to the dropped slot
        xor = np.bitwise_xor.outer(masks, masks)
        sorter = np.argsort(self._ext)
        cls = np.append(sorter, e)[np.searchsorted(self._ext, xor, sorter=sorter)]
        kept = np.append(self._ext, -1)[cls] == xor
        self._row = np.where(kept[None, :, None, :],
                             block[:, None, :, None] * e + cls[None, :, None, :],
                             nb * e).reshape(k * N, k * N)
        self._weight = np.repeat([1.0 if i == j else 0.5 for i, j in self.blocks], e)
        # pairs: each extended row gathers the upper half of one kN x kN
        # product; transforms: n-bit transforms of N + 2^n rows per block and
        # of 2^n + e rows per block pair
        pairs = nb * e * (k * N) ** 2 // 2
        transforms = n * size * (nb * (N + size) + nb * (nb + 1) // 2 * (size + e))
        self.schur_product = "pairs" if _PAIR_RATIO * pairs <= transforms else "transforms"

    def _restrict(self, v: np.ndarray) -> np.ndarray:
        """Extended rows (axis 0) -> constraint rows: drop the class-0 rows of
        the diagonal blocks and append their differences to block (0, 0)."""
        if self.k == 1:
            return v
        return np.concatenate([v[self._keep], v[self._zero[1:]] - v[self._zero[0]]])

    def _extend(self, y: np.ndarray) -> np.ndarray:
        """Transpose of _restrict."""
        if self.k == 1:
            return y
        mr = self._keep.size
        out = np.zeros(len(self.blocks) * self._ext.size)
        out[self._keep] = y[:mr]
        out[self._zero[1:]] += y[mr:]
        out[self._zero[0]] -= y[mr:].sum()
        return out

    def _slice(self, i: int) -> slice:
        N = self.masks.size
        return slice(i * N, (i + 1) * N)

    def gather(self, per_block) -> np.ndarray:
        """Constraint rows of per-block class sums (arrays of length 2^n, in
        the order of ``blocks``); with Fourier coefficients this is b."""
        return self._restrict(np.concatenate([v[self._ext] for v in per_block]))

    def apply(self, X: np.ndarray) -> np.ndarray:
        sums = np.bincount(self._row.ravel(), weights=X.ravel(), minlength=self._weight.size + 1)
        return self._restrict(sums[:-1] * self._weight)

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        return np.append(self._extend(y) * self._weight, 0.0)[self._row]

    def schur(self, W: np.ndarray) -> np.ndarray:
        if self.schur_product == "pairs":
            return self._schur_pairs(W)
        return self._schur_transforms(W)

    @cached_property
    def _pair_plan(self):
        """Index arrays of the pair Schur, built once per solve.

        ``batches`` holds, per pair count L, the extended rows whose A' has L
        index pairs, as (rows, I, J) with I and J of shape (rows, L):
        W A' W = _weight[row] * W[:, I] @ W[J, :]. An off-diagonal row has
        both orientations of its pairs, as ``_row`` is symmetric. ``upper``
        lists the flat positions of the upper triangle (x <= y) of a kN x kN
        product that feed a row, sorted by that row; ``starts`` is where
        each row's segment begins, and ``factor`` is <A, .> on a symmetric
        matrix per upper sum: 2 * _weight, for the lower triangle, except
        on the rows of diagonal entries (class 0 of a diagonal block). Every
        row has at least one pair, so no segment is empty."""
        row = self._row.ravel()
        kN, ne = self._row.shape[0], self._weight.size
        # every Gram entry grouped by its row, in raster order within a row
        order = np.argsort(row, kind="stable")
        grouped = row[order]
        first = np.searchsorted(grouped, np.arange(ne))
        count = np.bincount(row, minlength=ne + 1)[:ne]
        batches = []
        for L in np.unique(count):
            rows = np.flatnonzero(count == L)
            I, J = np.divmod(order[first[rows, None] + np.arange(L)], kN)
            batches.append((rows, I, J))
        x, y = np.divmod(order, kN)
        upper = order[(x <= y) & (grouped < ne)]
        starts = np.searchsorted(row[upper], np.arange(ne))
        factor = 2.0 * self._weight
        on_diagonal = np.isin(np.arange(ne), self._row.diagonal())
        factor[on_diagonal] = self._weight[on_diagonal]
        return batches, upper, starts, factor

    def _schur_pairs(self, W: np.ndarray) -> np.ndarray:
        """Schur complement from one product W[:, I] @ W[J, :] per extended
        row, batched over rows with equal pair count, and its class sums."""
        batches, upper, starts, factor = self._pair_plan
        kN = W.shape[0]
        S = np.empty((factor.size, factor.size))
        for rows, I, J in batches:
            # products, their operands and the gathered upper triangles
            step = max(1, _PAIR_CHUNK_BYTES // (8 * kN * (2 * I.shape[1] + 2 * kN)))
            for lo in range(0, rows.size, step):
                chunk = rows[lo:lo + step]
                # W is symmetric: W[:, I] is W[I, :] transposed
                M = np.matmul(W[I[lo:lo + step]].transpose(0, 2, 1), W[J[lo:lo + step]])
                sums = np.add.reduceat(M.reshape(M.shape[0], -1)[:, upper], starts, axis=1)
                S[chunk] = sums * factor * self._weight[chunk, None]
        return self._restrict(self._restrict(S).T)

    def _schur_transforms(self, W: np.ndarray) -> np.ndarray:
        """Schur complement from the 2-D Walsh-Hadamard spectra of the
        zero-padded blocks of W: each block's N rows are transformed along
        the column bits, then every column along the row bits; a product of
        spectra is transformed back along one axis, cut to the classes, and
        only those rows are transformed along the other."""
        size = 1 << self.n
        spectra = {}
        for i, j in self.blocks:
            padded = np.zeros((self.masks.size, size))
            padded[:, self.masks] = W[self._slice(i), self._slice(j)]
            half = np.zeros((size, size))
            half[:, self.masks] = _kron_transform(_HADAMARD, padded)
            del padded
            spectra[i, j] = _kron_transform(_HADAMARD, half)
            del half

        def spectrum(p, q):
            return spectra[p, q] if p <= q else spectra[q, p].T

        def sides(i, j):
            return [(i, j)] if i == j else [(i, j), (j, i)]

        nb = len(self.blocks)
        rows = [[None] * nb for _ in range(nb)]
        for a, (i, j) in enumerate(self.blocks):
            for b in range(a, nb):
                i2, j2 = self.blocks[b]
                if a == b == nb - 1:
                    # the last pair is the last diagonal block with itself:
                    # square its spectrum in place and free the others
                    acc = spectra.pop((i, j))
                    spectra.clear()
                    acc *= acc
                else:
                    acc = sum(spectrum(q, s) * spectrum(p, t)
                              for p, q in sides(i, j) for s, t in sides(i2, j2))
                half = _kron_transform(_HADAMARD, acc)[self._ext]
                del acc
                block = _kron_transform(_HADAMARD, half)[self._ext]
                block *= (0.5 if i != j else 1.0) * (0.5 if i2 != j2 else 1.0) / (float(size) * size)
                rows[a][b], rows[b][a] = block, block.T
        S = rows[0][0] if nb == 1 else np.block(rows)
        return self._restrict(self._restrict(S).T)


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


def _solve_ipm(C, ops, b) -> SdpSolution:
    N = C.shape[0]
    m = b.size
    normb = 1.0 + np.linalg.norm(b)
    normC = 1.0 + np.linalg.norm(C)

    eta = max(1.0, float(np.max(np.abs(b))) if m else 1.0)
    X = eta * np.eye(N)
    Z = max(1.0, float(np.max(np.abs(C)))) * np.eye(N)
    y = np.zeros(m)

    def measure(X, y, Z):
        """Residuals, objectives and the optimality test at an iterate."""
        rp = b - ops.apply(X)
        Rd = C - Z - ops.adjoint(y)
        pobj = float(np.tensordot(C, X))
        dobj = float(b @ y)
        gap = float(np.tensordot(X, Z))
        rel_gap = gap / (1.0 + abs(pobj) + abs(dobj))
        pres = float(np.linalg.norm(rp) / normb)
        dres = float(np.linalg.norm(Rd) / normC)
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
        if np.linalg.norm(y) > 1e13 * normb or np.trace(X) > 1e13 * N * eta:
            status = "infeasible_detected"
            break

        try:
            Lz = np.linalg.cholesky(Z)
            M = Lz.T @ X @ Lz
            s, Q = np.linalg.eigh(M)
            if s[0] <= 0:
                raise np.linalg.LinAlgError("scaled matrix not PD")
        except np.linalg.LinAlgError:
            break  # numerical boundary; report best status below

        mu = float(s.sum()) / N
        d = np.sqrt(s)
        # R maps the scaled space back: R D R^T = X, R^{-T} D R^{-1} = Z with
        # D = diag(d), and W = R R^T
        Rq = sla.solve_triangular(Lz, Q, trans="T", lower=True) * (s ** 0.25)
        W = Rq @ Rq.T
        S = ops.schur(W)
        # tiny ridge for safety at the central-path tail, set on S's own
        # diagonal (S + ridge I without two more m x m arrays)
        diag = S.diagonal().copy()
        ridge = 1e-14 * (diag.sum() / m if m else 1.0)
        for attempt in range(5):
            np.fill_diagonal(S, diag + ridge)
            try:
                S_fact = sla.cho_factor(S, lower=True)
                break
            except np.linalg.LinAlgError:
                ridge = max(ridge * 100.0, 1e-12)
        else:
            break

        A_WRdW = ops.apply(W @ Rd @ W)
        denom = d[:, None] + d[None, :]

        def direction(sigma_mu: float, cc: np.ndarray | None):
            """dy, dZ and the scaled steps R^-1 dX R^-T, R^T dZ R; since
            dX = V - W dZ W, the first is Vh minus the second."""
            Vh = -np.diag(d * d)
            if sigma_mu:
                Vh += sigma_mu * np.eye(N)
            if cc is not None:
                Vh -= cc
            Vh *= 2.0 / denom
            rhs = rp - ops.apply(Rq @ Vh @ Rq.T) + A_WRdW
            dy = sla.cho_solve(S_fact, rhs)
            dZ = Rd - ops.adjoint(dy)
            dZh = Rq.T @ dZ @ Rq
            return dy, dZ, Vh - dZh, dZh

        # predictor; step lengths live in the scaled space where both X and Z
        # look like D: max alpha with I + alpha D^{-1/2} M D^{-1/2} >= 0
        scale = np.sqrt(np.outer(d, d))
        _, _, dXh, dZh = direction(0.0, None)
        ap = min(1.0, _max_step(dXh / scale))
        ad = min(1.0, _max_step(dZh / scale))
        # <X + ap dX, Z + ad dZ> = <D + ap dXh, D + ad dZh>
        D = np.diag(d)
        mu_aff = float(np.tensordot(D + ap * dXh, D + ad * dZh)) / N
        sigma = min(0.999, max(1e-8, (max(mu_aff, 0.0) / mu) ** 3))

        # corrector
        cc = dXh @ dZh
        cc = 0.5 * (cc + cc.T)
        dy, dZ, dXh, dZh = direction(sigma * mu, cc)
        ap = min(1.0, _STEP_DAMPING * _max_step(dXh / scale))
        ad = min(1.0, _STEP_DAMPING * _max_step(dZh / scale))
        if ap < 1e-10 and ad < 1e-10:
            break  # stalled
        X = X + ap * (Rq @ dXh @ Rq.T)
        y = y + ad * dy
        Z = Z + ad * dZ
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
    gram: np.ndarray
    order: int
    basis: np.ndarray      # character masks indexing the Gram matrix
    moment_value: float    # dual (moment-side) objective
    moments: np.ndarray | None
    diagnostics: dict = field(default_factory=dict)


def _check_order(n: int, d: int, r: int) -> None:
    if 2 * r < d:
        raise ValueError(f"order r={r} cannot represent degree {d}: need 2r >= d")
    if r > n:
        raise ValueError("r must be <= n")


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
    ops = _XorConstraints(n, masks, classes, k)
    b = ops.gather([fhat[block] for block in ops.blocks])
    scale = float(np.max(np.abs(b), initial=0.0)) or 1.0
    b = b / scale
    sol = _solve_ipm(np.eye(k * masks.size), ops, b)
    if sol.status != "optimal":
        raise SolverError(f"SDP did not converge: status={sol.status}, "
                          f"gap={sol.rel_gap:.2e}, pres={sol.primal_res:.2e}")
    trace_f0 = sum(fhat[i, i][0] for i in range(k))
    moments = None
    if k == 1:
        moments = np.zeros(1 << n)
        moments[0] = 1.0
        moments[classes[1:]] = -sol.y
    return OuterBoundResult(
        value=float((trace_f0 - scale * sol.primal_obj) / k),
        gram=sol.X * scale,
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
        },
    )


def outer_cube(f: CubePolynomial, r: int) -> OuterBoundResult:
    """The order-r SOS lower bound on min f over {0,1}^n.

    Monotone nondecreasing in r, equal to the minimum once 2r >= n + deg - 1.
    Raises SolverError if the interior-point method does not converge.
    """
    _check_order(f.n, f.degree, r)
    return _outer_sdp(f.n, 1, {(0, 0): spectrum(f)}, r)


def outer_matrix(F: MatrixPolynomial, r: int) -> OuterBoundResult:
    """Order-r SOS lower bound on min_x lambda_min(F(x)) for a symmetric
    matrix polynomial, via the block Gram over (character, coordinate).
    Raises SolverError if the interior-point method does not converge."""
    _check_order(F.n, F.degree, r)
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
    on every cube point to 1e-6, and positive semidefiniteness of G to 1e-8."""
    fvals = value_table(f)
    coeffs = np.zeros(fvals.size)
    xor_flat = np.bitwise_xor.outer(result.basis, result.basis).ravel()
    np.add.at(coeffs, xor_flat, result.gram.ravel())
    recon = fwht(coeffs)
    residual = float(np.max(np.abs(recon - (fvals - result.value))))
    lam_min = float(np.linalg.eigvalsh(result.gram)[0])
    psd = lam_min >= -1e-8
    return SosVerification(residual, lam_min, psd, psd and residual <= 1e-6)
