"""Harmonic-component sup-norm constants.

rho(n, d, k) is the largest possible sup-norm of the weight-k harmonic
component of a degree-d polynomial with sup-norm 1 on {0,1}^n (or its q-ary
analogue). It is computed here as a small linear program over Krawtchouk
values; its n -> infinity limit has a closed form in terms of Chebyshev
coefficients, giving

    gamma_d = max_k rho(infinity, d, k),      C_d = d (d+1) gamma_d.

The module also houses the dense-tableau simplex solver (Bland's rule) used
for these LPs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import SolverError

__all__ = [
    "LpSolution",
    "solve_lp",
    "chebyshev_coeffs",
    "rho_infinity",
    "rho_infinity_grid",
    "rho_finite",
    "RhoResult",
    "gamma_d",
    "c_d",
    "GammaTable",
    "build_gamma_table",
    "GAMMA_TABLE_KNOWN",
]

# reference values gamma_1..gamma_10
GAMMA_TABLE_KNOWN = (1, 2, 4, 8, 20, 48, 112, 256, 576, 1280)


# ---------------------------------------------------------------------------
# simplex


_LP_TOL = 1e-9  # pivoting, ratio-test and feasibility tolerance of solve_lp


@dataclass(frozen=True)
class LpSolution:
    status: str  # optimal | unbounded | infeasible
    x: np.ndarray | None
    value: float | None


def solve_lp(c, A, b) -> LpSolution:
    """Maximize c.x subject to A x <= b, x >= 0.

    Dense-tableau two-phase simplex. Pivots follow Dantzig's rule until the
    objective stalls, then switch permanently to Bland's rule, which
    guarantees termination on degenerate instances. Returns an optimal basic
    solution; the objective is recomputed from x on exit so the reported
    value matches the constraints to rounding.
    """
    A = np.asarray(A, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64).ravel()
    c = np.asarray(c, dtype=np.float64).ravel()
    m, nvars = A.shape

    # rows with negative rhs get negated and an artificial variable
    neg = b < 0
    art_rows = np.flatnonzero(neg)
    n_art = art_rows.size
    ncols = nvars + m + n_art
    T = np.zeros((m, ncols + 1))
    T[:, :nvars] = A
    T[:, nvars:nvars + m] = np.eye(m)
    T[:, -1] = b
    T[neg] *= -1.0
    basis = np.arange(nvars, nvars + m)
    for j, i in enumerate(art_rows):
        T[i, nvars + m + j] = 1.0
        basis[i] = nvars + m + j

    def pivot(row: int, col: int) -> None:
        T[row] /= T[row, col]
        colvals = T[:, col].copy()
        colvals[row] = 0.0
        T[:, :] -= np.outer(colvals, T[row])
        basis[row] = col

    def run(obj: np.ndarray) -> str:
        bland = False
        stall = 0
        last_value = -np.inf
        in_basis = np.zeros(ncols, dtype=bool)
        while True:
            in_basis[:] = False
            in_basis[basis] = True
            z = obj[basis] @ T[:, :-1] - obj[:ncols]
            candidates = (z < -_LP_TOL) & ~in_basis
            if not candidates.any():
                return "optimal"
            if bland:
                entering = int(np.argmax(candidates))  # smallest eligible index
            else:
                zc = np.where(candidates, z, 0.0)
                entering = int(np.argmin(zc))
            col = T[:, entering]
            pos = col > _LP_TOL
            if not pos.any():
                return "unbounded"
            ratios = np.full(m, np.inf)
            ratios[pos] = T[pos, -1] / col[pos]
            best = ratios.min()
            ties = np.flatnonzero(ratios <= best + _LP_TOL)
            leave = int(ties[np.argmin(basis[ties])])  # Bland tie-break
            pivot(leave, entering)
            value = obj[basis] @ T[:, -1]
            if value > last_value + _LP_TOL:
                stall = 0
            else:
                stall += 1
                if stall > 50:
                    bland = True  # anti-cycling guard
            last_value = value

    if n_art:
        phase1 = np.zeros(ncols)
        phase1[nvars + m:] = -1.0  # maximize -(sum of artificials)
        run(phase1)
        if phase1[basis] @ T[:, -1] < -_LP_TOL:
            return LpSolution("infeasible", None, None)
        # drive any leftover artificial out of the basis
        for i in range(m):
            if basis[i] >= nvars + m:
                row = T[i, :nvars + m]
                j = int(np.argmax(np.abs(row)))
                if abs(row[j]) > _LP_TOL:
                    pivot(i, j)
        T[:, nvars + m:ncols] = 0.0

    obj = np.zeros(ncols)
    obj[:nvars] = c
    status = run(obj)
    if status != "optimal":
        return LpSolution(status, None, None)
    x = np.zeros(ncols)
    x[basis] = T[:, -1]
    x = x[:nvars]
    return LpSolution("optimal", x, float(c @ x))


# ---------------------------------------------------------------------------
# Chebyshev closed form for rho(infinity, d, k)


def chebyshev_coeffs(m: int) -> list:
    """Monomial coefficients of the Chebyshev polynomial T_m, exact integers,
    via T_{m+1} = 2x T_m - T_{m-1}."""
    if m < 0:
        raise ValueError("m must be >= 0")
    prev, cur = [1], [0, 1]
    if m == 0:
        return prev
    for _ in range(m - 1):
        nxt = [0] + [2 * c for c in cur]
        for i, c in enumerate(prev):
            nxt[i] -= c
        prev, cur = cur, nxt
    return cur


def rho_infinity(d: int, k: int) -> int:
    """rho(infinity, d, k): |t_{d,k}| when k = d (mod 2), else |t_{d-1,k}|."""
    if not 0 <= k <= d:
        raise ValueError("need 0 <= k <= d")
    m = d if (k % 2) == (d % 2) else d - 1
    return abs(chebyshev_coeffs(m)[k])


def gamma_d(d: int) -> int:
    """gamma_d = max_k rho(infinity, d, k); equals max |Chebyshev coefficient|."""
    if d == 0:
        return 1
    return max(rho_infinity(d, k) for k in range(d + 1))


def c_d(d: int) -> int:
    """The error-bound constant C_d = d (d+1) gamma_d."""
    return d * (d + 1) * gamma_d(d)


# ---------------------------------------------------------------------------
# finite-n and grid LPs


@dataclass(frozen=True)
class RhoResult:
    value: float
    lam: np.ndarray  # a maximizing coefficient vector


def rho_finite(n: int, d: int, k: int, q: int = 2) -> RhoResult:
    """rho(n, d, k): max lambda_k s.t. |sum_i lambda_i Khat_i(t)| <= 1 on [0:n].

    Free variables are split (lambda = u - v) so the simplex starts from the
    all-slack basis; the LP is bounded and feasible by construction.
    """
    if not (0 <= k <= d <= n):
        raise ValueError("need k <= d <= n")
    from .krawtchouk import kraw_hat_table  # deferred: keeps the constants CLI light

    table = kraw_hat_table(n, d, q)  # (d+1, n+1)
    G = table.T  # rows: grid points
    A = np.vstack([np.hstack([G, -G]), np.hstack([-G, G])])
    b = np.ones(2 * (n + 1))
    c = np.zeros(2 * (d + 1))
    c[k] = 1.0
    c[d + 1 + k] = -1.0
    sol = solve_lp(c, A, b)
    if sol.status != "optimal":  # cannot happen: 0 is feasible, region bounded
        raise SolverError(f"rho LP unexpectedly {sol.status}")
    lam = sol.x[: d + 1] - sol.x[d + 1:]
    return RhoResult(sol.value, lam)


def rho_infinity_grid(d: int, k: int, q: int = 2, grid_points: int = 10001) -> float:
    """Grid discretization of the limit program: max lambda_k subject to
    |sum_i lambda_i x^i| <= 1 on x in [1 - q/(q-1), 1] (the image of [0,1]
    under the limit polynomials). Cross-checks the Chebyshev closed form for
    q = 2; for q > 2 it is the definition used.

    Solved through the LP dual, whose tableau has only 2(d+1) rows.
    """
    lo = 1.0 - q / (q - 1.0)
    xs = np.linspace(lo, 1.0, grid_points)
    V = np.vander(xs, d + 1, increasing=True)  # (G, d+1)
    # primal: max e_k.lam  s.t.  [V; -V] lam <= 1
    # dual:   min 1.mu     s.t.  [V; -V]^T mu = e_k, mu >= 0
    At = np.vstack([V, -V]).T  # (d+1, 2G)
    ek = np.zeros(d + 1)
    ek[k] = 1.0
    A = np.vstack([At, -At])
    b = np.concatenate([ek, -ek])
    c = -np.ones(At.shape[1])
    sol = solve_lp(c, A, b)
    if sol.status != "optimal":
        raise SolverError(f"grid LP unexpectedly {sol.status}")
    return -sol.value


# ---------------------------------------------------------------------------
# assembled table


@dataclass(frozen=True)
class GammaTable:
    d: int
    q: int
    rho_finite_values: dict  # (n, k) -> float
    rho_infinity_values: dict = field(default_factory=dict)  # k -> float
    gamma: float = 0.0
    c_constant: float = 0.0


def build_gamma_table(d: int, n_values, q: int = 2) -> GammaTable:
    """rho(n,d,k) over the requested n values plus the limit values.

    For q = 2 the limit values are the exact Chebyshev coefficients; for q > 2
    they come from the grid LP (there is no tabulated closed form) and the
    resulting gamma is an empirical constant.
    """
    if q < 2:
        raise ValueError("q must be >= 2")
    rho_fin = {}
    for n in n_values:
        if n < d:
            continue
        for k in range(d + 1):
            rho_fin[(n, k)] = rho_finite(n, d, k, q).value
    if q == 2:
        rho_inf = {k: float(rho_infinity(d, k)) for k in range(d + 1)}
    else:
        rho_inf = {k: rho_infinity_grid(d, k, q) for k in range(d + 1)}
    gam = max(rho_inf.values()) if rho_inf else 1.0
    return GammaTable(d, q, rho_fin, rho_inf, gam, d * (d + 1) * gam)
