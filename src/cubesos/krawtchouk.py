"""Binary and q-ary Krawtchouk polynomials.

The degree-k Krawtchouk polynomial with parameters (n, q) is

    K_k(t) = sum_i (-1)^i (q-1)^{k-i} C(t,i) C(n-t,k-i),

orthogonal on the integer grid [0:n] with respect to the discrete measure
w(t) = (q-1)^t C(n,t) / q^n, with K_k(0) = (q-1)^k C(n,k) = ||K_k||^2_w.
Everything here works with the normalization Khat_k = K_k / K_k(0), whose
values stay in [-1, 1] at integer arguments, and with the orthonormal family
p_k = K_k / ||K_k||_w. In that basis multiplication by t is the Jacobi
matrix, kept as its diagonal and off-diagonal; the least root xi_r^n of K_r
is its smallest eigenvalue, cross-checked by bisecting Khat_r.

The three-term recurrence in the Khat normalization reads

    Khat_{k+1}(t) = [((q-1)(n-k) + k - q t) Khat_k(t) - k Khat_{k-1}(t)]
                    / ((q-1)(n-k)),

which for q = 2 reduces to Khat_{k+1} = [(n-2t) Khat_k - k Khat_{k-1}]/(n-k).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import SolverError

__all__ = [
    "DiscreteMeasure",
    "RootCrossCheckError",
    "kraw_int",
    "kraw_hat_table",
    "orthonormal_table",
    "jacobi_matrix",
    "least_root",
    "levenshtein_phi",
    "limit_poly_eval",
    "kraw_step_bound_check",
    "StepBoundReport",
    "root_sweep_rows",
]


class RootCrossCheckError(SolverError):
    """Jacobi eigenvalue and sign-change bisection disagree beyond tolerance."""


@dataclass(frozen=True)
class DiscreteMeasure:
    """The orthogonality measure w(t) = (q-1)^t C(n,t)/q^n on {0,...,n}."""

    n: int
    q: int = 2

    def __post_init__(self):
        if self.q < 2:
            raise ValueError("q must be >= 2")
        if self.n < 0:
            raise ValueError("n must be >= 0")

    @property
    def weights(self) -> np.ndarray:
        # one exact integer division per point: correctly rounded
        n, q = self.n, self.q
        return np.array([math.comb(n, t) * (q - 1) ** t / q**n for t in range(n + 1)])


def kraw_int(n: int, q: int, k: int, t: int) -> int:
    """Exact integer value of the unnormalized K_k(t) via the defining sum."""
    return sum(
        (-1) ** i * (q - 1) ** (k - i) * math.comb(t, i) * math.comb(n - t, k - i)
        for i in range(k + 1)
    )


def kraw_int_table(n: int, q: int, kmax: int | None = None) -> list:
    """table[k][t] = K_k(t) as exact integers, via the unnormalized three-term
    recurrence (k+1) K_{k+1} = ((n-k)(q-1) + k - qt) K_k - (q-1)(n-k+1) K_{k-1}
    (the division by k+1 is exact)."""
    kmax = n if kmax is None else kmax
    rows = [[1] * (n + 1)]
    if kmax >= 1:
        rows.append([(q - 1) * n - q * t for t in range(n + 1)])
    for k in range(1, kmax):
        prev, cur = rows[k - 1], rows[k]
        rows.append([
            (((n - k) * (q - 1) + k - q * t) * cur[t] - (q - 1) * (n - k + 1) * prev[t])
            // (k + 1)
            for t in range(n + 1)
        ])
    return rows


def kraw_norm_sq(n: int, q: int, k: int) -> float:
    """||K_k||^2_w = (q-1)^k C(n,k)."""
    return float((q - 1) ** k * math.comb(n, k))


_EXACT_TABLE_LIMIT = 512  # beyond this the norms overflow float64 anyway


def kraw_hat_table(n: int, kmax: int, q: int = 2, t=None) -> np.ndarray:
    """Normalized values Khat_k(t), shape (kmax+1, len(t)); t defaults to 0..n.

    On the integer grid the table is produced from the exact integer
    recurrence and rounded once, so every entry is correct to machine
    precision (the float recurrence loses absolute accuracy in the high
    degree, high argument corner, which the orthonormal family amplifies).
    Real arguments run through the float recurrence.
    """
    if kmax > n:
        raise ValueError("degree exceeds n")
    if t is None and n <= _EXACT_TABLE_LIMIT:
        rows = kraw_int_table(n, q, kmax)
        out = np.empty((kmax + 1, n + 1))
        for k, row in enumerate(rows):
            norm = (q - 1) ** k * math.comb(n, k)
            out[k] = [v / norm for v in row]
        return out
    tt = np.arange(n + 1, dtype=np.float64) if t is None else np.atleast_1d(np.asarray(t, dtype=np.float64))
    out = np.empty((kmax + 1, tt.size))
    out[0] = 1.0
    if kmax >= 1:
        out[1] = 1.0 - q * tt / ((q - 1) * n)
    for k in range(1, kmax):
        den = (q - 1) * (n - k)
        out[k + 1] = (((q - 1) * (n - k) + k - q * tt) * out[k] - k * out[k - 1]) / den
    return out


def orthonormal_table(n: int, kmax: int, q: int = 2, t=None) -> np.ndarray:
    """Values of the w-orthonormal family p_k = Khat_k * ||K_k||_w."""
    scale = np.array([math.sqrt(kraw_norm_sq(n, q, k)) for k in range(kmax + 1)])
    return kraw_hat_table(n, kmax, q, t) * scale[:, None]


# ---------------------------------------------------------------------------
# Jacobi matrices and extremal roots


def jacobi_matrix(n: int, q: int, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and off-diagonal of the order-r Jacobi matrix: multiplication
    by t in the orthonormal Krawtchouk basis, whose eigenvalues are the roots
    of K_r."""
    if q < 2:
        raise ValueError("q must be >= 2")
    if not 1 <= order <= n:
        raise ValueError(f"order={order} out of range 1..{n}")
    k = np.arange(order, dtype=np.float64)
    diag = ((q - 1) * (n - k) + k) / q
    koff = np.arange(order - 1, dtype=np.float64)
    off = np.sqrt((q - 1) * (koff + 1) * (n - koff)) / q
    return diag, off


def _bisect_least_root(n: int, q: int, r: int, grid_points: int) -> float | None:
    """First sign change of Khat_r on [0, n] located by scan + bisection."""
    ts = np.linspace(0.0, float(n), grid_points)
    vals = kraw_hat_table(n, r, q, t=ts)[r]
    sign_change = np.flatnonzero((vals[:-1] > 0) & (vals[1:] <= 0))
    if sign_change.size == 0:
        return None
    lo, hi = ts[sign_change[0]], ts[sign_change[0] + 1]
    flo = vals[sign_change[0]]
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fmid = kraw_hat_table(n, r, q, t=[mid])[r, 0]
        if flo * fmid > 0:
            lo, flo = mid, fmid
        else:
            hi = mid
        if hi - lo < 1e-12 * max(1.0, lo):
            break
    return 0.5 * (lo + hi)


def least_root(n: int, q: int, r: int) -> float:
    """xi_r^n: the least root of the degree-r Krawtchouk polynomial.

    Computed as the smallest eigenvalue of the order-r Jacobi matrix and
    cross-validated against a sign-change bisection of the normalized
    recurrence (agreement to 1e-8 required).
    """
    # imported here, so that the callers that never need a root never load scipy
    from scipy.linalg import eigh_tridiagonal

    # LAPACK bisection on the Sturm sequence
    xi = float(eigh_tridiagonal(*jacobi_matrix(n, q, r), eigvals_only=True,
                                select="i", select_range=(0, 0))[0])
    root = _bisect_least_root(n, q, r, grid_points=8 * r + 2)
    if root is None or abs(root - xi) > 1e-8 * max(1.0, abs(xi)):
        root = _bisect_least_root(n, q, r, grid_points=64 * r + 2)
    if root is None or abs(root - xi) > 1e-8 * max(1.0, abs(xi)):
        raise RootCrossCheckError(
            f"least root disagreement for (n={n}, q={q}, r={r}): "
            f"eigenvalue {xi!r} vs bisection {root!r}"
        )
    return xi


def levenshtein_phi(t: float, q: int = 2) -> float:
    """The limiting extremal-root curve phi_q on [0, (q-1)/q].

    phi_q(t) = (q-1)/q - ((q-2) t / q + (2/q) sqrt((q-1) t (1-t))); for q = 2
    this is 1/2 - sqrt(t(1-t)).
    """
    if q < 2:
        raise ValueError("q must be >= 2")
    hi = (q - 1) / q
    if not -1e-12 <= t <= hi + 1e-12:
        raise ValueError(f"t={t} outside [0, {hi}]")
    t = min(max(t, 0.0), hi)
    return max(0.0, hi - ((q - 2) * t / q + (2.0 / q) * math.sqrt((q - 1) * t * (1.0 - t))))


def limit_poly_eval(k: int, t: float, q: int = 2) -> float:
    """Khat_k^infinity(t) = (1 - q t/(q-1))^k, the n -> infinity limit of
    Khat_k^n(n t)."""
    if not 0.0 <= t <= 1.0:
        raise ValueError("t must lie in [0, 1]")
    return (1.0 - q * t / (q - 1)) ** k


@dataclass(frozen=True)
class StepBoundReport:
    """Exhaustive check of |Khat_k(t) - Khat_k(t+1)| <= 2k/n and
    |Khat_k(t) - 1| <= 2kt/n for all k <= d, t in [0:n]."""

    n: int
    q: int
    d: int
    min_step_slack: float
    min_drift_slack: float

    @property
    def ok(self) -> bool:
        return self.min_step_slack >= -1e-12 and self.min_drift_slack >= -1e-12


def kraw_step_bound_check(n: int, q: int, d: int) -> StepBoundReport:
    if d > n:
        raise ValueError("d must be <= n")
    table = kraw_hat_table(n, d, q)
    t = np.arange(n + 1, dtype=np.float64)
    k = np.arange(d + 1, dtype=np.float64)[:, None]
    step_slack = (2.0 * k / n) - np.abs(table[:, :-1] - table[:, 1:])
    drift_slack = (2.0 * k * t / n) - np.abs(table - 1.0)
    return StepBoundReport(
        n, q, d, float(step_slack.min()), float(drift_slack.min())
    )


def root_sweep_rows(ns, qs, r_max=None):
    """Rows (n, q, r, xi, xi/n, phi_q(r/n)) for r = 1..r_max (default n//2),
    capped at floor((q-1) n / q): phi_q is defined on [0, (q-1)/q] only."""
    for q in qs:
        if q < 2:
            raise ValueError("q must be >= 2")
        for n in ns:
            top = min(n // 2 if r_max is None else r_max, (q - 1) * n // q)
            for r in range(1, top + 1):
                xi = least_root(n, q, r)
                yield {
                    "n": n,
                    "q": q,
                    "r": r,
                    "xi": xi,
                    "xi_over_n": xi / n,
                    "phi_q(r/n)": levenshtein_phi(r / n, q),
                }
