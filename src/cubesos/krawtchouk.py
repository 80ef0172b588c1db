"""Binary and q-ary Krawtchouk polynomials.

The degree-k Krawtchouk polynomial with parameters (n, q) is

    K_k(t) = sum_i (-1)^i (q-1)^{k-i} C(t,i) C(n-t,k-i),

orthogonal on the integer grid [0:n] with respect to the discrete measure
w(t) = (q-1)^t C(n,t) / q^n, with K_k(0) = (q-1)^k C(n,k) = ||K_k||^2_w.
Everything here works with the normalization Khat_k = K_k / K_k(0), whose
values stay in [-1, 1] at integer arguments, and with the orthonormal family
p_k = K_k / ||K_k||_w. In that basis multiplication by t is the Jacobi
matrix J, whose order-r eigenvalues are the roots of K_r. The matrix q J has
integer diagonal and squared off-diagonal entries, so the number of roots at
or below a float t is an exact Sturm count: the signs of the LDL^T pivots of
q (J - t I), taken in Fractions. `least_root` bisects with the same count in
floats, proves both ends of the bracket exactly and returns its upper end;
no second evaluator cross-checks it.

The tables are exact at every n: the integer values K_k(t) come from the
unnormalized three-term recurrence, and each is divided once by the integer
norm K_k(0). Python's int / int division is correctly rounded at any size,
so every entry of `kraw_hat_table` is the correctly rounded Khat_k(t).

Two sweeps compare xi/n against the extremal-root curve phi_q:
`root_sweep_rows` steps r at fixed n, and `phi_q_sweep` steps t = r/n on a
grid of [0, (q-1)/q].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DiscreteMeasure",
    "kraw_int",
    "kraw_hat_table",
    "orthonormal_table",
    "least_root",
    "levenshtein_phi",
    "kraw_step_bound_check",
    "StepBoundReport",
    "root_sweep_rows",
    "phi_q_sweep",
]


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


def kraw_hat_table(n: int, kmax: int, q: int = 2) -> np.ndarray:
    """Normalized values Khat_k(t) for k = 0..kmax and t = 0..n, shape
    (kmax+1, n+1).

    Each entry is the exact integer K_k(t) of `kraw_int_table` divided by
    the integer norm (q-1)^k C(n,k), so it is the correctly rounded value
    at every n (a float recurrence loses absolute accuracy in the high
    degree, high argument corner, which the orthonormal family amplifies).
    """
    if kmax > n:
        raise ValueError("degree exceeds n")
    out = np.empty((kmax + 1, n + 1))
    for k, row in enumerate(kraw_int_table(n, q, kmax)):
        norm = (q - 1) ** k * math.comb(n, k)
        out[k] = [v / norm for v in row]
    return out


def orthonormal_table(n: int, kmax: int, q: int = 2) -> np.ndarray:
    """Values p_k(t) = Khat_k(t) * ||K_k||_w of the w-orthonormal family,
    for t = 0..n."""
    scale = np.array([math.sqrt(kraw_norm_sq(n, q, k)) for k in range(kmax + 1)])
    return kraw_hat_table(n, kmax, q) * scale[:, None]


# ---------------------------------------------------------------------------
# Jacobi matrices and extremal roots


def _scaled_jacobi(n: int, q: int, order: int) -> tuple[list[int], list[int]]:
    """The integer entries of q J, for J the order-r Jacobi matrix: diagonal
    (q-1)(n-k) + k for k < r, and squared off-diagonal (q-1)(k+1)(n-k) for
    k < r - 1."""
    if q < 2:
        raise ValueError("q must be >= 2")
    if not 1 <= order <= n:
        raise ValueError(f"order={order} out of range 1..{n}")
    return ([(q - 1) * (n - k) + k for k in range(order)],
            [(q - 1) * (k + 1) * (n - k) for k in range(order - 1)])


def _roots_below(q: int, jacobi: tuple[list[int], list[int]], t) -> int:
    """The number of roots of K_r at or below t: the negative pivots of the
    LDL^T of q (J - t I), with J given by `_scaled_jacobi`.

    It runs in the arithmetic of t: floats give an estimate, Fractions an
    exact count. A zero pivot counts as negative, as it is at t + eps, where
    the pivot after it is +inf; so the count is that of the roots <= t.
    """
    diag, off_sq = jacobi
    s = q * t
    count, d = 0, None  # None: the previous pivot is infinite, or there is none
    for k, a in enumerate(diag):
        if d == 0:
            d = None
            continue
        d = a - s if d is None else a - s - off_sq[k - 1] / d
        count += d <= 0
    return count


def least_root(n: int, q: int, r: int) -> float:
    """xi_r^n: the least root of the degree-r Krawtchouk polynomial, rounded up.

    Float Sturm counts bisect an estimate [lo, hi] on [0, n]. Exact counts in
    Fractions then prove that no root lies at or below lo and one lies at or
    below hi, each end widened by a doubling number of ulps until its count
    holds. The upper end is returned, since every bound grows with xi.
    """
    from fractions import Fraction  # here, so that the solvers that need no root never load it

    jacobi = _scaled_jacobi(n, q, r)
    lo, hi = 0.0, float(n)
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        if _roots_below(q, jacobi, mid):
            hi = mid
        else:
            lo = mid
    ulps = 1
    while _roots_below(q, jacobi, Fraction(lo)):
        lo, ulps = max(lo - ulps * math.ulp(lo), 0.0), 2 * ulps
    ulps = 1
    while not _roots_below(q, jacobi, Fraction(hi)):
        hi, ulps = hi + ulps * math.ulp(hi), 2 * ulps
    return hi


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


def phi_q_sweep(q_list, n_list=(), t_points: int = 200):
    """Rows of the extremal-root curve phi_q on a t grid, with measured
    xi_{round(tn)}/n columns for each requested n (monotone convergence as n
    grows)."""
    for q in q_list:
        if q < 2:
            raise ValueError("q must be >= 2")
        hi = (q - 1) / q
        for t in np.linspace(0.0, hi, t_points):
            row = {"q": q, "t": float(t), "phi_q": levenshtein_phi(float(t), q)}
            for n in n_list:
                r = max(1, round(t * n))
                row[f"xi_over_n[n={n}]"] = least_root(n, q, r) / n
            yield row
