"""Polynomials on the q-ary cube {0,...,q-1}^n: the real, symmetric slice.

Exponents live in the quotient by x_i (x_i - 1) ... (x_i - q + 1), so every
variable's exponent reduces below q. Brute-force minimization and the
extremal-root curve sweeps live here; the symmetrized inner hierarchy is
the univariate problem ``inner_univariate_values(F, DiscreteMeasure(n, q), r)``
on the profile F of values on [0:n], against the q-ary Krawtchouk measure.
The complex character machinery is deliberately out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import check_cap
from .krawtchouk import least_root, levenshtein_phi

__all__ = [
    "QaryPolynomial",
    "qary_brute_min",
    "phi_q_sweep",
]


def _falling_factorial_fold(q: int) -> np.ndarray:
    """Coefficients c[0..q-1] with t^q = sum_i c[i] t^i modulo
    t (t-1) ... (t-q+1)."""
    poly = np.array([1.0])  # ascending coefficients of prod_j (t - j)
    for j in range(q):
        nxt = np.zeros(poly.size + 1)
        nxt[1:] += poly
        nxt[:-1] -= j * poly
        poly = nxt
    return -poly[:q]


def _reduce_exponent_table(q: int, emax: int) -> list:
    """reps[e] = coefficients (length q) of t^e in the quotient ring."""
    fold = _falling_factorial_fold(q)
    reps = [np.zeros(q) for _ in range(max(emax + 1, q))]
    for e in range(q):
        reps[e][e] = 1.0
    for e in range(q, emax + 1):
        shifted = np.zeros(q + 1)
        shifted[1:] = reps[e - 1]
        reps[e] = shifted[:q] + shifted[q] * fold
    return reps


@dataclass(frozen=True)
class QaryPolynomial:
    """Real polynomial on {0,...,q-1}^n with per-variable exponents < q."""

    n: int
    q: int
    terms: dict = field(default_factory=dict)  # exponent tuple -> coefficient

    def __post_init__(self):
        for exps, coef in self.terms.items():
            if len(exps) != self.n:
                raise ValueError("exponent vector has wrong length")
            if any(not 0 <= e < self.q for e in exps):
                raise ValueError("exponents must be reduced below q")
            if not np.isfinite(coef):
                raise ValueError("coefficients must be finite")

    @classmethod
    def from_terms(cls, n: int, q: int, terms) -> "QaryPolynomial":
        """Build from (exponent vector, coefficient) pairs; exponents >= q are
        reduced through the falling-factorial relation."""
        emax = max((max(e) for e, _ in terms if len(e)), default=0)
        reps = _reduce_exponent_table(q, max(emax, q - 1))
        acc: dict[tuple, float] = {}

        def expand(exps, coef):
            items = [(tuple(), coef)]
            for e in exps:
                if e < q:
                    items = [(prefix + (e,), c) for prefix, c in items]
                else:
                    rep = reps[e]
                    items = [
                        (prefix + (k,), c * rep[k])
                        for prefix, c in items
                        for k in range(q)
                        if rep[k] != 0.0
                    ]
            for key, c in items:
                acc[key] = acc.get(key, 0.0) + c

        for exps, coef in terms:
            if len(exps) != n:
                raise ValueError("exponent vector has wrong length")
            expand(tuple(int(e) for e in exps), float(coef))
        return cls(n, q, {e: c for e, c in acc.items() if c != 0.0})

    def evaluate(self, x) -> float:
        xs = tuple(int(v) for v in x)
        if len(xs) != self.n:
            raise ValueError("point has wrong length")
        total = 0.0
        for exps, coef in self.terms.items():
            prod = coef
            for xi, e in zip(xs, exps):
                if e:
                    prod *= xi ** e
            total += prod
        return total

    def value_table(self) -> np.ndarray:
        """Values on all q^n points, ordered so index order = lexicographic
        order on (x_1, ..., x_n)."""
        size = self.q ** self.n
        # q^n points count against the cap as ceil(log2(q^n)) binary variables
        check_cap((size - 1).bit_length())
        # summed over the (q,)*n grid, whose C order is the lexicographic one;
        # each power of x_i broadcasts along axis i, so memory stays at two
        # q^n arrays
        shape = (self.q,) * self.n
        vals, term = np.zeros(shape), np.empty(shape)
        for exps, coef in self.terms.items():
            term.fill(coef)
            for i, e in enumerate(exps):
                if e:
                    term *= (np.arange(self.q, dtype=np.float64) ** e).reshape(
                        (self.q,) + (1,) * (self.n - 1 - i))
            vals += term
        return vals.ravel()


def qary_brute_min(f: QaryPolynomial) -> tuple[float, np.ndarray]:
    """Exact minimum over {0,...,q-1}^n with lexicographically smallest argmin."""
    vals = f.value_table()
    idx = int(np.argmin(vals))  # first minimum = lex smallest by construction
    point = np.zeros(f.n, dtype=np.int64)
    for i in range(f.n - 1, -1, -1):
        point[i] = idx % f.q
        idx //= f.q
    return float(vals.min()), point


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
