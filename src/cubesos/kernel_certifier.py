"""Explicit sum-of-squares certificates on the cube from univariate kernels.

Pipeline: pick a degree-r univariate polynomial u whose square, expanded in
the Krawtchouk basis u^2 = sum_i lam_i K_i, has lam_0 = 1 and the low-order
lam_i close to 1 (a smallest-eigenvalue problem); the kernel operator

    (T p)(x) = 2^{-n} sum_y p(y) u^2(d(x, y))

then scales the weight-k harmonic component of p by lam_k. If f has been
translated so its minimum sits at 0 and scaled to sup-norm 1, nonnegativity
of T^{-1}(f - f_min + delta) for a computable budget delta turns

    f - f_min + delta = sum_y w_y u^2(d(., y)),   w_y >= 0

into an explicit SOS-on-cube identity of degree 2r, certifying that the
order-r SOS lower bound is within delta of the true minimum.

``certify`` works from one value table of f: the minimum, its minimizer x0
and the sup-norm are read off it, the translate x -> x XOR x0 re-indexes it,
and T^{-1} is applied once, giving both the tight budget and the weights. A
value table that is not finite (``value_table`` refuses it), or whose range
max f - min f overflows (coefficients near the float range), is rejected
with ``ValueError``.

``SosCubeCertificate.json_pieces`` streams the certificate from its arrays:
the scalar fields through ``json.dumps(..., indent=1)``, then the 2^n weight
records in mask order, formatted a fixed block at a time (the bitstrings of
one block of masks, each weight as its shortest round-trip float:
``float.__repr__``, which is what ``json`` writes for a finite float), so no
more than one block of text exists at once. Non-finite fields are refused
before the first piece, so the text is always strict JSON. ``to_json`` is
the join of the same pieces, and ``to_dict`` parses it back.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .config import CertificationError, SolverError, check_order
from .cube_fourier import (
    CubePolynomial,
    _argmin_mask,
    fwht,
    mask_bitstrings,
    mask_to_bitstring,
    mask_to_point,
    point_to_mask,
    popcount_table,
    value_table,
)
from .gamma_constants import c_d, gamma_d
from .inner_hierarchy import inner_univariate_values
from .krawtchouk import DiscreteMeasure, kraw_hat_table, least_root, orthonormal_table

__all__ = [
    "RESIDUAL_TOL",
    "KernelSpec",
    "SosCubeCertificate",
    "CertificationError",
    "SingularOperatorError",
    "choose_kernel",
    "certify",
    "error_sweep",
]


# Weight records formatted per piece of ``SosCubeCertificate.json_pieces``:
# about 1.1 MB of text at n = 20, so writing a certificate holds one block,
# not 2^n records.
_RECORD_BLOCK = 1 << 14

# Largest pointwise residual |sum_y w_y u^2(d(x, y)) - (h + delta)| that
# counts as a verified certificate; the test suite checks against the same.
RESIDUAL_TOL = 1e-7


class SingularOperatorError(CertificationError):
    pass


@dataclass(frozen=True)
class KernelSpec:
    """A chosen kernel u and the operator eigenvalues it induces."""

    n: int
    d: int
    r: int
    u_coeffs: np.ndarray      # coordinates of u in the orthonormal Krawtchouk basis
    u_values: np.ndarray      # u(t) for t = 0..n
    lambdas: np.ndarray       # lam_0..lam_{2r}
    lambda_tilde: float       # sum_{i<=d} (1 - lam_i)
    lambda_abs: float         # sum_{i<=d} |1/lam_i - 1|
    delta: float              # gamma_d * lambda_abs


def choose_kernel(n: int, d: int, r: int) -> KernelSpec:
    """Optimal kernel for degree-d inputs: minimizes sum_{i<=d}(1 - lam_i)
    over unit-norm u of degree r, i.e. the order-r inner bound of
    g(t) = d - sum_{i=1..d} Khat_i(t) on [0:n].
    """
    check_order(n, r, d)
    measure = DiscreteMeasure(n, 2)
    khat = kraw_hat_table(n, min(2 * r, n), 2)
    g = d - khat[1:d + 1].sum(axis=0) if d >= 1 else np.zeros(n + 1)
    res = inner_univariate_values(g, measure, r)
    u_coeffs = res.density_coeffs
    u_values = u_coeffs @ orthonormal_table(n, r, 2)
    usq_w = u_values**2 * measure.weights
    lambdas = khat @ usq_w
    if 2 * r > n:
        lambdas = np.concatenate([lambdas, np.zeros(2 * r - n)])
    lam_tilde = float(d - lambdas[1:d + 1].sum())
    if abs(lam_tilde - res.value) > 1e-8 * max(1.0, abs(res.value)):
        raise SolverError("eigenvalue and lambda bookkeeping disagree")
    low = lambdas[1:d + 1]
    if np.any(np.abs(low) < 1e-14):
        raise SingularOperatorError("kernel operator is singular on low harmonics")
    lam_abs = float(np.abs(1.0 / low - 1.0).sum())
    return KernelSpec(
        n, d, r, u_coeffs, u_values, lambdas, lam_tilde, lam_abs, gamma_d(d) * lam_abs,
    )


def _apply_by_weight(factors: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """Scale the weight-k Fourier component of a value table by factors[k]:
    the one harmonic multiplier. With factors = lam it applies the kernel
    operator T, and with 1/lam on the weights <= deg f it applies T^{-1}."""
    fhat = fwht(values) / values.size
    fhat *= factors[popcount_table(n)]
    return fwht(fhat)


def _translated(vals: np.ndarray, mask: int) -> np.ndarray:
    """Values of f(x XOR x0) - f(x0) from f's value table, x0 given by mask."""
    return vals[np.arange(vals.size) ^ mask] - vals[mask]


def _kernel_sum(spec: KernelSpec, weights: np.ndarray) -> np.ndarray:
    """Values of sum_y w_y u^2(d(x, y)) on the cube: an XOR convolution of
    the weights with the squared kernel as a function of the displacement."""
    U = (spec.u_values**2)[popcount_table(spec.n)]
    return fwht(fwht(weights) * fwht(U)) / weights.size


@dataclass(frozen=True)
class SosCubeCertificate:
    """A weighted sum-of-squares identity h + delta = sum_y w_y u^2(d(., y)).

    Here h = (f(x XOR translate) - f(translate)) / scale is f moved to have
    its minimum 0 at the origin and normalized; translate is a minimizer of f
    and scale its sup-norm. The original-frame guarantee is
    f_min - (order-r SOS bound) <= scale * delta.
    """

    n: int
    r: int
    d: int
    delta: float
    translate: np.ndarray
    scale: float
    u_coeffs: np.ndarray
    weights: np.ndarray       # w_y indexed by mask, all >= 0
    residual: float
    spec: KernelSpec = field(repr=False)

    @property
    def delta_original(self) -> float:
        return self.scale * self.delta

    def reconstruction(self) -> np.ndarray:
        """Values of sum_y w_y u^2(d(x, y)) on the cube."""
        return _kernel_sum(self.spec, self.weights)

    def verify(self, f: CubePolynomial) -> dict:
        """Re-check the identity against f in original coordinates: h is
        recomputed from f's own table, not taken from the certificate."""
        h = _translated(value_table(f), point_to_mask(self.translate)) / self.scale
        recon = self.reconstruction()
        return {
            "max_residual": float(np.max(np.abs(recon - (h + self.delta)))),
            "min_weight": float(self.weights.min()),
            "delta": self.delta,
            "delta_original": self.delta_original,
        }

    def json_pieces(self):
        """The certificate as JSON text in ``json.dumps(..., indent=1)``
        layout, newline-terminated, as an iterator of pieces: the head, one
        piece per block of ``_RECORD_BLOCK`` weight records, and the tail.

        Every field is checked for finiteness here, before the first piece
        exists, so a non-finite field raises ValueError and nothing is
        produced."""
        finite = np.isfinite(self.weights)
        if not finite.all():
            bad = int(np.argmin(finite))
            raise ValueError(f"certificate weight {self.weights[bad]} at "
                             f"y={mask_to_bitstring(bad, self.n)} is not finite")
        head, _, tail = json.dumps({
            "delta": self.delta,
            "r": self.r,
            "u_coeffs": [float(c) for c in self.u_coeffs],
            "weights": [],
            "translate": mask_to_bitstring(point_to_mask(self.translate), self.n),
            "scale": self.scale,
            "residual": self.residual,
        }, indent=1, allow_nan=False).partition('"weights": []')
        return self._pieces(head, tail)

    def _pieces(self, head: str, tail: str):
        n, size = self.n, self.weights.size
        yield head + '"weights": [\n'
        for start in range(0, size, _RECORD_BLOCK):
            stop = min(start + _RECORD_BLOCK, size)
            records = zip(mask_bitstrings(n, start, stop), self.weights[start:stop].tolist())
            block = ",\n".join(f'  {{\n   "y": "{y}",\n   "w": {w!r}\n  }}' for y, w in records)
            yield block + (",\n" if stop < size else "\n")
        yield " ]" + tail + "\n"

    def to_json(self) -> str:
        """The whole text of ``json_pieces``; raises ValueError on a
        non-finite field."""
        return "".join(self.json_pieces())

    def to_dict(self) -> dict:
        return json.loads(self.to_json())


def certify(f: CubePolynomial, r: int, tight: bool = False) -> SosCubeCertificate:
    """Emit an SOS-on-cube certificate of degree 2r for f plus a budget.

    The default budget is delta = gamma_d * sum_{i<=d} |1/lam_i - 1|, the
    operator-norm bound, which is instance-independent given (n, d, r). With
    ``tight=True`` the budget is instead the smallest delta for which the
    weights come out nonnegative on this particular f (never larger). Either
    way ``delta_original`` bounds f_min minus the order-r SOS lower bound.
    """
    n, d = f.n, f.degree
    spec = choose_kernel(n, d, r)
    if spec.lambda_tilde >= 1.0:
        raise CertificationError(
            f"lambda_tilde={spec.lambda_tilde:.6f} >= 1 at order r={r}; "
            "no certificate at this order"
        )
    vals = value_table(f)  # ValueError if not finite
    m0 = _argmin_mask(vals, n)
    if not math.isfinite(float(vals.max()) - float(vals[m0])):
        raise ValueError(f"value range of f overflows at n={n}: max f - min f is not finite")
    scale = float(np.max(np.abs(vals))) or 1.0
    h = _translated(vals, m0) / scale
    inv = np.ones(n + 1)
    inv[: d + 1] = 1.0 / spec.lambdas[: d + 1]
    inv_h = _apply_by_weight(inv, h, n)
    delta = max(0.0, -float(inv_h.min())) if tight else spec.delta
    w = (inv_h + delta) / (1 << n)
    wmin = float(w.min())
    if wmin < -1e-10:
        bad = int(np.argmin(w))
        raise CertificationError(
            f"negative certificate weight {wmin:.3e} at y={mask_to_bitstring(bad, n)}"
        )
    w = np.maximum(w, 0.0)
    residual = float(np.max(np.abs(_kernel_sum(spec, w) - (h + delta))))
    return SosCubeCertificate(
        n, r, d, delta, mask_to_point(m0, n), scale, spec.u_coeffs, w, residual, spec
    )


def error_sweep(
    d: int,
    n_list,
    r_fractions,
    samples: int = 20,
    seed: int = 0,
):
    """Empirical worst-case normalized errors of both hierarchies on random
    degree-d instances.

    Yields rows with the observed maxima, the proven bound 2 C_d xi/n (taken
    exactly and rounded up to a float), and the limiting curve phi(r/n). The
    outer gap is measured by the moment SDP when the character basis has at
    most 300 elements, and otherwise by the certified gap bound (which can
    only overstate it). Each (n, r) cell runs
    once, in the order first seen. A failed solve raises out of the sweep.
    """
    from fractions import Fraction
    from math import comb

    from .inner_hierarchy import inner_cube
    from .instances import random_poly
    from .krawtchouk import levenshtein_phi
    from .outer_hierarchy import outer_cube

    if samples < 1:
        raise ValueError(f"samples must be >= 1, got samples={samples}")
    seen = set()
    for n in n_list:
        for frac in r_fractions:
            r = max(1, round(frac * n))
            if r + 1 > n or (n, r) in seen:
                continue
            seen.add((n, r))
            exact = Fraction(2 * c_d(d)) * Fraction(least_root(n, 2, r + 1)) / n
            bound = float(exact)
            if bound < exact:
                bound = math.nextafter(bound, math.inf)
            basis_size = sum(comb(n, k) for k in range(r + 1))
            use_sdp = basis_size <= 300
            max_outer = 0.0
            max_inner = 0.0
            for s in range(samples):
                f = random_poly(n, d, seed=seed + 7919 * s)
                vals = value_table(f)
                norm = float(np.max(np.abs(vals)))
                fmin = float(vals.min())
                if use_sdp:
                    gap_out = (fmin - outer_cube(f, r).value) / norm
                else:
                    gap_out = certify(f, r, tight=True).delta_original / norm
                max_outer = max(max_outer, gap_out)
                max_inner = max(max_inner, (inner_cube(f, r).value - fmin) / norm)
            yield {
                "n": n,
                "r": r,
                "t": r / n,
                "max_outer_gap": max_outer,
                "max_inner_gap": max_inner,
                "bound_2Cd_xi_over_n": bound,
                "phi(t)": levenshtein_phi(min(r / n, 0.5), 2),
            }
