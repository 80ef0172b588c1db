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
records in mask order, one piece per fixed batch, so no more than one batch
of text exists at once. Each weight is written as its shortest round-trip
float, exactly as ``float.__repr__`` writes it (which is what ``json``
writes for a finite float). ``_RecordText`` formats one batch of records in
one set of arrays: the bitstrings from a byte table, and the weights'
digits in exact integer arithmetic, with ``repr`` itself for the few values
that arithmetic leaves open. Non-finite fields are refused
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


# One weight record is '  {\n   "y": "' + bits + '",\n   "w": ' + repr(w)
# + '\n  },\n'; the last record of a certificate ends '\n  }\n'.
# ``_RecordText`` lays out ``_TEXT_BATCH`` records as the rows of one byte
# array, every field at a fixed column and padded with zero bytes, and
# deletes the padding as it turns the rows into text: one piece of
# ``SosCubeCertificate.json_pieces``, about 290 kB at n = 20, so writing a
# certificate holds one batch of text, not 2^n records.
_TEXT_BATCH = 1 << 12
_HEAD, _MID, _TAIL = b'  {\n   "y": "', b'",\n   "w": ', b"\n  },\n"

# Columns of the weight field: 0-4 hold the "0." and zeros that lead a
# positional x < 1, digit i of the 17 (i = 0..16) sits at column 5 + 2i and
# the slot after it at 6 + 2i, which holds the '.' or, after the last digit,
# the '0' of a whole number's ".0"; 39-42 hold the exponent "e-NN".
_FIELD = 43
# Decimal exponents k = floor(log10 x) the integer path formats: 10^(16-k)
# is 5^q 2^q with q = 16 - k <= 27, so 5^q fits a uint64.
_K_MIN, _K_MAX = -11, 15
_POW5 = np.array([5**q for q in range(16 - _K_MIN + 1)], dtype=np.uint64)
_POW10 = np.array([10**j for j in range(19)], dtype=np.uint64)


def _table(rows, dtype) -> np.ndarray:
    """Equal-length byte strings as words of ``dtype``, for ``np.take``;
    ``.view(np.uint8)`` on what it takes gives the bytes back."""
    return np.frombuffer(b"".join(rows), dtype)


def _digit_pairs() -> np.ndarray:
    """The 4 digits of each of 0..9999, each followed by an empty slot.
    Digit i repeats each of 0..9 10^(3-i) times in turn, so the table is
    tiled from "0123456789" with no arithmetic on 10^4-element arrays,
    whose temporaries would stay in the process's heap."""
    digits = np.frombuffer(b"0123456789", np.uint8)
    pairs = np.zeros((10000, 8), np.uint8)
    for i in range(4):
        pairs[:, 2 * i] = np.tile(np.repeat(digits, 10 ** (3 - i)), 10 ** i)
    return pairs.view(np.uint64).ravel()


_DIGITS4 = _digit_pairs()
# Word w of the mask over the digit and slot columns 7-38 in row w: column v
# keeps digits 1..v-1 (byte c of the 32 is digit 1 + c // 2 for even c).
_SHOWN = np.ascontiguousarray(_table(
    [bytes(255 if c % 2 == 0 and 1 + c // 2 < v else 0 for c in range(32)) for v in range(18)],
    np.uint64).reshape(18, 4).T)
# per k from _K_MIN: columns 0-7 (5-7 are written again after) and 39-42
_LEAD = _table([(b"0." + b"0" * (-k - 1) if -4 <= k < 0 else b"").ljust(8, b"\0")
                for k in range(_K_MIN, _K_MAX + 1)], np.uint64)
_EXPONENT = _table([f"e-{-k:02d}".encode() if k < -4 else bytes(4)
                    for k in range(_K_MIN, _K_MAX + 1)], np.uint32)
# the 8 bits of a byte as characters, character i being bit i
_BITS8 = _table([mask_to_bitstring(v, 8).encode() for v in range(256)], np.uint64)


class _RecordText:
    """The weight records of a certificate as text, up to ``batch`` records
    per ``block``, formatted in arrays that are allocated once, here, and
    reused.

    Each weight is written as ``float.__repr__`` writes it: the shortest
    decimal that reads back to it, the nearest to it among those, laid out
    by repr's rule. The integer path of ``_write_weights`` computes that
    exactly for the whole batch (Steele & White; Burger & Dybvig 1996).
    Every value it does not settle is formatted by ``repr`` itself and
    counted in ``fallbacks``: zero, a negative, a power-of-two significand
    (its rounding interval is lopsided), an exact tie, x outside about
    1e-11 to 1e14 (where 5^q or the shift s would not fit a word), and a
    k = floor(log10 x) that the float log misjudged.
    """

    def __init__(self, n: int, batch: int):
        self.n, self.fallbacks = n, 0
        self._col = len(_HEAD) + n + len(_MID)  # first column of the weight field
        width = self._col + _FIELD + len(_TAIL)
        self._text = np.zeros((batch, width), np.uint8)
        for col, const in ((0, _HEAD), (len(_HEAD) + n, _MID), (self._col + _FIELD, _TAIL)):
            self._text[:, col:col + len(const)] = np.frombuffer(const, np.uint8)
        self._masks = np.arange(batch, dtype=np.uint64)
        self._bytes = np.empty((batch, -(-n // 8)), np.uint64)
        self._bits = np.empty_like(self._bytes)
        self._u = np.empty((15, batch), np.uint64)
        self._i = np.empty((4, batch), np.int64)
        self._b = np.empty((5, batch), bool)
        self._f = np.empty(batch)
        self._exp = np.empty(batch, np.uint32)
        self._dot = np.empty(batch, np.uint8)
        self._dots = np.arange(batch, dtype=np.int64) * width + self._col + 6

    def block(self, x: np.ndarray, start: int, last: bool) -> str:
        """The records of masks start, start + 1, .. with weights x, each
        ending ",\\n"; with ``last`` the final one ends "\\n", as the last
        record of the certificate."""
        text = self._text[:len(x)]
        self._write_bits(start, len(x))
        self._write_weights(x)
        if last:
            text[-1, -2] = 0
        part = text.tobytes().translate(None, b"\0")
        text[-1, -2] = ord(",")
        return str(part, "ascii")

    def _write_bits(self, start: int, size: int) -> None:
        """The bitstrings of masks start..start+size-1, character i bit i."""
        masks = self._u[0, :size]
        np.add(self._masks[:size], np.uint64(start), out=masks)
        idx = self._bytes[:size]
        for j in range(idx.shape[1]):
            np.right_shift(masks, np.uint64(8 * j), out=idx[:, j])
        idx &= np.uint64(255)
        np.take(_BITS8, idx.view(np.intp), out=self._bits[:size])
        y = len(_HEAD)
        self._text[:size, y:y + self.n] = self._bits[:size].view(np.uint8)[:, :self.n]

    def _write_weights(self, x: np.ndarray) -> None:
        """Write each x[i] into the weight field of text row i, padded with
        zero bytes. Every integer step is uint64 or int64 on purpose, so no
        mix of the two is promoted to float64."""
        size, U = len(x), np.uint64
        m, P, lo, hi, F, R, A, B, a, b, p, c, t1, t2, t3 = self._u[:, :size]
        k, q, s, J = self._i[:, :size]
        ok, tb, up, eq, nz = self._b[:, :size]
        # x = m 2^(E - 1075), with m the 53-bit significand and E the biased
        # exponent (a set sign bit makes E >= 2048). With k = floor(log10 x)
        # and q = 16 - k, x 10^q = V / 2^s, V = m 5^q and s = 1075 - E - q.
        bits = x.view(U)
        f = self._f[:size]
        np.maximum(x, 5e-324, out=f)
        np.log10(f, out=f)
        np.floor(f, out=f)
        np.copyto(k, f, casting="unsafe")
        np.subtract(16, k, out=q)
        np.right_shift(bits, U(52), out=t1)
        np.subtract(1075, t1.view(np.int64), out=s)
        s -= q
        # 0 <= q <= 27 and 2 <= s <= 61, each as one unsigned comparison
        np.less_equal(q.view(U), U(16 - _K_MIN), out=ok)
        np.subtract(s, 2, out=J)
        np.less_equal(J.view(U), U(59), out=tb); ok &= tb
        np.bitwise_and(bits, U((1 << 52) - 1), out=m)
        np.not_equal(m, 0, out=tb); ok &= tb
        np.bitwise_or(m, U(1 << 52), out=m)
        np.maximum(s, 2, out=s)
        np.minimum(s, 61, out=s)
        su = s.view(U)
        np.take(_POW5, q, out=P, mode="clip")
        # V = hi 2^64 + lo, from 32-bit halves: m < 2^53 and P < 2^63, so
        # the middle sum mh pl + ml ph stays below 2^64
        np.right_shift(m, U(32), out=t1)
        np.bitwise_and(P, U(0xFFFFFFFF), out=t2)
        np.multiply(t1, t2, out=t3)
        np.bitwise_and(m, U(0xFFFFFFFF), out=lo)
        np.multiply(lo, t2, out=t2)
        np.right_shift(P, U(32), out=hi)
        np.multiply(lo, hi, out=lo)
        t3 += lo
        np.multiply(t1, hi, out=hi)
        np.left_shift(t3, U(32), out=lo)
        lo += t2
        np.less(lo, t2, out=tb)
        np.right_shift(t3, U(32), out=t3)
        hi += t3
        hi += tb
        # F = V >> s is the 17-digit integer part of x 10^q, R = V mod 2^s
        np.subtract(U(64), su, out=t1)
        np.left_shift(hi, t1, out=F)
        np.right_shift(lo, su, out=t1)
        F |= t1
        np.left_shift(U(1), su, out=R)
        R -= U(1)
        R &= lo
        np.subtract(F, U(10**16), out=t1)
        np.less(t1, U(9 * 10**16), out=tb); ok &= tb
        # Half an ulp of x is P / 2^(s+1) in these units, so the integers
        # that read back as x are A..B, A = F + ceil((2R - P) / 2^(s+1)) and
        # B = F + floor((2R + P) / 2^(s+1)); P is odd, so neither end is an
        # integer and no end point needs repr's round-half-even reading.
        np.add(su, U(1), out=t3)
        np.add(R, R, out=t2)
        np.subtract(P, t2, out=A)
        np.right_shift(A.view(np.int64), t3.view(np.int64), out=A.view(np.int64))
        np.subtract(F, A, out=A)
        np.add(P, t2, out=B)
        np.right_shift(B, t3, out=B)
        B += F
        # J = the largest j such that a multiple of 10^j lies in A..B, the
        # number of j >= 1 at which (A - 1) // 10^j and B // 10^j differ.
        # Few rows reach j = 3, so from there the loop runs on those alone.
        np.subtract(A, U(1), out=a)
        np.copyto(b, B)
        J[...] = 0
        for _ in range(2):
            np.floor_divide(a, U(10), out=a)
            np.floor_divide(b, U(10), out=b)
            np.not_equal(a, b, out=tb)
            tb &= ok
            J += tb
        rows = np.flatnonzero(tb)
        a2, b2 = a[rows], b[rows]
        while rows.size:
            a2 //= U(10)
            b2 //= U(10)
            more = a2 != b2
            rows, a2, b2 = rows[more], a2[more], b2[more]
            J[rows] += 1
        # D = c 10^J: x 10^q / 10^J rounded to nearest (2 (F mod 10^J) plus
        # the top bit of R against 10^J, the rest of R breaking the tie).
        # A..B holds the integers within half an ulp on both sides of x
        # 10^q, so the multiple of 10^J nearest to it lies in A..B too.
        np.take(_POW10, J, out=p, mode="clip")
        np.floor_divide(F, p, out=c)
        np.multiply(c, p, out=t1)
        np.subtract(F, t1, out=t1)
        t1 += t1
        np.subtract(su, U(1), out=t3)
        np.right_shift(R, t3, out=t2)
        t1 += t2
        np.left_shift(t2, t3, out=t2)
        np.subtract(R, t2, out=t2)
        np.greater(t1, p, out=up)
        np.equal(t1, p, out=eq)
        np.not_equal(t2, 0, out=nz)
        np.logical_and(eq, nz, out=tb); up |= tb
        np.logical_not(eq, out=eq); eq |= nz; ok &= eq
        c += up
        D = t1
        np.multiply(c, p, out=D)
        # A round up to 10^17 is the one digit 1 at exponent k + 1. At
        # q = 1, s >= 2 needs x < 2^50, so this happens only at k <= 14.
        np.equal(D, U(10**17), out=tb)
        np.copyto(D, U(10**16), where=tb)
        np.copyto(J, 16, where=tb)
        k += tb
        # The 17 digits of D: d0 = D // 10^16, then four chunks of four, in
        # rows m..hi; their text goes to rows F..B, its mask to rows a..c.
        chunks, digits, shown = self._u[0:4, :size], self._u[4:8, :size], self._u[8:12, :size]
        np.floor_divide(D, U(10**8), out=t2)
        np.multiply(t2, U(10**8), out=t3)
        np.subtract(D, t3, out=t3)
        np.floor_divide(t2, U(10**8), out=c)
        np.multiply(c, U(10**8), out=a)
        t2 -= a
        for half, w in ((t2, 0), (t3, 2)):
            np.floor_divide(half, U(10**4), out=chunks[w])
            np.multiply(chunks[w], U(10**4), out=a)
            np.subtract(half, a, out=chunks[w + 1])
        # Repr's layout: nd = 17 - J digits, as d0.d1..e-NN below 1e-4, else
        # positional, where x >= 1 shows max(nd, k + 1) digits (the zeros
        # of D) and a whole number ends ".0".
        field = self._text[:size, self._col:self._col + _FIELD]
        np.subtract(17, J, out=J)
        np.subtract(k, _K_MIN, out=s)
        np.take(_LEAD, s, out=t1, mode="clip")
        field[:, 0:8].view(U)[:, 0] = t1
        np.take(_EXPONENT, s, out=self._exp[:size], mode="clip")
        field[:, 39:43].view(np.uint32)[:, 0] = self._exp[:size]
        np.add(c, U(ord("0")), out=field[:, 5], casting="unsafe")
        np.add(k, 1, out=q)
        np.maximum(q, J, out=q)
        np.take(_DIGITS4, chunks.view(np.intp), out=digits)
        np.take(_SHOWN, q, axis=1, out=shown, mode="clip")
        digits &= shown
        for w in range(4):
            field[:, 7 + 8 * w:15 + 8 * w].view(U)[:, 0] = digits[w]
        # '.' in the slot after digit max(k, 0): x >= 1, or the exponent
        # form with more than one digit
        np.greater_equal(k, 0, out=up)
        np.less(k, -4, out=eq)
        np.greater(J, 1, out=nz)
        eq &= nz
        up |= eq
        np.multiply(up, np.uint8(ord(".")), out=self._dot[:size])
        np.maximum(k, 0, out=s)
        np.minimum(s, _K_MAX, out=s)
        s += s
        s += self._dots[:size]
        self._text.reshape(-1)[s] = self._dot[:size]
        # the '0' of ".0": x >= 1 with nd <= k + 1
        np.greater_equal(k, 0, out=up)
        np.subtract(J, k, out=s)
        np.less_equal(s, 1, out=eq)
        up &= eq
        np.multiply(up, np.uint8(ord("0")), out=field[:, 38])
        rest = np.flatnonzero(~ok)
        for i in rest.tolist():
            text = repr(float(x[i])).encode()
            field[i] = 0
            field[i, :len(text)] = np.frombuffer(text, np.uint8)
        self.fallbacks += len(rest)


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
        piece per batch of ``_TEXT_BATCH`` weight records, and the tail.

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
        size = self.weights.size
        yield head + '"weights": [\n'
        records = _RecordText(self.n, min(_TEXT_BATCH, size))
        weights = np.ascontiguousarray(self.weights, dtype=np.float64)
        for start in range(0, size, _TEXT_BATCH):
            stop = min(start + _TEXT_BATCH, size)
            yield records.block(weights[start:stop], start, stop == size)
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
