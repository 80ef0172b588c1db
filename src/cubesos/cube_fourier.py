"""Polynomials on the boolean hypercube {0,1}^n.

Multilinear representation (monomials are subsets, since x_i^2 = x_i on the
cube), evaluation, Walsh-Hadamard transform, the exact change of basis from
monomials to characters chi_a(x) = (-1)^{a.x} and back (no value table in
between), harmonic (fixed Fourier weight) components, sup-norm and exact
minimization by enumeration. The Fourier side has one representation: a
dense array of the 2^n coefficients indexed by mask (``spectrum`` and
``from_spectrum``), and ``harmonic_parts`` gives the fixed-weight components
as value tables, one row per weight. Whole-cube quantities come from the value
table: the minimum and its lexicographically smallest minimizer, the
sup-norm, and any translate p(x XOR x0), which is the table re-indexed by
XOR with the mask of x0 (no polynomial is rebuilt). Matrix polynomials give
the Fourier spectra of their upper-triangle entries, from which both
hierarchies build their matrix-input problems.

Bit conventions: a subset of variables is stored as an integer bitmask where
bit i-1 corresponds to variable i. Bitstrings serialize with variable 1
leftmost.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, field

import numpy as np

from .config import check_cap

__all__ = [
    "CubePolynomial",
    "MatrixPolynomial",
    "DimensionMismatchError",
    "fwht",
    "evaluate",
    "value_table",
    "finite_table",
    "spectrum",
    "from_spectrum",
    "harmonic_parts",
    "sup_norm",
    "brute_force_min",
    "masks_up_to_weight",
    "popcount_table",
    "read_polynomial_json",
    "write_polynomial_json",
    "read_matrix_polynomial_json",
]


class DimensionMismatchError(ValueError):
    pass


# ---------------------------------------------------------------------------
# bitmask helpers


def popcount_table(n: int) -> np.ndarray:
    """Hamming weight of every mask in [0, 2^n)."""
    check_cap(n)
    # doubling: the masks in [2^i, 2^(i+1)) are those below 2^i plus bit i
    pc = np.zeros(1 << n, dtype=np.int64)
    for i in range(n):
        np.add(pc[:1 << i], 1, out=pc[1 << i:2 << i])
    return pc


def masks_up_to_weight(n: int, r: int) -> np.ndarray:
    """All masks of weight <= r, sorted by (weight, mask). Deterministic basis order.

    Grown one weight at a time: the masks of weight w + 1 are those of weight
    w, each plus one bit above its highest, so nothing of size 2^n is built.
    """
    if n > 62:
        raise ValueError(f"n={n} exceeds 62, the most variables an int64 mask holds")
    bits = np.left_shift(1, np.arange(n, dtype=np.int64))
    level = np.zeros(1 if r >= 0 else 0, dtype=np.int64)
    levels = [level]
    for _ in range(min(r, n)):
        level = np.sort((level[:, None] | bits)[bits > level[:, None]])
        levels.append(level)
    return np.concatenate(levels)


def xor_rows(masks: np.ndarray, classes: np.ndarray, k: int) -> np.ndarray:
    """The class index of a k x k block matrix over the characters ``masks``:
    entry ((i, a), (j, b)) gets beta * e + c, where beta numbers the block
    (min(i, j), max(i, j)) in row-major order of the upper triangle, e is
    ``classes.size`` and c the position of a XOR b in ``classes``, which
    must hold every such XOR. A kN x kN int64 array; no 2^n array is built."""
    N, e = masks.size, classes.size
    sorter = np.argsort(classes)
    cls = sorter[np.searchsorted(classes, np.bitwise_xor.outer(masks, masks), sorter=sorter)]
    i, j = np.triu_indices(k)
    block = np.empty((k, k), dtype=np.int64)
    block[i, j] = block[j, i] = np.arange(i.size)
    return (block[:, None, :, None] * e + cls[None, :, None, :]).reshape(k * N, k * N)


def mask_to_bitstring(mask: int, n: int) -> str:
    return "".join("1" if (mask >> i) & 1 else "0" for i in range(n))


def bitstring_to_mask(s: str) -> int:
    return sum(1 << i for i, ch in enumerate(s) if ch == "1")


def point_to_mask(x) -> int:
    return sum(1 << i for i, xi in enumerate(x) if int(xi) == 1)


def mask_to_point(mask: int, n: int) -> np.ndarray:
    return np.array([(mask >> i) & 1 for i in range(n)], dtype=np.int64)


def _lex_keys(masks: np.ndarray, n: int) -> np.ndarray:
    # lexicographic order on points (x_1,...,x_n) = numeric order of the
    # bit-reversed mask (variable 1 most significant)
    keys = np.zeros_like(masks)
    for i in range(n):
        keys |= ((masks >> i) & 1) << (n - 1 - i)
    return keys


# ---------------------------------------------------------------------------
# Kronecker-factored cube transforms

# The Walsh-Hadamard, zeta (monomials -> values) and the two basis changes
# between monomials and characters are n-fold Kronecker powers of a 2x2
# factor K; each pass applies K^{(x)b} to b bits as one matrix product
# (Fino & Algazi 1976). Per variable, x = (1 - chi)/2 and chi = 1 - 2x.
_BLOCK_BITS = 6


def _kron_powers(factor) -> tuple:
    """K^{(x)b} for b = 0.._BLOCK_BITS."""
    powers = [np.ones((1, 1))]
    for _ in range(_BLOCK_BITS):
        powers.append(np.kron(powers[-1], factor))
    return tuple(powers)


_HADAMARD = _kron_powers([[1, 1], [1, -1]])
_ZETA = _kron_powers([[1, 0], [1, 1]])  # values[x] = sum over submasks S of x of coef[S]
_TO_FOURIER = _kron_powers([[1, 0.5], [0, -0.5]])  # monomial -> Fourier coefficients
_FROM_FOURIER = _kron_powers([[1, 1], [0, -2]])  # inverse of _TO_FOURIER


def _kron_transform(powers: tuple, values, buffers=None) -> np.ndarray:
    """values (length 2^n) transformed by K^{(x)n}, _BLOCK_BITS bits per pass.
    An (R, 2^n) array has each row transformed and comes back transposed,
    as (2^n, R).

    Each pass writes into whichever of two flat float64 buffers does not
    hold its input, and the result is a view of one of them, so no array is
    allocated per pass. ``buffers`` passes two of at least values.size to
    reuse (values that lie in one of them may be overwritten); without it
    two new ones are made, and values is never written."""
    a = np.asarray(values, dtype=np.float64)
    size = a.shape[-1]
    if size & (size - 1):
        raise ValueError("length must be a power of two")
    n = size.bit_length() - 1
    out_shape = (size, a.shape[0]) if a.ndim == 2 else (-1,)
    a = a.reshape(-1)
    if n == 0:
        return a.copy().reshape(out_shape)
    if buffers is None:
        buffers = [np.empty(a.size) for _ in range(2)]
    for done in range(0, n, _BLOCK_BITS):
        b = min(_BLOCK_BITS, n - done)
        # transform the b lowest bits and rotate them to the top (one GEMM);
        # after n bits in all the bit order is back where it started, or for
        # R rows has the row index below the transformed bits
        out = _spare(buffers, a)[:a.size].reshape(1 << b, -1)
        a = np.matmul(powers[b], a.reshape(-1, 1 << b).T, out=out).reshape(-1)
    return a.reshape(out_shape)


def _spare(buffers, a: np.ndarray) -> np.ndarray:
    """The one of two buffers that does not hold a."""
    return buffers[int(np.may_share_memory(a, buffers[0]))]


def fwht(values: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform: out[a] = sum_x (-1)^{a.x} in[x].

    Length must be a power of two. Involution up to the factor 2^n.
    """
    return _kron_transform(_HADAMARD, values)


# ---------------------------------------------------------------------------
# core types


@dataclass(frozen=True)
class CubePolynomial:
    """Real multilinear polynomial on {0,1}^n, stored as mask -> coefficient."""

    n: int
    terms: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("n must be nonnegative")
        full = (1 << self.n) - 1
        for mask, coef in self.terms.items():
            if mask & ~full:
                raise DimensionMismatchError(f"monomial {mask:#x} uses variables beyond n={self.n}")
            if not np.isfinite(coef):
                raise ValueError("coefficients must be finite")

    @classmethod
    def from_terms(cls, n: int, terms) -> "CubePolynomial":
        """Build from (variables, coefficient) pairs; variables are 1-based and
        may repeat (x_i^2 = x_i collapses repeats)."""
        acc: dict[int, float] = {}
        for variables, coef in terms:
            mask = 0
            for v in variables:
                if not 1 <= v <= n:
                    raise DimensionMismatchError(f"variable {v} out of range 1..{n}")
                mask |= 1 << (v - 1)
            acc[mask] = acc.get(mask, 0.0) + float(coef)
        return cls(n, {m: c for m, c in acc.items() if c != 0.0})

    @classmethod
    def constant(cls, n: int, c: float) -> "CubePolynomial":
        return cls(n, {0: float(c)} if c != 0.0 else {})

    @property
    def degree(self) -> int:
        if not self.terms:
            return 0
        return max(m.bit_count() for m in self.terms)

    def __mul__(self, scalar):
        s = float(scalar)
        return CubePolynomial(self.n, {m: c * s for m, c in self.terms.items() if c * s != 0.0})

    __rmul__ = __mul__


# ---------------------------------------------------------------------------
# operations


def evaluate(p: CubePolynomial, x) -> float:
    """Evaluate sum_S c_S prod_{i in S} x_i at a 0/1 point."""
    xs = np.asarray(x, dtype=np.int64)
    if xs.shape != (p.n,):
        raise DimensionMismatchError(f"point has shape {xs.shape}, expected ({p.n},)")
    mask = point_to_mask(xs)
    total = 0.0
    for m, c in p.terms.items():
        if m & mask == m:
            total += c
    return total


def _coef_array(n: int, coeffs: dict) -> np.ndarray:
    """Coefficients indexed by mask, as one dense array of length 2^n."""
    check_cap(n)
    a = np.zeros(1 << n)
    a[list(coeffs)] = list(coeffs.values())
    return a


def finite_table(vals: np.ndarray, n: int, name: str = "value table of f",
                 entry: str = "f") -> np.ndarray:
    """vals, a table over the cube indexed by mask, if every entry is finite;
    otherwise ValueError naming the first mask where it is not."""
    finite = np.isfinite(vals)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise ValueError(f"{name} is not finite at n={n}: "
                         f"{entry}({mask_to_bitstring(bad, n)}) = {vals[bad]}")
    return vals


def value_table(p: CubePolynomial) -> np.ndarray:
    """Values of p on all 2^n points, indexed by mask. Finite coefficients
    near the float range can overflow; that raises ValueError instead of
    returning inf or nan."""
    with np.errstate(over="ignore", invalid="ignore"):
        vals = _kron_transform(_ZETA, _coef_array(p.n, p.terms))
    return finite_table(vals, p.n)


def spectrum(p: CubePolynomial) -> np.ndarray:
    """Fourier coefficients p_hat(a) = 2^{-n} sum_x p(x) (-1)^{a.x} of every
    mask a, in one pass from the monomial coefficients; p_hat(a) sums only
    monomials S containing a, so entries of weight above deg(p) are exactly 0.
    An entry that overflows raises ValueError, as in ``value_table``."""
    with np.errstate(over="ignore", invalid="ignore"):
        fhat = _kron_transform(_TO_FOURIER, _coef_array(p.n, p.terms))
    return finite_table(fhat, p.n, "spectrum of f", "fhat")


def from_spectrum(n: int, fhat: np.ndarray) -> CubePolynomial:
    """Multilinear polynomial with Fourier coefficients fhat (indexed by
    mask); monomials above the largest character weight are exactly 0."""
    a = _kron_transform(_FROM_FOURIER, fhat)
    return CubePolynomial(n, {int(m): float(a[m]) for m in np.flatnonzero(a)})


def harmonic_parts(p: CubePolynomial) -> np.ndarray:
    """Value tables of the components p_k of p on the weight-k characters,
    k = 0..deg(p): shape (deg(p) + 1, 2^n), rows summing to p's table."""
    fhat = spectrum(p)
    weight = popcount_table(p.n)
    return np.stack([fwht(np.where(weight == k, fhat, 0.0)) for k in range(p.degree + 1)])


def sup_norm(p: CubePolynomial) -> float:
    """max_x |p(x)| over the cube, by enumeration."""
    return float(np.max(np.abs(value_table(p))))


def _argmin_mask(vals: np.ndarray, n: int) -> int:
    """Mask of the lexicographically smallest minimizer in a value table."""
    ties = np.flatnonzero(vals == vals.min())
    return int(ties[np.argmin(_lex_keys(ties, n))])


def brute_force_min(p: CubePolynomial) -> tuple[float, np.ndarray]:
    """Exact minimum and its lexicographically smallest minimizer."""
    vals = value_table(p)
    best = _argmin_mask(vals, p.n)
    return float(vals[best]), mask_to_point(best, p.n)


# ---------------------------------------------------------------------------
# matrix-valued polynomials


@dataclass(frozen=True)
class MatrixPolynomial:
    """Symmetric k x k matrix with CubePolynomial entries (entries[(i,j)], 0-based)."""

    n: int
    k: int
    entries: dict

    def __post_init__(self):
        for (i, j), poly in self.entries.items():
            if not (0 <= i < self.k and 0 <= j < self.k):
                raise ValueError("entry index out of range")
            if poly.n != self.n:
                raise DimensionMismatchError("entry dimension mismatch")

    @classmethod
    def from_entries(cls, n: int, k: int, entries) -> "MatrixPolynomial":
        """Build from {(i, j): CubePolynomial}; missing (j, i) is completed
        symmetrically, and conflicting symmetric pairs are rejected."""
        acc: dict = {}
        for (i, j), poly in entries.items():
            for key in {(i, j), (j, i)}:
                if key in acc and acc[key].terms != poly.terms:
                    raise ValueError(f"conflicting entries for symmetric pair {key}")
                acc[key] = poly
        return cls(n, k, acc)

    @property
    def degree(self) -> int:
        return max((p.degree for p in self.entries.values()), default=0)

    def entry(self, i: int, j: int) -> CubePolynomial:
        return self.entries.get((i, j), CubePolynomial(self.n, {}))

    def value_tables(self) -> np.ndarray:
        """Array of shape (2^n, k, k): the matrix F(x) at every cube point."""
        check_cap(self.n)
        out = np.zeros((1 << self.n, self.k, self.k))
        for i in range(self.k):
            for j in range(self.k):
                if (i, j) in self.entries:
                    out[:, i, j] = value_table(self.entries[(i, j)])
        return out

    def spectra(self) -> dict:
        """Fourier coefficients of the upper-triangle entries, {(i, j): fhat}
        for i <= j; raises ValueError unless F is symmetric."""
        out = {}
        for i in range(self.k):
            for j in range(i, self.k):
                entry = self.entry(i, j)
                if entry.terms != self.entry(j, i).terms:
                    raise ValueError("matrix polynomial is not symmetric")
                out[i, j] = spectrum(entry)
        return out

    def sup_norm(self) -> float:
        """max_x ||F(x)|| in the spectral norm."""
        eigs = np.linalg.eigvalsh(self.value_tables())
        return float(np.max(np.abs(eigs)))

    def min_eigenvalue(self) -> float:
        """F_min = min_x lambda_min(F(x)), by enumeration."""
        eigs = np.linalg.eigvalsh(self.value_tables())
        return float(np.min(eigs[:, 0]))


# ---------------------------------------------------------------------------
# JSON interchange

# polynomial files: {"n": int, "terms": [{"vars": [..1-based..], "coef": float}]}
# or Fourier form:  {"n": int, "fourier": [{"a": "<bitstring>", "coef": float}]};
# a file gives exactly one form, and both forms sum repeated monomials or
# characters


def json_integer(data: dict, key: str, kind: str = "polynomial") -> int:
    """data[key] if it is an integer (not a bool); else a ValueError that
    names the field."""
    value = data[key]
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{kind} JSON field {key!r} must be an integer, got {value!r}")
    return int(value)


def polynomial_from_dict(data: dict) -> CubePolynomial:
    n = json_integer(data, "n")
    if "terms" in data and "fourier" in data:
        raise ValueError("polynomial JSON has both a 'terms' and a 'fourier' field; give one")
    if "terms" in data:
        return CubePolynomial.from_terms(
            n, [(t["vars"], t["coef"]) for t in data["terms"]]
        )
    if "fourier" in data:
        coeffs: dict[int, float] = {}
        for item in data["fourier"]:
            bits = item["a"]
            if len(bits) != n:
                raise DimensionMismatchError("bitstring length != n")
            if set(bits) - {"0", "1"}:
                raise ValueError(f"fourier entry a={bits!r} is not a 0/1 bitstring")
            mask = bitstring_to_mask(bits)
            coeffs[mask] = coeffs.get(mask, 0.0) + float(item["coef"])
        return from_spectrum(n, _coef_array(n, coeffs))
    raise ValueError("polynomial JSON needs a 'terms' or 'fourier' field")


def polynomial_to_dict(p: CubePolynomial, form: str = "terms") -> dict:
    if form == "terms":
        items = sorted(p.terms.items(), key=lambda mc: (mc[0].bit_count(), mc[0]))
        return {
            "n": p.n,
            "terms": [
                {"vars": [i + 1 for i in range(p.n) if (m >> i) & 1], "coef": c}
                for m, c in items
            ],
        }
    if form == "fourier":
        fhat = spectrum(p)
        masks = sorted(np.flatnonzero(fhat).tolist(), key=lambda m: (m.bit_count(), m))
        return {
            "n": p.n,
            "fourier": [{"a": mask_to_bitstring(m, p.n), "coef": float(fhat[m])} for m in masks],
        }
    raise ValueError(f"unknown form {form!r}")


def read_polynomial_json(path) -> CubePolynomial:
    with open(path) as fh:
        return polynomial_from_dict(json.load(fh))


def write_polynomial_json(p: CubePolynomial, path, form: str = "terms") -> None:
    with open(path, "w") as fh:
        json.dump(polynomial_to_dict(p, form), fh, indent=1)


def matrix_polynomial_from_dict(data: dict) -> MatrixPolynomial:
    """{"n":..., "k":..., "entries": [{"i":..., "j":..., "poly": [terms...]}]},
    i and j 1-based, symmetric completion applied."""
    kind = "matrix polynomial"
    n, k = json_integer(data, "n", kind), json_integer(data, "k", kind)
    entries = {}
    for item in data["entries"]:
        i, j = json_integer(item, "i", kind) - 1, json_integer(item, "j", kind) - 1
        poly = CubePolynomial.from_terms(n, [(t["vars"], t["coef"]) for t in item["poly"]])
        entries[(i, j)] = poly
    return MatrixPolynomial.from_entries(n, k, entries)


def read_matrix_polynomial_json(path) -> MatrixPolynomial:
    with open(path) as fh:
        return matrix_polynomial_from_dict(json.load(fh))
