"""Geometry and function tables on the discrete torus Z_m^n.

Points are residue vectors in [0, m); flat indices use row-major order with
coordinate 0 slowest. Hypercube-valued problems reuse the same storage with
m = 2 under the identification residue 0 <-> +1, residue 1 <-> -1. All
expectations computed downstream are exact averages over these finite grids,
never Monte Carlo estimates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "TorusGeometry",
    "FunctionTable",
    "NormSpec",
    "as_norm",
    "as_exponent",
    "sign_vectors",
]


def _is_count(value, minimum: int) -> bool:
    """An int of at least minimum; a bool is not a count."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= minimum


@lru_cache(maxsize=None)
def _grid_points(n: int, m: int) -> np.ndarray:
    axes = [np.arange(m, dtype=np.int64)] * n
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
    pts.setflags(write=False)
    return pts


@dataclass(frozen=True)
class TorusGeometry:
    """The grid Z_m^n; m must be even so the half-cycle shift exists."""

    n: int
    m: int

    def __post_init__(self) -> None:
        if not _is_count(self.n, 1):
            raise ValueError("n must be a positive integer")
        if not _is_count(self.m, 2) or self.m % 2 != 0:
            raise ValueError("m must be an even integer, at least 2")

    @property
    def size(self) -> int:
        return self.m ** self.n

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.m,) * self.n

    @property
    def strides(self) -> tuple[int, ...]:
        return tuple(self.m ** (self.n - 1 - i) for i in range(self.n))

    def points(self) -> np.ndarray:
        """All m^n points as a read-only (m^n, n) residue array."""
        return _grid_points(self.n, self.m)

    def encode(self, coords):
        """Flat row-major index of a residue vector, or of a (..., n) stack.

        Bools and non-integers are refused, not truncated.
        """
        arr = np.asarray(coords)
        if arr.dtype.kind not in "iu":
            raise ValueError(f"coordinates must be integers, got dtype {arr.dtype}")
        arr = arr.astype(np.int64, copy=False)
        if arr.ndim == 0 or arr.shape[-1] != self.n:
            raise ValueError("coordinate vector must have length n")
        arr = arr % self.m
        idx = arr @ np.asarray(self.strides, dtype=np.int64)
        return int(idx) if idx.ndim == 0 else idx


@lru_cache(maxsize=None)
def _sign_vectors(n: int) -> np.ndarray:
    signs = (1 - 2 * _grid_points(n, 2)).astype(np.int64)
    signs.setflags(write=False)
    return signs


def sign_vectors(n: int) -> np.ndarray:
    """All 2^n sign vectors, row-ordered to match the m = 2 residue encoding."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    return _sign_vectors(n)


# NormSpec.lengths folds a trailing axis of at most _FOLD_MAX_D slices for
# q in {1, inf}. numpy adds up to 7 terms of a reduction one after another,
# from the first; past that its pairwise summation regroups them, and a fold
# would round differently. Longer axes keep the reduce, which wins there: at
# 196608 entries on a 2-core Xeon (numpy 2.4.6) the fold took 0.1-0.2 ms
# against 0.6-3.7 ms for the reduce at d = 2..7, but 3.2x (sum) and 1.3x (max)
# the reduce's time at d = 64, and 24x and 36x at d = 2048. Any config whose
# d_values holds an entry above 7 takes the reduce; no perfbench workload
# does yet (sweep uses d in {1, 3}, and d = 1 needs no fold).
_FOLD_MAX_D = 7


@dataclass(frozen=True)
class NormSpec:
    """The l_q norm on the target space R^d, 1 <= q <= inf."""

    q: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "q", float(self.q))
        if not self.q >= 1:
            raise ValueError("q must satisfy q >= 1")

    def lengths(self, vectors) -> np.ndarray:
        """Norms along the last axis of a (..., d) array.

        Every branch returns a fresh, writable array that shares no memory
        with vectors, so the caller owns it and may overwrite it in place.
        """
        v = np.asarray(vectors, dtype=np.float64)
        out = np.empty(v.shape[:-1])
        if v.shape[-1] == 1:
            # every l_q norm of a 1-vector is its absolute value, exactly
            return np.abs(v[..., 0], out=out)
        if self.q == 2.0:
            np.einsum("...i,...i->...", v, v, out=out)
            return np.sqrt(out, out=out)
        if self.q == 1.0 or math.isinf(self.q):
            combine = np.add if self.q == 1.0 else np.maximum
            if v.shape[-1] > _FOLD_MAX_D:
                return combine.reduce(np.abs(v), axis=-1, out=out)
            # a reduction over a short trailing axis is slow; fold |v[..., j]|
            # through one scratch row instead, in the reduction's order, so
            # the result is the same bits
            np.abs(v[..., 0], out=out)
            row = np.empty_like(out)
            for j in range(1, v.shape[-1]):
                combine(out, np.abs(v[..., j], out=row), out=out)
            return out
        with np.errstate(over="ignore"):
            np.add.reduce(np.abs(v) ** self.q, axis=-1, out=out)
        # at large q a row's power sum can overflow, or fall below the normal
        # range and lose its digits; redo only such rows, scaled by their
        # largest entry (a zero row stays 0), so every other row keeps its bits
        redo = np.isinf(out) | (out < np.finfo(np.float64).tiny)
        np.power(out, 1.0 / self.q, out=out)
        if redo.any():
            rows = np.abs(v[redo])
            top = rows.max(axis=-1, keepdims=True)
            scaled = np.divide(rows, top, out=np.zeros_like(rows), where=top > 0)
            out[redo] = np.add.reduce(scaled**self.q, axis=-1) ** (1.0 / self.q) * top[:, 0]
        return out


def as_norm(spec) -> NormSpec:
    return spec if isinstance(spec, NormSpec) else NormSpec(float(spec))


def as_exponent(spec) -> float:
    """The moment exponent p as a float, restricted to [1, 2]."""
    p = float(spec)
    if not 1.0 <= p <= 2.0:
        raise ValueError("p must lie in [1, 2]")
    return p


def _dyadic_power(x: np.ndarray, e: float, out: np.ndarray | None = None) -> np.ndarray:
    """x ** e written into out, by default x itself, which is returned.

    A dyadic e = a / 2^j with j <= 4 and 0 < |e| <= 16 is raised without
    pow: x^(2^i) for each set bit of the integer part of |e| by repeated
    squaring, x^(2^-i) for each set bit of its fraction by i square roots,
    the product of those factors in that order (x^1.5 is x * sqrt(x)), and
    for e < 0 one reciprocal. Each is a correctly rounded IEEE operation, so
    the bits do not depend on the SIMD loops numpy dispatches to, as pow's
    do. Every other e goes through np.power.
    """
    # the moment exponents p in {1, 1.5, 2}, which cover most cells, come out
    # as x, x * sqrt(x) and x * x, and any other dyadic p in [1, 2] without pow
    out = x if out is None else out
    sixteenths = abs(e) * 16.0
    if e == 0 or not sixteenths <= 256.0 or sixteenths % 1.0:
        return np.power(x, e, out=out)
    whole, bits = divmod(int(sixteenths), 16)
    if bits == 0 and whole & (whole - 1) == 0:
        # |e| = 2^i: i squarings, the first from x
        if whole > 1:
            np.multiply(x, x, out=out)
        elif out is not x:
            np.copyto(out, x)
        for _ in range(whole.bit_length() - 2):
            np.multiply(out, out, out=out)
    elif whole == 0 and bits & (bits - 1) == 0:
        # |e| = 2^-i: i square roots, the first from x
        np.sqrt(x, out=out)
        for _ in range(4 - bits.bit_length()):
            np.sqrt(out, out=out)
    else:
        factors, square, root = [], x, x
        while whole:
            if whole & 1:
                factors.append(square)
            whole >>= 1
            if whole:
                square = np.multiply(square, square)
        while bits:
            root = np.sqrt(root)
            if bits & 8:
                factors.append(root)
            bits = (bits << 1) & 15
        # every factor exists before out, which may be x, is written
        np.multiply(factors[0], factors[1], out=out)
        for factor in factors[2:]:
            np.multiply(out, factor, out=out)
    if e < 0:
        np.divide(1.0, out, out=out)
    return out


def _check_values(geometry: TorusGeometry, vals: np.ndarray) -> None:
    if vals.ndim != 2 or vals.shape[0] != geometry.size:
        raise ValueError("values must have shape (m^n, d)")
    if vals.shape[1] < 1:
        raise ValueError("target dimension d must be positive")
    if not np.all(np.isfinite(vals)):
        raise ValueError("values must be finite")


@dataclass(frozen=True, eq=False)
class FunctionTable:
    """Dense table of R^d samples over a torus grid, immutable once built."""

    geometry: TorusGeometry
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim == 1:
            vals = vals[:, None]
        _check_values(self.geometry, vals)
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @classmethod
    def _adopt(cls, geometry: TorusGeometry, values: np.ndarray) -> "FunctionTable":
        """A table that takes ownership of a float64 array its caller just built.

        The constructor's checks apply, but not its copy: the caller must hold
        the only reference and write to it no more, since it is made read-only.
        """
        _check_values(geometry, values)
        values.setflags(write=False)
        table = object.__new__(cls)
        object.__setattr__(table, "geometry", geometry)
        object.__setattr__(table, "values", values)
        return table

    @property
    def d(self) -> int:
        return self.values.shape[1]

    def nd_view(self) -> np.ndarray:
        """Read-only view shaped (m,)*n + (d,)."""
        return self.values.reshape(self.geometry.shape + (self.d,))

    def to_record(self) -> dict:
        """Flat serializable record {n, m, d, values}."""
        return {
            "n": self.geometry.n,
            "m": self.geometry.m,
            "d": self.d,
            "values": self.values.tolist(),
        }

    @classmethod
    def from_record(cls, record: dict) -> "FunctionTable":
        geometry = TorusGeometry(int(record["n"]), int(record["m"]))
        values = np.asarray(record["values"], dtype=np.float64)
        if values.ndim != 2 or values.shape != (geometry.size, int(record["d"])):
            raise ValueError("record values do not match the declared shape")
        return cls(geometry, values)

    @classmethod
    def indicator(cls, geometry: TorusGeometry, point) -> "FunctionTable":
        """Scalar table equal to 1 at one point and 0 elsewhere."""
        vals = np.zeros((geometry.size, 1))
        vals[geometry.encode(np.atleast_1d(point)), 0] = 1.0
        return cls(geometry, vals)

    @classmethod
    def random_gaussian(cls, geometry: TorusGeometry, d: int, rng) -> "FunctionTable":
        return cls(geometry, rng.standard_normal((geometry.size, d)))

