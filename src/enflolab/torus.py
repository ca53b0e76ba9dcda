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
    "residue_abs",
    "linf_dist",
    "sign_vectors",
]


def _is_count(value, minimum: int) -> bool:
    """An int of at least minimum; a bool is not a count."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= minimum


def _integer_array(values, what: str) -> np.ndarray:
    """values as an int64 array; bools and non-integers are refused, not truncated."""
    arr = np.asarray(values)
    if arr.dtype.kind not in "iu":
        raise ValueError(f"{what} must be integers, got dtype {arr.dtype}")
    return arr.astype(np.int64, copy=False)


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
        """Flat row-major index of a residue vector, or of a (..., n) stack."""
        arr = _integer_array(coords, "coordinates")
        if arr.ndim == 0 or arr.shape[-1] != self.n:
            raise ValueError("coordinate vector must have length n")
        arr = arr % self.m
        idx = arr @ np.asarray(self.strides, dtype=np.int64)
        return int(idx) if idx.ndim == 0 else idx

    def decode(self, index):
        """Residue vector(s) for flat index (or index array)."""
        idx = _integer_array(index, "flat index")
        if np.any(idx < 0) or np.any(idx >= self.size):
            raise ValueError("index out of range")
        return np.stack(np.unravel_index(idx, self.shape), axis=-1)


def residue_abs(z, m: int):
    """Cycle distance to zero, min(z mod m, m - z mod m)."""
    r = np.asarray(z, dtype=np.int64) % m
    out = np.minimum(r, m - r)
    return int(out) if out.ndim == 0 else out


def linf_dist(x, y, m: int):
    """Largest coordinatewise cycle distance between two points."""
    dx = np.asarray(x, dtype=np.int64) - np.asarray(y, dtype=np.int64)
    r = dx % m
    out = np.minimum(r, m - r).max(axis=-1)
    return int(out) if np.ndim(out) == 0 else out


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
# does yet (sweep uses d in {1, 3}).
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


def _moment_power(lengths: np.ndarray, p: float) -> np.ndarray:
    """lengths ** p, raised in place: the argument is consumed and returned.

    Pass only an array the caller owns, such as a fresh NormSpec.lengths.
    """
    # p in {1, 2} covers most cells; avoid the pow call there
    if p == 1.0:
        return lengths
    if p == 2.0:
        return np.multiply(lengths, lengths, out=lengths)
    return np.power(lengths, p, out=lengths)


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
    def constant(cls, geometry: TorusGeometry, vector) -> "FunctionTable":
        vec = np.atleast_1d(np.asarray(vector, dtype=np.float64))
        return cls(geometry, np.tile(vec, (geometry.size, 1)))

    @classmethod
    def indicator(cls, geometry: TorusGeometry, point) -> "FunctionTable":
        """Scalar table equal to 1 at one point and 0 elsewhere."""
        vals = np.zeros((geometry.size, 1))
        vals[geometry.encode(np.atleast_1d(point)), 0] = 1.0
        return cls(geometry, vals)

    @classmethod
    def random_gaussian(cls, geometry: TorusGeometry, d: int, rng) -> "FunctionTable":
        return cls(geometry, rng.standard_normal((geometry.size, d)))

    @classmethod
    def linear_hypercube(cls, coefficients) -> "FunctionTable":
        """Hypercube table of eps -> sum_j eps_j c_j for coefficient rows c_j."""
        coeffs = np.atleast_2d(np.asarray(coefficients, dtype=np.float64))
        n = coeffs.shape[0]
        values = sign_vectors(n).astype(np.float64) @ coeffs
        return cls(TorusGeometry(n, 2), values)

