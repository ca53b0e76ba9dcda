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
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError("n must be a positive integer")
        if not isinstance(self.m, int) or self.m < 2 or self.m % 2 != 0:
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
        arr = np.asarray(coords, dtype=np.int64) % self.m
        if arr.shape[-1] != self.n:
            raise ValueError("coordinate vector must have length n")
        idx = arr @ np.asarray(self.strides, dtype=np.int64)
        return int(idx) if idx.ndim == 0 else idx

    def decode(self, index):
        """Residue vector(s) for flat index (or index array)."""
        idx = np.asarray(index, dtype=np.int64)
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
        """Norms along the last axis of a (..., d) array."""
        v = np.asarray(vectors, dtype=np.float64)
        if self.q == 2.0:
            return np.sqrt(np.einsum("...i,...i->...", v, v))
        if self.q == 1.0 or math.isinf(self.q):
            a = np.abs(v)
            combine = np.add if self.q == 1.0 else np.maximum
            if a.shape[-1] > _FOLD_MAX_D:
                return combine.reduce(a, axis=-1)
            # a reduction over a short trailing axis is slow; fold its slices
            # instead, in the reduction's order, so the result is the same bits
            out = a[..., 0].copy()
            for j in range(1, a.shape[-1]):
                combine(out, a[..., j], out=out)
            return out
        return (np.abs(v) ** self.q).sum(axis=-1) ** (1.0 / self.q)


def as_norm(spec) -> NormSpec:
    return spec if isinstance(spec, NormSpec) else NormSpec(float(spec))


def as_exponent(spec) -> float:
    """The moment exponent p as a float, restricted to [1, 2]."""
    p = float(spec)
    if not 1.0 <= p <= 2.0:
        raise ValueError("p must lie in [1, 2]")
    return p


def _moment_power(lengths: np.ndarray, p: float) -> np.ndarray:
    # p in {1, 2} covers most cells; avoid the pow call there
    if p == 1.0:
        return lengths
    if p == 2.0:
        return lengths * lengths
    return lengths ** p


@dataclass(frozen=True, eq=False)
class FunctionTable:
    """Dense table of R^d samples over a torus grid, immutable once built."""

    geometry: TorusGeometry
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim == 1:
            vals = vals[:, None]
        if vals.ndim != 2 or vals.shape[0] != self.geometry.size:
            raise ValueError("values must have shape (m^n, d)")
        if vals.shape[1] < 1:
            raise ValueError("target dimension d must be positive")
        if not np.all(np.isfinite(vals)):
            raise ValueError("values must be finite")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

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

