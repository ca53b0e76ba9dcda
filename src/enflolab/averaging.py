"""Uniform averaging over structured offset sets on the discrete torus.

Two support families are built here. An even box restricted to a coordinate
set holds the offsets that are zero off that set, even in every coordinate,
and of sup-norm length strictly below the radius k; it has exactly k^|axes|
points. A parity shell for one axis holds the offsets that are even in that
axis, odd in every other, and of sup-norm length at most k; it has exactly
k (k+1)^(n-1) points. Both are coordinate product sets, so averaging against
them factors into one-dimensional circular window sums over the stride-2
parity subcircles of each coordinate. The separable paths below exploit that
and cost O(#axes * m^n * d * log k), since a window sum of width k takes
O(log k) adds, versus the k^n taps of the naive stencil. Each axis pass is
one strided window_sums call on the row-major array itself: an offset of 2
along a grid axis is a fixed stride along rows that hold that axis and
every axis after it, so neither parity needs its own copy, and leading
batch axes of a (..., m^n, d) stack simply add rows.

Averaging against a probability measure fixes constant tables; constant
inputs are returned unchanged so that property holds exactly in floating
point as well. In a stack each member is tested on its own. Every other
table average is a fresh array, which its FunctionTable adopts read-only
rather than copies.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import product

import numpy as np

from .kernels import gather_mean, window_sums
from .torus import FunctionTable, TorusGeometry, _is_count

__all__ = [
    "SupportSet",
    "check_radius",
    "build_even_box",
    "build_parity_shell",
    "convolve",
    "convolve_box_separable",
    "convolve_shell_separable",
    "box_average",
    "box_average_array",
]


def check_radius(k: int, m: int) -> None:
    """Radii must be odd positive integers below m/2."""
    if not _is_count(k, 1) or k % 2 == 0:
        raise ValueError("radius k must be an odd positive integer")
    if not 2 * k < m:
        raise ValueError("radius k must satisfy k < m/2")


def _even_axis_values(m: int, k: int) -> list[int]:
    # even residues of cycle distance < k, i.e. {0, +-2, ..., +-(k-1)}
    reach = range(-(k - 1), k, 2)
    return sorted({z % m for z in reach})


def _odd_axis_values(m: int, k: int) -> list[int]:
    # odd residues of cycle distance <= k, i.e. {+-1, +-3, ..., +-k}
    reach = [s * v for v in range(1, k + 1, 2) for s in (1, -1)]
    return sorted({z % m for z in reach})


@dataclass(frozen=True, eq=False)
class SupportSet:
    """An explicit offset set carrying the uniform probability measure."""

    geometry: TorusGeometry
    offsets: np.ndarray
    weight: Fraction

    def __post_init__(self) -> None:
        offs = np.asarray(self.offsets, dtype=np.int64) % self.geometry.m
        if offs.ndim != 2 or offs.shape[1] != self.geometry.n:
            raise ValueError("offsets must have shape (count, n)")
        rows = {tuple(row) for row in offs.tolist()}
        if len(rows) != offs.shape[0]:
            raise ValueError("offsets must be distinct")
        negated = {tuple((-np.asarray(row) % self.geometry.m).tolist()) for row in rows}
        if negated != rows:
            raise ValueError("support must be symmetric under negation mod m")
        if self.weight * offs.shape[0] != 1:
            raise ValueError("weight must be exactly 1/count")
        offs = offs.copy()
        offs.setflags(write=False)
        object.__setattr__(self, "offsets", offs)

    @property
    def count(self) -> int:
        return self.offsets.shape[0]

    @cached_property
    def index_table(self) -> np.ndarray:
        """Row t holds the flat index of x + offset_t for every grid point x."""
        g = self.geometry
        pts = g.points()
        strides = np.asarray(g.strides, dtype=np.int64)
        table = np.empty((self.count, g.size), dtype=np.int64)
        for t, off in enumerate(self.offsets):
            table[t] = ((pts + off) % g.m) @ strides
        table.setflags(write=False)
        return table


def _normalize_axes(geometry: TorusGeometry, axes) -> tuple[int, ...]:
    axes = tuple(sorted(int(a) for a in axes))
    if len(set(axes)) != len(axes):
        raise ValueError("axes must be distinct")
    for a in axes:
        if not 0 <= a < geometry.n:
            raise ValueError("axis out of range")
    return axes


def build_even_box(geometry: TorusGeometry, axes, k: int) -> SupportSet:
    """Even box support on the given axes with sup-norm radius below k."""
    return _cached_even_box(geometry, _normalize_axes(geometry, axes), k)


@lru_cache(maxsize=None)
def _cached_even_box(geometry: TorusGeometry, axes: tuple[int, ...], k: int) -> SupportSet:
    check_radius(k, geometry.m)
    per_axis = [
        _even_axis_values(geometry.m, k) if a in axes else [0]
        for a in range(geometry.n)
    ]
    offsets = np.array(list(product(*per_axis)), dtype=np.int64)
    assert offsets.shape[0] == k ** len(axes)
    return SupportSet(geometry, offsets, Fraction(1, offsets.shape[0]))


def build_parity_shell(geometry: TorusGeometry, axis: int, k: int) -> SupportSet:
    """Parity shell support: even in the given axis, odd elsewhere, length <= k."""
    if not 0 <= axis < geometry.n:
        raise ValueError("axis out of range")
    return _cached_parity_shell(geometry, int(axis), k)


@lru_cache(maxsize=None)
def _cached_parity_shell(geometry: TorusGeometry, axis: int, k: int) -> SupportSet:
    check_radius(k, geometry.m)
    # odd k: even residues of distance <= k coincide with those of distance < k
    per_axis = [
        _even_axis_values(geometry.m, k) if a == axis else _odd_axis_values(geometry.m, k)
        for a in range(geometry.n)
    ]
    offsets = np.array(list(product(*per_axis)), dtype=np.int64)
    assert offsets.shape[0] == k * (k + 1) ** (geometry.n - 1)
    return SupportSet(geometry, offsets, Fraction(1, offsets.shape[0]))


def _is_constant(values: np.ndarray) -> np.ndarray:
    """Per member of a (..., m^n, d) stack, whether its table is constant.

    Each row is compared with its neighbour, not with row 0: float == is
    transitive on non-NaN values and false on NaN, so the decision is the
    same, and the comparison reads two contiguous slices instead of
    broadcasting one short row.
    """
    same = values[..., 1:, :] == values[..., :-1, :]
    return same.reshape(values.shape[:-2] + (-1,)).all(axis=-1)


def convolve(f: FunctionTable, support: SupportSet) -> FunctionTable:
    """Average of f(x + y) over the support offsets y, per grid point x."""
    if f.geometry != support.geometry:
        raise ValueError("function and support live on different grids")
    if _is_constant(f.values):
        return f
    return FunctionTable._adopt(f.geometry, gather_mean(f.values, support.index_table))


def _axis_window_pass(
    values: np.ndarray,
    geometry: TorusGeometry,
    axis: int,
    k: int,
    odd_window: bool,
) -> np.ndarray:
    """Raw (undivided) window sums along one grid axis of a (..., m^n, d) stack.

    Even windows sum f over offsets {0, +-2, ..., +-(k-1)}; odd windows over
    {+-1, +-3, ..., +-k}. In row-major order the grid axis and the
    post = m^(n-1-axis) d entries after it form rows of m * post entries,
    one per index of everything before it, leading batch axes included; an
    offset of 2 along the axis is a step of 2 * post along a row. So either
    window is one strided window_sums call: width k from (1 - k) post for
    the even one, width k + 1 from -k post for the odd one.
    """
    m = geometry.m
    post = m ** (geometry.n - 1 - axis) * values.shape[-1]
    rows = values.reshape(-1, m * post)
    if odd_window:
        sums = window_sums(rows, -k * post, k + 1, 2 * post)
    else:
        sums = window_sums(rows, (1 - k) * post, k, 2 * post)
    return sums.reshape(values.shape)


def _separable_box(values: np.ndarray, geometry: TorusGeometry, axes, k: int):
    """Even-box average of a (..., m^n, d) stack, or None where it fixes every member."""
    axes = _normalize_axes(geometry, axes)
    check_radius(k, geometry.m)
    if k == 1 or not axes:
        # the radius-1 box is the single zero offset
        return None
    constant = _is_constant(values)
    if np.all(constant):
        return None
    out = values
    for axis in axes:
        out = _axis_window_pass(out, geometry, axis, k, odd_window=False)
    out /= float(k ** len(axes))
    if np.any(constant):
        out[constant] = values[constant]
    return out


def convolve_box_separable(f: FunctionTable, axes, k: int) -> FunctionTable:
    """Even-box average computed as one window pass per axis."""
    out = _separable_box(f.values, f.geometry, axes, k)
    return f if out is None else FunctionTable._adopt(f.geometry, out)


def convolve_shell_separable(f: FunctionTable, axis: int, k: int) -> FunctionTable:
    """Parity-shell average computed as one window pass per axis."""
    g = f.geometry
    if not 0 <= axis < g.n:
        raise ValueError("axis out of range")
    check_radius(k, g.m)
    if _is_constant(f.values):
        return f
    vals = f.values
    if k > 1:  # the width-1 even window is the identity
        vals = _axis_window_pass(vals, g, axis, k, odd_window=False)
    for other in range(g.n):
        if other != axis:
            vals = _axis_window_pass(vals, g, other, k, odd_window=True)
    return FunctionTable._adopt(g, vals / float(k * (k + 1) ** (g.n - 1)))


def box_average(f: FunctionTable, axes, k: int) -> FunctionTable:
    """Average over the even box on the given axes (separable when |axes| >= 2)."""
    axes = _normalize_axes(f.geometry, axes)
    if len(axes) >= 2:
        return convolve_box_separable(f, axes, k)
    check_radius(k, f.geometry.m)
    return convolve(f, build_even_box(f.geometry, axes, k))


def box_average_array(
    geometry: TorusGeometry, values: np.ndarray, axes, k: int
) -> np.ndarray:
    """Array-level even-box average of a (..., m^n, d) stack; always separable."""
    out = _separable_box(values, geometry, axes, k)
    return values.copy() if out is None else out
