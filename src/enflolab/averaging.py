"""Uniform averaging over structured offset sets on the discrete torus.

Every support here is a product of per-axis windows, declared one per
axis: None holds the axis at 0, the even window is {0, +-2, ..., +-(k-1)}
(k points) and the odd window {+-1, +-3, ..., +-k} (k + 1 points), mod m.
An even box on a coordinate set takes the even window there and 0
elsewhere, k^|axes| points; a parity shell for one axis takes the even
window there and the odd one elsewhere, k (k+1)^(n-1) points.
So averaging against either factors into one-dimensional circular window
sums over the stride-2 parity subcircles of each coordinate. The separable
paths below exploit that and cost O(#axes * m^n * d * log k), since a
window sum of width k takes O(log k) adds, versus the k^n taps of the naive
stencil. Each axis pass is one strided window_sums call on the row-major
array itself: an offset of 2 along a grid axis is a fixed stride along rows
that hold that axis and every axis after it, so neither parity needs its
own copy, and leading batch axes of a (..., m^n, d) stack simply add rows.

Averaging against a probability measure fixes constant tables; constant
inputs are returned unchanged so that property holds exactly in floating
point as well. In a stack each member is tested on its own. Every other
table average is a fresh array, which its FunctionTable adopts read-only
rather than copies.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import product
from math import prod

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


def _axis_values(m: int, k: int, odd: bool) -> list[int]:
    """Sorted residues of an axis window: odd ones of cycle distance <= k, else even ones < k."""
    reach = range(-k, k + 1, 2) if odd else range(1 - k, k, 2)
    return sorted({z % m for z in reach})


@dataclass(frozen=True, eq=False)
class SupportSet:
    """An explicit offset set carrying the uniform probability measure, 1/count per offset.

    The builders below list the offsets of a window product in
    itertools.product order over the axes, each axis's residues sorted;
    gather_mean sums the taps in that order.
    """

    geometry: TorusGeometry
    offsets: np.ndarray

    def __post_init__(self) -> None:
        offs = np.asarray(self.offsets, dtype=np.int64) % self.geometry.m
        if offs.ndim != 2 or offs.shape[1] != self.geometry.n:
            raise ValueError("offsets must have shape (count, n)")
        rows = {tuple(row) for row in offs.tolist()}
        if len(rows) != offs.shape[0]:
            raise ValueError("offsets must be distinct")
        negated = {tuple(row) for row in (-offs % self.geometry.m).tolist()}
        if negated != rows:
            raise ValueError("support must be symmetric under negation mod m")
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
    axes = _normalize_axes(geometry, axes)
    return _support(geometry, k, tuple(False if a in axes else None for a in range(geometry.n)))


def build_parity_shell(geometry: TorusGeometry, axis: int, k: int) -> SupportSet:
    """Parity shell support: even in the given axis, odd elsewhere, length <= k."""
    if not 0 <= axis < geometry.n:
        raise ValueError("axis out of range")
    # odd k: even residues of distance <= k coincide with those of distance < k
    return _support(geometry, k, tuple(a != int(axis) for a in range(geometry.n)))


@lru_cache(maxsize=None)
def _support(geometry: TorusGeometry, k: int, windows: tuple[bool | None, ...]) -> SupportSet:
    """The product of one window per axis: None holds it at 0, False is even, True odd."""
    check_radius(k, geometry.m)
    per_axis = [[0] if odd is None else _axis_values(geometry.m, k, odd) for odd in windows]
    offsets = np.array(list(product(*per_axis)), dtype=np.int64)
    assert offsets.shape[0] == prod(k + odd for odd in windows if odd is not None)
    return SupportSet(geometry, offsets)


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


def _window_passes(values: np.ndarray, geometry: TorusGeometry, k: int, passes, taps: int):
    """Average of a (..., m^n, d) stack over a window product, or None where it fixes every member.

    passes yields the product's (axis, odd) windows in the order they run,
    and taps is its size; a product of one tap is the zero offset alone.
    """
    if taps == 1:
        return None
    constant = _is_constant(values)
    # one reduction where no member is constant, the common case
    any_constant = constant.any()
    if any_constant and constant.all():
        return None
    out = values
    for axis, odd in passes:
        out = _axis_window_pass(out, geometry, axis, k, odd)
    out /= float(taps)
    if any_constant:
        out[constant] = values[constant]
    return out


def _separable_box(values: np.ndarray, geometry: TorusGeometry, axes, k: int):
    """Even-box average of a (..., m^n, d) stack, or None where it fixes every member."""
    axes = _normalize_axes(geometry, axes)
    check_radius(k, geometry.m)
    return _window_passes(values, geometry, k, ((a, False) for a in axes), k ** len(axes))


def convolve_box_separable(f: FunctionTable, axes, k: int) -> FunctionTable:
    """Even-box average computed as one window pass per axis."""
    out = _separable_box(f.values, f.geometry, axes, k)
    return f if out is None else FunctionTable._adopt(f.geometry, out)


def convolve_shell_separable(f: FunctionTable, axis: int, k: int) -> FunctionTable:
    """Parity-shell average computed as one window pass per axis, its own axis first."""
    g = f.geometry
    if not 0 <= axis < g.n:
        raise ValueError("axis out of range")
    check_radius(k, g.m)
    # its own axis first; at k = 1 its width-1 even window is the identity
    passes = ((axis, False),) * (k > 1) + tuple((a, True) for a in range(g.n) if a != axis)
    out = _window_passes(f.values, g, k, passes, k * (k + 1) ** (g.n - 1))
    return f if out is None else FunctionTable._adopt(g, out)


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
