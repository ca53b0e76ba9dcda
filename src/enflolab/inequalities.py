"""Exact evaluators for the torus and hypercube inequalities studied here.

Every expectation is an exact average over the full grid, and over all sign
vectors where one appears; nothing is sampled. Each evaluator returns a
RatioReport carrying both sides, the ratio (None in the 0/0 case), and the
cell parameters. A positive numerator against an exactly zero
denominator would falsify a proven bound, so that state aborts instead of
reporting.

Each side of each inequality is a weighted p-th moment of linear
translation-invariant difference operators applied to a source: f, its
full-box average B f, or B f - f, the last two declared with their radius k
as a Box. The operators are (apply, adjoint) pairs on (m,)*n + (d,) arrays,
or on stacks of them with leading batch axes. inequality_sides declares each
inequality's two sides, constants and valid cells once, and Side.read is the
one place a source is read, given the caller's box average: the evaluators
here pass a memoized box_average, and the extremal search in search.py, which
differentiates the same pairs, passes box_average_array.

The evaluators keep what they derive from a table in a memo of their own,
held only as long as the table: B f per radius k, and each side's unscaled
moment per (source, ops, q, p). Inequalities that share a moment on one
table therefore compute it once; the edge energy, say, serves scaled Enflo,
approximation and smoothing.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from .averaging import box_average, check_radius
from .torus import (
    FunctionTable,
    NormSpec,
    TorusGeometry,
    _dyadic_power,
    as_exponent,
    as_norm,
    sign_vectors,
)

__all__ = [
    "RatioReport",
    "ProvenBoundViolation",
    "DiffOp",
    "shift_difference",
    "unit_steps",
    "half_shift",
    "diagonal_differences",
    "mean_deviation",
    "sign_combinations",
    "Box",
    "Side",
    "INEQUALITY_KINDS",
    "check_cell",
    "inequality_sides",
    "edge_energy",
    "rademacher_ratio",
    "enflo_ratio",
    "scaled_enflo_ratio",
    "approximation_ratio",
    "smoothing_ratio",
    "pisier_ratio",
    "scheme_composite_check",
]

# relative slack for proven bounds, covering float accumulation only; the
# checks read it at call time, and no config or argument overrides it
PROVEN_BOUND_RTOL = 1e-9


class ProvenBoundViolation(RuntimeError):
    """A numerically evaluated proven inequality failed; this is a build bug."""


@dataclass(frozen=True)
class RatioReport:
    """One inequality evaluation: both sides, their ratio (None when both are 0), and the cell."""

    evaluator: str
    lhs: float
    rhs: float
    ratio: float | None
    n: int
    m: int | None
    k: int | None
    p: float
    q: float
    d: int


def _build_report(
    evaluator: str,
    lhs: float,
    rhs: float,
    *,
    n: int,
    m: int | None,
    k: int | None,
    p: float,
    q: float,
    d: int,
) -> RatioReport:
    if rhs == 0.0:
        if lhs > 0.0:
            raise ProvenBoundViolation(
                f"{evaluator}: positive numerator {lhs!r} with zero denominator"
            )
        return RatioReport(evaluator, lhs, rhs, None, n, m, k, p, q, d)
    return RatioReport(evaluator, lhs, rhs, lhs / rhs, n, m, k, p, q, d)


class DiffOp(NamedTuple):
    """A linear operator on tables shaped (m,)*n + (d,), and its adjoint.

    apply maps a table to an array of difference vectors (last axis d);
    adjoint maps an array of that shape back to a table, transposing apply
    under the entrywise inner product. The declared ops also take a stack
    of tables with leading batch axes, shaped (...,) + (m,)*n + (d,): they
    name grid axes counted from the end, act on each member on its own, and
    keep the batch axes in front of their output, where each member's
    result is bitwise the one it gets alone. The shift operators copy
    through slice plans built once per array shape and held by the op
    itself, so a plan lives exactly as long as its op, and also write into
    a given out (see shift_difference). Every side with several ops
    declares shift operators only, so the search writes their fields
    into one stacked array.
    """

    apply: Callable[..., np.ndarray]
    adjoint: Callable[..., np.ndarray]


_ALL = slice(None)
_FLIP = slice(None, None, -1)


def _roll_plan(shape: tuple[int, ...], shifts: dict) -> tuple[tuple[int, ...], list]:
    """Slice-copy plan for out[x] = a[x - shifts] on arrays of the given shape.

    shifts maps an axis (possibly negative) to its shift, as np.roll reads it.
    Returns a view shape shared by a and out, and (dst, src) index pairs such
    that out_view[dst] = a_view[src] over all pairs fills every entry once.
    An axis shifted by half its length r becomes the view axes (2, r), and
    reading the 2 reversed swaps the halves at no extra pair; any other
    shifted axis takes two slice pairs. Neighbouring unshifted axes merge
    into one view axis, and so do neighbouring reversed ones.
    """
    ndim = len(shape)
    resolved = {}
    for axis, shift in shifts.items():
        if not -ndim <= axis < ndim:
            raise ValueError(f"axis {axis} out of range for {ndim} dimensions")
        if axis % ndim in resolved:
            raise ValueError("shift axes must be distinct")
        resolved[axis % ndim] = shift
    segments: list[list] = []  # [size, (dst, src) choices]

    def add(size, choices):
        if size == 1:
            return
        if segments and len(choices) == 1 and segments[-1][1] == choices:
            segments[-1][0] *= size
        else:
            segments.append([size, choices])

    for axis, size in enumerate(shape):
        r = resolved.get(axis, 0) % size
        if r and 2 * r == size:
            add(2, ((_ALL, _FLIP),))
            add(r, ((_ALL, _ALL),))
        elif r:
            add(size, ((slice(r, None), slice(None, size - r)), (slice(None, r), slice(size - r, None))))
        else:
            add(size, ((_ALL, _ALL),))
    view = tuple(size for size, _ in segments)
    while segments and segments[-1][1] == ((_ALL, _ALL),):
        segments.pop()
    pairs = [((), ())]
    for _, choices in segments:
        pairs = [(d + (cd,), s + (cs,)) for d, s in pairs for cd, cs in choices]
    return view, pairs


def _shifted(shifts: dict) -> Callable[..., np.ndarray]:
    """(a, out=None) -> np.roll(a, shifts) as a planned slice copy into out, by default a
    fresh array; the plans live in this closure."""
    plans: dict = {}

    def shifted(a, out=None):
        plan = plans.get(a.shape)
        if plan is None:
            plan = plans[a.shape] = _roll_plan(a.shape, shifts)
        view, pairs = plan
        if out is None:
            out = np.empty(a.shape, a.dtype)
        elif out.shape != a.shape or out.dtype != a.dtype or not out.flags.c_contiguous:
            # reshaping any other out would copy it, and the shifted copy would land there
            raise ValueError("out must be a C-contiguous array of the input's shape and dtype")
        src, dst = a.reshape(view), out.reshape(view)
        for d, s in pairs:
            dst[d] = src[s]
        return out

    return shifted


def _difference(ahead: dict, behind: dict | None) -> Callable[..., np.ndarray]:
    """(a, out=None) -> np.roll(a, ahead) - np.roll(a, behind), or - a where behind is None."""
    first = _shifted(ahead)
    second = (lambda a: a) if behind is None else _shifted(behind)

    def diff(a, out=None):
        out = first(a, out)
        return np.subtract(out, second(a), out=out)

    return diff


def shift_difference(plus, minus=None, axes=None) -> DiffOp:
    """x -> f(x + plus) - f(x + minus) over the given grid axes; minus defaults to 0.

    Reading f(x + z) is a circular copy that shifts every axis by -z, and the
    adjoint shifts by +z. Each copy follows a slice plan built on the first
    call for an array shape and kept in the op's closure: an axis shifted by
    exactly half its length is one flipped (2, m/2) view, any other shifted
    axis two slice pairs. The result is bitwise equal to np.roll's. axes may
    be negative; repeated axes raise ValueError. apply and adjoint take an
    optional out, a C-contiguous array of the input's shape and dtype, and
    write the result there and return it; any other out raises ValueError.
    out must not overlap the input, which is not checked.
    """
    plus = tuple(int(v) for v in plus)
    axes = tuple(range(len(plus))) if axes is None else tuple(int(a) for a in axes)
    if len(axes) != len(plus) or (minus is not None and len(minus) != len(plus)):
        raise ValueError("plus, minus and axes must have equal lengths")
    if len(set(axes)) != len(axes):
        raise ValueError("shift axes must be distinct")
    ahead = {a: -v for a, v in zip(axes, plus)}
    back = {a: v for a, v in zip(axes, plus)}
    if minus is None:
        return DiffOp(_difference(ahead, None), _difference(back, None))
    minus = tuple(int(v) for v in minus)
    behind = {a: -v for a, v in zip(axes, minus)}
    forth = {a: v for a, v in zip(axes, minus)}
    return DiffOp(_difference(ahead, behind), _difference(back, forth))


def _grid_axes(n: int) -> tuple[int, ...]:
    """The n grid axes counted from the end, before the value axis: -n-1 ... -2."""
    return tuple(range(-n - 1, -1))


@lru_cache(maxsize=None)
def unit_steps(n: int) -> tuple[DiffOp, ...]:
    """f(x + e_j) - f(x) for each axis j."""
    return tuple(shift_difference((1,), axes=(axis,)) for axis in _grid_axes(n))


@lru_cache(maxsize=None)
def half_shift(n: int, m: int) -> DiffOp:
    """f(x + (m/2) 1) - f(x); on the cube (m = 2) this is the antipodal increment."""
    return shift_difference((m // 2,) * n, axes=_grid_axes(n))


@lru_cache(maxsize=None)
def diagonal_differences(n: int) -> tuple[DiffOp, ...]:
    """f(x + 2 eps) - f(x) for each sign vector eps with eps_0 = +1, in sign_vectors order.

    These 2^(n-1) fields carry every diagonal increment f(x + eps) - f(x - eps):
    translating x by eps maps that increment onto f(x + 2 eps) - f(x), and
    -eps gives the negated field. So a mean of p-th moments over these ops
    equals the mean over all 2^n sign vectors, at one shifted copy per op.
    """
    axes = _grid_axes(n)
    return tuple(shift_difference(2 * eps, axes=axes) for eps in sign_vectors(n)[: 2 ** (n - 1)])


@lru_cache(maxsize=None)
def mean_deviation(n: int) -> DiffOp:
    """f - E f over the n grid axes; the mean is taken on the flat (..., m^n, d) view.

    An orthogonal projection, so it is its own adjoint.
    """

    def deviation(nd):
        flat = nd.reshape(nd.shape[: nd.ndim - n - 1] + (-1, nd.shape[-1]))
        return (flat - flat.mean(axis=-2, keepdims=True)).reshape(nd.shape)

    return DiffOp(deviation, deviation)


@lru_cache(maxsize=None)
def sign_combinations(n: int) -> DiffOp:
    """(eps, x) -> sum_j eps_j (f(x + e_j) - f(x)) on the cube, for all 2^n eps."""
    steps = unit_steps(n)
    signs = sign_vectors(n).astype(np.float64)

    def apply(nd):
        lead = nd.shape[: nd.ndim - n - 1]
        derivs = np.stack([step.apply(nd).reshape(lead + (-1,)) for step in steps], axis=-2)
        return (signs @ derivs).reshape(lead + (signs.shape[0], -1, nd.shape[-1]))

    def adjoint(w):
        per_axis = np.einsum("sj,...sxc->...jxc", signs, w)
        shape = w.shape[:-3] + (2,) * n + (w.shape[-1],)
        out = np.zeros(shape)
        for axis, step in enumerate(steps):
            out += step.adjoint(per_axis[..., axis, :, :].reshape(shape))
        return out

    return DiffOp(apply, adjoint)


def _grid_moment(diff: np.ndarray, norm: NormSpec, p: float) -> float:
    """Mean over all leading positions of the p-th power of the vector norm."""
    powers = _dyadic_power(norm.lengths(diff), p)
    # the sum and divide of np.mean, bitwise, without its wrapper
    return float(np.add.reduce(powers, axis=None) / powers.size)


class InequalityKind(NamedTuple):
    """Which cells an inequality is defined on."""

    radius: bool  # takes a box radius k
    torus: bool  # tables on a general Z_m^n; otherwise the hypercube m = 2


INEQUALITY_KINDS = {
    "scaled_enflo": InequalityKind(radius=False, torus=True),
    "smoothing": InequalityKind(radius=True, torus=True),
    "approximation": InequalityKind(radius=True, torus=True),
    "enflo": InequalityKind(radius=False, torus=False),
    "pisier": InequalityKind(radius=False, torus=False),
}


class Box(NamedTuple):
    """A side's source: B f, the even-box average of f on all grid axes at radius k, or B f - f."""

    k: int
    displaced: bool = False


# for sides whose source already is the difference field
identity_op = DiffOp(lambda nd: nd, lambda w: w)


class Side(NamedTuple):
    """One side of an inequality: scale times the summed p-th moments of ops(source).

    The source is f (None) or a Box, which carries its radius. The ops and
    the source fix the side's unscaled moment on a table; the exact
    evaluators memoize it per table under (source, ops, q, p). The ops
    tuples come from lru_cache'd declarations, so equal sides share one key.
    """

    scale: float
    ops: tuple[DiffOp, ...]
    source: Box | None = None

    def read(self, vals: np.ndarray, average: Callable) -> np.ndarray:
        """The source of a (..., m^n, d) stack, where average(vals, k) is its B f.

        f, B f and B f - f are self adjoint, so reading a gradient pulls it back.
        """
        if self.source is None:
            return vals
        smooth = average(vals, self.source.k)
        return smooth - vals if self.source.displaced else smooth

    def moment(self, source_nd: np.ndarray, norm: NormSpec, p: float) -> float:
        """Unscaled value of the side, given its source shaped (m,)*n + (d,)."""
        total = 0.0
        for op in self.ops:
            total += _grid_moment(op.apply(source_nd), norm, p)
        return total


def edge_energy(f: FunctionTable, norm, p) -> float:
    """Sum over axes of the mean p-th moment of the unit-step difference."""
    steps = Side(1.0, unit_steps(f.geometry.n))
    return steps.moment(f.nd_view(), as_norm(norm), as_exponent(p))


def rademacher_ratio(vectors, norm, p) -> RatioReport:
    """Signed-sum moment against the sum of p-th powers of the norms."""
    norm = as_norm(norm)
    p = as_exponent(p)
    arr = np.atleast_2d(np.asarray(vectors, dtype=np.float64))
    if arr.shape[0] < 1 or arr.size == 0:
        raise ValueError("at least one vector is required")
    if not np.all(np.isfinite(arr)):
        raise ValueError("vectors must be finite")
    n, d = arr.shape
    signs = sign_vectors(n).astype(np.float64)
    sums = signs @ arr
    lhs = float(np.mean(_dyadic_power(norm.lengths(sums), p)))
    rhs = float(np.sum(_dyadic_power(norm.lengths(arr), p)))
    return _build_report(
        "rademacher", lhs, rhs, n=n, m=None, k=None, p=p, q=norm.q, d=d
    )


def check_cell(name: str, n: int, m: int, k: int | None) -> None:
    """Raise ValueError unless the named inequality is defined on the cell (n, m, k)."""
    kind = INEQUALITY_KINDS.get(name)
    if kind is None:
        raise ValueError(f"unknown inequality {name!r}")
    if kind.radius:
        if k is None:
            raise ValueError(f"{name} requires a radius k")
        check_radius(k, m)
    elif k is not None:
        raise ValueError(f"{name} does not take a radius")
    if not kind.torus and m != 2:
        raise ValueError(f"{name} needs a hypercube table (m = 2)")
    if name == "pisier" and not 2 <= n <= 8:
        raise ValueError("pisier needs n in [2, 8]")


def inequality_sides(name: str, geometry: TorusGeometry, k: int | None, p: float):
    """The (lhs, rhs) Sides of the named inequality on one cell; its one declaration."""
    n, m = geometry.n, geometry.m
    check_cell(name, n, m, k)
    steps = unit_steps(n)
    if name == "scaled_enflo":
        # x + (m/2) eps is the same point for every sign vector eps, because
        # m/2 and -m/2 coincide mod m; the sign average is therefore trivial
        return Side(1.0, (half_shift(n, m),)), Side(float(m) ** p, steps)
    if name == "approximation":
        scale = float(k - 1) ** p * float(n) ** (p - 1.0)
        return Side(1.0, (identity_op,), Box(k, displaced=True)), Side(scale, steps)
    if name == "smoothing":
        # the mean over all 2^n sign vectors eps of B f(x + eps) - B f(x - eps),
        # read off the 2^(n-1) fields of diagonal_differences
        diagonal = diagonal_differences(n)
        return Side(1.0 / float(len(diagonal)), diagonal, Box(k)), Side(1.0, steps)
    if name == "enflo":
        return Side(1.0, (half_shift(n, m),)), Side(1.0, steps)
    rhs = Side((math.e * math.log(n)) ** p, (sign_combinations(n),))
    return Side(1.0, (mean_deviation(n),)), rhs


# What the evaluators derived from each live table. FunctionTable compares
# by identity and its values are read-only, so an entry never goes stale and
# dies with its table; two threads evaluating one table may both compute an
# entry, and both store the same value.
_TABLE_MEMO: weakref.WeakKeyDictionary[FunctionTable, dict] = weakref.WeakKeyDictionary()


def _evaluate(name: str, f: FunctionTable, k: int | None, norm, p) -> RatioReport:
    """Both sides of the named inequality on f; each moment is computed once per table."""
    norm = as_norm(norm)
    p = as_exponent(p)
    g = f.geometry
    memo = _TABLE_MEMO.setdefault(f, {})

    def smooth(vals, radius):  # B f, memoized per radius; vals is f.values
        if radius not in memo:
            memo[radius] = box_average(f, range(g.n), radius).values
        return memo[radius]

    values = []
    for side in inequality_sides(name, g, k, p):
        key = (side.source, side.ops, norm.q, p)
        moment = memo.get(key)
        if moment is None:
            if side.source == Box(1, displaced=True):
                # the radius-1 box is the zero offset alone, so B f - f is 0
                moment = 0.0
            elif side.source is None and side.ops == unit_steps(g.n):
                moment = edge_energy(f, norm, p)
            else:
                moment = side.moment(side.read(f.values, smooth).reshape(g.shape + (f.d,)), norm, p)
            memo[key] = moment
        values.append(side.scale * moment)
    lhs, rhs = values
    return _build_report(name, lhs, rhs, n=g.n, m=g.m, k=k, p=p, q=norm.q, d=f.d)


def enflo_ratio(f: FunctionTable, norm, p) -> RatioReport:
    """Antipodal increment moment against the sum of edge increment moments."""
    return _evaluate("enflo", f, None, norm, p)


def scaled_enflo_ratio(f: FunctionTable, norm, p) -> RatioReport:
    """Half-torus shift moment against m^p times the edge energy."""
    return _evaluate("scaled_enflo", f, None, norm, p)


def approximation_ratio(f: FunctionTable, k: int, norm, p) -> RatioReport:
    """Box-average displacement against (k-1)^p n^(p-1) times the edge energy.

    This bound is a theorem with no hidden constant, so an lhs past rhs times
    1 + PROVEN_BOUND_RTOL raises ProvenBoundViolation.
    """
    report = _evaluate("approximation", f, k, norm, p)
    if report.lhs > report.rhs * (1.0 + PROVEN_BOUND_RTOL):
        raise ProvenBoundViolation(
            f"approximation bound violated: lhs={report.lhs!r} rhs={report.rhs!r}"
        )
    return report


def smoothing_ratio(f: FunctionTable, k: int, norm, p) -> RatioReport:
    """Diagonal increment moment of the box average against the edge energy.

    The comparison constant is implicit, so the ratio is recorded without
    any assertion.
    """
    return _evaluate("smoothing", f, k, norm, p)


def pisier_ratio(g: FunctionTable, norm, p) -> RatioReport:
    """Mean deviation moment against (e log n)^p times the randomized derivative sum.

    Both sides are exact, over 2^n and 4^n sign configurations respectively;
    n above 8 is refused rather than sampled, and n = 1 is rejected because
    the stated constant vanishes there.
    """
    return _evaluate("pisier", g, None, norm, p)


def scheme_composite_check(
    half_shift: RatioReport,
    approximation: RatioReport,
    smoothing: RatioReport,
) -> RatioReport:
    """Half-torus shift moment against an explicit-constant composite bound.

    Splitting the half shift into approximation, smoothing, and approximation
    legs gives, by convexity of t^p,

        lhs <= 3^(p-1) (2 D + (m/4)^p S)

    where D is the box displacement moment and S the diagonal smoothing
    moment, using m/4 telescoping steps of two along a fixed diagonal. The
    reported bound relaxes this to 2 * 3^(p-1) (D + m^p S), which dominates
    because (m/4)^p <= 2 m^p. Both forms are asserted: an lhs past either
    times 1 + PROVEN_BOUND_RTOL raises ProvenBoundViolation.

    The half shift, D and S are the left sides of the scaled Enflo,
    approximation and smoothing reports, in that order, of one cell (n, m,
    k, p, q, d) with m divisible by 4 for the telescope; any other legs are
    a ValueError. Nothing is evaluated again here.
    """
    legs = (half_shift, approximation, smoothing)
    if tuple(r.evaluator for r in legs) != ("scaled_enflo", "approximation", "smoothing"):
        raise ValueError("legs must be scaled_enflo, approximation and smoothing reports")
    cells = {(r.n, r.m, r.p, r.q, r.d) for r in legs}
    if len(cells) != 1 or approximation.k != smoothing.k:
        raise ValueError("legs must come from one cell (n, m, k, p, q, d)")
    n, m, p, q, d = cells.pop()
    if m % 4 != 0:
        raise ValueError("m must be divisible by 4")
    lhs, displacement, diagonal = (r.lhs for r in legs)
    split = 3.0 ** (p - 1.0)
    tight = split * (2.0 * displacement + (m / 4.0) ** p * diagonal)
    rhs = 2.0 * split * (displacement + float(m) ** p * diagonal)
    if lhs > tight * (1.0 + PROVEN_BOUND_RTOL):
        raise ProvenBoundViolation(
            f"composite chain violated: lhs={lhs!r} tight rhs={tight!r}"
        )
    if lhs > rhs * (1.0 + PROVEN_BOUND_RTOL):
        raise ProvenBoundViolation(
            f"composite bound violated: lhs={lhs!r} rhs={rhs!r}"
        )
    return _build_report(
        "composite_scheme", lhs, rhs, n=n, m=m, k=smoothing.k, p=p, q=q, d=d
    )
