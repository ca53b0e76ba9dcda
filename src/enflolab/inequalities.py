"""Exact evaluators for the torus and hypercube inequalities studied here.

Every expectation is an exact average over the full grid, and over all sign
vectors where one appears; nothing is sampled. Each evaluator returns a
RatioReport carrying both sides, the ratio, a degeneracy flag for the 0/0
case, and the cell parameters. A positive numerator against an exactly zero
denominator would falsify a proven bound, so that state aborts instead of
reporting.

Each side of each inequality is a weighted p-th moment of linear
translation-invariant difference operators, optionally taken after a box
average. The operators are defined once below as (apply, adjoint) pairs on
(m,)*n + (d,) arrays; the extremal search differentiates the same pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from .averaging import box_average, check_radius
from .torus import (
    FunctionTable,
    NormSpec,
    _moment_power,
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
    "REPORT_CSV_COLUMNS",
    "edge_energy",
    "rademacher_ratio",
    "enflo_ratio",
    "scaled_enflo_ratio",
    "approximation_ratio",
    "smoothing_ratio",
    "pisier_ratio",
    "scheme_composite_check",
]

REPORT_CSV_COLUMNS = (
    "evaluator",
    "n",
    "m",
    "k",
    "p",
    "q",
    "d",
    "lhs",
    "rhs",
    "ratio",
    "degenerate",
    "seed",
)

# relative slack for proven bounds, covering float accumulation only
PROVEN_BOUND_RTOL = 1e-9


class ProvenBoundViolation(RuntimeError):
    """A numerically evaluated proven inequality failed; this is a build bug."""


def format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "inf" if math.isinf(value) else repr(value)
    return str(value)


@dataclass(frozen=True)
class RatioReport:
    """One inequality evaluation: both sides, their ratio, and the cell."""

    evaluator: str
    lhs: float
    rhs: float
    ratio: float | None
    degenerate: bool
    n: int
    m: int | None
    k: int | None
    p: float
    q: float
    d: int
    seed: int | None = None

    def with_seed(self, seed: int | None) -> "RatioReport":
        return replace(self, seed=seed)

    def to_csv_row(self) -> list[str]:
        return [format_cell(getattr(self, column)) for column in REPORT_CSV_COLUMNS]

    def to_json_dict(self) -> dict:
        return {
            "evaluator": self.evaluator,
            "n": self.n,
            "m": self.m,
            "k": self.k,
            "p": self.p,
            "q": "inf" if math.isinf(self.q) else self.q,
            "d": self.d,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "ratio": self.ratio,
            "degenerate": self.degenerate,
            "seed": self.seed,
        }


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
        return RatioReport(evaluator, lhs, rhs, None, True, n, m, k, p, q, d)
    return RatioReport(evaluator, lhs, rhs, lhs / rhs, False, n, m, k, p, q, d)


class DiffOp(NamedTuple):
    """A linear operator on tables shaped (m,)*n + (d,), and its adjoint.

    apply maps a table to an array of difference vectors (last axis d);
    adjoint maps an array of that shape back to a table, transposing apply
    under the entrywise inner product.
    """

    apply: Callable[[np.ndarray], np.ndarray]
    adjoint: Callable[[np.ndarray], np.ndarray]


def shift_difference(plus, minus=None, axes=None) -> DiffOp:
    """x -> f(x + plus) - f(x + minus) over the given grid axes; minus defaults to 0.

    np.roll by -z reads f(x + z), so the adjoint rolls the other way.
    """
    plus = tuple(int(v) for v in plus)
    axes = tuple(range(len(plus))) if axes is None else tuple(axes)
    ahead = tuple(-v for v in plus)
    if minus is None:
        return DiffOp(
            lambda nd: np.roll(nd, ahead, axis=axes) - nd,
            lambda w: np.roll(w, plus, axis=axes) - w,
        )
    minus = tuple(int(v) for v in minus)
    behind = tuple(-v for v in minus)
    return DiffOp(
        lambda nd: np.roll(nd, ahead, axis=axes) - np.roll(nd, behind, axis=axes),
        lambda w: np.roll(w, plus, axis=axes) - np.roll(w, minus, axis=axes),
    )


@lru_cache(maxsize=None)
def unit_steps(n: int) -> tuple[DiffOp, ...]:
    """f(x + e_j) - f(x) for each axis j."""
    return tuple(shift_difference((1,), axes=(axis,)) for axis in range(n))


@lru_cache(maxsize=None)
def half_shift(n: int, m: int) -> DiffOp:
    """f(x + (m/2) 1) - f(x); on the cube (m = 2) this is the antipodal increment."""
    return shift_difference((m // 2,) * n)


@lru_cache(maxsize=None)
def diagonal_differences(n: int) -> tuple[DiffOp, ...]:
    """f(x + eps) - f(x - eps) for each sign vector eps, in sign_vectors order."""
    return tuple(shift_difference(eps, -eps) for eps in sign_vectors(n))


def _deviation(nd: np.ndarray) -> np.ndarray:
    flat = nd.reshape(-1, nd.shape[-1])
    return flat - flat.mean(axis=0)


# f - E f on the flat (m^n, d) view; an orthogonal projection, so self adjoint
mean_deviation = DiffOp(_deviation, _deviation)


@lru_cache(maxsize=None)
def sign_combinations(n: int) -> DiffOp:
    """(eps, x) -> sum_j eps_j (f(x + e_j) - f(x)) on the cube, for all 2^n eps."""
    steps = unit_steps(n)
    signs = sign_vectors(n).astype(np.float64)

    def apply(nd):
        derivs = np.stack([step.apply(nd).reshape(-1) for step in steps])
        return (signs @ derivs).reshape(signs.shape[0], -1, nd.shape[-1])

    def adjoint(w):
        per_axis = np.einsum("sj,sxc->jxc", signs, w)
        shape = (2,) * n + (w.shape[-1],)
        out = np.zeros(shape)
        for axis, step in enumerate(steps):
            out += step.adjoint(per_axis[axis].reshape(shape))
        return out

    return DiffOp(apply, adjoint)


def _grid_moment(diff: np.ndarray, norm: NormSpec, p: float) -> float:
    """Mean over all leading positions of the p-th power of the vector norm."""
    return float(np.mean(_moment_power(norm.lengths(diff), p)))


def _ops_moment(ops, nd: np.ndarray, norm: NormSpec, p: float) -> float:
    """Sum over the operators of the grid moment of their output."""
    total = 0.0
    for op in ops:
        total += _grid_moment(op.apply(nd), norm, p)
    return total


def edge_energy(f: FunctionTable, norm, p) -> float:
    """Sum over axes of the mean p-th moment of the unit-step difference."""
    return _ops_moment(
        unit_steps(f.geometry.n), f.nd_view(), as_norm(norm), as_exponent(p)
    )


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
    lhs = float(np.mean(_moment_power(norm.lengths(sums), p)))
    rhs = float(np.sum(_moment_power(norm.lengths(arr), p)))
    return _build_report(
        "rademacher", lhs, rhs, n=n, m=None, k=None, p=p, q=norm.q, d=d
    )


def _require_hypercube(f: FunctionTable) -> None:
    if f.geometry.m != 2:
        raise ValueError("a hypercube table (m = 2) is required")


def enflo_ratio(f: FunctionTable, norm, p) -> RatioReport:
    """Antipodal increment moment against the sum of edge increment moments."""
    _require_hypercube(f)
    norm = as_norm(norm)
    p = as_exponent(p)
    n = f.geometry.n
    nd = f.nd_view()
    lhs = _grid_moment(half_shift(n, 2).apply(nd), norm, p)
    rhs = _ops_moment(unit_steps(n), nd, norm, p)
    return _build_report("enflo", lhs, rhs, n=n, m=2, k=None, p=p, q=norm.q, d=f.d)


def scaled_enflo_ratio(f: FunctionTable, norm, p) -> RatioReport:
    """Half-torus shift moment against m^p times the edge energy."""
    norm = as_norm(norm)
    p = as_exponent(p)
    g = f.geometry
    # x + (m/2) eps is the same point for every sign vector eps, because
    # m/2 and -m/2 coincide mod m; the sign average is therefore trivial
    lhs = _grid_moment(half_shift(g.n, g.m).apply(f.nd_view()), norm, p)
    rhs = float(g.m) ** p * edge_energy(f, norm, p)
    return _build_report(
        "scaled_enflo", lhs, rhs, n=g.n, m=g.m, k=None, p=p, q=norm.q, d=f.d
    )


def approximation_ratio(
    f: FunctionTable, k: int, norm, p, rtol: float = PROVEN_BOUND_RTOL
) -> RatioReport:
    """Box-average displacement against (k-1)^p n^(p-1) times the edge energy.

    This bound is a theorem with no hidden constant, so a violation beyond
    float tolerance aborts.
    """
    norm = as_norm(norm)
    p = as_exponent(p)
    g = f.geometry
    check_radius(k, g.m)
    smooth = box_average(f, range(g.n), k)
    lhs = _grid_moment(smooth.values - f.values, norm, p)
    rhs = float(k - 1) ** p * float(g.n) ** (p - 1.0) * edge_energy(f, norm, p)
    if lhs > rhs * (1.0 + rtol):
        raise ProvenBoundViolation(
            f"approximation bound violated: lhs={lhs!r} rhs={rhs!r}"
        )
    return _build_report(
        "approximation", lhs, rhs, n=g.n, m=g.m, k=k, p=p, q=norm.q, d=f.d
    )


def _diagonal_smoothing_moment(
    smooth_nd: np.ndarray, n: int, norm: NormSpec, p: float
) -> float:
    """Exact mean over x and all sign vectors of |g(x+eps) - g(x-eps)|^p."""
    return _ops_moment(diagonal_differences(n), smooth_nd, norm, p) / float(2**n)


def smoothing_ratio(f: FunctionTable, k: int, norm, p) -> RatioReport:
    """Diagonal increment moment of the box average against the edge energy.

    The comparison constant is implicit, so the ratio is recorded without
    any assertion.
    """
    norm = as_norm(norm)
    p = as_exponent(p)
    g = f.geometry
    check_radius(k, g.m)
    smooth_nd = box_average(f, range(g.n), k).nd_view()
    lhs = _diagonal_smoothing_moment(smooth_nd, g.n, norm, p)
    rhs = edge_energy(f, norm, p)
    return _build_report(
        "smoothing", lhs, rhs, n=g.n, m=g.m, k=k, p=p, q=norm.q, d=f.d
    )


def pisier_ratio(g: FunctionTable, norm, p) -> RatioReport:
    """Mean deviation moment against (e log n)^p times the randomized derivative sum.

    Both sides are exact, over 2^n and 4^n sign configurations respectively;
    n above 8 is refused rather than sampled, and n = 1 is rejected because
    the stated constant vanishes there.
    """
    _require_hypercube(g)
    norm = as_norm(norm)
    p = as_exponent(p)
    n = g.geometry.n
    if n < 2:
        raise ValueError("n must be at least 2 for the log-based constant")
    if n > 8:
        raise ValueError("exact evaluation is refused beyond n = 8")
    nd = g.nd_view()
    lhs = _grid_moment(mean_deviation.apply(nd), norm, p)
    inner = _grid_moment(sign_combinations(n).apply(nd), norm, p)
    rhs = (math.e * math.log(n)) ** p * inner
    return _build_report(
        "pisier", lhs, rhs, n=n, m=2, k=None, p=p, q=norm.q, d=g.d
    )


def scheme_composite_check(
    f: FunctionTable, k: int, norm, p, rtol: float = PROVEN_BOUND_RTOL
) -> RatioReport:
    """Half-torus shift moment against an explicit-constant composite bound.

    Splitting the half shift into approximation, smoothing, and approximation
    legs gives, by convexity of t^p,

        lhs <= 3^(p-1) (2 D + (m/4)^p S)

    where D is the box displacement moment and S the diagonal smoothing
    moment, using m/4 telescoping steps of two along a fixed diagonal. The
    reported bound relaxes this to 2 * 3^(p-1) (D + m^p S), which dominates
    because (m/4)^p <= 2 m^p. Both forms are asserted; m must be divisible
    by 4 for the telescope.
    """
    norm = as_norm(norm)
    p = as_exponent(p)
    g = f.geometry
    if g.m % 4 != 0:
        raise ValueError("m must be divisible by 4")
    check_radius(k, g.m)
    lhs = _grid_moment(half_shift(g.n, g.m).apply(f.nd_view()), norm, p)
    smooth = box_average(f, range(g.n), k)
    displacement = _grid_moment(smooth.values - f.values, norm, p)
    diagonal = _diagonal_smoothing_moment(smooth.nd_view(), g.n, norm, p)
    split = 3.0 ** (p - 1.0)
    tight = split * (2.0 * displacement + (g.m / 4.0) ** p * diagonal)
    rhs = 2.0 * split * (displacement + float(g.m) ** p * diagonal)
    if lhs > tight * (1.0 + rtol):
        raise ProvenBoundViolation(
            f"composite chain violated: lhs={lhs!r} tight rhs={tight!r}"
        )
    if lhs > rhs * (1.0 + rtol):
        raise ProvenBoundViolation(
            f"composite bound violated: lhs={lhs!r} rhs={rhs!r}"
        )
    return _build_report(
        "composite_scheme", lhs, rhs, n=g.n, m=g.m, k=k, p=p, q=norm.q, d=f.d
    )
