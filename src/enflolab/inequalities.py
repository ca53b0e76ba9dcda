"""Exact evaluators for the torus and hypercube inequalities studied here.

Every expectation is an exact average over the full grid, and over all sign
vectors where one appears; nothing is sampled. Each evaluator returns a
RatioReport carrying both sides, the ratio, a degeneracy flag for the 0/0
case, and the cell parameters. A positive numerator against an exactly zero
denominator would falsify a proven bound, so that state aborts instead of
reporting.

Each side of each inequality is a weighted p-th moment of linear
translation-invariant difference operators applied to a source: f, its
full-box average B f, or B f - f. The operators are (apply, adjoint) pairs on
(m,)*n + (d,) arrays. inequality_sides declares each inequality's two sides,
constants and valid cells once; the evaluators here and the extremal search
in search.py, which differentiates the same pairs, both read it.
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
    TorusGeometry,
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
    "Side",
    "INEQUALITY_KINDS",
    "check_cell",
    "inequality_sides",
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

# what a side's operators act on: f itself, its full-box average B f, or B f - f
SOURCE_F, SOURCE_BOX, SOURCE_BOX_DISPLACEMENT = "f", "B f", "B f - f"

# for sides whose source already is the difference field
identity_op = DiffOp(lambda nd: nd, lambda w: w)


class Side(NamedTuple):
    """One side of an inequality: scale times the summed p-th moments of ops(source)."""

    scale: float
    ops: tuple[DiffOp, ...]
    source: str = SOURCE_F

    def moment(self, source_nd: np.ndarray, norm: NormSpec, p: float) -> float:
        """Exact value of the side, given its source shaped (m,)*n + (d,)."""
        total = 0.0
        for op in self.ops:
            total += _grid_moment(op.apply(source_nd), norm, p)
        return self.scale * total


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
    lhs = float(np.mean(_moment_power(norm.lengths(sums), p)))
    rhs = float(np.sum(_moment_power(norm.lengths(arr), p)))
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
        return Side(1.0, (identity_op,), SOURCE_BOX_DISPLACEMENT), Side(scale, steps)
    if name == "smoothing":
        # the mean over all 2^n sign vectors eps of B f(x + eps) - B f(x - eps)
        return Side(1.0 / float(2**n), diagonal_differences(n), SOURCE_BOX), Side(1.0, steps)
    if name == "enflo":
        return Side(1.0, (half_shift(n, m),)), Side(1.0, steps)
    rhs = Side((math.e * math.log(n)) ** p, (sign_combinations(n),))
    return Side(1.0, (mean_deviation,)), rhs


def _evaluate(name: str, f: FunctionTable, k: int | None, norm, p) -> RatioReport:
    norm = as_norm(norm)
    p = as_exponent(p)
    g = f.geometry
    values = []
    for side in inequality_sides(name, g, k, p):
        if side.source == SOURCE_F and side.ops == unit_steps(g.n):
            values.append(side.scale * edge_energy(f, norm, p))
            continue
        source = f.values
        if side.source != SOURCE_F:
            source = box_average(f, range(g.n), k).values
            if side.source == SOURCE_BOX_DISPLACEMENT:
                source = source - f.values
        values.append(side.moment(source.reshape(g.shape + (f.d,)), norm, p))
    lhs, rhs = values
    return _build_report(name, lhs, rhs, n=g.n, m=g.m, k=k, p=p, q=norm.q, d=f.d)


def enflo_ratio(f: FunctionTable, norm, p) -> RatioReport:
    """Antipodal increment moment against the sum of edge increment moments."""
    return _evaluate("enflo", f, None, norm, p)


def scaled_enflo_ratio(f: FunctionTable, norm, p) -> RatioReport:
    """Half-torus shift moment against m^p times the edge energy."""
    return _evaluate("scaled_enflo", f, None, norm, p)


def approximation_ratio(
    f: FunctionTable, k: int, norm, p, rtol: float = PROVEN_BOUND_RTOL
) -> RatioReport:
    """Box-average displacement against (k-1)^p n^(p-1) times the edge energy.

    This bound is a theorem with no hidden constant, so a violation beyond
    float tolerance aborts.
    """
    report = _evaluate("approximation", f, k, norm, p)
    if report.lhs > report.rhs * (1.0 + rtol):
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
    rtol: float = PROVEN_BOUND_RTOL,
) -> RatioReport:
    """Half-torus shift moment against an explicit-constant composite bound.

    Splitting the half shift into approximation, smoothing, and approximation
    legs gives, by convexity of t^p,

        lhs <= 3^(p-1) (2 D + (m/4)^p S)

    where D is the box displacement moment and S the diagonal smoothing
    moment, using m/4 telescoping steps of two along a fixed diagonal. The
    reported bound relaxes this to 2 * 3^(p-1) (D + m^p S), which dominates
    because (m/4)^p <= 2 m^p. Both forms are asserted.

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
    if lhs > tight * (1.0 + rtol):
        raise ProvenBoundViolation(
            f"composite chain violated: lhs={lhs!r} tight rhs={tight!r}"
        )
    if lhs > rhs * (1.0 + rtol):
        raise ProvenBoundViolation(
            f"composite bound violated: lhs={lhs!r} rhs={rhs!r}"
        )
    return _build_report(
        "composite_scheme", lhs, rhs, n=n, m=m, k=smoothing.k, p=p, q=q, d=d
    )
