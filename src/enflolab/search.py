"""Extremal search over function tables by smoothed projected gradient ascent.

The objective is the log of an inequality ratio whose two sides are read
from inequalities.inequality_sides, never restated here. Each side is
rewritten with a smoothed vector norm: each squared component gains eps^2
before the q-th power sum, which makes every objective differentiable and
strictly positive, so the log never sees zero. The sup norm is handled
through a finite surrogate power. Iterates live in the mean-zero subspace (every
objective kills constants), steps use backtracking halving and accept only
strict increases, and each restart draws its start from its own seeded
stream. Scoring between restarts uses the exact evaluators, never the
smoothed values.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .averaging import box_average_array, check_radius
from .inequalities import (
    INEQUALITY_KINDS,
    SOURCE_BOX,
    SOURCE_F,
    RatioReport,
    Side,
    approximation_ratio,
    enflo_ratio,
    format_cell,
    inequality_sides,
    pisier_ratio,
    scaled_enflo_ratio,
    smoothing_ratio,
)
from .torus import FunctionTable, TorusGeometry, as_exponent, as_norm

__all__ = [
    "OptimizationConfig",
    "SearchOutcome",
    "ScanRow",
    "SCAN_CSV_COLUMNS",
    "SEARCH_OBJECTIVES",
    "maximize_ratio",
    "gradient_check",
    "default_k_rule",
    "search_row",
    "map_cells",
    "scan_grid",
]


SEARCH_OBJECTIVES = tuple(INEQUALITY_KINDS)

# exact evaluators, looked up by name at call time so rebinding them here takes effect
_EXACT = {
    "scaled_enflo": lambda f, k, norm, p: scaled_enflo_ratio(f, norm, p),
    "approximation": lambda f, k, norm, p: approximation_ratio(f, k, norm, p),
    "smoothing": lambda f, k, norm, p: smoothing_ratio(f, k, norm, p),
    "enflo": lambda f, k, norm, p: enflo_ratio(f, norm, p),
    "pisier": lambda f, k, norm, p: pisier_ratio(f, norm, p),
}

# sup norm surrogate power for the smoothed objective only
_SUP_SURROGATE_POWER = 16.0

# central-difference step of gradient_check
_FD_STEP = 1e-5

_MAX_BACKTRACKS = 40
_MAX_DEGENERATE_RESAMPLES = 50


@dataclass(frozen=True)
class OptimizationConfig:
    """Ascent knobs. seed may be a tuple for nested deterministic streams."""

    restarts: int = 6
    iterations: int = 120
    step: float = 0.5
    seed: int | tuple = 0
    smoothing_eps: float = 1e-6

    def __post_init__(self) -> None:
        if not _is_count(self.restarts, 1):
            raise ValueError("restarts must be a positive integer")
        if not _is_count(self.iterations, 1):
            raise ValueError("iterations must be a positive integer")
        if not 0 < self.step < math.inf:
            raise ValueError("step must be positive and finite")
        if not 0 < self.smoothing_eps < math.inf:
            raise ValueError("smoothing_eps must be positive and finite")
        _seed_tuple(self.seed)


def _is_count(value, minimum: int) -> bool:
    """An int of at least minimum; a bool is not a count."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= minimum


def _seed_tuple(seed) -> tuple[int, ...]:
    if isinstance(seed, (tuple, list)):
        if not all(_is_count(s, 0) for s in seed):
            raise ValueError("seed tuple entries must be nonnegative integers")
        return tuple(seed)
    if not _is_count(seed, 0):
        raise ValueError("seed must be a nonnegative integer or a tuple of them")
    return (seed,)


def _smooth_piece(diff: np.ndarray, p: float, q_eff: float, eps: float):
    """Mean smoothed q-norm^p over leading axes, and its gradient in diff."""
    sq = diff * diff + eps * eps
    s = np.sum(sq ** (q_eff / 2.0), axis=-1)
    nrm = s ** (1.0 / q_eff)
    count = nrm.size
    value = float(np.sum(nrm**p)) / count
    weight = (p / count) * nrm ** (p - q_eff)
    grad = weight[..., None] * sq ** ((q_eff - 2.0) / 2.0) * diff
    return value, grad


@dataclass(frozen=True)
class _Objective:
    """One cell's log-ratio objective: two smoothed sides and the exact evaluator."""

    lhs: Side
    rhs: Side
    report: Callable[[FunctionTable], RatioReport]
    geometry: TorusGeometry
    shape: tuple[int, ...]  # (m,)*n + (d,)
    k: int | None
    p: float
    q_eff: float
    eps: float

    def _source(self, side: Side, vals: np.ndarray) -> np.ndarray:
        if side.source == SOURCE_F:
            return vals
        smooth = box_average_array(self.geometry, vals, range(self.geometry.n), self.k)
        return smooth if side.source == SOURCE_BOX else smooth - vals

    def _side_value_grad(self, side: Side, vals: np.ndarray):
        nd = self._source(side, vals).reshape(self.shape)
        total = 0.0
        grad = np.zeros_like(nd)
        for op in side.ops:
            v, g = _smooth_piece(op.apply(nd), self.p, self.q_eff, self.eps)
            total += v
            grad += op.adjoint(g).reshape(nd.shape)
        # B and B - I are self adjoint, so the source map pulls the gradient back
        grad = self._source(side, grad.reshape(vals.shape))
        return side.scale * total, side.scale * grad

    def value_grad(self, vals: np.ndarray):
        """Smoothed (lhs, d lhs, rhs, d rhs) at an (m^n, d) array."""
        return self._side_value_grad(self.lhs, vals) + self._side_value_grad(self.rhs, vals)

    def min_diff(self, vals: np.ndarray) -> float:
        """Smallest Euclidean length among all difference vectors of both sides."""
        worst = math.inf
        for side in (self.lhs, self.rhs):
            nd = self._source(side, vals).reshape(self.shape)
            for op in side.ops:
                diff = op.apply(nd)
                mags = np.sqrt(np.sum(diff * diff, axis=-1))
                worst = min(worst, float(mags.min()))
        return worst


def _make_objective(
    name: str,
    geometry: TorusGeometry,
    d: int,
    norm,
    p: float,
    k: int | None,
    eps: float,
) -> _Objective:
    norm = as_norm(norm)
    p = as_exponent(p)
    lhs, rhs = inequality_sides(name, geometry, k, p)
    exact = _EXACT[name]
    report = lambda f: exact(f, k, norm, p)
    q_eff = _SUP_SURROGATE_POWER if math.isinf(norm.q) else float(norm.q)
    shape = geometry.shape + (d,)
    return _Objective(lhs, rhs, report, geometry, shape, k, p, q_eff, eps)


def _project(vals: np.ndarray) -> np.ndarray:
    return vals - vals.mean(axis=0, keepdims=True)


def _ascend(values: np.ndarray, value_grad, step: float, iterations: int):
    """Backtracking ascent on log lhs - log rhs; returns (values, trace, accepted)."""
    vals = _project(values)
    lhs, glhs, rhs, grhs = value_grad(vals)
    best = math.log(lhs) - math.log(rhs)
    trace = [best]
    accepted = 0
    for _ in range(iterations):
        direction = _project(glhs / lhs - grhs / rhs)
        stepsize = step
        moved = False
        for _ in range(_MAX_BACKTRACKS):
            cand = _project(vals + stepsize * direction)
            clhs, cglhs, crhs, cgrhs = value_grad(cand)
            objective = math.log(clhs) - math.log(crhs)
            if objective > best:
                vals, lhs, glhs, rhs, grhs = cand, clhs, cglhs, crhs, cgrhs
                best = objective
                accepted += 1
                moved = True
                break
            stepsize *= 0.5
        trace.append(best)
        if not moved:
            break
    return vals, trace, accepted


@dataclass(frozen=True)
class SearchOutcome:
    """Best table found, its exact report, and the ascent that produced it."""

    table: FunctionTable
    report: RatioReport
    accepted_steps: int
    trace: tuple[float, ...]


def _maximize_full(
    objective: _Objective,
    geometry: TorusGeometry,
    d: int,
    cfg: OptimizationConfig,
) -> SearchOutcome:
    base = _seed_tuple(cfg.seed)
    best = None
    for r in range(cfg.restarts):
        rng = np.random.default_rng(base + (r,))
        start = None
        for _ in range(_MAX_DEGENERATE_RESAMPLES):
            cand = FunctionTable.random_gaussian(geometry, d, rng)
            if not objective.report(cand).degenerate:
                start = cand
                break
        if start is None:
            continue
        vals, trace, accepted = _ascend(
            start.values, objective.value_grad, cfg.step, cfg.iterations
        )
        table = FunctionTable(geometry, vals)
        report = objective.report(table)
        if report.degenerate:
            continue
        if best is None or report.ratio > best.report.ratio:
            best = SearchOutcome(table, report, accepted, tuple(trace))
    if best is None:
        raise RuntimeError("every restart produced a degenerate table")
    return best


def maximize_ratio(
    objective: str,
    geometry: TorusGeometry,
    d: int = 1,
    norm=2.0,
    p=2.0,
    k: int | None = None,
    config: OptimizationConfig | None = None,
) -> tuple[FunctionTable, RatioReport]:
    """Search for a table maximizing the named inequality ratio."""
    cfg = config if config is not None else OptimizationConfig()
    obj = _make_objective(objective, geometry, d, norm, p, k, cfg.smoothing_eps)
    out = _maximize_full(obj, geometry, d, cfg)
    return out.table, out.report


def gradient_check(objective: str, f: FunctionTable, norm, p, k: int | None = None) -> float:
    """Worst relative error of the analytic gradient against central differences.

    Checks the smoothed log-ratio objective, at OptimizationConfig's default
    smoothing_eps, at the given table over 20 coordinates, with steps of
    _FD_STEP. Refuses p = 1 and tables whose smallest difference vector
    sits at the smoothing scale; both would compare derivatives across a
    near kink, where finite differences say nothing.
    """
    p = as_exponent(p)
    if not p > 1:
        raise ValueError("gradient checks need p above 1")
    smoothing_eps = OptimizationConfig.smoothing_eps
    obj = _make_objective(objective, f.geometry, f.d, norm, p, k, smoothing_eps)
    vals = f.values
    if obj.min_diff(vals) < 10.0 * smoothing_eps:
        raise ValueError("table has differences at the smoothing scale")
    lhs, glhs, rhs, grhs = obj.value_grad(vals)
    grad = (glhs / lhs - grhs / rhs).reshape(-1)
    flat = vals.reshape(-1)
    rng = np.random.default_rng(0)
    picks = rng.choice(flat.size, size=min(20, flat.size), replace=False)
    worst = 0.0
    for j in picks:
        plus = flat.copy()
        plus[j] += _FD_STEP
        minus = flat.copy()
        minus[j] -= _FD_STEP
        lp, _, rp, _ = obj.value_grad(plus.reshape(vals.shape))
        lm, _, rm, _ = obj.value_grad(minus.reshape(vals.shape))
        numeric = ((math.log(lp) - math.log(rp)) - (math.log(lm) - math.log(rm))) / (2 * _FD_STEP)
        denom = max(abs(numeric), abs(grad[j]), 1e-8)
        worst = max(worst, abs(numeric - grad[j]) / denom)
    return worst


def map_cells(runner, count: int, threads: int) -> list:
    """runner(0), ..., runner(count - 1) in cell order, on up to `threads` threads."""
    if threads <= 1:
        return [runner(ci) for ci in range(count)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(runner, range(count)))


def default_k_rule(n: int, m: int) -> int:
    """Largest odd radius at most min(m/2 - 1, ceil(n log n)), at least 1."""
    target = 1 if n == 1 else math.ceil(n * math.log(n))
    best = min(m // 2 - 1, target)
    if best % 2 == 0:
        best -= 1
    return max(best, 1)


SCAN_CSV_COLUMNS = (
    "objective",
    "n",
    "m",
    "k",
    "p",
    "q",
    "d",
    "empirical_theta",
    "lhs",
    "rhs",
    "restarts",
    "iterations",
    "seed",
)


@dataclass(frozen=True)
class ScanRow:
    """One search cell: the maximized ratio re-expressed as a scaling exponent."""

    objective: str
    n: int
    m: int | None
    k: int | None
    p: float
    q: float
    d: int
    empirical_theta: float
    lhs: float
    rhs: float
    restarts: int
    iterations: int
    seed: int

    def to_csv_row(self) -> list[str]:
        return [format_cell(getattr(self, column)) for column in SCAN_CSV_COLUMNS]


def search_row(
    objective: str,
    geometry: TorusGeometry,
    d: int,
    norm,
    p,
    k: int | None,
    config: OptimizationConfig,
    index: int,
) -> ScanRow:
    """Search one cell, seeded by (config.seed, index), and report it as a row."""
    norm = as_norm(norm)
    p = as_exponent(p)
    obj = _make_objective(objective, geometry, d, norm, p, k, config.smoothing_eps)
    out = _maximize_full(obj, geometry, d, replace(config, seed=(config.seed, index)))
    return ScanRow(
        objective=objective,
        n=geometry.n,
        m=geometry.m,
        k=k,
        p=p,
        q=norm.q,
        d=d,
        empirical_theta=out.report.ratio ** (1.0 / p),
        lhs=out.report.lhs,
        rhs=out.report.rhs,
        restarts=config.restarts,
        iterations=out.accepted_steps,
        seed=config.seed,
    )


def scan_grid(
    n_values,
    m_values,
    p=2.0,
    q=2.0,
    d: int = 1,
    config: OptimizationConfig | None = None,
    threads: int = 1,
) -> list[ScanRow]:
    """Maximize the half-shift ratio over an (n, m) grid.

    Each cell runs an independent search seeded by (base seed, cell index),
    so results do not depend on the thread count. The radius column records
    what default_k_rule picks for the cell; the half-shift objective itself
    does not use it.
    """
    cfg = config if config is not None else OptimizationConfig()
    if not isinstance(cfg.seed, int):
        raise ValueError("scan_grid needs an integer base seed")
    cells = []
    for n in n_values:
        for m in m_values:
            if m % 4 != 0:
                raise ValueError("scan values of m must be divisible by 4")
            cells.append((int(n), int(m)))

    def run(ci: int) -> ScanRow:
        n, m = cells[ci]
        k = default_k_rule(n, m)
        check_radius(k, m)
        row = search_row("scaled_enflo", TorusGeometry(n, m), d, q, p, None, cfg, ci)
        return replace(row, k=k)

    return map_cells(run, len(cells), threads)
