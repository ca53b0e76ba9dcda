"""Extremal search over function tables by smoothed projected gradient ascent.

The objective is the log of an inequality ratio whose two sides are read
from inequalities.inequality_sides, never restated here. Each side is
rewritten with a smoothed vector norm: each squared component gains
_SMOOTHING_EPS^2 before the q-th power sum, which makes every objective
differentiable and strictly positive, so the log never sees zero. The sup
norm is handled through a finite surrogate power. Iterates live in the
mean-zero subspace (every objective kills constants), each round's trial
step starts at _STEP and halves until a strict increase, and each restart
draws its start from its own seeded stream. The restarts of one cell then
advance in lockstep, as one (restarts, m^n, d) stack whose members each
keep their own step size, backtracks and stopping rule; every objective and
operator treats members independently, so each restart's table, trace and
accepted-step count are bitwise those of its ascent alone. Scoring between
restarts uses the exact evaluators, never the smoothed values.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .averaging import box_average_array
from .inequalities import (
    INEQUALITY_KINDS,
    SOURCE_BOX,
    SOURCE_F,
    RatioReport,
    Side,
    approximation_ratio,
    enflo_ratio,
    inequality_sides,
    pisier_ratio,
    scaled_enflo_ratio,
    smoothing_ratio,
)
from .torus import FunctionTable, TorusGeometry, _is_count, as_exponent, as_norm

__all__ = [
    "OptimizationConfig",
    "SearchOutcome",
    "SEARCH_OBJECTIVES",
    "maximize_ratio",
    "gradient_check",
    "default_k_rule",
    "map_cells",
    "maximize_cells",
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

# smoothing scale: each squared component of a difference vector gains its square;
# the objective reads it at call time
_SMOOTHING_EPS = 1e-6

# first trial step of every ascent round, halved after each failed trial
_STEP = 0.5

# central-difference step of gradient_check
_FD_STEP = 1e-5

_MAX_BACKTRACKS = 40


@dataclass(frozen=True)
class OptimizationConfig:
    """Ascent knobs. seed may be a tuple for nested deterministic streams."""

    restarts: int = 6
    iterations: int = 120
    seed: int | tuple = 0

    def __post_init__(self) -> None:
        if not _is_count(self.restarts, 1):
            raise ValueError("restarts must be a positive integer")
        if not _is_count(self.iterations, 1):
            raise ValueError("iterations must be a positive integer")
        _seed_tuple(self.seed)


def _seed_tuple(seed) -> tuple[int, ...]:
    if isinstance(seed, (tuple, list)):
        if not all(_is_count(s, 0) for s in seed):
            raise ValueError("seed tuple entries must be nonnegative integers")
        return tuple(seed)
    if not _is_count(seed, 0):
        raise ValueError("seed must be a nonnegative integer or a tuple of them")
    return (seed,)


def _smooth_piece(diff: np.ndarray, p: float, q_eff: float, eps: float, lead=()):
    """Mean smoothed q-norm^p over positions, and its gradient in diff.

    The first len(lead) axes of diff index the members of a stack, shaped
    lead; every other axis but the last indexes positions. Each member's
    mean is a row sum over its own contiguous block, so it is bitwise the
    mean that member gets alone. At q = 2 the powers sq^(q/2) and
    sq^((q-2)/2) are sq and 1, so that branch skips them; its value and
    gradient are bitwise the general ones.
    """
    sq = diff * diff + eps * eps
    if q_eff == 2.0:
        nrm = np.sqrt(sq.sum(axis=-1))
    else:
        nrm = np.sum(sq ** (q_eff / 2.0), axis=-1) ** (1.0 / q_eff)
    count = math.prod(nrm.shape[len(lead) :])
    value = (nrm**p).reshape(lead + (-1,)).sum(axis=-1) / count
    weight = (p / count) * nrm ** (p - q_eff)
    if q_eff == 2.0:
        return value, weight[..., None] * diff
    return value, weight[..., None] * sq ** ((q_eff - 2.0) / 2.0) * diff


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

    def _source(self, side: Side, vals: np.ndarray) -> np.ndarray:
        if side.source == SOURCE_F:
            return vals
        smooth = box_average_array(self.geometry, vals, range(self.geometry.n), self.k)
        return smooth if side.source == SOURCE_BOX else smooth - vals

    def _side_value_grad(self, side: Side, vals: np.ndarray):
        lead = vals.shape[:-2]
        nd = self._source(side, vals).reshape(lead + self.shape)
        total = 0.0
        grad = np.zeros_like(nd)
        for op in side.ops:
            v, g = _smooth_piece(op.apply(nd), self.p, self.q_eff, _SMOOTHING_EPS, lead)
            total += v
            grad += op.adjoint(g).reshape(nd.shape)
        # B and B - I are self adjoint, so the source map pulls the gradient back
        grad = self._source(side, grad.reshape(vals.shape))
        return side.scale * total, side.scale * grad

    def value_grad(self, vals: np.ndarray):
        """Smoothed (lhs, d lhs, rhs, d rhs) at a (..., m^n, d) stack.

        The sides have the stack's leading shape, one value per member, and
        each member's sides and gradients are bitwise those it gets alone.
        """
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
) -> _Objective:
    norm = as_norm(norm)
    p = as_exponent(p)
    lhs, rhs = inequality_sides(name, geometry, k, p)
    exact = _EXACT[name]
    report = lambda f: exact(f, k, norm, p)
    q_eff = _SUP_SURROGATE_POWER if math.isinf(norm.q) else float(norm.q)
    shape = geometry.shape + (d,)
    return _Objective(lhs, rhs, report, geometry, shape, k, p, q_eff)


def _project(vals: np.ndarray) -> np.ndarray:
    """Each member of a (..., m^n, d) stack minus its mean over the grid."""
    # the sum over the count is numpy's mean, bitwise, without its wrapper
    return vals - np.add.reduce(vals, axis=-2, keepdims=True) / vals.shape[-2]


def _direction(lhs, glhs, rhs, grhs) -> np.ndarray:
    """Projected gradient of log lhs - log rhs for each member of an (R, m^n, d) stack."""
    return _project(glhs / lhs[:, None, None] - grhs / rhs[:, None, None])


def _ascend(values: np.ndarray, value_grad, step: float, iterations: int):
    """Backtracking ascent on log lhs - log rhs for each member of an (R, m^n, d) stack.

    The members advance in lockstep: each round calls value_grad once, on
    the members still ascending, each at its own trial step. A member keeps
    its own step size, backtrack count, iteration count and trace, and
    stops on the rules of a lone ascent: after `iterations` accepted steps,
    or once _MAX_BACKTRACKS halvings in a row fail to increase its
    objective strictly. value_grad treats members independently, so each
    member's values, trace and accepted count are bitwise those of its
    ascent alone. Returns (values, traces, accepted), one entry per member.
    """
    vals = _project(values)
    lhs, glhs, rhs, grhs = value_grad(vals)
    count = len(vals)
    best = [math.log(a) - math.log(b) for a, b in zip(lhs.tolist(), rhs.tolist())]
    traces = [[value] for value in best]
    accepted = [0] * count
    failures = [0] * count
    final = list(vals)  # each member's table, set to its last row when it stops
    # the working arrays hold one row per member still ascending, ids[row] being its index
    ids = list(range(count)) if iterations > 0 else []
    stepsize = np.full(count, float(step))
    direction = _direction(lhs, glhs, rhs, grhs)
    while ids:
        cand = _project(vals + stepsize[:, None, None] * direction)
        clhs, cglhs, crhs, cgrhs = value_grad(cand)
        moved, going = [], []
        for i, a, b in zip(ids, clhs.tolist(), crhs.tolist()):
            objective = math.log(a) - math.log(b)
            moved.append(objective > best[i])
            if moved[-1]:
                best[i] = objective
                accepted[i] += 1
                failures[i] = 0
                traces[i].append(objective)
                going.append(len(traces[i]) <= iterations)
            else:
                failures[i] += 1
                going.append(failures[i] < _MAX_BACKTRACKS)
                if not going[-1]:
                    traces[i].append(best[i])
        moved = np.array(moved)
        if moved.all():
            vals, lhs, glhs, rhs, grhs = cand, clhs, cglhs, crhs, cgrhs
            direction = _direction(lhs, glhs, rhs, grhs)
        elif moved.any():
            for have, new in zip((vals, lhs, glhs, rhs, grhs), (cand, clhs, cglhs, crhs, cgrhs)):
                have[moved] = new[moved]
            direction[moved] = _direction(lhs[moved], glhs[moved], rhs[moved], grhs[moved])
        stepsize = np.where(moved, step, 0.5 * stepsize)
        if not all(going):
            keep = np.array(going)
            for row in np.flatnonzero(~keep):
                final[ids[row]] = vals[row]
            ids = [i for i, go in zip(ids, going) if go]
            vals, lhs, glhs, rhs, grhs = vals[keep], lhs[keep], glhs[keep], rhs[keep], grhs[keep]
            direction, stepsize = direction[keep], stepsize[keep]
    return np.stack(final), traces, accepted


@dataclass(frozen=True)
class SearchOutcome:
    """Best table found, its exact report, and the ascent that produced it."""

    table: FunctionTable
    report: RatioReport
    accepted_steps: int
    trace: tuple[float, ...]


def maximize_ratio(
    objective: str,
    geometry: TorusGeometry,
    d: int = 1,
    norm=2.0,
    p=2.0,
    k: int | None = None,
    config: OptimizationConfig | None = None,
) -> SearchOutcome:
    """Search for a table maximizing the named inequality ratio; the best restart wins."""
    cfg = config if config is not None else OptimizationConfig()
    obj = _make_objective(objective, geometry, d, norm, p, k)
    if obj.rhs.scale == 0.0:
        # every table is 0/0 there (the approximation ratio at k = 1)
        raise ValueError(f"{objective} has a zero right-hand side on this cell")
    base = _seed_tuple(cfg.seed)
    starts = [
        FunctionTable.random_gaussian(geometry, d, np.random.default_rng(base + (r,))).values
        for r in range(cfg.restarts)
    ]
    stack, traces, accepted = _ascend(np.stack(starts), obj.value_grad, _STEP, cfg.iterations)
    best = None
    for vals, trace, steps in zip(stack, traces, accepted):
        table = FunctionTable(geometry, vals)
        report = obj.report(table)
        if report.degenerate:
            continue
        if best is None or report.ratio > best.report.ratio:
            best = SearchOutcome(table, report, steps, tuple(trace))
    if best is None:
        raise RuntimeError("every restart produced a degenerate table")
    return best


def gradient_check(objective: str, f: FunctionTable, norm, p, k: int | None = None) -> float:
    """Worst relative error of the analytic gradient against central differences.

    Checks the smoothed log-ratio objective, at _SMOOTHING_EPS, at the
    given table over 20 coordinates, with steps of _FD_STEP. Refuses
    p = 1 and tables whose smallest difference vector
    sits at the smoothing scale; both would compare derivatives across a
    near kink, where finite differences say nothing.
    """
    p = as_exponent(p)
    if not p > 1:
        raise ValueError("gradient checks need p above 1")
    obj = _make_objective(objective, f.geometry, f.d, norm, p, k)
    vals = f.values
    if obj.min_diff(vals) < 10.0 * _SMOOTHING_EPS:
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
    """runner(0), ..., runner(count - 1) in cell order, on up to `threads` threads.

    Each thread may hold one evaluation as large as the CLI's size guard allows,
    so no more threads run than the CPUs this process may use.
    """
    usable = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    threads = min(threads, usable or 1)
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


def maximize_cells(cells, config: OptimizationConfig, threads: int = 1) -> list[SearchOutcome]:
    """maximize_ratio on each (objective, n, m, k, p, q, d) cell, in cell order.

    Cell i searches on the stream (config's seed..., i), so the outcomes do
    not depend on the thread count.
    """
    base = _seed_tuple(config.seed)

    def run(ci: int) -> SearchOutcome:
        objective, n, m, k, p, q, d = cells[ci]
        cell_config = replace(config, seed=base + (ci,))
        return maximize_ratio(objective, TorusGeometry(n, m), d, q, p, k, cell_config)

    return map_cells(run, len(cells), threads)


def scan_grid(
    n_values,
    m_values,
    p=2.0,
    q=2.0,
    d: int = 1,
    config: OptimizationConfig | None = None,
    threads: int = 1,
) -> list[SearchOutcome]:
    """Maximize the half-shift ratio over an (n, m) grid, one cell per pair, n major."""
    if any(m % 4 != 0 for m in m_values):
        raise ValueError("scan values of m must be divisible by 4")
    cells = [("scaled_enflo", int(n), int(m), None, p, q, d) for n in n_values for m in m_values]
    return maximize_cells(cells, config if config is not None else OptimizationConfig(), threads)
