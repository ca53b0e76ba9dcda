"""Extremal search over function tables by smoothed projected gradient ascent.

The objective is the log of an inequality ratio whose two sides are read
from inequalities.inequality_sides, never restated here. Each side is
rewritten with a smoothed vector norm: each squared component gains
_SMOOTHING_EPS^2 before the q-th power sum, which makes every objective
differentiable and strictly positive, so the log never sees zero. A q
above _SUP_SURROGATE_POWER, the sup norm included, takes that finite power
instead, where sq^(q/2) would overflow. The smoothed pieces raise their
powers with torus._dyadic_power, which takes the dyadic exponents that
p in {1, 1.5, 2} and q in {1, 2, inf} give with square roots, products and
reciprocals alone, so the ascent's bytes there do not depend on numpy's
SIMD dispatch. Each side reads its source through
Side.read with box_average_array; f, B f and B f - f are self adjoint, so
the same read pulls the gradient back. Iterates live in the mean-zero
subspace (every objective kills constants), each round's trial
step starts at _STEP and halves until a strict increase, and each restart
draws its start from its own seeded stream. Consecutive cells that share
(objective, n, m, k, d) differ only in p, q and the side scales, so up to
_STACK_ENTRIES entries of them ascend together: their restarts advance in
lockstep, as one (rows, m^n, d) stack in which each cell owns a block of
rows, and whose members each keep their own step size, backtracks and
stopping rule. The sources and ops run once over the stack and each block's
smoothed pieces over its own rows; every objective and operator treats
members independently, so each restart's table, trace and accepted-step
count are bitwise those of its ascent alone. Scoring between restarts uses
the exact evaluators, never the smoothed values.
"""

from __future__ import annotations

import math
import os
from bisect import bisect_left
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .averaging import box_average_array
from .inequalities import (
    INEQUALITY_KINDS,
    RatioReport,
    Side,
    approximation_ratio,
    enflo_ratio,
    inequality_sides,
    pisier_ratio,
    scaled_enflo_ratio,
    smoothing_ratio,
)
from .torus import FunctionTable, TorusGeometry, _dyadic_power, as_exponent, as_norm

__all__ = [
    "SearchOutcome",
    "SEARCH_OBJECTIVES",
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

# largest power of the smoothed objective only, taken by the sup norm and by any
# larger finite q: sq^(q/2) overflows long before q = 400
_SUP_SURROGATE_POWER = 16.0

# smoothing scale: each squared component of a difference vector gains its square;
# the objective reads it at call time
_SMOOTHING_EPS = 1e-6

# first trial step of every ascent round, halved after each failed trial
_STEP = 0.5

_MAX_BACKTRACKS = 40

# most float64 entries, restarts x m^n x d summed over its cells, that a
# stack of several cells holds: 2^13 (64 KiB) keeps an op's temporaries
# under glibc's 128 KiB mmap threshold, past which every call faults its
# memory in afresh (value_grad at n = 3, m = 16, d = 1 took 386 us with no
# minor fault for 2 rows and 962 us with 128 for 4, on a 2-core Xeon); a
# larger cell is a stack alone
_STACK_ENTRIES = 2**13


def _smooth_piece(diff: np.ndarray, p: float, q_eff: float, eps: float, lead=(), out=None):
    """Mean smoothed q-norm^p over positions, and its gradient in diff.

    The first len(lead) axes of diff index the members of a stack, shaped
    lead; every other axis but the last indexes positions. Each member's
    mean is a row sum over its own contiguous block, so it is bitwise the
    mean that member gets alone. The gradient is written into out when
    given, else into the array of squares, so it never shares memory with
    diff. Squares, powers and norms are raised in place by
    torus._dyadic_power, a size-1 value axis is read rather than summed, and
    where p = q the weight nrm^(p-q), which is 1, is never computed; at
    q = 2 the powers sq^(q/2) and sq^((q-2)/2) are sq and 1, so that branch
    skips them, at p = 1.5 one square root of the norms serves both
    nrm^p = nrm * sqrt(nrm) and the weight (p / count) / sqrt(nrm), and at
    q = 1 the gradient's sq^(-1/2) is one over the roots sq^(1/2) the norms
    sum.
    """
    sq = np.multiply(diff, diff)
    sq += eps * eps
    powers = sq if q_eff == 2.0 else _dyadic_power(sq, q_eff / 2.0, np.empty_like(sq))
    nrm = powers[..., 0] if powers.shape[-1] == 1 else np.add.reduce(powers, axis=-1)
    if q_eff == 1.0:
        # before nrm, a view of the roots at d = 1, is raised in place
        np.divide(1.0, powers, out=sq)
    _dyadic_power(nrm, 1.0 / q_eff)
    count = math.prod(nrm.shape[len(lead) :])
    if p == q_eff:
        weight = p / count
        _dyadic_power(nrm, p)
    elif q_eff == 2.0 and p == 1.5:
        root = np.sqrt(nrm)
        weight = np.divide(p / count, root)[..., None]
        np.multiply(nrm, root, out=nrm)
    else:
        weight = _dyadic_power(nrm, p - q_eff, np.empty_like(nrm))
        weight *= p / count
        weight = weight[..., None]
        _dyadic_power(nrm, p)
    value = nrm.reshape(lead + (-1,)).sum(axis=-1) / count
    grad = sq if out is None else out
    if q_eff == 2.0:
        return value, np.multiply(weight, diff, out=grad)
    if q_eff != 1.0:
        _dyadic_power(sq, (q_eff - 2.0) / 2.0)
    np.multiply(weight, sq, out=sq)
    return value, np.multiply(sq, diff, out=grad)


@dataclass(frozen=True)
class _Block:
    """One cell's rows of a stack: its exponents, side scales and exact evaluator."""

    p: float
    q_eff: float
    scales: tuple[float, float]  # of the lhs and the rhs
    report: Callable[[FunctionTable], RatioReport]


@dataclass(frozen=True)
class _Objective:
    """Log-ratio objective of a stack of cells that share (objective, n, m, k, d).

    Such cells declare the same sources and ops on both sides and differ
    only in p, q and the side scales, so the sources and ops are applied
    once to every row. Block b holds the members whose ids run from
    starts[b] to the next start, one per restart of its cell, and its
    smoothed pieces use its own p, q_eff and scales on its own rows.
    """

    sides: tuple[Side, Side]
    geometry: TorusGeometry
    shape: tuple[int, ...]  # (m,)*n + (d,)
    blocks: tuple[_Block, ...]
    starts: tuple[int, ...]

    def _average(self, vals: np.ndarray, k: int) -> np.ndarray:
        return box_average_array(self.geometry, vals, range(self.geometry.n), k)

    def _spans(self, ids) -> list:
        """(block, rows) per block with rows; ids are the rows' member ids, ascending."""
        bounds = [0] + [bisect_left(ids, start) for start in self.starts[1:]] + [len(ids)]
        return [(b, slice(lo, hi)) for b, lo, hi in zip(self.blocks, bounds, bounds[1:]) if lo < hi]

    def _side_value_grad(self, which: int, vals: np.ndarray, spans: list):
        side = self.sides[which]
        lead = vals.shape[:-2]
        nd = side.read(vals, self._average).reshape(lead + self.shape)
        total = np.zeros(lead)
        grad = np.zeros_like(nd)
        for op in side.ops:
            diff = op.apply(nd)
            # one block squares into its own gradient; several write theirs into one array
            joint = None if len(spans) == 1 else np.empty_like(diff)
            for block, rows in spans:
                piece = diff[rows]
                v, g = _smooth_piece(
                    piece,
                    block.p,
                    block.q_eff,
                    _SMOOTHING_EPS,
                    piece.shape[: len(lead)],
                    None if joint is None else joint[rows],
                )
                total[rows] += v
            grad += op.adjoint(g if joint is None else joint).reshape(nd.shape)
        # the source read is self adjoint, so it pulls the gradient back
        grad = side.read(grad.reshape(vals.shape), self._average)
        for block, rows in spans:
            total[rows] *= block.scales[which]
            grad[rows] *= block.scales[which]
        return total, grad

    def value_grad(self, vals: np.ndarray, ids):
        """Smoothed (lhs, d lhs, rhs, d rhs) at an (L, m^n, d) stack.

        ids lists the member id of each row, in ascending order, so each
        block's rows are contiguous. The sides hold one value per row, and
        each member's sides and gradients are bitwise those it gets alone.
        """
        spans = self._spans(ids)
        return self._side_value_grad(0, vals, spans) + self._side_value_grad(1, vals, spans)


def _stack_objective(
    name: str,
    geometry: TorusGeometry,
    d: int,
    k: int | None,
    exponents,
    members: int = 1,
) -> _Objective:
    """Objective of one stack: block b is the cell at exponents[b] = (norm, p), with `members` rows."""
    blocks = []
    for norm, p in exponents:
        norm = as_norm(norm)
        p = as_exponent(p)
        # the sources and ops depend on (name, n, m, k) only, so every cell declares the same
        sides = inequality_sides(name, geometry, k, p)
        q_eff = min(float(norm.q), _SUP_SURROGATE_POWER)
        report = partial(_EXACT[name], k=k, norm=norm, p=p)
        blocks.append(_Block(p, q_eff, (sides[0].scale, sides[1].scale), report))
    starts = tuple(range(0, members * len(blocks), members))
    return _Objective(sides, geometry, geometry.shape + (d,), tuple(blocks), starts)


def _project(vals: np.ndarray) -> np.ndarray:
    """Each member of a (..., m^n, d) stack minus its mean over the grid."""
    # the sum over the count is numpy's mean, bitwise, without its wrapper
    return vals - np.add.reduce(vals, axis=-2, keepdims=True) / vals.shape[-2]


def _direction(lhs, glhs, rhs, grhs) -> np.ndarray:
    """Projected gradient of log lhs - log rhs for each member of an (R, m^n, d) stack."""
    return _project(glhs / lhs[:, None, None] - grhs / rhs[:, None, None])


def _ascend(values: np.ndarray, value_grad, step: float, iterations: int):
    """Backtracking ascent on log lhs - log rhs for each member of an (R, m^n, d) stack.

    The members advance in lockstep: each round calls value_grad(rows, ids)
    once, on the rows of the members still ascending, each at its own trial
    step, with their member ids in ascending order. A member keeps
    its own step size, backtrack count, iteration count and trace, and
    stops on the rules of a lone ascent: after `iterations` accepted steps,
    or once _MAX_BACKTRACKS halvings in a row fail to increase its
    objective strictly. value_grad treats members independently, so each
    member's values, trace and accepted count are bitwise those of its
    ascent alone. Returns (values, traces, accepted), one entry per member.
    """
    vals = _project(values)
    count = len(vals)
    lhs, glhs, rhs, grhs = value_grad(vals, range(count))
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
        clhs, cglhs, crhs, cgrhs = value_grad(cand, ids)
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


def _maximize_stack(
    objective: str,
    geometry: TorusGeometry,
    d: int,
    k: int | None,
    exponents,
    cells,
    *,
    restarts: int,
    iterations: int,
    seed: int,
) -> list[SearchOutcome]:
    """Best restart of each cell of one stack, cell b at exponents[b] = (norm, p).

    Restart r of cell b draws its start from the stream (seed, cells[b], r);
    all restarts of all cells ascend as one stack, and each cell picks its
    best restart in restart order.
    """
    obj = _stack_objective(objective, geometry, d, k, exponents, restarts)
    if any(block.scales[1] == 0.0 for block in obj.blocks):
        # every table is 0/0 there (the approximation ratio at k = 1)
        raise ValueError(f"{objective} has a zero right-hand side on this cell")
    starts = [
        FunctionTable.random_gaussian(geometry, d, np.random.default_rng((seed, ci, r))).values
        for ci in cells
        for r in range(restarts)
    ]
    stack, traces, accepted = _ascend(np.stack(starts), obj.value_grad, _STEP, iterations)
    outcomes = []
    for b, first in enumerate(obj.starts):
        best = None
        for r in range(first, first + restarts):
            table = FunctionTable(geometry, stack[r])
            report = obj.blocks[b].report(table)
            if report.degenerate:
                continue
            if best is None or report.ratio > best.report.ratio:
                best = SearchOutcome(table, report, accepted[r], tuple(traces[r]))
        if best is None:
            raise RuntimeError("every restart produced a degenerate table")
        outcomes.append(best)
    return outcomes


def map_cells(runner, count: int, threads: int) -> list:
    """runner(0), ..., runner(count - 1) in order, on min(threads, usable CPUs, count) threads.

    Each thread may hold one evaluation as large as the CLI's size guard allows,
    so no more threads run than the CPUs this process may use, and a pool of
    one thread runs inline.
    """
    usable = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    threads = min(threads, usable or 1, count)
    if threads <= 1:
        return [runner(ci) for ci in range(count)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(runner, range(count)))


def _stacks(cells, restarts: int) -> list[list[int]]:
    """Cell indices cut into runs of consecutive cells that share (objective, n, m, k, d).

    A run grows while its restarts x m^n x d entries, summed over its
    cells, stay within _STACK_ENTRIES; a cell larger than that is a run alone.
    """
    stacks, key, held = [], None, 0
    for ci, (objective, n, m, k, _, _, d) in enumerate(cells):
        entries = restarts * m**n * d
        if (objective, n, m, k, d) == key and held + entries <= _STACK_ENTRIES:
            stacks[-1].append(ci)
            held += entries
        else:
            stacks.append([ci])
            key, held = (objective, n, m, k, d), entries
    return stacks


def maximize_cells(
    cells, *, restarts: int, iterations: int, seed: int, threads: int = 1
) -> list[SearchOutcome]:
    """Best restart of each (objective, n, m, k, p, q, d) cell, in cell order.

    Cell i's restart r starts from the stream (seed, i, r), so the outcomes
    do not depend on the thread count. The cells of each of _stacks(cells)
    ascend as one stack, and each outcome is bitwise the one _maximize_stack
    finds for its cell alone, as a stack of one.
    """
    stacks = _stacks(cells, restarts)

    def run(si: int) -> list[SearchOutcome]:
        members = stacks[si]
        objective, n, m, k, _, _, d = cells[members[0]]
        exponents = [(cells[ci][5], cells[ci][4]) for ci in members]
        return _maximize_stack(
            objective, TorusGeometry(n, m), d, k, exponents, members,
            restarts=restarts, iterations=iterations, seed=seed,
        )

    return [out for outs in map_cells(run, len(stacks), threads) for out in outs]


def scan_grid(
    n_values,
    m_values,
    p=2.0,
    q=2.0,
    d: int = 1,
    *,
    restarts: int,
    iterations: int,
    seed: int,
    threads: int = 1,
) -> list[SearchOutcome]:
    """Maximize the half-shift ratio over an (n, m) grid, one cell per pair, n major."""
    if any(m % 4 != 0 for m in m_values):
        raise ValueError("scan values of m must be divisible by 4")
    cells = [("scaled_enflo", int(n), int(m), None, p, q, d) for n in n_values for m in m_values]
    return maximize_cells(
        cells, restarts=restarts, iterations=iterations, seed=seed, threads=threads
    )
