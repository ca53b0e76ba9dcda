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
draws its start from its own seeded stream. Cells that differ only in p,
wherever they sit in the cell list, declare the same sources and ops and
take one q, so up to _STACK_ENTRIES entries of them ascend together:
their restarts advance in lockstep, as one (rows, m^n, d) stack in which
each cell owns a block of rows, and whose members each keep their own
step size, backtracks and stopping rule. The sources and ops run once
over the stack. A side smooths its ops in groups: as many as fit in
_STACK_ENTRIES entries write their fields into one (ops, rows,
positions, d) array, whose smoothed norms (the q-part) are taken once
over the group, and whose powers, weights and per-(op, member) row sums
(the p-part) each block takes on its own rows; the row sums join the
side in op order. Every objective and operator treats members
independently, so each restart's table, trace and accepted-step count
are bitwise those of its ascent alone. Scoring between restarts uses
the exact evaluators, never the smoothed values.
"""

from __future__ import annotations

import math
import os
from bisect import bisect_left
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from .averaging import box_average_array
from .inequalities import (
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
    "map_cells",
    "maximize_cells",
    "scan_grid",
]

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
# stack of several cells holds, and that a group of a side's op fields,
# smoothed in one pass, holds: 2^13 (64 KiB) keeps the temporaries under
# glibc's 128 KiB mmap threshold, past which every call faults its memory
# in afresh. value_grad at n = 3, m = 16, d = 1 took 386 us with no minor
# fault for 2 rows and 962 us with 128 for 4; stacking all of a side's op
# fields into one group took 148-432 minor faults per value_grad call and
# ran 1.2-2.0x slower at n = 3, m = 12 and 16 (2-core Xeon). A larger cell
# is a stack alone, and an op whose own field is larger a group alone
_STACK_ENTRIES = 2**13


def _smooth_norms(diff: np.ndarray, q_eff: float, eps: float):
    """The q-part of the smoothed moment: each vector's smoothed q-norm, and its gradient factor.

    The last axis of diff holds the vectors. Returns (nrm, sq): nrm, shaped
    diff.shape[:-1], holds (sum (diff^2 + eps^2)^(q/2))^(1/q); sq, shaped
    like diff, holds (diff^2 + eps^2)^((q-2)/2), the factor the gradient of
    nrm^p takes besides the weight p nrm^(p-q). At q = 2 that factor is 1 and
    sq is scratch, of which nrm is a view at d = 1. Neither shares memory
    with diff. Squares, powers and norms are raised in place by
    torus._dyadic_power, a size-1 value axis is read rather than summed, at
    q = 2 the powers sq^(q/2) and sq^((q-2)/2) are sq and 1, so that branch
    skips them, and at q = 1 the factor sq^(-1/2) is one over the roots
    sq^(1/2) the norms sum.
    """
    sq = np.multiply(diff, diff)
    sq += eps * eps
    powers = sq if q_eff == 2.0 else _dyadic_power(sq, q_eff / 2.0, np.empty_like(sq))
    nrm = powers[..., 0] if powers.shape[-1] == 1 else np.add.reduce(powers, axis=-1)
    if q_eff == 1.0:
        # before nrm, a view of the roots at d = 1, is raised in place
        np.divide(1.0, powers, out=sq)
    elif q_eff != 2.0:
        _dyadic_power(sq, (q_eff - 2.0) / 2.0)
    _dyadic_power(nrm, 1.0 / q_eff)
    return nrm, sq


def _smooth_weight(nrm: np.ndarray, p: float, q_eff: float, scale: float):
    """The p-part of the smoothed moment: nrm raised to p in place, and the gradient weight.

    The weight is scale * nrm^(p-q), taken before nrm is raised: the float
    scale itself where p = q, else a fresh array with a trailing size-1 axis
    that spreads it over each vector. With scale = p / positions it turns
    the factor of _smooth_norms and the difference into the gradient of the
    mean of nrm^p. At q = 2 and p = 1.5 one square root of the norms serves
    both nrm^p = nrm * sqrt(nrm) and the weight scale / sqrt(nrm).
    """
    if p == q_eff:
        _dyadic_power(nrm, p)
        return scale
    if q_eff == 2.0 and p == 1.5:
        root = np.sqrt(nrm)
        weight = np.divide(scale, root)
        np.multiply(nrm, root, out=nrm)
        return weight[..., None]
    weight = _dyadic_power(nrm, p - q_eff, np.empty_like(nrm))
    weight *= scale
    _dyadic_power(nrm, p)
    return weight[..., None]


@dataclass(frozen=True)
class _Block:
    """One cell's rows of a stack: its exponent p, side scales and exact evaluator."""

    p: float
    scales: tuple[float, float]  # of the lhs and the rhs
    report: Callable[[FunctionTable], RatioReport]


def _smooth_group(fields: np.ndarray, q_eff: float, blocks, sums: np.ndarray) -> np.ndarray:
    """Smoothed moments and gradients of a (K, L, positions, d) stack of K ops' fields.

    blocks lists (p, rows) per block with rows, in row order; rows is None
    where the block holds every row. Writes each (op, member)'s sum over
    positions of nrm^p into sums, shaped (K, L), and returns the fields'
    gradients, shaped like fields, each op's contiguous. The q-part runs
    once over all K fields; the p-part and the gradient run per block.
    Every member's sum is the contiguous row sum it gets alone.
    """
    nrm, sq = _smooth_norms(fields, q_eff, _SMOOTHING_EPS)
    count = nrm.shape[-1]
    weights = [
        _smooth_weight(nrm if rows is None else nrm[:, rows], p, q_eff, p / count)
        for p, rows in blocks
    ]
    # before the gradient, which may write over sq, of which nrm may be a view
    np.add.reduce(nrm, axis=-1, out=sums)
    # at q = 2 the gradient is weight * diff, else (weight * sq) * diff
    source = fields if q_eff == 2.0 else sq
    for (_, rows), weight in zip(blocks, weights):
        if rows is None:
            np.multiply(weight, source, out=sq)
        else:
            np.multiply(weight, source[:, rows], out=sq[:, rows])
    if q_eff != 2.0:
        np.multiply(sq, fields, out=sq)
    return sq


@dataclass(frozen=True)
class _Objective:
    """Log-ratio objective of a stack of cells that differ only in p.

    Such cells share (objective, n, m, k, q, d), so they declare the same
    sources and ops on both sides and take one q_eff; the sources, the ops
    and the q-part of each smoothed moment are applied once to every row.
    Block b holds the members whose ids run from starts[b] to the next
    start, one per restart of its cell, and its p-part uses its own p and
    scales on its own rows.
    """

    sides: tuple[Side, Side]
    geometry: TorusGeometry
    shape: tuple[int, ...]  # (m,)*n + (d,)
    q_eff: float
    blocks: tuple[_Block, ...]
    starts: tuple[int, ...]
    # _layout per tuple of member ids; a stack's objective runs on one thread
    layouts: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def _average(self, vals: np.ndarray, k: int) -> np.ndarray:
        return box_average_array(self.geometry, vals, range(self.geometry.n), k)

    def _layout(self, ids) -> tuple:
        """(blocks, scales) of rows whose member ids are ids, ascending, so each block's rows are
        contiguous: (p, rows) per block with rows, as _smooth_group takes them, and per side None
        where every block's scale is 1, else the scale of each row."""
        key = tuple(ids)
        layout = self.layouts.get(key)
        if layout is not None:
            return layout
        bounds = [0] + [bisect_left(key, start) for start in self.starts[1:]] + [len(key)]
        spans = [(b, lo, hi) for b, lo, hi in zip(self.blocks, bounds, bounds[1:]) if lo < hi]
        blocks = tuple((b.p, None if len(spans) == 1 else slice(lo, hi)) for b, lo, hi in spans)
        scales = tuple(
            None
            if all(b.scales[which] == 1.0 for b, _, _ in spans)
            else np.concatenate([np.full(hi - lo, b.scales[which]) for b, lo, hi in spans])
            for which in (0, 1)
        )
        layout = self.layouts[key] = (blocks, scales)
        return layout

    def _side_value_grad(self, which: int, vals: np.ndarray, blocks: tuple, scale):
        side = self.sides[which]
        nd = side.read(vals, self._average).reshape(vals.shape[:1] + self.shape)
        ops = side.ops
        # the summed smoothed moment of each (op, member), one op per row
        moments = np.empty((len(ops), len(vals)))
        grad = np.zeros(nd.shape)
        # a group of fields stays within _STACK_ENTRIES; a larger field is a group alone
        width = max(1, _STACK_ENTRIES // nd.size)
        for first in range(0, len(ops), width):
            group = ops[first : first + width]
            if len(group) == 1:
                fields = group[0].apply(nd)
                shape = fields.shape  # pisier's sign combinations hold 2^n fields per member
            else:
                shape = nd.shape
                fields = np.empty((len(group),) + shape)
                for op, out in zip(group, fields):
                    op.apply(nd, out=out)
            fields = fields.reshape((len(group), len(vals), -1, nd.shape[-1]))
            grads = _smooth_group(fields, self.q_eff, blocks, moments[first : first + len(group)])
            for op, g in zip(group, grads):
                grad += op.adjoint(g.reshape(shape))
        # every op of a side has fields of one shape, so one count of positions;
        # each op's mean joins the side in op order: the accumulation is
        # sequential, and its first term is the mean itself, as 0 plus a positive
        # mean is
        moments /= fields.shape[2]
        total = moments[0] if len(ops) == 1 else np.add.accumulate(moments)[-1]
        # the source read is self adjoint, so it pulls the gradient back
        grad = side.read(grad.reshape(vals.shape), self._average)
        if scale is not None:
            total *= scale
            grad *= scale[:, None, None]
        return total, grad

    def value_grad(self, vals: np.ndarray, ids):
        """Smoothed (lhs, d lhs, rhs, d rhs) at an (L, m^n, d) stack.

        ids lists the member id of each row, in ascending order, so each
        block's rows are contiguous. The sides hold one value per row, and
        each member's sides and gradients are bitwise those it gets alone.
        """
        blocks, scales = self._layout(ids)
        return self._side_value_grad(0, vals, blocks, scales[0]) + self._side_value_grad(
            1, vals, blocks, scales[1]
        )


def _stack_objective(
    name: str,
    geometry: TorusGeometry,
    d: int,
    k: int | None,
    norm,
    ps,
    members: int = 1,
) -> _Objective:
    """Objective of one stack at one norm: block b, of `members` rows, is the cell at p = ps[b]."""
    norm = as_norm(norm)
    blocks = []
    for p in ps:
        p = as_exponent(p)
        # the sources and ops depend on (name, n, m, k) only, so every cell declares the same
        sides = inequality_sides(name, geometry, k, p)
        report = partial(_EXACT[name], k=k, norm=norm, p=p)
        blocks.append(_Block(p, (sides[0].scale, sides[1].scale), report))
    starts = tuple(range(0, members * len(blocks), members))
    q_eff = min(float(norm.q), _SUP_SURROGATE_POWER)
    return _Objective(sides, geometry, geometry.shape + (d,), q_eff, tuple(blocks), starts)


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
    norm,
    ps,
    cells,
    *,
    restarts: int,
    iterations: int,
    seed: int,
) -> list[SearchOutcome]:
    """Best restart of each cell of one stack at one norm, cell b at exponent ps[b].

    Restart r of cell b draws its start from the stream (seed, cells[b], r);
    all restarts of all cells ascend as one stack, and each cell picks its
    best restart in restart order.
    """
    obj = _stack_objective(objective, geometry, d, k, norm, ps, restarts)
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
            if report.ratio is None:
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
    """Cell indices grouped by (objective, n, m, k, q, d), wherever the cells sit.

    Each cell joins the open stack of its key while that stack's restarts x
    m^n x d entries, summed over its cells, stay within _STACK_ENTRIES, and
    otherwise opens a new stack for its key; a cell larger than that is a
    stack alone. Stacks are listed in the order of their first cells.
    """
    stacks, open_stacks = [], {}
    for ci, (objective, n, m, k, _, q, d) in enumerate(cells):
        entries = restarts * m**n * d
        key = (objective, n, m, k, q, d)
        stack = open_stacks.get(key)
        if stack is not None and stack[1] + entries <= _STACK_ENTRIES:
            stack[0].append(ci)
            stack[1] += entries
        else:
            open_stacks[key] = [[ci], entries]
            stacks.append(open_stacks[key][0])
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
        objective, n, m, k, _, q, d = cells[members[0]]
        return _maximize_stack(
            objective, TorusGeometry(n, m), d, k, q, [cells[ci][4] for ci in members], members,
            restarts=restarts, iterations=iterations, seed=seed,
        )

    outcomes = [None] * len(cells)
    for members, outs in zip(stacks, map_cells(run, len(stacks), threads)):
        for ci, out in zip(members, outs):
            outcomes[ci] = out
    return outcomes


def scan_grid(
    n_values, m_values, p_values, q_values, d_values,
    *, restarts: int, iterations: int, seed: int, threads: int,
) -> list[SearchOutcome]:
    """Maximize the half-shift ratio on every (n, m, p, q, d) cell, nested in that order."""
    cells = [
        ("scaled_enflo", n, m, None, p, q, d)
        for n in n_values
        for m in m_values
        for p in p_values
        for q in q_values
        for d in d_values
    ]
    return maximize_cells(
        cells, restarts=restarts, iterations=iterations, seed=seed, threads=threads
    )
