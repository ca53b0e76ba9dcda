import dataclasses
import math
from bisect import bisect_right

import numpy as np
import pytest

from enflolab import search
from enflolab.inequalities import INEQUALITY_KINDS, DiffOp, scaled_enflo_ratio
from enflolab.search import (
    _MAX_BACKTRACKS,
    _SMOOTHING_EPS,
    _STACK_ENTRIES,
    _ascend,
    _maximize_stack,
    _smooth_group,
    _stack_objective,
    _stacks,
    maximize_cells,
    scan_grid,
)
from enflolab.torus import FunctionTable, NormSpec, TorusGeometry, as_exponent

TINY = dict(restarts=2, iterations=30, seed=0)

# step of gradient_check's fourth-order central differences
_FD_STEP = 1e-4


def gaussian(n, m, d, seed):
    g = TorusGeometry(n, m)
    return FunctionTable.random_gaussian(g, d, np.random.default_rng(seed))


def objective_cases(torus=None, cube=None):
    """One (objective, table, radius) case per search objective."""
    torus = gaussian(3, 8, 2, seed=0) if torus is None else torus
    cube = gaussian(3, 2, 2, seed=1) if cube is None else cube
    cases = [
        ("scaled_enflo", torus, None),
        ("smoothing", torus, 3),
        ("approximation", torus, 3),
        ("enflo", cube, None),
        ("pisier", cube, None),
    ]
    assert {name for name, _, _ in cases} == set(INEQUALITY_KINDS)
    return cases


def smooth_blocks(diff, q_eff, exponents, lead=()):
    """(values, gradient) of diff, members on its lead axes, through one op's _smooth_group.

    exponents lists one (p, rows) per block, its rows consecutive; they
    fill the lead axes, flattened. Each value is a member's mean smoothed
    moment, the group's sum over the count of positions, as
    _side_value_grad divides it.
    """
    rows = math.prod(lead)
    fields = diff.reshape((1, rows, -1, diff.shape[-1]))
    blocks, first = [], 0
    for p, members in exponents:
        blocks.append((p, None if len(exponents) == 1 else slice(first, first + members)))
        first += members
    assert first == rows
    sums = np.empty((1, rows))
    grads = _smooth_group(fields, q_eff, tuple(blocks), sums)
    assert grads.shape == fields.shape and grads.flags.c_contiguous
    return (sums[0] / fields.shape[2]).reshape(lead), grads.reshape(diff.shape)


def smooth_piece(diff, p, q_eff, lead=()):
    """(values, gradient) of diff as one block of members on its lead axes."""
    return smooth_blocks(diff, q_eff, [(p, math.prod(lead))], lead)


def test_q_two_smoothed_piece_is_bitwise_the_general_formula():
    def general(diff, p, eps):
        # torus._dyadic_power's formulas at q = 2, written out: nrm^(1/2) is
        # sqrt(nrm), nrm^1.5 is nrm * sqrt(nrm), nrm^2 is nrm * nrm and
        # nrm^-1 is 1 / nrm; at p = 1.5 one root also gives the weight
        sq = diff * diff + eps * eps
        nrm = np.sqrt(np.sum(sq, axis=-1))
        count = nrm.size
        root = np.sqrt(nrm)
        power = {1.0: nrm, 1.5: nrm * root, 2.0: nrm * nrm}[p]
        weight = {
            1.0: (1.0 / nrm) * (p / count),
            1.5: (p / count) / root,
            2.0: np.full_like(nrm, p / count),
        }[p]
        value = float(np.sum(power)) / count
        return value, weight[..., None] * diff

    rng = np.random.default_rng(0)
    eps = _SMOOTHING_EPS
    for p in (1.0, 1.5, 2.0):
        for d in (1, 3):
            for scale in (1.0, 1e3, eps, eps / 7, 0.0):
                diff = scale * rng.standard_normal((4, 27, d))
                value, grad = smooth_piece(diff, p, 2.0)
                want_value, want_grad = general(diff, p, eps)
                assert value == want_value
                assert grad.dtype == want_grad.dtype and grad.shape == want_grad.shape
                assert grad.tobytes() == want_grad.tobytes()


def _squared(x, i):
    """x^(2^i), by i squarings."""
    for _ in range(i):
        x = x * x
    return x


def _rooted(x, i):
    """x^(2^-i), by i square roots."""
    for _ in range(i):
        x = np.sqrt(x)
    return x


# x ** e for every exponent the oracle meets, as torus._dyadic_power raises it:
# squarings for the integer part, square roots for the fraction, their product
# (integer factors first, then the roots from sqrt(x) down) and for e < 0 one
# reciprocal; 2/3 and 1/3, the norm roots at q = 1.5 and 3, are not dyadic and
# keep np.power
_WRITTEN_OUT_POWERS = {
    1 / 16: lambda x: _rooted(x, 4),
    1 / 2: lambda x: _rooted(x, 1),
    3 / 4: lambda x: _rooted(x, 1) * _rooted(x, 2),
    1.0: lambda x: x,
    3 / 2: lambda x: x * _rooted(x, 1),
    2.0: lambda x: _squared(x, 1),
    7.0: lambda x: (x * _squared(x, 1)) * _squared(x, 2),
    8.0: lambda x: _squared(x, 3),
    2 / 3: lambda x: np.power(x, 2 / 3),
    1 / 3: lambda x: np.power(x, 1 / 3),
    -1 / 4: lambda x: 1.0 / _rooted(x, 2),
    -1 / 2: lambda x: 1.0 / _rooted(x, 1),
    -1.0: lambda x: 1.0 / x,
    -1.5: lambda x: 1.0 / (x * _rooted(x, 1)),
    -2.0: lambda x: 1.0 / _squared(x, 1),
    -14.0: lambda x: 1.0 / ((_squared(x, 1) * _squared(x, 2)) * _squared(x, 3)),
    -14.5: lambda x: 1.0 / (((_squared(x, 1) * _squared(x, 2)) * _squared(x, 3)) * _rooted(x, 1)),
    -15.0: lambda x: 1.0 / (((x * _squared(x, 1)) * _squared(x, 2)) * _squared(x, 3)),
}


def smooth_piece_oracle(diff, p, q_eff, eps, lead=()):
    """The smoothed piece with one fresh array per operation and the powers written out."""
    power = _WRITTEN_OUT_POWERS
    sq = diff * diff + eps * eps
    if q_eff == 2.0:
        nrm = np.sqrt(sq.sum(axis=-1))
    else:
        nrm = power[1.0 / q_eff](np.sum(power[q_eff / 2.0](sq), axis=-1))
    count = math.prod(nrm.shape[len(lead) :])
    if p == q_eff:
        weight = np.full_like(nrm, p / count)
    elif q_eff == 2.0 and p == 1.5:
        weight = (p / count) / np.sqrt(nrm)
    else:
        weight = power[p - q_eff](nrm) * (p / count)
    value = power[p](nrm).reshape(lead + (-1,)).sum(axis=-1) / count
    if q_eff == 2.0:
        return value, weight[..., None] * diff
    return value, weight[..., None] * power[(q_eff - 2.0) / 2.0](sq) * diff


def test_smoothed_piece_is_bitwise_the_oracle_in_fewer_arrays():
    rng = np.random.default_rng(1)
    eps = _SMOOTHING_EPS
    for q_eff in (1.0, 1.5, 2.0, 16.0):
        for p in (1.0, 1.5, 2.0):
            for d in (1, 3):
                stack = rng.standard_normal((5, 6, 6, d))
                stack[2] *= eps  # a member at the smoothing scale
                stack.flags.writeable = False
                cases = ((stack[0], ()), (stack, (5,)), (stack[1:4], (3,)))
                for diff, lead in cases:
                    want_value, want_grad = smooth_piece_oracle(diff, p, q_eff, eps, lead)
                    value, grad = smooth_piece(diff, p, q_eff, lead)
                    assert np.asarray(value).tobytes() == np.asarray(want_value).tobytes()
                    assert grad.shape == want_grad.shape
                    assert grad.tobytes() == want_grad.tobytes(), (q_eff, p, d, lead)
                    assert grad.flags.writeable
                    assert not np.shares_memory(grad, diff)
                    # a block of a stack gradient is written into its own rows only: the
                    # block's rows are 3, between NaN members at other p of the same q
                    joint = np.full((7,) + diff.shape, np.nan)
                    joint[3] = diff
                    other, rows = (1.0 if p != 1.0 else 2.0), math.prod(lead)
                    exponents = [(other, 2 * rows), (3.0 - p, rows), (p, rows), (other, 3 * rows)]
                    value, grad = smooth_blocks(joint, q_eff, exponents, joint.shape[:1] + lead)
                    assert grad[3].tobytes() == want_grad.tobytes()
                    assert np.asarray(value[3]).tobytes() == np.asarray(want_value).tobytes()
                    assert np.isnan(grad[:3]).all() and np.isnan(grad[4:]).all()


def test_q_one_piece_is_bitwise_two_square_roots_of_the_squares():
    # at q = 1 the piece takes the gradient's sq^(-1/2) as one over the roots
    # sq^(1/2) the norms sum; here it is a second square root of the squares,
    # as the piece once took it. At d = 1 the norms are a view of those roots.
    def two_roots(diff, p, eps, lead):
        sq = diff * diff + eps * eps
        nrm = np.sum(np.sqrt(sq), axis=-1)
        count = math.prod(nrm.shape[len(lead) :])
        power = {1.0: nrm, 1.5: nrm * np.sqrt(nrm), 2.0: nrm * nrm}[p]
        scale = p / count
        weight = {1.0: np.full_like(nrm, scale), 1.5: np.sqrt(nrm) * scale, 2.0: nrm * scale}[p]
        value = power.reshape(lead + (-1,)).sum(axis=-1) / count
        return value, weight[..., None] * (1.0 / np.sqrt(sq)) * diff

    rng = np.random.default_rng(3)
    for p in (1.0, 1.5, 2.0):
        for d in (1, 3):
            for lead in ((), (3,)):
                diff = rng.standard_normal(lead + (6, 6, d))
                value, grad = smooth_piece(diff, p, 1.0, lead)
                want_value, want_grad = two_roots(diff, p, _SMOOTHING_EPS, lead)
                assert np.asarray(value).tobytes() == np.asarray(want_value).tobytes()
                assert grad.tobytes() == want_grad.tobytes(), (p, d, lead)


def smooth_piece_pow(diff, p, q_eff, eps, lead=()):
    """The smoothed piece as first written, every power through np.power."""
    sq = diff * diff + eps * eps
    nrm = np.sum(np.power(sq, q_eff / 2.0), axis=-1) ** (1.0 / q_eff)
    count = math.prod(nrm.shape[len(lead) :])
    value = np.power(nrm, p).reshape(lead + (-1,)).sum(axis=-1) / count
    weight = (p / count) * np.power(nrm, p - q_eff)
    return value, weight[..., None] * np.power(sq, (q_eff - 2.0) / 2.0) * diff


def test_smoothed_piece_is_the_pow_formula_within_32_ulp():
    # every term is a product or a sum of positive terms, and each dyadic
    # power is at most 8 ulp from np.power (tests/test_torus.py); the largest
    # relative gap measured here was 19 eps, on a 2-core Xeon with numpy's
    # dispatched features on and off
    rtol = 32 * np.finfo(np.float64).eps
    rng = np.random.default_rng(2)
    eps = _SMOOTHING_EPS
    for q_eff in (1.0, 1.5, 2.0, 3.0, 16.0):
        for p in (1.0, 1.5, 2.0):
            for d in (1, 3):
                stack = rng.standard_normal((5, 6, 6, d))
                stack[2] *= eps
                value, grad = smooth_piece(stack, p, q_eff, (5,))
                want_value, want_grad = smooth_piece_pow(stack, p, q_eff, eps, (5,))
                np.testing.assert_allclose(value, want_value, rtol=rtol, atol=0.0)
                np.testing.assert_allclose(grad, want_grad, rtol=rtol, atol=0.0)


def value_grad_oracle(obj, vals, ids):
    """obj.value_grad one (op, block) at a time: each op's apply and adjoint on the
    block's rows alone, smooth_piece_oracle, and the moments summed in op order."""
    held = [bisect_right(obj.starts, i) - 1 for i in ids]  # each row's block
    out = []
    for which, side in enumerate(obj.sides):
        total, grad = np.zeros(len(ids)), np.zeros(vals.shape)
        for b, block in enumerate(obj.blocks):
            rows = [r for r, h in enumerate(held) if h == b]
            if not rows:
                continue
            rows = slice(rows[0], rows[-1] + 1)
            nd = side.read(vals[rows], obj._average).reshape((-1,) + obj.shape)
            pulled = np.zeros(nd.shape)
            for op in side.ops:
                diff = op.apply(nd)
                value, g = smooth_piece_oracle(diff, block.p, obj.q_eff, _SMOOTHING_EPS, (len(nd),))
                total[rows] += value
                pulled += op.adjoint(g)
            total[rows] *= block.scales[which]
            grad[rows] = side.read(pulled.reshape(vals[rows].shape), obj._average)
            grad[rows] *= block.scales[which]
        out += [total, grad]
    return tuple(out)


def test_value_grad_is_bitwise_each_op_and_block_alone(monkeypatch):
    # each stack takes one q in {1, 1.5, 2, 3, inf}, and its blocks take p in
    # {1, 1.5, 2}, in runs of one and of two blocks; some members have stopped
    ps = (1.0, 1.5, 2.0, 2.0, 1.5, 1.0, 1.0, 2.0)
    some = [i for i in range(16) if i % 5 != 3]
    rng = np.random.default_rng(16)
    # n = 2 takes each side as one group: 13 rows of 8^2 x 3 entries give a
    # field of 2496, two ops 4992. At n = 3 eight rows at d = 1 hold 4096
    # entries per field, so the ops go two to a group, and at d = 3 one; the
    # cube's sides split under a cap of 2^8
    stacks = [(2, 8, some), (3, 8, some[::2][:8])]
    for cap in (_STACK_ENTRIES, 2**8):
        monkeypatch.setattr(search, "_STACK_ENTRIES", cap)
        for name, _, k in objective_cases():
            torus = INEQUALITY_KINDS[name].torus
            for n, m, ids in stacks if torus else [(3, 2, some)]:
                for q in (1.0, 1.5, 2.0, 3.0, math.inf):
                    for d in (1, 3):
                        g = TorusGeometry(n, m)
                        obj = _stack_objective(name, g, d, k, NormSpec(q), ps, members=2)
                        vals = rng.standard_normal((len(ids), g.size, d))
                        vals[1] *= _SMOOTHING_EPS  # a member at the smoothing scale
                        got = obj.value_grad(vals, ids)
                        want = value_grad_oracle(obj, vals, ids)
                        for a, b in zip(got, want):
                            assert a.shape == b.shape, (name, n, m, q, d, cap)
                            assert a.tobytes() == b.tobytes(), (name, n, m, q, d, cap)


def test_op_groups_stack_as_many_fields_as_the_cap_holds():
    # each call of an op's apply is recorded as the size of the stacked
    # array its out belongs to, or None where the op writes a fresh field
    calls = []

    def recording(op):
        def apply(nd, out=None):
            calls.append(None if out is None else out.base.size)
            return op.apply(nd) if out is None else op.apply(nd, out=out)

        return DiffOp(apply, op.adjoint)

    # (n, m, rows): the scaled Enflo rhs is n unit steps of rows x m^n entries each
    cases = {
        (2, 8, 13): [1664, 1664],  # 832 a field: both in one group
        (3, 8, 8): [8192, 8192, None],  # 4096: two to a group, the third alone
        (3, 8, 9): [None, None, None],  # 4608: each a group alone
        (3, 16, 2): [None, None, None],  # 8192: each a group alone
    }
    for (n, m, rows), want in cases.items():
        obj = _stack_objective("scaled_enflo", TorusGeometry(n, m), 1, None, 2.0, [2.0], rows)
        lhs, rhs = obj.sides
        obj = dataclasses.replace(obj, sides=(lhs, rhs._replace(ops=tuple(map(recording, rhs.ops)))))
        vals = np.random.default_rng(17).standard_normal((rows, m**n, 1))
        calls.clear()
        obj.value_grad(vals, range(rows))
        assert calls == want, (n, m, rows)
        assert all(size is None or size <= _STACK_ENTRIES for size in calls)


def lone(obj, vals):
    """obj.value_grad at one (m^n, d) table, the stack of one member, id 0."""
    return tuple(side[0] for side in obj.value_grad(vals[None], [0]))


def min_diff(obj, vals):
    """Smallest Euclidean length among all difference vectors of both sides."""
    worst = math.inf
    for side in obj.sides:
        nd = side.read(vals, obj._average).reshape(obj.shape)
        for op in side.ops:
            diff = op.apply(nd)
            mags = np.sqrt(np.sum(diff * diff, axis=-1))
            worst = min(worst, float(mags.min()))
    return worst


def gradient_check(objective, f, norm, p, k=None):
    """Worst error of the analytic gradient against central differences, relative to its scale.

    Checks the smoothed log-ratio objective, at _SMOOTHING_EPS, at the
    given table over 20 coordinates, by fourth-order central differences
    with step _FD_STEP, whose truncation error is O(_FD_STEP^4). Each
    coordinate's error is scored against the sup norm of the sampled
    numeric and analytic entries, so an entry far below the gradient's
    scale is held to the accuracy the difference quotient has there. Refuses
    p = 1 and tables whose smallest difference vector
    sits at the smoothing scale; both would compare derivatives across a
    near kink, where finite differences say nothing.
    """
    p = as_exponent(p)
    if not p > 1:
        raise ValueError("gradient checks need p above 1")
    obj = _stack_objective(objective, f.geometry, f.d, k, norm, [p])
    vals = f.values
    if min_diff(obj, vals) < 10.0 * _SMOOTHING_EPS:
        raise ValueError("table has differences at the smoothing scale")
    lhs, glhs, rhs, grhs = lone(obj, vals)
    grad = (glhs / lhs - grhs / rhs).reshape(-1)
    flat = vals.reshape(-1)
    rng = np.random.default_rng(0)
    picks = rng.choice(flat.size, size=min(20, flat.size), replace=False)

    def log_ratio(j, step):
        moved = flat.copy()
        moved[j] += step
        lhs, _, rhs, _ = lone(obj, moved.reshape(vals.shape))
        return math.log(lhs) - math.log(rhs)

    numeric = []
    for j in picks:
        near = log_ratio(j, _FD_STEP) - log_ratio(j, -_FD_STEP)
        far = log_ratio(j, 2 * _FD_STEP) - log_ratio(j, -2 * _FD_STEP)
        numeric.append((8 * near - far) / (12 * _FD_STEP))
    numeric, analytic = np.array(numeric), grad[picks]
    scale = max(np.abs(numeric).max(), np.abs(analytic).max())
    return float(np.abs(numeric - analytic).max() / scale)


def test_gradients_match_finite_differences_everywhere():
    for name, table, k in objective_cases():
        err = gradient_check(name, table, 2.0, 2.0, k=k)
        assert err < 1e-6, (name, err)


def test_smoothed_sides_match_the_exact_evaluator(monkeypatch):
    monkeypatch.setattr(search, "_SMOOTHING_EPS", 1e-12)
    for name, table, k in objective_cases():
        for q in (1.0, 1.5, 2.0):
            for p in (1.0, 1.5, 2.0):
                obj = _stack_objective(name, table.geometry, table.d, k, NormSpec(q), [p])
                lhs, _, rhs, _ = lone(obj, table.values)
                exact = obj.blocks[0].report(table)
                assert abs(lhs - exact.lhs) <= 1e-12 * exact.lhs, (name, q, p)
                assert abs(rhs - exact.rhs) <= 1e-12 * exact.rhs, (name, q, p)


def test_gradient_check_covers_other_exponents():
    # p = 1.5 raises nrm^p and the weight from one square root at q = 2, and
    # at q = 1 and q = inf (the power 16) takes other dyadic powers
    for name, table, k in objective_cases():
        for q in (1.0, 2.0, math.inf):
            err = gradient_check(name, table, q, 1.5, k=k)
            assert err < 1e-6, (name, q, err)
    assert gradient_check("scaled_enflo", gaussian(2, 8, 2, seed=2), 1.0, 2.0) < 1e-6


def test_gradient_check_fails_a_mutant_adjoint(monkeypatch):
    # the lhs's first op with its adjoint scaled by 1 + 1e-4: every objective's
    # gradient is then wrong far past the check's 1e-6
    declared = search.inequality_sides

    def mutant(name, geometry, k, p):
        lhs, rhs = declared(name, geometry, k, p)
        op = lhs.ops[0]
        scaled = DiffOp(op.apply, lambda w: op.adjoint(w) * (1.0 + 1e-4))
        return lhs._replace(ops=(scaled,) + lhs.ops[1:]), rhs

    monkeypatch.setattr(search, "inequality_sides", mutant)
    for name, table, k in objective_cases():
        for q in (1.0, 2.0, math.inf):
            assert gradient_check(name, table, q, 1.5, k=k) > 1e-6, (name, q)


def test_gradient_check_guards():
    f = gaussian(2, 8, 1, seed=3)
    with pytest.raises(ValueError):
        gradient_check("scaled_enflo", f, 2.0, 1.0)
    flat = FunctionTable(f.geometry, np.ones((f.geometry.size, 1)))
    with pytest.raises(ValueError):
        gradient_check("scaled_enflo", flat, 2.0, 2.0)
    with pytest.raises(ValueError):
        gradient_check("scaled_enflo", f, 2.0, 2.0, k=3)  # takes no radius


def test_reported_ratio_is_a_fresh_exact_evaluation():
    out = maximize_cells([("scaled_enflo", 2, 8, None, 2.0, 2.0, 1)], **TINY)[0]
    again = scaled_enflo_ratio(out.table, NormSpec(2.0), 2.0)
    assert abs(out.report.ratio - again.ratio) < 1e-12
    assert out.report.lhs == again.lhs
    assert out.report.rhs == again.rhs


def lone_ascent(values, value_grad, step, iterations, member=0):
    """The ascent of one (m^n, d) table on its own, one restart at a time.

    value_grad sees the table as the one row of a stack, whose member id is member.
    """

    def value_grad_alone(vals):
        lhs, glhs, rhs, grhs = value_grad(vals[None], [member])
        return lhs[0], glhs[0], rhs[0], grhs[0]

    vals = values - values.mean(axis=0)
    lhs, glhs, rhs, grhs = value_grad_alone(vals)
    best = math.log(lhs) - math.log(rhs)
    trace = [best]
    accepted = 0
    for _ in range(iterations):
        direction = glhs / lhs - grhs / rhs
        direction = direction - direction.mean(axis=0)
        stepsize = step
        moved = False
        for _ in range(_MAX_BACKTRACKS):
            cand = vals + stepsize * direction
            cand = cand - cand.mean(axis=0)
            clhs, cglhs, crhs, cgrhs = value_grad_alone(cand)
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


def pinned_at_start(value_grad, pinned):
    """value_grad whose first evaluation inflates lhs where pinned[member id] holds.

    A pinned member starts at an objective no step can beat, so it stops
    after _MAX_BACKTRACKS failed halvings with no accepted step.
    """
    calls = []

    def wrapped(vals, ids):
        lhs, glhs, rhs, grhs = value_grad(vals, ids)
        if not calls:
            lhs = np.where(pinned[list(ids)], lhs * 1e12, lhs)
        calls.append(1)
        return lhs, glhs, rhs, grhs

    return wrapped


def test_lockstep_ascent_is_bitwise_each_lone_ascent():
    torus, cube = gaussian(2, 8, 2, seed=10), gaussian(3, 2, 2, seed=11)
    rng = np.random.default_rng(12)
    for name, f, k in objective_cases(torus, cube):
        for p, q in ((2.0, 2.0), (1.5, math.inf)):
            obj = _stack_objective(name, f.geometry, f.d, k, NormSpec(q), [p])
            stack = rng.standard_normal((4,) + f.values.shape)
            # member 1 is pinned, so members 0, 2 and 3 ascend around it
            pinned = np.array([False, True, False, False])
            vals, traces, accepted = _ascend(
                stack, pinned_at_start(obj.value_grad, pinned), 0.5, 6
            )
            assert vals.shape == stack.shape
            for r in range(4):
                value_grad = pinned_at_start(obj.value_grad, pinned)
                want = lone_ascent(stack[r], value_grad, 0.5, 6, member=r)
                assert vals[r].tobytes() == want[0].tobytes(), (name, p, q, r)
                assert traces[r] == want[1], (name, p, q, r)
                assert accepted[r] == want[2], (name, p, q, r)
            assert accepted[1] == 0 and len(traces[1]) == 2
            assert min(accepted[0], accepted[2], accepted[3]) > 0


def test_lockstep_members_stop_at_their_own_iteration():
    # long enough that restarts stall at different rounds, and one uses up
    # the iteration budget; a large step makes every member backtrack often
    # between accepted steps. Each still matches its lone ascent.
    g = TorusGeometry(1, 4)
    obj = _stack_objective("scaled_enflo", g, 1, None, NormSpec(2.0), [2.0])
    stack = np.random.default_rng(13).standard_normal((4, g.size, 1))
    vals, traces, accepted = _ascend(stack, obj.value_grad, 64.0, 200)
    assert len({len(trace) for trace in traces}) == 4
    assert max(accepted) == 200
    for r in range(4):
        want = lone_ascent(stack[r], obj.value_grad, 64.0, 200, member=r)
        assert vals[r].tobytes() == want[0].tobytes()
        assert traces[r] == want[1] and accepted[r] == want[2]


def test_stacked_blocks_ascend_bitwise_as_their_cells_alone():
    # three cells of one operator set and one q, two members each; member 3 is pinned
    f = gaussian(2, 8, 2, seed=14)
    ps = (1.0, 1.5, 2.0)
    pinned = np.array([False, False, False, True, False, False])
    for q in (1.0, 2.0, math.inf):
        obj = _stack_objective("smoothing", f.geometry, f.d, 3, NormSpec(q), ps, members=2)
        assert obj.starts == (0, 2, 4)
        stack = np.random.default_rng(15).standard_normal((6,) + f.values.shape)
        vals, traces, accepted = _ascend(stack, pinned_at_start(obj.value_grad, pinned), 0.5, 6)
        for r in range(6):
            alone = _stack_objective("smoothing", f.geometry, f.d, 3, NormSpec(q), [ps[r // 2]])
            value_grad = pinned_at_start(alone.value_grad, pinned[r : r + 1])
            want = lone_ascent(stack[r], value_grad, 0.5, 6)
            assert vals[r].tobytes() == want[0].tobytes(), (q, r)
            assert traces[r] == want[1] and accepted[r] == want[2], (q, r)
        assert accepted[3] == 0 and min(accepted[:3] + accepted[4:]) > 0, q


def test_stacks_are_capped_runs_of_one_operator_set():
    def cell(objective="smoothing", n=2, m=8, k=3, p=2.0, q=2.0, d=1):
        return (objective, n, m, k, p, q, d)

    # 2 restarts x 64 entries per cell; the cells at q = 1 and at d = 2 sit
    # between those they stack with
    cells = [cell(p=1.5), cell(q=1.0), cell(d=2), cell(), cell(d=2, p=1.5), cell(k=1), cell(q=1.0)]
    assert _stacks(cells, 2) == [[0, 3], [1, 6], [2, 4], [5]]
    other = [cell(objective="approximation"), cell(n=1), cell(m=12), cell(q=math.inf), cell()]
    assert _stacks(other, 2) == [[0], [1], [2], [3], [4]]
    # at 64 restarts a cell holds 4096 entries, half the cap, so a stack holds two such cells
    full = _STACK_ENTRIES // 2 // 64
    assert _stacks([cell()] * 5, full) == [[0, 1], [2, 3], [4]]
    assert _stacks([cell()] * 3, full + 1) == [[0], [1], [2]]
    assert _stacks([cell(n=3, m=16, d=3)] * 2, 1) == [[0], [1]]


def test_search_at_a_huge_finite_q_accepts_its_steps():
    # sq^(q/2) overflows at q = 400, so the smoothed objective takes the sup
    # surrogate's power there; the ascent must still move from its start
    cells = [("scaled_enflo", 2, 8, None, 2.0, 400.0, 2)]
    outcome = maximize_cells(cells, restarts=1, iterations=5, seed=0)[0]
    assert outcome.accepted_steps == 5
    assert all(math.isfinite(value) for value in outcome.trace)


def test_trace_is_nondecreasing():
    cells = [("scaled_enflo", 2, 8, None, 2.0, 2.0, 1)]
    out = maximize_cells(cells, restarts=2, iterations=40, seed=5)[0]
    diffs = np.diff(np.array(out.trace))
    assert np.all(diffs >= -1e-15)
    assert out.accepted_steps >= 1


def test_smoothed_objective_ignores_added_constants():
    g = TorusGeometry(2, 8)
    obj = _stack_objective("scaled_enflo", g, 2, None, NormSpec(2.0), [2.0])
    f = gaussian(2, 8, 2, seed=7)
    lifted = f.values + np.array([3.0, -11.0])
    a = lone(obj, f.values)
    b = lone(obj, lifted)
    assert abs(a[0] - b[0]) < 1e-12 * max(1.0, abs(a[0]))
    assert abs(a[2] - b[2]) < 1e-12 * max(1.0, abs(a[2]))


def test_gradients_vanish_along_constant_shifts():
    torus, cube = gaussian(2, 8, 2, seed=8), gaussian(3, 2, 2, seed=9)
    for name, f, k in objective_cases(torus, cube):
        obj = _stack_objective(name, f.geometry, f.d, k, NormSpec(2.0), [2.0])
        _, glhs, _, grhs = lone(obj, f.values)
        assert np.abs(glhs.mean(axis=0)).max() < 1e-10
        assert np.abs(grhs.mean(axis=0)).max() < 1e-10


def test_more_restarts_never_hurt():
    cells = [("scaled_enflo", 2, 8, None, 2.0, 2.0, 1)]
    few = maximize_cells(cells, restarts=2, iterations=30, seed=9)[0].report
    many = maximize_cells(cells, restarts=4, iterations=30, seed=9)[0].report
    assert many.ratio >= few.ratio


def assert_same_outcome(a, b):
    # FunctionTable compares by identity, so compare the table values
    assert np.array_equal(a.table.values, b.table.values)
    assert a.report == b.report
    assert a.trace == b.trace and a.accepted_steps == b.accepted_steps


def test_search_is_reproducible():
    cells = [("scaled_enflo", 2, 8, None, 2.0, 2.0, 1)]
    a = maximize_cells(cells, **TINY)[0]
    b = maximize_cells(cells, **TINY)[0]
    assert_same_outcome(a, b)


def test_maximize_cells_is_each_cell_ascended_alone_on_its_stream():
    cells = [
        ("smoothing", 2, 8, 3, 2.0, 2.0, 2),
        ("smoothing", 2, 8, 3, 1.5, math.inf, 2),
        ("enflo", 2, 2, None, 2.0, 2.0, 1),
    ]
    for seed in (4, 9):
        knobs = dict(restarts=2, iterations=20, seed=seed)
        outcomes = maximize_cells(cells, **knobs, threads=2)
        assert len(outcomes) == len(cells)
        for i, (cell, out) in enumerate(zip(cells, outcomes)):
            objective, n, m, k, p, q, d = cell
            alone = _maximize_stack(objective, TorusGeometry(n, m), d, k, q, [p], [i], **knobs)[0]
            assert_same_outcome(out, alone)
            report = out.report
            assert (report.evaluator, report.n, report.m, report.k, report.d) == (
                objective, n, m, k, d
            )
            assert (report.p, report.q) == (p, q)


def test_stacked_cells_are_each_their_one_cell_stack():
    cells = [
        ("smoothing", 2, 8, 3, p, q, 2) for p in (1.0, 1.5, 2.0) for q in (1.0, 2.0, math.inf)
    ]
    cells += [("pisier", 3, 2, None, p, 2.0, 1) for p in (1.5, 2.0)]
    # 2 restarts x 16^3 x 2 entries are past the cap, so each of these is a stack alone
    cells += [("scaled_enflo", 3, 16, None, p, 2.0, 2) for p in (1.5, 2.0)]
    knobs = dict(restarts=2, iterations=8, seed=6)
    # each q's cells sit three apart
    assert _stacks(cells, 2) == [[0, 3, 6], [1, 4, 7], [2, 5, 8], [9, 10], [11], [12]]
    alone = [
        _maximize_stack(objective, TorusGeometry(n, m), d, k, q, [p], [i], **knobs)[0]
        for i, (objective, n, m, k, p, q, d) in enumerate(cells)
    ]
    for threads in (1, 2):
        outcomes = maximize_cells(cells, **knobs, threads=threads)
        assert len(outcomes) == len(cells)
        for cell, out, want in zip(cells, outcomes, alone):
            assert out.table.values.tobytes() == want.table.values.tobytes(), (cell, threads)
            assert out.report == want.report, (cell, threads)
            assert out.trace == want.trace and out.accepted_steps == want.accepted_steps
            assert (out.report.evaluator, out.report.p, out.report.q) == (cell[0], cell[4], cell[5])


def test_cells_in_search_order_stack_by_key_wherever_they_sit():
    # the CLI's row order, d fastest: cell 6 p + 2 q + d, so each
    # (q, d) key's cells sit six apart
    ps, qs, ds = (1.0, 1.5, 2.0), (1.0, 2.0, math.inf), (1, 3)
    cells = [("smoothing", 2, 8, 3, p, q, d) for p in ps for q in qs for d in ds]
    # 16 restarts x 8^2 x d entries: a d = 1 cell holds 1024, so its key's three
    # cells share a stack; a d = 3 cell holds 3072, so its key's stack fills at
    # two cells and its third cell opens a new one while the d = 1 stacks,
    # opened before, stay open for theirs
    restarts = 16
    assert 3 * restarts * 64 <= _STACK_ENTRIES < 3 * restarts * 192 <= 2 * _STACK_ENTRIES
    stacks = _stacks(cells, restarts)
    assert stacks == [
        [0, 6, 12], [1, 7], [2, 8, 14], [3, 9], [4, 10, 16], [5, 11], [13], [15], [17]
    ]
    for stack in stacks:
        assert len({cells[ci][:4] + cells[ci][5:] for ci in stack}) == 1
    knobs = dict(restarts=restarts, iterations=3, seed=2)
    alone = [
        _maximize_stack(objective, TorusGeometry(n, m), d, k, q, [p], [i], **knobs)[0]
        for i, (objective, n, m, k, p, q, d) in enumerate(cells)
    ]
    for threads in (1, 2):
        outcomes = maximize_cells(cells, **knobs, threads=threads)
        assert len(outcomes) == len(cells)
        for cell, out, want in zip(cells, outcomes, alone):
            assert (out.report.p, out.report.q, out.report.d) == cell[4:]
            assert_same_outcome(out, want)
            assert out.table.values.tobytes() == want.table.values.tobytes(), (cell, threads)


def test_maximize_validation():
    def cell(objective, n=2, m=8, k=None):
        return [(objective, n, m, k, 2.0, 2.0, 1)]

    with pytest.raises(ValueError):
        maximize_cells(cell("unknown"), **TINY)
    with pytest.raises(ValueError):
        maximize_cells(cell("smoothing"), **TINY)  # k missing
    with pytest.raises(ValueError):
        maximize_cells(cell("scaled_enflo", k=3), **TINY)
    with pytest.raises(ValueError):
        maximize_cells(cell("enflo"), **TINY)  # not a hypercube
    with pytest.raises(ValueError):
        maximize_cells(cell("pisier", n=1, m=2), **TINY)
    # radius 1 makes every approximation table 0/0, so the cell is refused before any draw
    with pytest.raises(ValueError, match="zero right-hand side"):
        maximize_cells(cell("approximation", k=1), **TINY)


def test_scan_single_cell_hits_the_known_extremal():
    outcomes = scan_grid([1], [4], [2.0], [2.0], [1], restarts=3, iterations=60, seed=0, threads=1)
    report = outcomes[0].report
    assert report.evaluator == "scaled_enflo"
    assert report.ratio**0.5 >= 0.25
    assert report.ratio == report.lhs / report.rhs


def test_scan_grid_is_thread_deterministic_and_nondegenerate():
    grid = ([1, 2, 3], [4, 8, 12], [2.0], [2.0], [1])
    knobs = dict(restarts=2, iterations=20, seed=3)
    serial = scan_grid(*grid, **knobs, threads=1)
    threaded = scan_grid(*grid, **knobs, threads=3)
    assert len(serial) == len(threaded) == 9
    for a, b in zip(serial, threaded):
        assert_same_outcome(a, b)
    assert [(out.report.n, out.report.m) for out in serial] == [
        (n, m) for n in (1, 2, 3) for m in (4, 8, 12)
    ]
    for out in serial:
        assert out.report.ratio > 0.0


def test_map_cells_runs_no_more_threads_than_usable_cpus(monkeypatch):
    # a fake pool records its size and runs the cells on this thread, so no thread starts
    sizes = []

    class FakePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, runner, cells):
            return map(runner, cells)

    monkeypatch.setattr(search, "ThreadPoolExecutor", FakePool)
    # the second pass has one usable CPU, so it runs the cells in order without a pool
    for cpus, pools in ((3, [3]), (1, [3])):
        usable = set(range(cpus))
        monkeypatch.setattr(search.os, "sched_getaffinity", lambda _: usable, raising=False)
        monkeypatch.setattr(search.os, "cpu_count", lambda: cpus)
        assert search.map_cells(lambda ci: ci * ci, 5, 10**6) == [0, 1, 4, 9, 16]
        assert sizes == pools
    # no more threads than cells either: two cells take a pool of two, one runs inline
    monkeypatch.setattr(search.os, "sched_getaffinity", lambda _: {0, 1, 2}, raising=False)
    assert search.map_cells(lambda ci: ci + 1, 2, 10**6) == [1, 2]
    assert search.map_cells(lambda ci: ci + 1, 1, 10**6) == [1]
    assert sizes == [3, 2]
