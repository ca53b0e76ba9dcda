import gc
import importlib.util
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from enflolab import inequalities
from enflolab.averaging import box_average_array, build_even_box, convolve
from enflolab.inequalities import (
    PROVEN_BOUND_RTOL,
    Box,
    ProvenBoundViolation,
    Side,
    _build_report,
    approximation_ratio,
    diagonal_differences,
    edge_energy,
    enflo_ratio,
    half_shift,
    identity_op,
    mean_deviation,
    pisier_ratio,
    rademacher_ratio,
    scaled_enflo_ratio,
    scheme_composite_check,
    shift_difference,
    sign_combinations,
    smoothing_ratio,
    unit_steps,
)
from enflolab.search import maximize_cells
from enflolab.torus import FunctionTable, NormSpec, TorusGeometry, sign_vectors


def gaussian(n, m, d, seed):
    g = TorusGeometry(n, m)
    return FunctionTable.random_gaussian(g, d, np.random.default_rng(seed))


finite = st.floats(-5, 5, allow_nan=False, allow_infinity=False, width=32)


@given(hnp.arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 3)), elements=finite))
def test_rademacher_is_an_identity_at_p_two(vectors):
    report = rademacher_ratio(vectors, 2.0, 2.0)
    if report.degenerate:
        assert np.allclose(vectors, 0.0)
        return
    assert abs(report.ratio - 1.0) < 1e-12


def test_rademacher_single_vector_any_exponent():
    for p in (1.0, 1.5, 2.0):
        for q in (1.0, 2.0, math.inf):
            report = rademacher_ratio([[3.0, -4.0]], q, p)
            assert abs(report.ratio - 1.0) < 1e-12


def test_rademacher_rejects_bad_input():
    with pytest.raises(ValueError):
        rademacher_ratio(np.zeros((0, 2)), 2.0, 2.0)
    with pytest.raises(ValueError):
        rademacher_ratio([[np.nan, 1.0]], 2.0, 2.0)


def test_enflo_on_linear_tables_matches_rademacher():
    rng = np.random.default_rng(3)
    coeffs = rng.normal(size=(4, 2))
    f = FunctionTable(TorusGeometry(4, 2), sign_vectors(4) @ coeffs)
    for p in (1.0, 1.5, 2.0):
        for q in (1.0, 2.0, math.inf):
            a = enflo_ratio(f, q, p)
            b = rademacher_ratio(coeffs, q, p)
            assert abs(a.ratio - b.ratio) < 1e-12


def test_enflo_requires_hypercube():
    with pytest.raises(ValueError):
        enflo_ratio(gaussian(2, 4, 1, 0), 2.0, 2.0)


def test_edge_energy_matches_pointwise_definition():
    f = gaussian(2, 4, 2, seed=7)
    g = f.geometry
    total = 0.0
    for axis in range(2):
        step = np.zeros(2, dtype=np.int64)
        step[axis] = 1
        for idx in range(g.size):
            x = g.points()[idx]
            diff = f.values[g.encode((x + step) % g.m)] - f.values[idx]
            total += float(np.sum(diff * diff)) / g.size
    assert abs(edge_energy(f, 2.0, 2.0) - total) < 1e-12


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@given(st.data())
def test_diff_ops_read_the_right_points_and_transpose(data):
    n = data.draw(st.integers(1, 3))
    m = data.draw(st.sampled_from([2, 4, 6, 8, 12]))
    d = data.draw(st.integers(1, 9))
    g = TorusGeometry(n, m)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    table = rng.standard_normal(g.shape + (d,))
    vector = st.lists(st.integers(-2 * m, 2 * m), min_size=n, max_size=n)
    plus = data.draw(vector)
    minus = data.draw(st.none() | vector)

    # apply reads f(x + plus) - f(x + minus), with minus = None meaning 0
    flat = table.reshape(g.size, d)
    pts = g.points()
    back = np.zeros(n, dtype=np.int64) if minus is None else np.asarray(minus)
    want = flat[g.encode(pts + np.asarray(plus))] - flat[g.encode(pts + back)]
    got = shift_difference(plus, minus).apply(table).reshape(g.size, d)
    assert np.array_equal(got, want)

    # on explicit axes, permuted and possibly negative, apply and adjoint are
    # bitwise np.roll's, on a second shape too, and again once the plans exist
    count = data.draw(st.integers(1, n))
    grid_axes = data.draw(st.permutations(range(n)))[:count]
    axes = [a - (n + 1) if data.draw(st.booleans()) else a for a in grid_axes]
    some_plus = plus[:count]
    some_minus = None if minus is None else minus[:count]
    op = shift_difference(some_plus, some_minus, axes)
    other = rng.standard_normal(g.shape + (d + 1,))
    for f in (table, other, table):
        for run, sign in ((op.apply, -1), (op.adjoint, 1)):
            rolled = np.roll(f, [sign * v for v in some_plus], axis=axes)
            if some_minus is None:
                want = rolled - f
            else:
                want = rolled - np.roll(f, [sign * v for v in some_minus], axis=axes)
            assert same_bits(run(f), want)

    # <apply f, w> = <f, adjoint w> for every operator the sides are built from
    cube = rng.standard_normal((2,) * n + (2,))
    cases = [(op, table) for op in unit_steps(n)]
    cases += [(op, table) for op in diagonal_differences(n)]
    cases += [
        (half_shift(n, m), table),
        (mean_deviation(n), table),
        (identity_op, table),
        (shift_difference(plus, minus), table),
        (sign_combinations(n), cube),
    ]
    for op, f in cases:
        image = op.apply(f)
        w = rng.standard_normal(image.shape)
        lhs = float(np.sum(image * w))
        rhs = float(np.sum(f.reshape(-1) * op.adjoint(w).reshape(-1)))
        scale = float(np.sum(np.abs(image * w)))
        assert abs(lhs - rhs) <= 1e-12 * scale

    # a side's source read gives B f (the stencil's) and B f - f at every odd k
    # with 2k < m, and is self adjoint, as the search's gradient pull-back needs
    vals = table.reshape(g.size, d)

    def average(v, k):
        return box_average_array(g, v, range(n), k)

    for k in range(1, (m + 1) // 2, 2):
        smooth = convolve(FunctionTable(g, vals), build_even_box(g, range(n), k)).values
        for source, want in ((Box(k), smooth), (Box(k, displaced=True), smooth - vals)):
            read = Side(1.0, (), source).read
            image = read(vals, average)
            np.testing.assert_allclose(image, want, rtol=0.0, atol=1e-12)
            w = rng.standard_normal(image.shape)
            lhs = float(np.sum(image * w))
            rhs = float(np.sum(vals * read(w, average)))
            scale = float(np.sum(np.abs(image * w))) + float(np.sum(np.abs(vals * w)))
            assert abs(lhs - rhs) <= 1e-12 * scale


def test_declared_ops_act_on_each_member_of_a_stack_bitwise():
    # a (3, ...) stack through each declaration equals its members one by one
    rng = np.random.default_rng(4)
    for n in (1, 2, 3):
        for m in (2, 4, 8):
            for d in (1, 3):
                shape = (m,) * n + (d,)
                ops = list(unit_steps(n)) + list(diagonal_differences(n))
                ops += [half_shift(n, m), mean_deviation(n), identity_op]
                if m == 2 and n >= 2:
                    ops.append(sign_combinations(n))
                stack = rng.standard_normal((3,) + shape)
                for op in ops:
                    image = op.apply(stack)
                    w = rng.standard_normal(image.shape)
                    back = op.adjoint(w)
                    for r in range(3):
                        assert same_bits(image[r], op.apply(stack[r])), (n, m, d)
                        assert same_bits(back[r], op.adjoint(w[r])), (n, m, d)
    # Pisier's randomized derivative up to its largest cube, n = 8
    for n in range(4, 9):
        op = sign_combinations(n)
        stack = rng.standard_normal((3,) + (2,) * n + (2,))
        image = op.apply(stack)
        w = rng.standard_normal(image.shape)
        back = op.adjoint(w)
        for r in range(3):
            assert same_bits(image[r], op.apply(stack[r])), n
            assert same_bits(back[r], op.adjoint(w[r])), n


def test_shift_difference_refuses_repeated_axes():
    table = np.zeros((4, 4, 1))
    with pytest.raises(ValueError):
        shift_difference((1, 2), axes=(0, 0))
    with pytest.raises(ValueError):
        shift_difference((1, 2), (0, 1), axes=(1, 1))
    # an axis and its negative alias collide once the array's rank is known
    op = shift_difference((1, 2), axes=(0, -3))
    with pytest.raises(ValueError):
        op.apply(table)
    with pytest.raises(ValueError):
        op.adjoint(table)
    with pytest.raises(ValueError):
        shift_difference((1,), axes=(3,)).apply(table)
    with pytest.raises(ValueError):
        shift_difference((1, 2), axes=(0,))


def test_roll_plans_die_with_their_op():
    # each op keeps its plans in its own closure, so throwaway ops leave
    # nothing behind; a module-level plan cache would keep all 2000
    g = TorusGeometry(3, 16)
    table = np.random.default_rng(0).standard_normal(g.shape + (1,))
    shift_difference((1, 2, 3), (3, 2, 1)).apply(table)
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        for i in range(2000):
            plus = np.unravel_index(i, g.shape)
            op = shift_difference(plus)
            op.apply(table)
            op.adjoint(table)
            shift_difference(plus, (i % 5, 0, 1)).apply(table)
        del op
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert grown <= 64 * 1024, grown


def oracle_lengths(v, q):
    """Norms along the last axis as plain numpy reductions."""
    if q == 2.0:
        return np.sqrt(np.einsum("...i,...i->...", v, v))
    if q == 1.0:
        return np.abs(v).sum(axis=-1)
    if np.isinf(q):
        return np.abs(v).max(axis=-1)
    return (np.abs(v) ** q).sum(axis=-1) ** (1.0 / q)


def ulps_apart(a, b):
    """Units in the last place between nonnegative float64 arrays, inf one past the largest."""
    return np.abs(np.asarray(a).view(np.int64) - np.asarray(b).view(np.int64))


@pytest.mark.parametrize("q", [1.0, 1.5, 2.0, 3.0, np.inf])
@pytest.mark.parametrize("d", [1, 2, 7, 8, 64])
def test_lengths_are_fresh_and_the_moment_reduces_them_in_place_bitwise(q, d):
    # d = 7 and 8 sit on both sides of the l1/sup fold's limit
    rng = np.random.default_rng(d)
    diff = rng.standard_normal((8, 8, d)) * rng.uniform(0.0, 1e3, (8, 8, 1))
    diff.setflags(write=False)
    kept = diff.copy()
    norm = NormSpec(q)
    lengths = norm.lengths(diff)
    assert lengths.flags.writeable and not np.shares_memory(lengths, diff)
    for p in (1.0, 1.5, 2.0):
        # a 1-vector's norm is |v|, and p = 1.5 is x * sqrt(x)
        want = np.abs(diff[..., 0]) if d == 1 else oracle_lengths(diff, q)
        powers = want if p == 1.0 else want * want if p == 2.0 else want * np.sqrt(want)
        got = inequalities._grid_moment(diff, norm, p)
        assert got == float(np.mean(powers)), p
        # the lengths and the power each stay within 4 ulp of the general
        # pow and einsum formulas they replace
        moved = ulps_apart(want, oracle_lengths(diff, q)), ulps_apart(powers, want**p)
        assert max(gap.max() for gap in moved) <= 4, p
    assert np.array_equal(diff, kept)


def test_scaled_enflo_worked_example():
    f = FunctionTable.indicator(TorusGeometry(1, 8), [0])
    report = scaled_enflo_ratio(f, 2.0, 2.0)
    assert report.lhs == 0.25
    assert report.rhs == 16.0
    assert abs(report.ratio - 1.0 / 64.0) < 1e-15
    assert not report.degenerate


def test_approximation_worked_example():
    f = FunctionTable.indicator(TorusGeometry(1, 8), [0])
    report = approximation_ratio(f, 3, 2.0, 2.0)
    assert abs(report.lhs - 1.0 / 12.0) < 1e-15
    assert report.rhs == 1.0


def test_approximation_radius_one_degenerates_exactly():
    report = approximation_ratio(gaussian(2, 8, 2, seed=1), 1, 2.0, 2.0)
    assert report.lhs == 0.0
    assert report.rhs == 0.0
    assert report.degenerate
    assert report.ratio is None


def test_smoothing_kills_the_parity_indicator():
    g = TorusGeometry(2, 8)
    parity = (g.points()[:, 0] % 2).astype(np.float64)[:, None]
    f = FunctionTable(g, parity)
    report = smoothing_ratio(f, 3, 2.0, 2.0)
    assert report.lhs == 0.0
    assert report.rhs > 0.0
    assert report.ratio == 0.0
    assert not report.degenerate


def test_constant_tables_degenerate_with_no_ratio(composite):
    g = TorusGeometry(2, 8)
    c = FunctionTable(g, np.tile([2.5, -1.0], (g.size, 1)))
    for report in (
        scaled_enflo_ratio(c, 2.0, 2.0),
        smoothing_ratio(c, 3, 2.0, 2.0),
        composite(c, 3, 2.0, 2.0),
    ):
        assert report.lhs == 0.0
        assert report.degenerate
        assert report.ratio is None


@pytest.mark.parametrize("p,q", [(1.0, 1.0), (1.5, 2.0), (2.0, math.inf)])
def test_torus_evaluators_are_translation_and_shift_invariant(p, q, composite):
    f = gaussian(2, 8, 2, seed=13)
    g = f.geometry
    rolled = FunctionTable(g, np.roll(f.nd_view(), (-3, -5), axis=(0, 1)).reshape(-1, f.d))
    lifted = FunctionTable(g, f.values + np.array([10.0, -4.0]))
    for evaluate in (
        lambda t: scaled_enflo_ratio(t, q, p),
        lambda t: approximation_ratio(t, 3, q, p),
        lambda t: smoothing_ratio(t, 3, q, p),
        lambda t: composite(t, 3, q, p),
    ):
        base = evaluate(f)
        for other in (rolled, lifted):
            got = evaluate(other)
            assert abs(got.lhs - base.lhs) < 1e-12 * max(1.0, base.lhs)
            assert abs(got.rhs - base.rhs) < 1e-12 * max(1.0, base.rhs)


def test_scaling_leaves_every_ratio_fixed():
    f = gaussian(3, 8, 1, seed=17)
    g = f.geometry
    scaled = FunctionTable(g, f.values * -7.25)
    for p in (1.0, 2.0):
        a = scaled_enflo_ratio(f, 2.0, p).ratio
        b = scaled_enflo_ratio(scaled, 2.0, p).ratio
        assert abs(a - b) < 1e-12


def test_pisier_holds_on_small_samples():
    for seed in range(5):
        f = gaussian(4, 2, 2, seed)
        for q in (1.0, 2.0, math.inf):
            report = pisier_ratio(f, q, 2.0)
            assert report.ratio <= 1.0 + PROVEN_BOUND_RTOL
            assert report.m == 2


def test_pisier_guards():
    with pytest.raises(ValueError):
        pisier_ratio(gaussian(1, 2, 1, 0), 2.0, 2.0)
    with pytest.raises(ValueError):
        pisier_ratio(gaussian(9, 2, 1, 0), 2.0, 2.0)
    with pytest.raises(ValueError):
        pisier_ratio(gaussian(3, 4, 1, 0), 2.0, 2.0)


def test_composite_needs_m_divisible_by_four(composite):
    with pytest.raises(ValueError):
        composite(gaussian(2, 6, 1, 0), 1, 2.0, 2.0)


def test_composite_holds_with_margin(composite):
    for p in (1.0, 2.0):
        report = composite(gaussian(2, 8, 2, seed=23), 3, 2.0, p)
        assert report.evaluator == "composite_scheme"
        assert report.ratio <= 1.0 + PROVEN_BOUND_RTOL
        assert report.rhs > report.lhs


def test_composite_derives_from_the_three_declarations():
    rng = np.random.default_rng(29)
    for n, m, k, d in ((1, 8, 3, 1), (2, 8, 3, 2), (3, 12, 5, 1)):
        f = FunctionTable.random_gaussian(TorusGeometry(n, m), d, rng)
        for p in (1.0, 1.5, 2.0):
            half = scaled_enflo_ratio(f, 2.0, p)
            displacement = approximation_ratio(f, k, 2.0, p)
            diagonal = smoothing_ratio(f, k, 2.0, p)
            composite = scheme_composite_check(half, displacement, diagonal)
            assert composite.lhs == half.lhs
            want = 2.0 * 3.0 ** (p - 1.0) * (displacement.lhs + float(m) ** p * diagonal.lhs)
            assert composite.rhs == want, (n, m, k, p)


# each swaps one leg of a matched (scaled_enflo, approximation, smoothing) triple
MISMATCHED_LEGS = {
    "another-p": lambda f, legs: (scaled_enflo_ratio(f, 2.0, 1.5), *legs[1:]),
    "another-k": lambda f, legs: (*legs[:2], smoothing_ratio(f, 1, 2.0, 2.0)),
    "wrong-order": lambda f, legs: (legs[1], legs[0], legs[2]),
}


@pytest.mark.parametrize("mismatch", MISMATCHED_LEGS)
def test_composite_refuses_legs_of_another_cell(mismatch):
    f = gaussian(2, 8, 1, seed=37)
    legs = (
        scaled_enflo_ratio(f, 2.0, 2.0),
        approximation_ratio(f, 3, 2.0, 2.0),
        smoothing_ratio(f, 3, 2.0, 2.0),
    )
    scheme_composite_check(*legs)
    with pytest.raises(ValueError, match="legs"):
        scheme_composite_check(*MISMATCHED_LEGS[mismatch](f, legs))


def test_golden_tool_smoothing_matches_the_evaluator():
    path = Path(__file__).resolve().parent.parent / "tools" / "make_goldens.py"
    spec = importlib.util.spec_from_file_location("make_goldens", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    for n in (1, 2, 3):
        f = gaussian(n, 12, 2, seed=31 + n)
        for p in (1.0, 2.0):
            naive = tool.naive_smoothing_ratio(f, 5, 2.0, p)
            fast = smoothing_ratio(f, 5, 2.0, p).ratio
            assert abs(naive - fast) <= 1e-12 * fast, (n, p)


def stencil_box_average(f, k):
    """B f through the naive stencil, independent of the separable path."""
    return convolve(f, build_even_box(f.geometry, range(f.geometry.n), k))


def pointwise_smoothing_lhs(f, k, q, p):
    """Mean over x and all 2^n eps of |B f(x + eps) - B f(x - eps)|_q^p, point by point."""
    g = f.geometry
    smooth = stencil_box_average(f, k).values
    pts = g.points()
    total = 0.0
    for eps in sign_vectors(g.n):
        ahead, behind = g.encode(pts + eps), g.encode(pts - eps)
        for x in range(g.size):
            total += np.linalg.norm(smooth[ahead[x]] - smooth[behind[x]], ord=q) ** p
    return total / (2**g.n * g.size)


@pytest.mark.parametrize("n, m, k", [(1, 8, 3), (2, 12, 5), (3, 8, 3)])
def test_smoothing_lhs_matches_the_pointwise_sum_over_all_sign_vectors(n, m, k):
    f = gaussian(n, m, 2, seed=41 + n)
    for p in (1.0, 1.5, 2.0):
        for q in (1.0, 2.0, math.inf):
            want = pointwise_smoothing_lhs(f, k, q, p)
            got = smoothing_ratio(f, k, q, p).lhs
            assert abs(got - want) <= 1e-12 * want, (p, q)


@pytest.mark.parametrize("n, m, k", [(1, 8, 3), (2, 12, 5), (3, 8, 3)])
def test_smoothing_lhs_matches_parseval_at_p_q_two(n, m, k):
    # mean over eps of |h_eps|^2 for h_eps(x) = B f(x + eps) - B f(x - eps) is
    # 2 sum_a |B^f(a)|^2 (1 - prod_j cos(4 pi a_j / m)), normalized transform
    f = gaussian(n, m, 2, seed=47 + n)
    axes = tuple(range(n))
    coeffs = np.fft.fftn(stencil_box_average(f, k).nd_view(), axes=axes) / f.geometry.size
    power = np.sum(np.abs(coeffs) ** 2, axis=-1)
    freqs = np.meshgrid(*[np.arange(m)] * n, indexing="ij")
    multiplier = 1.0 - np.prod([np.cos(4.0 * np.pi * a / m) for a in freqs], axis=0)
    want = 2.0 * float(np.sum(power * multiplier))
    got = smoothing_ratio(f, k, 2.0, 2.0).lhs
    assert abs(got - want) <= 1e-12 * want


MEMO_EVALUATORS = {
    "scaled_enflo": lambda f, k, q, p: scaled_enflo_ratio(f, q, p),
    "approximation": lambda f, k, q, p: approximation_ratio(f, k, q, p),
    "smoothing": lambda f, k, q, p: smoothing_ratio(f, k, q, p),
}


def test_table_memo_answers_only_its_own_cell():
    f = gaussian(2, 12, 2, seed=53)
    calls = [
        (name, k, q, p)
        for k in (3, 5)
        for p, q in ((1.0, 1.0), (1.0, math.inf), (2.0, math.inf))
        for name in MEMO_EVALUATORS
    ]
    for order in (calls, calls[::-1]):
        shared = FunctionTable(f.geometry, f.values)
        for name, k, q, p in order:
            fresh = FunctionTable(f.geometry, f.values)
            want = MEMO_EVALUATORS[name](fresh, k, q, p)
            assert MEMO_EVALUATORS[name](shared, k, q, p) == want, (name, k, q, p)


def test_table_memo_computes_the_edge_energy_once(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return edge_energy(*args)

    monkeypatch.setattr(inequalities, "edge_energy", counted)
    f = gaussian(2, 8, 1, seed=59)
    for evaluate in MEMO_EVALUATORS.values():
        evaluate(f, 3, 2.0, 1.5)
    assert len(calls) == 1
    smoothing_ratio(f, 3, 1.0, 1.5)
    assert len(calls) == 2


def test_build_report_aborts_on_positive_over_zero():
    with pytest.raises(ProvenBoundViolation):
        _build_report("probe", 1.0, 0.0, n=1, m=4, k=None, p=2.0, q=2.0, d=1)


def test_report_serialization_formats():
    report = scaled_enflo_ratio(gaussian(1, 8, 1, seed=2), math.inf, 2.0)
    row = report.to_csv_row()
    assert row[0] == "scaled_enflo"
    assert row[3] == ""  # k is unset
    assert row[5] == "inf"
    assert row[10] == "false"
    assert row[11] == ""  # no seed given
    assert report.to_csv_row(77)[11] == "77"


# The triangle-inequality ceiling. Walking from x to x + (m/2) eps in n m/2
# unit steps, the triangle inequality, Hoelder and translation invariance give
# E|f(x + (m/2) eps) - f(x)|^p <= (nm/2)^(p-1) (m/2) sum_j E|f(x + e_j) - f(x)|^p
# in every normed space, so the scaled Enflo ratio is at most n^(p-1) / 2^p;
# on the cube, with no m^p factor, the Enflo ratio is at most n^(p-1).


def ceiling(name, n, p):
    return n ** (p - 1) / 2**p if name == "scaled_enflo" else n ** (p - 1)


def assert_under_ceiling(report):
    bound = ceiling(report.evaluator, report.n, report.p)
    assert report.lhs <= bound * report.rhs * (1.0 + PROVEN_BOUND_RTOL), report


def test_random_tables_stay_under_the_triangle_inequality_ceiling():
    rng = np.random.default_rng(140)
    for p in (1.0, 1.5, 2.0):
        for q in (1.0, 1.5, 2.0, math.inf):
            for d in (1, 3):
                for n, m in ((1, 4), (1, 12), (2, 8), (3, 4), (3, 8)):
                    f = FunctionTable.random_gaussian(TorusGeometry(n, m), d, rng)
                    assert_under_ceiling(scaled_enflo_ratio(f, q, p))
                for n in (1, 3, 5):
                    f = FunctionTable.random_gaussian(TorusGeometry(n, 2), d, rng)
                    assert_under_ceiling(enflo_ratio(f, q, p))


def test_search_outcomes_stay_under_the_triangle_inequality_ceiling():
    cells = [
        (name, n, m, None, p, q, d)
        for name, n, m in (("scaled_enflo", 1, 4), ("scaled_enflo", 2, 8), ("enflo", 3, 2))
        for p in (1.5, 2.0)
        for q in (1.0, 2.0, math.inf)
        for d in (1, 2)
    ]
    outcomes = maximize_cells(cells, restarts=2, iterations=20, seed=14)
    assert [out.report.evaluator for out in outcomes] == [cell[0] for cell in cells]
    for out in outcomes:
        assert_under_ceiling(out.report)


def l1_cycle_embedding(geometry):
    """Each cycle Z_m isometrically into l1^(m/2): coordinate (j, i) is 1[(x_j - i) mod m < m/2]."""
    half = geometry.m // 2
    pts = geometry.points()
    inside = (pts[:, :, None] - np.arange(half)) % geometry.m < half
    return FunctionTable(geometry, inside.reshape(geometry.size, -1).astype(np.float64))


@pytest.mark.parametrize("n,m", [(1, 8), (2, 8), (3, 8), (4, 8), (2, 12), (3, 12)])
def test_l1_cycle_embedding_attains_the_scaled_enflo_ceiling(n, m):
    f = l1_cycle_embedding(TorusGeometry(n, m))
    assert f.d == n * m // 2
    for p in (1.0, 1.5, 2.0):
        report = scaled_enflo_ratio(f, 1.0, p)
        bound = ceiling("scaled_enflo", n, p)
        assert abs(report.ratio - bound) <= 1e-12 * bound, (p, report.ratio)


def test_identity_map_of_the_cube_into_l1_attains_the_enflo_ceiling():
    for n in range(2, 6):
        f = FunctionTable(TorusGeometry(n, 2), sign_vectors(n).astype(np.float64))
        for p in (1.0, 1.5, 2.0):
            report = enflo_ratio(f, 1.0, p)
            bound = ceiling("enflo", n, p)
            assert abs(report.ratio - bound) <= 1e-12 * bound, (n, p, report.ratio)
