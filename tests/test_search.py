import math

import numpy as np
import pytest

from enflolab.inequalities import scaled_enflo_ratio
from enflolab.search import (
    SCAN_CSV_COLUMNS,
    SEARCH_OBJECTIVES,
    OptimizationConfig,
    _make_objective,
    _maximize_full,
    default_k_rule,
    gradient_check,
    maximize_ratio,
    scan_grid,
)
from enflolab.torus import FunctionTable, NormSpec, TorusGeometry

TINY = OptimizationConfig(restarts=2, iterations=30, seed=0)


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
    assert {name for name, _, _ in cases} == set(SEARCH_OBJECTIVES)
    return cases


def test_gradients_match_finite_differences_everywhere():
    for name, table, k in objective_cases():
        err = gradient_check(name, table, 2.0, 2.0, k=k)
        assert err < 1e-6, (name, err)


def test_smoothed_sides_match_the_exact_evaluator():
    for name, table, k in objective_cases():
        for q in (1.0, 1.5, 2.0):
            for p in (1.0, 1.5, 2.0):
                obj = _make_objective(name, table.geometry, table.d, NormSpec(q), p, k, 1e-12)
                lhs, _, rhs, _ = obj.value_grad(table.values)
                exact = obj.report(table)
                assert abs(lhs - exact.lhs) <= 1e-12 * exact.lhs, (name, q, p)
                assert abs(rhs - exact.rhs) <= 1e-12 * exact.rhs, (name, q, p)


def test_gradient_check_covers_other_exponents():
    f = gaussian(2, 8, 2, seed=2)
    assert gradient_check("scaled_enflo", f, math.inf, 1.5) < 1e-6
    assert gradient_check("scaled_enflo", f, 1.0, 2.0) < 1e-6


def test_gradient_check_guards():
    f = gaussian(2, 8, 1, seed=3)
    with pytest.raises(ValueError):
        gradient_check("scaled_enflo", f, 2.0, 1.0)
    flat = FunctionTable.constant(f.geometry, [1.0])
    with pytest.raises(ValueError):
        gradient_check("scaled_enflo", flat, 2.0, 2.0)
    with pytest.raises(ValueError):
        gradient_check("scaled_enflo", f, 2.0, 2.0, k=3)  # takes no radius


def test_reported_ratio_is_a_fresh_exact_evaluation():
    table, report = maximize_ratio(
        "scaled_enflo", TorusGeometry(2, 8), norm=2.0, p=2.0, config=TINY
    )
    again = scaled_enflo_ratio(table, NormSpec(2.0), 2.0)
    assert abs(report.ratio - again.ratio) < 1e-12
    assert report.lhs == again.lhs
    assert report.rhs == again.rhs


def test_trace_is_nondecreasing():
    g = TorusGeometry(2, 8)
    obj = _make_objective("scaled_enflo", g, 1, NormSpec(2.0), 2.0, None, 1e-6)
    out = _maximize_full(obj, g, 1, OptimizationConfig(restarts=2, iterations=40, seed=5))
    diffs = np.diff(np.array(out.trace))
    assert np.all(diffs >= -1e-15)
    assert out.accepted_steps >= 1


def test_smoothed_objective_ignores_added_constants():
    g = TorusGeometry(2, 8)
    obj = _make_objective("scaled_enflo", g, 2, NormSpec(2.0), 2.0, None, 1e-6)
    f = gaussian(2, 8, 2, seed=7)
    lifted = f.values + np.array([3.0, -11.0])
    a = obj.value_grad(f.values)
    b = obj.value_grad(lifted)
    assert abs(a[0] - b[0]) < 1e-12 * max(1.0, abs(a[0]))
    assert abs(a[2] - b[2]) < 1e-12 * max(1.0, abs(a[2]))


def test_gradients_vanish_along_constant_shifts():
    torus, cube = gaussian(2, 8, 2, seed=8), gaussian(3, 2, 2, seed=9)
    for name, f, k in objective_cases(torus, cube):
        obj = _make_objective(name, f.geometry, f.d, NormSpec(2.0), 2.0, k, 1e-6)
        _, glhs, _, grhs = obj.value_grad(f.values)
        assert np.abs(glhs.mean(axis=0)).max() < 1e-10
        assert np.abs(grhs.mean(axis=0)).max() < 1e-10


def test_more_restarts_never_hurt():
    g = TorusGeometry(2, 8)
    few = maximize_ratio(
        "scaled_enflo", g, config=OptimizationConfig(restarts=2, iterations=30, seed=9)
    )[1]
    many = maximize_ratio(
        "scaled_enflo", g, config=OptimizationConfig(restarts=4, iterations=30, seed=9)
    )[1]
    assert many.ratio >= few.ratio


def test_search_is_reproducible():
    g = TorusGeometry(2, 8)
    a = maximize_ratio("scaled_enflo", g, config=TINY)
    b = maximize_ratio("scaled_enflo", g, config=TINY)
    assert np.array_equal(a[0].values, b[0].values)
    assert a[1] == b[1]


def test_maximize_validation():
    g = TorusGeometry(2, 8)
    with pytest.raises(ValueError):
        maximize_ratio("unknown", g)
    with pytest.raises(ValueError):
        maximize_ratio("smoothing", g)  # k missing
    with pytest.raises(ValueError):
        maximize_ratio("scaled_enflo", g, k=3)
    with pytest.raises(ValueError):
        maximize_ratio("enflo", g, config=TINY)  # not a hypercube
    with pytest.raises(ValueError):
        maximize_ratio("pisier", TorusGeometry(1, 2), config=TINY)


def test_optimization_config_validation():
    with pytest.raises(ValueError):
        OptimizationConfig(restarts=0)
    with pytest.raises(ValueError):
        OptimizationConfig(iterations=0)
    with pytest.raises(ValueError):
        OptimizationConfig(step=0.0)
    with pytest.raises(ValueError):
        OptimizationConfig(smoothing_eps=0.0)
    with pytest.raises(ValueError):
        OptimizationConfig(seed=-3)
    with pytest.raises(ValueError):
        OptimizationConfig(seed=(1, -2))
    for bad in (
        {"step": math.inf},
        {"smoothing_eps": math.inf},
        {"step": math.nan},
        {"restarts": True},
        {"iterations": True},
        {"seed": True},
        {"seed": (1, True)},
    ):
        with pytest.raises(ValueError):
            OptimizationConfig(**bad)
    assert OptimizationConfig(seed=(1, 2)).seed == (1, 2)


def test_default_k_rule_values_and_properties():
    assert default_k_rule(1, 8) == 1
    assert default_k_rule(2, 8) == 1
    assert default_k_rule(3, 8) == 3
    assert default_k_rule(3, 16) == 3
    assert default_k_rule(4, 12) == 5
    assert default_k_rule(8, 64) == 17
    assert default_k_rule(2, 4) == 1
    for n in range(1, 10):
        for m in (4, 8, 12, 16, 32):
            k = default_k_rule(n, m)
            assert k % 2 == 1 and k >= 1 and k < m / 2


def test_scan_validation():
    with pytest.raises(ValueError):
        scan_grid([1], [6], config=TINY)  # m not divisible by 4
    with pytest.raises(ValueError):
        scan_grid([1], [8], config=OptimizationConfig(seed=(1, 2)))


def test_scan_single_cell_hits_the_known_extremal():
    rows = scan_grid([1], [4], config=OptimizationConfig(restarts=3, iterations=60, seed=0))
    row = rows[0]
    assert row.objective == "scaled_enflo"
    assert row.empirical_theta >= 0.25
    assert abs(row.empirical_theta - (row.lhs / row.rhs) ** 0.5) < 1e-12
    assert row.k == default_k_rule(1, 4)
    assert len(row.to_csv_row()) == len(SCAN_CSV_COLUMNS)


def test_scan_grid_is_thread_deterministic_and_nondegenerate():
    cfg = OptimizationConfig(restarts=2, iterations=20, seed=3)
    serial = scan_grid([1, 2, 3], [4, 8, 12], config=cfg, threads=1)
    threaded = scan_grid([1, 2, 3], [4, 8, 12], config=cfg, threads=3)
    assert serial == threaded
    assert len(serial) == 9
    for row in serial:
        assert row.empirical_theta > 0.0
        assert row.seed == 3


def test_scan_flags_capped_radii():
    # n = 3 asks for ceil(3 log 3) = 4, so radius 3; m = 4 caps it at 1
    cfg = OptimizationConfig(restarts=2, iterations=15, seed=1)
    rows = scan_grid([3], [8], config=cfg)
    assert rows[0].k == 3
    rows = scan_grid([3], [4], config=cfg)
    assert rows[0].k == 1
