import importlib.util
import json
import math
from itertools import combinations, product
from pathlib import Path

import numpy as np
import pytest

from enflolab import averaging, identity
from enflolab.averaging import box_average, check_radius, convolve_shell_separable
from enflolab.identity import (
    IdentityCoefficients,
    _check_signs,
    _complement_tables,
    _pattern_multipliers,
    coefficient_pairs,
    coefficient_scale,
    decomposition_moment,
    decomposition_term_table,
    fit_identity_coefficients,
    shell_difference_sum_table,
    verify_identity,
)
from enflolab.torus import FunctionTable, TorusGeometry, sign_vectors

GOLDEN = Path(__file__).parent / "golden"
GOLDEN_TOOL = Path(__file__).resolve().parent.parent / "tools" / "make_goldens.py"


def true_coefficient(i, l):
    return math.comb(i, l) / math.factorial(i + 1)


def gaussian(n, m, d, seed):
    g = TorusGeometry(n, m)
    return FunctionTable.random_gaussian(g, d, np.random.default_rng(seed))


# The per-sample replay: the oracle verify_identity's batched replay must
# match bitwise. Each sample reads its own scalar table point by point.


def oracle_term_shifts(n, m, k, i, l, eps):
    """Yield (subset, plus shift, minus shift) of every signed configuration.

    Read off the definition one coordinate at a time: on the subset both
    shifts are k eps, negated at the l flipped positions; off the subset the
    plus shift is eps and the minus shift -eps. Subsets, then flipped
    positions, come in combinations order.
    """
    for subset in combinations(range(n), i):
        for flips in combinations(subset, l):
            plus = np.empty(n, dtype=np.int64)
            minus = np.empty(n, dtype=np.int64)
            for a in range(n):
                if a in subset:
                    sign = -eps[a] if a in flips else eps[a]
                    plus[a] = minus[a] = (k * sign) % m
                else:
                    plus[a] = eps[a] % m
                    minus[a] = -eps[a] % m
            yield subset, plus, minus


def shell_difference_sum(f, k, x, eps):
    """Sum over axes of eps_j times the shell-average difference at x +- e_j."""
    g = f.geometry
    check_radius(k, g.m)
    xv = np.asarray(x, dtype=np.int64)
    ev = _check_signs(eps, g.n)
    out = np.zeros(f.d)
    for axis in range(g.n):
        avg = convolve_shell_separable(f, axis, k)
        step = np.zeros(g.n, dtype=np.int64)
        step[axis] = 1
        out += ev[axis] * (avg.values[g.encode(xv + step)] - avg.values[g.encode(xv - step)])
    return out


def _feature_row(tables, geometry, k, x, eps, pairs):
    row = np.empty(len(pairs))
    for idx, (i, l) in enumerate(pairs):
        total = 0.0
        for subset, plus, minus in oracle_term_shifts(geometry.n, geometry.m, k, i, l, eps):
            table = tables[subset]
            total += table[geometry.encode(x + plus), 0]
            total -= table[geometry.encode(x + minus), 0]
        row[idx] = coefficient_scale(geometry.n, k, i) * total
    return row


def _draw_sample(geometry, k, rng, pairs):
    f = FunctionTable.random_gaussian(geometry, 1, rng)
    x = rng.integers(0, geometry.m, size=geometry.n)
    eps = 1 - 2 * rng.integers(0, 2, size=geometry.n)
    tables = _complement_tables(f, k, range(geometry.n + 1))
    row = _feature_row(tables, geometry, k, x, eps, pairs)
    target = float(shell_difference_sum(f, k, x, eps)[0])
    return row, target


def sample_residuals(coefficients, geometry, k, n_samples, seed):
    """Residual of each sample, replayed one at a time in draw order."""
    pairs = coefficient_pairs(geometry.n)
    full = np.array([coefficients.values[i, l] for i, l in pairs])
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n_samples):
        row, target = _draw_sample(geometry, k, rng, pairs)
        out.append(abs(target - float(row @ full)))
    return out


def worst_identity_residual(f, k, coefficient):
    """Largest residual of the tabulated identity over every x and every eps."""
    n = f.geometry.n
    worst = 0.0
    for eps in sign_vectors(n):
        lhs = shell_difference_sum_table(f, k, eps)
        rhs = np.zeros_like(lhs)
        for i, l in coefficient_pairs(n):
            rhs += (
                coefficient(i, l)
                * coefficient_scale(n, k, i)
                * decomposition_term_table(f, i, l, k, eps)
            )
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    return worst


def test_coefficient_bookkeeping():
    assert coefficient_pairs(2) == [(0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2)]
    assert coefficient_scale(3, 3, 0) == 9 / 16
    assert coefficient_scale(3, 3, 2) == 1 / 16
    assert coefficient_scale(1, 5, 0) == 1.0


def test_term_shift_counts():
    for n in (1, 2, 3):
        for i in range(n + 1):
            for l in range(i + 1):
                count = sum(
                    _pattern_multipliers(n, 3, subset, l).shape[1]
                    for subset in combinations(range(n), i)
                )
                assert count == math.comb(n, i) * math.comb(i, l)


def test_zero_subset_term_is_the_full_diagonal_difference():
    f = gaussian(2, 8, 1, seed=4)
    g = f.geometry
    eps = np.array([1, -1])
    nd = box_average(f, range(2), 3).nd_view()
    fwd = np.roll(nd, tuple(int(-e) for e in eps), axis=(0, 1))
    bwd = np.roll(nd, tuple(int(e) for e in eps), axis=(0, 1))
    want = (fwd - bwd).reshape(f.values.shape)
    got = decomposition_term_table(f, 0, 0, 3, eps)
    assert np.array_equal(got, want)


@pytest.mark.parametrize(
    "n,m,k",
    [
        pytest.param(n, m, k, id=f"{n}-{m}-{k}")
        for n in (1, 2, 3)
        for m in (8, 12)
        for k in (1, 3, 5)
        if 2 * k < m
    ],
)
def test_term_table_is_bitwise_the_rolled_pattern_sum(n, m, k):
    # each term adds, over subsets then patterns in the oracle's order, the
    # complement average read at x + plus minus the one read at x + minus
    f = gaussian(n, m, 3, seed=300 + 10 * n + m + k)
    grid = tuple(range(n))
    for i, l in coefficient_pairs(n):
        for eps in sign_vectors(n):
            want = np.zeros(f.geometry.shape + (3,))
            for subset, plus, minus in oracle_term_shifts(n, m, k, i, l, eps):
                nd = box_average(f, [a for a in grid if a not in subset], k).nd_view()
                want += np.roll(nd, tuple(-plus), axis=grid) - np.roll(nd, tuple(-minus), axis=grid)
            got = decomposition_term_table(f, i, l, k, eps)
            assert np.array_equal(got, want.reshape(f.values.shape)), (i, l, tuple(eps))


def test_term_table_matches_pointwise_terms():
    # _feature_row is the pointwise reader of the per-sample replay oracle
    f = gaussian(2, 8, 1, seed=5)
    g = f.geometry
    eps = np.array([-1, 1])
    pairs = coefficient_pairs(2)
    tables = _complement_tables(f, 3, range(3))
    want = np.stack(
        [
            coefficient_scale(2, 3, i) * decomposition_term_table(f, i, l, 3, eps)[:, 0]
            for i, l in pairs
        ],
        axis=1,
    )
    for idx in range(g.size):
        row = _feature_row(tables, g, 3, g.decode(idx), eps, pairs)
        assert np.abs(row - want[idx]).max() < 1e-12


def test_term_tables_are_linear():
    f = gaussian(2, 8, 1, seed=6)
    h = gaussian(2, 8, 1, seed=7)
    g = f.geometry
    combo = FunctionTable(g, 2.0 * f.values - 0.5 * h.values)
    eps = np.array([1, 1])
    a = decomposition_term_table(combo, 1, 0, 3, eps)
    b = 2.0 * decomposition_term_table(f, 1, 0, 3, eps) - 0.5 * decomposition_term_table(
        h, 1, 0, 3, eps
    )
    assert np.abs(a - b).max() < 1e-12


def test_full_subset_terms_vanish_exactly():
    f = gaussian(3, 8, 1, seed=8)
    eps = np.array([1, -1, 1])
    for l in range(4):
        table = decomposition_term_table(f, 3, l, 3, eps)
        assert np.array_equal(table, np.zeros_like(table))


def test_shell_sum_antisymmetry_and_pointwise_match():
    f = gaussian(2, 8, 1, seed=9)
    g = f.geometry
    eps = np.array([1, -1])
    table = shell_difference_sum_table(f, 3, eps)
    flipped = shell_difference_sum_table(f, 3, -eps)
    assert np.array_equal(flipped, -table)
    for idx in range(g.size):
        single = shell_difference_sum(f, 3, g.decode(idx), eps)
        assert np.abs(table[idx] - single).max() < 1e-12


@pytest.mark.parametrize("n,m,k", [(1, 8, 3), (2, 8, 3), (3, 8, 1)])
def test_identity_holds_with_the_known_coefficients(n, m, k):
    f = gaussian(n, m, 1, seed=100 + n)
    worst = worst_identity_residual(f, k, true_coefficient)
    assert worst < 1e-10, worst


def test_fit_recovers_the_known_coefficients():
    for n in (2, 3):
        g = TorusGeometry(n, 8)
        fitted = fit_identity_coefficients(g, 3)
        assert fitted.coefficient(0, 0) == 1.0
        assert verify_identity(fitted, g, 3, n_samples=200).max_residual < 1e-8
        for i, l in coefficient_pairs(n):
            if i < n:
                assert fitted.is_identifiable(i, l)
                assert abs(fitted.coefficient(i, l) - true_coefficient(i, l)) < 1e-12
            else:
                assert not fitted.is_identifiable(i, l)


@pytest.mark.parametrize("n,k", [(2, 1), (2, 3), (3, 1), (3, 3)])
def test_fitted_coefficients_satisfy_the_tabulated_identity(n, k):
    # the fit sees only the impulse at eps = 1; linearity must carry it to
    # a random table at every x and every sign vector
    f = gaussian(n, 8, 1, seed=200 + 10 * n + k)
    fitted = fit_identity_coefficients(f.geometry, k)
    worst = worst_identity_residual(f, k, fitted.coefficient)
    assert worst < 1e-12, worst


@pytest.mark.parametrize(
    "n,m,k",
    [pytest.param(n, 8, k, id=f"{n}-{k}") for n in (1, 2, 3, 4) for k in (1, 3)]
    # wider circles and radii up to just below m/2: the shifts wrap at both seams
    + [
        pytest.param(n, m, k, id=f"{n}-{m}-{k}")
        for n, m, k in ((2, 12, 5), (3, 12, 3), (2, 16, 7))
    ],
)
def test_batched_replay_is_bitwise_the_per_sample_replay(n, m, k):
    # sample counts below and past a batch (16384 rows at n = 1, 32 at
    # n = 4, m = 8), and not multiples of it; the first N samples of the
    # oracle's stream are the ones an N-sample replay draws, so one oracle
    # pass per seed serves every N
    g = TorusGeometry(n, m)
    fitted = fit_identity_coefficients(g, k)
    for seed in (0, 99):
        residuals = sample_residuals(fitted, g, k, 100, seed)
        for n_samples in (1, 7, 37, 100):
            check = verify_identity(fitted, g, k, n_samples=n_samples, seed=seed)
            assert check.max_residual == max(residuals[:n_samples]), (seed, n_samples)
            assert check.samples == n_samples


def full_grid_replay_batch(geometry, k, rng, pairs, size):
    """The replay that averages whole batches: every complement and shell over all points.

    Draws as _replay_batch does, builds each box and shell average over the
    whole (m^n, size) batch with box_average and convolve_shell_separable,
    then gathers the points the features and targets read.
    """
    n, m = geometry.n, geometry.m
    values = np.empty((geometry.size, size))
    x = np.empty((size, n), dtype=np.int64)
    eps = np.empty((size, n), dtype=np.int64)
    for s in range(size):
        values[:, s] = rng.standard_normal((geometry.size, 1))[:, 0]
        x[s] = rng.integers(0, m, size=n)
        eps[s] = 1 - 2 * rng.integers(0, 2, size=n)
    f = FunctionTable(geometry, values)
    samples = np.arange(size)
    strides = np.asarray(geometry.strides, dtype=np.int64)

    totals = {pair: np.zeros(size) for pair in pairs}
    for i in range(n + 1):
        for subset in combinations(range(n), i):
            complement = tuple(a for a in range(n) if a not in subset)
            table = box_average(f, complement, k).values
            for l in range(i + 1):
                mult = _pattern_multipliers(n, k, subset, l)
                index = ((x + eps * mult[:, :, None, :]) % m) @ strides
                plus, minus = table[index, samples]
                total = totals[i, l]
                for p in range(mult.shape[1]):
                    total += plus[p]
                    total -= minus[p]
    rows = np.stack([coefficient_scale(n, k, i) * totals[i, l] for i, l in pairs], axis=1)

    targets = np.zeros(size)
    for axis in range(n):
        shell = convolve_shell_separable(f, axis, k).values
        step = np.zeros(n, dtype=np.int64)
        step[axis] = 1
        forward = shell[geometry.encode(x + step), samples]
        backward = shell[geometry.encode(x - step), samples]
        targets += eps[:, axis] * (forward - backward)
    return rows, targets


class _RewrittenTables:
    """A seeded generator whose table draws pass through a rewrite; x and eps draw as usual."""

    def __init__(self, seed, rewrite):
        self._rng = np.random.default_rng(seed)
        self._rewrite = rewrite

    def standard_normal(self, size=None, out=None):
        draw = self._rewrite(self._rng.standard_normal(size, out=out))
        if out is None:
            return draw
        out[...] = draw
        return out

    def integers(self, *args, **kwargs):
        return self._rng.integers(*args, **kwargs)


_BATCH_TABLES = {
    "gaussian": lambda draw: draw,
    "constant": lambda draw: np.full_like(draw, 0.75),
    # about 38% of the entries become +0.0 or -0.0, with the sign of the draw
    "zeros": lambda draw: np.where(np.abs(draw) < 0.5, np.copysign(0.0, draw), draw),
}


@pytest.mark.parametrize(
    "n,m,k",
    [
        pytest.param(n, m, k, id=f"{n}-{m}-{k}")
        for n in (1, 2, 3, 4)
        for m in (8, 12, 16)
        for k in (1, 3, 5, 7)
        if 2 * k < m
    ],
)
def test_point_reads_are_bitwise_the_full_grid_replay(n, m, k):
    # the averages read only at the gathered points give the rows and
    # targets of averaging whole batches, byte for byte, on random,
    # constant and signed-zero batches of 1 and 3 samples
    g = TorusGeometry(n, m)
    pairs = coefficient_pairs(n)
    for name, rewrite in _BATCH_TABLES.items():
        for size in (1, 3):
            seed = 11 * size + n
            rows, targets = identity._replay_batch(g, k, _RewrittenTables(seed, rewrite), pairs, size)
            want_rows, want_targets = full_grid_replay_batch(
                g, k, _RewrittenTables(seed, rewrite), pairs, size
            )
            assert rows.tobytes() == want_rows.tobytes(), (name, size)
            assert targets.tobytes() == want_targets.tobytes(), (name, size)


@pytest.mark.parametrize(
    "n,k", [pytest.param(n, k, id=f"{n}-{k}") for n in (2, 3, 4) for k in (1, 3)]
)
def test_the_replay_does_not_depend_on_the_batch_size(n, k, monkeypatch):
    # one sample per batch, batches of 5 that leave a remainder of 2, and
    # all 37 samples in one batch give the same worst residual, bit for bit
    g = TorusGeometry(n, 8)
    fitted = fit_identity_coefficients(g, k)
    residuals = set()
    for samples_per_batch in (1, 5, 37):
        monkeypatch.setattr(identity, "_REPLAY_BATCH_ENTRIES", samples_per_batch * g.size)
        check = verify_identity(fitted, g, k, n_samples=37, seed=5)
        residuals.add(check.max_residual.hex())
    assert len(residuals) == 1, residuals


def test_no_window_pass_runs_over_the_whole_batch(monkeypatch):
    # the replay reads every pass at its points, so a whole-batch axis pass
    # may not run; the fit still uses it and is not called here
    g, k = TorusGeometry(4, 8), 3
    pairs = coefficient_pairs(g.n)
    want_rows, want_targets = full_grid_replay_batch(
        g, k, _RewrittenTables(3, lambda draw: draw), pairs, 3
    )

    def whole_batch_pass(*args, **kwargs):
        raise AssertionError("a window pass ran over the whole batch")

    monkeypatch.setattr(averaging, "_axis_window_pass", whole_batch_pass)
    # a module that imported the pass by name would call its own binding
    monkeypatch.setattr(identity, "_axis_window_pass", whole_batch_pass, raising=False)
    rows, targets = identity._replay_batch(g, k, _RewrittenTables(3, lambda draw: draw), pairs, 3)
    assert rows.tobytes() == want_rows.tobytes()
    assert targets.tobytes() == want_targets.tobytes()


@pytest.mark.parametrize("n_samples", [0, -3, True])
def test_verify_refuses_a_replay_without_samples(n_samples):
    g = TorusGeometry(2, 8)
    fitted = fit_identity_coefficients(g, 3)
    with pytest.raises(ValueError, match="n_samples"):
        verify_identity(fitted, g, 3, n_samples=n_samples)


def test_pattern_multipliers_reproduce_the_subset_shifts():
    # every sign vector against the oracle's shifts, in its pattern order
    for n, k, m in product((1, 2, 3, 4), (1, 3, 5), (8, 12)):
        for i in range(n + 1):
            for subset, l in product(combinations(range(n), i), range(i + 1)):
                mult = _pattern_multipliers(n, k, subset, l)
                assert mult.shape == (2, math.comb(i, l), n)
                assert not mult.flags.writeable
                for eps in sign_vectors(n):
                    shifts = [
                        (plus, minus)
                        for sub, plus, minus in oracle_term_shifts(n, m, k, i, l, eps)
                        if sub == subset
                    ]
                    assert len(shifts) == mult.shape[1]
                    for p, (plus, minus) in enumerate(shifts):
                        assert np.array_equal((eps * mult[0, p]) % m, plus)
                        assert np.array_equal((eps * mult[1, p]) % m, minus)


def test_fit_draws_no_random_numbers(monkeypatch):
    def no_rng(*args, **kwargs):
        raise AssertionError("the fit drew random numbers")

    monkeypatch.setattr(identity.np.random, "default_rng", no_rng)
    fitted = fit_identity_coefficients(TorusGeometry(2, 8), 3)
    assert fitted.coefficient(0, 0) == 1.0


def test_verify_rejects_mismatched_inputs():
    g = TorusGeometry(2, 8)
    fitted = fit_identity_coefficients(g, 3)
    with pytest.raises(ValueError):
        verify_identity(fitted, TorusGeometry(3, 8), 3)
    with pytest.raises(ValueError):
        verify_identity(fitted, g, 1)


@pytest.mark.parametrize("n,k", [(1, 3), (2, 1), (2, 3), (3, 3)])
def test_golden_coefficients_replay_on_fresh_samples(n, k):
    payload = json.loads((GOLDEN / f"h_coeffs_{n}_{k}.json").read_text())
    coeffs = IdentityCoefficients.from_json_dict(payload)
    assert coeffs.to_json_dict() == payload
    check = verify_identity(coeffs, TorusGeometry(n, 8), k, seed=999)
    assert check.passed, check.max_residual
    assert check.samples == 200


def test_golden_tool_reproduces_the_committed_fits():
    spec = importlib.util.spec_from_file_location("make_goldens", GOLDEN_TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    fits = tool.fit_goldens()
    assert len(fits) == 4
    for name, fitted in fits.items():
        committed = IdentityCoefficients.from_json_dict(json.loads((GOLDEN / name).read_text()))
        assert np.abs(fitted.values - committed.values).max() <= 1e-12, name
        assert np.array_equal(fitted.identifiable, committed.identifiable), name


def test_golden_shape_constants():
    three = IdentityCoefficients.from_json_dict(
        json.loads((GOLDEN / "h_coeffs_3_3.json").read_text())
    )
    assert abs(three.shape_constant() - 4.0 / 3.0) < 1e-9
    two = IdentityCoefficients.from_json_dict(
        json.loads((GOLDEN / "h_coeffs_2_3.json").read_text())
    )
    assert abs(two.shape_constant() - 1.0) < 1e-9


def test_moment_report_and_dimension_guard():
    with pytest.raises(ValueError):
        decomposition_moment(gaussian(1, 8, 1, 0), 0, 0, 3, 2.0, 2.0)
    report = decomposition_moment(gaussian(2, 8, 1, seed=11), 1, 0, 3, 2.0, 2.0)
    assert report.evaluator == "decomposition_moment"
    assert report.lhs > 0.0
    assert report.ratio is not None
    assert report.n == 2 and report.m == 8 and report.k == 3


def test_moment_symmetry_in_the_disagreement_count():
    f = gaussian(3, 8, 1, seed=12)
    a = decomposition_moment(f, 2, 0, 3, 2.0, 2.0)
    b = decomposition_moment(f, 2, 2, 3, 2.0, 2.0)
    assert abs(a.lhs - b.lhs) < 1e-12 * max(1.0, a.lhs)


def test_index_validation():
    f = gaussian(2, 8, 1, seed=0)
    with pytest.raises(ValueError):
        decomposition_term_table(f, 3, 0, 3, np.array([1, 1]))
    with pytest.raises(ValueError):
        decomposition_term_table(f, 1, 2, 3, np.array([1, 1]))
    with pytest.raises(ValueError):
        decomposition_term_table(f, 1, 0, 3, np.array([1, 2]))
    with pytest.raises(ValueError):
        decomposition_term_table(f, 1, 0, 3, [1.5, -1])
