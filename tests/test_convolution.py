import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from enflolab import averaging
from enflolab.averaging import (
    box_average,
    box_average_array,
    build_even_box,
    build_parity_shell,
    convolve,
    convolve_box_separable,
    convolve_shell_separable,
)
from enflolab.inequalities import edge_energy
from enflolab.kernels import window_sums
from enflolab.torus import FunctionTable, TorusGeometry

from itertools import combinations


def cells():
    out = []
    for n in (1, 2, 3):
        for m in (4, 8, 12):
            for k in (1, 3, 5):
                if k < m / 2:
                    out.append((n, m, k))
    return out


def random_table(n, m, d, seed):
    g = TorusGeometry(n, m)
    return FunctionTable.random_gaussian(g, d, np.random.default_rng(seed))


def window_cases():
    """(blocks, start, width, step) over a grid of shapes, wrapped starts, widths and steps."""
    rng = np.random.default_rng(0)
    shapes = [
        (5, 8, (1, 2, 4, 7, 8)),
        (1, 8, (1, 3, 8)),
        (3, 4, (1, 2, 3, 4)),
        (2, 32, (31, 32)),
        (2, 64, (63, 64)),
    ]
    for rows, length, widths in shapes:
        blocks = rng.normal(size=(rows, length))
        for start in (-2 * length - 3, -length - 1, -3, -1, 0, 2, length + 5):
            for width in widths:
                for step in (1, 2, 3, 6, length - 1, length, 2 * length + 1):
                    yield blocks, start, width, step


def test_window_sums_match_direct():
    for blocks, start, width, step in window_cases():
        rows, length = blocks.shape
        got = window_sums(blocks, start, width, step)
        assert got.shape == (rows, length)
        assert not np.shares_memory(got, blocks)
        want = np.zeros_like(blocks)
        for s in range(length):
            for t in range(width):
                want[:, s] += blocks[:, (s + start + t * step) % length]
        assert np.allclose(got, want, atol=1e-12)
        default = window_sums(blocks, start, width)
        assert default.tobytes() == window_sums(blocks, start, width, 1).tobytes()
    for width in (0, 9):
        with pytest.raises(ValueError):
            window_sums(np.ones((2, 8)), 0, width)
    for step in (0, -2):
        with pytest.raises(ValueError):
            window_sums(np.ones((2, 8)), 0, 3, step)
    for blocks in (np.ones(8), np.ones((2, 2, 8)), np.float64(1.0)):
        with pytest.raises(ValueError):
            window_sums(blocks, 0, 1)
    for start, width, step in [
        (0.0, 3, 1),
        (np.float64(-1.0), 3, 1),
        (True, 3, 1),
        (0, True, 1),
        (0, 3.0, 1),
        (0, np.float64(3.0), 1),
        (0, 3, 2.0),
        (0, 3, True),
        (0, 3, np.bool_(True)),
    ]:
        with pytest.raises(ValueError):
            window_sums(np.ones((2, 8)), start, width, step)


def oracle_doubling_window_sums(blocks, start, width, step=1):
    """window_sums as the binary-digit doubling kernel first computed it, kept as an oracle.

    It doubles the whole span at every digit and adds the top digit into a
    new array; the kernel must give the same bits in the same add order.
    """
    rows, length = blocks.shape
    pieces, first, rest = [], start % length, length + (width - 1) * step
    while rest > 0:
        pieces.append(blocks[:, first : first + rest])
        rest -= pieces[-1].shape[1]
        first = 0
    span = np.concatenate(pieces, axis=1)
    out = None
    offset, taps, rest = 0, 1, width
    while True:
        if rest & 1:
            part = span[:, offset : offset + length]
            out = part if out is None else out + part
            offset += taps * step
        rest >>= 1
        if not rest:
            return out
        span = span[:, : -taps * step] + span[:, taps * step :]
        taps *= 2


def test_window_sums_are_bitwise_the_doubling_oracle():
    cases = list(window_cases())
    # the axis passes of an n = 4, m = 16, d = 3 table: rows of m * post
    # entries, an even window of width k from (1 - k) post and an odd one of
    # width k + 1 from -k post, both stepping 2 post
    g = TorusGeometry(4, 16)
    values = random_table(4, 16, 3, seed=4163).values
    for axis in range(4):
        post = g.m ** (g.n - 1 - axis) * 3
        rows = values.reshape(-1, g.m * post)
        for k in (3, 7):
            cases.append((rows, (1 - k) * post, k, 2 * post))
            cases.append((rows, -k * post, k + 1, 2 * post))
    for blocks, start, width, step in cases:
        got = window_sums(blocks, start, width, step)
        want = oracle_doubling_window_sums(blocks, start, width, step)
        assert got.tobytes() == want.tobytes(), (blocks.shape, start, width, step)
        assert got.shape == want.shape
        assert got.flags.writeable and not np.shares_memory(got, blocks)
    # numpy integers are integers
    blocks = cases[0][0]
    got = window_sums(blocks, np.int64(-3), np.int32(3), np.int64(2))
    assert got.tobytes() == window_sums(blocks, -3, 3, 2).tobytes()


def test_box_worked_example():
    g = TorusGeometry(1, 8)
    f = FunctionTable.indicator(g, [0])
    avg = box_average(f, [0], 3)
    want = np.array([1 / 3, 0, 1 / 3, 0, 0, 0, 1 / 3, 0])
    assert np.allclose(avg.values.ravel(), want, atol=1e-15)


def test_separable_box_matches_naive():
    worst = 0.0
    for n, m, k in cells():
        g = TorusGeometry(n, m)
        for d in (1, 4):
            f = random_table(n, m, d, seed=(n * 100 + m * 10 + k + d))
            for size in range(n + 1):
                for axes in combinations(range(n), size):
                    naive = convolve(f, build_even_box(g, axes, k))
                    fast = convolve_box_separable(f, axes, k)
                    worst = max(worst, float(np.abs(naive.values - fast.values).max()))
    assert worst < 1e-12, worst


def test_separable_shell_matches_naive():
    worst = 0.0
    for n, m, k in cells():
        g = TorusGeometry(n, m)
        for d in (1, 4):
            f = random_table(n, m, d, seed=(n * 97 + m * 13 + k + d))
            for axis in range(n):
                naive = convolve(f, build_parity_shell(g, axis, k))
                fast = convolve_shell_separable(f, axis, k)
                worst = max(worst, float(np.abs(naive.values - fast.values).max()))
    assert worst < 1e-12, worst


def test_shell_equals_box_at_n1():
    f = random_table(1, 12, 2, seed=5)
    for k in (1, 3, 5):
        a = convolve_shell_separable(f, 0, k)
        b = box_average(f, [0], k)
        assert np.allclose(a.values, b.values, atol=1e-12)


def test_constants_are_fixed_exactly():
    g = TorusGeometry(3, 8)
    c = FunctionTable.constant(g, [0.1, -7.3])
    for out in (
        box_average(c, range(3), 3),
        convolve_box_separable(c, [0, 2], 3),
        convolve_shell_separable(c, 1, 3),
        convolve(c, build_parity_shell(g, 0, 3)),
    ):
        assert np.array_equal(out.values, c.values)


@pytest.mark.parametrize("d", [1, 3, 8])
def test_constant_test_is_the_broadcast_comparison_with_row_zero(d):
    # neighbouring rows against every row against row 0, member by member
    rng = np.random.default_rng(d)
    rows = 64
    column = rng.standard_normal(d)
    signed_zeros = np.where(rng.integers(0, 2, (rows, d)) == 1, 0.0, -0.0)
    one_off = np.tile(column, (rows, 1))
    one_off[37, d - 1] = np.nextafter(column[d - 1], np.inf)
    late_nan = np.tile(column, (rows, 1))
    late_nan[rows - 1, 0] = np.nan
    first_nan = np.tile(column, (rows, 1))
    first_nan[0, 0] = np.nan
    stack = np.stack(
        [
            np.tile(column, (rows, 1)),
            signed_zeros,
            rng.standard_normal((rows, d)),
            one_off,
            late_nan,
            first_nan,
            np.full((rows, d), 2.5),
        ]
    )
    broadcast = np.all(stack == stack[..., :1, :], axis=(-2, -1))
    assert broadcast.tolist() == [True, True, False, False, False, False, True]
    assert np.array_equal(averaging._is_constant(stack), broadcast)
    assert np.array_equal(averaging._is_constant(stack.reshape(7, 1, rows, d)), broadcast[:, None])
    for member, expected in zip(stack, broadcast):
        assert averaging._is_constant(member) == expected


def test_radius_one_box_is_identity_exactly():
    f = random_table(2, 8, 3, seed=9)
    assert np.array_equal(convolve_box_separable(f, [0, 1], 1).values, f.values)
    assert np.array_equal(box_average(f, [0], 1).values, f.values)
    assert np.array_equal(box_average(f, [], 3).values, f.values)


def test_box_average_array_matches_table_path():
    g = TorusGeometry(2, 8)
    f = random_table(2, 8, 2, seed=11)
    arr = box_average_array(g, f.values, (0, 1), 3)
    tab = convolve_box_separable(f, (0, 1), 3)
    assert np.allclose(arr, tab.values, atol=1e-15)
    out = box_average_array(g, f.values, (), 3)
    assert np.array_equal(out, f.values)
    out.fill(0.0)  # must be a safe copy
    assert not np.array_equal(out, f.values)


def test_box_average_array_averages_each_member_of_a_stack_bitwise():
    # members are averaged on their own; a constant member stays bitwise
    # itself next to members that are not constant
    rng = np.random.default_rng(12)
    for n, m in ((1, 8), (2, 8), (3, 12), (2, 16)):
        g = TorusGeometry(n, m)
        for d in (1, 3):
            stack = rng.standard_normal((4, g.size, d))
            stack[1] = np.tile(rng.standard_normal(d) / 3.0, (g.size, 1))
            for k in range(1, m // 2, 2):
                for axes in [tuple(range(n)), (n - 1,), ()]:
                    got = box_average_array(g, stack, axes, k)
                    assert got.shape == stack.shape
                    assert np.array_equal(got[1], stack[1])
                    for r in range(4):
                        want = box_average_array(g, stack[r], axes, k)
                        assert got[r].tobytes() == want.tobytes(), (n, m, d, k, axes, r)
    # a stack of constants comes back as an equal copy
    flat = np.tile(np.array([0.1, -7.3]), (2, 64, 1))
    for k in (1, 3):
        out = box_average_array(TorusGeometry(2, 8), flat, range(2), k)
        assert np.array_equal(out, flat) and not np.shares_memory(out, flat)


def oracle_axis_window_pass(values, geometry, axis, k, odd_window):
    """The per-axis window pass by moveaxis and parity copies, kept as an oracle."""
    n, m = geometry.n, geometry.m
    d = values.shape[1]
    nd = values.reshape(geometry.shape + (d,))
    arr = np.moveaxis(nd, axis, n)  # active grid axis last, after d
    lead = arr.shape[:-1]
    flat = np.ascontiguousarray(arr).reshape(-1, m)
    even_rows = np.ascontiguousarray(flat[:, 0::2])
    odd_rows = np.ascontiguousarray(flat[:, 1::2])
    if odd_window:
        out_even = window_sums(odd_rows, -((k + 1) // 2), k + 1)
        out_odd = window_sums(even_rows, -((k - 1) // 2), k + 1)
    else:
        r = (k - 1) // 2
        out_even = window_sums(even_rows, -r, k)
        out_odd = window_sums(odd_rows, -r, k)
    out = np.empty_like(flat)
    out[:, 0::2] = out_even
    out[:, 1::2] = out_odd
    restored = np.moveaxis(out.reshape(lead + (m,)), n, axis)
    return restored.reshape(values.shape)


def test_separable_paths_are_bitwise_the_oracle_pass(monkeypatch):
    def averages(f, axis_sets):
        out = [convolve_shell_separable(f, axis, k).values for axis in range(n)]
        for axes in axis_sets:
            out.append(convolve_box_separable(f, axes, k).values)
            out.append(box_average_array(f.geometry, f.values, axes, k))
        return out

    for n in (1, 2, 3, 4):
        if n <= 3:
            axis_sets = [c for size in range(n + 1) for c in combinations(range(n), size)]
        else:
            axis_sets = [(0, 1, 2, 3), (1, 3), (2,)]
        for m in (4, 8, 12, 16):
            for d in (1, 3, 9):
                f = random_table(n, m, d, seed=n * 1000 + m * 10 + d)
                for k in range(1, m // 2, 2):
                    got = averages(f, axis_sets)
                    with monkeypatch.context() as patch:
                        patch.setattr(averaging, "_axis_window_pass", oracle_axis_window_pass)
                        want = averages(f, axis_sets)
                    for a, b in zip(got, want):
                        assert a.shape == b.shape and a.tobytes() == b.tobytes(), (n, m, d, k)


@given(st.sampled_from(cells()), st.integers(0, 500))
@settings(max_examples=15)
def test_averaging_contracts_edge_energy(cell, seed):
    n, m, k = cell
    f = random_table(n, m, 2, seed)
    smooth = box_average(f, range(n), k)
    before = edge_energy(f, 2.0, 2.0)
    after = edge_energy(smooth, 2.0, 2.0)
    assert after <= before * (1 + 1e-12) + 1e-15


def test_geometry_mismatch_rejected():
    g8 = TorusGeometry(2, 8)
    g12 = TorusGeometry(2, 12)
    f = FunctionTable.random_gaussian(g8, 1, np.random.default_rng(0))
    with pytest.raises(ValueError):
        convolve(f, build_even_box(g12, [0], 3))


# one average per construction path: the single-axis stencil, the separable
# box and the separable shell
ADOPTING_AVERAGES = {
    "box_1_axis": lambda f: box_average(f, [1], 3),
    "box_3_axes": lambda f: box_average(f, range(3), 3),
    "shell": lambda f: convolve_shell_separable(f, 0, 3),
}


@pytest.mark.parametrize("name", sorted(ADOPTING_AVERAGES))
def test_averages_are_read_only_and_share_no_memory_with_their_input(name):
    f = random_table(3, 8, 2, seed=21)
    out = ADOPTING_AVERAGES[name](f)
    assert out is not f
    assert not out.values.flags.writeable
    assert not np.shares_memory(out.values, f.values)
    with pytest.raises(ValueError):
        out.values[0, 0] = 1.0


@pytest.mark.parametrize("name", sorted(ADOPTING_AVERAGES))
def test_an_average_that_overflows_is_refused(name):
    values = np.full((8**3, 1), 1.5e308)
    values[0, 0] = 0.0
    f = FunctionTable(TorusGeometry(3, 8), values)
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite"):
        ADOPTING_AVERAGES[name](f)
