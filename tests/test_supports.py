from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from enflolab.averaging import (
    SupportSet,
    build_even_box,
    build_parity_shell,
    check_radius,
)
from enflolab.kernels import gather_mean
from enflolab.torus import TorusGeometry


def valid_cells():
    out = []
    for n in (1, 2, 3):
        for m in (8, 12):
            for k in (1, 3, 5):
                if k < m / 2:
                    out.append((n, m, k))
    return out


def test_check_radius_errors():
    check_radius(3, 8)
    with pytest.raises(ValueError):
        check_radius(2, 8)
    with pytest.raises(ValueError):
        check_radius(0, 8)
    with pytest.raises(ValueError):
        check_radius(-1, 8)
    with pytest.raises(ValueError):
        check_radius(4, 8)  # even and at m/2
    with pytest.raises(ValueError):
        check_radius(5, 8)  # not below m/2
    with pytest.raises(ValueError):
        check_radius(True, 8)  # a bool is not a radius


def test_even_box_hand_case():
    g = TorusGeometry(2, 8)
    s = build_even_box(g, [0, 1], 3)
    got = {tuple(row) for row in s.offsets}
    per_axis = {0, 2, 6}
    want = {(a, b) for a in per_axis for b in per_axis}
    assert got == want
    assert s.weight == Fraction(1, 9)


def test_even_box_membership_rule():
    for n, m, k in valid_cells():
        g = TorusGeometry(n, m)
        for size in range(n + 1):
            for axes in combinations(range(n), size):
                s = build_even_box(g, axes, k)
                assert s.count == k ** len(axes)
                for off in s.offsets:
                    for a in range(n):
                        if a in axes:
                            assert off[a] % 2 == 0
                            assert min(off[a] % m, m - off[a] % m) < k
                        else:
                            assert off[a] == 0


def test_parity_shell_membership_rule():
    for n, m, k in valid_cells():
        g = TorusGeometry(n, m)
        for axis in range(n):
            s = build_parity_shell(g, axis, k)
            assert s.count == k * (k + 1) ** (n - 1)
            for off in s.offsets:
                for a in range(n):
                    dist = min(off[a] % m, m - off[a] % m)
                    if a == axis:
                        assert off[a] % 2 == 0
                    else:
                        assert off[a] % 2 == 1
                    assert dist <= k


def test_supports_are_negation_symmetric():
    g = TorusGeometry(3, 12)
    for s in (build_even_box(g, [0, 2], 5), build_parity_shell(g, 1, 5)):
        got = {tuple(row) for row in s.offsets}
        assert {tuple((-np.array(row)) % 12) for row in got} == got


def test_support_set_rejects_bad_weight_and_duplicates():
    g = TorusGeometry(1, 8)
    offs = np.array([[2], [6]])
    SupportSet(g, offs, Fraction(1, 2))
    with pytest.raises(ValueError):
        SupportSet(g, offs, Fraction(1, 3))
    with pytest.raises(ValueError):
        SupportSet(g, np.array([[2], [2]]), Fraction(1, 2))
    with pytest.raises(ValueError):
        # not negation symmetric
        SupportSet(g, np.array([[0], [2]]), Fraction(1, 2))


def test_axis_validation():
    g = TorusGeometry(2, 8)
    with pytest.raises(ValueError):
        build_even_box(g, [0, 0], 3)
    with pytest.raises(ValueError):
        build_even_box(g, [2], 3)
    with pytest.raises(ValueError):
        build_parity_shell(g, 2, 3)
    with pytest.raises(ValueError):
        build_parity_shell(g, -1, 3)


@given(st.sampled_from(valid_cells()))
def test_index_table_matches_direct_lookup(cell):
    n, m, k = cell
    g = TorusGeometry(n, m)
    s = build_parity_shell(g, 0, k)
    table = s.index_table
    assert table.shape == (s.count, g.size)
    pts = g.points()
    for t in (0, s.count - 1):
        want = g.encode((pts + s.offsets[t]) % m)
        assert np.array_equal(table[t], want)


@pytest.mark.parametrize("taps", [1, 9, 192])
def test_gather_mean_reads_an_index_table_of_any_shape(taps):
    # a (taps, 2, 3) index table over a flat table of signed zeros and
    # Gaussians: each entry is bitwise a Python sum from 0.0 in tap order,
    # divided by the tap count
    rng = np.random.default_rng(taps)
    values = rng.standard_normal(60)
    values[::3] = 0.0
    values[1::3] = -0.0
    index = rng.integers(0, values.size, size=(taps, 2, 3))
    got = gather_mean(values, index)
    assert got.shape == (2, 3)
    for point in np.ndindex(2, 3):
        total = 0.0
        for t in range(taps):
            total += float(values[index[(t,) + point]])
        assert np.float64(total / taps).tobytes() == got[point].tobytes(), point
