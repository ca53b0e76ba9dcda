import numpy as np
import pytest
from hypothesis import given, strategies as st

from enflolab.torus import (
    FunctionTable,
    NormSpec,
    TorusGeometry,
    _dyadic_power,
    as_exponent,
    as_norm,
    sign_vectors,
)

geometries = st.tuples(st.integers(1, 3), st.sampled_from([2, 4, 8, 12]))


def test_geometry_validation():
    with pytest.raises(ValueError):
        TorusGeometry(0, 8)
    with pytest.raises(ValueError):
        TorusGeometry(2, 7)
    with pytest.raises(ValueError):
        TorusGeometry(2, 0)
    # True == 1, but a bool n would print as "true" in reports
    with pytest.raises(ValueError):
        TorusGeometry(True, 8)


@given(geometries, st.integers(0, 10**6))
def test_encode_inverts_points(nm, raw):
    g = TorusGeometry(*nm)
    idx = raw % g.size
    assert g.encode(g.points()[idx]) == idx


def test_encode_is_row_major():
    g = TorusGeometry(2, 4)
    # coordinate 0 is the slow axis
    assert g.encode([1, 2]) == 6
    assert list(g.points()[6]) == [1, 2]
    assert g.encode([5, 2]) == 6  # reduced mod m


def test_encode_stacks():
    g = TorusGeometry(2, 4)
    pts = np.array([[0, 1], [3, 3], [4, 0]])
    assert list(g.encode(pts)) == [1, 15, 0]


def test_encode_and_indicator_refuse_what_they_would_truncate():
    g = TorusGeometry(2, 8)
    for coords in ([0.5, 2.9], [1, 2.0], np.array([1.0, 2.0]), [True, False], 5, np.int64(5)):
        with pytest.raises(ValueError):
            g.encode(coords)
    # the point mass must not land on the truncated point (0, 2)
    with pytest.raises(ValueError):
        FunctionTable.indicator(g, [0.5, 2.9])
    # integer arrays of any width keep working
    assert g.encode(np.array([1, 2], dtype=np.int32)) == 10
    assert list(g.encode(np.array([[1, 2], [9, -1]], dtype=np.int8))) == [10, 15]


def test_points_are_row_major_and_read_only():
    g = TorusGeometry(2, 4)
    pts = g.points()
    assert pts.shape == (16, 2)
    for idx in range(16):
        assert list(pts[idx]) == list(np.unravel_index(idx, g.shape))
    with pytest.raises(ValueError):
        pts[0, 0] = 9  # read-only


def test_sign_vectors_match_hypercube_encoding():
    for n in (1, 2, 3):
        g = TorusGeometry(n, 2)
        sv = sign_vectors(n)
        assert sv.shape == (2**n, n)
        for idx in range(2**n):
            assert list(sv[idx]) == list(1 - 2 * g.points()[idx])


@given(
    st.lists(
        st.lists(st.floats(-50, 50, allow_nan=False), min_size=1, max_size=4),
        min_size=1,
        max_size=6,
    ).filter(lambda rows: len({len(r) for r in rows}) == 1)
)
def test_norm_lengths_match_numpy(rows):
    arr = np.array(rows)
    for q in (1.0, 2.0, np.inf, 3.0):
        want = np.linalg.norm(arr, ord=q, axis=-1)
        got = NormSpec(q).lengths(arr)
        assert np.allclose(got, want, atol=1e-12)


@pytest.mark.parametrize("d", range(1, 9))
def test_l1_and_sup_lengths_equal_numpy_reductions_bitwise(d):
    rng = np.random.default_rng(d)
    v = rng.standard_normal((64, 33, d)) * rng.uniform(0.0, 1e3, (64, 33, 1))
    assert np.array_equal(NormSpec(1.0).lengths(v), np.abs(v).sum(axis=-1))
    assert np.array_equal(NormSpec(np.inf).lengths(v), np.abs(v).max(axis=-1))


@pytest.mark.parametrize("q", [1.0, 1.5, 2.0, 3.0, np.inf, 400.0])
def test_lengths_of_one_vectors_are_their_absolute_values_bitwise(q):
    # v^2 leaves the normal range at 1e-200 and 1e200, where sqrt(v^2) is not |v|
    rng = np.random.default_rng(1)
    v = rng.standard_normal((5, 7, 1)) * np.logspace(-8, 8, 7)[:, None]
    v[0, :4, 0] = [1e-200, -1e-200, 1e200, -1e200]
    got = NormSpec(q).lengths(v)
    assert got.shape == (5, 7) and got.tobytes() == np.abs(v[..., 0]).tobytes()


def test_the_one_and_a_half_power_is_x_sqrt_x_within_2_ulp_of_pow():
    x = np.logspace(-300, 300, 6001)
    with np.errstate(over="ignore"):
        got = _dyadic_power(x.copy(), 1.5)
        assert got.tobytes() == (x * np.sqrt(x)).tobytes()
        # nonnegative floats order as their bit patterns, inf one past the largest
        assert np.abs(got.view(np.int64) - np.power(x, 1.5).view(np.int64)).max() <= 2


# largest distance in ulp of _dyadic_power from np.power over
# np.logspace(-300, 300, 6001), where x^e and x^|e| stay normal, measured on a
# 2-core Xeon (numpy 2.4) with numpy's dispatched features on and off; each
# bound is the larger of the two
_DYADIC_ULP = {
    1 / 16: 1, -1 / 16: 2, 1 / 4: 1, -1 / 4: 2, 1 / 2: 0, -1 / 2: 1, 3 / 4: 2, -3 / 4: 3,
    1.0: 0, -1.0: 0, 3 / 2: 1, -3 / 2: 2, 2.0: 0, -2.0: 1, 7.0: 3, -7.0: 4, 8.0: 5, -8.0: 5,
    -14.0: 8, -14.5: 8, -15.0: 7,
}


def test_dyadic_powers_are_within_a_few_ulp_of_pow():
    x = np.logspace(-300, 300, 6001)
    tiny = np.finfo(np.float64).tiny
    with np.errstate(all="ignore"):
        for e, bound in _DYADIC_ULP.items():
            want = np.power(x, e)
            magnitude = np.power(x, abs(e))
            normal = (want >= tiny) & (magnitude >= tiny) & np.isfinite(want + magnitude)
            got = _dyadic_power(x.copy(), e)
            into = np.full_like(x, np.nan)
            assert _dyadic_power(x, e, into) is into and into.tobytes() == got.tobytes()
            # nonnegative floats order as their bit patterns
            gap = np.abs(got[normal].view(np.int64) - want[normal].view(np.int64))
            assert gap.max() <= bound, (e, gap.max())


def test_other_exponents_keep_pow_bitwise():
    # not dyadic with j <= 4, or 0, or beyond 16: all go through np.power
    x = np.logspace(-300, 300, 6001)
    with np.errstate(all="ignore"):
        for e in (1 / 3, 2 / 3, 1.3, 1 / 32, 17.0, -17.0, 0.0):
            assert _dyadic_power(x.copy(), e).tobytes() == np.power(x, e).tobytes(), e


def test_lengths_on_a_long_trailing_axis_match_numpy_norm():
    v = np.random.default_rng(2048).standard_normal((6, 2048))
    for q in (1.0, 1.5, 2.0, np.inf):
        want = np.linalg.norm(v, ord=q, axis=-1)
        np.testing.assert_allclose(NormSpec(q).lengths(v), want, rtol=1e-12, atol=0.0)


def test_lengths_at_a_huge_finite_q_neither_overflow_nor_underflow():
    # |v|^q leaves the normal range at these q; such rows are redone scaled by
    # their largest entry, and every other row keeps the bits of the plain sum
    v = np.array([[3.0, -4.0], [1e-3, 2e-3], [0.0, 0.0], [0.5, 0.25], [0.9, 1.1]])
    for q in (400.0, 800.0, 1e308):
        got = NormSpec(q).lengths(v)
        np.testing.assert_allclose(got, np.abs(v).max(axis=-1), rtol=2e-3, atol=0.0)
    plain = v[[0, 4]]
    want = np.add.reduce(np.abs(plain) ** 400.0, axis=-1) ** (1.0 / 400.0)
    assert np.array_equal(NormSpec(400.0).lengths(v)[[0, 4]], want)


def test_norm_and_exponent_validation():
    with pytest.raises(ValueError):
        NormSpec(0.5)
    with pytest.raises(ValueError):
        NormSpec(np.nan)
    for bad in (0.9, 2.1, np.nan):
        with pytest.raises(ValueError):
            as_exponent(bad)
    assert as_norm("inf").q == np.inf
    assert as_norm(NormSpec(2.0)).q == 2.0
    assert as_exponent(1.5) == 1.5


def test_function_table_basics():
    g = TorusGeometry(2, 4)
    src = np.arange(16.0)
    f = FunctionTable(g, src)
    assert f.d == 1
    assert f.values.shape == (16, 1)
    src[0] = 99.0
    assert f.values[0, 0] == 0.0  # copied on construction
    with pytest.raises(ValueError):
        f.values[0, 0] = 5.0  # write locked
    with pytest.raises(ValueError):
        FunctionTable(g, np.full((16, 1), np.nan))
    with pytest.raises(ValueError):
        FunctionTable(g, np.zeros((15, 1)))


def test_record_round_trip():
    g = TorusGeometry(2, 4)
    rng = np.random.default_rng(0)
    f = FunctionTable.random_gaussian(g, 3, rng)
    rec = f.to_record()
    assert rec["n"] == 2 and rec["m"] == 4 and rec["d"] == 3
    back = FunctionTable.from_record(rec)
    assert np.array_equal(back.values, f.values)
    bad = dict(rec, d=2)
    with pytest.raises(ValueError):
        FunctionTable.from_record(bad)


def test_indicator_is_a_unit_point_mass():
    g = TorusGeometry(1, 8)
    ind = FunctionTable.indicator(g, [3])
    assert ind.values.sum() == 1.0
    assert ind.values[3, 0] == 1.0
