import numpy as np
import pytest
from hypothesis import given, strategies as st

from enflolab.torus import (
    FunctionTable,
    NormSpec,
    TorusGeometry,
    as_exponent,
    as_norm,
    linf_dist,
    residue_abs,
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


@given(geometries, st.integers(0, 10**6))
def test_encode_decode_round_trip(nm, raw):
    g = TorusGeometry(*nm)
    idx = raw % g.size
    assert g.encode(g.decode(idx)) == idx


def test_encode_is_row_major():
    g = TorusGeometry(2, 4)
    # coordinate 0 is the slow axis
    assert g.encode([1, 2]) == 6
    assert list(g.decode(6)) == [1, 2]
    assert g.encode([5, 2]) == 6  # reduced mod m


def test_encode_stacks():
    g = TorusGeometry(2, 4)
    pts = np.array([[0, 1], [3, 3], [4, 0]])
    assert list(g.encode(pts)) == [1, 15, 0]


def test_points_match_decode():
    g = TorusGeometry(2, 4)
    pts = g.points()
    assert pts.shape == (16, 2)
    for idx in range(16):
        assert list(pts[idx]) == list(g.decode(idx))
    with pytest.raises(ValueError):
        pts[0, 0] = 9  # read-only


def test_residue_functions_on_z8():
    assert [residue_abs(z, 8) for z in range(8)] == [0, 1, 2, 3, 4, 3, 2, 1]


def test_lengths_and_distance():
    assert linf_dist([0, 0], [3, 7], 8) == 3
    assert linf_dist([1, 1], [1, 1], 8) == 0
    arr = linf_dist(np.zeros((2, 2), dtype=int), np.array([[0, 5], [4, 4]]), 8)
    assert list(arr) == [3, 4]


def test_sign_vectors_match_hypercube_encoding():
    for n in (1, 2, 3):
        g = TorusGeometry(n, 2)
        sv = sign_vectors(n)
        assert sv.shape == (2**n, n)
        for idx in range(2**n):
            assert list(sv[idx]) == list(1 - 2 * g.decode(idx))


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


def test_lengths_on_a_long_trailing_axis_match_numpy_norm():
    v = np.random.default_rng(2048).standard_normal((6, 2048))
    for q in (1.0, 1.5, 2.0, np.inf):
        want = np.linalg.norm(v, ord=q, axis=-1)
        np.testing.assert_allclose(NormSpec(q).lengths(v), want, rtol=1e-12, atol=0.0)


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


def test_linear_hypercube_values():
    coeffs = np.array([[1.0, 0.0], [0.0, 2.0]])
    f = FunctionTable.linear_hypercube(coeffs)
    assert f.geometry == TorusGeometry(2, 2)
    sv = sign_vectors(2).astype(float)
    assert np.array_equal(f.values, sv @ coeffs)


def test_constant_and_indicator():
    g = TorusGeometry(1, 8)
    c = FunctionTable.constant(g, [1.5, -2.0])
    assert c.d == 2
    assert np.all(c.values == [1.5, -2.0])
    ind = FunctionTable.indicator(g, [3])
    assert ind.values.sum() == 1.0
    assert ind.values[3, 0] == 1.0
