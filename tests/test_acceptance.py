"""End-to-end acceptance checks, one test per release criterion.

Run with -v to get one pass/fail line per criterion. The tolerances here
are contractual; loosening any of them needs a changelog entry.
"""

import json
import math
import subprocess
import sys
import time
from itertools import combinations, product
from pathlib import Path

import numpy as np

from enflolab.averaging import (
    build_even_box,
    build_parity_shell,
    convolve,
    convolve_box_separable,
)
from enflolab.identity import (
    coefficient_pairs,
    decomposition_moment,
    fit_identity_coefficients,
    verify_identity,
)
from enflolab.inequalities import (
    approximation_ratio,
    enflo_ratio,
    pisier_ratio,
    rademacher_ratio,
    smoothing_ratio,
)
from enflolab.torus import FunctionTable, TorusGeometry, residue_abs

GOLDEN = Path(__file__).parent / "golden"


def gaussian(n, m, d, rng):
    return FunctionTable.random_gaussian(TorusGeometry(n, m), d, rng)


def test_criterion_1_support_cardinalities_exhaustive():
    started = time.perf_counter()
    supports = 0
    for n, m, k in product((1, 2, 3), (8, 12, 16), (1, 3, 5)):
        if not k < m / 2:
            continue
        g = TorusGeometry(n, m)
        pts = g.points()
        res = residue_abs(pts, m)
        even = pts % 2 == 0
        for size in range(n + 1):
            for axes in combinations(range(n), size):
                support = build_even_box(g, axes, k)
                assert support.count == k ** len(axes)
                inside = np.ones(g.size, dtype=bool)
                for a in range(n):
                    if a in axes:
                        inside &= even[:, a] & (res[:, a] < k)
                    else:
                        inside &= pts[:, a] == 0
                members = {tuple(row) for row in support.offsets.tolist()}
                assert members == {tuple(row) for row in pts[inside].tolist()}
                supports += 1
        for axis in range(n):
            support = build_parity_shell(g, axis, k)
            assert support.count == k * (k + 1) ** (n - 1)
            inside = res[:, axis] <= k
            for a in range(n):
                parity = 0 if a == axis else 1
                inside &= (pts[:, a] % 2 == parity) & (res[:, a] <= k)
            members = {tuple(row) for row in support.offsets.tolist()}
            assert members == {tuple(row) for row in pts[inside].tolist()}
            supports += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, elapsed
    print(f"criterion 1: {supports} supports enumerated exhaustively in {elapsed:.2f}s")


def test_criterion_2_identity_coefficient_recovery():
    started = time.perf_counter()
    for n, k, m in ((1, 3, 8), (2, 1, 8), (2, 3, 8), (3, 3, 8)):
        g = TorusGeometry(n, m)
        fitted = fit_identity_coefficients(g, k)
        assert abs(fitted.coefficient(0, 0) - 1.0) <= 1e-6
        residual = verify_identity(fitted, g, k, n_samples=200).max_residual
        assert residual < 1e-8, (n, k, residual)
        for l in range(n + 1):
            assert not fitted.is_identifiable(n, l)
        c_fit = fitted.shape_constant()
        for i, l in coefficient_pairs(n):
            if fitted.is_identifiable(i, l):
                bound = math.factorial(i - l) * math.factorial(l) / 2.0**i
                assert abs(fitted.coefficient(i, l)) <= c_fit * bound + 1e-12
        assert c_fit <= 1.5, c_fit
        print(f"criterion 2: cell (n={n}, k={k}) residual {residual:.2e} C_fit {c_fit:.4f}")
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0, elapsed


def test_criterion_3_approximation_bound_sweep():
    rng = np.random.default_rng(31)
    evaluations = 0
    for n, m in product((1, 2, 3), (8, 12)):
        for k in (1, 3, 5):
            if not k < m / 2:
                continue
            for p, q, d in product((1.0, 1.5, 2.0), (1.0, 2.0, math.inf), (1, 2, 3)):
                for _ in range(3):
                    f = gaussian(n, m, d, rng)
                    report = approximation_ratio(f, k, q, p)
                    if not report.degenerate:
                        assert report.lhs <= report.rhs * (1.0 + 1e-9)
                    evaluations += 1
    assert evaluations >= 1000, evaluations
    hand = approximation_ratio(FunctionTable.indicator(TorusGeometry(1, 8), [0]), 3, 2.0, 2.0)
    assert abs(hand.lhs - 1.0 / 12.0) < 1e-12
    assert hand.rhs == 1.0
    print(f"criterion 3: {evaluations} bound evaluations, hand cell lhs {hand.lhs:.12f}")


def test_criterion_4_hilbert_exactness():
    rng = np.random.default_rng(41)
    for _ in range(100):
        vectors = rng.normal(size=(int(rng.integers(1, 8)), int(rng.integers(1, 5))))
        report = rademacher_ratio(vectors, 2.0, 2.0)
        assert abs(report.ratio - 1.0) < 1e-12
    exponents = list(product((1.0, 1.5, 2.0), (1.0, 2.0, math.inf)))
    for trial in range(30):
        coeffs = rng.normal(size=(int(rng.integers(2, 7)), int(rng.integers(1, 4))))
        table = FunctionTable.linear_hypercube(coeffs)
        p, q = exponents[trial % len(exponents)]
        a = enflo_ratio(table, q, p)
        b = rademacher_ratio(coeffs, q, p)
        assert abs(a.ratio - b.ratio) < 1e-12
    print("criterion 4: 100 quadratic identities and 30 linear-table matches exact")


def test_criterion_5_pisier_bound():
    worst = 0.0
    for n in (4, 8):
        rng = np.random.default_rng(50 + n)
        g = TorusGeometry(n, 2)
        for t in range(500):
            f = FunctionTable.random_gaussian(g, 1 + t % 3, rng)
            f = FunctionTable(g, f.values - f.values.mean(axis=0))
            for p, q in product((1.0, 2.0), (1.0, 2.0, math.inf)):
                ratio = pisier_ratio(f, q, p).ratio
                assert ratio <= 1.0, (n, p, q, ratio)
                worst = max(worst, ratio)
    recorded = {}
    for n in (2, 3):
        rng = np.random.default_rng(50 + n)
        g = TorusGeometry(n, 2)
        ratios = [
            pisier_ratio(FunctionTable.random_gaussian(g, 2, rng), 2.0, 2.0).ratio
            for _ in range(20)
        ]
        recorded[n] = (min(ratios), max(ratios))
    print(f"criterion 5: max asserted ratio {worst:.4f}, small-n recorded {recorded}")


def test_criterion_6_convolution_oracle_and_speed():
    rng = np.random.default_rng(61)
    worst = 0.0
    for n, m in product((1, 2, 3), (8, 12)):
        g = TorusGeometry(n, m)
        for k in (1, 3, 5):
            if not k < m / 2:
                continue
            f = FunctionTable.random_gaussian(g, 4, rng)
            naive = convolve(f, build_even_box(g, range(n), k))
            fast = convolve_box_separable(f, range(n), k)
            worst = max(worst, float(np.abs(naive.values - fast.values).max()))
    assert worst < 1e-12, worst

    g = TorusGeometry(3, 16)
    f = FunctionTable.random_gaussian(g, 4, np.random.default_rng(62))
    support = build_even_box(g, range(3), 7)
    support.index_table  # build the gather table outside the timed region
    convolve(f, support)
    convolve_box_separable(f, range(3), 7)

    def best_of(runs, call):
        times = []
        for _ in range(runs):
            t0 = time.perf_counter()
            call()
            times.append(time.perf_counter() - t0)
        return min(times)

    naive_t = best_of(3, lambda: convolve(f, support))
    fast_t = best_of(3, lambda: convolve_box_separable(f, range(3), 7))
    speedup = naive_t / fast_t
    assert speedup >= 5.0, (naive_t, fast_t, speedup)
    print(f"criterion 6: max |separable - naive| {worst:.2e}, speedup {speedup:.1f}x")


def test_criterion_7_composite_chain(composite):
    min_margin = math.inf
    for n, m, k in ((2, 8, 3), (3, 12, 5)):
        rng = np.random.default_rng(70 + n)
        for _ in range(500):
            f = gaussian(n, m, 1, rng)
            for p in (1.0, 2.0):
                report = composite(f, k, 2.0, p)
                assert report.ratio is not None and report.ratio <= 1.0 + 1e-9
                min_margin = min(min_margin, (report.rhs - report.lhs) / report.rhs)
    assert min_margin > 0.0
    print(f"criterion 7: 2000 composite checks, min relative margin {min_margin:.4f}")


def test_criterion_8_telemetry_matches_baselines():
    payload = json.loads((GOLDEN / "moment_baselines.json").read_text())
    protocol = payload["protocol"]
    assert protocol["tables_per_cell"] == 200
    for cell in payload["cells"]:
        n, m, k = cell["n"], cell["m"], cell["k"]
        rng = np.random.default_rng([protocol["seed_tag"], n, m, k])
        tables = [gaussian(n, m, 1, rng) for _ in range(protocol["tables_per_cell"])]
        smoothing_sup = max(smoothing_ratio(f, k, 2.0, 2.0).ratio for f in tables)
        baseline = cell["smoothing_sup"]
        assert baseline / 1.1 <= smoothing_sup <= baseline * 1.1, (n, smoothing_sup)
        for key, frozen in cell["moment_sup"].items():
            i, l = (int(part) for part in key.split(","))
            sup = max(decomposition_moment(f, i, l, k, 2.0, 2.0).ratio for f in tables)
            assert frozen / 1.1 <= sup <= frozen * 1.1, (n, key, sup)
        print(f"criterion 8: cell ({n},{m},{k}) suprema within x1.1 of baselines")


def test_criterion_9_cli_determinism(tmp_path):
    config = {
        "schema_version": 1,
        "command": "check-lemmas",
        "n_values": [1, 2],
        "m_values": [8],
        "k_values": [1, 3],
        "p_values": [1.0, 2.0],
        "q_values": [2.0],
        "d_values": [1],
        "tables_per_cell": 3,
        "seed": 90,
    }
    outputs = []
    for label, threads in (("a", "1"), ("b", "1"), ("c", "4")):
        out = tmp_path / label
        out.mkdir()
        cfg_path = out / "config.json"
        cfg_path.write_text(json.dumps(config))
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "enflolab.cli",
                "--config",
                str(cfg_path),
                "--out",
                str(out),
                "--threads",
                threads,
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(
            {
                p.name: p.read_bytes()
                for p in sorted(out.iterdir())
                if p.name != "config.json"
            }
        )
    assert outputs[0] == outputs[1] == outputs[2]
    assert set(outputs[0]) == {"report.csv", "run_manifest.json"}
    print("criterion 9: byte-identical outputs across reruns and thread counts")
