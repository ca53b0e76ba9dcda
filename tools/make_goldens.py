"""Regenerate the committed golden files under tests/golden/.

Two artifact families:
  - h_coeffs_{n}_{k}.json: fitted identity coefficients for the reference
    cells. The fit is deterministic (it solves the impulse-response
    system), so the files carry no seed.
  - moment_baselines.json: empirical suprema of the smoothing ratio and the
    per-(i, l) difference-term moments over a fixed random-table protocol.
    The smoothing ratio is computed here from the shared smoothing
    declaration over the naive stencil convolution on purpose, so the
    committed numbers are independent of the separable fast path they are
    later compared against. The suprema are written to 12 significant
    digits: their last bits follow the platform's summation order, and a
    rerun should reproduce the file byte for byte.

Rerun only to change the protocol; commit the diff.
"""

import json
import pathlib
import sys

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parent.parent
# the checkout's own package, as tools/compare_outputs.py runs it, so the
# tool needs no install
sys.path.insert(0, str(ROOT / "src"))

from enflolab.averaging import build_even_box, convolve
from enflolab.identity import decomposition_moment, fit_identity_coefficients
from enflolab.inequalities import inequality_sides
from enflolab.torus import FunctionTable, TorusGeometry, as_exponent, as_norm

GOLDEN_DIR = ROOT / "tests" / "golden"

FIT_CELLS = [(1, 3), (2, 1), (2, 3), (3, 3)]
FIT_M = 8

MOMENT_CELLS = [(2, 8, 3), (3, 12, 5)]
MOMENT_TABLES = 200
MOMENT_SEED_TAG = 8301
MOMENT_P = 2.0
MOMENT_Q = 2.0
BASELINE_DIGITS = 12


def rounded(value: float) -> float:
    return float(f"{value:.{BASELINE_DIGITS}g}")


def naive_smoothing_ratio(f: FunctionTable, k: int, norm, p: float):
    """Smoothing ratio through the naive stencil, bypassing the fast path."""
    g = f.geometry
    norm, p = as_norm(norm), as_exponent(p)

    def stencil(vals, radius):  # B f through the stencil; vals is f.values
        return convolve(f, build_even_box(g, range(g.n), radius)).values

    lhs, rhs = (
        side.scale * side.moment(side.read(f.values, stencil).reshape(g.shape + (f.d,)), norm, p)
        for side in inequality_sides("smoothing", g, k, p)
    )
    return None if rhs == 0.0 else lhs / rhs


def fit_goldens() -> dict:
    """The fitted coefficients of every reference cell, by golden file name."""
    return {
        f"h_coeffs_{n}_{k}.json": fit_identity_coefficients(TorusGeometry(n, FIT_M), k)
        for n, k in FIT_CELLS
    }


def make_fit_goldens() -> None:
    for name, coeffs in fit_goldens().items():
        path = GOLDEN_DIR / name
        path.write_text(json.dumps(coeffs.to_json_dict(), sort_keys=True, indent=2) + "\n")
        print(f"wrote {path.name}")


def make_moment_baselines() -> None:
    norm = as_norm(MOMENT_Q)
    cells = []
    for n, m, k in MOMENT_CELLS:
        geometry = TorusGeometry(n, m)
        rng = np.random.default_rng([MOMENT_SEED_TAG, n, m, k])
        pairs = [(i, l) for i in range(n) for l in range(i + 1)]
        smoothing_sup = 0.0
        moment_sup = {pair: 0.0 for pair in pairs}
        for _ in range(MOMENT_TABLES):
            f = FunctionTable.random_gaussian(geometry, 1, rng)
            ratio = naive_smoothing_ratio(f, k, norm, MOMENT_P)
            if ratio is not None:
                smoothing_sup = max(smoothing_sup, ratio)
            for pair in pairs:
                rep = decomposition_moment(f, pair[0], pair[1], k, norm, MOMENT_P)
                if rep.ratio is not None:
                    moment_sup[pair] = max(moment_sup[pair], rep.ratio)
        cells.append(
            {
                "n": n,
                "m": m,
                "k": k,
                "smoothing_sup": rounded(smoothing_sup),
                "moment_sup": {f"{i},{l}": rounded(v) for (i, l), v in moment_sup.items()},
            }
        )
        print(f"cell ({n},{m},{k}): smoothing_sup={smoothing_sup:.6f}")
    payload = {
        "protocol": {
            "seed_tag": MOMENT_SEED_TAG,
            "tables_per_cell": MOMENT_TABLES,
            "p": MOMENT_P,
            "q": MOMENT_Q,
            "d": 1,
            "rng": "default_rng([seed_tag, n, m, k])",
            "significant_digits": BASELINE_DIGITS,
        },
        "cells": cells,
    }
    path = GOLDEN_DIR / "moment_baselines.json"
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    print(f"wrote {path.name}")


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    make_fit_goldens()
    make_moment_baselines()
