"""Decomposition identity laboratory: difference terms, coefficient recovery.

For a fixed radius k, the left side sums over axes j the sign-weighted
difference of the parity-shell average at x + e_j and x - e_j. The right
side is a linear combination, with unknown scalar coefficients, of signed
difference terms indexed by a subset size i and a disagreement count l:
each term sums, over all size-i coordinate subsets S and all sign patterns
that disagree with eps in exactly l places of S, the difference of the box
average over the complement of S at x + k delta + eps_off and at
x + k delta - eps_off, where eps_off carries the signs of eps off S.

Both sides are translation-invariant linear maps of the table, so the
coefficients are recovered per (n, k) by least squares over the impulse
response: one deterministic equation per point of the torus. The
combination is exactly satisfiable, but the feature map can be rank
deficient (the full-subset terms vanish identically, and more
dependencies appear at k = 1), so the known normalization at (0, 0) is
pinned to 1, the remaining coefficients are solved minimum-norm, and a
per-coefficient identifiability mask derived from the feature null space is
reported instead of pretending uniqueness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .averaging import box_average, check_radius, convolve_shell_separable
from .inequalities import RatioReport, _build_report, _grid_moment, edge_energy, shift_difference
from .torus import FunctionTable, TorusGeometry, as_exponent, as_norm, sign_vectors

__all__ = [
    "IdentityCoefficients",
    "IdentityCheck",
    "decomposition_term_table",
    "shell_difference_sum",
    "shell_difference_sum_table",
    "fit_identity_coefficients",
    "verify_identity",
    "decomposition_moment",
    "coefficient_pairs",
    "coefficient_scale",
    "IDENTITY_RESIDUAL_TOL",
    "REPLAY_SAMPLES",
]

# fitted values below this size count as zero when masking identifiability
_NULL_COMPONENT_TOL = 1e-8

# a replayed identity passes when its worst residual is below this; read at
# call time, and no config or argument overrides it
IDENTITY_RESIDUAL_TOL = 1e-8

# the replay's default sample count, also the heldout_samples config default
REPLAY_SAMPLES = 200


def coefficient_pairs(n: int) -> list[tuple[int, int]]:
    """All (subset size, disagreement count) index pairs for dimension n."""
    return [(i, l) for i in range(n + 1) for l in range(i + 1)]


def coefficient_scale(n: int, k: int, i: int) -> float:
    """The fixed weight k^(n-i-1) / (k+1)^(n-1) multiplying each term."""
    return float(k) ** (n - i - 1) / float(k + 1) ** (n - 1)


def _check_indices(n: int, i: int, l: int) -> None:
    if not 0 <= i <= n:
        raise ValueError("subset size i must lie in [0, n]")
    if not 0 <= l <= i:
        raise ValueError("disagreement count l must lie in [0, i]")


def _check_signs(eps, n: int) -> np.ndarray:
    arr = np.asarray(eps, dtype=np.int64)
    if arr.shape != (n,) or not np.all(np.abs(arr) == 1):
        raise ValueError("eps must be a length-n vector of +-1 signs")
    return arr


def _term_shifts(geometry: TorusGeometry, k: int, i: int, l: int, eps: np.ndarray):
    """Yield (subset, plus shift, minus shift) for every signed configuration.

    For each size-i subset there are exactly binom(i, l) sign patterns with l
    disagreements, generated directly by choosing the flipped positions.
    """
    n, m = geometry.n, geometry.m
    for subset in combinations(range(n), i):
        eps_off = eps.copy()
        eps_off[list(subset)] = 0
        base = np.zeros(n, dtype=np.int64)
        for flips in combinations(subset, l):
            for a in subset:
                sign = -eps[a] if a in flips else eps[a]
                base[a] = (k * sign) % m
            yield subset, (base + eps_off) % m, (base - eps_off) % m


def _complement_tables(f: FunctionTable, k: int, sizes) -> dict:
    """Box averages over the complement of every subset of the given sizes."""
    g = f.geometry
    out = {}
    for i in sizes:
        for subset in combinations(range(g.n), i):
            comp = tuple(a for a in range(g.n) if a not in subset)
            out[subset] = box_average(f, comp, k).values
    return out


def decomposition_term_table(
    f: FunctionTable, i: int, l: int, k: int, eps, tables: dict | None = None
) -> np.ndarray:
    """One signed difference term tabulated over every x, as an (m^n, d) array."""
    g = f.geometry
    _check_indices(g.n, i, l)
    check_radius(k, g.m)
    ev = _check_signs(eps, g.n)
    if tables is None:
        tables = _complement_tables(f, k, [i])
    shape = g.shape + (f.d,)
    acc = np.zeros(shape)
    for subset, plus, minus in _term_shifts(g, k, i, l, ev):
        acc += shift_difference(plus, minus).apply(tables[subset].reshape(shape))
    return acc.reshape(f.values.shape)


def shell_difference_sum(f: FunctionTable, k: int, x, eps) -> np.ndarray:
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


def shell_difference_sum_table(f: FunctionTable, k: int, eps) -> np.ndarray:
    """The shell difference sum tabulated over every x."""
    g = f.geometry
    check_radius(k, g.m)
    ev = _check_signs(eps, g.n)
    shape = g.shape + (f.d,)
    acc = np.zeros(shape)
    for axis in range(g.n):
        nd = convolve_shell_separable(f, axis, k).values.reshape(shape)
        acc += float(ev[axis]) * shift_difference((1,), (-1,), axes=(axis,)).apply(nd)
    return acc.reshape(f.values.shape)


@dataclass(frozen=True, eq=False)
class IdentityCoefficients:
    """Fitted combination coefficients for one (n, k) cell.

    values and identifiable are (n+1, n+1) arrays whose lower triangle is
    meaningful; entry (i, l) is the coefficient for subset size i and
    disagreement count l. How well the coefficients hold is verify_identity's
    to say.
    """

    n: int
    k: int
    values: np.ndarray
    identifiable: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=np.float64).copy()
        mask = np.asarray(self.identifiable, dtype=bool).copy()
        shape = (self.n + 1, self.n + 1)
        if vals.shape != shape or mask.shape != shape:
            raise ValueError("coefficient arrays must have shape (n+1, n+1)")
        vals.setflags(write=False)
        mask.setflags(write=False)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "identifiable", mask)

    def coefficient(self, i: int, l: int) -> float:
        _check_indices(self.n, i, l)
        return float(self.values[i, l])

    def is_identifiable(self, i: int, l: int) -> bool:
        _check_indices(self.n, i, l)
        return bool(self.identifiable[i, l])

    def shape_constant(self) -> float:
        """Largest |coefficient| relative to (i-l)! l! / 2^i over identifiable entries."""
        worst = 0.0
        for i, l in coefficient_pairs(self.n):
            if self.identifiable[i, l]:
                bound = math.factorial(i - l) * math.factorial(l) / 2.0**i
                worst = max(worst, float(abs(self.values[i, l])) / bound)
        return worst

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "h": [[float(self.values[i, l]) for l in range(i + 1)] for i in range(self.n + 1)],
            "identifiable": [
                [bool(self.identifiable[i, l]) for l in range(i + 1)]
                for i in range(self.n + 1)
            ],
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> "IdentityCoefficients":
        n = int(payload["n"])
        values = np.zeros((n + 1, n + 1))
        mask = np.zeros((n + 1, n + 1), dtype=bool)
        for i in range(n + 1):
            for l in range(i + 1):
                values[i, l] = payload["h"][i][l]
                mask[i, l] = payload["identifiable"][i][l]
        return cls(n=n, k=int(payload["k"]), values=values, identifiable=mask)


@dataclass(frozen=True)
class IdentityCheck:
    """Residual summary from replaying the identity on fresh samples."""

    max_residual: float
    samples: int
    tolerance: float
    passed: bool


def _feature_row(
    tables: dict,
    geometry: TorusGeometry,
    k: int,
    x: np.ndarray,
    eps: np.ndarray,
    pairs: list[tuple[int, int]],
) -> np.ndarray:
    row = np.empty(len(pairs))
    for idx, (i, l) in enumerate(pairs):
        total = 0.0
        for subset, plus, minus in _term_shifts(geometry, k, i, l, eps):
            table = tables[subset]
            total += table[geometry.encode(x + plus), 0]
            total -= table[geometry.encode(x + minus), 0]
        row[idx] = coefficient_scale(geometry.n, k, i) * total
    return row


def _draw_sample(
    geometry: TorusGeometry,
    k: int,
    rng,
    pairs: list[tuple[int, int]],
) -> tuple[np.ndarray, float]:
    f = FunctionTable.random_gaussian(geometry, 1, rng)
    x = rng.integers(0, geometry.m, size=geometry.n)
    eps = 1 - 2 * rng.integers(0, 2, size=geometry.n)
    tables = _complement_tables(f, k, range(geometry.n + 1))
    row = _feature_row(tables, geometry, k, x, eps, pairs)
    target = float(shell_difference_sum(f, k, x, eps)[0])
    return row, target


def fit_identity_coefficients(geometry: TorusGeometry, k: int) -> IdentityCoefficients:
    """Recover the combination coefficients for one (n, k) cell.

    Both sides of the identity are translation-invariant linear maps of f, so
    the identity holds for every f exactly when it holds for the point mass
    at 0. Tabulating each term and the shell difference sum on that point
    mass at eps = (1, ..., 1) gives one linear equation per x: m^n rows, no
    sampling. The (0, 0) coefficient is pinned to its known value 1, the rest
    are the minimum-norm least-squares solution, and coefficients with any
    weight in the numerical null space of the feature map are flagged
    unidentifiable; one thin SVD gives the solution, the rank and the null
    space. The fit replays nothing; verify_identity measures the residual.
    """
    check_radius(k, geometry.m)
    n = geometry.n
    pairs = coefficient_pairs(n)
    impulse = FunctionTable.indicator(geometry, np.zeros(n, dtype=np.int64))
    eps = np.ones(n, dtype=np.int64)
    tables = _complement_tables(impulse, k, range(n + 1))
    rows = np.stack(
        [
            coefficient_scale(n, k, i)
            * decomposition_term_table(impulse, i, l, k, eps, tables=tables)[:, 0]
            for i, l in pairs
        ],
        axis=1,
    )
    targets = shell_difference_sum_table(impulse, k, eps)[:, 0]
    # pairs[0] is the pinned (0, 0); a zero column there leaves nothing to pin
    if not np.any(rows[:, 0]):
        raise RuntimeError("the pinned (0, 0) feature column is zero")

    reduced = rows[:, 1:]
    reduced_targets = targets - rows[:, 0]
    # m >= 4, so the m^n rows outnumber the columns: vt is square and its
    # rows past the rank span the null space
    u, svals, vt = np.linalg.svd(reduced, full_matrices=False)
    cutoff = svals[0] * 1e-10 if svals[0] > 0 else np.inf
    rank = int(np.sum(svals > cutoff))
    solution = vt[:rank].T @ ((u[:, :rank].T @ reduced_targets) / svals[:rank])
    rest_mask = np.all(np.abs(vt[rank:]) < _NULL_COMPONENT_TOL, axis=0)

    values = np.zeros((n + 1, n + 1))
    mask = np.zeros((n + 1, n + 1), dtype=bool)
    values[0, 0] = 1.0
    mask[0, 0] = True
    for (i, l), value, known in zip(pairs[1:], solution, rest_mask):
        values[i, l] = value
        mask[i, l] = known
    return IdentityCoefficients(n=n, k=k, values=values, identifiable=mask)


def verify_identity(
    coefficients: IdentityCoefficients,
    geometry: TorusGeometry,
    k: int,
    n_samples: int = REPLAY_SAMPLES,
    seed: int = 0,
) -> IdentityCheck:
    """Replay the identity on fresh samples and report the worst residual.

    The check passes when that residual is below IDENTITY_RESIDUAL_TOL,
    which it also reports as its tolerance.

    Each sample draws a fresh random scalar table and a fresh (x, eps) from
    the seeded stream, so the check is independent of the impulse system
    the coefficients were fitted on.
    Unidentifiable coefficients enter with their fitted values; they
    multiply feature directions the sampled data cannot distinguish, so the
    prediction is unaffected.
    """
    if coefficients.n != geometry.n or coefficients.k != k:
        raise ValueError("coefficients were fitted for a different (n, k) cell")
    check_radius(k, geometry.m)
    pairs = coefficient_pairs(geometry.n)
    full = np.array([coefficients.values[i, l] for i, l in pairs])
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_samples):
        row, target = _draw_sample(geometry, k, rng, pairs)
        worst = max(worst, abs(target - float(row @ full)))
    return IdentityCheck(
        max_residual=worst,
        samples=n_samples,
        tolerance=IDENTITY_RESIDUAL_TOL,
        passed=worst < IDENTITY_RESIDUAL_TOL,
    )


def decomposition_moment(
    f: FunctionTable, i: int, l: int, k: int, norm, p
) -> RatioReport:
    """Exact moment of one difference term against its binomial-log bound.

    The comparison constant is implicit, so the ratio is recorded without
    assertion. Requires n >= 2: the log factor in the reference bound
    vanishes at n = 1, which would make any nonzero moment an aborting
    zero-denominator report.
    """
    norm = as_norm(norm)
    p = as_exponent(p)
    g = f.geometry
    if g.n < 2:
        raise ValueError("n must be at least 2 for the log-based bound")
    _check_indices(g.n, i, l)
    check_radius(k, g.m)
    tables = _complement_tables(f, k, [i])
    total = 0.0
    for eps in sign_vectors(g.n):
        term = decomposition_term_table(f, i, l, k, eps, tables=tables)
        total += _grid_moment(term.reshape(g.shape + (f.d,)), norm, p)
    lhs = total / float(2**g.n)
    scale = (math.log(g.n) * math.comb(g.n, i) * math.comb(i, l)) ** p
    rhs = scale * edge_energy(f, norm, p)
    return _build_report(
        "decomposition_moment", lhs, rhs, n=g.n, m=g.m, k=k, p=p, q=norm.q, d=f.d
    )
