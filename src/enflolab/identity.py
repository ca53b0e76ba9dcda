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
from functools import lru_cache
from itertools import combinations

import numpy as np

from .averaging import (
    SupportSet,
    box_average,
    build_even_box,
    build_parity_shell,
    check_radius,
    convolve_shell_separable,
)
from .inequalities import RatioReport, _build_report, _grid_moment, edge_energy, shift_difference
from .kernels import gather_mean
from .torus import FunctionTable, TorusGeometry, as_exponent, as_norm, sign_vectors

__all__ = [
    "IdentityCoefficients",
    "IdentityCheck",
    "shell_difference_sum_table",
    "fit_identity_coefficients",
    "verify_identity",
    "decomposition_moment",
    "coefficient_pairs",
    "coefficient_scale",
    "IDENTITY_RESIDUAL_TOL",
]

# fitted values below this size count as zero when masking identifiability
_NULL_COMPONENT_TOL = 1e-8

# a replayed identity passes when its worst residual is below this; read at
# call time, and no config or argument overrides it
IDENTITY_RESIDUAL_TOL = 1e-8

# the replay stacks its samples as the rows of one table of at most this
# many float64 entries (32 samples at n = 4, m = 8), so each subset's
# patterns and each gather_mean call serve a batch rather than one sample;
# beside the batch it holds the tap indices of one average read by
# gather_mean, 2 * 2^i * k^(n-i) per sample for a subset of size i and
# 2k (k+1)^(n-1) for a shell, both below m^n as 2k < m
_REPLAY_BATCH_ENTRIES = 2**17


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
    arr = np.asarray(eps)
    if arr.shape != (n,) or not np.all((arr == 1) | (arr == -1)):
        raise ValueError("eps must be a length-n vector of +-1 signs")
    return arr.astype(np.int64)


@lru_cache(maxsize=None)
def _pattern_multipliers(n: int, k: int, subset: tuple[int, ...], l: int) -> np.ndarray:
    """Sign-pattern multipliers of one subset, a read-only (2, binom(i, l), n) array.

    There are exactly binom(i, l) patterns with l disagreements, one per
    choice of flipped positions, in combinations order. Entry [side, p] times
    eps is, mod m, the plus (side 0) or minus (side 1) shift of the p-th
    pattern: k on the subset, -k at the pattern's flipped positions, and +1
    or -1 off the subset.
    """
    flips = list(combinations(subset, l))
    mult = np.ones((2, len(flips), n), dtype=np.int64)
    mult[1] = -1
    mult[:, :, list(subset)] = k
    for p, flipped in enumerate(flips):
        mult[:, p, list(flipped)] = -k
    mult.setflags(write=False)
    return mult


def _complement(n: int, subset) -> tuple[int, ...]:
    return tuple(a for a in range(n) if a not in subset)


def _complement_tables(f: FunctionTable, k: int, sizes) -> dict:
    """Box averages over the complement of every subset of the given sizes."""
    n = f.geometry.n
    return {
        subset: box_average(f, _complement(n, subset), k).values
        for i in sizes
        for subset in combinations(range(n), i)
    }


def _term_table(
    tables: dict, geometry: TorusGeometry, k: int, i: int, l: int, eps: np.ndarray, shape
) -> np.ndarray:
    """One signed difference term of the complement averages in tables, in the given shape.

    Adds each sign pattern's difference over subsets, then patterns in
    _pattern_multipliers order; shape is the grid shape plus the value axis.
    """
    n, m = geometry.n, geometry.m
    acc = np.zeros(shape)
    for subset in combinations(range(n), i):
        table = tables[subset].reshape(shape)
        for plus, minus in zip(*((eps * _pattern_multipliers(n, k, subset, l)) % m)):
            acc += shift_difference(plus, minus).apply(table)
    return acc


def _impulse_term_columns(geometry: TorusGeometry, k: int, pairs) -> np.ndarray:
    """(m^n, len(pairs)) columns: each pair's term on the point mass at 0, at eps = 1, scaled.

    Column (i, l) is bitwise coefficient_scale(n, k, i) times _term_table's
    (i, l) term of _complement_tables(delta_0, ...), built from n small
    kernels instead of 2^n complement averages and 3^n shifted copies.
    B_C delta_0 vanishes off the slice x_S = 0, where S is the complement
    of C, and on that slice it equals K_c(x_C), the c-axis box average of
    the c-axis point mass, c = |C|: both are exact sums of zeros and ones
    divided once by the same count. A pattern of S shifts x_S by k off its
    flipped positions and by -k on them, on both sides, so it reads nonzero
    values only where x_S is -k off and +k on its flipped positions; as
    2k < m, each point with x_S in {-k, +k}^S and exactly l entries at +k
    is read by one pattern of l flips, and every other (point, pattern)
    adds an exact 0.0 - 0.0, which leaves a sum that is never -0.0 as it is.
    So each subset adds, in combinations order, D_c(x_C) = K_c(x_C + 1) -
    K_c(x_C - 1), the same single subtraction _term_table makes, to each of
    those points of its column, and nothing elsewhere. At i = n the plus and
    minus shifts coincide, and the column stays exactly zero. The columns
    are scaled in place once summed, as _term_table's sum is.
    """
    n, m = geometry.n, geometry.m
    rows = np.zeros((geometry.size, len(pairs)))
    grid = rows.reshape(geometry.shape + (len(pairs),))
    column = {pair: j for j, pair in enumerate(pairs)}
    for c in range(1, n + 1):
        axes = TorusGeometry(c, m)
        point_mass = FunctionTable.indicator(axes, np.zeros(c, dtype=np.int64))
        kernel = box_average(point_mass, range(c), k)
        step = shift_difference((1,) * c, (-1,) * c)
        diff = step.apply(kernel.values.reshape(axes.shape))
        i = n - c
        for subset in combinations(range(n), i):
            for l in range(i + 1):
                for flipped in combinations(subset, l):
                    at = [slice(None)] * n + [column[i, l]]
                    for a in subset:
                        at[a] = k if a in flipped else m - k
                    grid[tuple(at)] += diff
    rows *= [coefficient_scale(n, k, i) for i, _ in pairs]
    return rows


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


def _mean_at(
    values: np.ndarray, support: SupportSet, coords: np.ndarray, starts: np.ndarray
) -> np.ndarray:
    """A support's average of each row of a (size, m^n) batch, read at points.

    coords is a (..., n) stack of grid points and starts, broadcast against
    its leading shape, the flat index of each point's sample row. The tap
    indices are built one axis at a time from a (taps, m) table of moved
    coordinates, in the support's offset order, and gather_mean adds them
    to zeros in that order and divides by their count: every value is
    bitwise convolve's entry at that point.
    """
    m = support.geometry.m
    index = starts
    for axis, stride in enumerate(support.geometry.strides):
        moved = (support.offsets[:, axis, None] + np.arange(m)) % m * stride
        index = index + moved[:, coords[..., axis]]
    return gather_mean(values.reshape(-1), index)


def _replay_batch(
    geometry: TorusGeometry,
    k: int,
    rng,
    pairs: list[tuple[int, int]],
    size: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Feature rows (size, len(pairs)) and targets (size,) of fresh samples.

    Each sample draws a scalar table straight into its own contiguous row of
    a shared (size, m^n) table, then its x, then its eps, in that order.
    Every average acts on each row alone, and is read only at the points
    the features and targets read, straight off its support by _mean_at:
    for each subset, the points x + eps * c of every sample and every row c
    of every l's _pattern_multipliers come from one modular step, and the
    complement's even box is read there; each axis's parity shell is read
    at x + e_axis and x - e_axis. Nothing runs over the whole batch or the
    whole grid. Each feature then adds its reads over subsets, then
    patterns, in _term_table's order, so every row and target is bitwise
    the one a pointwise stencil read of that sample's own table gives.
    """
    n, m = geometry.n, geometry.m
    values = np.empty((size, geometry.size))
    x = np.empty((size, n), dtype=np.int64)
    eps = np.empty((size, n), dtype=np.int64)
    for s in range(size):
        rng.standard_normal(out=values[s])
        x[s] = rng.integers(0, m, size=n)
        eps[s] = 1 - 2 * rng.integers(0, 2, size=n)
    starts = np.arange(size) * geometry.size

    totals = {pair: np.zeros(size) for pair in pairs}
    for i in range(n + 1):
        for subset in combinations(range(n), i):
            mults = [_pattern_multipliers(n, k, subset, l) for l in range(i + 1)]
            # (2, patterns, size, n) points x + eps * mult, per side, every l in a row
            coords = (x + eps * np.concatenate(mults, axis=1)[:, :, None, :]) % m
            box = build_even_box(geometry, _complement(n, subset), k)
            read = _mean_at(values, box, coords, starts)
            begin = 0
            for l, mult in enumerate(mults):
                plus, minus = read[:, begin : begin + mult.shape[1]]
                begin += mult.shape[1]
                total = totals[i, l]
                for p in range(mult.shape[1]):
                    total += plus[p]
                    total -= minus[p]
    rows = np.stack([coefficient_scale(n, k, i) * totals[i, l] for i, l in pairs], axis=1)

    targets = np.zeros(size)
    for axis in range(n):
        step = np.zeros(n, dtype=np.int64)
        step[axis] = 1
        # (2, size, n) points x + e_axis and x - e_axis
        coords = (x + np.stack([step, -step])[:, None, :]) % m
        shell = build_parity_shell(geometry, axis, k)
        forward, backward = _mean_at(values, shell, coords, starts)
        targets += eps[:, axis] * (forward - backward)
    return rows, targets


def fit_identity_coefficients(geometry: TorusGeometry, k: int) -> IdentityCoefficients:
    """Recover the combination coefficients for one (n, k) cell.

    Both sides of the identity are translation-invariant linear maps of f, so
    the identity holds for every f exactly when it holds for the point mass
    at 0. Tabulating each term and the shell difference sum on that point
    mass at eps = (1, ..., 1) gives one linear equation per x: m^n rows, no
    sampling. _impulse_term_columns builds the terms, bitwise as _term_table
    would tabulate them, from n box averages of the c-axis point mass,
    c = 1..n, in one (m^n, (n+1)(n+2)/2) array written in place. The (0, 0)
    coefficient is pinned to its known value 1, the rest are the
    minimum-norm least-squares solution, and coefficients with any weight
    in the numerical null space of the feature map are flagged
    unidentifiable; one thin SVD gives the solution, the rank and the null
    space. The fit replays nothing; verify_identity measures the residual.
    """
    check_radius(k, geometry.m)
    n = geometry.n
    pairs = coefficient_pairs(n)
    impulse = FunctionTable.indicator(geometry, np.zeros(n, dtype=np.int64))
    rows = _impulse_term_columns(geometry, k, pairs)
    targets = shell_difference_sum_table(impulse, k, np.ones(n, dtype=np.int64))[:, 0]
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
    *,
    n_samples: int,
    seed: int,
) -> IdentityCheck:
    """Replay the identity on fresh samples and report the worst residual.

    The check passes when that residual is below IDENTITY_RESIDUAL_TOL,
    which it also reports as its tolerance.

    Each sample draws a fresh random scalar table and a fresh (x, eps) from
    the seeded stream, so the check is independent of the impulse system
    the coefficients were fitted on. The samples are drawn and replayed in
    batches of table rows, at most _REPLAY_BATCH_ENTRIES entries each. A
    batch reads each complement's box average and each shell average
    straight off its support, through gather_mean, at only the points its
    features and targets read, so the replay checks the fit's separable
    averages against the stencil; it reads the sign patterns of every l of
    a subset at once from the cached multiplier tables. The worst residual
    is bitwise the one a replay of one sample at a time gives, at any batch
    size.
    n_samples must be an int of at least 1 (not a bool): a replay of no
    samples would pass with no evidence.
    Unidentifiable coefficients enter with their fitted values; they
    multiply feature directions the sampled data cannot distinguish, so the
    prediction is unaffected.
    """
    if coefficients.n != geometry.n or coefficients.k != k:
        raise ValueError("coefficients were fitted for a different (n, k) cell")
    check_radius(k, geometry.m)
    if isinstance(n_samples, bool) or not isinstance(n_samples, int) or n_samples < 1:
        raise ValueError("n_samples must be an integer of at least 1")
    pairs = coefficient_pairs(geometry.n)
    full = np.array([coefficients.values[i, l] for i, l in pairs])
    rng = np.random.default_rng(seed)
    batch = max(1, _REPLAY_BATCH_ENTRIES // geometry.size)
    worst = 0.0
    for begin in range(0, n_samples, batch):
        rows, targets = _replay_batch(geometry, k, rng, pairs, min(batch, n_samples - begin))
        for row, target in zip(rows, targets):
            worst = max(worst, abs(float(target) - float(row @ full)))
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
    shape = g.shape + (f.d,)
    total = 0.0
    for eps in sign_vectors(g.n):
        total += _grid_moment(_term_table(tables, g, k, i, l, eps, shape), norm, p)
    lhs = total / float(2**g.n)
    scale = (math.log(g.n) * math.comb(g.n, i) * math.comb(i, l)) ** p
    rhs = scale * edge_energy(f, norm, p)
    return _build_report(
        "decomposition_moment", lhs, rhs, n=g.n, m=g.m, k=k, p=p, q=norm.q, d=f.d
    )
