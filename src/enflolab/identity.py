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
    _is_constant,
    box_average,
    build_even_box,
    check_radius,
    convolve_shell_separable,
)
from .inequalities import RatioReport, _build_report, _grid_moment, edge_energy, shift_difference
from .kernels import window_sums
from .torus import FunctionTable, TorusGeometry, as_exponent, as_norm, sign_vectors

__all__ = [
    "IdentityCoefficients",
    "IdentityCheck",
    "decomposition_term_table",
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

# the replay stacks its samples as the rows of one table of at most this
# many float64 entries (32 samples at n = 4, m = 8), so each subset's
# patterns and each window_sums call serve a batch rather than one sample;
# beside the batch it holds one average's gathered taps, 2 * 2^i * k^(n-i)
# per sample for a subset of size i and 2k (k+1)^(n-1) for a shell, both
# below m^n as 2k < m
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


def decomposition_term_table(f: FunctionTable, i: int, l: int, k: int, eps) -> np.ndarray:
    """One signed difference term tabulated over every x, as an (m^n, d) array."""
    g = f.geometry
    _check_indices(g.n, i, l)
    check_radius(k, g.m)
    ev = _check_signs(eps, g.n)
    tables = _complement_tables(f, k, [i])
    return _term_table(tables, g, k, i, l, ev, g.shape + (f.d,)).reshape(f.values.shape)


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


def _passes_at(
    values: np.ndarray,
    geometry: TorusGeometry,
    k: int,
    passes: list[tuple[int, bool]],
    coords: np.ndarray,
    starts: np.ndarray,
) -> np.ndarray:
    """Undivided (axis, odd_window) window passes of a (size, m^n) batch, read at points.

    coords is a (..., n) stack of grid points and starts, broadcast against
    its leading shape, the flat index of each point's sample row in the
    batch. The passes act on distinct axes and run only at the points. One
    indexed read gathers each point's full product of taps in the layout
    (..., t_{c-1}, ..., t_0): tap t_j of pass j moves axis_j by 1 - k + 2 t_j
    (even window, k taps) or -k + 2 t_j (odd window, k + 1 taps), mod m, the
    order averaging._axis_window_pass sums them in. Then each pass, in
    order, sums the last axis by one window_sums call, the grid pass's
    binary tree, so every sum is bitwise the separable grid entry there.
    With no passes this reads the batch itself.
    """
    strides = np.asarray(geometry.strides, dtype=np.int64)
    lead = coords.shape[:-1]
    index = starts + coords @ strides
    widths = []
    for axis, odd_window in reversed(passes):
        width, start = (k + 1, -k) if odd_window else (k, 1 - k)
        here = coords[..., axis, None]
        moved = ((here + np.arange(start, start + 2 * width, 2)) % geometry.m - here) * strides[axis]
        index = index[..., None] + moved.reshape(lead + (1,) * len(widths) + (width,))
        widths.append(width)
    taps = values.reshape(-1)[index]
    for width in reversed(widths):
        taps = window_sums(taps.reshape(-1, width), 0, width, 1)[:, 0].reshape(taps.shape[:-1])
    return taps


def _box_at(
    values: np.ndarray,
    geometry: TorusGeometry,
    axes: tuple[int, ...],
    k: int,
    constant: bool,
    coords: np.ndarray,
    starts: np.ndarray,
) -> np.ndarray:
    """box_average of a batch over axes, read only at the given points.

    box_average fixes a constant batch and any radius-1 box. It averages one
    axis or none through the stencil: the taps in the support's offset
    order, added to zeros and divided by their count, as gather_mean does.
    Two or more axes take one even window pass each, then the division. At
    k = 1 the stencil's one tap gives (0 + v) / 1, which differs from v only
    in the sign of a zero; the replay's sums start from +0.0 and so never
    hold a -0.0, and read the same either way.
    """
    if constant or k == 1:
        return _passes_at(values, geometry, k, [], coords, starts)
    if len(axes) < 2:
        support = build_even_box(geometry, axes, k)
        strides = np.asarray(geometry.strides, dtype=np.int64)
        flat = values.reshape(-1)
        acc = np.zeros(coords.shape[:-1])
        for offset in support.offsets:
            acc += flat[starts + ((coords + offset) % geometry.m) @ strides]
        return acc / support.count
    passes = [(axis, False) for axis in axes]
    return _passes_at(values, geometry, k, passes, coords, starts) / float(k ** len(axes))


def _shell_at(
    values: np.ndarray,
    geometry: TorusGeometry,
    axis: int,
    k: int,
    constant: bool,
    coords: np.ndarray,
    starts: np.ndarray,
) -> np.ndarray:
    """convolve_shell_separable of a batch on one axis, read only at the given points.

    The even pass on the axis (none at k = 1), then the odd passes on the
    other axes in order, then the division; a constant batch is its own
    average.
    """
    if constant:
        return _passes_at(values, geometry, k, [], coords, starts)
    passes = [(axis, False)] if k > 1 else []
    passes += [(other, True) for other in range(geometry.n) if other != axis]
    count = float(k * (k + 1) ** (geometry.n - 1))
    return _passes_at(values, geometry, k, passes, coords, starts) / count


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
    Every average acts on each row alone, and is computed only at the
    points the features and targets read: for each subset, the points
    x + eps * c of every sample and every row c of every l's
    _pattern_multipliers come from one modular step, and the complement's
    box average is read there. A separable average gathers every point's
    taps of all its window passes in one read and sums them pass by pass;
    no pass runs over the whole batch. Each feature then adds its reads
    over subsets, then patterns, in _term_table's order, so every row is
    bitwise the one a pointwise read of that sample's own table gives.
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
    # box_average and convolve_shell_separable test the whole batch at once
    constant = bool(_is_constant(values[:, :, None]).all())

    totals = {pair: np.zeros(size) for pair in pairs}
    for i in range(n + 1):
        for subset in combinations(range(n), i):
            mults = [_pattern_multipliers(n, k, subset, l) for l in range(i + 1)]
            # (2, patterns, size, n) points x + eps * mult, per side, every l in a row
            coords = (x + eps * np.concatenate(mults, axis=1)[:, :, None, :]) % m
            read = _box_at(values, geometry, _complement(n, subset), k, constant, coords, starts)
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
        forward, backward = _shell_at(values, geometry, axis, k, constant, coords, starts)
        targets += eps[:, axis] * (forward - backward)
    return rows, targets


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
    shape = geometry.shape + (1,)
    rows = np.stack(
        [
            coefficient_scale(n, k, i)
            * _term_table(tables, geometry, k, i, l, eps, shape).reshape(geometry.size)
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
    the coefficients were fitted on. The samples are drawn and replayed in
    batches of table rows, at most _REPLAY_BATCH_ENTRIES entries each. A
    batch computes each complement's box average and each shell average
    only at the points its features and targets read, every window pass
    from one gather of those points' taps, and the sign patterns of every
    l of a subset at once from the cached multiplier tables; the worst
    residual is bitwise the one a replay of one sample at a time gives, at
    any batch size.
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
