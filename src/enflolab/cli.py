"""Config-driven command line front end.

One JSON config names the command and the parameter grid, and may set only
the keys that command reads; the flags only locate the config and pick the
output directory and thread count. Every output is byte deterministic:
cells are seeded by (base seed, cell index), collected in cell order, and
written atomically after all computation has finished, so the thread count
never changes a byte and a failed run leaves nothing behind. Each check
compares against a fixed module constant that no config sets: a proven
bound violated past inequalities.PROVEN_BOUND_RTOL exits 1 and writes
nothing, and an identity residual at or past identity.IDENTITY_RESIDUAL_TOL
exits 1 after writing its outputs. Malformed configs, and cells too large
to compute, exit 2.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .averaging import check_radius
from .identity import fit_identity_coefficients, verify_identity
from .inequalities import (
    INEQUALITY_KINDS,
    ProvenBoundViolation,
    approximation_ratio,
    check_cell,
    scaled_enflo_ratio,
    scheme_composite_check,
    smoothing_ratio,
)
from .search import map_cells, maximize_cells, scan_grid
from .torus import FunctionTable, TorusGeometry, as_exponent, as_norm

__all__ = ["main", "parse_config", "ConfigError", "ExperimentConfig", "COMMANDS"]

# each command's report.csv columns; check-lemmas writes one row per RatioReport
REPORT_CSV_COLUMNS = (
    "evaluator",
    "n",
    "m",
    "k",
    "p",
    "q",
    "d",
    "lhs",
    "rhs",
    "ratio",
    "degenerate",
    "seed",
)

SEARCH_CSV_COLUMNS = (
    "objective",
    "n",
    "m",
    "k",
    "p",
    "q",
    "d",
    "empirical_theta",
    "lhs",
    "rhs",
    "restarts",
    "iterations",
    "seed",
)

IDENTITY_CSV_COLUMNS = (
    "n",
    "m",
    "k",
    "seed",
    "budget",
    "samples",
    "h00",
    "c_fit",
    "residual",
    "tolerance",
    "passed",
)


class ConfigError(ValueError):
    """A config field is missing, unknown, or out of range."""


# Size limits on one table evaluation, in float64 entries: those it holds at
# once and those it computes. One check-lemmas table (k=3, p=q=2), run in a
# fresh process on a 2-core Xeon (Python 3.11, numpy 2.4), peaks at 389 MB
# and takes 1.4 to 1.7 s at n=3, m=16, d=2048, which holds 2^23 entries by
# the rules below, and peaks at 144 MB and takes 4.1 to 4.3 s at n=7, m=8,
# d=1, which computes 2^28. The largest benchmark cell, check-lemmas at n=4,
# m=16, d=3, holds 2^17.6 and computes 2^21.6.
MAX_HELD_ENTRIES = 2**23
MAX_COMPUTED_ENTRIES = 2**28


def _cell_entries(
    work: str, n: int, m: int, d: int, restarts: int = 1
) -> tuple[float, float]:
    """(held, computed): float64 entries one evaluation holds at once and computes.

    work is a command or a search objective. A table holds m^n d entries; the
    diagonal moment of smoothing, which check-lemmas also runs, is counted as
    2^n fields of that size, though it computes only the 2^(n-1) fields of
    diagonal_differences: the rule over-counts it twice, and keeps refusing
    the cells it refused when the moment summed all 2^n. Pisier's sign
    combinations hold 4^n d. An identity fit holds its impulse system of
    P = (n+1)(n+2)/2 scalar columns, and its SVD three more copies of them
    (numpy's copy of the input for LAPACK, LAPACK's u and the returned u),
    plus the targets and a few scratch tables: 4P + 4 tables. One fit's
    peak resident growth measured 4P tables at n = 2..5 on grids of 2^18
    to 2^19 entries (2-core Xeon, numpy 2.4). The 2^n + P tables of the fit
    that held 2^n complement averages exceed 4P + 4 only from n = 7 on, and
    there, at every even m >= 4, both counts refuse or both pass; so the
    count of 4P + 4 tables gives that rule's verdicts. The computed count, 3^n
    tables, one shifted difference per subset and sign pattern, is now an
    over-count: the fit adds one slice of m^(n-i) entries per subset of size
    i < n and point of {-k, +k}^i, (m+2)^n - 2^n entries in all. The replay
    holds one batch of samples, the rows of one table of at most 2^17
    entries (one sample's m^n when that is larger), plus the tap indices of
    one average read by gather_mean, which are fewer than the batch table's
    entries as 2k < m; it computes each average only at the points it reads.
    A search cell ascends its restarts together, as one stack of tables, so
    it holds and computes `restarts` times what one of its tables does.
    Consecutive search cells that share (objective, n, m, k, d) may ascend
    as one stack, but a stack of several cells holds at most 2^13 entries
    (search._STACK_ENTRIES), far below both limits, and a larger cell ascends
    alone; so the per-cell `restarts` rule still bounds every stack. A side
    of a stack smooths the fields of its ops in groups of at most
    max(2^13, one op's field) entries, and one op's field is what the rule
    counts for its cell: restarts x m^n d, or restarts x 4^n d for pisier's
    sign combinations. So that rule bounds every op group too.
    """
    if n > MAX_HELD_ENTRIES.bit_length():  # m >= 2, so m^n alone is too large
        held = computed = math.inf
    elif work == "pisier":
        held = computed = 4**n * d
    elif work == "verify-identity":
        columns = (n + 1) * (n + 2) // 2
        held = (4 * columns + 4) * m**n * d
        computed = 3**n * m**n * d
    else:
        held = m**n * d
        computed = 2**n * held if work in ("check-lemmas", "smoothing") else held
    return held * restarts, computed * restarts


def _check_size(work: str, n: int, m: int, d: int, restarts: int = 1) -> None:
    """Refuse a cell whose one table evaluation is past the size limits.

    _cell_entries counts the cell. The rule ignores tables_per_cell,
    iterations and heldout_samples: it bounds the memory and work of one
    evaluation, and these keys only repeat evaluations of the same size, so
    they multiply run time linearly and hold no more at once.
    """
    held, computed = _cell_entries(work, n, m, d, restarts)
    if held > MAX_HELD_ENTRIES or computed > MAX_COMPUTED_ENTRIES:
        stack = f" with {restarts} restarts" if restarts > 1 else ""
        raise ConfigError(
            f"{work} cell n={n}, m={m}, d={d}{stack} is too large: one evaluation may "
            f"hold {MAX_HELD_ENTRIES} and compute {MAX_COMPUTED_ENTRIES} float64 entries"
        )


# Field parsers take (JSON value, label) and return the field value or raise a
# ConfigError naming the label. They check JSON types and the rules no library
# function owns; a rule that has an owner is applied by calling the owner.


def _integer(minimum: int, parity: str | None = None):
    """An int, never a bool, of at least minimum.

    The search takes restarts, iterations and seed unchecked, so the CLI owns
    the bounds of these ascent knobs.
    """

    def parse(value, label: str) -> int:
        if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
            raise ConfigError(f"{label} must be an integer of at least {minimum}")
        if parity is not None and value % 2 != (parity == "odd"):
            raise ConfigError(f"{label} must be {parity}")
        return value

    return parse


def _number(value, label: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{label} must be a number")
    try:
        return float(value)
    except OverflowError as exc:
        raise ConfigError(f"{label} is beyond the float range") from exc


def _owned(label: str, rule, *args):
    """Apply an owner's rule; its ValueError becomes a ConfigError naming label."""
    try:
        return rule(*args)
    except ValueError as exc:
        raise ConfigError(f"{label}: {exc}") from exc


def _list_of(entry):
    def parse(value, label: str) -> tuple:
        if not isinstance(value, list) or not value:
            raise ConfigError(f"{label} must be a nonempty list")
        return tuple(entry(item, f"{label} entry {item!r}") for item in value)

    return parse


def _exponent(value, label: str) -> float:
    return _owned(label, as_exponent, _number(value, label))


def _norm_power(value, label: str) -> float:
    return _owned(label, as_norm, math.inf if value == "inf" else _number(value, label)).q


def _objective(value, label: str) -> str:
    if not isinstance(value, str) or value not in INEQUALITY_KINDS:
        raise ConfigError(f"{label} is not recognized")
    return value


def _command(value, label: str) -> str:
    if value not in COMMANDS:
        raise ConfigError(f"{label} must be one of {', '.join(COMMANDS)}")
    return value


def _schema_version(value, label: str) -> int:
    # an int, so neither true nor 1.0
    if type(value) is not int or value != 1:
        raise ConfigError(f"{label} must be 1")
    return value


def _key(parse, **default):
    return field(metadata={"parse": parse}, **default)


@dataclass(frozen=True)
class ExperimentConfig:
    """One run's config; each field declares its default and its JSON parser."""

    command: str = _key(_command)
    schema_version: int = _key(_schema_version, default=1)
    n_values: tuple[int, ...] = _key(_list_of(_integer(1)), default=(1, 2, 3))
    m_values: tuple[int, ...] = _key(_list_of(_integer(2, parity="even")), default=(8,))
    k_values: tuple[int, ...] = _key(_list_of(_integer(1, parity="odd")), default=(1, 3))
    p_values: tuple[float, ...] = _key(_list_of(_exponent), default=(1.0, 2.0))
    q_values: tuple[float, ...] = _key(_list_of(_norm_power), default=(2.0,))
    d_values: tuple[int, ...] = _key(_list_of(_integer(1)), default=(1,))
    seed: int = _key(_integer(0), default=0)
    tables_per_cell: int = _key(_integer(1), default=25)
    heldout_samples: int = _key(_integer(1), default=200)
    objectives: tuple[str, ...] = _key(_list_of(_objective), default=("scaled_enflo",))
    restarts: int = _key(_integer(1), default=6)
    iterations: int = _key(_integer(1), default=120)

    def to_echo_dict(self) -> dict:
        """The keys its command reads as strict JSON: lists for tuples, "inf" for an infinite q."""
        echo = {key: getattr(self, key) for key in _SHARED_KEYS + _RUNNERS[self.command][1]}
        for key, value in echo.items():
            if isinstance(value, tuple):
                echo[key] = ["inf" if entry == math.inf else entry for entry in value]
        return echo


def parse_config(payload: dict) -> ExperimentConfig:
    """Validate a raw config mapping; messages always name the bad field."""
    if not isinstance(payload, dict):
        raise ConfigError("config must be a JSON object")
    for key in ("schema_version", "command"):
        if key not in payload:
            raise ConfigError(f"{key} is required")
    command = _command(payload["command"], "command")
    known = ExperimentConfig.__dataclass_fields__
    values = {}
    for key, value in payload.items():
        if key not in _SHARED_KEYS + _RUNNERS[command][1]:
            raise ConfigError(f"unknown config key {key!r} for {command}")
        values[key] = known[key].metadata["parse"](value, key)
    cfg = ExperimentConfig(**values)
    _validate_for_command(cfg)
    return cfg


def _validate_for_command(cfg: ExperimentConfig) -> None:
    if cfg.command in ("check-lemmas", "verify-identity"):
        for m in cfg.m_values:
            for k in cfg.k_values:
                _owned(f"k_values entry {k} with m_values entry {m}", check_radius, k, m)
    if cfg.command == "check-lemmas":
        for n in cfg.n_values:
            for m in cfg.m_values:
                for d in cfg.d_values:
                    _check_size(cfg.command, n, m, d)
    if cfg.command == "verify-identity":
        if len(cfg.m_values) != 1:
            raise ConfigError("m_values must hold a single value for identity fits")
        for n in cfg.n_values:
            # identity fits and samples are scalar tables
            _check_size(cfg.command, n, cfg.m_values[0], 1)
    if cfg.command in ("estimate-constants", "scan"):
        if "approximation" in cfg.objectives:
            # radius 1 makes every table a 0/0 approximation cell
            for k in cfg.k_values:
                if k < 3:
                    raise ConfigError(
                        "k_values entries must be at least 3 when objectives "
                        "include approximation"
                    )
        for objective, n, m, k, _, _, d in _search_cells(cfg):
            label = f"objectives entry {objective!r} at n={n}, m={m}, k={k}"
            _owned(label, check_cell, objective, n, m, k)
            _check_size(objective, n, m, d, cfg.restarts)


def _cell_text(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)  # a float's shortest round-trip digits, as repr writes them


def _csv_text(columns, cells) -> str:
    """A header of columns, then each {column: value} mapping of cells at those columns.

    A degenerate column is derived: whether the row's ratio is None (0/0).
    """
    sink = io.StringIO()
    writer = csv.writer(sink, lineterminator="\n")
    writer.writerow(columns)
    for cell in cells:
        if "degenerate" in columns:
            cell = dict(cell, degenerate=cell["ratio"] is None)
        writer.writerow([_cell_text(cell[column]) for column in columns])
    return sink.getvalue()


def _json_text(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _cell_seed_int(base: int, index: int) -> int:
    # a storable integer stream id; SeedSequence mixing keeps cells independent
    return int(np.random.SeedSequence((base, index)).generate_state(1)[0])


def _run_check_lemmas(cfg: ExperimentConfig, threads: int):
    cells = [
        (n, m, k, p, q, d)
        for n in cfg.n_values
        for m in cfg.m_values
        for k in cfg.k_values
        for p in cfg.p_values
        for q in cfg.q_values
        for d in cfg.d_values
    ]

    def run(ci: int):
        n, m, k, p, q, d = cells[ci]
        geometry = TorusGeometry(n, m)
        norm = as_norm(q)
        rng = np.random.default_rng((cfg.seed, ci))
        rows = []
        for _ in range(cfg.tables_per_cell):
            f = FunctionTable.random_gaussian(geometry, d, rng)
            reports = [
                scaled_enflo_ratio(f, norm, p),
                approximation_ratio(f, k, norm, p),
                smoothing_ratio(f, k, norm, p),
            ]
            if m % 4 == 0:
                reports.append(scheme_composite_check(*reports))
            rows.extend(dict(vars(r), seed=cfg.seed) for r in reports)
        return rows

    collected = map_cells(run, len(cells), threads)
    rows = [row for cell_rows in collected for row in cell_rows]
    return {"report.csv": _csv_text(REPORT_CSV_COLUMNS, rows)}, True


def _search_cells(cfg: ExperimentConfig) -> list[tuple]:
    """(objective, n, m, k, p, q, d) per estimate-constants row, in row order."""
    cells = []
    for objective in cfg.objectives:
        kind = INEQUALITY_KINDS[objective]
        for n in cfg.n_values:
            for m in (cfg.m_values if kind.torus else (2,)):
                for k in (cfg.k_values if kind.radius else (None,)):
                    for p in cfg.p_values:
                        for q in cfg.q_values:
                            for d in cfg.d_values:
                                cells.append((objective, n, m, k, p, q, d))
    return cells


def _search_report(cfg: ExperimentConfig, outcomes) -> str:
    """One row per search outcome; k is the cell's radius, empty where the objective takes none."""
    rows = []
    for out in outcomes:
        report = out.report
        cell = dict(
            vars(report),
            objective=report.evaluator,
            empirical_theta=report.ratio ** (1.0 / report.p),
            restarts=cfg.restarts,
            iterations=out.accepted_steps,  # the best restart's accepted steps
            seed=cfg.seed,
        )
        rows.append(cell)
    return _csv_text(SEARCH_CSV_COLUMNS, rows)


def _run_estimate_constants(cfg: ExperimentConfig, threads: int):
    cells = _search_cells(cfg)
    outcomes = maximize_cells(
        cells, restarts=cfg.restarts, iterations=cfg.iterations, seed=cfg.seed, threads=threads
    )
    return {"report.csv": _search_report(cfg, outcomes)}, True


def _run_scan(cfg: ExperimentConfig, threads: int):
    outcomes = scan_grid(
        cfg.n_values,
        cfg.m_values,
        cfg.p_values,
        cfg.q_values,
        cfg.d_values,
        restarts=cfg.restarts,
        iterations=cfg.iterations,
        seed=cfg.seed,
        threads=threads,
    )
    return {"report.csv": _search_report(cfg, outcomes)}, True


def _run_verify_identity(cfg: ExperimentConfig, threads: int):
    m = cfg.m_values[0]
    cells = [(n, k) for n in cfg.n_values for k in cfg.k_values]

    def run(ci: int):
        n, k = cells[ci]
        geometry = TorusGeometry(n, m)
        replay_seed = _cell_seed_int(cfg.seed, ci)
        coeffs = fit_identity_coefficients(geometry, k)
        check = verify_identity(
            coeffs, geometry, k, n_samples=cfg.heldout_samples, seed=replay_seed
        )
        cell = dict(
            n=n,
            m=m,
            k=k,
            seed=replay_seed,
            budget=geometry.size,  # the fit's equations, one per point
            samples=check.samples,
            h00=coeffs.coefficient(0, 0),
            c_fit=coeffs.shape_constant(),
            residual=check.max_residual,
            tolerance=check.tolerance,
            passed=check.passed,
        )
        return cell, f"h_coeffs_{n}_{k}.json", _json_text(coeffs.to_json_dict())

    collected = map_cells(run, len(cells), threads)
    rows = [cell for cell, _, _ in collected]
    outputs = {name: text for _, name, text in collected}
    outputs["report.csv"] = _csv_text(IDENTITY_CSV_COLUMNS, rows)
    return outputs, all(row["passed"] for row in rows)


# the keys every command reads, then each command's runner and its other keys: a
# config may set only the keys its command reads, and its manifest echoes them all
_SHARED_KEYS = ("schema_version", "command", "n_values", "m_values", "seed")
_RUNNERS = {
    "check-lemmas": (
        _run_check_lemmas,
        ("k_values", "p_values", "q_values", "d_values", "tables_per_cell"),
    ),
    "estimate-constants": (
        _run_estimate_constants,
        ("objectives", "k_values", "p_values", "q_values", "d_values", "restarts", "iterations"),
    ),
    "scan": (_run_scan, ("p_values", "q_values", "d_values", "restarts", "iterations")),
    "verify-identity": (_run_verify_identity, ("k_values", "heldout_samples")),
}
COMMANDS = tuple(_RUNNERS)


def _atomic_write(path: Path, text: str) -> None:
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "w") as sink:
            sink.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="enflolab",
        description="Numerical laboratory for averaging inequalities on Z_m^n.",
    )
    parser.add_argument("--config", required=True, help="path to a JSON config")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--threads", type=int, default=1, help="worker thread count")
    args = parser.parse_args(argv)

    try:
        raw = Path(args.config).read_bytes()
    except OSError as exc:
        print(f"config error: cannot read {args.config}: {exc}", file=sys.stderr)
        return 2
    try:
        # json.loads detects the encoding of bytes; a decode error is a ValueError,
        # and so is an integer literal beyond Python's digit limit; nesting past
        # the interpreter's recursion limit raises RecursionError
        payload = json.loads(raw)
    except (ValueError, RecursionError) as exc:
        print(f"config error: invalid JSON: {exc}", file=sys.stderr)
        return 2
    try:
        cfg = parse_config(payload)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    if args.threads < 1:
        print("config error: --threads must be positive", file=sys.stderr)
        return 2
    # the directory is made only once every output exists, so refuse a file (or a
    # dangling link) in its way now
    out_dir = Path(args.out)
    nearest = next(path for path in (out_dir, *out_dir.parents) if os.path.lexists(path))
    if not nearest.is_dir():
        print(f"config error: --out {args.out}: {nearest} is not a directory", file=sys.stderr)
        return 2

    try:
        outputs, passed = _RUNNERS[cfg.command][0](cfg, args.threads)
    except ProvenBoundViolation as exc:
        print(f"violation: {exc}", file=sys.stderr)
        return 1

    outputs["run_manifest.json"] = _json_text(
        {
            "command": cfg.command,
            "config": cfg.to_echo_dict(),
            "package_version": __version__,
            "schema_version": cfg.schema_version,
        }
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    for name in sorted(outputs):
        _atomic_write(out_dir / name, outputs[name])
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
