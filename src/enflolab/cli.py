"""Config-driven command line front end.

One JSON config names the command and the parameter grid; the flags only
locate the config, override the base seed, and pick the output directory
and thread count. Every output is byte deterministic: cells are seeded by
(base seed, cell index), collected in cell order, and written atomically
after all computation has finished, so the thread count never changes a
byte and a failed run leaves nothing behind. Proven-bound violations and
over-tolerance residuals exit 1; malformed configs exit 2.
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
from .identity import fit_identity_coefficients, minimum_sample_budget, verify_identity
from .inequalities import (
    INEQUALITY_KINDS,
    PROVEN_BOUND_RTOL,
    ProvenBoundViolation,
    REPORT_CSV_COLUMNS,
    approximation_ratio,
    check_cell,
    format_cell,
    scaled_enflo_ratio,
    scheme_composite_check,
    smoothing_ratio,
)
from .search import (
    OptimizationConfig,
    SCAN_CSV_COLUMNS,
    SEARCH_OBJECTIVES,
    map_cells,
    scan_grid,
    search_row,
)
from .torus import FunctionTable, TorusGeometry, as_exponent, as_norm

__all__ = ["main", "parse_config", "ConfigError", "ExperimentConfig", "COMMANDS"]

COMMANDS = (
    "check-lemmas",
    "estimate-constants",
    "scan",
    "fit-h",
    "verify-identity",
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

_TOLERANCE_DEFAULTS = {
    "identity_residual": 1e-8,
    "proven_inequality_rel": PROVEN_BOUND_RTOL,
}


class ConfigError(ValueError):
    """A config field is missing, unknown, or out of range."""


@dataclass(frozen=True)
class ExperimentConfig:
    command: str
    schema_version: int = 1
    n_values: tuple[int, ...] = (1, 2, 3)
    m_values: tuple[int, ...] = (8,)
    k_values: tuple[int, ...] = (1, 3)
    p_values: tuple[float, ...] = (1.0, 2.0)
    q_values: tuple[float, ...] = (2.0,)
    d_values: tuple[int, ...] = (1,)
    seed: int = 0
    tables_per_cell: int = 25
    fit_budget: int = 120
    heldout_samples: int = 200
    objectives: tuple[str, ...] = ("scaled_enflo",)
    restarts: int = 6
    iterations: int = 120
    step: float = 0.5
    smoothing_eps: float = 1e-6
    tolerances: dict = field(default_factory=lambda: dict(_TOLERANCE_DEFAULTS))

    def to_echo_dict(self) -> dict:
        return {
            "command": self.command,
            "schema_version": self.schema_version,
            "n_values": list(self.n_values),
            "m_values": list(self.m_values),
            "k_values": list(self.k_values),
            "p_values": list(self.p_values),
            "q_values": ["inf" if math.isinf(q) else q for q in self.q_values],
            "d_values": list(self.d_values),
            "seed": self.seed,
            "tables_per_cell": self.tables_per_cell,
            "fit_budget": self.fit_budget,
            "heldout_samples": self.heldout_samples,
            "objectives": list(self.objectives),
            "restarts": self.restarts,
            "iterations": self.iterations,
            "step": self.step,
            "smoothing_eps": self.smoothing_eps,
            "tolerances": dict(sorted(self.tolerances.items())),
        }

    def optimizer(self) -> OptimizationConfig:
        return OptimizationConfig(
            restarts=self.restarts,
            iterations=self.iterations,
            step=self.step,
            seed=self.seed,
            smoothing_eps=self.smoothing_eps,
        )


def _want_int(payload: dict, key: str, minimum: int) -> int:
    value = payload[key]
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise ConfigError(f"{key} must be an integer of at least {minimum}")
    return value


def _want_int_list(payload: dict, key: str, minimum: int) -> tuple[int, ...]:
    value = payload[key]
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{key} must be a nonempty list")
    out = []
    for entry in value:
        if not isinstance(entry, int) or isinstance(entry, bool) or entry < minimum:
            raise ConfigError(f"{key} entries must be integers of at least {minimum}")
        out.append(entry)
    return tuple(out)


def _want_float(value, key: str):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key} must be a number")
    return float(value)


def parse_config(payload: dict) -> ExperimentConfig:
    """Validate a raw config mapping; messages always name the bad field."""
    if not isinstance(payload, dict):
        raise ConfigError("config must be a JSON object")
    known = set(ExperimentConfig.__dataclass_fields__)
    for key in payload:
        if key not in known:
            raise ConfigError(f"unknown config key {key!r}")
    if "schema_version" not in payload:
        raise ConfigError("schema_version is required")
    version = payload["schema_version"]
    if isinstance(version, bool) or not isinstance(version, int) or version != 1:
        raise ConfigError("schema_version must be 1")
    if "command" not in payload:
        raise ConfigError("command is required")
    command = payload["command"]
    if command not in COMMANDS:
        raise ConfigError(f"command must be one of {', '.join(COMMANDS)}")

    merged = ExperimentConfig(command=command).to_echo_dict()
    merged.update(payload)

    n_values = _want_int_list(merged, "n_values", 1)
    m_values = _want_int_list(merged, "m_values", 2)
    for m in m_values:
        if m % 2 != 0:
            raise ConfigError("m_values entries must be even")
    k_values = _want_int_list(merged, "k_values", 1)
    for k in k_values:
        if k % 2 == 0:
            raise ConfigError("k_values entries must be odd")
    d_values = _want_int_list(merged, "d_values", 1)

    raw_p = merged["p_values"]
    if not isinstance(raw_p, list) or not raw_p:
        raise ConfigError("p_values must be a nonempty list")
    p_values = []
    for entry in raw_p:
        p = _want_float(entry, "p_values")
        try:
            p_values.append(as_exponent(p))
        except ValueError as exc:
            raise ConfigError(f"p_values entry {entry!r}: {exc}") from exc

    raw_q = merged["q_values"]
    if not isinstance(raw_q, list) or not raw_q:
        raise ConfigError("q_values must be a nonempty list")
    q_values = []
    for entry in raw_q:
        q = math.inf if entry == "inf" else _want_float(entry, "q_values")
        try:
            q_values.append(as_norm(q).q)
        except ValueError as exc:
            raise ConfigError(f"q_values entry {entry!r}: {exc}") from exc

    objectives = merged["objectives"]
    if not isinstance(objectives, list) or not objectives:
        raise ConfigError("objectives must be a nonempty list")
    for name in objectives:
        if name not in SEARCH_OBJECTIVES:
            raise ConfigError(f"objectives entry {name!r} is not recognized")

    tolerances = merged["tolerances"]
    if not isinstance(tolerances, dict):
        raise ConfigError("tolerances must be an object")
    tol = dict(_TOLERANCE_DEFAULTS)
    for key, value in tolerances.items():
        if key not in _TOLERANCE_DEFAULTS:
            raise ConfigError(f"unknown tolerance key {key!r}")
        value = _want_float(value, f"tolerances.{key}")
        if not value > 0:
            raise ConfigError(f"tolerances.{key} must be positive")
        tol[key] = value

    step = _want_float(merged["step"], "step")
    if not step > 0:
        raise ConfigError("step must be positive")
    smoothing_eps = _want_float(merged["smoothing_eps"], "smoothing_eps")
    if not smoothing_eps > 0:
        raise ConfigError("smoothing_eps must be positive")

    cfg = ExperimentConfig(
        command=command,
        schema_version=1,
        n_values=n_values,
        m_values=m_values,
        k_values=k_values,
        p_values=tuple(p_values),
        q_values=tuple(q_values),
        d_values=d_values,
        seed=_want_int(merged, "seed", 0),
        tables_per_cell=_want_int(merged, "tables_per_cell", 1),
        fit_budget=_want_int(merged, "fit_budget", 1),
        heldout_samples=_want_int(merged, "heldout_samples", 1),
        objectives=tuple(objectives),
        restarts=_want_int(merged, "restarts", 1),
        iterations=_want_int(merged, "iterations", 1),
        step=step,
        smoothing_eps=smoothing_eps,
        tolerances=tol,
    )
    _validate_for_command(cfg)
    return cfg


def _validate_for_command(cfg: ExperimentConfig) -> None:
    if cfg.command in ("check-lemmas", "fit-h", "verify-identity"):
        for m in cfg.m_values:
            for k in cfg.k_values:
                try:
                    check_radius(k, m)
                except ValueError as exc:
                    raise ConfigError(
                        f"k_values entry {k} with m_values entry {m}: {exc}"
                    ) from exc
    if cfg.command in ("fit-h", "verify-identity"):
        if len(cfg.m_values) != 1:
            raise ConfigError("m_values must hold a single value for identity fits")
        for n in cfg.n_values:
            need = minimum_sample_budget(n)
            if cfg.fit_budget < need:
                raise ConfigError(f"fit_budget must be at least {need} for n_values entry {n}")
    if cfg.command == "scan":
        for m in cfg.m_values:
            if m % 4 != 0:
                raise ConfigError("m_values entries must be divisible by 4 for scan")
        for key in ("p_values", "q_values", "d_values"):
            if len(getattr(cfg, key)) != 1:
                raise ConfigError(f"{key} must hold a single value for scan")
    if cfg.command == "estimate-constants":
        if "approximation" in cfg.objectives:
            # radius 1 makes every table a 0/0 approximation cell
            for k in cfg.k_values:
                if k < 3:
                    raise ConfigError(
                        "k_values entries must be at least 3 when objectives "
                        "include approximation"
                    )
        for objective, n, m, k, *_ in _search_cells(cfg):
            try:
                check_cell(objective, n, m, k)
            except ValueError as exc:
                raise ConfigError(
                    f"objectives entry {objective!r} at n={n}, m={m}, k={k}: {exc}"
                ) from exc


def _csv_text(columns, rows) -> str:
    sink = io.StringIO()
    writer = csv.writer(sink, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow(row)
    return sink.getvalue()


def _json_text(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _cell_seed_int(base: int, index: int) -> int:
    # a storable integer stream id; SeedSequence mixing keeps cells independent
    return int(np.random.SeedSequence((base, index)).generate_state(1)[0])


def _run_check_lemmas(cfg: ExperimentConfig, threads: int):
    rtol = cfg.tolerances["proven_inequality_rel"]
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
                approximation_ratio(f, k, norm, p, rtol=rtol),
                smoothing_ratio(f, k, norm, p),
            ]
            if m % 4 == 0:
                reports.append(scheme_composite_check(f, k, norm, p, rtol=rtol))
            rows.extend(r.with_seed(cfg.seed).to_csv_row() for r in reports)
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


def _run_estimate_constants(cfg: ExperimentConfig, threads: int):
    cells = _search_cells(cfg)

    def run(ci: int):
        objective, n, m, k, p, q, d = cells[ci]
        row = search_row(objective, TorusGeometry(n, m), d, q, p, k, cfg.optimizer(), ci)
        return row.to_csv_row()

    rows = map_cells(run, len(cells), threads)
    return {"report.csv": _csv_text(SCAN_CSV_COLUMNS, rows)}, True


def _run_scan(cfg: ExperimentConfig, threads: int):
    rows = scan_grid(
        cfg.n_values,
        cfg.m_values,
        p=cfg.p_values[0],
        q=cfg.q_values[0],
        d=cfg.d_values[0],
        config=cfg.optimizer(),
        threads=threads,
    )
    return {"report.csv": _csv_text(SCAN_CSV_COLUMNS, [r.to_csv_row() for r in rows])}, True


def _run_identity(cfg: ExperimentConfig, threads: int, verify: bool):
    m = cfg.m_values[0]
    tolerance = cfg.tolerances["identity_residual"]
    cells = [(n, k) for n in cfg.n_values for k in cfg.k_values]

    def run(ci: int):
        n, k = cells[ci]
        geometry = TorusGeometry(n, m)
        fit_seed = _cell_seed_int(cfg.seed, ci)
        coeffs = fit_identity_coefficients(
            geometry, k, cfg.fit_budget, fit_seed, cfg.heldout_samples
        )
        if verify:
            check = verify_identity(
                coeffs,
                geometry,
                k,
                tolerance=tolerance,
                n_samples=cfg.heldout_samples,
                seed=fit_seed + 1,
            )
            residual = check.max_residual
            samples = check.samples
            passed = check.passed
        else:
            residual = coeffs.residual
            samples = cfg.heldout_samples
            passed = residual < tolerance
        row = [
            format_cell(n),
            format_cell(m),
            format_cell(k),
            format_cell(fit_seed),
            format_cell(cfg.fit_budget),
            format_cell(samples),
            format_cell(coeffs.coefficient(0, 0)),
            format_cell(coeffs.shape_constant()),
            format_cell(residual),
            format_cell(tolerance),
            format_cell(passed),
        ]
        name = f"h_coeffs_{n}_{k}.json"
        return row, passed, name, _json_text(coeffs.to_json_dict())

    collected = map_cells(run, len(cells), threads)
    outputs = {}
    rows = []
    all_passed = True
    for row, passed, name, text in collected:
        rows.append(row)
        all_passed = all_passed and passed
        outputs[name] = text
    outputs["report.csv"] = _csv_text(IDENTITY_CSV_COLUMNS, rows)
    return outputs, all_passed


def _dispatch(cfg: ExperimentConfig, threads: int):
    if cfg.command == "check-lemmas":
        return _run_check_lemmas(cfg, threads)
    if cfg.command == "estimate-constants":
        return _run_estimate_constants(cfg, threads)
    if cfg.command == "scan":
        return _run_scan(cfg, threads)
    if cfg.command == "fit-h":
        return _run_identity(cfg, threads, verify=False)
    return _run_identity(cfg, threads, verify=True)


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
    parser.add_argument("--seed", type=int, default=None, help="override the base seed")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--threads", type=int, default=1, help="worker thread count")
    args = parser.parse_args(argv)

    try:
        raw = Path(args.config).read_text()
    except OSError as exc:
        print(f"config error: cannot read {args.config}: {exc}", file=sys.stderr)
        return 2
    try:
        payload = json.loads(raw)
    except json.JSONDecodeError as exc:
        print(f"config error: invalid JSON: {exc}", file=sys.stderr)
        return 2
    try:
        if args.seed is not None:
            if not isinstance(payload, dict):
                raise ConfigError("config must be a JSON object")
            payload = dict(payload, seed=args.seed)
        cfg = parse_config(payload)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    if args.threads < 1:
        print("config error: --threads must be positive", file=sys.stderr)
        return 2

    try:
        outputs, passed = _dispatch(cfg, args.threads)
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
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name in sorted(outputs):
        _atomic_write(out_dir / name, outputs[name])
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
