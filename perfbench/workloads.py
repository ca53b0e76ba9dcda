"""Workload definitions: the CLI configs each workload runs and the checks on their outputs.

Each workload is a fixed list of configs that run back to back through
``enflolab.cli.main``. The workload seed goes into every config's ``seed``
field; nothing else about the inputs depends on it. The grids were sized on
a 2-core x86 box (numpy 2.4, no numba) so one pass takes 4 to 8 seconds.
"""

from __future__ import annotations

import csv
import gzip
import io
import math
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("sweep", "search", "identity")

# the sweep reference was recorded at this seed; other seeds skip that check
REFERENCE_SEED = 0
REFERENCE_PATH = Path(__file__).resolve().parent / "reference" / "sweep_seed0.csv.gz"
REFERENCE_RTOL = 1e-12

# a found ratio may exceed its proven supremum by float rounding only
SUPREMUM_RTOL = 1e-9

# ascent budget of the search workload: 2 restarts x 60 steps keeps one pass
# near 5.5 s while every objective and the hypercube evaluators still run
_SEARCH_BUDGET = {"restarts": 2, "iterations": 60}


def configs(workload: str, seed: int) -> list[dict]:
    """The CLI configs of one workload pass, seeded by the workload seed.

    Each grid is cut into small configs (about 0.01 to 1 s each, except the
    single n=4, k=3 identity cell) that run back to back, so that the probe
    the pass times between configs follows the host's speed (see
    ``run.steady_pass_s``). Together they cover the same grid as one config
    would, with other per-cell seeds.
    """
    if workload == "sweep":
        # exact evaluators on few, large arrays: the ROADMAP check-lemmas grid,
        # one config per (n, m, k, p)
        raw = [
            {
                "command": "check-lemmas",
                "n_values": [n],
                "m_values": [m],
                "k_values": [k],
                "p_values": [p],
                "q_values": [1, 2, "inf"],
                "d_values": [1, 3],
                "tables_per_cell": 1,
            }
            for n in (1, 2, 3, 4)
            for m in (8, 12, 16)
            for k in (1, 3)
            for p in (1, 1.5, 2)
        ]
    elif workload == "search":
        # the gradient path, the hypercube objectives, and the scan loop;
        # one config per (objective, n, m) on the torus, per (objective, n)
        # on the cube
        raw = [
            {
                "command": "estimate-constants",
                "objectives": [objective],
                "n_values": [n],
                "m_values": [m],
                "k_values": [3],
                "p_values": [1.5, 2],
                **_SEARCH_BUDGET,
            }
            for objective in ("scaled_enflo", "approximation", "smoothing")
            for n in (2, 3)
            for m in (8, 12, 16)
        ]
        raw += [
            {
                "command": "estimate-constants",
                "objectives": [objective],
                "n_values": [n],
                "p_values": [1.5, 2],
                **_SEARCH_BUDGET,
            }
            for objective in ("enflo", "pisier")
            for n in (4, 5, 6)
        ]
        raw.append(
            {
                "command": "scan",
                "n_values": [1, 2],
                "m_values": [8, 12],
                "p_values": [2],
                "q_values": [2],
                "d_values": [1],
                **_SEARCH_BUDGET,
            }
        )
    elif workload == "identity":
        # many small averaging calls: fit, then replay, on grids of at most
        # 8^4, one config per (n, k)
        raw = [
            {
                "command": "verify-identity",
                "n_values": [n],
                "m_values": [8],
                "k_values": [k],
                "heldout_samples": 100,
            }
            for n in (1, 2, 3, 4)
            for k in (1, 3)
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return [dict(cfg, schema_version=1, seed=seed) for cfg in raw]


def reference_slices(configs_: list[dict], reference: list[list[str]]) -> list[list[list[str]]]:
    """Cut the recorded sweep report (header, then every config's rows in
    config order) into one [header, rows...] table per config."""
    header, rows = (reference or [[]])[0], reference[1:]
    out, start = [], 0
    for cfg in configs_:
        stop = start + expected_rows(cfg)
        out.append([header, *rows[start:stop]])
        start = stop
    return out


def known_supremum(objective: str, m: int, p: float, q: float) -> float | None:
    """Exact supremum of the ratio where a closed form exists (p = q = 2).

    Scaled Enflo on Z_m^n: 1 / (m^2 sin^2(pi/m)), attained by cos(2 pi x_0 / m)
    (Mendel-Naor 2007). Enflo on the hypercube: 1, attained by a Walsh
    character of degree one.
    """
    if p != 2.0 or q != 2.0:
        return None
    if objective == "scaled_enflo":
        return 1.0 / (m * m * math.sin(math.pi / m) ** 2)
    if objective == "enflo":
        return 1.0
    return None


def _floats(values, default) -> list[float]:
    return [math.inf if v == "inf" else float(v) for v in values or default]


def _search_cells(cfg: dict) -> list[tuple[str, int, int, float, float]]:
    """(objective, n, m, p, q) per report row, in the CLI's row order."""
    p_values = _floats(cfg.get("p_values"), [1.0, 2.0])
    q_values = _floats(cfg.get("q_values"), [2.0])
    d_count = len(cfg.get("d_values", [1]))
    if cfg["command"] == "scan":
        return [
            ("scaled_enflo", n, m, p_values[0], q_values[0])
            for n in cfg["n_values"]
            for m in cfg["m_values"]
        ]
    cells = []
    for objective in cfg["objectives"]:
        torus = objective in ("scaled_enflo", "smoothing", "approximation")
        radius = objective in ("smoothing", "approximation")
        for n in cfg["n_values"]:
            for m in cfg["m_values"] if torus else [2]:
                for _ in cfg.get("k_values", [1, 3]) if radius else [None]:
                    for p in p_values:
                        for q in q_values:
                            cells.extend([(objective, n, m, p, q)] * d_count)
    return cells


def expected_files(cfg: dict) -> set[str]:
    names = {"report.csv", "run_manifest.json"}
    if cfg["command"] == "verify-identity":
        names |= {f"h_coeffs_{n}_{k}.json" for n in cfg["n_values"] for k in cfg["k_values"]}
    return names


def expected_rows(cfg: dict) -> int:
    command = cfg["command"]
    if command == "check-lemmas":
        cells = (
            len(cfg["n_values"]) * len(cfg["k_values"]) * len(cfg["p_values"])
            * len(cfg["q_values"]) * len(cfg["d_values"])
        )
        evaluators = sum(3 + (m % 4 == 0) for m in cfg["m_values"])
        return cells * evaluators * cfg["tables_per_cell"]
    if command in ("estimate-constants", "scan"):
        return len(_search_cells(cfg))
    return len(cfg["n_values"]) * len(cfg["k_values"])


def _per_row_checks(cfg: dict) -> int:
    """Row checks a config gets; a failed run counts all of them as failed."""
    command = cfg["command"]
    if command == "check-lemmas":
        return expected_rows(cfg) * (1 + (cfg["seed"] == REFERENCE_SEED))
    if command in ("estimate-constants", "scan"):
        known = sum(known_supremum(o, m, p, q) is not None for o, _, m, p, q in _search_cells(cfg))
        return expected_rows(cfg) + known
    return 2 * expected_rows(cfg)


def load_reference() -> list[list[str]]:
    with gzip.open(REFERENCE_PATH, "rt", newline="") as source:
        return list(csv.reader(source))


def _close(a: str, b: str) -> bool:
    if a == b:
        return True
    try:
        x, y = float(a), float(b)
    except ValueError:
        return False
    return abs(x - y) <= REFERENCE_RTOL * max(abs(x), abs(y))


@dataclass
class CheckResult:
    attempted: int = 0
    failed: int = 0

    def add(self, ok: bool, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(problems) < 20:
                problems.append(what)

    def merge(self, other: "CheckResult") -> None:
        self.attempted += other.attempted
        self.failed += other.failed


# report.csv columns each command's checks read
_COLUMNS = {
    "check-lemmas": {"lhs", "rhs", "ratio", "degenerate"},
    "estimate-constants": {"lhs", "rhs", "iterations"},
    "scan": {"lhs", "rhs", "iterations"},
    "verify-identity": {"passed", "h00", "budget", "samples"},
}


def _rows(files: dict[str, bytes]) -> tuple[dict[str, int], list[list[str]]]:
    """Column positions and data rows of report.csv."""
    table = list(csv.reader(io.StringIO(files["report.csv"].decode()))) or [[]]
    return {name: i for i, name in enumerate(table[0])}, table[1:]


def _ratio(row: list[str], col: dict[str, int]) -> float:
    lhs, rhs = _num(row[col["lhs"]]), _num(row[col["rhs"]])
    return lhs / rhs if rhs else math.nan


def check_config(
    cfg: dict, rc: int, files: dict[str, bytes] | None, reference, problems: list[str]
) -> CheckResult:
    """Check one config's outputs; a nonzero exit fails every check of the config."""
    label = cfg["command"]
    result = CheckResult()
    if rc != 0 or files is None:
        result.attempted = result.failed = 3 + _per_row_checks(cfg)
        problems.append(f"{label}: exit code {rc}")
        return result
    result.add(True, "exit", problems)
    present = set(files) == expected_files(cfg)
    if present:
        col, rows = _rows(files)
        present = _COLUMNS[cfg["command"]] <= set(col)
    result.add(present, f"{label}: output set {sorted(files)} or report columns", problems)
    if not present:
        result.attempted += 1 + _per_row_checks(cfg)
        result.failed += 1 + _per_row_checks(cfg)
        return result
    want = expected_rows(cfg)
    result.add(len(rows) == want, f"{label}: {len(rows)} rows, expected {want}", problems)
    rows = [row if len(row) == len(col) else None for row in rows]
    rows = (rows + [None] * want)[:want]

    if cfg["command"] == "check-lemmas":
        for i, row in enumerate(rows):
            # the radius-1 approximation rows are 0/0 by definition and flagged so
            ok = row is not None and (
                math.isfinite(_num(row[col["ratio"]]))
                or (
                    row[col["degenerate"]] == "true"
                    and row[col["ratio"]] == ""
                    and _num(row[col["lhs"]]) == 0.0
                    and _num(row[col["rhs"]]) == 0.0
                )
            )
            result.add(ok, f"{label}: row {i} ratio not finite", problems)
        if cfg["seed"] == REFERENCE_SEED:
            ref = reference[1:]
            for i, row in enumerate(rows):
                ok = (
                    row is not None
                    and i < len(ref)
                    and list(col) == reference[0]
                    and len(row) == len(ref[i])
                    and all(_close(a, b) for a, b in zip(row, ref[i]))
                )
                result.add(ok, f"{label}: row {i} differs from the reference", problems)
    elif cfg["command"] in ("estimate-constants", "scan"):
        for i, (row, cell) in enumerate(zip(rows, _search_cells(cfg))):
            ratio = math.nan if row is None else _ratio(row, col)
            result.add(math.isfinite(ratio), f"{label}: row {i} ratio not finite", problems)
            exact = known_supremum(cell[0], cell[2], cell[3], cell[4])
            if exact is not None:
                ok = ratio <= exact * (1.0 + SUPREMUM_RTOL)
                result.add(ok, f"{label}: row {i} ratio {ratio!r} above {exact!r}", problems)
    else:
        for i, row in enumerate(rows):
            passed = row is not None and row[col["passed"]] == "true"
            result.add(passed, f"{label}: row {i} not passed", problems)
            h00 = row is not None and _num(row[col["h00"]]) == 1.0
            result.add(h00, f"{label}: row {i} h00 is not 1", problems)
    return result


def _num(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        return math.nan


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        return 0


def search_stats(cfg: dict, files: dict[str, bytes] | None) -> tuple[int, list[float]]:
    """Accepted ascent steps (report.csv) and 1 - found/exact per known-supremum row."""
    if files is None or cfg["command"] not in ("estimate-constants", "scan"):
        return 0, []
    col, rows = _rows(files)
    if not _COLUMNS[cfg["command"]] <= set(col):
        return 0, []
    steps = sum(_int(row[col["iterations"]]) for row in rows if len(row) == len(col))
    gaps = []
    for row, cell in zip(rows, _search_cells(cfg)):
        exact = known_supremum(cell[0], cell[2], cell[3], cell[4])
        if exact is not None and len(row) == len(col):
            gaps.append(1.0 - _ratio(row, col) / exact)
    return steps, gaps


def identity_equations(cfg: dict, files: dict[str, bytes] | None) -> int:
    """Equations the identity lab solved plus replayed, from report.csv budget + samples."""
    if files is None or cfg["command"] != "verify-identity":
        return 0
    col, rows = _rows(files)
    if not _COLUMNS[cfg["command"]] <= set(col):
        return 0
    return sum(
        _int(row[col["budget"]]) + _int(row[col["samples"]])
        for row in rows
        if len(row) == len(col)
    )
