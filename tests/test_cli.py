import csv
import importlib.util
import json
import math
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enflolab import cli, identity, inequalities
from enflolab.cli import (
    COMMANDS,
    ConfigError,
    ExperimentConfig,
    IDENTITY_CSV_COLUMNS,
    SEARCH_CSV_COLUMNS,
    parse_config,
)
from enflolab.identity import IdentityCoefficients
from enflolab.inequalities import REPORT_CSV_COLUMNS
from enflolab.search import SEARCH_OBJECTIVES
from enflolab.torus import FunctionTable


def run_cli(config, out_dir, *extra):
    cfg_path = out_dir / "config.json"
    cfg_path.write_text(json.dumps(config))
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "enflolab.cli",
            "--config",
            str(cfg_path),
            "--out",
            str(out_dir),
            *extra,
        ],
        capture_output=True,
        text=True,
    )
    return proc


def read_outputs(out_dir):
    return {
        p.name: p.read_bytes()
        for p in sorted(out_dir.iterdir())
        if p.name != "config.json"
    }


def base_config(command, **overrides):
    cfg = {"schema_version": 1, "command": command}
    cfg.update(overrides)
    return cfg


# the smallest valid config of each command; scan refuses the defaults alone,
# because the default p_values holds two entries
MINIMAL_CONFIGS = {command: base_config(command) for command in COMMANDS}
MINIMAL_CONFIGS["scan"] = base_config("scan", p_values=[2.0])

# the keys each command reads: the only keys its config may set, and exactly
# those its manifest echoes
SHARED_KEYS = {"schema_version", "command", "n_values", "m_values", "seed"}
READ_KEYS = {
    "check-lemmas": SHARED_KEYS
    | {"k_values", "p_values", "q_values", "d_values", "tables_per_cell"},
    "estimate-constants": SHARED_KEYS
    | {"objectives", "k_values", "p_values", "q_values", "d_values", "restarts", "iterations"},
    "scan": SHARED_KEYS | {"p_values", "q_values", "d_values", "restarts", "iterations"},
    "verify-identity": SHARED_KEYS | {"k_values", "heldout_samples"},
}


def test_parse_errors_name_the_offending_field():
    checks = [
        ({}, "schema_version"),
        ({"schema_version": 2, "command": "scan"}, "schema_version"),
        ({"schema_version": True, "command": "scan"}, "schema_version"),
        ({"schema_version": 1.0, "command": "scan"}, "schema_version"),
        ({"schema_version": 1}, "command"),
        ({"schema_version": 1, "command": "dance"}, "command"),
        ({"schema_version": 1, "command": "fit-h"}, "command"),
        (base_config("scan", volume=11), "volume"),
        (base_config("check-lemmas", k_values=[2]), "k_values"),
        (base_config("check-lemmas", m_values=[8], k_values=[5]), "m/2"),
        (base_config("check-lemmas", q_values=[float("nan")]), "q_values"),
        (base_config("check-lemmas", p_values=[float("nan")]), "p_values"),
        (base_config("scan", m_values=[6]), "divisible by 4"),
        (base_config("scan", p_values=[1.0, 2.0]), "p_values"),
        (base_config("verify-identity", m_values=[8, 12]), "m_values"),
        (base_config("verify-identity", fit_budget=10), "unknown config key 'fit_budget'"),
        (base_config("verify-identity", fit_budget=120), "unknown config key 'fit_budget'"),
        (base_config("verify-identity", n_values=[7]), "too large"),
        (
            base_config("check-lemmas", tolerances={"proven_inequality_rel": 1e-3}),
            "unknown config key 'tolerances'",
        ),
        (base_config("estimate-constants", step=float("inf")), "unknown config key 'step'"),
        (
            base_config("estimate-constants", smoothing_eps=float("inf")),
            "unknown config key 'smoothing_eps'",
        ),
        (base_config("check-lemmas", seed=-1), "seed"),
        (base_config("estimate-constants", objectives=["warp"]), "objectives"),
        (
            base_config("estimate-constants", objectives=["pisier"], n_values=[9]),
            "pisier",
        ),
        (
            base_config("estimate-constants", objectives=["approximation"], k_values=[1]),
            "k_values",
        ),
    ]
    # the CLI owns the ascent knobs' bounds: the search takes them unchecked
    for command in COMMANDS:
        bad = [("seed", -3), ("seed", True)]
        if "restarts" in READ_KEYS[command]:
            bad += [(key, value) for key in ("restarts", "iterations") for value in (0, True)]
        checks += [(dict(MINIMAL_CONFIGS[command], **{key: value}), key) for key, value in bad]
    for payload, fragment in checks:
        with pytest.raises(ConfigError, match=fragment):
            parse_config(payload)


@pytest.mark.parametrize("key", [f.name for f in fields(ExperimentConfig)])
@pytest.mark.parametrize("command", COMMANDS)
def test_a_command_accepts_only_the_keys_it_reads(command, key, tmp_path, capsys):
    # the key's parsed or default value, valid for the command: only the key can be refused
    echo = parse_config(MINIMAL_CONFIGS[command]).to_echo_dict()
    value = echo.get(key, getattr(ExperimentConfig(command=command), key))
    payload = dict(MINIMAL_CONFIGS[command], **{key: value})
    if key in READ_KEYS[command]:
        assert parse_config(payload).to_echo_dict() == echo
        return
    assert run_main(payload, tmp_path) == 2
    assert f"unknown config key {key!r} for {command}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_parse_round_trip_defaults():
    for command, payload in MINIMAL_CONFIGS.items():
        cfg = parse_config(payload)
        assert cfg.command == command
        echo = cfg.to_echo_dict()
        assert parse_config(echo).to_echo_dict() == echo
    assert set(COMMANDS) == {
        "check-lemmas",
        "estimate-constants",
        "scan",
        "verify-identity",
    }


JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([10**400, -(10**400)])
    | st.floats()
    | st.sampled_from([math.inf, -math.inf, math.nan])
    | st.text(max_size=8)
    | st.sampled_from(["inf", *COMMANDS, *SEARCH_OBJECTIVES]),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=8,
)


@pytest.mark.parametrize("command", COMMANDS)
@settings(max_examples=150, deadline=None)
@given(key=st.sampled_from([f.name for f in fields(ExperimentConfig)]), value=JSON_VALUES)
def test_any_json_field_value_is_parsed_or_refused(command, key, value):
    payload = dict(MINIMAL_CONFIGS[command], **{key: value})
    try:
        cfg = parse_config(payload)
    except ConfigError:
        return
    echo = cfg.to_echo_dict()
    text = json.dumps(echo, allow_nan=False)
    assert parse_config(json.loads(text)).to_echo_dict() == echo


def check_lemmas_config():
    return base_config(
        "check-lemmas",
        n_values=[1, 2],
        m_values=[8],
        k_values=[1, 3],
        p_values=[1.0, 2.0],
        q_values=[2.0],
        d_values=[1],
        tables_per_cell=3,
        seed=7,
    )


def test_check_lemmas_is_byte_identical_across_threads(tmp_path):
    runs = {}
    for label, extra in (("a", ()), ("b", ()), ("c", ("--threads", "4"))):
        out = tmp_path / label
        out.mkdir()
        proc = run_cli(check_lemmas_config(), out, *extra)
        assert proc.returncode == 0, proc.stderr
        runs[label] = read_outputs(out)
    assert runs["a"] == runs["b"]
    assert runs["a"] == runs["c"]
    names = set(runs["a"])
    assert "report.csv" in names and "run_manifest.json" in names
    header = runs["a"]["report.csv"].decode().splitlines()[0]
    assert header == ",".join(REPORT_CSV_COLUMNS)


def test_manifest_omits_runtime_only_flags(tmp_path):
    out = tmp_path / "run"
    out.mkdir()
    proc = run_cli(check_lemmas_config(), out, "--threads", "2")
    assert proc.returncode == 0, proc.stderr
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["command"] == "check-lemmas"
    assert manifest["package_version"]
    blob = json.dumps(manifest)
    assert "threads" not in blob
    assert "out" not in manifest["config"]


def test_seed_override_changes_outputs_and_manifest(tmp_path):
    # the config is a run's only input: its seed key, not a flag, sets the seed
    outs = {}
    for label, seed in (("base", 7), ("alt", 99)):
        out = tmp_path / label
        out.mkdir()
        proc = run_cli({**check_lemmas_config(), "seed": seed}, out)
        assert proc.returncode == 0, proc.stderr
        outs[label] = read_outputs(out)
    assert outs["base"]["report.csv"] != outs["alt"]["report.csv"]
    manifest = json.loads(outs["alt"]["run_manifest.json"].decode())
    assert manifest["config"]["seed"] == 99


def test_the_seed_flag_is_gone(tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_:
        run_main(check_lemmas_config(), tmp_path, "--seed", "3")
    assert exit_.value.code == 2
    assert "--seed" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# one small run per command; each sets some of the keys its command reads, so
# the manifest must echo the defaults of the others too
SMALL_CONFIGS = {
    "check-lemmas": base_config("check-lemmas", n_values=[1], tables_per_cell=1),
    "estimate-constants": base_config(
        "estimate-constants", n_values=[1], p_values=[2.0], restarts=1, iterations=2
    ),
    "scan": base_config("scan", n_values=[1], m_values=[4], p_values=[2.0], restarts=1),
    "verify-identity": base_config("verify-identity", n_values=[1], heldout_samples=2),
}


@pytest.mark.parametrize("command", COMMANDS)
def test_manifest_echoes_exactly_the_keys_its_command_reads(command, tmp_path):
    assert run_main(SMALL_CONFIGS[command], tmp_path) == 0
    manifest = json.loads((tmp_path / "out" / "run_manifest.json").read_text())
    assert set(manifest["config"]) == READ_KEYS[command]
    assert manifest["config"]["command"] == command


def fit_config(**overrides):
    return base_config(
        "verify-identity",
        n_values=[2],
        m_values=[8],
        k_values=[3],
        heldout_samples=60,
        seed=5,
        **overrides,
    )


def test_identity_run_writes_coefficients_and_report(tmp_path):
    out = tmp_path / "fit"
    out.mkdir()
    proc = run_cli(fit_config(), out)
    assert proc.returncode == 0, proc.stderr
    blob = json.loads((out / "h_coeffs_2_3.json").read_text())
    coeffs = IdentityCoefficients.from_json_dict(blob)
    assert coeffs.coefficient(0, 0) == 1.0
    assert "residual" not in blob
    lines = (out / "report.csv").read_text().splitlines()
    assert lines[0] == ",".join(IDENTITY_CSV_COLUMNS)
    assert len(lines) == 2
    row = dict(zip(IDENTITY_CSV_COLUMNS, lines[1].split(",")))
    assert float(row["residual"]) < 1e-8
    assert row["passed"] == "true"


def run_main(config, tmp_path, *extra):
    """cli.main in this process, so a test can patch the module constants it reads."""
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    return cli.main(["--config", str(cfg_path), "--out", str(tmp_path / "out"), *extra])


def test_identity_failure_still_writes_outputs(tmp_path, monkeypatch):
    monkeypatch.setattr(identity, "IDENTITY_RESIDUAL_TOL", 1e-30)
    assert run_main(fit_config(), tmp_path) == 1
    lines = (tmp_path / "out" / "report.csv").read_text().splitlines()
    assert lines[1].split(",")[-1] == "false"
    assert (tmp_path / "out" / "run_manifest.json").exists()


def test_proven_bound_violation_exits_1_and_writes_nothing(tmp_path, monkeypatch, capsys):
    # a negative slack puts every bound at a thousandth of its value
    monkeypatch.setattr(inequalities, "PROVEN_BOUND_RTOL", -0.999)
    assert run_main(check_lemmas_config(), tmp_path) == 1
    assert any(line.startswith("violation:") for line in capsys.readouterr().err.splitlines())
    assert not (tmp_path / "out").exists()


def test_nonpositive_threads_exit_2_and_write_nothing(tmp_path, capsys):
    assert run_main(check_lemmas_config(), tmp_path, "--threads", "0") == 2
    assert "--threads must be positive" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_out_at_or_under_a_file_exits_2_before_computing(tmp_path, monkeypatch, capsys):
    def no_table(*args, **kwargs):
        raise AssertionError("a table was built")

    monkeypatch.setattr(FunctionTable, "__init__", no_table)
    taken = tmp_path / "taken"
    taken.write_text("keep")
    dangling = tmp_path / "dangling"
    dangling.symlink_to(tmp_path / "nowhere")
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(base_config("check-lemmas", n_values=[1], k_values=[1])))
    for out in (taken, taken / "sub", dangling):
        assert cli.main(["--config", str(cfg_path), "--out", str(out)]) == 2
        assert "--out" in capsys.readouterr().err
    assert taken.read_text() == "keep"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "dangling", "taken"]


def test_invalid_config_exits_2_and_writes_nothing(tmp_path):
    out = tmp_path / "bad"
    out.mkdir()
    proc = run_cli(base_config("scan", m_values=[6]), out)
    assert proc.returncode == 2
    assert "divisible by 4" in proc.stderr
    assert read_outputs(out) == {}
    # fit-h is no longer a command; verify-identity fits and replays
    proc = run_cli(base_config("fit-h", n_values=[1]), out)
    assert proc.returncode == 2
    assert "command" in proc.stderr
    assert read_outputs(out) == {}
    # json writes and reads NaN; it must be refused at config time, not mid-run
    proc = run_cli(base_config("check-lemmas", n_values=[1], q_values=[float("nan")]), out)
    assert proc.returncode == 2
    assert "q_values" in proc.stderr
    assert read_outputs(out) == {}
    # the ascent's step is a fixed constant; a config that sets it is refused
    proc = run_cli(base_config("estimate-constants", n_values=[1], step=float("inf")), out)
    assert proc.returncode == 2
    assert "unknown config key 'step'" in proc.stderr
    assert read_outputs(out) == {}
    # an integer literal past Python's 4300-digit limit is a config error too
    huge = tmp_path / "huge.json"
    huge.write_text('{"schema_version": 1, "command": "scan", "seed": ' + "9" * 5000 + "}")
    for path in (tmp_path / "missing.json", huge):
        proc = subprocess.run(
            [sys.executable, "-m", "enflolab.cli", "--config", str(path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2, proc.stderr
    # a config that is not UTF-8 is a config error too, not a traceback
    garbled = tmp_path / "garbled.json"
    garbled.write_bytes(b"\xff{}")
    assert cli.main(["--config", str(garbled), "--out", str(tmp_path / "garbled")]) == 2
    assert not (tmp_path / "garbled").exists()
    # so is one nested past the parser's recursion limit, which raises
    # RecursionError; a traceback's exit 1 would claim a violated bound
    nested = tmp_path / "nested.json"
    nested.write_text("[" * 200000 + "]" * 200000)
    assert cli.main(["--config", str(nested), "--out", str(tmp_path / "nested")]) == 2
    assert not (tmp_path / "nested").exists()


@pytest.mark.parametrize("q", [800.0, 1e308])
def test_check_lemmas_at_a_huge_finite_q_reports_finite_ratios(q, tmp_path):
    # |v|^q overflows far below these q; the norms must not, nor fail a proven bound
    config = base_config(
        "check-lemmas",
        n_values=[1],
        m_values=[8],
        k_values=[3],
        p_values=[1.0],
        q_values=[q],
        d_values=[2],
    )
    assert run_main(config, tmp_path) == 0
    with open(tmp_path / "out" / "report.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4 * 25
    for row in rows:
        assert all(math.isfinite(float(row[column])) for column in ("lhs", "rhs", "ratio"))


def test_a_radius_one_cell_writes_the_degenerate_approximation_row_unread(tmp_path, monkeypatch):
    # the radius-1 box is the zero offset, so B f - f is 0 and the approximation
    # side has moment 0 without a read: each table takes 1 + n moments for
    # scaled Enflo (its edge energy shared) and 2^(n-1) for smoothing
    calls = []
    real = inequalities._grid_moment

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(inequalities, "_grid_moment", counted)
    config = base_config(
        "check-lemmas",
        n_values=[1, 2],
        m_values=[8],
        k_values=[1],
        p_values=[1.5],
        q_values=[2],
        d_values=[2],
        tables_per_cell=1,
    )
    assert run_main(config, tmp_path) == 0
    lines = (tmp_path / "out" / "report.csv").read_text().splitlines()
    assert [line for line in lines if line.startswith("approximation,")] == [
        "approximation,1,8,1,1.5,2.0,2,0.0,0.0,,true,0",
        "approximation,2,8,1,1.5,2.0,2,0.0,0.0,,true,0",
    ]
    assert len(calls) == (1 + 1 + 1) + (1 + 2 + 2)


def test_scan_outputs_are_thread_independent(tmp_path):
    cfg = base_config(
        "scan",
        n_values=[1, 2],
        m_values=[4, 8],
        p_values=[2.0],
        q_values=[2.0],
        d_values=[1],
        restarts=2,
        iterations=20,
        seed=11,
    )
    outs = {}
    for label, extra in (("one", ()), ("two", ("--threads", "3"))):
        out = tmp_path / label
        out.mkdir()
        proc = run_cli(cfg, out, *extra)
        assert proc.returncode == 0, proc.stderr
        outs[label] = read_outputs(out)
    assert outs["one"] == outs["two"]
    lines = outs["one"]["report.csv"].decode().splitlines()
    assert lines[0] == ",".join(SEARCH_CSV_COLUMNS)
    assert len(lines) == 5


def search_rows(config, out_dir):
    """Run a search command and return its report.csv rows, header first."""
    out_dir.mkdir()
    proc = run_cli(config, out_dir)
    assert proc.returncode == 0, proc.stderr
    return list(csv.reader((out_dir / "report.csv").read_text().splitlines()))


def test_scan_rows_report_the_radius_rule_and_the_search(tmp_path):
    # the half-shift objective takes no radius, so k is empty
    cfg = base_config(
        "scan", n_values=[1, 3], m_values=[4, 8], p_values=[2.0], restarts=2, iterations=15, seed=1
    )
    header, *rows = search_rows(cfg, tmp_path / "scan")
    assert header == list(SEARCH_CSV_COLUMNS)
    cells = [dict(zip(header, row)) for row in rows]
    assert [(c["n"], c["m"]) for c in cells] == [("1", "4"), ("1", "8"), ("3", "4"), ("3", "8")]
    assert [c["k"] for c in cells] == ["", "", "", ""]
    for row, c in zip(rows, cells):
        assert len(row) == len(SEARCH_CSV_COLUMNS)
        assert c["objective"] == "scaled_enflo"
        theta, lhs, rhs = (float(c[key]) for key in ("empirical_theta", "lhs", "rhs"))
        assert theta > 0.0 and math.isclose(theta, (lhs / rhs) ** 0.5, rel_tol=1e-12)
        assert (c["restarts"], c["seed"]) == ("2", "1")
        assert 0 <= int(c["iterations"]) <= 15


def test_scan_rows_are_estimate_constants_rows(tmp_path):
    grid = dict(
        n_values=[1, 2], m_values=[4, 8], p_values=[1.5], restarts=2, iterations=15, seed=7
    )
    scan = search_rows(base_config("scan", **grid), tmp_path / "scan")
    estimate = search_rows(
        base_config("estimate-constants", objectives=["scaled_enflo"], **grid),
        tmp_path / "estimate",
    )
    assert len(scan) == 5
    assert scan == estimate


# cells past the size limits, each refused at config time: a table too large to
# hold, a diagonal moment too long to compute, and identity fits too large to hold
OVERSIZED_CONFIGS = [
    base_config("check-lemmas", n_values=[40]),
    base_config("check-lemmas", n_values=[9], m_values=[16]),
    base_config("check-lemmas", n_values=[7], m_values=[8], d_values=[2]),
    base_config("estimate-constants", n_values=[9], m_values=[16]),
    base_config(
        "estimate-constants", objectives=["smoothing"], n_values=[6], k_values=[3], d_values=[32]
    ),
    base_config("estimate-constants", objectives=["pisier"], n_values=[8], d_values=[256]),
    base_config("scan", n_values=[9], m_values=[16], p_values=[2.0]),
    base_config("verify-identity", n_values=[6]),
    base_config("verify-identity", n_values=[40]),
]


def test_oversized_cells_are_refused_before_any_table_exists(monkeypatch):
    def no_table(*args, **kwargs):
        raise AssertionError("a table was built")

    monkeypatch.setattr(FunctionTable, "__init__", no_table)
    for payload in OVERSIZED_CONFIGS:
        with pytest.raises(ConfigError, match="too large"):
            parse_config(payload)
    # check-lemmas at n=7, m=8 computes exactly the 2^28 limit; it still parses
    parse_config(base_config("check-lemmas", n_values=[7], m_values=[8]))


@pytest.mark.parametrize("payload", OVERSIZED_CONFIGS)
def test_oversized_cells_exit_2_and_write_nothing(tmp_path, payload):
    proc = run_cli(payload, tmp_path)
    assert proc.returncode == 2
    assert "too large" in proc.stderr
    assert read_outputs(tmp_path) == {}


@pytest.mark.parametrize(
    "payload",
    [
        base_config("estimate-constants", n_values=[3], m_values=[128], d_values=[2]),
        base_config("scan", n_values=[3], m_values=[128], p_values=[2.0], d_values=[2]),
    ],
    ids=["estimate-constants", "scan"],
)
def test_size_guard_counts_restarts(tmp_path, payload):
    # a 2^22-entry table fits once; the ascent's stack of 6 restarts does not
    parse_config({**payload, "restarts": 1})
    proc = run_cli({**payload, "restarts": 6}, tmp_path)
    assert proc.returncode == 2
    assert "too large" in proc.stderr
    assert read_outputs(tmp_path) == {}


FIT_PEAK_SCRIPT = """
import sys, tracemalloc
from enflolab.identity import fit_identity_coefficients
from enflolab.torus import TorusGeometry
n, m, k = map(int, sys.argv[1:])
tracemalloc.start()
fit_identity_coefficients(TorusGeometry(n, m), k)
print(tracemalloc.get_traced_memory()[1])
"""


@pytest.mark.parametrize("n,m,k", [(3, 16, 3), (4, 8, 3), (4, 12, 5), (5, 8, 3)])
def test_the_identity_size_rule_bounds_one_fit(n, m, k):
    # a fit in a fresh process, so the supports it caches count too;
    # tracemalloc sees numpy's arrays, not LAPACK's own buffers, which the
    # rule also counts. The fit that held 2^n complement averages peaked at
    # 43.8, 66.8, 73.3 and 97.6 m^n entries here, past the rule's 2^n + P
    held, computed = cli._cell_entries("verify-identity", n, m, 1)
    proc = subprocess.run(
        [sys.executable, "-c", FIT_PEAK_SCRIPT, str(n), str(m), str(k)],
        capture_output=True,
        text=True,
        check=True,
    )
    peak = int(proc.stdout)
    assert peak <= 8 * held, (peak / 8 / m**n, held / m**n)
    assert computed == 3**n * m**n


def test_the_identity_size_rule_only_tightens():
    # never below the count of 2^n complement averages plus the impulse system
    for n in range(1, 25):
        for m in (4, 8, 16, 64):
            held, _ = cli._cell_entries("verify-identity", n, m, 1)
            assert held >= (2**n + (n + 1) * (n + 2) // 2) * m**n


def test_every_benchmark_config_passes_the_size_guard(monkeypatch):
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    for workload in workloads.WORKLOADS:
        for payload in workloads.configs(workload, seed=0):
            parse_config(payload)


@pytest.mark.parametrize(
    "payload",
    [
        pytest.param(
            base_config(
                "verify-identity",
                n_values=[1, 2],
                k_values=[1, 3],
                heldout_samples=20,
                seed=17,
            ),
            id="verify-identity",
        ),
        pytest.param(
            base_config(
                "estimate-constants",
                objectives=["scaled_enflo", "smoothing", "enflo"],
                n_values=[2],
                k_values=[3],
                p_values=[1.5, 2.0],
                restarts=2,
                iterations=15,
                seed=13,
            ),
            id="estimate-constants",
        ),
    ],
)
def test_outputs_are_byte_identical_across_threads(tmp_path, payload):
    runs = {}
    for threads in ("1", "2"):
        out = tmp_path / threads
        out.mkdir()
        proc = run_cli(payload, out, "--threads", threads)
        assert proc.returncode == 0, proc.stderr
        runs[threads] = read_outputs(out)
    assert runs["1"] == runs["2"]
    assert "report.csv" in runs["1"]
