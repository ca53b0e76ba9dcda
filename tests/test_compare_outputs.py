"""tools/compare_outputs.py counts every differing report cell, numeric or not."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "compare_outputs.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("compare_outputs", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def write_report(directory: Path, rows: list[str], header: str = "n,k,residual,passed") -> Path:
    directory.mkdir()
    (directory / "report.csv").write_text("\n".join([header, *rows]) + "\n")
    return directory


def test_cell_gaps_counts_cells_that_are_not_numbers_on_both_sides(tmp_path):
    tool = load_tool()
    base = write_report(tmp_path / "base", ["1,1,1e-09,true", "2,3,2e-09,true"])
    this = write_report(tmp_path / "this", ["1,,1e-09,true", "2,3,4e-09,false"])
    numeric, worst, other, one_sided = tool.cell_gaps(base, this)
    assert dict(numeric) == {"residual": 1}
    assert worst == 0.5
    assert dict(other) == {"k": 1, "passed": 1}
    assert not one_sided
    assert tool.differences(base, this) == ["report.csv"]


def test_cell_gaps_counts_rows_that_only_one_side_has(tmp_path):
    tool = load_tool()
    rows = ["1,1,1e-09,true", "2,3,2e-09,true", "3,3,3e-09,true"]
    base = write_report(tmp_path / "base", rows[:1])
    this = write_report(tmp_path / "this", rows)
    numeric, worst, other, one_sided = tool.cell_gaps(base, this)
    assert not numeric and not other and worst == 0.0
    assert dict(one_sided) == {"added rows": 2}
    assert dict(tool.cell_gaps(this, base)[3]) == {"dropped rows": 2}


def test_cell_gaps_matches_cells_by_column_name(tmp_path):
    # an inserted column z shifts y one place right; y itself is unchanged
    tool = load_tool()
    base = write_report(tmp_path / "base", ["1,0.5", "2,0.25"], header="x,y")
    this = write_report(tmp_path / "this", ["1,0.11,0.5", "2,0.12,0.3"], header="x,z,y")
    numeric, worst, other, one_sided = tool.cell_gaps(base, this)
    assert dict(numeric) == {"y": 1}
    assert worst == abs(0.25 - 0.3) / 0.3
    assert not other
    assert dict(one_sided) == {"reports adding column z": 1}
    assert dict(tool.cell_gaps(this, base)[3]) == {"reports dropping column z": 1}
