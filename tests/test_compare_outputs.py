"""tools/compare_outputs.py counts every differing report cell, numeric or not."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "compare_outputs.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("compare_outputs", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def write_report(directory: Path, rows: list[str]) -> Path:
    directory.mkdir()
    (directory / "report.csv").write_text("\n".join(["n,k,residual,passed", *rows]) + "\n")
    return directory


def test_cell_gaps_counts_cells_that_are_not_numbers_on_both_sides(tmp_path):
    tool = load_tool()
    base = write_report(tmp_path / "base", ["1,1,1e-09,true", "2,3,2e-09,true"])
    this = write_report(tmp_path / "this", ["1,,1e-09,true", "2,3,4e-09,false"])
    numeric, worst, other = tool.cell_gaps(base, this)
    assert dict(numeric) == {"residual": 1}
    assert worst == 0.5
    assert dict(other) == {"k": 1, "passed": 1}
    assert tool.differences(base, this) == ["report.csv"]
