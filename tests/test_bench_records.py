"""The committed BENCH_*.json records: each is a clean perfbench run with its machine."""

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_bench_record_is_a_clean_run_with_its_core_count():
    paths = sorted(ROOT.glob("BENCH_*.json"))
    assert paths, "no BENCH_*.json at the repo root"
    for path in paths:
        record = json.loads(path.read_text())
        assert record["runs"], path.name
        for run in record["runs"]:
            result = run["result"]
            assert result["correct"] is True, path.name
            assert result["failed"] == 0, path.name
            nproc = run["detail"]["environment"]["nproc"]
            assert isinstance(nproc, int) and nproc >= 1, path.name
