"""Record the sweep workload's report rows at the reference seed.

Usage: python3 perfbench/record_reference.py

The sweep check compares every later run at that seed against this file
within 1e-12 relative. Re-record only when the evaluators' results are meant
to change, and say so where the change is described.
"""

import gzip
import json
import sys
import tempfile
from pathlib import Path

import workloads

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from enflolab.cli import main  # noqa: E402


def record() -> int:
    """Write the header once, then every sweep config's rows in config order."""
    parts = []
    with tempfile.TemporaryDirectory(prefix=".work-", dir=Path(__file__).resolve().parent) as work:
        for i, cfg in enumerate(workloads.configs("sweep", workloads.REFERENCE_SEED)):
            config = Path(work) / f"config_{i}.json"
            config.write_text(json.dumps(cfg))
            out = Path(work) / str(i)
            code = main(["--config", str(config), "--out", str(out)])
            if code != 0:
                return code
            header, *rows = (out / "report.csv").read_text().splitlines(keepends=True)
            parts += rows if parts else [header, *rows]
    workloads.REFERENCE_PATH.parent.mkdir(exist_ok=True)
    with open(workloads.REFERENCE_PATH, "wb") as sink:
        with gzip.GzipFile(fileobj=sink, mode="wb", filename="", mtime=0) as packed:
            packed.write("".join(parts).encode())
    return 0


if __name__ == "__main__":
    sys.exit(record())
