"""Run every benchmark config twice, and diff the two runs' outputs byte for byte.

Usage:
  python tools/compare_outputs.py --base DIR
  python tools/compare_outputs.py --dispatch-off

With --base, DIR is a checkout of the commit to compare against (``git
archive`` or ``git clone``), and each config runs once with DIR's ``src/``
and once with this tree's. With --dispatch-off, each config runs twice with
this tree's ``src/``: natively, and with ``NPY_DISABLE_CPU_FEATURES``
listing every dispatched feature numpy reports available, so numpy runs its
baseline loops. Every config of every workload in ``perfbench/workloads.py``
is run at seeds 0 and 1 through ``enflolab.cli.main``, each side in its own
interpreter. Each config's ``report.csv``, ``h_coeffs_*.json`` and
``run_manifest.json`` must then match byte for byte, both sides must write
the same such files, and both must return the same exit code. The tool
prints one line per workload and seed and every difference it finds, then
one more line per workload and seed with the number of numeric
``report.csv`` cells that differ, their largest relative difference and
their columns, and the number and columns of the differing cells that are
not numbers on both sides (a flag that flips, a number that becomes
empty), and last one line per workload with the number of configs that
differ. It exits 1 if there is any difference, and writes only to a
temporary directory.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (0, 1)
COMPARED = ("report.csv", "run_manifest.json", "h_coeffs_*.json")

# runs a JSON list of [config, out] jobs through one tree's CLI, printing the exit codes
_RUNNER = """
import json, sys
sys.path.insert(0, sys.argv[1])
from enflolab import cli
with open(sys.argv[2]) as jobs:
    print(json.dumps([cli.main(["--config", c, "--out", o]) for c, o in json.load(jobs)]))
"""


def workload_configs() -> dict[tuple[str, int], list[dict]]:
    """perfbench's configs per (workload, seed)."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    return {(w, seed): workloads.configs(w, seed) for w in workloads.WORKLOADS for seed in SEEDS}


def dispatched_features() -> str:
    """The dispatched SIMD features numpy reports available here, space separated."""
    import numpy

    umath = (getattr(numpy, "_core", None) or numpy.core)._multiarray_umath
    return " ".join(f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f))


def run_tree(tree: Path, jobs: list[list[str]], job_file: Path, env: dict | None) -> list[int]:
    """Run every [config path, out dir] job with the tree's enflolab in env (None: this
    process's environment); return the exit codes."""
    job_file.write_text(json.dumps(jobs))
    argv = [sys.executable, "-c", _RUNNER, str(tree / "src"), str(job_file)]
    done = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"runner failed in {tree}: {done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def compared_files(out: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for pattern in COMPARED for p in sorted(out.glob(pattern))}


def differences(base_out: Path, out: Path) -> list[str]:
    """Names of the compared files that differ, or that only one side wrote."""
    a, b = compared_files(base_out), compared_files(out)
    return sorted(name for name in a.keys() | b.keys() if a.get(name) != b.get(name))


def cell_gaps(base_out: Path, out: Path) -> tuple[Counter, float, Counter]:
    """report.csv cells that differ between two runs.

    Returns the differing numeric cells per column, their largest relative
    gap, and the differing cells per column that are not numbers on both
    sides.
    """
    numeric, worst, other = Counter(), 0.0, Counter()
    tables = []
    for run in (base_out, out):
        path = run / "report.csv"
        if not path.is_file():
            return numeric, worst, other
        with open(path, newline="") as fh:
            tables.append(list(csv.reader(fh)))
    header = tables[0][0] if tables[0] else []
    for row_a, row_b in zip(tables[0][1:], tables[1][1:]):
        for name, a, b in zip(header, row_a, row_b):
            if a == b:
                continue
            try:
                x, y = float(a), float(b)
            except ValueError:
                other[name] += 1
                continue
            if x == y:  # one value written two ways
                gap = 0.0
            elif math.isfinite(x) and math.isfinite(y):
                gap = abs(x - y) / max(abs(x), abs(y))
            else:
                gap = math.inf
            numeric[name] += 1
            worst = max(worst, gap)
    return numeric, worst, other


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--base", type=Path)
    mode.add_argument("--dispatch-off", action="store_true")
    args = parser.parse_args(argv)
    # each side is (name, tree, environment)
    if args.dispatch_off:
        features = dispatched_features()
        if not features:
            print("numpy dispatches no feature above its baseline here; nothing to compare")
            return 0
        print(f"disabling: {features}")
        native = {k: v for k, v in os.environ.items() if k != "NPY_DISABLE_CPU_FEATURES"}
        off = dict(native, NPY_DISABLE_CPU_FEATURES=features)
        sides = (("native", ROOT, native), ("dispatch-off", ROOT, off))
    else:
        base = args.base.resolve()
        if not (base / "src" / "enflolab" / "cli.py").is_file():
            parser.error(f"{base} holds no src/enflolab/cli.py")
        sides = (("base", base, None), ("this", ROOT, None))
    (first, _, _), (second, _, _) = sides

    failed = False
    differing: dict[str, list[int]] = {}  # workload -> [configs that differ, configs]
    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as tmp:
        scratch = Path(tmp)
        for (workload, seed), configs in workload_configs().items():
            tag = f"{workload}-{seed}"
            paths = []
            for i, cfg in enumerate(configs):
                path = scratch / f"{tag}-{i}.json"
                path.write_text(json.dumps(cfg))
                paths.append(str(path))
            codes, outs = {}, {}
            for side, tree, env in sides:
                outs[side] = [scratch / side / tag / str(i) for i in range(len(paths))]
                jobs = [[p, str(o)] for p, o in zip(paths, outs[side])]
                codes[side] = run_tree(tree, jobs, scratch / f"{side}-{tag}.jobs.json", env)
            found, files = [], 0
            numeric, worst, other = Counter(), 0.0, Counter()
            tally = differing.setdefault(workload, [0, 0])
            for i, (a, b) in enumerate(zip(outs[first], outs[second])):
                before = len(found)
                if codes[first][i] != codes[second][i]:
                    found.append(f"config {i}: exit {codes[first][i]} vs {codes[second][i]}")
                found += [f"config {i}: {name} differs" for name in differences(a, b)]
                tally[0] += len(found) > before
                tally[1] += 1
                files += len(compared_files(b))
                counts, gap, others = cell_gaps(a, b)
                numeric, worst, other = numeric + counts, max(worst, gap), other + others
            status = "identical" if not found else f"{len(found)} differences"
            print(f"{workload} seed {seed}: {len(paths)} configs, {files} files, {status}")
            for line in found:
                print(f"  {line}")
            where = f" in {', '.join(sorted(numeric))}" if numeric else ""
            elsewhere = f" in {', '.join(sorted(other))}" if other else ""
            print(
                f"{workload} seed {seed}: {sum(numeric.values())} numeric cells differ, "
                f"largest relative difference {worst:.2g}{where}; "
                f"{sum(other.values())} non-numeric cells differ{elsewhere}"
            )
            failed = failed or bool(found)
    for workload, (count, total) in differing.items():
        print(f"{workload}: {count} of {total} configs differ")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
