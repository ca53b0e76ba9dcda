"""Measure a base tree against this tree with perfbench and record both as BENCH_*.json.

Usage:
  python tools/bench_pairs.py --workload {sweep,search,identity} --base DIR
                              --base-label LABEL --label LABEL [--pairs N]

DIR is a checkout of the commit to compare against (``git archive`` or
``git clone``). Each pair runs ``python3 perfbench/run.py`` once in each tree,
the base first in even pairs and this tree first in odd ones, with the same
workload and perfbench's own default seed and run length, so every pair runs
as the benchmark does. The full output of every run (its detail line
and its result line) is written to BENCH_<LABEL>_<workload>.json at the repo
root, one file per tree; a label whose record exists is refused, so no
record is ever overwritten. The summary printed at the end gives each
side's median and quartiles of every end-to-end metric, and how many pairs
this tree won on each; and the same for two figures of the detail line,
each run's median unscaled pass time (``pass_s``) and its median probe
time (``probe_s``). ``wall_s`` is the pass time over the probe time, so a
change that moves the probe, which runs in the pass process, shows there
as a probe shift rather than as a ``wall_s`` change alone.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(tree: Path, workload: str) -> dict:
    """One perfbench run in the given tree: {"detail": ..., "result": ...}."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"perfbench failed in {tree}: {done.stderr[-2000:]}")
    detail = json.loads(lines[-2])["detail"]
    return {"detail": detail, "result": json.loads(lines[-1])}


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def compare(a: list[float], b: list[float]) -> dict:
    """Each side's median and quartiles of one figure, and the pairs where this tree's is lower."""
    return {
        "base_median": statistics.median(a),
        "base_quartiles": quartiles(a),
        "median": statistics.median(b),
        "quartiles": quartiles(b),
        "pairs_won": sum(y < x for x, y in zip(a, b)),
        "pairs": len(a),
    }


def summary(base: list[dict], change: list[dict]) -> dict:
    """compare() of every end-to-end metric and of each run's median unscaled pass and probe time."""
    out = {}
    for name in base[0]["result"]["metrics"]:
        out[name] = compare(
            [run["result"]["metrics"][name]["value"] for run in base],
            [run["result"]["metrics"][name]["value"] for run in change],
        )
    # each run's median of a detail-line figure; wall_s is pass_s scaled by probe_s
    for name in ("pass_s", "probe_s"):
        out[f"detail.{name}"] = compare(
            [run["detail"][name]["quartiles"][1] for run in base],
            [run["detail"][name]["quartiles"][1] for run in change],
        )
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "search", "identity"))
    parser.add_argument("--base", required=True, type=Path)
    parser.add_argument("--base-label", required=True)
    parser.add_argument("--label", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be positive")
    if args.base_label == args.label:
        parser.error("--base-label and --label must differ")
    if not (args.base / "perfbench" / "run.py").is_file():
        parser.error(f"{args.base} holds no perfbench/run.py")
    for label in (args.base_label, args.label):
        if (ROOT / f"BENCH_{label}_{args.workload}.json").exists():
            parser.error(f"BENCH_{label}_{args.workload}.json exists; records are never overwritten")

    sides = {args.base_label: (args.base.resolve(), []), args.label: (ROOT, [])}
    for pair in range(args.pairs):
        order = list(sides) if pair % 2 == 0 else list(sides)[::-1]
        for label in order:
            tree, runs = sides[label]
            runs.append(run_once(tree, args.workload))
            wall = runs[-1]["result"]["metrics"]["wall_s"]["value"]
            print(f"pair {pair} {label}: wall_s {wall:.3f}", flush=True)

    for label, (_, runs) in sides.items():
        record = {"label": label, "workload": args.workload, "runs": runs}
        path = ROOT / f"BENCH_{label}_{args.workload}.json"
        path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path.name}")
    report = summary(sides[args.base_label][1], sides[args.label][1])
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
