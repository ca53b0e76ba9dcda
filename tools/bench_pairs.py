"""Measure a base tree against this tree with perfbench and record both as BENCH_*.json.

Usage:
  python tools/bench_pairs.py --workload {sweep,search,identity} --base DIR
                              --base-label LABEL --label LABEL [--pairs N]

DIR is a checkout of the commit to compare against (``git archive`` or
``git clone``). Before the first pair, the ``src/`` and ``perfbench/``
files of each tree (``git ls-files -co --exclude-standard`` in a git
checkout) are copied to one temporary directory, and each side runs from
its copy: an edit made during the pairs is not measured, and both sides
run from the same file system at paths of the same length. Each pair runs
``python3 perfbench/run.py`` once in each copy, the base first in even
pairs and this tree first in odd ones, with the same workload and
perfbench's own default seed and run length, so every pair runs as the
benchmark does. The full output of every run (its detail line and its
result line) is written to BENCH_<LABEL>_<workload>.json at the repo root,
one file per tree, with the tree it measured: the sha256 of its copied
files (tree_hash) and, where the tree is a git checkout, its
``git rev-parse HEAD``. A label whose record exists is refused, so no
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
import hashlib
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# the directories perfbench/run.py reads: the package it measures and itself
MEASURED = ("src", "perfbench")


def git_head(tree: Path) -> str | None:
    """The commit checked out at tree, or None where tree is not the top of a git checkout."""
    top = subprocess.run(
        ["git", "-C", str(tree), "rev-parse", "--show-toplevel", "HEAD"],
        capture_output=True, text=True, check=False,
    )
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != tree.resolve():
        return None
    return lines[1]


def measured_files(tree: Path) -> list[str]:
    """Sorted paths, relative to tree, of the files under MEASURED.

    In a git checkout they are the tracked and unignored untracked files
    (``git ls-files -co --exclude-standard``); elsewhere, every file but
    Python's bytecode caches.
    """
    if git_head(tree) is not None:
        argv = ["git", "-C", str(tree), "ls-files", "-zco", "--exclude-standard", "--", *MEASURED]
        listed = subprocess.run(argv, capture_output=True, text=True, check=True).stdout
        # a tracked file deleted from the working tree is listed but not measured
        return sorted(path for path in listed.split("\0") if path and (tree / path).is_file())
    return sorted(
        path.relative_to(tree).as_posix()
        for top in MEASURED
        for path in (tree / top).rglob("*")
        if path.is_file() and "__pycache__" not in path.parts
    )


def tree_hash(tree: Path, files: list[str]) -> str:
    """sha256 over the sorted (path, bytes) of files, paths relative to tree."""
    digest = hashlib.sha256()
    for path in sorted(files):
        data = (tree / path).read_bytes()
        digest.update(f"{path}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


def snapshot(tree: Path, dest: Path) -> dict:
    """Copy tree's measured files into dest, made if missing; the {"sha256", "head"} of the copy."""
    files = measured_files(tree)
    for path in files:
        (dest / path).parent.mkdir(parents=True, exist_ok=True)
        shutil.copy2(tree / path, dest / path)
    return {"sha256": tree_hash(dest, files), "head": git_head(tree)}


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

    # both sides run from copies in one temporary directory, at paths of one length
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as copies:
        trees, sides = {}, {}
        for label, tree, name in ((args.base_label, args.base, "a"), (args.label, ROOT, "b")):
            copy = Path(copies) / name
            trees[label] = snapshot(tree.resolve(), copy)
            sides[label] = (copy, [])
        for pair in range(args.pairs):
            order = list(sides) if pair % 2 == 0 else list(sides)[::-1]
            for label in order:
                tree, runs = sides[label]
                runs.append(run_once(tree, args.workload))
                wall = runs[-1]["result"]["metrics"]["wall_s"]["value"]
                print(f"pair {pair} {label}: wall_s {wall:.3f}", flush=True)

    for label, (_, runs) in sides.items():
        record = {"label": label, "workload": args.workload, "tree": trees[label], "runs": runs}
        path = ROOT / f"BENCH_{label}_{args.workload}.json"
        path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path.name}")
    report = summary(sides[args.base_label][1], sides[args.label][1])
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
